//! Tests for the static-analysis pass layer: DCE/constprop, interval
//! analysis, storage summaries, and the IR validator — against both
//! hand-built programs and real minisol-compiled bytecode.

use corpus::{Population, PopulationConfig, Scale};
use decompiler::passes::{constprop, dce, intervals, storage, validate};
use decompiler::tac::{Block, BlockId, Op, Program, PublicFunction, Stmt, StmtId, Var};
use decompiler::{decompile, optimize, DefUse, PassConfig};
use evm::opcode::Opcode;
use evm::{selector, U256};

fn compile(src: &str) -> Vec<u8> {
    minisol::compile_source(src).unwrap().bytecode
}

fn sel(sig: &str) -> u32 {
    u32::from_be_bytes(selector(sig))
}

// ---- Hand-built program helpers -------------------------------------

struct Prog {
    p: Program,
}

impl Prog {
    fn new(n_blocks: usize) -> Prog {
        let mut p = Program::default();
        for _ in 0..n_blocks {
            p.blocks.push(Block::default());
        }
        Prog { p }
    }

    fn var(&mut self) -> Var {
        let v = Var(self.p.n_vars);
        self.p.n_vars += 1;
        v
    }

    fn param(&mut self, b: usize) -> Var {
        let v = self.var();
        self.p.blocks[b].params.push(v);
        v
    }

    fn stmt(&mut self, b: usize, op: Op, def: Option<Var>, uses: Vec<Var>) -> StmtId {
        let id = StmtId(self.p.stmts.len() as u32);
        self.p.stmts.push(Stmt { id, block: BlockId(b as u32), pc: id.0 as usize, op, def, uses });
        self.p.blocks[b].stmts.push(id);
        id
    }

    fn edge(&mut self, a: usize, b: usize) {
        self.p.blocks[a].succs.push(BlockId(b as u32));
        self.p.blocks[b].preds.push(BlockId(a as u32));
    }
}

/// Runs the DCE pass alone over a fresh def-use index.
fn run_dce(p: &mut Program) -> usize {
    let du = DefUse::build(p);
    dce::eliminate_dead_code(p, &du)
}

/// Runs constant propagation alone over a fresh def-use index.
fn run_constprop(p: &mut Program) -> usize {
    let du = DefUse::build(p);
    constprop::propagate(p, &du)
}

/// Runs interval analysis over a fresh def-use index.
fn run_intervals(p: &Program) -> intervals::Intervals {
    intervals::analyze(p, &DefUse::build(p))
}

// ---- Dead-code elimination --------------------------------------------

#[test]
fn dce_removes_unused_pure_chain_and_keeps_effects() {
    let mut t = Prog::new(1);
    let a = t.var();
    let b = t.var();
    let c = t.var();
    let k = t.var();
    let v = t.var();
    t.stmt(0, Op::Const(U256::from(7u64)), Some(a), vec![]);
    t.stmt(0, Op::Copy, Some(b), vec![a]); // dead chain head
    t.stmt(0, Op::Un(Opcode::IsZero), Some(c), vec![b]); // dead chain tail
    t.stmt(0, Op::Const(U256::ONE), Some(k), vec![]);
    t.stmt(0, Op::Const(U256::from(2u64)), Some(v), vec![]);
    t.stmt(0, Op::SStore, None, vec![k, v]); // effect: must survive
    t.stmt(0, Op::Stop, None, vec![]);
    let removed = run_dce(&mut t.p);
    // a, b, c all die (a only fed the dead chain); k, v, SStore, Stop stay.
    assert_eq!(removed, 3);
    assert_eq!(t.p.stmts.len(), 4);
    assert!(t.p.iter_stmts().any(|s| s.op == Op::SStore));
    // Ids were renumbered densely and backlinks hold.
    assert!(validate::validate(&t.p).is_empty(), "DCE broke IR invariants");
}

#[test]
fn dce_keeps_unused_returndatasize() {
    // RETURNDATASIZE presence is the unchecked-staticcall detector's
    // "checked" marker; an unused one must not be deleted.
    let mut t = Prog::new(1);
    let r = t.var();
    t.stmt(0, Op::Env(Opcode::ReturnDataSize), Some(r), vec![]);
    t.stmt(0, Op::Stop, None, vec![]);
    let removed = run_dce(&mut t.p);
    assert_eq!(removed, 0);
    assert!(t.p.iter_stmts().any(|s| s.op == Op::Env(Opcode::ReturnDataSize)));
}

#[test]
fn dce_removes_dead_params_and_their_binding_copies() {
    // B0 binds two params of B1; only one is read in B1.
    let mut t = Prog::new(2);
    let x = t.var();
    let y = t.var();
    let p_used = t.param(1);
    let p_dead = t.param(1);
    t.stmt(0, Op::Env(Opcode::CallValue), Some(x), vec![]);
    t.stmt(0, Op::Env(Opcode::Caller), Some(y), vec![]);
    t.stmt(0, Op::Copy, Some(p_used), vec![x]);
    t.stmt(0, Op::Copy, Some(p_dead), vec![y]);
    t.stmt(0, Op::Jump, None, vec![]);
    t.edge(0, 1);
    let k = t.var();
    t.stmt(1, Op::Const(U256::ONE), Some(k), vec![]);
    t.stmt(1, Op::SStore, None, vec![k, p_used], );
    t.stmt(1, Op::Stop, None, vec![]);

    let removed = run_dce(&mut t.p);
    // The dead param's Copy and the Caller feeding it both go.
    assert_eq!(removed, 2);
    assert_eq!(t.p.blocks[1].params, vec![p_used]);
    assert!(validate::validate(&t.p).is_empty());
}

/// B0 → B1 (loop: `i' = i + 1`, back edge to B1) → B2. Returns the
/// program and the loop counter `i`, a parameter of B1.
fn counting_loop() -> (Prog, Var) {
    let mut t = Prog::new(3);
    let i0 = t.var();
    let i = t.param(1);
    let one = t.var();
    let i2 = t.var();
    let cond = t.var();
    t.stmt(0, Op::Const(U256::ZERO), Some(i0), vec![]);
    t.stmt(0, Op::Copy, Some(i), vec![i0]);
    t.stmt(0, Op::Jump, None, vec![]);
    t.edge(0, 1);
    t.stmt(1, Op::Const(U256::ONE), Some(one), vec![]);
    t.stmt(1, Op::Bin(Opcode::Add), Some(i2), vec![i, one]);
    t.stmt(1, Op::Copy, Some(i), vec![i2]);
    t.stmt(1, Op::Env(Opcode::CallValue), Some(cond), vec![]);
    t.stmt(1, Op::JumpI, None, vec![cond]);
    t.edge(1, 1);
    t.edge(1, 2);
    (t, i)
}

#[test]
fn dce_removes_dead_loop_carried_cycle() {
    // The counter only feeds its own next value: no effect reads it, so
    // the whole cycle (both bindings, the add, both constants) goes.
    let (mut t, _) = counting_loop();
    t.stmt(2, Op::Stop, None, vec![]);
    let removed = run_dce(&mut t.p);
    assert_eq!(removed, 5);
    assert!(t.p.blocks[1].params.is_empty());
    assert!(t.p.iter_stmts().all(|s| !matches!(s.op, Op::Copy | Op::Bin(_) | Op::Const(_))));
    assert!(validate::validate(&t.p).is_empty(), "DCE broke IR invariants");
}

#[test]
fn dce_keeps_loop_carried_cycle_read_by_sstore() {
    let (mut t, i) = counting_loop();
    let k = t.var();
    t.stmt(2, Op::Const(U256::ZERO), Some(k), vec![]);
    t.stmt(2, Op::SStore, None, vec![k, i]);
    t.stmt(2, Op::Stop, None, vec![]);
    let before = t.p.stmts.len();
    assert_eq!(run_dce(&mut t.p), 0);
    assert_eq!(t.p.stmts.len(), before);
    assert_eq!(t.p.blocks[1].params, vec![i]);
}

// ---- Constant propagation -------------------------------------------

#[test]
fn constprop_folds_across_block_params() {
    // Both predecessors bind the same constant to B2's param; an Add of
    // two such params folds even though the builder's per-block view
    // could not see it.
    let mut t = Prog::new(4);
    let p2 = t.param(3);
    let c0 = t.var();
    let c1 = t.var();
    let cond = t.var();
    t.stmt(0, Op::Env(Opcode::CallValue), Some(cond), vec![]);
    t.stmt(0, Op::JumpI, None, vec![cond]);
    t.edge(0, 1);
    t.edge(0, 2);
    t.stmt(1, Op::Const(U256::from(5u64)), Some(c0), vec![]);
    t.stmt(1, Op::Copy, Some(p2), vec![c0]);
    t.stmt(1, Op::Jump, None, vec![]);
    t.edge(1, 3);
    t.stmt(2, Op::Const(U256::from(5u64)), Some(c1), vec![]);
    t.stmt(2, Op::Copy, Some(p2), vec![c1]);
    t.stmt(2, Op::Jump, None, vec![]);
    t.edge(2, 3);
    let ten = t.var();
    let k = t.var();
    t.stmt(3, Op::Bin(Opcode::Add), Some(ten), vec![p2, p2]);
    t.stmt(3, Op::Const(U256::ZERO), Some(k), vec![]);
    t.stmt(3, Op::SStore, None, vec![k, ten]);
    t.stmt(3, Op::Stop, None, vec![]);

    let folded = run_constprop(&mut t.p);
    assert_eq!(folded, 1);
    let add = t.p.iter_stmts().find(|s| s.def == Some(ten)).unwrap();
    assert_eq!(add.op, Op::Const(U256::from(10u64)));
    assert!(add.uses.is_empty());
}

#[test]
fn constprop_does_not_fold_disagreeing_params() {
    let mut t = Prog::new(4);
    let p2 = t.param(3);
    let c0 = t.var();
    let c1 = t.var();
    let cond = t.var();
    t.stmt(0, Op::Env(Opcode::CallValue), Some(cond), vec![]);
    t.stmt(0, Op::JumpI, None, vec![cond]);
    t.edge(0, 1);
    t.edge(0, 2);
    t.stmt(1, Op::Const(U256::from(5u64)), Some(c0), vec![]);
    t.stmt(1, Op::Copy, Some(p2), vec![c0]);
    t.stmt(1, Op::Jump, None, vec![]);
    t.edge(1, 3);
    t.stmt(2, Op::Const(U256::from(6u64)), Some(c1), vec![]);
    t.stmt(2, Op::Copy, Some(p2), vec![c1]);
    t.stmt(2, Op::Jump, None, vec![]);
    t.edge(2, 3);
    let out = t.var();
    let k = t.var();
    t.stmt(3, Op::Bin(Opcode::Add), Some(out), vec![p2, p2]);
    t.stmt(3, Op::Const(U256::ZERO), Some(k), vec![]);
    t.stmt(3, Op::SStore, None, vec![k, out]);
    t.stmt(3, Op::Stop, None, vec![]);
    assert_eq!(run_constprop(&mut t.p), 0);
}

#[test]
fn constprop_extends_the_builder_fold_table() {
    // MOD is not in the builder's fold table; feed it via params so the
    // builder could not have folded it anyway, and check the pass does.
    let mut t = Prog::new(1);
    let a = t.var();
    let b = t.var();
    let m = t.var();
    let k = t.var();
    t.stmt(0, Op::Const(U256::from(17u64)), Some(a), vec![]);
    t.stmt(0, Op::Const(U256::from(5u64)), Some(b), vec![]);
    t.stmt(0, Op::Bin(Opcode::Mod), Some(m), vec![a, b]);
    t.stmt(0, Op::Const(U256::ZERO), Some(k), vec![]);
    t.stmt(0, Op::SStore, None, vec![k, m]);
    t.stmt(0, Op::Stop, None, vec![]);
    assert_eq!(run_constprop(&mut t.p), 1);
    let s = t.p.iter_stmts().find(|s| s.def == Some(m)).unwrap();
    assert_eq!(s.op, Op::Const(U256::from(2u64)));
}

// ---- Interval analysis ----------------------------------------------

#[test]
fn intervals_prove_masked_value_bounds() {
    // v = CALLDATALOAD & 0xff  →  [0, 255];  v < 0x100 is proven true.
    let mut t = Prog::new(1);
    let cd_off = t.var();
    let cd = t.var();
    let mask = t.var();
    let masked = t.var();
    let bound = t.var();
    let cmp = t.var();
    t.stmt(0, Op::Const(U256::ZERO), Some(cd_off), vec![]);
    t.stmt(0, Op::CallDataLoad, Some(cd), vec![cd_off]);
    t.stmt(0, Op::Const(U256::from(0xffu64)), Some(mask), vec![]);
    t.stmt(0, Op::Bin(Opcode::And), Some(masked), vec![cd, mask]);
    t.stmt(0, Op::Const(U256::from(0x100u64)), Some(bound), vec![]);
    t.stmt(0, Op::Bin(Opcode::Lt), Some(cmp), vec![masked, bound]);
    t.stmt(0, Op::Stop, None, vec![]);
    let iv = run_intervals(&t.p);
    assert_eq!(iv.of(masked).hi, U256::from(0xffu64));
    assert_eq!(iv.of(cmp).singleton(), Some(U256::ONE), "Lt must be proven true");
}

#[test]
fn intervals_kill_statically_decided_branches() {
    // JumpI on a constant-true condition: the fallthrough edge is dead.
    let mut t = Prog::new(3);
    let c = t.var();
    t.stmt(0, Op::Const(U256::ONE), Some(c), vec![]);
    t.stmt(0, Op::JumpI, None, vec![c]);
    t.edge(0, 1); // taken
    t.edge(0, 2); // fallthrough
    t.stmt(1, Op::Stop, None, vec![]);
    t.stmt(2, Op::Stop, None, vec![]);
    let iv = run_intervals(&t.p);
    assert_eq!(iv.dead_edges, vec![(BlockId(0), 1)]);

    // And the mirror: constant-false kills the taken edge.
    let mut f = Prog::new(3);
    let z = f.var();
    f.stmt(0, Op::Const(U256::ZERO), Some(z), vec![]);
    f.stmt(0, Op::JumpI, None, vec![z]);
    f.edge(0, 1);
    f.edge(0, 2);
    f.stmt(1, Op::Stop, None, vec![]);
    f.stmt(2, Op::Stop, None, vec![]);
    assert_eq!(run_intervals(&f.p).dead_edges, vec![(BlockId(0), 0)]);
}

#[test]
fn intervals_widen_loop_counters_instead_of_diverging() {
    // i' = i + 1 in a loop: the envelope must reach ⊤, not iterate 2^256
    // times. The analysis terminating at all is most of the assertion.
    let mut t = Prog::new(3);
    let i0 = t.var();
    let i = t.param(1);
    let one = t.var();
    let i2 = t.var();
    let cond = t.var();
    t.stmt(0, Op::Const(U256::ZERO), Some(i0), vec![]);
    t.stmt(0, Op::Copy, Some(i), vec![i0]);
    t.stmt(0, Op::Jump, None, vec![]);
    t.edge(0, 1);
    t.stmt(1, Op::Const(U256::ONE), Some(one), vec![]);
    t.stmt(1, Op::Bin(Opcode::Add), Some(i2), vec![i, one]);
    t.stmt(1, Op::Copy, Some(i), vec![i2]);
    t.stmt(1, Op::Env(Opcode::CallValue), Some(cond), vec![]);
    t.stmt(1, Op::JumpI, None, vec![cond]);
    t.edge(1, 1);
    t.edge(1, 2);
    t.stmt(2, Op::Stop, None, vec![]);
    let iv = run_intervals(&t.p);
    assert_eq!(iv.of(i).lo, U256::ZERO);
    assert_eq!(iv.of(i).hi, U256::MAX, "unstable loop counter must widen to top");
}

// ---- Storage summaries ----------------------------------------------

#[test]
fn storage_summaries_attribute_slots_to_functions() {
    let code = compile(
        r#"contract C {
            uint a;
            uint b;
            mapping(address => uint) m;
            function ra() public returns (uint) { return a; }
            function wb(uint v) public { b = v; }
            function wm(uint v) public { m[msg.sender] = v; }
        }"#,
    );
    let p = decompile(&code);
    let sums = storage::summarize(&p, &DefUse::build(&p));
    let find = |s: u32| sums.iter().find(|f| f.selector == s).unwrap();

    let ra = find(sel("ra()"));
    assert!(ra.reads.contains(&U256::ZERO), "ra() reads slot 0: {ra:?}");
    assert!(ra.writes.is_empty(), "ra() writes nothing: {ra:?}");

    let wb = find(sel("wb(uint256)"));
    assert!(wb.writes.contains(&U256::ONE), "wb() writes slot 1: {wb:?}");
    assert!(!wb.may_write(U256::ZERO) || wb.unknown_writes);

    let wm = find(sel("wm(uint256)"));
    assert!(
        wm.write_mappings.contains(&U256::from(2u64)),
        "wm() writes mapping at base slot 2: {wm:?}"
    );
}

// ---- The optimize() pipeline on real bytecode ------------------------

#[test]
fn optimize_shrinks_real_contracts_and_preserves_invariants() {
    let code = compile(
        r#"contract C {
            uint x;
            address owner;
            function set(uint v) public { if (msg.sender == address(owner)) { x = v; } }
            function get() public returns (uint) { return x; }
            function burn() public { selfdestruct(msg.sender); }
        }"#,
    );
    let mut p = decompile(&code);
    let funcs_before = p.functions.clone();
    let blocks_before = p.blocks.len();
    let stats = optimize(&mut p, &PassConfig::default());
    assert!(stats.stmts_after < stats.stmts_before, "pipeline should remove something");
    assert_eq!(stats.stmts_after, p.len());
    assert_eq!(p.blocks.len(), blocks_before, "CFG shape must be preserved");
    assert_eq!(p.functions, funcs_before, "function table must be preserved");
    assert!(validate::validate(&p).is_empty(), "optimized IR must stay well-formed");
}

#[test]
fn optimize_skips_incomplete_programs() {
    let code = compile("contract C { uint x; function f(uint v) public { x = v; } }");
    let mut p = decompiler::decompile_with_limits(&code, decompiler::Limits { max_blocks: 1, max_stmts: 4 });
    assert!(p.incomplete);
    let before = p.len();
    let stats = optimize(&mut p, &PassConfig::default());
    assert_eq!(p.len(), before);
    assert_eq!(stats.removed, 0);
}

#[test]
fn optimize_is_idempotent_on_realistic_contracts() {
    // One constprop + one DCE is the whole fixpoint: a second run over
    // the optimized IR folds and removes nothing and leaves it as is.
    let pop = Population::generate(&PopulationConfig {
        size: 20,
        seed: 7,
        scale: Scale::Realistic,
        ..Default::default()
    });
    for (i, c) in pop.contracts.iter().enumerate() {
        let mut p = decompile(&c.bytecode);
        let first = optimize(&mut p, &PassConfig::default());
        let text = p.to_string();
        let second = optimize(&mut p, &PassConfig::default());
        let family = c.family;
        assert_eq!((second.folded, second.removed), (0, 0), "{family}#{i}: {first:?}, {second:?}");
        assert_eq!(p.to_string(), text, "{family}#{i}: second optimize changed the IR");
    }
}

// ---- Validator -------------------------------------------------------

#[test]
fn validator_accepts_compiler_output() {
    let code = compile(
        r#"contract C {
            uint x;
            mapping(address => uint) m;
            function f(uint v) public { x = v; m[msg.sender] = v; }
            function g() public returns (uint) { return x + m[msg.sender]; }
        }"#,
    );
    let p = decompile(&code);
    assert!(p.warnings.is_empty() && !p.incomplete);
    assert_eq!(validate::validate(&p), Vec::<String>::new());
}

#[test]
fn validator_flags_missing_terminator() {
    let mut t = Prog::new(1);
    let v = t.var();
    t.stmt(0, Op::Const(U256::ZERO), Some(v), vec![]);
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("non-terminator")), "{bad:?}");
}

#[test]
fn validator_flags_mid_block_terminator() {
    let mut t = Prog::new(1);
    t.stmt(0, Op::Stop, None, vec![]);
    t.stmt(0, Op::Stop, None, vec![]);
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("not last")), "{bad:?}");
}

#[test]
fn validator_flags_use_before_def() {
    let mut t = Prog::new(1);
    let ghost = t.var();
    t.stmt(0, Op::SelfDestruct, None, vec![ghost]);
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("before any local def")), "{bad:?}");
}

#[test]
fn validator_flags_double_definition() {
    let mut t = Prog::new(1);
    let v = t.var();
    t.stmt(0, Op::Const(U256::ZERO), Some(v), vec![]);
    t.stmt(0, Op::Const(U256::ONE), Some(v), vec![]);
    t.stmt(0, Op::Stop, None, vec![]);
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("definition sites")), "{bad:?}");
}

#[test]
fn validator_flags_asymmetric_edges() {
    let mut t = Prog::new(2);
    t.stmt(0, Op::Jump, None, vec![]);
    t.stmt(1, Op::Stop, None, vec![]);
    t.p.blocks[0].succs.push(BlockId(1)); // no matching pred entry
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("predecessor entries")), "{bad:?}");
}

#[test]
fn validator_flags_unreachable_function_entry() {
    let mut t = Prog::new(2);
    t.stmt(0, Op::Stop, None, vec![]);
    t.stmt(1, Op::Stop, None, vec![]);
    // Block 1 is disconnected, yet claimed as a function entry.
    t.p.functions.push(PublicFunction { selector: 0xdeadbeef, entry: BlockId(1) });
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("unreachable from the dispatcher")), "{bad:?}");
}

#[test]
fn validator_flags_out_of_range_statement_id() {
    let mut t = Prog::new(1);
    t.stmt(0, Op::Stop, None, vec![]);
    t.p.blocks[0].stmts.push(StmtId(99));
    let bad = validate::validate(&t.p);
    assert!(bad.iter().any(|m| m.contains("out of range")), "{bad:?}");
}
