//! Fixpoint engines for the Figure 5 mutual recursion.
//!
//! The rule system (taint propagation, storage writes, guard defeat) is
//! **monotone**: every relation only ever grows — input/storage taint
//! per variable, tainted slots and mappings, writable mappings, the
//! defeated-guard set, and `ReachableByAttacker` (which is an
//! anti-monotone function of the *undefeated* guards, hence monotone in
//! the defeated set). A monotone system has a unique least fixpoint, so
//! *any* fair evaluation strategy computes the same relations. Two
//! strategies live here:
//!
//! - [`sparse`] — worklist evaluation over the one-time [`indexes`]:
//!   only statements whose inputs changed are re-evaluated. The one
//!   production engine; it also records the first-derivation
//!   [`provenance`] that witnesses are built from.
//! - [`dense`] — naive evaluation, re-scanning every statement per
//!   round. Simple enough to read as the executable specification; it
//!   is reachable only through the reference oracle
//!   ([`crate::reference`]).
//!
//! Everything semantic is shared here — guard discovery, storage-address
//! classification, the `DS`/`DSA` relations, the defeat predicate, and
//! the [`State`] both engines fill — so the engines differ only in
//! *scheduling*, never in rules. The differential suites in
//! `crates/bench/tests/engine_differential.rs` hold them to that.

pub(crate) mod dense;
pub(crate) mod indexes;
pub(crate) mod provenance;
pub(crate) mod sparse;

use crate::config::Config;
use datalog::{BitSet, Interner};
use decompiler::{BlockId, DefUse, Dominators, Op, Program, StmtId, Var};
use evm::opcode::Opcode;
use evm::U256;
use std::collections::{HashMap, HashSet, VecDeque};

/// How a guard scrutinizes the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum GuardKind {
    /// `msg.sender == SLOAD(slot)` — an owner comparison; `slot` is also
    /// an *inferred sink* (§4.5).
    SenderEqSlot(U256),
    /// `msg.sender` compared against something non-constant (still
    /// sanitizing; defeated only by tainting the compared value).
    SenderEqOther,
    /// A sender-keyed data-structure membership test over the mapping
    /// with the given base slot (`require(m[msg.sender])`).
    Membership(U256),
    /// Sender-derived condition with no recognized shape (kept
    /// sanitizing, defeated only via condition taint).
    SenderOpaque,
}

/// How atomic guard kinds compose in a compound condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum GuardCond {
    /// A single sender check.
    Single(GuardKind),
    /// `a && b`: the attacker must defeat **every** conjunct.
    Conj(Vec<GuardKind>),
    /// `a || b`: defeating **any** disjunct suffices.
    Disj(Vec<GuardKind>),
}

impl GuardCond {
    /// The atomic kinds of this condition, in syntax order.
    pub(crate) fn kinds(&self) -> &[GuardKind] {
        match self {
            GuardCond::Single(k) => std::slice::from_ref(k),
            GuardCond::Conj(ks) | GuardCond::Disj(ks) => ks,
        }
    }
}

/// A branch region for the detector suite v2: a `JumpI`'s peeled
/// condition variable plus the blocks its edge-dominant successor
/// dominates. Unlike [`Guard`], the condition is *not* required to
/// scrutinize the caller — `tx.origin` and `block.timestamp` guards are
/// exactly the ones the sanitizing-guard machinery rejects.
#[derive(Clone, Debug)]
pub(crate) struct CondRegion {
    /// The `JumpI` statement.
    pub stmt: StmtId,
    /// Base condition variable (after peeling `ISZERO` chains).
    pub cond: Var,
    /// Blocks dominated by the edge-dominant successor, sorted.
    pub region: Vec<BlockId>,
}

/// A sanitizing guard: condition + the blocks it protects.
#[derive(Clone, Debug)]
pub(crate) struct Guard {
    /// Base condition variable (after peeling `ISZERO` chains).
    pub cond: Var,
    pub cond_kind: GuardCond,
    /// Bytecode offset of the guarding `JUMPI`.
    pub pc: usize,
    /// Blocks dominated by the guard's chosen successor.
    pub region: Vec<BlockId>,
}

/// Storage address classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SAddr {
    Const(U256),
    /// `Hash2*`-derived mapping element: base slot + key variables
    /// (outermost first).
    Mapping { base: U256, keys: Vec<Var> },
    Unknown,
}

/// [`SAddr`] with the 256-bit slot constants interned into dense atoms
/// (see [`datalog::Interner`]). Precomputed per `SLoad`/`SStore`
/// statement during index build, so the fixpoint inner loops test slot
/// membership against [`BitSet`]s instead of hashing 32-byte keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum KeyClass {
    /// Constant slot, by atom.
    Const(u32),
    /// Mapping element: interned base-slot atom + key variables.
    Mapping {
        /// Atom of the mapping's base slot.
        base: u32,
        /// Key variables, outermost first.
        keys: Vec<Var>,
    },
    Unknown,
}

/// Static (taint-independent) analysis context shared by both engines:
/// def/use sites, constants, the Figure 4 `DS`/`DSA` relations, and the
/// memoized storage-address classifier.
pub(crate) struct Ctx<'a> {
    pub p: &'a Program,
    /// Def→use-site index (params have one def per predecessor copy).
    pub du: DefUse,
    /// var → constant value, when uniquely determined.
    pub consts: Vec<Option<U256>>,
    /// Figure 4 relations over TAC vars.
    pub ds: Vec<bool>,
    pub dsa: Vec<bool>,
    /// var → storage-address classification (for SLoad/SStore keys).
    pub saddr_cache: HashMap<Var, SAddr>,
}

/// Per-opcode statement buckets for the detector sweeps, built once per
/// program so neither the main evaluation nor the frozen composite
/// re-run ever walks `iter_stmts()` again. Bucket order is statement
/// order; the findings they feed are sorted by `(vuln, stmt)` before
/// reporting, so bucket iteration order can never change output.
#[derive(Default)]
pub(crate) struct SinkIndex {
    /// `SELFDESTRUCT` statements.
    pub selfdestructs: Vec<StmtId>,
    /// `DELEGATECALL` statements.
    pub delegatecalls: Vec<StmtId>,
    /// `STATICCALL` statements.
    pub staticcalls: Vec<StmtId>,
    /// `SSTORE` statements (the tainted-owner sink scan universe).
    pub sstores: Vec<StmtId>,
    /// Any `CALL`/`CALLCODE` exists — gates the effect-summary
    /// detectors (most contracts have none).
    pub has_ext_call: bool,
    /// Selectors of functions owning a `RETURNDATASIZE` statement
    /// (sorted, deduped) — the §3.5 compiler-inserted check that clears
    /// an unchecked-staticcall finding.
    pub rds_selectors: Vec<u32>,
    /// Blocks holding a `RETURNDATASIZE` statement (sorted, deduped) —
    /// the block-equality fallback when function ownership is
    /// unavailable for the *call* site.
    pub rds_blocks: Vec<BlockId>,
    /// Blocks of `RETURNDATASIZE` statements whose own function
    /// ownership is unavailable — the fallback when ownership is known
    /// for the call but not for the check.
    pub rds_unowned_blocks: Vec<BlockId>,
}

/// Everything the engines need, built once per program during the
/// index-build phase: the static context, the discovered guards, CFG
/// facts, and the constant-offset memory def-use edges.
pub(crate) struct Prepared<'a> {
    pub ctx: Ctx<'a>,
    pub guards: Vec<Guard>,
    /// Per guard, aligned with `cond_kind.kinds()`: the interned slot
    /// atom of `SenderEqSlot`/`Membership` kinds (`None` for kinds with
    /// no slot). Lets the defeat predicate test bitsets directly.
    pub guard_atoms: Vec<Vec<Option<u32>>>,
    pub dom: Dominators,
    /// Per block: false when only reachable through interval-proven
    /// dead `JumpI` edges (range-guard pruning), true otherwise.
    pub live_block: Vec<bool>,
    pub n_dead_edges: usize,
    /// Const memory offset → (MSTORE stmt, stored value var).
    pub mem_stores: HashMap<U256, Vec<(StmtId, Var)>>,
    /// Universe of storage slot constants (slots + mapping bases) seen
    /// by key classification or guard kinds, interned to dense atoms.
    pub slots: Interner<U256>,
    /// Per statement: atom-resolved key classification (`Some` exactly
    /// for `SLoad`/`SStore`), shared by both engines so neither pays
    /// the memoizing classifier during the fixpoint.
    pub key_class: Vec<Option<KeyClass>>,
    /// Slots compared against `msg.sender` in some guard (§4.5 inferred
    /// sinks), hoisted out of the sink scan so the frozen composite
    /// re-run never recomputes them.
    pub guard_slots: HashSet<U256>,
    /// Per-opcode statement buckets for the detector sweeps.
    pub sinks: SinkIndex,
}

impl<'a> Prepared<'a> {
    /// Assembles the prepared program: interns the slot universe,
    /// resolves per-statement key classifications, and precomputes the
    /// per-guard atom table.
    pub fn build(
        mut ctx: Ctx<'a>,
        guards: Vec<Guard>,
        dom: Dominators,
        live_block: Vec<bool>,
        n_dead_edges: usize,
        mem_stores: HashMap<U256, Vec<(StmtId, Var)>>,
    ) -> Prepared<'a> {
        telemetry::metrics::counter("ethainter_prepared_builds_total").inc();
        let mut slots = Interner::new();
        let mut sinks = SinkIndex::default();
        let mut key_class: Vec<Option<KeyClass>> = vec![None; ctx.p.stmts.len()];
        for (id, kc) in key_class.iter_mut().enumerate() {
            let sid = StmtId(id as u32);
            let s = ctx.p.stmt(sid);
            match &s.op {
                Op::SelfDestruct => sinks.selfdestructs.push(sid),
                Op::Call { kind: Opcode::DelegateCall } => {
                    sinks.delegatecalls.push(sid)
                }
                Op::Call { kind: Opcode::StaticCall } => sinks.staticcalls.push(sid),
                Op::Call { kind: Opcode::Call | Opcode::CallCode } => {
                    sinks.has_ext_call = true
                }
                Op::Env(Opcode::ReturnDataSize) => {
                    match ctx.p.block_functions.get(s.block.0 as usize) {
                        Some(owners) => sinks.rds_selectors.extend(owners),
                        None => sinks.rds_unowned_blocks.push(s.block),
                    }
                    sinks.rds_blocks.push(s.block);
                }
                _ => {}
            }
            if !matches!(s.op, Op::SLoad | Op::SStore) {
                continue;
            }
            if s.op == Op::SStore {
                sinks.sstores.push(sid);
            }
            let key = s.uses[0];
            *kc = Some(match ctx.classify_addr(key) {
                SAddr::Const(v) => KeyClass::Const(slots.intern(v)),
                SAddr::Mapping { base, keys } => {
                    KeyClass::Mapping { base: slots.intern(base), keys }
                }
                SAddr::Unknown => KeyClass::Unknown,
            });
        }
        sinks.rds_selectors.sort_unstable();
        sinks.rds_selectors.dedup();
        sinks.rds_blocks.sort_unstable();
        sinks.rds_blocks.dedup();
        sinks.rds_unowned_blocks.sort_unstable();
        sinks.rds_unowned_blocks.dedup();
        let guard_slots: HashSet<U256> = guards
            .iter()
            .flat_map(|g| {
                g.cond_kind.kinds().iter().filter_map(|k| match k {
                    GuardKind::SenderEqSlot(v) => Some(*v),
                    _ => None,
                })
            })
            .collect();
        let guard_atoms = guards
            .iter()
            .map(|g| {
                g.cond_kind
                    .kinds()
                    .iter()
                    .map(|k| match k {
                        GuardKind::SenderEqSlot(v) => Some(slots.intern(*v)),
                        GuardKind::Membership(base) => Some(slots.intern(*base)),
                        GuardKind::SenderEqOther | GuardKind::SenderOpaque => None,
                    })
                    .collect()
            })
            .collect();
        Prepared {
            ctx,
            guards,
            guard_atoms,
            dom,
            live_block,
            n_dead_edges,
            mem_stores,
            slots,
            key_class,
            guard_slots,
            sinks,
        }
    }
}

/// The mutable fixpoint state both engines drive to the (unique) least
/// fixpoint. Every field is monotone: booleans only flip `false → true`,
/// sets only grow.
pub(crate) struct State {
    /// `TaintedFlow` — input taint per variable.
    pub input_tainted: Vec<bool>,
    /// `AttackerModelInfoflow` — storage taint per variable.
    pub storage_tainted: Vec<bool>,
    /// `OriginFlow` — `ORIGIN`-derived taint per variable (detector
    /// suite v2). Propagates unconditionally, like storage taint: the
    /// phishable origin value exists on every path.
    pub origin_tainted: Vec<bool>,
    /// `TimeFlow` — `TIMESTAMP`-derived taint per variable (detector
    /// suite v2). Unconditional, like `origin_tainted`.
    pub time_tainted: Vec<bool>,
    /// Constant storage slots holding tainted data (atoms into
    /// [`Prepared::slots`]).
    pub tainted_slots: BitSet,
    /// Mapping base slots holding tainted data (atoms).
    pub tainted_mappings: BitSet,
    /// Mapping base slots the attacker can enroll into (atoms).
    pub writable_mappings: BitSet,
    /// `StorageWrite-2` fired: every known slot is tainted.
    pub all_slots_tainted: bool,
    /// A tainted store to an unresolved address exists (conservative
    /// storage model).
    pub unknown_store_tainted: bool,
    /// Per guard: defeated by the fixpoint.
    pub defeated: Vec<bool>,
    /// Any guard was defeated (composite machinery engaged).
    pub any_defeat: bool,
    /// `ReachableByAttacker`, per block.
    pub rba: Vec<bool>,
    /// Convergence effort: outer passes (dense) or 1 + defeat waves
    /// (sparse). An engine-dependent *statistic*, unlike the relations
    /// above, which are engine-independent.
    pub rounds: usize,
    /// The cooperative deadline fired mid-fixpoint; relations are a
    /// valid under-approximation, not the fixpoint.
    pub timed_out: bool,
}

impl State {
    /// Fresh pre-fixpoint state: nothing tainted, no guard defeated,
    /// `rba` as implied by the undefeated guards and CFG reachability.
    pub fn new(prep: &Prepared<'_>) -> State {
        let n_vars = prep.ctx.p.n_vars as usize;
        let n_blocks = prep.ctx.p.blocks.len();
        let mut st = State {
            input_tainted: vec![false; n_vars],
            storage_tainted: vec![false; n_vars],
            origin_tainted: vec![false; n_vars],
            time_tainted: vec![false; n_vars],
            tainted_slots: BitSet::with_capacity(prep.slots.len()),
            tainted_mappings: BitSet::with_capacity(prep.slots.len()),
            writable_mappings: BitSet::with_capacity(prep.slots.len()),
            all_slots_tainted: false,
            unknown_store_tainted: false,
            defeated: vec![false; prep.guards.len()],
            any_defeat: false,
            rba: vec![true; n_blocks],
            rounds: 0,
            timed_out: false,
        };
        recompute_rba(prep, &st.defeated, &mut st.rba);
        st
    }
}

/// Rebuilds `ReachableByAttacker` from scratch: a block is reachable by
/// the attacker unless an *undefeated* guard's region covers it, and
/// never when the CFG (or interval analysis) proves it unreachable.
pub(crate) fn recompute_rba(prep: &Prepared<'_>, defeated: &[bool], rba: &mut [bool]) {
    for b in rba.iter_mut() {
        *b = true;
    }
    for (g, guard) in prep.guards.iter().enumerate() {
        if !defeated[g] {
            for &blk in &guard.region {
                rba[blk.0 as usize] = false;
            }
        }
    }
    // Unreachable blocks are not attacker-reachable either — whether
    // structurally (no CFG path) or because every path crosses a
    // branch the interval analysis decided statically.
    for (i, b) in rba.iter_mut().enumerate() {
        if !prep.dom.is_reachable(BlockId(i as u32)) || !prep.live_block[i] {
            *b = false;
        }
    }
}

/// The guard-defeat predicate of Figure 5, shared verbatim by both
/// engines:
///
/// ```text
/// ReachableByAttacker(s) :- StaticallyGuardedStatement(s, guard),
///                           TaintedFlow(_, guard).
/// ```
///
/// plus the structural defeats (owner slot tainted, membership mapping
/// attacker-writable), composed per the guard's `&&`/`||` shape.
///
/// `atoms` is the guard's row of [`Prepared::guard_atoms`], aligned with
/// `cond_kind.kinds()` — the slot membership tests run against the
/// interned-atom bitsets, never the 256-bit constants.
pub(crate) fn guard_defeated(
    guard: &Guard,
    atoms: &[Option<u32>],
    st: &State,
    cfg: &Config,
) -> bool {
    let ci = guard.cond.0 as usize;
    let cond_tainted = st.input_tainted[ci] || st.storage_tainted[ci];
    let kind_defeated = |(i, k): (usize, &GuardKind)| match k {
        GuardKind::SenderEqSlot(_) => {
            cfg.storage_taint
                && (st.all_slots_tainted
                    || atoms[i].is_some_and(|a| st.tainted_slots.contains(a)))
        }
        GuardKind::Membership(_) => {
            cfg.storage_taint && atoms[i].is_some_and(|a| st.writable_mappings.contains(a))
        }
        GuardKind::SenderEqOther | GuardKind::SenderOpaque => false,
    };
    let mut kinds = guard.cond_kind.kinds().iter().enumerate();
    let structural = match &guard.cond_kind {
        GuardCond::Single(_) | GuardCond::Conj(_) => kinds.all(kind_defeated),
        GuardCond::Disj(_) => kinds.any(kind_defeated),
    };
    cond_tainted || structural
}

impl Ctx<'_> {
    /// Constant propagation (`ConstValue`, C(x) = v): through `Const`
    /// definitions and `Copy` chains where all definitions agree.
    ///
    /// Worklist form: a variable is (re)examined only when first seeded
    /// or when a variable it copies from resolves. The resolution
    /// predicate is monotone (sources never change once `Some`), so this
    /// reaches the same least fixpoint as the naive rescan it replaced —
    /// in O(copy edges) instead of O(rounds × vars).
    pub fn compute_consts(&mut self) {
        let n = self.consts.len();
        let mut queue: VecDeque<u32> = (0..n as u32).collect();
        let mut queued = vec![true; n];
        while let Some(v) = queue.pop_front() {
            let vi = v as usize;
            queued[vi] = false;
            if self.consts[vi].is_some() {
                continue;
            }
            let defs = self.du.defs(Var(v));
            if defs.is_empty() {
                continue;
            }
            let mut val: Option<U256> = None;
            let mut ok = true;
            for &d in defs {
                let s = self.p.stmt(d);
                let this = match &s.op {
                    Op::Const(c) => Some(*c),
                    Op::Copy => self.consts[s.uses[0].0 as usize],
                    _ => None,
                };
                match (this, val) {
                    (Some(a), None) => val = Some(a),
                    (Some(a), Some(b)) if a == b => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let Some(c) = val else { continue };
            self.consts[vi] = Some(c);
            // Copies *of* v may now resolve — requeue their defined vars.
            for &u in self.du.uses(Var(v)) {
                let s = self.p.stmt(u);
                if s.op != Op::Copy {
                    continue;
                }
                let Some(d) = s.def else { continue };
                let di = d.0 as usize;
                if self.consts[di].is_none() && !queued[di] {
                    queued[di] = true;
                    queue.push_back(d.0);
                }
            }
        }
    }

    /// Figure 4 over TAC: `DS` (caller-identity data) and `DSA`
    /// (addresses of caller-keyed structure elements).
    ///
    /// Worklist form: every statement is examined once, then only
    /// re-examined when `ds`/`dsa` flips on one of its operands (the
    /// def's use-sites are requeued on a flip). Both relations are
    /// monotone, so this is the same least fixpoint as the naive
    /// all-statements rescan — without the O(rounds × stmts) cost that
    /// dominated index build on context-cloned megacontracts.
    pub fn compute_ds(&mut self) {
        let n_stmts = self.p.stmts.len();
        let mut queue: VecDeque<u32> = (0..n_stmts as u32).collect();
        let mut queued = vec![true; n_stmts];
        while let Some(id) = queue.pop_front() {
            queued[id as usize] = false;
            let s = self.p.stmt(StmtId(id));
            let Some(d) = s.def else { continue };
            let di = d.0 as usize;
            let mut flip_ds = false;
            let mut flip_dsa = false;
            match &s.op {
                // DS-SenderKey
                Op::Env(Opcode::Caller) if !self.ds[di] => flip_ds = true,
                // DS-Lookup / DSA-Lookup: the mapping hash of a
                // sender-derived key (or of a structure address) is a
                // structure address.
                Op::Hash2 => {
                    let k = s.uses[0].0 as usize;
                    let b = s.uses[1].0 as usize;
                    if (self.ds[k] || self.dsa[k] || self.dsa[b]) && !self.dsa[di] {
                        flip_dsa = true;
                    }
                }
                // DS-AddrOp: arithmetic on structure addresses.
                Op::Bin(_)
                    if s.uses.iter().any(|u| self.dsa[u.0 as usize])
                        && !self.dsa[di] =>
                {
                    flip_dsa = true;
                }
                // DSA-Load: dereferencing a structure address yields
                // caller-pertinent data.
                Op::SLoad if self.dsa[s.uses[0].0 as usize] && !self.ds[di] => {
                    flip_ds = true;
                }
                Op::Copy => {
                    let u = s.uses[0].0 as usize;
                    if self.ds[u] && !self.ds[di] {
                        flip_ds = true;
                    }
                    if self.dsa[u] && !self.dsa[di] {
                        flip_dsa = true;
                    }
                }
                _ => {}
            }
            if !flip_ds && !flip_dsa {
                continue;
            }
            if flip_ds {
                self.ds[di] = true;
            }
            if flip_dsa {
                self.dsa[di] = true;
            }
            for &u in self.du.uses(d) {
                let ui = u.0 as usize;
                if !queued[ui] {
                    queued[ui] = true;
                    queue.push_back(u.0);
                }
            }
        }
    }

    /// Storage-address classification for a key variable.
    pub fn classify_addr(&mut self, v: Var) -> SAddr {
        if let Some(cached) = self.saddr_cache.get(&v) {
            return cached.clone();
        }
        let result = self.classify_addr_inner(v, 0);
        self.saddr_cache.insert(v, result.clone());
        result
    }

    fn classify_addr_inner(&mut self, v: Var, depth: usize) -> SAddr {
        if depth > 16 {
            return SAddr::Unknown;
        }
        if let Some(c) = self.consts[v.0 as usize] {
            return SAddr::Const(c);
        }
        let defs: Vec<StmtId> = self.du.defs(v).to_vec();
        let mut result: Option<SAddr> = None;
        for d in defs {
            let s = self.p.stmt(d);
            let this = match &s.op {
                Op::Hash2 => {
                    let key = s.uses[0];
                    match self.classify_addr_inner(s.uses[1], depth + 1) {
                        SAddr::Const(base) => SAddr::Mapping { base, keys: vec![key] },
                        SAddr::Mapping { base, mut keys } => {
                            keys.push(key);
                            SAddr::Mapping { base, keys }
                        }
                        SAddr::Unknown => SAddr::Unknown,
                    }
                }
                Op::Copy => self.classify_addr_inner(s.uses[0], depth + 1),
                _ => SAddr::Unknown,
            };
            match (&result, this) {
                (None, t) => result = Some(t),
                (Some(a), t) if *a == t => {}
                _ => return SAddr::Unknown,
            }
        }
        result.unwrap_or(SAddr::Unknown)
    }

    /// Finds sanitizing guards: `JUMPI`s whose condition scrutinizes the
    /// caller, guarding the region dominated by their chosen successor.
    ///
    /// Regions are collected by DFS over the dominator-tree children
    /// index ([`Dominators::children`]) — O(region size) per guard —
    /// instead of testing `dom.dominates(succ, b)` for every block,
    /// which walked an idom chain per (guard, block) pair.
    pub fn find_guards(&mut self, dom: &Dominators) -> Vec<Guard> {
        let children = dom.children();
        let mut out = Vec::new();
        for s in self.p.iter_stmts() {
            if s.op != Op::JumpI {
                continue;
            }
            let block = self.p.block(s.block);
            // Peel ISZERO chains off the condition, tracking polarity.
            let (base, polarity) = self.peel_iszero(s.uses[0]);
            for (i, &succ) in block.succs.iter().enumerate() {
                // succs = [taken, fallthrough] when the target resolved;
                // the taken edge asserts cond != 0, fallthrough cond == 0.
                let edge_polarity = if block.succs.len() == 2 {
                    i == 0
                } else {
                    // Single successor: no information.
                    continue;
                };
                if edge_polarity != polarity {
                    continue;
                }
                // The region is sound only when the successor's sole
                // predecessor is this block (edge dominance).
                let succ_block = self.p.block(succ);
                if !(succ_block.preds.len() == 1 && succ_block.preds[0] == s.block) {
                    continue;
                }
                let Some(cond_kind) = self.guard_cond(base, 0) else { continue };
                // The dominated region is exactly the dominator-tree
                // subtree rooted at `succ` (when `succ` is reachable).
                let mut region: Vec<BlockId> = Vec::new();
                if dom.is_reachable(succ) {
                    let mut stack = vec![succ];
                    while let Some(b) = stack.pop() {
                        region.push(b);
                        stack.extend(&children[b.0 as usize]);
                    }
                    region.sort_unstable();
                }
                if !region.is_empty() {
                    out.push(Guard { cond: base, cond_kind, pc: s.pc, region });
                }
            }
        }
        out
    }

    /// Enumerates *all* branch regions, one per edge-dominant `JumpI`
    /// successor, regardless of what the condition scrutinizes — the
    /// detector suite v2 consumes these with its own taint predicates
    /// (`origin_tainted`/`time_tainted` on the peeled condition).
    /// Deterministic: statement order, then successor order.
    pub fn cond_regions(&self, dom: &Dominators) -> Vec<CondRegion> {
        let children = dom.children();
        let mut out = Vec::new();
        for s in self.p.iter_stmts() {
            if s.op != Op::JumpI {
                continue;
            }
            let block = self.p.block(s.block);
            let (base, _) = self.peel_iszero(s.uses[0]);
            if block.succs.len() != 2 {
                continue;
            }
            for &succ in &block.succs {
                let succ_block = self.p.block(succ);
                if !(succ_block.preds.len() == 1 && succ_block.preds[0] == s.block) {
                    continue;
                }
                if !dom.is_reachable(succ) {
                    continue;
                }
                let mut region: Vec<BlockId> = Vec::new();
                let mut stack = vec![succ];
                while let Some(b) = stack.pop() {
                    region.push(b);
                    stack.extend(&children[b.0 as usize]);
                }
                region.sort_unstable();
                if !region.is_empty() {
                    out.push(CondRegion { stmt: s.id, cond: base, region });
                }
            }
        }
        out
    }

    /// Follows `ISZERO` chains: returns the base variable and the
    /// polarity under which "cond true" asserts the base is true.
    fn peel_iszero(&self, v: Var) -> (Var, bool) {
        let mut cur = v;
        let mut polarity = true;
        for _ in 0..16 {
            let defs = self.du.defs(cur);
            if defs.len() != 1 {
                break;
            }
            let s = self.p.stmt(defs[0]);
            match &s.op {
                Op::Un(Opcode::IsZero) => {
                    polarity = !polarity;
                    cur = s.uses[0];
                }
                Op::Copy => cur = s.uses[0],
                _ => break,
            }
        }
        (cur, polarity)
    }

    /// Classifies a (possibly compound) guard condition. `&&`/`||`
    /// compile to bitwise AND/OR over normalized booleans; recurse into
    /// them so each conjunct/disjunct is scrutinized separately.
    fn guard_cond(&mut self, base: Var, depth: usize) -> Option<GuardCond> {
        if depth > 8 {
            return None;
        }
        let defs: Vec<StmtId> = self.du.defs(base).to_vec();
        if defs.len() == 1 {
            let s = self.p.stmt(defs[0]);
            if let Op::Bin(op @ (Opcode::And | Opcode::Or)) = s.op {
                let (a, _) = self.peel_iszero(s.uses[0]);
                let (b, _) = self.peel_iszero(s.uses[1]);
                let ka = self.guard_cond(a, depth + 1);
                let kb = self.guard_cond(b, depth + 1);
                let flatten = |c: GuardCond| -> Vec<GuardKind> {
                    match c {
                        GuardCond::Single(k) => vec![k],
                        GuardCond::Conj(ks) | GuardCond::Disj(ks) => ks,
                    }
                };
                return match (op, ka, kb) {
                    // a && b: any sanitizing conjunct keeps the guard; all
                    // sanitizing conjuncts must fall for defeat.
                    (Opcode::And, Some(x), Some(y)) => {
                        let mut ks = flatten(x);
                        ks.extend(flatten(y));
                        Some(GuardCond::Conj(ks))
                    }
                    (Opcode::And, Some(x), None) | (Opcode::And, None, Some(x)) => Some(x),
                    // a || b: a non-sender disjunct lets the attacker
                    // through outright (Uguard-NDS on that side).
                    (Opcode::Or, Some(x), Some(y)) => {
                        let mut ks = flatten(x);
                        ks.extend(flatten(y));
                        Some(GuardCond::Disj(ks))
                    }
                    _ => None,
                };
            }
        }
        self.guard_kind(base).map(GuardCond::Single)
    }

    /// Does an atomic condition scrutinize the caller, and how?
    fn guard_kind(&mut self, base: Var) -> Option<GuardKind> {
        // Membership: the condition is itself caller-pertinent data
        // (require(m[msg.sender])).
        if self.ds[base.0 as usize] {
            // Identify the mapping base if the shape is recognizable.
            let defs: Vec<StmtId> = self.du.defs(base).to_vec();
            for d in defs {
                let s = self.p.stmt(d);
                if s.op == Op::SLoad {
                    if let SAddr::Mapping { base: b, .. } = self.classify_addr(s.uses[0]) {
                        return Some(GuardKind::Membership(b));
                    }
                }
            }
            return Some(GuardKind::SenderOpaque);
        }
        // Comparison: Eq with a caller-derived side (Uguard-NDS excludes
        // conditions with no DS side).
        let defs: Vec<StmtId> = self.du.defs(base).to_vec();
        if defs.len() != 1 {
            return None;
        }
        let s = self.p.stmt(defs[0]);
        let Op::Bin(Opcode::Eq) = s.op else { return None };
        let (a, b) = (s.uses[0], s.uses[1]);
        let a_ds = self.ds[a.0 as usize];
        let b_ds = self.ds[b.0 as usize];
        if !a_ds && !b_ds {
            return None; // Uguard-NDS: not a sanitizing guard.
        }
        let other = if a_ds { b } else { a };
        // msg.sender == SLOAD(const slot): the owner pattern; the slot is
        // an inferred sink.
        let other_defs: Vec<StmtId> = self.du.defs(other).to_vec();
        if other_defs.len() == 1 {
            let od = self.p.stmt(other_defs[0]);
            if od.op == Op::SLoad {
                if let SAddr::Const(v) = self.classify_addr(od.uses[0]) {
                    return Some(GuardKind::SenderEqSlot(v));
                }
            }
        }
        Some(GuardKind::SenderEqOther)
    }
}
