//! Interprocedural effect/ordering summaries over the TAC CFG.
//!
//! For each dispatched [`PublicFunction`](crate::tac::PublicFunction),
//! collects its *effect sites* — external-call sites (`CALL`/`CALLCODE`/
//! `DELEGATECALL`/`STATICCALL`), storage-write sites, and storage-read
//! sites — with the storage key resolved through the constant analysis
//! and unique-def `Copy`/`Hash2` chains where possible. Sites in blocks
//! not owned by any function (dispatcher prologue, fallback paths) are
//! attributed to every function, since every call traverses them.
//!
//! On top of the raw sites, the module answers two *ordering* queries
//! the detector suite needs, both grounded in the dominator tree:
//!
//! * [`must_precede`] — statement `a` executes before statement `b` on
//!   every path reaching `b` (same block and earlier position, or `a`'s
//!   block strictly dominates `b`'s).
//! * [`reordered_writes`] — checks-effects-interactions violations: a
//!   storage write ordered *after* an external call, where the same
//!   slot or mapping base was read *before* the call (the read is the
//!   stale balance check a re-entrant caller exploits).
//!
//! Each call site also records whether its success flag is *checked* —
//! whether the call's result transitively (through `Copy`/`Bin`/`Un`
//! chains) constrains a `JumpI` condition or a storage write. Unchecked
//! `CALL` results in attacker-reachable code are the
//! `UncheckedCallReturn` detector's sink.
//!
//! `ethainter::analysis` consumes these summaries for the detector
//! suite v2 sink scans (reentrancy, unchecked call return); the
//! summaries themselves are engine-independent, so the dense and sparse
//! engines share one set of sites and verdicts stay byte-identical.

use crate::defuse::DefUse;
use crate::dom::Dominators;
use crate::tac::{Op, Program, StmtId};
use evm::{Opcode, U256};

use super::constprop;

/// A resolved storage key: a concrete slot, a mapping base, or unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKey {
    /// Constant storage slot.
    Slot(U256),
    /// Mapping family: `Hash2(_, base)` with a constant base.
    Mapping(U256),
    /// The constant analysis could not resolve the key. Consumers must
    /// widen (assume any slot) to stay sound.
    Unknown,
}

impl SlotKey {
    /// True when both keys resolve and denote the same slot or base.
    /// `Unknown` never aliases — callers handle widening explicitly.
    pub fn same_cell(self, other: SlotKey) -> bool {
        self != SlotKey::Unknown && self == other
    }
}

/// One external-call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// The `Call` statement.
    pub stmt: StmtId,
    /// `Call` / `CallCode` / `DelegateCall` / `StaticCall`.
    pub kind: Opcode,
    /// True when the call's success flag transitively reaches a `JumpI`
    /// condition or a storage write (the result constrains control or
    /// state); false for fire-and-forget calls.
    pub checked: bool,
}

/// One storage-write (`SSTORE`) site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteSite {
    /// The `SStore` statement.
    pub stmt: StmtId,
    /// Resolved write key.
    pub key: SlotKey,
}

/// One storage-read (`SLOAD`) site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadSite {
    /// The `SLoad` statement.
    pub stmt: StmtId,
    /// Resolved read key.
    pub key: SlotKey,
}

/// Effect sites one public function may execute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionEffects {
    /// The function's 4-byte selector.
    pub selector: u32,
    /// External-call sites, in statement order.
    pub calls: Vec<CallSite>,
    /// Storage-write sites, in statement order.
    pub writes: Vec<WriteSite>,
    /// Storage-read sites, in statement order.
    pub reads: Vec<ReadSite>,
}

/// Whole-program effect summary: per-function sites plus the global
/// site lists the ordering queries run over.
#[derive(Clone, Debug, Default)]
pub struct EffectSummary {
    /// Per-public-function effect sites.
    pub functions: Vec<FunctionEffects>,
    /// Every external-call site in the program, in statement order.
    pub calls: Vec<CallSite>,
    /// Every storage-write site in the program, in statement order.
    pub writes: Vec<WriteSite>,
    /// Every storage-read site in the program, in statement order.
    pub reads: Vec<ReadSite>,
}

/// A checks-effects-interactions violation candidate: storage write
/// `write` to `cell` is ordered after external call `call`, and `read`
/// loaded the same cell before the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReorderedWrite {
    /// The external-call statement (the re-entry point).
    pub call: StmtId,
    /// The storage write that should have preceded the call.
    pub write: StmtId,
    /// The stale read the attacker exploits.
    pub read: StmtId,
    /// The slot or mapping base written late.
    pub cell: SlotKey,
}

/// True when `a` executes before `b` on every path that reaches `b`:
/// same block with an earlier position, or `a`'s block strictly
/// dominates `b`'s. Positions come from `block_pos` (see
/// [`block_positions`]).
pub fn must_precede(
    p: &Program,
    dom: &Dominators,
    block_pos: &[u32],
    a: StmtId,
    b: StmtId,
) -> bool {
    let (sa, sb) = (p.stmt(a), p.stmt(b));
    if sa.block == sb.block {
        block_pos[a.0 as usize] < block_pos[b.0 as usize]
    } else {
        dom.dominates(sa.block, sb.block)
    }
}

/// Position of every statement within its block (index into
/// `Block::stmts`), for same-block ordering in [`must_precede`].
pub fn block_positions(p: &Program) -> Vec<u32> {
    let mut pos = vec![0u32; p.stmts.len()];
    for b in &p.blocks {
        for (i, &s) in b.stmts.iter().enumerate() {
            pos[s.0 as usize] = i as u32;
        }
    }
    pos
}

/// Summarizes effect sites for every discovered public function and the
/// program as a whole. `du` must index `p`.
pub fn summarize(p: &Program, du: &DefUse) -> EffectSummary {
    let consts = constprop::constants(p, du);

    // Resolve a storage key through unique-def Copy/Hash2 chains (the
    // same discipline as `storage::summarize`): a block parameter fed
    // different hashes by different predecessors stays `Unknown`.
    let resolve = |key: crate::tac::Var| -> SlotKey {
        if let Some(c) = consts[key.0 as usize] {
            return SlotKey::Slot(c);
        }
        let mut k = key;
        for _ in 0..16 {
            let [d] = du.defs(k)[..] else { return SlotKey::Unknown };
            let def = p.stmt(d);
            match def.op {
                Op::Copy => k = def.uses[0],
                Op::Hash2 => {
                    return match consts[def.uses[1].0 as usize] {
                        Some(base) => SlotKey::Mapping(base),
                        None => SlotKey::Unknown,
                    };
                }
                _ => return SlotKey::Unknown,
            }
        }
        SlotKey::Unknown
    };

    // Does the call's success flag transitively constrain a path or a
    // write? Bounded forward walk over use sites through value-copying
    // ops; anything else that consumes the flag (a hash, a call
    // argument) does not count as a check.
    let result_checked = |s: &crate::tac::Stmt| -> bool {
        let Some(flag) = s.def else { return false };
        let mut stack = vec![flag];
        let mut seen = vec![flag];
        while let Some(v) = stack.pop() {
            for &u in du.uses(v) {
                let user = p.stmt(u);
                match user.op {
                    Op::JumpI | Op::SStore => return true,
                    Op::Copy | Op::Bin(_) | Op::Un(_) => {
                        if let Some(d) = user.def {
                            if !seen.contains(&d) && seen.len() < 64 {
                                seen.push(d);
                                stack.push(d);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        false
    };

    let mut out = EffectSummary {
        functions: p
            .functions
            .iter()
            .map(|f| FunctionEffects { selector: f.selector, ..FunctionEffects::default() })
            .collect(),
        ..EffectSummary::default()
    };
    let index_of: std::collections::HashMap<u32, usize> =
        p.functions.iter().enumerate().map(|(i, f)| (f.selector, i)).collect();

    for s in p.iter_stmts() {
        enum Site {
            Call(CallSite),
            Write(WriteSite),
            Read(ReadSite),
        }
        let site = match s.op {
            Op::Call { kind } => {
                Site::Call(CallSite { stmt: s.id, kind, checked: result_checked(s) })
            }
            Op::SStore => Site::Write(WriteSite { stmt: s.id, key: resolve(s.uses[0]) }),
            Op::SLoad => Site::Read(ReadSite { stmt: s.id, key: resolve(s.uses[0]) }),
            _ => continue,
        };
        let owners = &p.block_functions[s.block.0 as usize];
        let targets: Vec<usize> = if owners.is_empty() {
            (0..out.functions.len()).collect()
        } else {
            owners.iter().filter_map(|sel| index_of.get(sel).copied()).collect()
        };
        match site {
            Site::Call(c) => {
                out.calls.push(c);
                for t in targets {
                    out.functions[t].calls.push(c);
                }
            }
            Site::Write(w) => {
                out.writes.push(w);
                for t in targets {
                    out.functions[t].writes.push(w);
                }
            }
            Site::Read(r) => {
                out.reads.push(r);
                for t in targets {
                    out.functions[t].reads.push(r);
                }
            }
        }
    }
    out
}

/// Finds checks-effects-interactions violations: for every
/// state-changing external call (`CALL`/`CALLCODE` — static and
/// delegate calls have their own detectors), every storage write of a
/// *resolved* cell that must execute after the call, paired with a read
/// of the same cell that must execute before it. One violation is
/// reported per `(call, cell)` pair — the first qualifying write and
/// read in statement order.
pub fn reordered_writes(
    p: &Program,
    dom: &Dominators,
    summary: &EffectSummary,
) -> Vec<ReorderedWrite> {
    let pos = block_positions(p);
    let mut out = Vec::new();
    for c in &summary.calls {
        if !matches!(c.kind, Opcode::Call | Opcode::CallCode) {
            continue;
        }
        let mut cells_done: Vec<SlotKey> = Vec::new();
        for w in &summary.writes {
            if w.key == SlotKey::Unknown
                || cells_done.contains(&w.key)
                || !must_precede(p, dom, &pos, c.stmt, w.stmt)
            {
                continue;
            }
            let read = summary
                .reads
                .iter()
                .find(|r| r.key.same_cell(w.key) && must_precede(p, dom, &pos, r.stmt, c.stmt));
            if let Some(r) = read {
                cells_done.push(w.key);
                out.push(ReorderedWrite { call: c.stmt, write: w.stmt, read: r.stmt, cell: w.key });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompile;

    fn program(src: &str) -> Program {
        let compiled = minisol::compile_source(src).unwrap();
        decompile(&compiled.bytecode)
    }

    #[test]
    fn summarizes_call_and_write_sites_per_function() {
        let p = program(
            r#"
            contract C {
                uint nonce;
                function ping(address to, uint amount) public {
                    require(send(to, amount));
                }
                function bump() public { nonce = nonce + 1; }
            }"#,
        );
        let sum = summarize(&p, &DefUse::build(&p));
        assert_eq!(sum.calls.len(), 1);
        assert!(sum.calls[0].checked, "require(send(..)) checks the flag");
        assert!(sum.writes.iter().any(|w| w.key == SlotKey::Slot(U256::ZERO)));
        // The call belongs to `ping`'s summary only.
        let with_calls: Vec<_> =
            sum.functions.iter().filter(|f| !f.calls.is_empty()).collect();
        assert_eq!(with_calls.len(), 1);
    }

    #[test]
    fn unchecked_send_is_not_marked_checked() {
        let p = program(
            r#"
            contract C {
                function pay(address to, uint amount) public { send(to, amount); }
            }"#,
        );
        let sum = summarize(&p, &DefUse::build(&p));
        assert_eq!(sum.calls.len(), 1);
        assert!(!sum.calls[0].checked, "bare send never constrains anything");
    }

    #[test]
    fn detects_write_after_call_of_previously_read_cell() {
        let p = program(
            r#"
            contract Bank {
                mapping(address => uint) balances;
                function withdraw() public {
                    uint bal = balances[msg.sender];
                    require(bal > 0x0);
                    require(send(msg.sender, bal));
                    balances[msg.sender] = 0x0;
                }
            }"#,
        );
        let sum = summarize(&p, &DefUse::build(&p));
        let dom = Dominators::compute(&p);
        let viol = reordered_writes(&p, &dom, &sum);
        assert!(
            viol.iter().any(|v| v.cell == SlotKey::Mapping(U256::ZERO)),
            "expected a reordered write of mapping base 0, got {viol:?}"
        );
    }

    #[test]
    fn effects_before_interaction_is_clean() {
        let p = program(
            r#"
            contract Bank {
                mapping(address => uint) balances;
                function withdraw() public {
                    uint bal = balances[msg.sender];
                    require(bal > 0x0);
                    balances[msg.sender] = 0x0;
                    require(send(msg.sender, bal));
                }
            }"#,
        );
        let sum = summarize(&p, &DefUse::build(&p));
        let dom = Dominators::compute(&p);
        let viol = reordered_writes(&p, &dom, &sum);
        assert!(viol.is_empty(), "write precedes the call, got {viol:?}");
    }
}
