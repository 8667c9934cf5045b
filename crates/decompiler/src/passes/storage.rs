//! Per-public-function storage access summaries.
//!
//! For each dispatched [`PublicFunction`](crate::tac::PublicFunction),
//! collects the constant storage slots and mapping bases it may read or
//! write, walking the blocks reachable from the function's entry. Keys
//! the constant analysis cannot resolve set the `unknown_*` flags, so a
//! consumer treating a summary as exhaustive stays sound by widening on
//! those flags.
//!
//! `ethainter::analysis` consumes the write summaries as a pre-filter
//! for owner-variable sink inference: a contract where no dispatched
//! function can possibly write a guard slot cannot have a tainted-owner
//! flow, and the per-statement scan is skipped.

use crate::defuse::DefUse;
use crate::tac::{Op, Program};
use evm::U256;

use super::constprop;

/// Storage accesses one public function may perform.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionStorage {
    /// The function's 4-byte selector.
    pub selector: u32,
    /// Constant slots read via `SLOAD`.
    pub reads: Vec<U256>,
    /// Constant slots written via `SSTORE`.
    pub writes: Vec<U256>,
    /// Mapping bases read (key is `Hash2(_, base)` with constant base).
    pub read_mappings: Vec<U256>,
    /// Mapping bases written.
    pub write_mappings: Vec<U256>,
    /// Some read key could not be resolved to a slot or mapping base.
    pub unknown_reads: bool,
    /// Some write key could not be resolved — consumers must assume the
    /// function can write *any* slot.
    pub unknown_writes: bool,
}

impl FunctionStorage {
    /// True when the function may write `slot` (conservatively true
    /// under `unknown_writes`).
    pub fn may_write(&self, slot: U256) -> bool {
        self.unknown_writes || self.writes.contains(&slot) || self.write_mappings.contains(&slot)
    }
}

/// Summarizes storage accesses for every discovered public function.
/// Statements in blocks not owned by any function (the dispatcher
/// prologue, fallback paths) are attributed to every function, since
/// every call traverses them. `du` must index `p`.
pub fn summarize(p: &Program, du: &DefUse) -> Vec<FunctionStorage> {
    let consts = constprop::constants(p, du);
    // Resolve an access key: Some((slot/base, is_mapping)) or None.
    // Copy chains are followed only through unique defs; a block
    // parameter fed different hashes by different predecessors stays
    // unresolved (sound: it sets the unknown flag).
    let resolve = |key: crate::tac::Var| -> Option<(U256, bool)> {
        if let Some(c) = consts[key.0 as usize] {
            return Some((c, false));
        }
        let mut k = key;
        for _ in 0..16 {
            let [d] = du.defs(k)[..] else { return None };
            let def = p.stmt(d);
            match def.op {
                Op::Copy => k = def.uses[0],
                Op::Hash2 => {
                    let base = consts[def.uses[1].0 as usize]?;
                    return Some((base, true));
                }
                _ => return None,
            }
        }
        None
    };

    let mut out: Vec<FunctionStorage> = p
        .functions
        .iter()
        .map(|f| FunctionStorage { selector: f.selector, ..FunctionStorage::default() })
        .collect();
    if out.is_empty() {
        return out;
    }
    let index_of: std::collections::HashMap<u32, usize> =
        out.iter().enumerate().map(|(i, f)| (f.selector, i)).collect();

    for s in p.iter_stmts() {
        let (is_read, key) = match s.op {
            Op::SLoad => (true, s.uses[0]),
            Op::SStore => (false, s.uses[0]),
            _ => continue,
        };
        let owners = &p.block_functions[s.block.0 as usize];
        let targets: Vec<usize> = if owners.is_empty() {
            (0..out.len()).collect()
        } else {
            owners.iter().filter_map(|sel| index_of.get(sel).copied()).collect()
        };
        let resolved = resolve(key);
        for t in targets {
            let f = &mut out[t];
            match resolved {
                Some((slot, false)) => {
                    let list = if is_read { &mut f.reads } else { &mut f.writes };
                    if !list.contains(&slot) {
                        list.push(slot);
                    }
                }
                Some((base, true)) => {
                    let list =
                        if is_read { &mut f.read_mappings } else { &mut f.write_mappings };
                    if !list.contains(&base) {
                        list.push(base);
                    }
                }
                None => {
                    if is_read {
                        f.unknown_reads = true;
                    } else {
                        f.unknown_writes = true;
                    }
                }
            }
        }
    }
    for f in &mut out {
        f.reads.sort_unstable();
        f.writes.sort_unstable();
        f.read_mappings.sort_unstable();
        f.write_mappings.sort_unstable();
    }
    out
}
