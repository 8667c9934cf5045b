//! One-time program indexes for the sparse worklist engine.
//!
//! Built once per program (counted into the `index_build` timing phase)
//! and immutable during the fixpoint: for every kind of state change the
//! rules can make, an index answers "which statements (or guards) could
//! now fire?" so the engine re-evaluates exactly those. Nothing the IR
//! already indexes is copied here: the def→use sites are the analysis
//! context's one [`decompiler::DefUse`], and a block flipping to
//! attacker-reachable re-pushes the IR's own `Block::stmts`. This
//! module adds only the analysis-specific edges — constant-offset
//! memory def-use, storage slot/mapping → load-site maps, and guard
//! trigger maps.
//!
//! Every index here is a **dense `Vec` keyed by an interned atom**, not
//! a hash map keyed by a 256-bit constant or a `Var`: storage slots are
//! atoms from [`Prepared::slots`], constant memory offsets get their own
//! [`Interner`] built here, and variable-keyed triggers index by the
//! variable number directly. The fixpoint inner loops therefore never
//! hash a 32-byte key.

use super::atoms::Interner;
use super::{GuardKind, KeyClass, Prepared};
use decompiler::{Op, StmtId, Var};
use evm::U256;

/// All sparse-engine indexes for one program.
pub(crate) struct SparseIndexes {
    /// Constant memory offsets seen by `MLoad`/`MStore`, interned.
    pub mem: Interner<U256>,
    /// Per statement: the interned atom of its constant memory offset
    /// (`Some` exactly for `MLoad`/`MStore` with a constant key).
    pub stmt_mem: Vec<Option<u32>>,
    /// Memory atom → `MLoad` statements at that offset.
    pub mem_loads: Vec<Vec<StmtId>>,
    /// Memory atom → (store statement, stored value var) pairs — the
    /// atom-indexed mirror of [`Prepared::mem_stores`].
    pub mem_store_vals: Vec<Vec<(StmtId, Var)>>,
    /// Slot atom → `SLoad` statements reading that constant slot.
    pub sload_const: Vec<Vec<StmtId>>,
    /// Every `SLoad` with a constant-slot key (for the
    /// `all_slots_tainted` event, which fires them all).
    pub sload_const_all: Vec<StmtId>,
    /// Slot atom → `SLoad` statements reading an element of that
    /// mapping.
    pub sload_mapping: Vec<Vec<StmtId>>,
    /// `SLoad`s with unresolved keys (fired by `unknown_store_tainted`
    /// under the conservative storage model).
    pub sload_unknown: Vec<StmtId>,
    /// Mapping *key* variable → `SStore` statements whose key
    /// classification lists it. Mapping keys are operands of the
    /// `Hash2` chain, **not** of the store itself, so the def→use index
    /// alone would miss `key_attacker` flips when a key variable becomes
    /// input-tainted. Indexed by variable number.
    pub mapping_key_deps: Vec<Vec<StmtId>>,
    /// Guard condition variable → guard indexes (condition-taint
    /// defeat). Indexed by variable number.
    pub guards_by_cond: Vec<Vec<usize>>,
    /// Slot atom → guards with a `SenderEqSlot` kind on it.
    pub guards_by_slot: Vec<Vec<usize>>,
    /// Slot atom → guards with a `Membership` kind on it.
    pub guards_by_membership: Vec<Vec<usize>>,
    /// Guards with *any* `SenderEqSlot` kind (re-checked when
    /// `all_slots_tainted` fires).
    pub guards_slot_kind: Vec<usize>,
    /// Worklist seeds: statements whose rules can fire from static facts
    /// alone (`CallDataLoad` introduces taint; `SStore` can act on
    /// `DS`/constant values with no prior taint; `ORIGIN`/`TIMESTAMP`
    /// reads introduce the detector-suite-v2 flavors).
    pub seeds: Vec<StmtId>,
}

impl SparseIndexes {
    /// Builds every index in two passes (statements, then guards). The
    /// key classifications and slot atoms are already resolved in
    /// [`Prepared`], so this only distributes statement ids into the
    /// atom-indexed tables.
    pub fn build(prep: &Prepared<'_>) -> SparseIndexes {
        telemetry::metrics::counter("ethainter_sparse_index_builds_total").inc();
        let p = prep.ctx.p;
        let n_stmts = p.stmts.len();
        let n_vars = p.n_vars as usize;
        let n_slots = prep.slots.len();
        let mut ix = SparseIndexes {
            mem: Interner::new(),
            stmt_mem: vec![None; n_stmts],
            mem_loads: Vec::new(),
            mem_store_vals: Vec::new(),
            sload_const: vec![Vec::new(); n_slots],
            sload_const_all: Vec::new(),
            sload_mapping: vec![Vec::new(); n_slots],
            sload_unknown: Vec::new(),
            mapping_key_deps: vec![Vec::new(); n_vars],
            guards_by_cond: vec![Vec::new(); n_vars],
            guards_by_slot: vec![Vec::new(); n_slots],
            guards_by_membership: vec![Vec::new(); n_slots],
            guards_slot_kind: Vec::new(),
            seeds: Vec::new(),
        };
        for s in p.iter_stmts() {
            match &s.op {
                Op::MLoad | Op::MStore => {
                    if let Some(off) = prep.ctx.consts[s.uses[0].0 as usize] {
                        let a = ix.mem.intern(off);
                        if a as usize >= ix.mem_loads.len() {
                            ix.mem_loads.push(Vec::new());
                            ix.mem_store_vals.push(Vec::new());
                        }
                        ix.stmt_mem[s.id.0 as usize] = Some(a);
                        if s.op == Op::MLoad {
                            ix.mem_loads[a as usize].push(s.id);
                        } else {
                            ix.mem_store_vals[a as usize].push((s.id, s.uses[1]));
                        }
                    }
                }
                Op::SLoad => {
                    match prep.key_class[s.id.0 as usize].as_ref().unwrap() {
                        KeyClass::Const(a) => {
                            ix.sload_const[*a as usize].push(s.id);
                            ix.sload_const_all.push(s.id);
                        }
                        KeyClass::Mapping { base, .. } => {
                            ix.sload_mapping[*base as usize].push(s.id);
                        }
                        KeyClass::Unknown => ix.sload_unknown.push(s.id),
                    }
                }
                Op::SStore => {
                    if let KeyClass::Mapping { keys, .. } =
                        prep.key_class[s.id.0 as usize].as_ref().unwrap()
                    {
                        for &k in keys {
                            let deps = &mut ix.mapping_key_deps[k.0 as usize];
                            if deps.last() != Some(&s.id) {
                                deps.push(s.id);
                            }
                        }
                    }
                    ix.seeds.push(s.id);
                }
                Op::CallDataLoad => ix.seeds.push(s.id),
                Op::Env(evm::opcode::Opcode::Origin | evm::opcode::Opcode::Timestamp) => {
                    ix.seeds.push(s.id)
                }
                _ => {}
            }
        }
        for (g, guard) in prep.guards.iter().enumerate() {
            ix.guards_by_cond[guard.cond.0 as usize].push(g);
            let mut has_slot_kind = false;
            for (i, k) in guard.cond_kind.kinds().iter().enumerate() {
                let Some(atom) = prep.guard_atoms[g][i] else { continue };
                match k {
                    GuardKind::SenderEqSlot(_) => {
                        let slot = &mut ix.guards_by_slot[atom as usize];
                        if slot.last() != Some(&g) {
                            slot.push(g);
                        }
                        has_slot_kind = true;
                    }
                    GuardKind::Membership(_) => {
                        let ms = &mut ix.guards_by_membership[atom as usize];
                        if ms.last() != Some(&g) {
                            ms.push(g);
                        }
                    }
                    GuardKind::SenderEqOther | GuardKind::SenderOpaque => {}
                }
            }
            if has_slot_kind {
                ix.guards_slot_kind.push(g);
            }
        }
        ix
    }
}
