//! Sparse, worklist-driven fixpoint evaluation — the production engine.
//!
//! Instead of re-scanning every statement per round, the engine keeps a
//! worklist of statements whose inputs may have changed and processes it
//! to exhaustion. Every rule firing is mapped to the statements it can
//! enable through the one-time [`SparseIndexes`]:
//!
//! - a variable gaining input/storage taint pushes its **use sites**
//!   (plus, for input taint, the `SStore`s whose *mapping keys* include
//!   it — keys hide behind `Hash2` chains and are not direct uses);
//! - a slot/mapping becoming tainted pushes exactly the `SLoad`s that
//!   read it; a tainted `MStore` value pushes the `MLoad`s at the same
//!   constant offset;
//! - a guard defeat does **not** rebuild `ReachableByAttacker`: each
//!   block keeps a count of undefeated guard regions covering it, the
//!   defeat decrements its region's counters, and a counter hitting zero
//!   flips just that block and re-pushes just its statements
//!   (delta-`recompute_rba`).
//!
//! **Worklist invariants** (why this terminates at the same fixpoint as
//! the dense engine — see `DESIGN.md` §10):
//!
//! 1. Every state field is monotone (bits flip `false → true`, sets only
//!    grow, block cover counts only fall), so each event fires at most
//!    once per fact and total work is bounded by the index sizes.
//! 2. A statement is pushed whenever *any* input of its transfer
//!    function changes — variable taint, storage facts, global flags,
//!    or its block's `rba` bit — so no enabled rule is ever stranded
//!    (fairness). Processing is idempotent: re-evaluating a statement
//!    whose inputs did not change performs no state change and pushes
//!    nothing.
//! 3. Monotone rule systems have a unique least fixpoint; 1 + 2 make
//!    the engine a fair chaotic iteration, which converges to exactly
//!    that fixpoint — hence verdicts, findings, and fact counts are
//!    identical to the dense engine's by construction (and by the
//!    differential suites in `crates/bench`).
//!
//! **Provenance.** With a [`Provenance`] recorder attached (witnesses
//! on), every event records *why* its fact first became true — the
//! rule, the statement that fired, and the prerequisite facts — just
//! before it sets the fact. Each event fires at most once per fact and
//! its edge may cite only facts that already hold, so the recorded
//! edges form an acyclic graph rooted at the axioms. Recording is lazy:
//! an edge is a closure over the current state, called only when a
//! recorder is attached, so a run without witnesses pays one `None`
//! check per newly set fact and never searches for a source. The
//! worklist order is a deterministic function of the program, and so
//! are the recorded derivations.

use super::indexes::SparseIndexes;
use super::provenance::{Edge, FactId, Provenance};
use super::{guard_defeated, Guard, GuardCond, GuardKind, KeyClass, Prepared, State};
use crate::analysis::deadline_exceeded;
use crate::config::{Config, StorageModel};
use decompiler::{BlockId, Op, StmtId, Var};
use std::collections::VecDeque;

/// Runs the sparse fixpoint, mutating `st` in place until the worklist
/// drains (= convergence) or the cooperative deadline fires. With
/// `prov` attached, the first derivation of every fact is recorded.
pub(crate) fn run(
    cfg: &Config,
    prep: &Prepared<'_>,
    idx: &SparseIndexes,
    st: &mut State,
    prov: Option<&mut Provenance>,
) {
    // An already-expired deadline must abort before any work, exactly as
    // the dense engine's per-round check does on its first round.
    if deadline_exceeded() {
        st.timed_out = true;
        return;
    }
    let n_stmts = prep.ctx.p.stmts.len();
    let n_blocks = prep.ctx.p.blocks.len();
    // Per block: undefeated guard regions covering it. rba is true iff
    // the count is zero and the block is (statically) reachable — the
    // same function recompute_rba computes densely.
    let mut cover = vec![0u32; n_blocks];
    for (g, guard) in prep.guards.iter().enumerate() {
        if !st.defeated[g] {
            for &blk in &guard.region {
                cover[blk.0 as usize] += 1;
            }
        }
    }
    let mut eng = Sparse {
        cfg,
        prep,
        idx,
        st,
        queue: VecDeque::new(),
        queued: vec![false; n_stmts],
        cover,
        pops: 0,
        prov,
    };
    eng.st.rounds = 1;
    for &s in &idx.seeds {
        push(&mut eng.queue, &mut eng.queued, s);
    }
    eng.drain();
}

/// Enqueues a statement unless it is already pending.
fn push(queue: &mut VecDeque<StmtId>, queued: &mut [bool], id: StmtId) {
    let i = id.0 as usize;
    if !queued[i] {
        queued[i] = true;
        queue.push_back(id);
    }
}

struct Sparse<'a, 'b> {
    cfg: &'b Config,
    prep: &'b Prepared<'a>,
    idx: &'b SparseIndexes,
    st: &'b mut State,
    queue: VecDeque<StmtId>,
    queued: Vec<bool>,
    /// Per block: undefeated guard regions covering it.
    cover: Vec<u32>,
    /// Statements processed (for the periodic deadline check).
    pops: usize,
    /// First-derivation recorder, attached only when witnesses are on.
    prov: Option<&'b mut Provenance>,
}

/// The first of `vars` set in `bits`: the source a flow edge cites. The
/// rule fired on it, and state is monotone, so one exists.
fn first_set(vars: &[Var], bits: &[bool]) -> u32 {
    vars.iter().find(|v| bits[v.0 as usize]).expect("the rule fired on a set fact").0
}

/// The first store whose value is set in `bits`, as `(store, value)`.
fn first_store(stores: &[(StmtId, Var)], bits: &[bool]) -> (StmtId, u32) {
    let &(sid, v) = stores
        .iter()
        .find(|(_, v)| bits[v.0 as usize])
        .expect("the rule fired on a set fact");
    (sid, v.0)
}

/// The prerequisite facts that defeat `guard` under the current state —
/// the provenance mirror of [`guard_defeated`]. `atoms` is the guard's
/// [`Prepared::guard_atoms`] row.
fn defeat_sources(guard: &Guard, atoms: &[Option<u32>], st: &State) -> Vec<FactId> {
    let ci = guard.cond.0;
    if st.input_tainted[ci as usize] {
        return vec![FactId::Input(ci)];
    }
    if st.storage_tainted[ci as usize] {
        return vec![FactId::Storage(ci)];
    }
    let kind_fact = |(i, k): (usize, &GuardKind)| -> Option<FactId> {
        let a = atoms[i]?;
        match k {
            GuardKind::SenderEqSlot(_) if st.tainted_slots.contains(a) => Some(FactId::Slot(a)),
            GuardKind::SenderEqSlot(_) if st.all_slots_tainted => Some(FactId::AllSlots),
            GuardKind::Membership(_) if st.writable_mappings.contains(a) => {
                Some(FactId::Writable(a))
            }
            _ => None,
        }
    };
    let defeated = guard.cond_kind.kinds().iter().enumerate().filter_map(kind_fact);
    match &guard.cond_kind {
        // One defeated disjunct suffices; cite only the first.
        GuardCond::Disj(_) => defeated.take(1).collect(),
        _ => defeated.collect(),
    }
}

/// The (all defeated) guards whose regions cover `blk` — the sources of
/// the block becoming attacker-reachable.
fn covering_guards(prep: &Prepared<'_>, st: &State, blk: BlockId) -> Vec<FactId> {
    prep.guards
        .iter()
        .enumerate()
        .filter(|(g, guard)| st.defeated[*g] && guard.region.binary_search(&blk).is_ok())
        .map(|(g, _)| FactId::Defeated(g))
        .collect()
}

impl<'a, 'b> Sparse<'a, 'b> {
    fn drain(&mut self) {
        while let Some(id) = self.queue.pop_front() {
            self.queued[id.0 as usize] = false;
            self.pops += 1;
            if self.pops & 0x3ff == 0 && deadline_exceeded() {
                self.st.timed_out = true;
                return;
            }
            self.process(id);
        }
    }

    /// Re-evaluates one statement's transfer function against the
    /// current state. Mirrors the dense engine's rules exactly; all
    /// scheduling happens through the event methods below.
    fn process(&mut self, id: StmtId) {
        let prep = self.prep;
        let idx = self.idx;
        let s = prep.ctx.p.stmt(id);
        let stmt_rba = self.st.rba[s.block.0 as usize];
        match &s.op {
            Op::CallDataLoad => {
                // TaintedFlow(x,x) :- ReachableByAttacker(s),
                //                     CALLDATALOAD(s, x).
                if let (true, Some(d)) = (stmt_rba, s.def) {
                    let reach = FactId::Reach(s.block.0);
                    self.set_input(d, |_| Edge::at("source-calldata", id, vec![reach]));
                }
            }
            // OriginFlow / TimeFlow sources (detector suite v2):
            // unconditional, like storage taint.
            Op::Env(evm::opcode::Opcode::Origin) => {
                if let Some(d) = s.def {
                    self.set_origin(d, |_| Edge::at("source-origin", id, vec![]));
                }
            }
            Op::Env(evm::opcode::Opcode::Timestamp) => {
                if let Some(d) = s.def {
                    self.set_time(d, |_| Edge::at("source-timestamp", id, vec![]));
                }
            }
            Op::Copy | Op::Bin(_) | Op::Un(_) | Op::Hash2 | Op::Sha3 | Op::Other(_) => {
                let Some(d) = s.def else { return };
                let any_in = s.uses.iter().any(|u| self.st.input_tainted[u.0 as usize]);
                let any_st =
                    s.uses.iter().any(|u| self.st.storage_tainted[u.0 as usize]);
                // Input taint moves only through attacker-reachable
                // statements (Guard-2); storage taint through all (Guard-1).
                let uses = &s.uses;
                if any_in && stmt_rba {
                    self.set_input(d, |st| {
                        let u = first_set(uses, &st.input_tainted);
                        Edge::at("flow", id, vec![FactId::Input(u), FactId::Reach(s.block.0)])
                    });
                }
                if any_st {
                    self.set_storage(d, |st| {
                        let u = first_set(uses, &st.storage_tainted);
                        Edge::at("flow", id, vec![FactId::Storage(u)])
                    });
                }
                if uses.iter().any(|u| self.st.origin_tainted[u.0 as usize]) {
                    self.set_origin(d, |st| {
                        let u = first_set(uses, &st.origin_tainted);
                        Edge::at("flow", id, vec![FactId::Origin(u)])
                    });
                }
                if uses.iter().any(|u| self.st.time_tainted[u.0 as usize]) {
                    self.set_time(d, |st| {
                        let u = first_set(uses, &st.time_tainted);
                        Edge::at("flow", id, vec![FactId::Time(u)])
                    });
                }
            }
            Op::MLoad => {
                // Local memory modeling: values stored at the same
                // constant offset flow to this load.
                let Some(d) = s.def else { return };
                if let Some(a) = idx.stmt_mem[id.0 as usize] {
                    let stores = &idx.mem_store_vals[a as usize];
                    let any_in = stores
                        .iter()
                        .any(|(_, v)| self.st.input_tainted[v.0 as usize]);
                    let any_st = stores
                        .iter()
                        .any(|(_, v)| self.st.storage_tainted[v.0 as usize]);
                    // The edge cites the feeding MSTORE as its `via` site.
                    let mem_flow = |sid, sources| Edge {
                        rule: "mem-flow",
                        stmt: Some(id),
                        via: Some(sid),
                        sources,
                    };
                    if any_in && stmt_rba {
                        self.set_input(d, |st| {
                            let (sid, v) = first_store(stores, &st.input_tainted);
                            mem_flow(sid, vec![FactId::Input(v), FactId::Reach(s.block.0)])
                        });
                    }
                    if any_st {
                        self.set_storage(d, |st| {
                            let (sid, v) = first_store(stores, &st.storage_tainted);
                            mem_flow(sid, vec![FactId::Storage(v)])
                        });
                    }
                    if stores.iter().any(|(_, v)| self.st.origin_tainted[v.0 as usize]) {
                        self.set_origin(d, |st| {
                            let (sid, v) = first_store(stores, &st.origin_tainted);
                            mem_flow(sid, vec![FactId::Origin(v)])
                        });
                    }
                    if stores.iter().any(|(_, v)| self.st.time_tainted[v.0 as usize]) {
                        self.set_time(d, |st| {
                            let (sid, v) = first_store(stores, &st.time_tainted);
                            mem_flow(sid, vec![FactId::Time(v)])
                        });
                    }
                }
            }
            Op::MStore => {
                // Scheduling only: a (now-)tainted stored value enables
                // the MLoads at the same offset. The loads pull the value
                // themselves when processed.
                let v = s.uses[1].0 as usize;
                if self.st.input_tainted[v]
                    || self.st.storage_tainted[v]
                    || self.st.origin_tainted[v]
                    || self.st.time_tainted[v]
                {
                    if let Some(a) = idx.stmt_mem[id.0 as usize] {
                        for &l in &idx.mem_loads[a as usize] {
                            push(&mut self.queue, &mut self.queued, l);
                        }
                    }
                }
            }
            Op::SLoad => {
                if !self.cfg.storage_taint {
                    return;
                }
                let Some(d) = s.def else { return };
                let class = prep.key_class[id.0 as usize].as_ref().unwrap();
                let tainted_load = match class {
                    KeyClass::Const(a) => {
                        self.st.tainted_slots.contains(*a) || self.st.all_slots_tainted
                    }
                    KeyClass::Mapping { base, .. } => {
                        self.st.tainted_mappings.contains(*base)
                    }
                    KeyClass::Unknown => {
                        self.cfg.storage_model == StorageModel::Conservative
                            && self.st.unknown_store_tainted
                    }
                };
                // StorageLoad: loads of tainted storage are
                // storage-tainted, eluding guards.
                if tainted_load {
                    self.set_storage(d, |st| {
                        let source = match class {
                            KeyClass::Const(a) if st.tainted_slots.contains(*a) => {
                                FactId::Slot(*a)
                            }
                            KeyClass::Const(_) => FactId::AllSlots,
                            KeyClass::Mapping { base, .. } => FactId::MappingTaint(*base),
                            KeyClass::Unknown => FactId::UnknownStore,
                        };
                        Edge::at("storage-load", id, vec![source])
                    });
                }
            }
            Op::SStore => {
                if !self.cfg.storage_taint {
                    return;
                }
                // StorageWrite-1 / StorageWrite-2 plus the enrollment
                // rule, evaluated together per statement (they read the
                // same operands; order is irrelevant at fixpoint).
                let key = s.uses[0];
                let value = s.uses[1];
                let v_in = self.st.input_tainted[value.0 as usize];
                let v_st = self.st.storage_tainted[value.0 as usize];
                // `msg.sender`-derived values written by the attacker are
                // attacker-chosen (public-initializer pattern).
                let v_ds = prep.ctx.ds[value.0 as usize];
                let attacker_value = (v_in || v_ds) && stmt_rba;
                let tainted_value = v_st || attacker_value;
                let reach = FactId::Reach(s.block.0);
                // The fact that makes the stored value tainted: storage
                // taint first (rule priority), reachability cited when
                // the attacker supplies the value.
                let value_sources = move || -> Vec<FactId> {
                    if v_st {
                        vec![FactId::Storage(value.0)]
                    } else if v_in {
                        vec![FactId::Input(value.0), reach]
                    } else {
                        vec![FactId::Sender(value.0), reach]
                    }
                };
                let store_edge = move |_: &State| Edge::at("storage-write", id, value_sources());
                match prep.key_class[id.0 as usize].as_ref().unwrap() {
                    KeyClass::Const(a) => {
                        if tainted_value {
                            self.taint_slot(*a, store_edge);
                        }
                    }
                    KeyClass::Mapping { base, keys } => {
                        let key_attacker = keys.iter().any(|k| {
                            prep.ctx.ds[k.0 as usize]
                                || self.st.input_tainted[k.0 as usize]
                        });
                        if tainted_value {
                            self.taint_mapping(*base, store_edge);
                        }
                        // Enrollment without taint: an attacker-reachable
                        // write of a non-zero constant (or attacker-derived
                        // value) into a structure keyed by the attacker
                        // (users[msg.sender] = true) makes its membership
                        // guards passable.
                        let value_nonzero_const = prep.ctx.consts
                            [value.0 as usize]
                            .is_some_and(|c| !c.is_zero());
                        let enroll_value =
                            value_nonzero_const || v_in || v_st || v_ds;
                        if key_attacker
                            && (tainted_value || (stmt_rba && enroll_value))
                        {
                            self.make_writable(*base, |st| {
                                let k = keys
                                    .iter()
                                    .find(|k| {
                                        prep.ctx.ds[k.0 as usize]
                                            || st.input_tainted[k.0 as usize]
                                    })
                                    .expect("key_attacker");
                                let mut sources = vec![if prep.ctx.ds[k.0 as usize] {
                                    FactId::Sender(k.0)
                                } else {
                                    FactId::Input(k.0)
                                }];
                                if tainted_value {
                                    sources.extend(value_sources());
                                } else {
                                    sources.push(reach);
                                }
                                Edge::at("enroll", id, sources)
                            });
                        }
                    }
                    KeyClass::Unknown => {
                        // StorageWrite-2: tainted value at a tainted
                        // (attacker-influenced) address taints all known
                        // slots. Conservative mode does this for *any*
                        // unknown address.
                        let key_tainted = self.st.input_tainted[key.0 as usize]
                            || self.st.storage_tainted[key.0 as usize];
                        let conservative =
                            self.cfg.storage_model == StorageModel::Conservative;
                        if tainted_value && (key_tainted || conservative) {
                            let why = move |st: &State| {
                                let mut sources = value_sources();
                                if st.input_tainted[key.0 as usize] {
                                    sources.push(FactId::Input(key.0));
                                } else if st.storage_tainted[key.0 as usize] {
                                    sources.push(FactId::Storage(key.0));
                                }
                                Edge::at("storage-write-unknown", id, sources)
                            };
                            self.set_all_slots_tainted(why);
                            self.set_unknown_store_tainted(why);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // ---- Events: one per kind of monotone state change ----------------

    /// Records the derivation of a fact about to become true. `why` runs
    /// only with a recorder attached, and sees the state *before* the
    /// fact is set, so its edge can cite only facts that already hold.
    fn record(&mut self, fact: FactId, why: impl FnOnce(&State) -> Edge) {
        if let Some(prov) = self.prov.as_deref_mut() {
            prov.record(fact, why(self.st));
        }
    }

    /// Variable gained input taint.
    fn set_input(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.input_tainted[vi] {
            return;
        }
        self.record(FactId::Input(v.0), why);
        self.st.input_tainted[vi] = true;
        let prep = self.prep;
        let idx = self.idx;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
        // Mapping keys are Hash2 operands, not SStore operands: the
        // dependent stores' key_attacker predicate just changed.
        for &d in &idx.mapping_key_deps[vi] {
            push(&mut self.queue, &mut self.queued, d);
        }
        self.defeat_candidates_by_cond(v);
    }

    /// Variable gained storage taint.
    fn set_storage(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.storage_tainted[vi] {
            return;
        }
        self.record(FactId::Storage(v.0), why);
        self.st.storage_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
        self.defeat_candidates_by_cond(v);
    }

    /// Variable gained `ORIGIN` taint (detector suite v2). Origin taint
    /// never feeds guard defeat or storage facts, so only the use sites
    /// (and, via `MStore` scheduling, memory loads) need re-evaluation.
    fn set_origin(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.origin_tainted[vi] {
            return;
        }
        self.record(FactId::Origin(v.0), why);
        self.st.origin_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
    }

    /// Variable gained `TIMESTAMP` taint (detector suite v2).
    fn set_time(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.time_tainted[vi] {
            return;
        }
        self.record(FactId::Time(v.0), why);
        self.st.time_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
    }

    /// Constant storage slot (by atom) became tainted.
    fn taint_slot(&mut self, slot: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.tainted_slots.contains(slot) {
            return;
        }
        self.record(FactId::Slot(slot), why);
        self.st.tainted_slots.insert(slot);
        let idx = self.idx;
        for &l in &idx.sload_const[slot as usize] {
            push(&mut self.queue, &mut self.queued, l);
        }
        for &g in &idx.guards_by_slot[slot as usize] {
            self.maybe_defeat(g);
        }
    }

    /// Mapping base slot (by atom) became tainted.
    fn taint_mapping(&mut self, base: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.tainted_mappings.contains(base) {
            return;
        }
        self.record(FactId::MappingTaint(base), why);
        self.st.tainted_mappings.insert(base);
        let idx = self.idx;
        for &l in &idx.sload_mapping[base as usize] {
            push(&mut self.queue, &mut self.queued, l);
        }
    }

    /// Mapping (by atom) became attacker-writable (enrollment).
    fn make_writable(&mut self, base: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.writable_mappings.contains(base) {
            return;
        }
        self.record(FactId::Writable(base), why);
        self.st.writable_mappings.insert(base);
        let idx = self.idx;
        for &g in &idx.guards_by_membership[base as usize] {
            self.maybe_defeat(g);
        }
    }

    /// StorageWrite-2 fired for the first time.
    fn set_all_slots_tainted(&mut self, why: impl FnOnce(&State) -> Edge) {
        if self.st.all_slots_tainted {
            return;
        }
        self.record(FactId::AllSlots, why);
        self.st.all_slots_tainted = true;
        let idx = self.idx;
        for &l in &idx.sload_const_all {
            push(&mut self.queue, &mut self.queued, l);
        }
        for &g in &idx.guards_slot_kind {
            self.maybe_defeat(g);
        }
    }

    /// A tainted store to an unresolved address appeared.
    fn set_unknown_store_tainted(&mut self, why: impl FnOnce(&State) -> Edge) {
        if self.st.unknown_store_tainted {
            return;
        }
        self.record(FactId::UnknownStore, why);
        self.st.unknown_store_tainted = true;
        let idx = self.idx;
        for &l in &idx.sload_unknown {
            push(&mut self.queue, &mut self.queued, l);
        }
    }

    /// A guard condition variable changed: re-check its guards.
    fn defeat_candidates_by_cond(&mut self, v: Var) {
        let idx = self.idx;
        for &g in &idx.guards_by_cond[v.0 as usize] {
            self.maybe_defeat(g);
        }
    }

    /// Re-evaluates the (shared) defeat predicate for one guard and, on
    /// defeat, applies the delta-rba update: decrement the region's
    /// cover counts and flip exactly the blocks whose last covering
    /// guard fell.
    fn maybe_defeat(&mut self, g: usize) {
        if self.st.defeated[g] || self.cfg.freeze_guards {
            return;
        }
        let prep = self.prep;
        if !guard_defeated(&prep.guards[g], &prep.guard_atoms[g], self.st, self.cfg) {
            return;
        }
        self.record(FactId::Defeated(g), |st| Edge {
            rule: "guard-defeat",
            stmt: None,
            via: None,
            sources: defeat_sources(&prep.guards[g], &prep.guard_atoms[g], st),
        });
        self.st.defeated[g] = true;
        self.st.any_defeat = true;
        // Convergence effort statistic: 1 + defeat waves (each defeat is
        // the sparse analogue of a dense re-scan round).
        self.st.rounds += 1;
        for &blk in &prep.guards[g].region {
            let bi = blk.0 as usize;
            self.cover[bi] -= 1;
            if self.cover[bi] == 0 {
                // Same reachability function as recompute_rba, applied to
                // this block only.
                let now_rba = prep.dom.is_reachable(blk) && prep.live_block[bi];
                if now_rba && !self.st.rba[bi] {
                    self.record(FactId::Reach(blk.0), |st| Edge {
                        rule: "guards-defeated",
                        stmt: None,
                        via: None,
                        sources: covering_guards(prep, st, blk),
                    });
                    self.st.rba[bi] = true;
                    // Everything in the block sees a new rba bit: its
                    // CallDataLoads, taint propagation, and SStore rules
                    // may all fire now.
                    for &sid in &prep.ctx.p.blocks[bi].stmts {
                        push(&mut self.queue, &mut self.queued, sid);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::AnalysisArtifacts;
    use std::collections::HashSet;

    /// Whether `fact` holds in `st` (`Sender` is the static `DS`).
    fn holds(fact: FactId, prep: &Prepared<'_>, st: &State) -> bool {
        match fact {
            FactId::Input(v) => st.input_tainted[v as usize],
            FactId::Storage(v) => st.storage_tainted[v as usize],
            FactId::Slot(a) => st.tainted_slots.contains(a),
            FactId::MappingTaint(a) => st.tainted_mappings.contains(a),
            FactId::Writable(a) => st.writable_mappings.contains(a),
            FactId::AllSlots => st.all_slots_tainted,
            FactId::UnknownStore => st.unknown_store_tainted,
            FactId::Defeated(g) => st.defeated[g],
            FactId::Reach(b) => st.rba[b as usize],
            FactId::Sender(v) => prep.ctx.ds[v as usize],
            FactId::Origin(v) => st.origin_tainted[v as usize],
            FactId::Time(v) => st.time_tainted[v as usize],
        }
    }

    /// Runs the recording fixpoint and checks the provenance graph: every
    /// derived fact has exactly one edge, and every fact an edge cites
    /// holds at the fixpoint and is an axiom or was recorded earlier.
    /// Returns the number of recorded edges.
    fn check_provenance(p: &decompiler::Program, cfg: &Config) -> usize {
        let art = AnalysisArtifacts::build(p, cfg);
        let Some(inner) = &art.inner else { return 0 };
        let prep = &inner.prep;
        let initial = State::new(prep);
        let mut st = State::new(prep);
        let mut prov = Provenance::default();
        run(cfg, prep, &inner.sparse, &mut st, Some(&mut prov));
        assert!(!st.timed_out);

        let mut recorded = HashSet::new();
        for &fact in &prov.order {
            assert!(holds(fact, prep, &st), "{fact:?} recorded but not derived");
            for &src in &prov.get(fact).expect("recorded").sources {
                assert!(holds(src, prep, &st), "{fact:?} cites {src:?}, which never held");
                let axiom = match src {
                    FactId::Sender(_) => true,
                    FactId::Reach(b) => initial.rba[b as usize],
                    _ => false,
                };
                assert!(
                    axiom || recorded.contains(&src),
                    "{fact:?} cites {src:?} before its derivation was recorded"
                );
            }
            assert!(recorded.insert(fact), "{fact:?} recorded twice");
        }

        // Completeness: every fact the fixpoint derived has an edge.
        let n_vars = p.n_vars;
        let mut derived: Vec<FactId> = (0..n_vars)
            .flat_map(|v| [FactId::Input(v), FactId::Storage(v), FactId::Origin(v), FactId::Time(v)])
            .chain((0..prep.slots.len() as u32).flat_map(|a| {
                [FactId::Slot(a), FactId::MappingTaint(a), FactId::Writable(a)]
            }))
            .chain((0..prep.guards.len()).map(FactId::Defeated))
            .chain([FactId::AllSlots, FactId::UnknownStore])
            .filter(|&f| holds(f, prep, &st))
            .collect();
        derived.extend(
            (0..st.rba.len())
                .filter(|&b| st.rba[b] && !initial.rba[b])
                .map(|b| FactId::Reach(b as u32)),
        );
        for f in &derived {
            assert!(recorded.contains(f), "{f:?} was derived without a recorded edge");
        }
        assert_eq!(derived.len(), recorded.len());
        recorded.len()
    }

    fn configs() -> [Config; 3] {
        [Config::default(), Config::conservative_storage(), Config::no_guard_model()]
    }

    const FIXTURES: &[&str] = &[
        // Public initializer defeats the owner guard through storage.
        r#"contract Bad {
            address owner;
            function initOwner(address o) public { owner = o; }
            function kill() public { require(msg.sender == owner); selfdestruct(owner); }
        }"#,
        // Membership chain: self-enrollment defeats guards mid-fixpoint.
        r#"contract Victim {
            mapping(address => bool) admins;
            mapping(address => bool) users;
            address owner;
            modifier onlyAdmins() { require(admins[msg.sender]); _; }
            modifier onlyUsers() { require(users[msg.sender]); _; }
            function registerSelf() public { users[msg.sender] = true; }
            function referUser(address u) public onlyUsers { users[u] = true; }
            function referAdmin(address a) public onlyUsers { admins[a] = true; }
            function changeOwner(address o) public onlyAdmins { owner = o; }
            function kill() public onlyAdmins { selfdestruct(owner); }
        }"#,
        // Origin and timestamp taint, a storage-laundered delegatecall
        // target, and an unchecked staticcall buffer.
        r#"contract Env {
            address owner = 0x1234;
            address lib;
            uint result;
            mapping(address => uint) credits;
            function setLib(address l) public { lib = l; }
            function run() public { delegatecall(lib); }
            function claim(address to, uint v) public {
                require(tx.origin == owner);
                credits[to] += v;
            }
            function drip(address to) public { require(send(to, block.timestamp % 0x100)); }
            function check(address w, uint input) public {
                result = staticcall_unchecked(w, input);
            }
        }"#,
    ];

    #[test]
    fn recorded_provenance_is_complete_and_acyclic_on_fixtures() {
        let mut edges = 0;
        for src in FIXTURES {
            let compiled = minisol::compile_source(src).expect("fixture compiles");
            let mut p = decompiler::decompile(&compiled.bytecode);
            decompiler::optimize(&mut p, &decompiler::PassConfig::default());
            for cfg in configs() {
                edges += check_provenance(&p, &cfg);
            }
        }
        assert!(edges > 0, "the fixtures must derive facts");
    }

    #[test]
    fn recorded_provenance_is_complete_and_acyclic_at_realistic_scale() {
        let pop = corpus::Population::generate(&corpus::PopulationConfig {
            size: 20,
            seed: 7,
            scale: corpus::Scale::Realistic,
            ..Default::default()
        });
        let mut edges = 0;
        for c in &pop.contracts {
            let mut p = decompiler::decompile(&c.bytecode);
            decompiler::optimize(&mut p, &decompiler::PassConfig::default());
            for cfg in configs() {
                edges += check_provenance(&p, &cfg);
            }
        }
        assert!(edges > 0, "the corpus must derive facts");
    }
}
