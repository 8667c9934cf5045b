//! First-derivation provenance for the fixpoint relations.
//!
//! When witnesses are requested, the production (sparse) engine runs the
//! main fixpoint with a [`Provenance`] recorder attached, and every event
//! that sets a fact records *why* the fact first became true: the rule
//! name, the statement that fired, and the prerequisite facts
//! ([`FactId`]s). An edge is recorded just before its fact is set and
//! cites only facts that already hold, so the edges form an acyclic
//! graph rooted at the axioms (CALLDATALOAD sources, `msg.sender`,
//! unguarded blocks), and backtracking from any sink fact replays a
//! concrete source→sink path.
//!
//! The explanation therefore comes from the very evaluation that
//! produced the verdict. The worklist order is a deterministic function
//! of the program, so witnesses are a deterministic function of
//! (program, config). Recording is only paid when
//! [`Config::witness`](crate::Config) is on, and its cost lands in the
//! `fixpoint` phase.

use decompiler::StmtId;
use std::collections::hash_map::{Entry, HashMap};

/// A fact of the fixpoint state, addressable for provenance lookup.
/// Storage slots are interned atoms of `Prepared::slots`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum FactId {
    /// Variable carries input taint (`TaintedFlow`).
    Input(u32),
    /// Variable carries storage taint (`AttackerModelInfoflow`).
    Storage(u32),
    /// Constant storage slot (by atom) holds tainted data.
    Slot(u32),
    /// Mapping base slot (by atom) holds tainted data.
    MappingTaint(u32),
    /// Mapping base slot (by atom) the attacker can enroll into.
    Writable(u32),
    /// `StorageWrite-2` fired: every known slot tainted.
    AllSlots,
    /// A tainted store to an unresolved address exists.
    UnknownStore,
    /// Guard (by index into `Prepared::guards`) was defeated.
    Defeated(usize),
    /// Block is `ReachableByAttacker`.
    Reach(u32),
    /// Variable is `msg.sender`-derived (Figure 4's `DS`) — a static
    /// axiom, never carries an edge.
    Sender(u32),
    /// Variable carries `ORIGIN`-derived taint (`OriginFlow`).
    Origin(u32),
    /// Variable carries `TIMESTAMP`-derived taint (`TimeFlow`).
    Time(u32),
}

/// Why a fact first became true: the deriving rule, the statement that
/// fired (plus an optional secondary site, e.g. the `MSTORE` feeding an
/// `MLOAD`), and the prerequisite facts.
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    pub rule: &'static str,
    pub stmt: Option<StmtId>,
    pub via: Option<StmtId>,
    pub sources: Vec<FactId>,
}

impl Edge {
    /// An edge fired by the rule `rule` at statement `stmt`.
    pub fn at(rule: &'static str, stmt: StmtId, sources: Vec<FactId>) -> Edge {
        Edge { rule, stmt: Some(stmt), via: None, sources }
    }
}

/// First-derivation edges, keyed by fact. Facts with no entry are
/// axioms (or were never derived). One map rather than a table per
/// relation: a run derives far fewer facts than the program has
/// variables, so per-variable tables would be mostly empty.
#[derive(Default)]
pub(crate) struct Provenance {
    edges: HashMap<FactId, Edge>,
    /// Recorded facts in recording order, for the acyclicity test.
    #[cfg(test)]
    pub order: Vec<FactId>,
}

impl Provenance {
    /// Records the first derivation of `fact`; later derivations are
    /// ignored (the engine sets each fact once, so none arrive).
    pub fn record(&mut self, fact: FactId, edge: Edge) {
        if let Entry::Vacant(slot) = self.edges.entry(fact) {
            slot.insert(edge);
            #[cfg(test)]
            self.order.push(fact);
        }
    }

    /// The first-derivation edge of `fact`, if it was derived (axioms
    /// and never-derived facts return `None`).
    pub fn get(&self, fact: FactId) -> Option<&Edge> {
        self.edges.get(&fact)
    }
}
