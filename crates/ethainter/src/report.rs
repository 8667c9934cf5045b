//! Findings and per-contract reports (Ethainter's output, consumed by
//! Ethainter-Kill and the evaluation harness).

use crate::timing::PhaseTimings;
use crate::witness::Witness;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The vulnerability classes of §3.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Vuln {
    /// §3.3 — `SELFDESTRUCT` executable by an arbitrary caller.
    AccessibleSelfDestruct,
    /// §3.4 — `SELFDESTRUCT` whose beneficiary is attacker-influenced.
    TaintedSelfDestruct,
    /// §3.1 — a storage slot used in a sender guard is attacker-writable.
    TaintedOwnerVariable,
    /// §3.2 — `DELEGATECALL` to an attacker-influenced address.
    TaintedDelegateCall,
    /// §3.5 — `STATICCALL` whose output window overlaps its input and is
    /// trusted without a `RETURNDATASIZE` check.
    UncheckedTaintedStaticCall,
    /// Detector suite v2 — external call ordered before the storage
    /// write that guards it (checks-effects-interactions violation).
    Reentrancy,
    /// Detector suite v2 — `ORIGIN` flowing into a guard comparison
    /// that gates a critical sink (phishable authentication).
    TxOriginAuth,
    /// Detector suite v2 — `TIMESTAMP` tainting a guard condition over
    /// a money flow, or a transferred value.
    TimestampDependence,
    /// Detector suite v2 — low-level `CALL` whose success flag never
    /// constrains a path or a storage write.
    UncheckedCallReturn,
}

impl Vuln {
    /// Number of vulnerability classes. [`Vuln::ALL`] is sized by this
    /// constant so adding a class is a one-enum-variant change — any
    /// per-class table should be `[T; Vuln::COUNT]` or driven by
    /// `Vuln::ALL.len()`, never a hardcoded arity.
    pub const COUNT: usize = 9;

    /// All vulnerability classes: the paper's five in its table order,
    /// then the detector-suite-v2 classes in declaration order.
    pub const ALL: [Vuln; Self::COUNT] = [
        Vuln::AccessibleSelfDestruct,
        Vuln::TaintedSelfDestruct,
        Vuln::TaintedOwnerVariable,
        Vuln::UncheckedTaintedStaticCall,
        Vuln::TaintedDelegateCall,
        Vuln::Reentrancy,
        Vuln::TxOriginAuth,
        Vuln::TimestampDependence,
        Vuln::UncheckedCallReturn,
    ];

    /// Short display name as in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Vuln::AccessibleSelfDestruct => "accessible selfdestruct",
            Vuln::TaintedSelfDestruct => "tainted selfdestruct",
            Vuln::TaintedOwnerVariable => "tainted owner variable",
            Vuln::TaintedDelegateCall => "tainted delegatecall",
            Vuln::UncheckedTaintedStaticCall => "unchecked tainted staticcall",
            Vuln::Reentrancy => "reentrancy",
            Vuln::TxOriginAuth => "tx.origin authentication",
            Vuln::TimestampDependence => "timestamp dependence",
            Vuln::UncheckedCallReturn => "unchecked call return",
        }
    }
}

impl fmt::Display for Vuln {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One flagged program point.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Vulnerability class.
    pub vuln: Vuln,
    /// TAC statement id of the sink/anchor.
    pub stmt: u32,
    /// Bytecode offset of the sink.
    pub pc: usize,
    /// Selectors of public functions from which the sink is reachable
    /// (Ethainter-Kill's entry-point candidates; empty when the
    /// dispatcher pattern was not recovered).
    pub selectors: Vec<u32>,
    /// Whether the composite machinery (guard tainting) was needed to
    /// establish this finding (the ✰ marker of Figure 6).
    pub composite: bool,
}

/// Per-relation fact counts at the analysis fixpoint — the sizes of the
/// Datalog-style relations of Figure 5, surfaced for perf triage of
/// batch runs (a contract with a pathological round count usually shows
/// an exploded relation here).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FactCounts {
    /// Variables carrying input taint (`TaintedFlow`).
    pub input_tainted: usize,
    /// Variables carrying storage taint (`AttackerModelInfoflow`).
    pub storage_tainted: usize,
    /// Constant storage slots holding tainted data.
    pub tainted_slots: usize,
    /// Mapping base slots holding tainted data.
    pub tainted_mappings: usize,
    /// Mapping base slots the attacker can enroll into.
    pub writable_mappings: usize,
    /// Sanitizing guards discovered (`StaticallyGuardedStatement`).
    pub guards: usize,
    /// Guards the fixpoint defeated.
    pub defeated_guards: usize,
    /// Variables with a unique constant value (`ConstValue`).
    pub consts: usize,
    /// Caller-identity variables (Figure 4's `DS`).
    pub ds: usize,
    /// Caller-keyed structure addresses (Figure 4's `DSA`).
    pub dsa: usize,
    /// Blocks attacker-reachable at the fixpoint (`ReachableByAttacker`).
    pub rba_blocks: usize,
    /// `JumpI` edges interval analysis proved never taken.
    pub dead_edges: usize,
    /// Variables carrying `ORIGIN`-derived taint (`OriginFlow`).
    /// Serde-defaulted: records written before detector suite v2 omit
    /// this relation.
    #[serde(default)]
    pub origin_tainted: usize,
    /// Variables carrying `TIMESTAMP`-derived taint (`TimeFlow`).
    #[serde(default)]
    pub time_tainted: usize,
}

/// Analysis statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stats {
    /// TAC blocks analyzed.
    pub blocks: usize,
    /// TAC statements analyzed (after IR passes, when enabled).
    pub stmts: usize,
    /// Convergence effort: 1 + guard-defeat waves of the sparse engine
    /// (the dense reference oracle counts re-scan passes instead).
    /// Engine-dependent by nature, unlike [`Stats::facts`], on which
    /// both engines must agree exactly.
    pub rounds: usize,
    /// Per-relation fact counts at the fixpoint.
    pub facts: FactCounts,
    /// Per-phase wall-clock timings. Observability only: excluded from
    /// equality-sensitive artifacts (`crates/store` strips them from
    /// cache entries and `merged.jsonl`).
    #[serde(default)]
    pub timings: PhaseTimings,
}

/// Full per-contract output.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Report {
    /// Flagged vulnerabilities.
    pub findings: Vec<Finding>,
    /// True when the deadline ([`with_deadline`](crate::with_deadline))
    /// fired; findings may be partial.
    pub timed_out: bool,
    /// Why the decompiler could not rebuild the CFG; nothing was
    /// analyzed. Absent (never `null`) on a complete program.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub decompile_failed: Option<String>,
    /// IR-validator violations on the raw decompiler output, when any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lint: Option<Vec<String>>,
    /// Bytecode offsets of the guard `JUMPI`s the fixpoint defeated —
    /// the provenance of every composite finding (the escalation chain
    /// an attacker walks through these guards, in pc order).
    pub defeated_guards: Vec<usize>,
    /// Statistics.
    pub stats: Stats,
    /// Source→sink provenance witnesses, one per finding in finding
    /// order — present only when [`Config::witness`](crate::Config) was
    /// on. Observability riding on the verdicts: `crates/store` strips
    /// witnesses from cache entries and `merged.jsonl` exactly like
    /// timings, and the field serializes as *absent* (not `null`) when
    /// unset so witness-off and witness-stripped records stay
    /// byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub witnesses: Option<Vec<Witness>>,
}

impl Report {
    /// True if any finding has the given class.
    pub fn has(&self, vuln: Vuln) -> bool {
        self.findings.iter().any(|f| f.vuln == vuln)
    }

    /// Findings of one class.
    pub fn of(&self, vuln: Vuln) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.vuln == vuln)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_class_exactly_once() {
        assert_eq!(Vuln::ALL.len(), Vuln::COUNT);
        let unique: std::collections::BTreeSet<_> = Vuln::ALL.iter().collect();
        assert_eq!(unique.len(), Vuln::COUNT, "duplicate class in Vuln::ALL");
    }

    #[test]
    fn every_class_round_trips_through_serde() {
        for v in Vuln::ALL {
            let json = serde_json::to_string(&v).unwrap();
            let back: Vuln = serde_json::from_str(&json).unwrap();
            assert_eq!(v, back, "serde round-trip changed {v:?} via {json}");
        }
        // The whole array round-trips as one value too (batch records
        // embed class lists, not single variants).
        let json = serde_json::to_string(&Vuln::ALL.to_vec()).unwrap();
        let back: Vec<Vuln> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Vuln::ALL.to_vec());
    }

    #[test]
    fn class_names_are_unique() {
        let names: std::collections::BTreeSet<_> =
            Vuln::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), Vuln::COUNT);
    }
}
