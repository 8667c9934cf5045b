//! Taint-provenance witnesses: replaying a verdict into a concrete
//! source→sink path through the TAC IR.
//!
//! When [`Config::witness`](crate::Config) is on, the production
//! fixpoint records the first derivation of every fact as it derives it
//! (see `engine::provenance`), and for every finding this module
//! backtracks from the sink's seed facts through the derivation DAG to
//! the axioms —
//! CALLDATALOAD sources, `msg.sender`, and unguarded blocks. The result
//! is a [`Witness`]: an ordered list of [`WitnessStep`]s where every
//! step's prerequisites appear before it and the last step is the sink
//! statement itself. `ethainter explain` renders these; the batch
//! driver attaches them to `Status::Analyzed` records (and the store
//! strips them from cache entries and `merged.jsonl`, like timings).
//!
//! Witnesses are **deterministic**: the worklist engine's evaluation
//! order is a function of the program alone, so the same (bytecode,
//! config) pair yields a byte-identical witness on every run, on every
//! thread, at any cache temperature. The determinism suite in
//! `crates/bench` holds this across repeated and concurrent runs.

use crate::engine::provenance::{Edge, FactId, Provenance};
use crate::engine::{Prepared, State};
use crate::report::{Finding, Vuln};
use decompiler::{Program, StmtId};
use serde::{Deserialize, Serialize};

/// Hard cap on steps per witness: derivation chains are short in
/// practice (a handful of flows plus a guard defeat or two); the cap
/// only guards against pathological DAGs.
const MAX_STEPS: usize = 64;

/// One derivation step of a witness path. Steps are ordered so that a
/// step's prerequisite facts always appear earlier in the list.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessStep {
    /// The rule that derived the fact (`source-calldata`, `flow`,
    /// `storage-write`, `guard-defeat`, …) or `axiom-*` for leaves.
    pub rule: String,
    /// Human-readable fact, e.g. `v7 input-tainted` or
    /// `slot 0x0 tainted`.
    pub fact: String,
    /// TAC statement that fired the rule, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stmt: Option<u32>,
    /// Bytecode offset of that statement.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pc: Option<usize>,
    /// Rendered one-line TAC for that statement.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub code: Option<String>,
}

/// A source→sink explanation for one [`Finding`]. `vuln`/`stmt`/`pc`
/// mirror the finding so witnesses can be matched back to it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Witness {
    /// The finding's vulnerability class.
    pub vuln: Vuln,
    /// The finding's sink statement id.
    pub stmt: u32,
    /// The finding's sink bytecode offset.
    pub pc: usize,
    /// Derivation steps, sources first, sink last.
    pub steps: Vec<WitnessStep>,
}

/// Renders a fact for humans.
fn fact_text(fact: FactId, prep: &Prepared<'_>) -> String {
    match fact {
        FactId::Input(v) => format!("v{v} input-tainted"),
        FactId::Storage(v) => format!("v{v} storage-tainted"),
        FactId::Slot(a) => format!("slot {:?} tainted", prep.slots.resolve(a)),
        FactId::MappingTaint(a) => format!("mapping {:?} tainted", prep.slots.resolve(a)),
        FactId::Writable(a) => {
            format!("mapping {:?} attacker-writable", prep.slots.resolve(a))
        }
        FactId::AllSlots => "all storage slots tainted".to_string(),
        FactId::UnknownStore => "unresolved storage write tainted".to_string(),
        FactId::Defeated(g) => {
            format!("guard @0x{:x} defeated", prep.guards[g].pc)
        }
        FactId::Reach(b) => format!("block B{b} attacker-reachable"),
        FactId::Sender(v) => format!("v{v} msg.sender-derived"),
        FactId::Origin(v) => format!("v{v} tx.origin-derived"),
        FactId::Time(v) => format!("v{v} timestamp-derived"),
    }
}

/// The axiom rule name for a fact with no recorded derivation.
fn axiom_rule(fact: FactId) -> &'static str {
    match fact {
        FactId::Sender(_) => "axiom-sender",
        FactId::Reach(_) => "axiom-unguarded",
        _ => "axiom",
    }
}

/// Emits `fact`'s derivation into `steps` in topological order
/// (prerequisites first), via iterative DFS with a visited set. The DAG
/// is acyclic because derivations are first-write-only over a monotone
/// rule system.
fn emit(
    fact: FactId,
    prep: &Prepared<'_>,
    prov: &Provenance,
    p: &Program,
    visited: &mut Vec<FactId>,
    steps: &mut Vec<WitnessStep>,
) {
    // (fact, next-source-index) DFS stack; a fact is emitted when its
    // sources are exhausted.
    let mut stack: Vec<(FactId, usize)> = vec![(fact, 0)];
    while let Some((f, i)) = stack.pop() {
        if steps.len() >= MAX_STEPS {
            return;
        }
        if i == 0 && visited.contains(&f) {
            continue;
        }
        let edge: Option<&Edge> = prov.get(f);
        let sources: &[FactId] = edge.map(|e| e.sources.as_slice()).unwrap_or(&[]);
        if i < sources.len() {
            stack.push((f, i + 1));
            stack.push((sources[i], 0));
            continue;
        }
        // All sources emitted (or none): emit this fact once.
        if visited.contains(&f) {
            continue;
        }
        visited.push(f);
        let step = match edge {
            Some(e) => {
                let site = e.via.or(e.stmt);
                WitnessStep {
                    rule: e.rule.to_string(),
                    fact: fact_text(f, prep),
                    stmt: e.stmt.map(|s| s.0),
                    pc: site.map(|s| p.stmt(s).pc),
                    code: e.stmt.map(|s| {
                        match e.via {
                            // An MLOAD cites the MSTORE that fed it.
                            Some(v) => {
                                format!("{} ⇐ {}", p.stmt_text(s), p.stmt_text(v))
                            }
                            None => p.stmt_text(s),
                        }
                    }),
                }
            }
            None => WitnessStep {
                rule: axiom_rule(f).to_string(),
                fact: fact_text(f, prep),
                stmt: None,
                pc: None,
                code: None,
            },
        };
        steps.push(step);
    }
}

/// The seed facts a finding's verdict rests on, mirroring the detector
/// conditions in `analysis.rs` (taint facts checked in the same order).
fn seeds(f: &Finding, prep: &Prepared<'_>, st: &State) -> Vec<FactId> {
    let p = prep.ctx.p;
    let s = p.stmt(StmtId(f.stmt));
    let block = FactId::Reach(s.block.0);
    let taint_of = |v: decompiler::Var| -> Option<FactId> {
        if st.input_tainted[v.0 as usize] {
            Some(FactId::Input(v.0))
        } else if st.storage_tainted[v.0 as usize] {
            Some(FactId::Storage(v.0))
        } else {
            None
        }
    };
    match f.vuln {
        Vuln::AccessibleSelfDestruct => vec![block],
        Vuln::TaintedSelfDestruct => {
            // uses[0] is the beneficiary.
            taint_of(s.uses[0]).into_iter().collect()
        }
        Vuln::TaintedDelegateCall => {
            // uses[1] is the call target.
            taint_of(s.uses[1]).into_iter().collect()
        }
        Vuln::TaintedOwnerVariable => {
            // An attacker-reachable write of an attacker value to a
            // guard slot: cite the value's provenance and reachability.
            let value = s.uses[1];
            let value_fact = taint_of(value).unwrap_or(FactId::Sender(value.0));
            vec![value_fact, block]
        }
        Vuln::UncheckedTaintedStaticCall => {
            // Target taint, or taint in the trusted input buffer.
            let mut out = Vec::new();
            if let Some(t) = taint_of(s.uses[1]) {
                out.push(t);
            } else if let Some(off) = prep.ctx.consts[s.uses[2].0 as usize] {
                if let Some(stores) = prep.mem_stores.get(&off) {
                    if let Some(t) =
                        stores.iter().find_map(|(_, v)| taint_of(*v))
                    {
                        out.push(t);
                    }
                }
            }
            out.push(block);
            out
        }
        // Detector suite v2. Reentrancy and unchecked-call-return rest
        // on attacker reachability of the call plus static ordering
        // facts (no taint lattice involved), so the block axiom is the
        // whole seed set.
        Vuln::Reentrancy | Vuln::UncheckedCallReturn => vec![block],
        Vuln::TxOriginAuth => {
            // Anchored at the guarding JumpI: cite the condition's
            // origin-taint derivation plus reachability.
            let mut out = Vec::new();
            let cond = s.uses[0];
            if st.origin_tainted[cond.0 as usize] {
                out.push(FactId::Origin(cond.0));
            }
            out.push(block);
            out
        }
        Vuln::TimestampDependence => {
            // Anchored at a time-tainted JumpI condition, or at a CALL
            // whose value operand is time-derived.
            let mut out = Vec::new();
            let carrier = match s.op {
                decompiler::Op::Call { .. } => Some(s.uses[2]),
                _ => Some(s.uses[0]),
            };
            if let Some(v) = carrier {
                if st.time_tainted[v.0 as usize] {
                    out.push(FactId::Time(v.0));
                }
            }
            out.push(block);
            out
        }
    }
}

/// Builds a witness for every finding from the recorded provenance.
///
/// `st` must be the final state of the recording fixpoint (it seeds
/// fact selection); a finding whose seed facts carry no recorded
/// derivation still gets a witness, with axiom steps and the sink.
pub(crate) fn build(
    findings: &[Finding],
    prep: &Prepared<'_>,
    st: &State,
    prov: &Provenance,
) -> Vec<Witness> {
    let mut out = Vec::with_capacity(findings.len());
    for f in findings {
        let p = prep.ctx.p;
        let sink = p.stmt(StmtId(f.stmt));
        let (sink_stmt, sink_pc, sink_code) =
            (sink.id.0, sink.pc, p.stmt_text(sink.id));
        let seed_facts = seeds(f, prep, st);
        let mut steps = Vec::new();
        let mut visited = Vec::new();
        for seed in seed_facts {
            emit(seed, prep, prov, p, &mut visited, &mut steps);
        }
        steps.push(WitnessStep {
            rule: format!("sink-{}", f.vuln.name().replace(' ', "-")),
            fact: f.vuln.to_string(),
            stmt: Some(sink_stmt),
            pc: Some(sink_pc),
            code: Some(sink_code),
        });
        out.push(Witness { vuln: f.vuln, stmt: f.stmt, pc: f.pc, steps });
    }
    out
}
