//! The Ethainter analysis over decompiled TAC — the implementation-level
//! mutual recursion of Figure 5.
//!
//! The relations and their paper names:
//!
//! - `StaticallyGuardedStatement(s, p)` → guards: a `JUMPI` whose
//!   chosen successor dominates `s`, with condition `p` scrutinizing the
//!   caller (directly, or via a sender-keyed data-structure lookup —
//!   Figure 4's `DS`/`DSA`).
//! - `ReachableByAttacker(s)` → per-block `rba`: `s` is unguarded, or
//!   every sanitizing guard dominating `s` has been defeated.
//! - `TaintedFlow` / `AttackerModelInfoflow` → the two taint flavors:
//!   *input* taint propagates only through attacker-reachable statements
//!   (guards sanitize it — Figure 3's `Guard-2`), while *storage* taint
//!   propagates unconditionally (`Guard-1`: sender guards cannot remove
//!   taint that reached persistent storage).
//! - Guard defeat is the composite-vulnerability engine: a tainted guard
//!   condition (`Uguard-T`), or a guard reading a data structure the
//!   attacker can enroll themselves in, makes more statements
//!   attacker-reachable, which introduces more taint, which defeats more
//!   guards — evaluated to mutual fixpoint.
//!
//! This module orchestrates over the reusable
//! [`AnalysisArtifacts`] layer:
//! [`analyze`] builds the artifacts once, then evaluates — and the
//! composite (✰) marker pass is a *second evaluation* (frozen fixpoint +
//! detector sweep) over the very same artifacts, never a rebuild. The
//! fixpoint itself is the crate's worklist-driven sparse engine, which
//! also records the provenance witnesses are built from — one fixpoint
//! per verdict, plus the frozen one. Each pipeline phase is wall-clock
//! timed into [`Stats::timings`], with the sink scan further split into
//! `detectors`/`effects`/`composite` sub-phases.

use crate::artifacts::{AnalysisArtifacts, Inner};
use crate::config::Config;
use crate::engine::provenance::Provenance;
use crate::engine::{self, KeyClass, Prepared, State};
use crate::report::{FactCounts, Finding, Report, Stats, Vuln};
use crate::timing::PhaseTimings;
use crate::witness;
use decompiler::{BlockId, Op, Stmt, Var};
use evm::opcode::Opcode;
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Cooperative wall-clock deadline for the *current thread's*
    /// analysis, installed by [`with_deadline`]. Checked between fixpoint
    /// passes so a batch driver that abandons a timed-out worker thread
    /// can rely on that thread unwinding its work soon after, instead of
    /// spinning to the 64-round cap on a pathological contract.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Runs `f` with a cooperative deadline installed for this thread.
///
/// Any [`analyze`] call made inside `f` (on the same thread) checks the
/// deadline between fixpoint passes and, once it has passed, stops
/// early with [`Report::timed_out`] set. The previous deadline (if any)
/// is restored on exit, including on unwind.
pub fn with_deadline<R>(deadline: Instant, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEADLINE.with(|d| d.set(self.0));
        }
    }
    let _restore = Restore(DEADLINE.with(|d| d.replace(Some(deadline))));
    f()
}

/// True once the thread's installed deadline (if any) has passed.
pub(crate) fn deadline_exceeded() -> bool {
    DEADLINE.with(|d| d.get()).is_some_and(|t| Instant::now() >= t)
}

/// Runs the Ethainter analysis on a decompiled program.
///
/// Equivalent to `AnalysisArtifacts::build(p, cfg).evaluate(cfg)` —
/// callers that evaluate the same program more than once (batch
/// experiments sweeping evaluation-only config switches) should hold
/// the artifacts and call [`AnalysisArtifacts::evaluate`] themselves.
pub fn analyze(p: &decompiler::Program, cfg: &Config) -> Report {
    AnalysisArtifacts::build(p, cfg).evaluate(cfg)
}

/// One fixpoint evaluation over built artifacts, recording first
/// derivations into the provenance when one is attached.
pub(crate) type Fixpoint = fn(&Config, &Inner<'_>, &mut State, Option<&mut Provenance>);

/// The production fixpoint: the sparse worklist engine over the
/// artifacts' prebuilt indexes.
fn sparse_fixpoint(
    cfg: &Config,
    inner: &Inner<'_>,
    st: &mut State,
    prov: Option<&mut Provenance>,
) {
    engine::sparse::run(cfg, &inner.prep, &inner.sparse, st, prov);
}

impl AnalysisArtifacts<'_> {
    /// Evaluates the analysis over the prebuilt artifacts: fixpoint,
    /// detector sweeps, composite markers, and (opt-in) witnesses.
    ///
    /// `cfg` must agree with the build-time config on the switches the
    /// build phase consumed (`guard_modeling`, `range_guards`); the
    /// evaluation-only switches (`freeze_guards`, `storage_taint`,
    /// `storage_model`, `witness`) may differ freely.
    pub fn evaluate(&self, cfg: &Config) -> Report {
        self.evaluate_with(cfg, sparse_fixpoint)
    }

    /// [`AnalysisArtifacts::evaluate`] with the fixpoint (main and
    /// frozen) supplied by the caller. Only the reference oracle passes
    /// anything but the production engine.
    pub(crate) fn evaluate_with(&self, cfg: &Config, fixpoint: Fixpoint) -> Report {
        let p = self.p;
        let mut report = Report {
            decompile_failed: p.incomplete.then(|| {
                p.warnings.first().cloned().unwrap_or_else(|| "decompile budget exhausted".into())
            }),
            stats: Stats {
                blocks: p.blocks.len(),
                stmts: p.stmts.len(),
                rounds: 0,
                facts: FactCounts::default(),
                timings: PhaseTimings::default(),
            },
            ..Report::default()
        };
        let Some(inner) = &self.inner else {
            return report;
        };
        assert!(
            inner.built_for.guard_modeling == cfg.guard_modeling
                && inner.built_for.range_guards == cfg.range_guards,
            "artifacts built under incompatible config: \
             guard_modeling/range_guards differ from the build-time config"
        );
        let prep = &inner.prep;
        report.stats.timings.index_build_us = inner.build_us;

        // ---- Mutually-recursive fixpoint --------------------------------
        // With witnesses on, the fixpoint records every fact's first
        // derivation as it runs (not for the composite-marker
        // sub-analysis, `freeze_guards`); the recording cost lands here.
        let sp_fix = telemetry::span("ethainter.fixpoint");
        let mut st = State::new(prep);
        let mut prov = (cfg.witness && !cfg.freeze_guards).then(Provenance::default);
        fixpoint(cfg, inner, &mut st, prov.as_mut());
        report.stats.timings.fixpoint_us = sp_fix.finish_us();

        if st.timed_out {
            report.timed_out = true;
        }
        report.stats.rounds = st.rounds;
        report.stats.facts = FactCounts {
            input_tainted: st.input_tainted.iter().filter(|&&t| t).count(),
            storage_tainted: st.storage_tainted.iter().filter(|&&t| t).count(),
            tainted_slots: st.tainted_slots.len(),
            tainted_mappings: st.tainted_mappings.len(),
            writable_mappings: st.writable_mappings.len(),
            guards: prep.guards.len(),
            defeated_guards: st.defeated.iter().filter(|&&d| d).count(),
            consts: prep.ctx.consts.iter().filter(|c| c.is_some()).count(),
            ds: prep.ctx.ds.iter().filter(|&&t| t).count(),
            dsa: prep.ctx.dsa.iter().filter(|&&t| t).count(),
            rba_blocks: st.rba.iter().filter(|&&t| t).count(),
            dead_edges: prep.n_dead_edges,
            origin_tainted: st.origin_tainted.iter().filter(|&&t| t).count(),
            time_tainted: st.time_tainted.iter().filter(|&&t| t).count(),
        };
        report.defeated_guards = prep
            .guards
            .iter()
            .zip(&st.defeated)
            .filter(|(_, &d)| d)
            .map(|(g, _)| g.pc)
            .collect();
        report.defeated_guards.sort_unstable();
        report.defeated_guards.dedup();

        // ---- Detectors + sink scan + composite markers ------------------
        let sp_sink = telemetry::span("ethainter.sink_scan");

        let (findings, detectors_us, effects_us) = detector_sweep(inner, cfg, &st);
        report.findings = findings;
        report.findings.sort_by_key(|f| (f.vuln, f.stmt));
        report.findings.dedup();

        // Exact composite (✰) markers: a finding is composite iff it
        // does not survive single-transaction reasoning — guards cannot
        // be defeated and taint cannot travel through storage across
        // transactions. One extra *evaluation* over the same artifacts
        // (frozen fixpoint + detector sweep — zero rebuilds), only when
        // escalation can have happened.
        let mut composite_us = 0;
        if (st.any_defeat || cfg.storage_taint) && !cfg.freeze_guards {
            let sp_comp = telemetry::span("ethainter.composite");
            if composite_markers(inner, cfg, fixpoint, &mut report.findings) {
                // The frozen fixpoint timed out: its relations are an
                // under-approximation, so the markers are conservative
                // (composite-biased), not exact — surface that.
                report.timed_out = true;
            }
            composite_us = sp_comp.finish_us();
        } else {
            for f in &mut report.findings {
                f.composite = false;
            }
        }
        sp_sink.finish_us();
        report.stats.timings.stamp_sink_scan(detectors_us, effects_us, composite_us);

        // ---- Provenance witnesses (opt-in) ------------------------------
        // Backtrack each finding through the derivations the fixpoint
        // recorded above. Skipped for timed-out contracts (partial
        // relations would make the paths misleading).
        if let Some(prov) = prov.filter(|_| !report.timed_out) {
            let sp_wit = telemetry::span("ethainter.witness");
            report.witnesses = Some(witness::build(&report.findings, prep, &st, &prov));
            report.stats.timings.witness_us = sp_wit.finish_us();
            telemetry::metrics::counter("ethainter_witnesses_built_total")
                .add(report.findings.len() as u64);
        }

        report.stats.timings.stamp_total();
        report
    }
}

/// The frozen composite-marker pass: re-runs the fixpoint under
/// `freeze_guards = true, storage_taint = false` over the *same*
/// artifacts, sweeps the detectors on the frozen state, and marks each
/// finding composite iff it has no frozen (single-transaction)
/// counterpart with the same `(vuln, stmt)`.
///
/// Returns whether the frozen fixpoint hit the cooperative deadline —
/// in that case the frozen findings are an under-approximation and the
/// markers degrade conservatively toward `composite = true`; the caller
/// must propagate the flag into [`Report::timed_out`] (previously it
/// was silently dropped).
fn composite_markers(
    inner: &Inner<'_>,
    cfg: &Config,
    fixpoint: Fixpoint,
    findings: &mut [Finding],
) -> bool {
    let frozen_cfg = Config {
        freeze_guards: true,
        storage_taint: false,
        witness: false,
        ..*cfg
    };
    let mut fst = State::new(&inner.prep);
    fixpoint(&frozen_cfg, inner, &mut fst, None);
    let (frozen, _, _) = detector_sweep(inner, &frozen_cfg, &fst);
    for f in findings {
        let direct = frozen.iter().any(|g| g.vuln == f.vuln && g.stmt == f.stmt);
        f.composite = !direct;
    }
    fst.timed_out
}

/// All detector sweeps over one fixpoint state: the per-opcode sink
/// sweeps + tainted-owner scan (`detectors` sub-phase) and the
/// effect-summary + branch-region suite (`effects` sub-phase). Shared
/// verbatim by the main evaluation and the frozen composite pass, so
/// the two can never drift. Iterates the pre-bucketed statement lists
/// in [`Prepared::sinks`] — no whole-program `iter_stmts` walks.
///
/// Findings are returned unsorted with `composite` tentatively set to
/// `st.any_defeat` — the caller sorts, dedups, and overwrites the
/// markers. Returns `(findings, detectors_us, effects_us)`.
fn detector_sweep(inner: &Inner<'_>, cfg: &Config, st: &State) -> (Vec<Finding>, u64, u64) {
    let prep = &inner.prep;
    let p = prep.ctx.p;
    let mut findings: Vec<Finding> = Vec::new();

    let selectors_of = |b: BlockId| -> Vec<u32> {
        p.block_functions.get(b.0 as usize).cloned().unwrap_or_default()
    };
    let tainted =
        |v: Var| st.input_tainted[v.0 as usize] || st.storage_tainted[v.0 as usize];

    let sp_det = telemetry::span("ethainter.detectors");

    for &sid in &prep.sinks.selfdestructs {
        let s = p.stmt(sid);
        if st.rba[s.block.0 as usize] {
            findings.push(Finding {
                vuln: Vuln::AccessibleSelfDestruct,
                stmt: s.id.0,
                pc: s.pc,
                selectors: selectors_of(s.block),
                composite: st.any_defeat,
            });
        }
        if tainted(s.uses[0]) {
            findings.push(Finding {
                vuln: Vuln::TaintedSelfDestruct,
                stmt: s.id.0,
                pc: s.pc,
                selectors: selectors_of(s.block),
                composite: st.any_defeat,
            });
        }
    }
    for &sid in &prep.sinks.delegatecalls {
        let s = p.stmt(sid);
        // uses: [gas, target, in_off, in_len, out_off, out_len]
        if tainted(s.uses[1]) {
            findings.push(Finding {
                vuln: Vuln::TaintedDelegateCall,
                stmt: s.id.0,
                pc: s.pc,
                selectors: selectors_of(s.block),
                composite: st.any_defeat,
            });
        }
    }
    for &sid in &prep.sinks.staticcalls {
        let s = p.stmt(sid);
        if let Some(f) = detect_unchecked_staticcall(prep, s, st) {
            findings.push(Finding {
                selectors: selectors_of(s.block),
                composite: st.any_defeat,
                ..f
            });
        }
    }

    // Tainted owner variable (§4.5): a slot compared against the sender
    // in some guard is a sink; attacker-reachable tainted writes to it
    // are violations. Pre-filter via per-function storage write
    // summaries (memoized in the artifacts): when no dispatched function
    // can possibly write a guard slot, the per-statement sink scan below
    // cannot fire and is skipped outright. (Summaries attribute
    // statements in unowned blocks to every function and widen on
    // unresolved keys, so skipping is sound.)
    let guard_slots = &prep.guard_slots;
    let sink_scan_needed = if !cfg.guard_modeling {
        true
    } else if guard_slots.is_empty() {
        false
    } else {
        let summaries = inner.storage_summaries();
        summaries.is_empty()
            || summaries
                .iter()
                .any(|f| guard_slots.iter().any(|&slot| f.may_write(slot)))
    };
    if sink_scan_needed {
        for &sid in &prep.sinks.sstores {
            let s = p.stmt(sid);
            if !st.rba[s.block.0 as usize] {
                continue;
            }
            let Some(KeyClass::Const(a)) = prep.key_class[s.id.0 as usize].as_ref()
            else {
                continue;
            };
            let v = *prep.slots.resolve(*a);
            let is_sink = if cfg.guard_modeling {
                guard_slots.contains(&v)
            } else {
                // Without guard modeling there is no sink inference —
                // every attacker-reachable tainted write to a constant
                // slot is flagged (the Figure 8b explosion).
                true
            };
            let value_attacker = st.input_tainted[s.uses[1].0 as usize]
                || st.storage_tainted[s.uses[1].0 as usize]
                || prep.ctx.ds[s.uses[1].0 as usize];
            if is_sink && value_attacker {
                findings.push(Finding {
                    vuln: Vuln::TaintedOwnerVariable,
                    stmt: s.id.0,
                    pc: s.pc,
                    selectors: selectors_of(s.block),
                    composite: st.any_defeat,
                });
            }
        }
    }
    let detectors_us = sp_det.finish_us();

    // ---- Detector suite v2: effect/ordering + origin/time detectors ----
    // All four run over engine-independent inputs (the memoized
    // effect/ordering summaries and the shared fixpoint state), so the
    // reference oracle's verdicts stay byte-identical by construction.
    let sp_eff = telemetry::span("ethainter.effects");

    // Reentrancy + unchecked call return both need external-call sites;
    // the effect summary is only built when one exists (most contracts
    // have none) — and at most once per program, shared with the frozen
    // composite pass.
    if prep.sinks.has_ext_call {
        let eff = inner.effect_summary();
        // Unchecked call return: an attacker-reachable CALL whose
        // success flag never constrains a path or a storage write.
        for c in &eff.calls {
            let cs = p.stmt(c.stmt);
            if matches!(c.kind, Opcode::Call | Opcode::CallCode)
                && !c.checked
                && st.rba[cs.block.0 as usize]
            {
                findings.push(Finding {
                    vuln: Vuln::UncheckedCallReturn,
                    stmt: cs.id.0,
                    pc: cs.pc,
                    selectors: selectors_of(cs.block),
                    composite: st.any_defeat,
                });
            }
        }
        // Reentrancy: an attacker-reachable external call ordered before
        // the storage write of a cell that was read before the call
        // (checks-effects-interactions violation — the stale read is the
        // balance check a re-entrant caller exploits).
        for v in inner.reordered_writes() {
            let cs = p.stmt(v.call);
            if st.rba[cs.block.0 as usize] {
                findings.push(Finding {
                    vuln: Vuln::Reentrancy,
                    stmt: cs.id.0,
                    pc: cs.pc,
                    selectors: selectors_of(cs.block),
                    composite: st.any_defeat,
                });
            }
        }
        // Timestamp dependence, value variant: a transferred value
        // (CALL's value operand) derived from TIMESTAMP.
        for c in &eff.calls {
            let cs = p.stmt(c.stmt);
            if matches!(c.kind, Opcode::Call | Opcode::CallCode)
                && st.time_tainted[cs.uses[2].0 as usize]
                && st.rba[cs.block.0 as usize]
            {
                findings.push(Finding {
                    vuln: Vuln::TimestampDependence,
                    stmt: cs.id.0,
                    pc: cs.pc,
                    selectors: selectors_of(cs.block),
                    composite: st.any_defeat,
                });
            }
        }
    }

    // tx.origin authentication + timestamp dependence (guard variant):
    // branch regions whose peeled condition carries origin/time taint,
    // gating a critical sink. `cond_regions` deliberately includes the
    // conditions the sanitizing-guard machinery rejects — an origin
    // comparison is precisely a non-sender guard.
    let any_origin = st.origin_tainted.iter().any(|&t| t);
    let any_time = st.time_tainted.iter().any(|&t| t);
    if any_origin || any_time {
        for r in inner.cond_regions() {
            let js = p.stmt(r.stmt);
            if !st.rba[js.block.0 as usize] {
                continue;
            }
            let region_ops = || {
                r.region
                    .iter()
                    .flat_map(|b| p.block(*b).stmts.iter())
                    .map(|&sid| &p.stmt(sid).op)
            };
            // Auth sinks: any state change or control transfer the
            // origin check purports to protect.
            if any_origin && st.origin_tainted[r.cond.0 as usize] {
                let gates_sink = region_ops().any(|op| {
                    matches!(
                        op,
                        Op::SStore
                            | Op::SelfDestruct
                            | Op::Call {
                                kind: Opcode::Call
                                    | Opcode::CallCode
                                    | Opcode::DelegateCall
                            }
                    )
                });
                if gates_sink {
                    findings.push(Finding {
                        vuln: Vuln::TxOriginAuth,
                        stmt: js.id.0,
                        pc: js.pc,
                        selectors: selectors_of(js.block),
                        composite: st.any_defeat,
                    });
                }
            }
            // Timestamp sinks: money flows only — a time-dependent
            // branch over a plain state write is everyday Solidity.
            if any_time && st.time_tainted[r.cond.0 as usize] {
                let gates_money = region_ops().any(|op| {
                    matches!(
                        op,
                        Op::SelfDestruct
                            | Op::Call { kind: Opcode::Call | Opcode::CallCode }
                    )
                });
                if gates_money {
                    findings.push(Finding {
                        vuln: Vuln::TimestampDependence,
                        stmt: js.id.0,
                        pc: js.pc,
                        selectors: selectors_of(js.block),
                        composite: st.any_defeat,
                    });
                }
            }
        }
    }
    let effects_us = sp_eff.finish_us();

    (findings, detectors_us, effects_us)
}

fn detect_unchecked_staticcall(
    prep: &Prepared<'_>,
    s: &Stmt,
    st: &State,
) -> Option<Finding> {
    let ctx = &prep.ctx;
    // uses: [gas, target, in_off, in_len, out_off, out_len]
    let in_off = ctx.consts[s.uses[2].0 as usize];
    let out_off = ctx.consts[s.uses[4].0 as usize];
    let out_len = ctx.consts[s.uses[5].0 as usize];
    // Output window must overlap the input window and be non-empty.
    let overlap = match (in_off, out_off) {
        (Some(a), Some(b)) => a == b,
        _ => s.uses[2] == s.uses[4],
    };
    if !overlap || out_len == Some(evm::U256::ZERO) {
        return None;
    }
    if !st.rba[s.block.0 as usize] {
        return None;
    }
    // A RETURNDATASIZE check anywhere in the functions owning this call
    // counts as the fix (the Solidity-compiler-inserted pattern, §3.5).
    // The ownership lookup runs against the prebucketed RETURNDATASIZE
    // data in `prep.sinks`: a selector-set intersection when both sides
    // have ownership, block equality when either side has none —
    // exactly the per-call whole-program scan it replaces.
    let checked = match ctx.p.block_functions.get(s.block.0 as usize) {
        Some(owners) => {
            owners
                .iter()
                .any(|x| prep.sinks.rds_selectors.binary_search(x).is_ok())
                || prep.sinks.rds_unowned_blocks.binary_search(&s.block).is_ok()
        }
        None => prep.sinks.rds_blocks.binary_search(&s.block).is_ok(),
    };
    if checked {
        return None;
    }
    // The trusted buffer must be attacker-influenced: either the input
    // window holds tainted data, or the call target is tainted.
    let buffer_tainted = in_off
        .and_then(|off| prep.mem_stores.get(&off))
        .map(|stores| {
            stores.iter().any(|(_, v)| {
                st.input_tainted[v.0 as usize] || st.storage_tainted[v.0 as usize]
            })
        })
        .unwrap_or(false);
    let target_tainted = st.input_tainted[s.uses[1].0 as usize]
        || st.storage_tainted[s.uses[1].0 as usize];
    if !buffer_tainted && !target_tainted {
        return None;
    }
    Some(Finding {
        vuln: Vuln::UncheckedTaintedStaticCall,
        stmt: s.id.0,
        pc: s.pc,
        selectors: Vec::new(),
        composite: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn composite_vulnerable_program() -> decompiler::Program {
        // Unguarded owner write + owner-guarded selfdestruct: the guard
        // is defeated through storage, so the composite machinery (and
        // with it the frozen marker pass) engages.
        let src = r#"
        contract Bad {
            address owner;
            function initOwner(address o) public { owner = o; }
            function kill() public {
                require(msg.sender == owner);
                selfdestruct(owner);
            }
        }"#;
        let compiled = minisol::compile_source(src).unwrap();
        let mut p = decompiler::decompile(&compiled.bytecode);
        decompiler::optimize(&mut p, &decompiler::PassConfig::default());
        p
    }

    #[test]
    fn frozen_pass_timeout_is_propagated_not_dropped() {
        let p = composite_vulnerable_program();
        let cfg = Config::default();
        // Build the artifacts and run the *frozen* pass alone under an
        // already-expired deadline: the engines check the deadline on
        // entry, so the frozen fixpoint deterministically times out —
        // the exact scenario whose flag the recursive implementation
        // silently dropped.
        let art = AnalysisArtifacts::build(&p, &cfg);
        let inner = art.inner.as_ref().expect("program is complete");
        let mut findings = art.evaluate(&cfg).findings;
        assert!(!findings.is_empty(), "fixture must produce findings");
        let frozen_timed_out = with_deadline(Instant::now(), || {
            composite_markers(inner, &cfg, sparse_fixpoint, &mut findings)
        });
        assert!(
            frozen_timed_out,
            "an expired deadline must surface from the frozen pass"
        );
        // With the frozen relations stuck at the initial state, the
        // markers degrade conservatively: nothing the main run found is
        // confirmed single-transaction except findings that need no
        // taint at all.
        for f in &findings {
            if f.vuln != Vuln::AccessibleSelfDestruct {
                assert!(f.composite, "under-approximated frozen run must bias composite");
            }
        }
    }

    #[test]
    fn timed_out_analysis_reports_the_flag_end_to_end() {
        let p = composite_vulnerable_program();
        let cfg = Config::default();
        let report = with_deadline(Instant::now(), || analyze(&p, &cfg));
        assert!(report.timed_out);
    }

    #[test]
    fn artifacts_evaluate_twice_matches_analyze() {
        // The artifact layer's contract: evaluations are pure functions
        // of (artifacts, config) — evaluating twice gives byte-identical
        // reports, each equal to a fresh monolithic analyze.
        let p = composite_vulnerable_program();
        for cfg in [Config::default(), Config { witness: true, ..Config::default() }] {
            let art = AnalysisArtifacts::build(&p, &cfg);
            let mut a = art.evaluate(&cfg);
            let mut b = art.evaluate(&cfg);
            let mut c = analyze(&p, &cfg);
            let json = |r: &mut Report| {
                r.stats.timings = PhaseTimings::default();
                serde_json::to_string(r).unwrap()
            };
            let (a, b, c) = (json(&mut a), json(&mut b), json(&mut c));
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn sink_scan_breakdown_is_stamped_and_sums() {
        let p = composite_vulnerable_program();
        let report = analyze(&p, &Config::default());
        let (d, e, c) = report
            .stats
            .timings
            .sink_scan_breakdown()
            .expect("evaluate stamps the sink-scan sub-phases");
        assert_eq!(report.stats.timings.sink_scan_us, d + e + c);
        assert_eq!(report.stats.timings.total_us, report.stats.timings.phase_sum());
    }
}
