//! The two analyzer workloads.
//!
//! - `scan-realistic` — the paper's bulk scan: realistic contracts
//!   through the batch driver's per-contract unit (sandbox thread,
//!   cooperative deadline, `driver::analyze_one` with its lint and
//!   classification) from two workers claiming contracts in order. The
//!   store and the server are bypassed.
//! - `explain-adversarial` — interactive auditing: 10–50 KB adversarial
//!   contracts through the library front end `ethainter::analyze_bytecode`
//!   with witnesses on, the only workload where the witness replay runs.

use crate::inputs::{self, Input};
use crate::layers::{self, AnalysisSamples};
use crate::load::{self, parallel_map, Pass, Stop, THREADS};
use crate::metrics::{self, Metric, RunResult};
use crate::stats::{peak_rss_mb, percentile, sorted, warn_thin_tail};
use crate::trace::{self, Recorder};
use corpus::Scale;
use driver::{Isolated, Status};
use ethainter::{AnalysisArtifacts, Config, Report, Vuln};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inputs generated per second of run time. The rates measured when the
/// benchmark was defined (2-vCPU Xeon VM) are about 21 contracts/s (scan)
/// and 10/s (explain, two auditors); a list is cycled when a run
/// exhausts it.
const SCAN_INPUTS_PER_S: u64 = 32;
const EXPLAIN_INPUTS_PER_S: u64 = 8;

/// Operations run untimed before a measured pass. A cold process runs its
/// first seconds about 25% slower while its heap and thread caches grow;
/// a long scan or a running auditor session pays that once, not per
/// contract.
const WARMUP_OPS: usize = 16;

/// The cooperative deadline and watchdog budget per contract.
fn timeout() -> Duration {
    driver::DriverConfig::default().timeout
}

/// Findings scored against the generator's ground truth with the
/// `exp9_detectors_v2` rule: a *missed* label is an exploitable class not
/// flagged; a *spurious* flag is a class neither exploitable nor a
/// sanctioned decoy.
#[derive(Default)]
struct Score {
    missed: usize,
    spurious: usize,
}

impl Score {
    fn add(&mut self, input: &Input, report: &Report) {
        let truth = &input.truth;
        self.missed += truth
            .exploitable
            .iter()
            .filter(|&&v| !report.has(v))
            .count();
        self.spurious += Vuln::ALL
            .iter()
            .filter(|&&v| {
                report.has(v) && !truth.exploitable.contains(&v) && !truth.decoy.contains(&v)
            })
            .count();
    }

    /// Both counts must be 0.
    fn check(&self, out: &mut RunResult) {
        if self.missed + self.spurious > 0 {
            out.problems.push(format!(
                "ground truth: {} missed labels, {} spurious flags",
                self.missed, self.spurious
            ));
        }
    }
}

fn composite_count(report: &Report) -> usize {
    report.findings.iter().filter(|f| f.composite).count()
}

// ---------------------------------------------------------------------
// scan-realistic

/// The calls `driver::analyze_one` makes, in its order, each in a span:
/// decompile → incomplete check → validate → optimize → build → evaluate.
/// The error is the status tag `driver::analyze_one` would have reported.
fn traced_analyze_one(
    rec: &Recorder,
    trace: u64,
    parent: u64,
    code: &[u8],
    cfg: &Config,
) -> Result<Box<Report>, &'static str> {
    let mut program = rec.span(trace, parent, "decompiler.decompile", |_| {
        decompiler::decompile(code)
    });
    if program.incomplete {
        return Err("decompile_failed");
    }
    rec.span(trace, parent, "decompiler.validate", |_| {
        decompiler::validate(&program)
    });
    if cfg.optimize_ir {
        rec.span(trace, parent, "decompiler.optimize", |_| {
            decompiler::optimize(&mut program, &decompiler::PassConfig::default())
        });
    }
    let artifacts = rec.span(trace, parent, "ethainter.index_build", |_| {
        AnalysisArtifacts::build(&program, cfg)
    });
    let report = rec.span(trace, parent, "ethainter.evaluate", |_| {
        artifacts.evaluate(cfg)
    });
    // Freeing the intermediates is a measurable share of each contract's
    // time that would otherwise show as unaccounted.
    rec.span(trace, parent, "pipeline.free", |_| drop(artifacts));
    rec.span(trace, parent, "pipeline.free", |_| drop(program));
    if report.timed_out {
        Err("timed_out")
    } else {
        Ok(Box::new(report))
    }
}

fn scan_untraced(inputs: &[Input], stop: Stop) -> Pass<Isolated<Status>> {
    let cfg = Config::default();
    load::closed_loop(THREADS, stop, |i| {
        let code = Arc::clone(&inputs[i % inputs.len()].bytecode);
        driver::isolate_one(format!("c{i}"), code, timeout(), move |code| {
            ethainter::with_deadline(Instant::now() + timeout(), || {
                driver::analyze_one(&code, &cfg)
            })
        })
        .result
    })
}

/// Checks the scan's verdicts: every contract analyzed; finding and
/// composite counts equal to an independent `analyze_bytecode` run (which
/// also yields the classes); classes scored against ground truth.
fn verify_scan(inputs: &[Input], pass: &Pass<Isolated<Status>>, out: &mut RunResult) {
    let cfg = Config::default();
    let distinct = pass.done.len().min(inputs.len());
    let reports = parallel_map(distinct, |i| {
        ethainter::analyze_bytecode(&inputs[i].bytecode, &cfg)
    });
    let mut score = Score::default();
    for (input, report) in inputs.iter().zip(&reports) {
        score.add(input, report);
    }
    score.check(out);
    for d in &pass.done {
        let report = &reports[d.index % inputs.len()];
        match &d.result {
            Isolated::Completed(Status::Analyzed {
                findings,
                composite,
                ..
            }) => {
                if (*findings, *composite) != (report.findings.len(), composite_count(report)) {
                    out.problems.push(format!(
                        "contract {}: batch path found {findings} ({composite} composite), \
                         analyze_bytecode {} ({})",
                        d.index,
                        report.findings.len(),
                        composite_count(report)
                    ));
                }
            }
            other => {
                out.failed += 1;
                out.problems
                    .push(format!("contract {}: not analyzed: {other:?}", d.index));
            }
        }
    }
}

/// `scan-realistic`.
pub fn scan(
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    scratch: &Path,
) -> Result<RunResult, String> {
    let count = (seconds * SCAN_INPUTS_PER_S) as usize;
    let (inputs, setup_s) = load::repeated_setup(
        || Ok(inputs::generate(Scale::Realistic, seed, count, |_| true)),
        drop,
    )?;
    let mut out = RunResult::default();
    scan_untraced(&inputs, Stop::after_count(WARMUP_OPS));
    let Some(dir) = trace_dir else {
        let pass = scan_untraced(&inputs, Stop::after_time(Duration::from_secs(seconds)));
        let rss = peak_rss_mb().unwrap_or(0.0);
        out.attempted = pass.done.len() as u64;
        verify_scan(&inputs, &pass, &mut out);
        warn_thin_tail(pass.done.len());
        out.metrics = metrics::end_to_end(setup_s, pass.rate(), &pass.latencies_ms(), rss);
        return Ok(out);
    };

    // Traced: an untraced pass for half the time, then the same contracts
    // again with every layer call wrapped in a span.
    let base = scan_untraced(&inputs, Stop::after_time(Duration::from_secs(seconds) / 2));
    let rec = Arc::new(Recorder::new());
    let cfg = Config::default();
    let traced = load::closed_loop(THREADS, Stop::after_count(base.done.len()), |i| {
        let code = Arc::clone(&inputs[i % inputs.len()].bytecode);
        let rec = Arc::clone(&rec);
        let trace = i as u64;
        Arc::clone(&rec).span(trace, 0, "driver.isolate_one", move |root| {
            driver::isolate_one(format!("c{i}"), code, timeout(), move |code| {
                ethainter::with_deadline(Instant::now() + timeout(), || {
                    rec.span(trace, root, "bench.contract", |me| {
                        traced_analyze_one(&rec, trace, me, &code, &cfg)
                    })
                })
            })
            .result
        })
    });
    out.attempted = (base.done.len() + traced.done.len()) as u64;

    let mut samples = AnalysisSamples::default();
    let spans = rec.spans();
    samples.push_spans(&spans);
    let mut score = Score::default();
    let mut store_items = Vec::new();
    for (b, t) in base.done.iter().zip(&traced.done) {
        let input = &inputs[b.index % inputs.len()];
        match (&b.result, &t.result) {
            (
                Isolated::Completed(
                    status @ Status::Analyzed {
                        findings,
                        composite,
                        facts,
                        ..
                    },
                ),
                Isolated::Completed(Ok(report)),
            ) => {
                if (*findings, *composite, facts)
                    != (
                        report.findings.len(),
                        composite_count(report),
                        &report.stats.facts,
                    )
                {
                    out.problems.push(format!(
                        "contract {}: traced counts differ from the batch path",
                        b.index
                    ));
                }
                samples.push_stamps(&report.stats.timings);
                score.add(input, report);
                if b.index < inputs.len() {
                    store_items.push((input.bytecode.as_slice(), status.clone()));
                }
            }
            (Isolated::Completed(Status::Analyzed { .. }), traced) => {
                out.failed += 1;
                out.problems.push(format!(
                    "contract {}: traced pass did not analyze: {traced:?}",
                    b.index
                ));
            }
            (base_result, _) => {
                out.failed += 1;
                out.problems.push(format!(
                    "contract {}: not analyzed: {base_result:?}",
                    b.index
                ));
            }
        }
    }
    score.check(&mut out);

    let by_name = trace::self_us_by_name(&spans);
    let p50 = |name: &str| {
        percentile(&sorted(by_name.get(name).map_or(&[][..], |v| v)), 50.0).unwrap_or(0.0)
    };
    let busy: f64 = base.done.iter().map(|d| d.latency.as_secs_f64()).sum();
    let store = layers::store_replay(&scratch.join("store-replay"), &store_items)?;
    out.metrics = layers::catalog_metrics(
        &samples,
        &layers::count_work(&inputs),
        &store,
        trace::unaccounted_ratio(&spans),
        traced.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    );
    out.extra = vec![
        Metric::new("decompiler.validate_us", p50("decompiler.validate"), "us"),
        Metric::new(
            "driver.sandbox_overhead_us",
            p50("driver.isolate_one"),
            "us",
        ),
        Metric::new(
            "driver.pool_utilization",
            busy / (base.wall.as_secs_f64() * THREADS as f64),
            "ratio",
        ),
    ];
    layers::write_trace(dir, "scan-realistic", &spans, &out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// explain-adversarial

fn explain_config() -> Config {
    Config {
        witness: true,
        ..Config::default()
    }
}

/// The calls `ethainter::analyze_bytecode` makes, in its order, each in
/// a span: decompile → optimize → build → evaluate.
fn traced_analyze_bytecode(rec: &Recorder, trace: u64, code: &[u8], cfg: &Config) -> Report {
    rec.span(trace, 0, "bench.explain", |me| {
        let mut program = rec.span(trace, me, "decompiler.decompile", |_| {
            decompiler::decompile_with_limits(code, decompiler::Limits::default())
        });
        if cfg.optimize_ir {
            rec.span(trace, me, "decompiler.optimize", |_| {
                decompiler::optimize(&mut program, &decompiler::PassConfig::default())
            });
        }
        let artifacts = rec.span(trace, me, "ethainter.index_build", |_| {
            AnalysisArtifacts::build(&program, cfg)
        });
        let report = rec.span(trace, me, "ethainter.evaluate", |_| artifacts.evaluate(cfg));
        rec.span(trace, me, "pipeline.free", |_| drop(artifacts));
        rec.span(trace, me, "pipeline.free", |_| drop(program));
        report
    })
}

/// Checks one explained contract: complete, one witness per finding,
/// and classes scored against ground truth.
fn check_explained(
    index: usize,
    input: &Input,
    report: &Report,
    score: &mut Score,
    out: &mut RunResult,
) {
    if report.timed_out {
        out.failed += 1;
        out.problems
            .push(format!("contract {index}: analysis timed out"));
    }
    if report.witnesses.as_ref().map(Vec::len) != Some(report.findings.len()) {
        out.problems.push(format!(
            "contract {index}: witnesses do not cover every finding"
        ));
    }
    score.add(input, report);
}

/// A driver status carrying a report's verdict, for the store replay.
fn status_of(report: &Report) -> Status {
    Status::Analyzed {
        findings: report.findings.len(),
        composite: composite_count(report),
        blocks: report.stats.blocks,
        stmts: report.stats.stmts,
        rounds: report.stats.rounds,
        facts: report.stats.facts,
        lint: Vec::new(),
        timings: report.stats.timings,
        witness: None,
    }
}

/// `explain-adversarial`.
pub fn explain(
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    scratch: &Path,
) -> Result<RunResult, String> {
    let count = (seconds * EXPLAIN_INPUTS_PER_S) as usize;
    // About 2% of adversarial contracts exceed the decompiler's budget and
    // get no verdict; the workload leaves them out so that no operation
    // fails (the budget cutoff itself is covered by the decompiler tests).
    let decompiles = |code: &[u8]| !decompiler::decompile(code).incomplete;
    let (inputs, setup_s) = load::repeated_setup(
        || {
            Ok(inputs::generate(
                Scale::Adversarial,
                seed,
                count,
                decompiles,
            ))
        },
        drop,
    )?;
    let cfg = explain_config();
    let untraced = |stop: Stop| {
        load::closed_loop(THREADS, stop, |i| {
            ethainter::analyze_bytecode(&inputs[i % inputs.len()].bytecode, &cfg)
        })
    };
    let mut out = RunResult::default();
    let mut score = Score::default();
    untraced(Stop::after_count(WARMUP_OPS));
    let Some(dir) = trace_dir else {
        let pass = untraced(Stop::after_time(Duration::from_secs(seconds)));
        out.attempted = pass.done.len() as u64;
        for d in &pass.done {
            check_explained(
                d.index,
                &inputs[d.index % inputs.len()],
                &d.result,
                &mut score,
                &mut out,
            );
        }
        score.check(&mut out);
        warn_thin_tail(pass.done.len());
        out.metrics = metrics::end_to_end(
            setup_s,
            pass.rate(),
            &pass.latencies_ms(),
            peak_rss_mb().unwrap_or(0.0),
        );
        return Ok(out);
    };

    let base = untraced(Stop::after_time(Duration::from_secs(seconds) / 2));
    let rec = Recorder::new();
    let traced = load::closed_loop(THREADS, Stop::after_count(base.done.len()), |i| {
        traced_analyze_bytecode(&rec, i as u64, &inputs[i % inputs.len()].bytecode, &cfg)
    });
    out.attempted = (base.done.len() + traced.done.len()) as u64;
    let spans = rec.spans();
    let mut samples = AnalysisSamples::default();
    samples.push_spans(&spans);
    let mut witness_us = Vec::new();
    let mut store_items = Vec::new();
    for (b, t) in base.done.iter().zip(&traced.done) {
        let input = &inputs[b.index % inputs.len()];
        check_explained(b.index, input, &t.result, &mut score, &mut out);
        if b.result.findings != t.result.findings || b.result.witnesses != t.result.witnesses {
            out.problems.push(format!(
                "contract {}: traced calls differ from analyze_bytecode",
                b.index
            ));
        }
        samples.push_stamps(&t.result.stats.timings);
        witness_us.push(t.result.stats.timings.witness_us as f64);
        if b.index < inputs.len() {
            store_items.push((input.bytecode.as_slice(), status_of(&b.result)));
        }
    }
    score.check(&mut out);
    let store = layers::store_replay(&scratch.join("store-replay"), &store_items)?;
    out.metrics = layers::catalog_metrics(
        &samples,
        &layers::count_work(&inputs),
        &store,
        trace::unaccounted_ratio(&spans),
        traced.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    );
    let witness = percentile(&sorted(&witness_us), 50.0).unwrap_or(0.0);
    out.extra = vec![Metric::over(
        "ethainter.witness_us",
        witness,
        "us",
        witness_us.len(),
    )];
    layers::write_trace(dir, "explain-adversarial", &spans, &out)?;
    Ok(out)
}
