//! Perf-trajectory benchmark: per-contract fixpoint time of the
//! production (sparse) engine over a generated corpus, emitted as
//! `BENCH_fixpoint.json` (committed at the repo root so the numbers
//! travel with the code they measure).
//!
//! Every contract is decompiled and optimized **once**, outside the
//! timed region; `ethainter::analyze` then runs on the prepared
//! program, so the numbers are purely analysis evaluation. Alongside
//! the headline `fixpoint_us` distribution, the artifact carries an
//! `index_build_us` distribution and per-phase medians, so regressions
//! can be localized to a phase without re-profiling. Repeated runs of
//! one contract must agree on findings and fact counts, or the run
//! aborts. Agreement with the dense reference oracle is the job of the
//! differential test suites, not of this benchmark.
//!
//! ```text
//! bench_fixpoint [--corpus N] [--seed S] [--scale small|realistic|adversarial]
//!                [--quick] [--out PATH]
//! ```
//!
//! `--scale` picks the structural scale of the generated corpus
//! (default `realistic`, matching the committed artifact — the small
//! templates finish under the clock's resolution and make the sparse
//! engine read as "infinitely fast"). When a distribution's p50 still
//! rounds to 0µs, the artifact says so honestly: the `sparse` row gets
//! `"below_resolution": true` and the run prints a warning.
//!
//! `--quick` shrinks the corpus to 50 contracts for the CI perf-smoke
//! job; the default 500 matches the committed artifact.

use bench::{latency_summary, LatencySummary};
use corpus::{Population, PopulationConfig, Scale};
use ethainter::{Config, PhaseTimings, Report};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// Medians of the per-contract phase timings (µs). Decompile/passes are
/// always zero here (programs are prepared once, outside the timed
/// region) and omitted.
#[derive(Debug, Default, Serialize, Deserialize)]
struct PhaseMedians {
    index_build_us: u64,
    fixpoint_us: u64,
    sink_scan_us: u64,
    /// Sink-scan sub-phase: per-opcode detector sweeps + tainted-owner
    /// scan.
    detectors_us: u64,
    /// Sink-scan sub-phase: effect-summary + branch-region detectors.
    effects_us: u64,
    /// Sink-scan sub-phase: the frozen composite-marker evaluation.
    composite_us: u64,
    total_us: u64,
}

/// The engine's aggregate over the corpus.
#[derive(Debug, Default, Serialize, Deserialize)]
struct EngineRow {
    /// Per-contract fixpoint latency distribution (µs).
    fixpoint_us: LatencySummary,
    /// Per-contract index-construction latency distribution (µs) —
    /// guard discovery, def-use, const/DS propagation, sparse indexes.
    index_build_us: LatencySummary,
    /// Per-phase medians over the corpus.
    phase_medians_us: PhaseMedians,
    /// True when `fixpoint_us.p50` rounded to 0µs: the corpus is too
    /// small for this engine to register on a microsecond clock, and
    /// ratios against this row are meaningless.
    below_resolution: bool,
    /// Sum of per-contract convergence rounds (1 + defeat waves).
    rounds_total: u64,
    /// Sum of derived facts across the corpus.
    facts_total: u64,
}

/// The committed benchmark artifact.
#[derive(Debug, Serialize, Deserialize)]
struct BenchArtifact {
    /// Corpus size the distributions are computed over.
    corpus: usize,
    /// Corpus generator seed.
    seed: u64,
    /// Structural corpus scale (`small` | `realistic` | `adversarial`).
    /// Trajectories are only comparable PR-over-PR at the same scale.
    scale: String,
    /// Timed analyses per contract; the fastest is kept.
    runs_per_contract: u32,
    /// The production engine (the row keeps its historical name).
    sparse: EngineRow,
}

fn total_facts(r: &Report) -> u64 {
    let f = &r.stats.facts;
    (f.input_tainted
        + f.storage_tainted
        + f.tainted_slots
        + f.tainted_mappings
        + f.writable_mappings
        + f.defeated_guards) as u64
}

/// Builds the engine row from the per-contract best-run samples.
fn engine_row(
    timings: &[PhaseTimings],
    rounds_total: u64,
    facts_total: u64,
) -> EngineRow {
    let mut fixpoint: Vec<u64> = timings.iter().map(|t| t.fixpoint_us).collect();
    let mut index_build: Vec<u64> = timings.iter().map(|t| t.index_build_us).collect();
    let median = |field: fn(&PhaseTimings) -> u64| -> u64 {
        let mut v: Vec<u64> = timings.iter().map(field).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    let phase_medians_us = PhaseMedians {
        index_build_us: median(|t| t.index_build_us),
        fixpoint_us: median(|t| t.fixpoint_us),
        sink_scan_us: median(|t| t.sink_scan_us),
        detectors_us: median(|t| t.detectors_us.unwrap_or(0)),
        effects_us: median(|t| t.effects_us.unwrap_or(0)),
        composite_us: median(|t| t.composite_us.unwrap_or(0)),
        total_us: median(|t| t.total_us),
    };
    let fixpoint_us = latency_summary(&mut fixpoint);
    let below_resolution = fixpoint_us.p50 == 0;
    if below_resolution {
        eprintln!(
            "bench_fixpoint: WARNING: fixpoint p50 rounds to 0µs — corpus too small to \
             register; re-run with a larger --scale before reading ratios off this row"
        );
    }
    EngineRow {
        fixpoint_us,
        index_build_us: latency_summary(&mut index_build),
        phase_medians_us,
        below_resolution,
        rounds_total,
        facts_total,
    }
}

fn main() -> ExitCode {
    let mut corpus_n = 500usize;
    let mut seed = 7u64;
    let mut scale = Scale::Realistic;
    let mut out_path = String::from("BENCH_fixpoint.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize| -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("bench_fixpoint: {} needs a value", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--corpus" => {
                corpus_n = take(i).parse().expect("bad --corpus");
                i += 1;
            }
            "--seed" => {
                seed = take(i).parse().expect("bad --seed");
                i += 1;
            }
            "--scale" => {
                let v = take(i);
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("bench_fixpoint: bad --scale `{v}` (small|realistic|adversarial)");
                    std::process::exit(2);
                });
                i += 1;
            }
            "--out" => {
                out_path = take(i);
                i += 1;
            }
            "--quick" => corpus_n = 50,
            other => {
                eprintln!("bench_fixpoint: unknown flag `{other}`");
                eprintln!(
                    "usage: bench_fixpoint [--corpus N] [--seed S] \
                     [--scale small|realistic|adversarial] [--quick] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let pop = Population::generate(&PopulationConfig {
        size: corpus_n,
        seed,
        scale,
        ..Default::default()
    });
    eprintln!(
        "bench_fixpoint: {} contracts (seed {seed}, scale {})",
        pop.contracts.len(),
        scale.name()
    );

    // Decompile + optimize once per contract, outside the timed region.
    let programs: Vec<decompiler::Program> = pop
        .contracts
        .iter()
        .map(|c| {
            let mut p = decompiler::decompile(&c.bytecode);
            decompiler::optimize(&mut p, &decompiler::PassConfig::default());
            p
        })
        .collect();
    let cfg = Config::default();

    // Best-of-N damps scheduler noise on a shared machine; verdicts are
    // checked on every run, not just the timed-best one.
    const RUNS: u32 = 3;
    let mut rounds = 0u64;
    let mut facts = 0u64;
    let mut timings: Vec<PhaseTimings> = Vec::with_capacity(programs.len());
    for (ci, p) in programs.iter().enumerate() {
        let mut best: Option<Report> = None;
        for _ in 0..RUNS {
            let r = ethainter::analyze(p, &cfg);
            match &best {
                Some(prev) if prev.findings != r.findings || prev.stats.facts != r.stats.facts => {
                    eprintln!("bench_fixpoint: NONDETERMINISM on contract {ci}");
                    return ExitCode::FAILURE;
                }
                Some(prev) if prev.stats.timings.fixpoint_us <= r.stats.timings.fixpoint_us => {}
                _ => best = Some(r),
            }
        }
        let r = best.expect("RUNS > 0");
        timings.push(r.stats.timings);
        rounds += r.stats.rounds as u64;
        facts += total_facts(&r);
    }

    let artifact = BenchArtifact {
        corpus: programs.len(),
        seed,
        scale: scale.name().to_string(),
        runs_per_contract: RUNS,
        sparse: engine_row(&timings, rounds, facts),
    };

    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    std::fs::write(&out_path, format!("{json}\n")).expect("write artifact");
    eprintln!(
        "bench_fixpoint: fixpoint p50 {}µs p90 {}µs max {}µs -> {out_path}",
        artifact.sparse.fixpoint_us.p50,
        artifact.sparse.fixpoint_us.p90,
        artifact.sparse.fixpoint_us.max,
    );
    ExitCode::SUCCESS
}
