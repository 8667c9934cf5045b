//! Per-layer measurements every traced workload reports (the
//! `PER_LAYER` catalog), plus the `<workload>.layers.json` writer.

use crate::inputs::Input;
use crate::metrics::{Metric, RunResult};
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Span};
use driver::Status;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// Per-contract time samples (µs) of the analysis layers, whichever way
/// the workload observed them: the benchmark's own spans around its
/// calls, or the analyzer's stamps in a returned report.
#[derive(Debug, Default)]
pub struct AnalysisSamples {
    decompile: Vec<f64>,
    optimize: Vec<f64>,
    index_build: Vec<f64>,
    evaluate: Vec<f64>,
    fixpoint: Vec<f64>,
    detectors: Vec<f64>,
    composite: Vec<f64>,
}

impl AnalysisSamples {
    /// Adds the sub-phase stamps `evaluate` leaves in a report.
    pub fn push_stamps(&mut self, t: &ethainter::PhaseTimings) {
        self.fixpoint.push(t.fixpoint_us as f64);
        let (detectors, _effects, composite) = t.sink_scan_breakdown().unwrap_or_default();
        self.detectors.push(detectors as f64);
        self.composite.push(composite as f64);
    }

    /// Adds every phase from an analyzed status's stamps (the daemon's
    /// view of an analysis it ran).
    pub fn push_status(&mut self, status: &Status) {
        if let Status::Analyzed { timings: t, .. } = status {
            self.decompile.push(t.decompile_us as f64);
            self.optimize.push(t.passes_us as f64);
            self.index_build.push(t.index_build_us as f64);
            self.evaluate
                .push((t.fixpoint_us + t.sink_scan_us + t.witness_us) as f64);
            self.push_stamps(t);
        }
    }

    /// Adds the bench-span self times of the four call layers.
    pub fn push_spans(&mut self, spans: &[Span]) {
        let by_name = trace::self_us_by_name(spans);
        let take = |name: &str| by_name.get(name).cloned().unwrap_or_default();
        self.decompile.extend(take("decompiler.decompile"));
        self.optimize.extend(take("decompiler.optimize"));
        self.index_build.extend(take("ethainter.index_build"));
        self.evaluate.extend(take("ethainter.evaluate"));
    }
}

/// Work counts over a fixed set of inputs: they repeat exactly for a
/// seed, so a change may rest a claim on them.
#[derive(Debug, Default)]
pub struct WorkCounts {
    stmts_in: u64,
    stmts_out: u64,
    facts: u64,
    rounds: u64,
    findings: u64,
}

/// How many leading inputs the work counts cover.
const COUNTED_INPUTS: usize = 16;

/// The derived fixpoint relations, summed (the `facts_total` definition
/// `BENCH_fixpoint.json` uses).
fn facts_total(f: &ethainter::FactCounts) -> u64 {
    (f.input_tainted
        + f.storage_tainted
        + f.tainted_slots
        + f.tainted_mappings
        + f.writable_mappings
        + f.defeated_guards) as u64
}

/// Replays the first [`COUNTED_INPUTS`] inputs through the pipeline's
/// public calls and sums what each layer produced.
pub fn count_work(inputs: &[Input]) -> WorkCounts {
    let cfg = ethainter::Config::default();
    let mut c = WorkCounts::default();
    for input in inputs.iter().take(COUNTED_INPUTS) {
        let mut program = decompiler::decompile(&input.bytecode);
        let pass = decompiler::optimize(&mut program, &decompiler::PassConfig::default());
        let report = ethainter::AnalysisArtifacts::build(&program, &cfg).evaluate(&cfg);
        c.stmts_in += pass.stmts_before as u64;
        c.stmts_out += pass.stmts_after as u64;
        c.facts += facts_total(&report.stats.facts);
        c.rounds += report.stats.rounds as u64;
        c.findings += report.findings.len() as u64;
    }
    c
}

/// Median time (µs) of the store layer's three calls, measured on a
/// benchmark-owned cache replaying the workload's bytecode.
#[derive(Debug)]
pub struct StoreTimes {
    cache_key_us: f64,
    lookup_us: f64,
    insert_us: f64,
}

/// Replays each distinct `(bytecode, status)` through `store::cache_key`,
/// `SharedCache::insert`, and a hitting `SharedCache::lookup`, in a fresh
/// cache under `dir` (removed afterwards).
pub fn store_replay(dir: &Path, items: &[(&[u8], Status)]) -> Result<StoreTimes, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = store::SharedCache::open(dir)?;
    let cfg = ethainter::Config::default();
    let (mut key_us, mut lookup_us, mut insert_us) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (code, status) in items {
        let t = Instant::now();
        let key = store::cache_key(code, &cfg);
        key_us.push(us(t));
        if cache.lookup(&key).is_some() {
            continue; // a repeated input: the replay times first sightings only
        }
        let t = Instant::now();
        cache.insert(
            key,
            store::CachedResult {
                status: status.clone(),
                elapsed_ms: 0,
            },
        )?;
        insert_us.push(us(t));
        let t = Instant::now();
        let hit = cache.lookup(&key);
        lookup_us.push(us(t));
        if hit.is_none() {
            return Err("the store replay missed a key it had just inserted".into());
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(StoreTimes {
        cache_key_us: med(&key_us),
        lookup_us: med(&lookup_us),
        insert_us: med(&insert_us),
    })
}

/// Assembles the `PER_LAYER` metrics in catalog order.
pub fn catalog_metrics(
    a: &AnalysisSamples,
    counts: &WorkCounts,
    store: &StoreTimes,
    unaccounted: f64,
    overhead: f64,
) -> Vec<Metric> {
    let p50 = |name, v: &[f64]| {
        Metric::over(
            name,
            percentile(&sorted(v), 50.0).unwrap_or(0.0),
            "us",
            v.len(),
        )
    };
    let count = |name, n: u64| Metric::new(name, n as f64, "count");
    vec![
        p50("decompiler.decompile_us", &a.decompile),
        p50("decompiler.optimize_us", &a.optimize),
        count("decompiler.stmts_in", counts.stmts_in),
        count("decompiler.stmts_out", counts.stmts_out),
        p50("ethainter.index_build_us", &a.index_build),
        p50("ethainter.evaluate_us", &a.evaluate),
        p50("ethainter.fixpoint_us", &a.fixpoint),
        p50("ethainter.detectors_us", &a.detectors),
        p50("ethainter.composite_us", &a.composite),
        count("ethainter.facts_total", counts.facts),
        count("ethainter.rounds_total", counts.rounds),
        count("ethainter.findings_total", counts.findings),
        Metric::new("store.cache_key_us", store.cache_key_us, "us"),
        Metric::new("store.lookup_us", store.lookup_us, "us"),
        Metric::new("store.insert_us", store.insert_us, "us"),
        Metric::new("bench.unaccounted_ratio", unaccounted, "ratio"),
        Metric::new("bench.trace_overhead_ratio", overhead, "ratio"),
    ]
}

/// Writes `<dir>/<workload>.spans.jsonl` and `<dir>/<workload>.layers.json`
/// (per-span-name self-time summary plus every layer metric of the run).
pub fn write_trace(
    dir: &Path,
    workload: &str,
    spans: &[Span],
    result: &RunResult,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spans_path = dir.join(format!("{workload}.spans.jsonl"));
    std::fs::write(&spans_path, trace::to_jsonl(spans))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let self_times = trace::self_us_by_name(spans)
        .into_iter()
        .map(|(name, v)| {
            let s = sorted(&v);
            let summary = Value::Object(vec![
                ("count".into(), Value::UInt(v.len() as u64)),
                (
                    "self_p50_us".into(),
                    Value::Float(percentile(&s, 50.0).unwrap_or(0.0)),
                ),
                (
                    "self_mean_us".into(),
                    Value::Float(s.iter().sum::<f64>() / s.len() as f64),
                ),
                ("self_total_us".into(), Value::Float(s.iter().sum())),
            ]);
            (name.to_string(), summary)
        })
        .collect();
    let metrics = result
        .metrics
        .iter()
        .chain(&result.extra)
        .map(|m| {
            let mut fields = vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ];
            if let Some(n) = m.samples {
                fields.push(("samples".into(), Value::UInt(n as u64)));
            }
            (m.name.to_string(), Value::Object(fields))
        })
        .collect();
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("spans".into(), Value::UInt(spans.len() as u64)),
        ("self_time_by_span".into(), Value::Object(self_times)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let layers_path = dir.join(format!("{workload}.layers.json"));
    let text = serde_json::to_string_pretty(&doc).expect("layers serialize") + "\n";
    std::fs::write(&layers_path, text)
        .map_err(|e| format!("writing {}: {e}", layers_path.display()))
}
