//! The metric catalog (mirrored in `BENCHMARK.json`) and a run's result.

use crate::stats::{percentile, sorted};
use serde_json::Value;

/// End-to-end metrics every untraced run reports, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, in output order. Layer
/// metrics that exist on only some workloads (sandbox, server, witness)
/// go to `<workload>.layers.json` instead — see [`RunResult::extra`].
pub const PER_LAYER: [(&str, &str); 17] = [
    ("decompiler.decompile_us", "us"),
    ("decompiler.optimize_us", "us"),
    ("decompiler.stmts_in", "count"),
    ("decompiler.stmts_out", "count"),
    ("ethainter.index_build_us", "us"),
    ("ethainter.evaluate_us", "us"),
    ("ethainter.fixpoint_us", "us"),
    ("ethainter.detectors_us", "us"),
    ("ethainter.composite_us", "us"),
    ("ethainter.facts_total", "count"),
    ("ethainter.rounds_total", "count"),
    ("ethainter.findings_total", "count"),
    ("store.cache_key_us", "us"),
    ("store.lookup_us", "us"),
    ("store.insert_us", "us"),
    ("bench.unaccounted_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The `END_TO_END` metrics of a measured pass. `peak_rss_mb` is read
/// when the pass ends, before verification adds work of its own.
pub fn end_to_end(setup_s: f64, rate: f64, latencies_ms: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let s = sorted(latencies_ms);
    let n = s.len();
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", rate, "1/s"),
        Metric::over(
            "latency_p50_ms",
            percentile(&s, 50.0).unwrap_or(0.0),
            "ms",
            n,
        ),
        Metric::over(
            "latency_p90_ms",
            percentile(&s, 90.0).unwrap_or(0.0),
            "ms",
            n,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
    /// For a percentile: how many samples it was taken over.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A percentile over `samples` values.
    pub fn over(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations (contracts or requests) attempted in the measured phase.
    pub attempted: u64,
    /// Of those, how many failed (timed out, panicked, decompile-failed,
    /// non-2xx, client error).
    pub failed: u64,
    /// Failed correctness gates, one line each. Empty means correct.
    pub problems: Vec<String>,
    /// The catalog metrics for the run's mode, in catalog order.
    pub metrics: Vec<Metric>,
    /// Workload-specific layer metrics (traced runs only).
    pub extra: Vec<Metric>,
}

impl RunResult {
    /// True when every correctness gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Checks `metrics` against the catalog for the run's mode.
    pub fn check_catalog(&self, traced: bool) -> Result<(), String> {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let got: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        if got == catalog {
            Ok(())
        } else {
            Err(format!(
                "metrics {got:?} do not match the catalog {catalog:?}"
            ))
        }
    }

    /// `<workload> <metric> <value> <unit>` lines, percentiles annotated
    /// with their sample count.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .map(|m| {
                let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
                format!("{workload} {} {} {}{n}", m.name, m.value, m.unit)
            })
            .collect()
    }

    /// The `{"correct", "attempted", "failed", "metrics"}` summary. A run
    /// that failed a gate reports no metric values.
    pub fn summary(&self) -> Value {
        let metrics = if self.correct() {
            self.metrics
                .iter()
                .map(|m| {
                    let v = Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), v)
                })
                .collect()
        } else {
            Vec::new()
        };
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog here and the one `BENCHMARK.json` declares must agree
    /// name for name and unit for unit.
    #[test]
    fn catalog_matches_benchmark_json() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let root = serde_json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = root.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    other => panic!("bad metric entry {other:?}"),
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn a_failed_gate_hides_every_value() {
        let mut r = RunResult {
            attempted: 3,
            metrics: vec![Metric::over("latency_p50_ms", 1.5, "ms", 3)],
            ..Default::default()
        };
        let shown = serde_json::to_string(&r.summary()).expect("serializes");
        assert!(
            shown.contains("\"latency_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}"),
            "{shown}"
        );
        assert_eq!(
            r.lines("w"),
            vec!["w latency_p50_ms 1.5 ms (n=3)".to_string()]
        );
        r.problems.push("verdict mismatch".into());
        let hidden = serde_json::to_string(&r.summary()).expect("serializes");
        assert_eq!(
            hidden,
            r#"{"correct":false,"attempted":3,"failed":0,"metrics":{}}"#
        );
    }
}
