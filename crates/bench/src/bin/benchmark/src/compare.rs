//! `benchmark compare BASE.jsonl NEW.jsonl [MORE.jsonl…]`: applies the
//! regression bounds of `BENCHMARK.json` to the medians of each side's
//! runs, one row per workload × end-to-end metric.
//!
//! Each file holds the records `--out` appends, one untraced run set per
//! line. The first file is the baseline; every further file is compared
//! against it.

use crate::stats::{median, relative_spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// A row's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way, and the spread is within it too.
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound and the runs do not
    /// all favour one side.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// workload → metric → value, for one run set.
pub type RunSet = BTreeMap<String, BTreeMap<String, f64>>;

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let root = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Array(items) = field(&root, "end_to_end")? else {
        return Err("BENCHMARK.json: `end_to_end` is not a list".into());
    };
    items
        .iter()
        .map(|m| {
            let (Value::Str(name), Value::Str(better), Some(bound)) = (
                field(m, "name")?,
                field(m, "better")?,
                number(field(m, "bound")?),
            ) else {
                return Err(format!("BENCHMARK.json: malformed metric {m:?}"));
            };
            Ok(Bound {
                name: name.clone(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// The untraced run sets in a file of `--out` records.
pub fn parse_runs(text: &str) -> Result<Vec<RunSet>, String> {
    let mut sets = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = serde_json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let Value::Object(workloads) = field(&record, "workloads")? else {
            return Err(format!("line {}: `workloads` is not an object", n + 1));
        };
        let mut set = RunSet::new();
        for (workload, run) in workloads {
            let Value::Object(metrics) = field(run, "metrics")? else {
                return Err(format!(
                    "line {}: {workload}: `metrics` is not an object",
                    n + 1
                ));
            };
            let values = metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), number(m.get("value")?)?)))
                .collect();
            set.insert(workload.clone(), values);
        }
        sets.push(set);
    }
    Ok(sets)
}

/// The verdict for one metric, with the new median's change relative to
/// the baseline's (positive = worse) and the wider of the two sides'
/// interquartile spreads.
pub fn verdict(base: &[f64], new: &[f64], rule: &Bound) -> (Verdict, f64, f64) {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return (Verdict::Unresolved, 0.0, 0.0);
    };
    let worse_by = if rule.lower_is_better {
        (mn - mb) / mb
    } else {
        (mb - mn) / mb
    };
    let spread = relative_spread(base).max(relative_spread(new));
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let all_new_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let all_new_worse = new.iter().all(|&n| base.iter().all(|&b| better(b, n)));
    let v = if spread > rule.bound {
        if all_new_better {
            Verdict::Better
        } else if all_new_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, worse_by, spread)
}

/// One comparison row.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base_median: f64,
    pub new_median: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares every workload both sides ran, metric by metric.
pub fn compare(bounds: &[Bound], base: &[RunSet], new: &[RunSet]) -> Vec<Row> {
    let values = |sets: &[RunSet], w: &str, m: &str| -> Vec<f64> {
        sets.iter()
            .filter_map(|s| s.get(w)?.get(m).copied())
            .collect()
    };
    let workloads: std::collections::BTreeSet<&String> = base
        .iter()
        .flat_map(|s| s.keys())
        .filter(|w| new.iter().any(|s| s.contains_key(*w)))
        .collect();
    let mut rows = Vec::new();
    for w in workloads {
        for rule in bounds {
            let (a, b) = (values(base, w, &rule.name), values(new, w, &rule.name));
            let (verdict, worse_by, spread) = verdict(&a, &b, rule);
            rows.push(Row {
                workload: w.clone(),
                metric: rule.name.clone(),
                base_median: median(&a).unwrap_or(f64::NAN),
                new_median: median(&b).unwrap_or(f64::NAN),
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// Runs the subcommand; returns whether every row is `same` or `better`.
pub fn run(files: &[String]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("compare needs a baseline file and at least one more".into());
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let bounds = parse_bounds(&read("BENCHMARK.json")?)?;
    let base = parse_runs(&read(&files[0])?)?;
    let mut clean = true;
    for path in &files[1..] {
        let new = parse_runs(&read(path)?)?;
        println!(
            "{} ({} runs) vs {path} ({} runs)",
            files[0],
            base.len(),
            new.len()
        );
        for r in compare(&bounds, &base, &new) {
            println!(
                "{:<20} {:<18} {:>12.4} {:>12.4} {:>+8.2}% spread {:>6.2}% {}",
                r.workload,
                r.metric,
                r.base_median,
                r.new_median,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.verdict.name()
            );
            clean &= matches!(r.verdict, Verdict::Same | Verdict::Better);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let latency = rule(true);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&base, &[102.0, 103.0, 101.0], &latency).0,
            Verdict::Same
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], &latency).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0], &latency).0,
            Verdict::Better
        );
        // Higher is better for a rate: the same numbers flip.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], &rule(false)).0,
            Verdict::Better
        );
        // A spread wider than the bound with interleaved runs is unresolved …
        let noisy = [70.0, 100.0, 130.0, 90.0, 115.0];
        assert_eq!(verdict(&base, &noisy, &latency).0, Verdict::Unresolved);
        // … unless every run of one side beats every run of the other.
        let noisy_but_worse = [115.0, 150.0, 190.0, 130.0, 170.0];
        assert_eq!(verdict(&base, &noisy_but_worse, &latency).0, Verdict::Worse);
        let (_, worse_by, _) = verdict(&[100.0], &[110.0], &latency);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    #[test]
    fn compare_reads_records_and_bounds() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("bounds parse");
        let line = |v: f64| {
            format!(
                r#"{{"seed":7,"seconds":15,"traced":false,"claim":null,"workloads":{{"w":{{"correct":true,"attempted":3,"failed":0,"metrics":{{"latency_p50_ms":{{"value":{v},"unit":"ms"}}}}}}}}}}"#
            )
        };
        let traced = r#"{"traced":true,"workloads":{}}"#;
        let a =
            parse_runs(&[line(10.0), line(10.2), traced.into()].join("\n")).expect("runs parse");
        let b = parse_runs(&[line(10.1), line(9.9)].join("\n")).expect("runs parse");
        assert_eq!(a.len(), 2, "traced records are skipped");
        let rows = compare(&bounds, &a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].verdict),
            ("w", Verdict::Same)
        );
    }
}
