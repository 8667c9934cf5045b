//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls *into* each layer (no tracing is
//! added inside the program): one trace per contract or request, each
//! span with its parent, name, and monotonic start/end. Spans stay in
//! memory until the run ends, then go to `<workload>.spans.jsonl`.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Contract index or request number.
    pub trace: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `decompiler.decompile`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// A thread-safe in-memory span sink.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the new span's id so it can
    /// parent spans of its own.
    pub fn span<R>(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // Relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .push(Span {
                trace,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        result
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone()
    }
}

/// Total length of the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (index-aligned with `spans`), in ns: its
/// duration minus the part of it covered by its children. Children may
/// overlap each other (concurrent work) or stick out of the parent (a
/// clock race across threads); only the covered part inside the parent
/// is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let inside: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            (s.end_ns - s.start_ns).saturating_sub(covered(inside))
        })
        .collect()
}

/// Self-time samples in µs, grouped by span name.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(s.name).or_default().push(ns as f64 / 1e3);
    }
    by_name
}

/// The share of all root-span time that no layer accounts for: the self
/// time of the benchmark's own glue spans (names starting `bench.`) over
/// the summed root durations. A rise means a layer boundary is missing.
pub fn unaccounted_ratio(spans: &[Span]) -> f64 {
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let glue_ns: u64 = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name.starts_with("bench."))
        .map(|(_, ns)| ns)
        .sum();
    if root_ns == 0 {
        0.0
    } else {
        glue_ns as f64 / root_ns as f64
    }
}

/// Renders the spans as JSON Lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let v = Value::Object(vec![
            ("trace".into(), Value::UInt(s.trace)),
            ("id".into(), Value::UInt(s.id)),
            ("parent".into(), Value::UInt(s.parent)),
            ("name".into(), Value::Str(s.name.into())),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
        ]);
        out.push_str(&serde_json::to_string(&v).expect("span serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span(1, 0, "bench.contract", 0, 100),
            span(2, 1, "decompiler.decompile", 10, 40),
            span(3, 1, "ethainter.evaluate", 50, 90),
            span(4, 3, "ethainter.inner", 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        // Only the root is glue: 30 of 100 ns unaccounted.
        assert!((unaccounted_ratio(&spans) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        let spans = vec![
            span(1, 0, "driver.isolate_one", 0, 100),
            // Two overlapping children cover [10, 60] — 50 ns, not 60.
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            // A child sticking out past the parent's end counts only
            // inside the parent: [90, 100].
            span(4, 1, "c", 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
        assert_eq!(covered(vec![(5, 10), (0, 3), (2, 4), (10, 12)]), 4 + 7);
        // No glue spans: everything is accounted to a layer.
        assert_eq!(unaccounted_ratio(&spans), 0.0);
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new());
        let inner = std::sync::Arc::clone(&rec);
        rec.span(7, 0, "bench.root", |root| {
            std::thread::spawn(move || inner.span(7, root, "child", |_| ()))
                .join()
                .expect("child thread");
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "bench.root").expect("root");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(child.parent, root.id);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
