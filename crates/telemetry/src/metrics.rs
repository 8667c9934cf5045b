//! Global metrics registry: counters, gauges, log-bucketed histograms.
//!
//! Instruments are registered by name on first use and live for the
//! process lifetime; handles are cheap `Arc` clones over atomics, so
//! every worker thread updates the same instrument without locks on the
//! hot path (the registry mutex is only taken at registration/lookup —
//! hoist handles out of loops). Names follow
//! `ethainter_<subsystem>_<what>[_<unit>][_total]`.
//!
//! Histograms use power-of-two ("log2") buckets: a sample lands in the
//! bucket for its bit length, i.e. bucket `i` covers `[2^(i-1), 2^i)`.
//! That gives fixed memory (65 atomics), no configuration, and ≤2×
//! relative error on quantile estimates — the right trade for
//! microsecond latencies spanning six orders of magnitude. Quantiles
//! (p50/p90/p99) are estimated by rank-walking the buckets with linear
//! interpolation inside the landing bucket. The running `sum`
//! saturates at `u64::MAX` instead of wrapping, so a poisoned sample
//! can never make totals go backwards.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one per possible bit length (0..=64).
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// The bucket index for a sample: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add: fetch_add would wrap, and a wrapped sum reads
        // as throughput going backwards on a dashboard.
        let _ = c.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
            Some(s.saturating_add(v))
        });
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in c.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        let snap = HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets,
        };
        // `count` is recomputed from the bucket copy (not read from the
        // shared atomic) so quantile ranks are consistent even if
        // another thread observes mid-snapshot.
        snap
    }
}

/// An immutable histogram snapshot with quantile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts, indexed by bit length.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by rank-walking the
    /// buckets and interpolating linearly inside the landing bucket.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo + (hi - lo) * frac;
                return est.min(self.max as f64) as u64;
            }
            seen += n;
        }
        self.max
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Instrument>> {
    static R: OnceLock<Mutex<BTreeMap<String, Instrument>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Locks the registry, shrugging off poisoning: a panic elsewhere (the
/// batch driver sandboxes panicking contracts) must not take metrics
/// down with it, and the map is only mutated via complete `entry`
/// inserts so a poisoned lock still guards consistent data.
fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Instrument>>
{
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Fetches (registering on first use) the counter named `name`.
/// Panics if the name is already registered as another kind.
pub fn counter(name: &str) -> Counter {
    let mut r = lock_registry();
    match r
        .entry(name.to_string())
        .or_insert_with(|| Instrument::Counter(Counter(Arc::default())))
    {
        Instrument::Counter(c) => c.clone(),
        _ => panic!("metric `{name}` is not a counter"),
    }
}

/// Fetches (registering on first use) the gauge named `name`.
/// Panics if the name is already registered as another kind.
pub fn gauge(name: &str) -> Gauge {
    let mut r = lock_registry();
    match r
        .entry(name.to_string())
        .or_insert_with(|| Instrument::Gauge(Gauge(Arc::default())))
    {
        Instrument::Gauge(g) => g.clone(),
        _ => panic!("metric `{name}` is not a gauge"),
    }
}

/// Fetches (registering on first use) the histogram named `name`.
/// Panics if the name is already registered as another kind.
pub fn histogram(name: &str) -> Histogram {
    let mut r = lock_registry();
    match r.entry(name.to_string()).or_insert_with(|| {
        Instrument::Histogram(Histogram(Arc::new(HistogramCore {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        })))
    }) {
        Instrument::Histogram(h) => h.clone(),
        _ => panic!("metric `{name}` is not a histogram"),
    }
}

/// A point-in-time copy of every registered instrument, name-sorted.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the whole registry (deterministic name order).
pub fn snapshot() -> Snapshot {
    let r = lock_registry();
    let mut snap = Snapshot::default();
    for (name, inst) in r.iter() {
        match inst {
            Instrument::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Instrument::Histogram(h) => {
                snap.histograms.push((name.clone(), h.snapshot()))
            }
        }
    }
    snap
}

impl Snapshot {
    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum, max, p50, p90, p99}}}`.
    pub fn to_json(&self) -> String {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Value::UInt(*v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges.iter().map(|(n, v)| (n.clone(), Value::Int(*v))).collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Value::Object(vec![
                            ("count".into(), Value::UInt(h.count)),
                            ("sum".into(), Value::UInt(h.sum)),
                            ("max".into(), Value::UInt(h.max)),
                            ("p50".into(), Value::UInt(h.quantile(0.50))),
                            ("p90".into(), Value::UInt(h.quantile(0.90))),
                            ("p99".into(), Value::UInt(h.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        let root = Value::Object(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ]);
        serde_json::to_string_pretty(&root).expect("metrics serialize")
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (counters, gauges, and full cumulative-bucket histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 && i != BUCKETS - 1 {
                    continue;
                }
                cum += n;
                let le = if i == BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_upper(i).to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global; every test uses unique metric names so
    // parallel tests never see each other's updates.

    #[test]
    fn counter_accumulates_across_handles() {
        let a = counter("test_ctr_acc_total");
        let b = counter("test_ctr_acc_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = gauge("test_gauge_updown");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        counter("test_kind_clash_total");
        gauge("test_kind_clash_total");
    }

    #[test]
    fn empty_histogram_has_zero_quantiles() {
        let h = histogram("test_hist_empty_us").snapshot();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        assert_eq!(h.max, 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn single_sample_pins_every_quantile_to_its_bucket() {
        let h = histogram("test_hist_single_us");
        h.observe(500);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 500);
        assert_eq!(s.max, 500);
        // 500 has bit length 9 → bucket [256, 511], but the estimate is
        // clamped to the observed max.
        for q in [0.5, 0.9, 0.99] {
            let est = s.quantile(q);
            assert!((256..=500).contains(&est), "q{q} estimate {est}");
        }
        assert_eq!(s.quantile(0.5), s.quantile(0.99));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = histogram("test_hist_saturate_us");
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert!(s.quantile(0.5) >= 1 << 63, "p50 in the top bucket");
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_are_ordered_on_a_spread() {
        let h = histogram("test_hist_spread_us");
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        let (p50, p90, p99) =
            (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Log buckets promise ≤2× relative error.
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        assert!((450..=1000).contains(&p90), "p90 {p90}");
    }

    #[test]
    fn json_export_contains_all_instruments() {
        counter("test_json_ctr_total").add(3);
        gauge("test_json_gauge").set(-2);
        histogram("test_json_hist_us").observe(7);
        let json = snapshot().to_json();
        let v = serde_json::parse(&json).unwrap();
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("test_json_ctr_total"), Some(&Value::UInt(3)));
        let hist = v.get("histograms").unwrap().get("test_json_hist_us").unwrap();
        assert_eq!(hist.get("count"), Some(&Value::UInt(1)));
        assert!(hist.get("p50").is_some());
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        counter("test_prom_ctr_total").add(9);
        let h = histogram("test_prom_hist_us");
        h.observe(3);
        h.observe(300);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE test_prom_ctr_total counter"));
        assert!(text.contains("test_prom_ctr_total 9"));
        assert!(text.contains("# TYPE test_prom_hist_us histogram"));
        assert!(text.contains("test_prom_hist_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("test_prom_hist_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_prom_hist_us_sum 303"));
        assert!(text.contains("test_prom_hist_us_count 2"));
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1);
        }
    }
}
