//! Order statistics and process measurements shared by every workload.

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending-sorted
/// slice — the convention the repository's other benchmarks use. `None`
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, so a tail never rests on a handful of outliers.
/// `None` when even p75 has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Warns when a run is too short for its p90 to keep ten samples beyond
/// it (the benchmark's run length is chosen so that it does).
pub fn warn_thin_tail(n: usize) {
    if tail_percentile(n).unwrap_or(0.0) < 90.0 {
        eprintln!("warning: only {n} latency samples: the p90 has fewer than 10 beyond it");
    }
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads computed here match the
/// ones computed from the same values in Python. `None` below two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 below two values).
pub fn relative_spread(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Extracts the peak resident set size (`VmHWM`, in KiB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set size in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&text)? as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_choice_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0]), 0.0);
    }

    #[test]
    fn vm_hwm_parser_reads_the_kib_field() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t twelve kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
