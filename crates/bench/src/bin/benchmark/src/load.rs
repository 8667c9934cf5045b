//! Closed-loop load generation: a fixed number of threads, each issuing
//! its next operation only when the previous one completed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generating threads (and, for the daemon, connections in flight):
/// the machine the benchmark was defined on has two cores.
pub const THREADS: usize = 2;

/// When a pass stops issuing operations: at `until` (if set) or after
/// operations `0..limit`, whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    until: Option<Instant>,
    limit: usize,
}

impl Stop {
    /// No new operation starts once `run` has elapsed from now.
    pub fn after_time(run: Duration) -> Stop {
        Stop {
            until: Some(Instant::now() + run),
            limit: usize::MAX,
        }
    }

    /// Operations `0..n` run, then the pass ends.
    pub fn after_count(n: usize) -> Stop {
        Stop {
            until: None,
            limit: n,
        }
    }

    /// Also stop after operations `0..n`.
    pub fn at_most(self, n: usize) -> Stop {
        Stop {
            limit: self.limit.min(n),
            ..self
        }
    }
}

/// One completed operation.
#[derive(Debug)]
pub struct Done<R> {
    /// Operation number (claimed in order from 0).
    pub index: usize,
    /// Wall time of the operation.
    pub latency: Duration,
    /// What it returned.
    pub result: R,
}

/// All operations of one pass, sorted by index, and the pass's wall time
/// (first claim to last completion).
#[derive(Debug)]
pub struct Pass<R> {
    pub done: Vec<Done<R>>,
    pub wall: Duration,
}

impl<R> Pass<R> {
    /// Completed operations per second of wall time.
    pub fn rate(&self) -> f64 {
        self.done.len() as f64 / self.wall.as_secs_f64()
    }

    /// Latencies in ms, in index order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Runs `op(index)` on `threads` threads that claim indices 0, 1, 2, …
/// in order until `stop`. Completed indices are always a contiguous range
/// from 0, so a second pass with `Stop::after_count(n)` repeats the same
/// operations.
pub fn closed_loop<R: Send>(threads: usize, stop: Stop, op: impl Fn(usize) -> R + Sync) -> Pass<R> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    if stop.until.is_some_and(|t| Instant::now() >= t) {
                        break;
                    }
                    // Relaxed: the counter only hands out unique indices.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= stop.limit {
                        break;
                    }
                    let t = Instant::now();
                    let result = op(index);
                    mine.push(Done {
                        index,
                        latency: t.elapsed(),
                        result,
                    });
                }
                done.lock().expect("a load thread panicked").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut done = done.into_inner().expect("a load thread panicked");
    done.sort_by_key(|d| d.index);
    Pass { done, wall }
}

/// Runs `f(i)` for `0..n` on [`THREADS`] threads, results in index order.
pub fn parallel_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    closed_loop(THREADS, Stop::after_count(n), f)
        .done
        .into_iter()
        .map(|d| d.result)
        .collect()
}

/// Runs `setup` several times and keeps the last result, handing every
/// earlier one to `teardown`. Returns it with the median setup time in
/// seconds, so work moved into set-up shows without one slow repetition
/// deciding the number.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    const REPEATS: usize = 3;
    let mut times = Vec::with_capacity(REPEATS);
    let mut kept = None;
    for _ in 0..REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&times).expect("at least one repetition");
    Ok((kept.expect("at least one repetition"), median))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counted_pass_runs_each_index_once() {
        let pass = closed_loop(2, Stop::after_count(50), |i| i * 2);
        assert_eq!(pass.done.len(), 50);
        for (i, d) in pass.done.iter().enumerate() {
            assert_eq!((d.index, d.result), (i, i * 2));
        }
    }

    #[test]
    fn a_timed_pass_claims_a_contiguous_prefix() {
        let tick = || std::thread::sleep(Duration::from_millis(1));
        let pass = closed_loop(2, Stop::after_time(Duration::from_millis(30)), |_| tick());
        assert!(!pass.done.is_empty());
        assert!(pass.done.iter().enumerate().all(|(i, d)| d.index == i));
        assert!(pass.wall >= Duration::from_millis(30));
        let capped = closed_loop(
            2,
            Stop::after_time(Duration::from_secs(60)).at_most(7),
            |_| tick(),
        );
        assert_eq!(capped.done.len(), 7);
    }
}
