//! A thread-safe, single-flight view of the result cache.
//!
//! [`ResultStore`] is single-writer by construction (`&mut self` on
//! every lookup, one append-only segment writer). Server mode needs the
//! opposite shape: many worker threads answering overlapping requests
//! out of **one** cache directory. [`SharedCache`] wraps the store in a
//! mutex and adds the property the concurrency actually requires:
//! **single-flight computation**. When N threads ask for the same key
//! at once, exactly one runs the analysis; the rest block on a condvar
//! and are answered from the cache the moment the runner inserts — so a
//! burst of identical submissions costs one fresh analysis, not N.
//!
//! The analysis itself runs *outside* the lock: only the index probe,
//! the in-flight claim, and the final insert are serialized, so
//! distinct keys analyze concurrently with no coordination beyond the
//! brief map accesses.
//!
//! Hit/miss accounting flows through the wrapped store unchanged, which
//! means the global telemetry counters
//! (`ethainter_cache_{hits,misses}_total`) tick live under concurrent
//! load — the `/metrics` endpoint reports cache temperature in real
//! time, and a waiter answered by a runner's insert is correctly
//! counted as a hit.

use crate::cache::{CacheKey, CacheStats, CachedResult, ResultStore};
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};

struct Inner {
    store: ResultStore,
    /// Keys currently being computed by some thread. An entry here is a
    /// promise that the runner will insert (or give up) and notify.
    in_flight: HashSet<CacheKey>,
}

/// A mutex-protected [`ResultStore`] with single-flight
/// [`get_or_compute`](SharedCache::get_or_compute) — the cache shape
/// `ethainter serve` workers share.
pub struct SharedCache {
    inner: Mutex<Inner>,
    woken: Condvar,
}

/// What [`SharedCache::get_or_compute`] did for one request.
#[derive(Debug)]
pub struct GetOrCompute {
    /// The result — cached or freshly computed.
    pub result: CachedResult,
    /// True when *this* call ran the computation; false for a cache hit
    /// (including hits satisfied by another thread's concurrent run).
    pub fresh: bool,
    /// Set when the fresh result could not be appended to the segment.
    /// The result itself is still valid — persistence failure must not
    /// fail the request that computed it.
    pub put_error: Option<String>,
}

/// Removes the in-flight claim even if the computation unwinds, so a
/// panicking analysis can never strand waiters on the condvar.
struct InFlightClaim<'a> {
    cache: &'a SharedCache,
    key: CacheKey,
}

impl Drop for InFlightClaim<'_> {
    fn drop(&mut self) {
        let mut g = self.cache.lock();
        g.in_flight.remove(&self.key);
        self.cache.woken.notify_all();
    }
}

impl SharedCache {
    /// Opens (creating if needed) the cache directory, exactly like
    /// [`ResultStore::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<SharedCache, String> {
        Ok(SharedCache {
            inner: Mutex::new(Inner {
                store: ResultStore::open(dir)?,
                in_flight: HashSet::new(),
            }),
            woken: Condvar::new(),
        })
    }

    /// Locks the inner state, shrugging off poisoning: the store is only
    /// mutated through complete `get`/`put` calls, and a worker panic
    /// (already contained by the driver sandbox) must not take the cache
    /// down for every other request.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A plain counted lookup (no single-flight claim).
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedResult> {
        self.lock().store.get(key)
    }

    /// A plain insert (no single-flight bookkeeping). Nondeterministic
    /// statuses are dropped, as in [`ResultStore::put`].
    pub fn insert(&self, key: CacheKey, result: CachedResult) -> Result<(), String> {
        self.lock().store.put(key, result)
    }

    /// Answers `key` from the cache, or runs `compute` **exactly once**
    /// across all concurrent callers with the same key.
    ///
    /// The first thread to miss claims the key and computes outside the
    /// lock; threads arriving meanwhile block until the runner inserts,
    /// then re-probe and hit. If the computed status is
    /// nondeterministic (timeout/panic — never cached), waiters re-probe,
    /// still miss, and the next one becomes a runner: retry semantics,
    /// matching [`ResultStore::put`]'s refusal to replay such results.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> CachedResult,
    ) -> GetOrCompute {
        {
            let mut g = self.lock();
            loop {
                if let Some(hit) = g.store.get(&key) {
                    return GetOrCompute { result: hit, fresh: false, put_error: None };
                }
                if g.in_flight.insert(key) {
                    break; // we are the runner; the miss above is ours
                }
                // Another thread is computing this key: wait for its
                // insert, then re-probe. (The extra miss a waiter counts
                // before sleeping is honest — it did probe and miss.)
                g = self.woken.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        let claim = InFlightClaim { cache: self, key };
        let result = compute();
        let put_error = self.lock().store.put(key, result.clone()).err();
        drop(claim); // release + notify only after the insert is visible
        GetOrCompute { result, fresh: true, put_error }
    }

    /// Current statistics of the wrapped store.
    pub fn stats(&self) -> CacheStats {
        self.lock().store.stats()
    }

    /// Per-status entry counts (`analyzed` / `decompile_failed`).
    pub fn status_breakdown(&self) -> (usize, usize) {
        self.lock().store.status_breakdown()
    }

    /// Distinct keys in the index.
    pub fn len(&self) -> usize {
        self.lock().store.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock().store.is_empty()
    }

    /// Folds session counters into the directory's persistent stats —
    /// the graceful-shutdown flush.
    pub fn persist_stats(&self) -> Result<(), String> {
        self.lock().store.persist_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;
    use driver::Status;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ethainter-shared-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn analyzed(findings: usize) -> Status {
        Status::Analyzed {
            findings,
            composite: 0,
            blocks: 1,
            stmts: 1,
            rounds: 0, // cached statuses are verdict projections
            facts: ethainter::FactCounts::default(),
            lint: Vec::new(),
            timings: ethainter::PhaseTimings::default(),
            witness: None,
        }
    }

    #[test]
    fn second_call_hits_without_recomputing() {
        let dir = tmp_dir("twice");
        let cache = SharedCache::open(&dir).unwrap();
        let key = cache_key(b"\x00", &ethainter::Config::default());
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            CachedResult { status: analyzed(2), elapsed_ms: 5 }
        };
        let first = cache.get_or_compute(key, compute);
        assert!(first.fresh);
        assert!(first.put_error.is_none());
        let second = cache.get_or_compute(key, || unreachable!("must hit"));
        assert!(!second.fresh);
        assert_eq!(second.result.status, analyzed(2));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterministic_results_are_returned_but_not_replayed() {
        let dir = tmp_dir("nondet");
        let cache = SharedCache::open(&dir).unwrap();
        let key = cache_key(b"\x01", &ethainter::Config::default());
        let r = cache.get_or_compute(key, || CachedResult {
            status: Status::TimedOut,
            elapsed_ms: 1,
        });
        assert!(r.fresh);
        assert_eq!(r.result.status, Status::TimedOut);
        // The next caller recomputes — a timeout must be retried.
        let r2 = cache.get_or_compute(key, || CachedResult {
            status: analyzed(0),
            elapsed_ms: 2,
        });
        assert!(r2.fresh, "timeouts are never replayed from cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_compute_does_not_strand_waiters() {
        let dir = tmp_dir("panic");
        let cache = Arc::new(SharedCache::open(&dir).unwrap());
        let key = cache_key(b"\x02", &ethainter::Config::default());
        let c = Arc::clone(&cache);
        let t = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_compute(key, || panic!("analysis blew up"))
            }));
        });
        t.join().unwrap();
        // The claim guard released the key — this call must not block.
        let r = cache.get_or_compute(key, || CachedResult {
            status: analyzed(1),
            elapsed_ms: 3,
        });
        assert!(r.fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
