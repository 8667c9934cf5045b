//! Concurrent cache sharing: many client threads submitting
//! overlapping bytecodes against **one** cache directory must produce
//! exactly one fresh analysis per unique key, with every duplicate
//! answered from the shared cache and the global
//! `ethainter_cache_hits_total` counter incrementing live.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use store::{cache_key, CachedResult, SharedCache};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ethainter-conc-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Real analyses through the real pipeline: 8 threads × 12 requests
/// over 4 unique bytecodes, all racing from a barrier. Exactly 4 fresh
/// analyses may happen, every thread must observe identical verdicts,
/// and the hit counter must have ticked for every deduplicated request.
#[test]
fn overlapping_submissions_compute_each_unique_key_once() {
    const THREADS: usize = 8;
    const UNIQUE: usize = 4;

    let dir = tmp_dir("overlap");
    let cache = Arc::new(SharedCache::open(&dir).unwrap());
    let config = ethainter::Config::default();

    // Distinct single-function contracts — tiny but real bytecode.
    let bytecodes: Vec<Vec<u8>> = (0..UNIQUE)
        .map(|i| {
            let src = format!(
                "contract C{i} {{ uint v; function set(uint a) public {{ v = a + 0x{i:x}; }} }}"
            );
            minisol::compile_source(&src).unwrap().bytecode
        })
        .collect();

    let fresh_runs: Arc<Mutex<HashMap<usize, usize>>> = Arc::default();
    let hits_before =
        telemetry::metrics::counter("ethainter_cache_hits_total").get();
    let barrier = Arc::new(Barrier::new(THREADS));
    let total_requests = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        let bytecodes = bytecodes.clone();
        let fresh_runs = Arc::clone(&fresh_runs);
        let barrier = Arc::clone(&barrier);
        let total_requests = Arc::clone(&total_requests);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut observed = Vec::new();
            // Each thread walks the keys three times, phase-shifted so
            // every thread contends on every key.
            for round in 0..3 {
                for i in 0..UNIQUE {
                    let which = (i + t + round) % UNIQUE;
                    let code = &bytecodes[which];
                    let key = cache_key(code, &config);
                    let out = cache.get_or_compute(key, || {
                        fresh_runs.lock().unwrap().entry(which).and_modify(|n| *n += 1).or_insert(1);
                        let status = driver::analyze_one(code, &config);
                        CachedResult { status, elapsed_ms: 0 }
                    });
                    assert!(out.put_error.is_none(), "{:?}", out.put_error);
                    total_requests.fetch_add(1, Ordering::SeqCst);
                    observed.push((
                        which,
                        serde_json::to_string(&out.result.status.verdict_only()).unwrap(),
                    ));
                }
            }
            observed
        }));
    }

    let mut verdicts: HashMap<usize, String> = HashMap::new();
    for h in handles {
        for (which, status_json) in h.join().unwrap() {
            match verdicts.entry(which) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(status_json);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(
                        e.get(),
                        &status_json,
                        "every observer of key {which} sees identical verdict bytes"
                    );
                }
            }
        }
    }

    let runs = fresh_runs.lock().unwrap();
    assert_eq!(runs.len(), UNIQUE, "every unique key was analyzed");
    for (which, n) in runs.iter() {
        assert_eq!(*n, 1, "key {which} must be analyzed exactly once, saw {n}");
    }
    assert_eq!(cache.len(), UNIQUE);

    // Every request beyond the UNIQUE fresh ones was a live hit on the
    // shared telemetry counter.
    let requests = total_requests.load(Ordering::SeqCst);
    assert_eq!(requests, THREADS * 3 * UNIQUE);
    let hits_after = telemetry::metrics::counter("ethainter_cache_hits_total").get();
    let hits = hits_after - hits_before;
    assert_eq!(
        hits as usize,
        requests - UNIQUE,
        "all {requests} requests minus {UNIQUE} fresh analyses must be counted hits"
    );

    // The segment survives reopening with all entries intact.
    drop(cache);
    let reopened = SharedCache::open(&dir).unwrap();
    assert_eq!(reopened.len(), UNIQUE);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinct keys must not serialize behind each other's computations:
/// with one slow key in flight, a different key completes while the
/// slow one is still running.
#[test]
fn distinct_keys_compute_concurrently() {
    let dir = tmp_dir("parallel");
    let cache = Arc::new(SharedCache::open(&dir).unwrap());
    let config = ethainter::Config::default();
    let slow_key = cache_key(b"\x00", &config);
    let fast_key = cache_key(b"\x01", &config);

    let slow_started = Arc::new(Barrier::new(2));
    let release_slow = Arc::new(Barrier::new(2));

    let c = Arc::clone(&cache);
    let (s1, r1) = (Arc::clone(&slow_started), Arc::clone(&release_slow));
    let slow = std::thread::spawn(move || {
        c.get_or_compute(slow_key, || {
            s1.wait(); // slow computation is definitely in flight…
            r1.wait(); // …and stays there until the fast one finished
            CachedResult { status: driver::analyze_one(b"\x00", &config), elapsed_ms: 0 }
        })
    });

    slow_started.wait();
    let fast = cache.get_or_compute(fast_key, || CachedResult {
        status: driver::analyze_one(b"\x01", &config),
        elapsed_ms: 0,
    });
    assert!(fast.fresh, "fast key computed while slow key was in flight");
    release_slow.wait();
    assert!(slow.join().unwrap().fresh);
    let _ = std::fs::remove_dir_all(&dir);
}
