//! The ISSUE acceptance criteria, end to end over a ≥500-contract
//! generated population:
//!
//! - a **kill-and-resume** scan (interrupted deterministically via the
//!   record limit, then resumed from the checkpoint directory) merges
//!   to byte-identical JSONL verdicts vs. an uninterrupted cold run;
//! - a **warm re-run** of the unchanged scan against the populated
//!   cache performs zero fresh analyses — every contract is a cache
//!   hit, and the store reports a 100% session hit rate.

use corpus::PopulationConfig;
use store::{Checkpoint, ContractSource, Manifest, ResultStore, Scanner};

const POPULATION: usize = 500;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ethainter-resume-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn population() -> PopulationConfig {
    PopulationConfig { size: POPULATION, seed: 0xC0FFEE, ..PopulationConfig::default() }
}

fn source() -> store::CorpusSource {
    store::CorpusSource::new(population())
}

fn scanner(cache: Option<&mut ResultStore>) -> Scanner<'_> {
    Scanner {
        // Generous budget so no template times out in debug builds —
        // timeouts are non-deterministic and would break byte-identity.
        driver: driver::DriverConfig { jobs: 0, timeout: std::time::Duration::from_secs(300) },
        chunk: 64,
        cache,
        ..Scanner::default()
    }
}

#[test]
fn interrupted_then_resumed_scan_matches_cold_run_over_500_contracts() {
    let manifest = Manifest::new(&ethainter::Config::default(), source().descriptor());

    // Uninterrupted cold run — the ground truth, cache enabled so the
    // warm-path assertions below run against a fully populated store.
    let cache_dir = tmp_dir("cache");
    let mut cache = ResultStore::open(&cache_dir).unwrap();
    let cold_dir = tmp_dir("cold");
    let mut cold_cp = Checkpoint::create(&cold_dir, manifest.clone()).unwrap();
    let cold = scanner(Some(&mut cache))
        .scan(source(), Some(&mut cold_cp), |_| {}, |_| {})
        .unwrap();
    assert_eq!(cold.seen, POPULATION);
    assert_eq!(cold.fresh, POPULATION, "cold run analyzes everything");
    assert_eq!(cold.cache_hits, 0);
    let cold_merged = cold_cp.merged_verdicts_jsonl();
    assert_eq!(cold_merged.lines().count(), POPULATION);

    // Interrupted run: no cache (every outcome must be recomputed, so
    // identity is a property of the analysis, not of replay), killed
    // deterministically at 200 records.
    let kill_dir = tmp_dir("killed");
    {
        let mut cp = Checkpoint::create(&kill_dir, manifest.clone()).unwrap();
        let partial = Scanner { limit: Some(200), ..scanner(None) }
            .scan(source(), Some(&mut cp), |_| {}, |_| {})
            .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.recorded(), 200, "limit interrupts exactly");
        // The checkpoint object is dropped here mid-scan — the "kill".
    }

    // Resume from the on-disk log alone and finish the stream.
    let mut cp = Checkpoint::resume(&kill_dir, &manifest).unwrap();
    assert_eq!(cp.preloaded(), 200, "resume replays the recorded prefix");
    let resumed = scanner(None).scan(source(), Some(&mut cp), |_| {}, |_| {}).unwrap();
    assert_eq!(resumed.skipped_completed, 200, "completed work is not redone");
    assert_eq!(resumed.fresh, POPULATION - 200);
    assert_eq!(cp.completed_count(), POPULATION);
    assert_eq!(
        cp.merged_verdicts_jsonl(),
        cold_merged,
        "interrupted+resumed merged verdicts are byte-identical to the cold run"
    );

    // Warm re-run of the unchanged scan: zero fresh analyses, 100%
    // session hit rate, and — again — byte-identical merged output.
    let warm_dir = tmp_dir("warm");
    let mut warm_cp = Checkpoint::create(&warm_dir, manifest).unwrap();
    let warm = scanner(Some(&mut cache))
        .scan(source(), Some(&mut warm_cp), |_| {}, |_| {})
        .unwrap();
    assert_eq!(warm.fresh, 0, "warm re-run performs zero fresh analyses");
    assert_eq!(warm.cache_hits, POPULATION, "every contract is a cache hit");
    assert_eq!(warm_cp.merged_verdicts_jsonl(), cold_merged);

    // The scan folds its session counters into the persisted lifetime
    // stats (what `ethainter cache stats` reports): the cold run's 500
    // misses plus the warm run's 500 hits — a 100% hit rate for the
    // warm invocation.
    let stats = cache.stats();
    assert_eq!(stats.entries, POPULATION);
    assert_eq!(stats.total_hits, POPULATION as u64);
    assert_eq!(stats.total_misses, POPULATION as u64);
    assert_eq!(warm.cache_hits, warm.recorded(), "100% hit rate on the warm run");

    for dir in [cache_dir, cold_dir, kill_dir, warm_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reopened_cache_survives_process_restart() {
    // Simulate a restart: populate the store, drop it, reopen from disk,
    // and warm-scan — the segment index alone must carry the hits. No
    // checkpoint: the cache is the only persistent state in play.
    let cache_dir = tmp_dir("restart-cache");
    let items: Vec<(String, Vec<u8>)> =
        (0..20).map(|i| (format!("c{i}"), vec![0x60, i as u8, 0x00])).collect();

    {
        let mut cache = ResultStore::open(&cache_dir).unwrap();
        let summary = scanner(Some(&mut cache))
            .scan(store::MemorySource::new(items.clone()), None, |_| {}, |_| {})
            .unwrap();
        assert_eq!(summary.fresh, 20);
    }

    let mut cache = ResultStore::open(&cache_dir).unwrap();
    assert_eq!(cache.len(), 20, "segment replay rebuilds the index");
    let summary = scanner(Some(&mut cache))
        .scan(store::MemorySource::new(items), None, |_| {}, |_| {})
        .unwrap();
    assert_eq!(summary.fresh, 0);
    assert_eq!(summary.cache_hits, 20);
    assert_eq!(cache.stats().total_misses, 20, "lifetime counters span the reopen");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn witness_mode_changes_no_persistent_artifact() {
    // `--witness` attaches provenance riders to live outcomes, but the
    // store strips them (with the timings) before anything persistent:
    // two scans of the same population, one with witnesses and one
    // without, must produce byte-identical merged verdicts AND
    // byte-identical cache segment files. Each scan gets its own cold
    // cache so the segments are written (not replayed) in both runs.
    let plain = ethainter::Config::default();
    let with_witness = ethainter::Config { witness: true, ..Default::default() };
    let pop = PopulationConfig { size: 40, seed: 0x817_AE55, ..PopulationConfig::default() };
    let src = || store::CorpusSource::new(pop);
    // Segment records carry the wall-clock `elapsed_ms` of the original
    // analysis, which legitimately varies between live runs — normalize
    // it so the comparison pins everything the witness flag could have
    // leaked (the status payloads) and nothing it couldn't (the clock).
    let segment = |dir: &std::path::Path| -> String {
        let text = std::fs::read_to_string(dir.join("segment.jsonl")).unwrap();
        text.lines()
            .map(|l| {
                let mut v: serde_json::Value = serde_json::from_str(l).unwrap();
                if let serde_json::Value::Object(fields) = &mut v {
                    for (k, val) in fields.iter_mut() {
                        if k == "elapsed_ms" {
                            *val = serde_json::Value::UInt(0);
                        }
                    }
                }
                serde_json::to_string(&v).unwrap()
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let plain_cache_dir = tmp_dir("wit-plain-cache");
    let plain_dir = tmp_dir("wit-plain");
    let mut plain_cache = ResultStore::open(&plain_cache_dir).unwrap();
    let mut cp =
        Checkpoint::create(&plain_dir, Manifest::new(&plain, src().descriptor())).unwrap();
    Scanner { analysis: plain, ..scanner(Some(&mut plain_cache)) }
        .scan(src(), Some(&mut cp), |_| {}, |_| {})
        .unwrap();
    let plain_verdicts = cp.merged_verdicts_jsonl();
    let plain_segment = segment(&plain_cache_dir);

    let wit_cache_dir = tmp_dir("wit-on-cache");
    let wit_dir = tmp_dir("wit-on");
    let mut wit_cache = ResultStore::open(&wit_cache_dir).unwrap();
    let mut cp2 =
        Checkpoint::create(&wit_dir, Manifest::new(&with_witness, src().descriptor())).unwrap();
    let mut saw_witness = false;
    Scanner { analysis: with_witness, ..scanner(Some(&mut wit_cache)) }
        .scan(
            src(),
            Some(&mut cp2),
            |o| {
                if let driver::Status::Analyzed { witness: Some(w), findings, .. } = &o.status {
                    saw_witness = true;
                    assert_eq!(w.len(), *findings, "one witness per finding");
                }
            },
            |_| {},
        )
        .unwrap();
    assert!(saw_witness, "the population must produce at least one witnessed finding");

    assert_eq!(cp2.merged_verdicts_jsonl(), plain_verdicts, "merged.jsonl is witness-blind");
    assert_eq!(segment(&wit_cache_dir), plain_segment, "cache segments are witness-blind");

    for d in [plain_cache_dir, plain_dir, wit_cache_dir, wit_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
