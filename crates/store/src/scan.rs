//! The scan orchestrator: streams a [`ContractSource`] through the
//! batch driver with the optional result cache and checkpoint log in
//! the loop. It is the one streaming batch loop: `ethainter batch`
//! runs every scan through it, with or without a checkpoint.
//!
//! Per contract, in stream order:
//!
//! 1. **resume filter** — if the checkpoint (when there is one) already
//!    holds an outcome for this index, skip it entirely (no decompile,
//!    no cache lookup);
//! 2. **cache lookup** — a hit materializes the outcome for free and is
//!    recorded immediately;
//! 3. **fresh analysis** — misses accumulate into a bounded chunk that
//!    runs through [`driver::analyze_batch`] (full parallelism, timeout,
//!    and panic isolation), after which each outcome is recorded,
//!    cached, and handed to the sink.
//!
//! Memory is bounded by the chunk size plus the cache index — never by
//! the population. With a checkpoint, every recorded outcome is flushed
//! to its log line-by-line before the scan advances, so a kill at any
//! point leaves a valid, resumable prefix; without one, nothing is
//! recorded on disk and the sink is the only consumer.

use crate::cache::{cache_key, CacheKey, CachedResult, ResultStore};
use crate::checkpoint::Checkpoint;
use crate::source::ContractSource;
use driver::{DriverConfig, Outcome, Status};
use std::time::{Duration, Instant};

/// A cache miss queued for a driver run: (global index, id, code) plus
/// the precomputed cache key and the µs its derivation + lookup took,
/// when caching is on.
type PendingItem = (usize, String, Vec<u8>, Option<CacheKey>, u64);

/// Stamps the scanner-side `cache_lookup_us` phase onto an analyzed
/// status and re-derives `total_us`, keeping the
/// `total_us == phase_sum()` invariant after the last phase lands.
fn stamp_cache_lookup(status: &mut Status, lookup_us: u64) {
    if let Status::Analyzed { timings, .. } = status {
        timings.cache_lookup_us = lookup_us;
        timings.stamp_total();
    }
}

/// Scan policy: driver settings, analysis config, chunking, and an
/// optional record budget for this invocation.
pub struct Scanner<'a> {
    /// Parallelism and per-contract isolation budget.
    pub driver: DriverConfig,
    /// Analysis configuration (also the config half of cache keys).
    pub analysis: ethainter::Config,
    /// Contracts resident at once on the fresh-analysis path.
    pub chunk: usize,
    /// Stop after recording this many outcomes in this invocation
    /// (cache hits included, resume-skips excluded). `None` = run to
    /// stream exhaustion. This is how the CI smoke job "interrupts" a
    /// scan deterministically.
    pub limit: Option<usize>,
    /// The content-addressed result cache, when enabled.
    pub cache: Option<&'a mut ResultStore>,
}

/// What one scan invocation did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Contracts seen in the stream (including skipped ones).
    pub seen: usize,
    /// Contracts skipped because the checkpoint already had them.
    pub skipped_completed: usize,
    /// Outcomes materialized from the cache.
    pub cache_hits: usize,
    /// Outcomes computed by fresh analysis.
    pub fresh: usize,
    /// Source items that could not be read (`Err` from the source);
    /// they are reported to the sink's error channel by the CLI, not
    /// recorded as outcomes.
    pub source_errors: usize,
    /// True when `limit` stopped the scan before stream exhaustion.
    pub interrupted: bool,
    /// Wall-clock time of this invocation.
    pub wall: Duration,
}

impl ScanSummary {
    /// Outcomes recorded this invocation (hits + fresh).
    pub fn recorded(&self) -> usize {
        self.cache_hits + self.fresh
    }
}

impl Default for Scanner<'_> {
    fn default() -> Self {
        Scanner {
            driver: DriverConfig::default(),
            analysis: ethainter::Config::default(),
            chunk: 64,
            limit: None,
            cache: None,
        }
    }
}

impl Scanner<'_> {
    /// Runs the scan: every contract the stream yields ends up with
    /// exactly one recorded outcome (this run or a previous one), unless
    /// `limit` interrupts first. `sink` observes each outcome recorded
    /// *this* run, in recording order; `on_source_error` observes
    /// unreadable source items. With no `checkpoint` there is no resume
    /// filter and nothing is logged.
    pub fn scan<S: ContractSource>(
        &mut self,
        source: S,
        mut checkpoint: Option<&mut Checkpoint>,
        mut sink: impl FnMut(&Outcome),
        mut on_source_error: impl FnMut(String),
    ) -> Result<ScanSummary, String> {
        let started = Instant::now();
        let chunk_size = self.chunk.max(1);
        let mut summary = ScanSummary::default();
        let mut pending: Vec<PendingItem> = Vec::new();

        for (i, item) in source.enumerate() {
            // Checked only once the stream has yielded another item, so
            // a stream that ends exactly at the limit is complete.
            if self.limit_reached(&summary, pending.len()) {
                summary.interrupted = true;
                break;
            }
            summary.seen += 1;
            let item = match item {
                Ok(item) => item,
                Err(e) => {
                    summary.source_errors += 1;
                    on_source_error(e);
                    continue;
                }
            };
            if checkpoint.as_deref().is_some_and(|cp| cp.is_completed(i)) {
                summary.skipped_completed += 1;
                continue;
            }
            // Key derivation + index probe is its own timed phase
            // (`cache_lookup_us`), charged to the outcome whether the
            // probe hits (the whole cost of a warm replay) or misses
            // (overhead on top of the fresh analysis).
            let mut lookup_us = 0u64;
            let key = match self.cache.as_deref_mut() {
                Some(cache) => {
                    let sp_lookup = telemetry::span("store.cache_lookup");
                    let key = cache_key(&item.bytecode, &self.analysis);
                    let hit = cache.get(&key);
                    lookup_us = sp_lookup.finish_us();
                    if let Some(hit) = hit {
                        let mut status = hit.status;
                        stamp_cache_lookup(&mut status, lookup_us);
                        let outcome = Outcome {
                            index: i,
                            id: item.id,
                            status,
                            elapsed_ms: hit.elapsed_ms,
                        };
                        if let Some(cp) = checkpoint.as_deref_mut() {
                            cp.record(&outcome)?;
                        }
                        sink(&outcome);
                        summary.cache_hits += 1;
                        continue;
                    }
                    Some(key)
                }
                None => None,
            };
            pending.push((i, item.id, item.bytecode, key, lookup_us));
            if pending.len() >= chunk_size {
                self.flush(&mut pending, &mut checkpoint, &mut summary, &mut sink)?;
            }
        }
        if !pending.is_empty() {
            self.flush(&mut pending, &mut checkpoint, &mut summary, &mut sink)?;
        }
        if let Some(cache) = self.cache.as_deref_mut() {
            cache.persist_stats()?;
        }
        summary.wall = started.elapsed();
        Ok(summary)
    }

    /// True when this invocation's record budget is exhausted — counting
    /// queued misses, so the scan stops pulling exactly at the limit
    /// instead of overshooting by a chunk.
    fn limit_reached(&self, summary: &ScanSummary, pending: usize) -> bool {
        match self.limit {
            Some(limit) => summary.recorded() + pending >= limit,
            None => false,
        }
    }

    /// Runs the queued misses through the driver, then records, caches,
    /// and emits each outcome at its global index.
    fn flush(
        &mut self,
        pending: &mut Vec<PendingItem>,
        checkpoint: &mut Option<&mut Checkpoint>,
        summary: &mut ScanSummary,
        sink: &mut impl FnMut(&Outcome),
    ) -> Result<(), String> {
        let batch: Vec<(usize, Option<CacheKey>, u64)> =
            pending.iter().map(|(i, _, _, key, us)| (*i, *key, *us)).collect();
        let items: Vec<(String, Vec<u8>)> = std::mem::take(pending)
            .into_iter()
            .map(|(_, id, code, _, _)| (id, code))
            .collect();
        let report = driver::analyze_batch(items, &self.driver, &self.analysis);
        debug_assert_eq!(report.outcomes.len(), batch.len());
        for (mut outcome, (global, key, lookup_us)) in report.outcomes.into_iter().zip(batch) {
            outcome.index = global;
            if key.is_some() {
                stamp_cache_lookup(&mut outcome.status, lookup_us);
            }
            if let Some(cp) = checkpoint.as_deref_mut() {
                cp.record(&outcome)?;
            }
            if let (Some(cache), Some(key)) = (self.cache.as_deref_mut(), key) {
                cache.put(
                    key,
                    CachedResult {
                        status: outcome.status.clone(),
                        elapsed_ms: outcome.elapsed_ms,
                    },
                )?;
            }
            sink(&outcome);
            summary.fresh += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Manifest;
    use crate::source::MemorySource;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ethainter-scan-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Trivial single-opcode contracts: fast to analyze, distinct keys.
    fn items(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n).map(|i| (format!("c{i}"), vec![0x60, i as u8, 0x00])).collect()
    }

    #[test]
    fn scan_records_every_contract_once() {
        let dir = tmp_dir("all");
        let mut cp =
            Checkpoint::create(&dir, Manifest::new(&ethainter::Config::default(), "m".into()))
                .unwrap();
        let mut scanner = Scanner { chunk: 3, ..Scanner::default() };
        let mut emitted = Vec::new();
        let summary = scanner
            .scan(MemorySource::new(items(8)), Some(&mut cp), |o| emitted.push(o.index), |_| {})
            .unwrap();
        assert_eq!(summary.seen, 8);
        assert_eq!(summary.fresh, 8);
        assert_eq!(summary.recorded(), 8);
        assert!(!summary.interrupted);
        assert_eq!(cp.completed_count(), 8);
        emitted.sort_unstable();
        assert_eq!(emitted, (0..8).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn limit_interrupts_exactly_and_resume_finishes() {
        let dir = tmp_dir("limit");
        let manifest = Manifest::new(&ethainter::Config::default(), "m".into());
        {
            let mut cp = Checkpoint::create(&dir, manifest.clone()).unwrap();
            let mut scanner =
                Scanner { chunk: 2, limit: Some(5), ..Scanner::default() };
            let summary = scanner
                .scan(MemorySource::new(items(12)), Some(&mut cp), |_| {}, |_| {})
                .unwrap();
            assert!(summary.interrupted);
            assert_eq!(summary.recorded(), 5, "stops exactly at the limit");
        }
        // A limit equal to the stream length records everything and is
        // not an interruption.
        let exact = Scanner { chunk: 2, limit: Some(12), ..Scanner::default() }
            .scan(MemorySource::new(items(12)), None, |_| {}, |_| {})
            .unwrap();
        assert!(!exact.interrupted, "a stream ending at the limit is complete");
        assert_eq!(exact.recorded(), 12);
        let mut cp = Checkpoint::resume(&dir, &manifest).unwrap();
        assert_eq!(cp.preloaded(), 5);
        let mut scanner = Scanner { chunk: 4, ..Scanner::default() };
        let summary = scanner
            .scan(MemorySource::new(items(12)), Some(&mut cp), |_| {}, |_| {})
            .unwrap();
        assert_eq!(summary.skipped_completed, 5);
        assert_eq!(summary.fresh, 7);
        assert_eq!(cp.completed_count(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_rescan_is_all_cache_hits() {
        let cache_dir = tmp_dir("warm-cache");
        let mut cache = ResultStore::open(&cache_dir).unwrap();
        let manifest = Manifest::new(&ethainter::Config::default(), "m".into());

        let cold_dir = tmp_dir("warm-cold");
        let mut cp = Checkpoint::create(&cold_dir, manifest.clone()).unwrap();
        let mut scanner =
            Scanner { chunk: 4, cache: Some(&mut cache), ..Scanner::default() };
        let cold = scanner
            .scan(MemorySource::new(items(10)), Some(&mut cp), |_| {}, |_| {})
            .unwrap();
        assert_eq!(cold.fresh, 10);
        assert_eq!(cold.cache_hits, 0);
        let cold_merged = cp.merged_verdicts_jsonl();

        let warm_dir = tmp_dir("warm-warm");
        let mut cp2 = Checkpoint::create(&warm_dir, manifest).unwrap();
        let mut scanner =
            Scanner { chunk: 4, cache: Some(&mut cache), ..Scanner::default() };
        let warm = scanner
            .scan(MemorySource::new(items(10)), Some(&mut cp2), |_| {}, |_| {})
            .unwrap();
        assert_eq!(warm.fresh, 0, "warm re-run performs zero fresh analyses");
        assert_eq!(warm.cache_hits, 10);
        assert_eq!(cp2.merged_verdicts_jsonl(), cold_merged, "hits replay identical verdicts");

        let stats = cache.stats();
        assert_eq!(stats.total_hits, 10);
        assert_eq!(stats.total_misses, 10);
        for d in [cache_dir, cold_dir, warm_dir] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn source_errors_are_counted_not_fatal() {
        struct Flaky(usize);
        impl Iterator for Flaky {
            type Item = Result<crate::source::SourceContract, String>;
            fn next(&mut self) -> Option<Self::Item> {
                self.0 += 1;
                match self.0 {
                    1 => Some(Ok(crate::source::SourceContract {
                        id: "ok".into(),
                        bytecode: vec![0x00],
                    })),
                    2 => Some(Err("unreadable".into())),
                    _ => None,
                }
            }
        }
        impl ContractSource for Flaky {
            fn descriptor(&self) -> String {
                "flaky".into()
            }
        }
        let mut errors = Vec::new();
        let summary =
            Scanner::default().scan(Flaky(0), None, |_| {}, |e| errors.push(e)).unwrap();
        assert_eq!(summary.source_errors, 1);
        assert_eq!(summary.fresh, 1);
        assert_eq!(errors, vec!["unreadable".to_string()]);
    }
}
