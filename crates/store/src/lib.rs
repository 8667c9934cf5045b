//! # store — content-addressed results, streaming corpora, resume
//!
//! The persistence layer under the batch driver, closing the gap
//! between "analyze a population in memory" and the paper's
//! whole-chain-scale scans: work already done is never redone, inputs
//! never need to fit in RAM, and a killed scan continues where it
//! stopped.
//!
//! Three pieces, composable but independently usable:
//!
//! - [`cache`] — a **content-addressed analysis cache**. The key is
//!   Keccak-256 over (bytecode hash ‖ [`ethainter::Config::fingerprint`]
//!   ‖ [`ethainter::ANALYZER_VERSION`]); the value is the contract's
//!   [`driver::Status`]. Persisted as an append-only JSONL segment with
//!   an in-memory index: a re-run of an unchanged scan is pure O(1)
//!   lookups, and any config or analyzer change silently keys into
//!   fresh territory instead of replaying stale verdicts.
//! - [`source`] — the [`ContractSource`] streaming trait with adapters
//!   for in-memory lists, the [`corpus`] generator (one contract
//!   resident at a time), directories of hex files, JSONL manifests,
//!   and concatenations thereof. Each source carries a stable
//!   *descriptor* naming its stream.
//! - [`checkpoint`] — per-scan directories: a [`Manifest`] (analyzer
//!   version + config fingerprint + source descriptor, validated on
//!   resume), a line-flushed outcome log whose crash-torn tail is
//!   detected and repaired, and a deterministic index-sorted
//!   `merged.jsonl` of [`VerdictRecord`]s that is byte-identical
//!   whether a scan ran cold, warm, or interrupted-then-resumed.
//! - [`shared`] — a **thread-safe, single-flight** view of the cache
//!   ([`SharedCache`]) for concurrent consumers (`ethainter serve`
//!   workers): N simultaneous requests for the same key cost exactly
//!   one fresh analysis; everyone else blocks briefly and hits.
//!
//! [`scan::Scanner`] wires them together over [`driver::analyze_batch`]
//! with bounded memory (resume filter → cache lookup → chunked fresh
//! analysis).
//!
//! ## Example
//!
//! ```
//! use store::{Checkpoint, ContractSource, Manifest, MemorySource, Scanner};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = ethainter::Config::default();
//! let source = MemorySource::new(vec![("stop".into(), vec![0x00])]);
//! let manifest = Manifest::new(&config, source.descriptor());
//! let mut cp = Checkpoint::create(&dir, manifest).unwrap();
//! let summary = Scanner::default().scan(source, Some(&mut cp), |_| {}, |_| {}).unwrap();
//! assert_eq!(summary.recorded(), 1);
//! assert!(cp.is_completed(0));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod scan;
pub mod shared;
pub mod source;

pub use cache::{cache_key, CacheKey, CacheStats, CachedResult, ResultStore};
pub use shared::{GetOrCompute, SharedCache};
pub use checkpoint::{Checkpoint, Manifest, VerdictRecord};
pub use scan::{ScanSummary, Scanner};
pub use source::{
    parse_hex, ChainedSource, ContractSource, CorpusSource, MemorySource, SourceContract,
};

#[cfg(test)]
mod tests {
    use super::*;
    use driver::{DriverConfig, Outcome, Status};
    use std::time::Duration;

    /// Trivial contracts (a lone STOP), one per index.
    fn stops(n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n).map(|i| (format!("s{i}"), vec![0x00])).collect()
    }

    fn scanner(jobs: usize, chunk: usize) -> Scanner<'static> {
        let driver = DriverConfig { jobs, timeout: Duration::from_secs(10) };
        Scanner { driver, chunk, ..Scanner::default() }
    }

    #[test]
    fn stream_emits_global_indices_in_order_across_chunks() {
        // 11 contracts through chunk size 4 with no checkpoint: the sink
        // must observe global indices 0..11 in order, with the tail chunk
        // shorter than the rest.
        let mut seen: Vec<(usize, String)> = Vec::new();
        let summary = scanner(2, 4)
            .scan(
                MemorySource::new(stops(11)),
                None,
                |o| seen.push((o.index, o.id.clone())),
                |_| {},
            )
            .unwrap();
        assert_eq!((summary.seen, summary.fresh), (11, 11));
        assert!(!summary.interrupted);
        assert_eq!(seen.len(), 11);
        for (i, (idx, id)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(id, &format!("s{i}"));
        }
    }

    #[test]
    fn stream_summary_matches_batch_summary() {
        let mut scanner = scanner(1, 2);
        let batch = driver::analyze_batch(stops(6), &scanner.driver, &ethainter::Config::default());
        let mut streamed: Vec<Outcome> = Vec::new();
        let mut folded = driver::Summary::empty(scanner.driver.effective_jobs());
        scanner
            .scan(
                MemorySource::new(stops(6)),
                None,
                |o| {
                    folded.record(&o.status);
                    streamed.push(o.clone());
                },
                |_| {},
            )
            .unwrap();
        // elapsed_ms and per-phase timings legitimately differ between
        // runs; everything else must be identical.
        assert_eq!(streamed.len(), batch.outcomes.len());
        for (s, b) in streamed.iter().zip(&batch.outcomes) {
            assert_eq!(
                (s.index, &s.id, s.status.verdict_only()),
                (b.index, &b.id, b.status.verdict_only())
            );
            // Real analyses must uphold the derived-total invariant:
            // whoever stamps a phase last re-derives `total_us`.
            if let Status::Analyzed { timings, .. } = &s.status {
                assert_eq!(timings.total_us, timings.phase_sum());
            }
        }
        // `folded` was never finished: only the wall-clock fields differ.
        let b = driver::Summary { wall_ms: 0, contracts_per_sec_x1000: 0, ..batch.summary() };
        assert_eq!(folded, b);
    }
}
