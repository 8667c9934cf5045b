//! The content-addressed analysis cache.
//!
//! Key = Keccak-256 over (Keccak-256 of the runtime bytecode ‖ the
//! [`ethainter::Config`] fingerprint ‖ [`ethainter::ANALYZER_VERSION`]).
//! Value = the contract's [`driver::Status`] (verdicts, fact counts,
//! lint diagnostics) plus the wall-clock cost of the original analysis.
//!
//! Persistence is an **append-only JSONL segment file** with an
//! in-memory index rebuilt on open: every [`ResultStore::put`] appends
//! one record and flushes, so a crash can lose at most the final,
//! partially-written line — which [`ResultStore::open`] detects and
//! truncates away before appending resumes. Within a segment the *last*
//! record for a key wins (append-only updates never rewrite history).
//!
//! Only deterministic statuses are cached: [`driver::Status::Analyzed`]
//! and [`driver::Status::DecompileFailed`] are pure functions of
//! (bytecode, config, analyzer version), while `TimedOut` and
//! `Panicked` depend on wall-clock budgets and should be retried, not
//! replayed — [`ResultStore::put`] silently drops them.

use driver::Status;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The segment file inside a cache directory.
const SEGMENT_FILE: &str = "segment.jsonl";
/// Cumulative hit/miss counters, rewritten after each scan.
const STATS_FILE: &str = "stats.json";

/// A 256-bit content address for one (bytecode, config, analyzer)
/// triple.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey(pub [u8; 32]);

impl CacheKey {
    /// Lowercase hex form (the on-disk and display encoding).
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses the 64-char lowercase hex form.
    pub fn from_hex(s: &str) -> Result<CacheKey, String> {
        if s.len() != 64 {
            return Err(format!("cache key must be 64 hex chars, got {}", s.len()));
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|e| format!("bad cache key hex: {e}"))?;
        }
        Ok(CacheKey(out))
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Computes the content address of an analysis result: hash of the
/// runtime bytecode, the config fingerprint, and the analyzer version
/// tag, combined with a second Keccak so no ingredient can bleed into
/// another's byte range.
pub fn cache_key(bytecode: &[u8], config: &ethainter::Config) -> CacheKey {
    let code_hash = evm::keccak256(bytecode);
    let mut material = Vec::with_capacity(64 + ethainter::ANALYZER_VERSION.len());
    material.extend_from_slice(&code_hash);
    material.extend_from_slice(&config.fingerprint());
    material.extend_from_slice(ethainter::ANALYZER_VERSION.as_bytes());
    CacheKey(evm::keccak256(&material))
}

/// One cached analysis result.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedResult {
    /// The (deterministic) per-contract status.
    pub status: Status,
    /// Wall-clock milliseconds the original analysis took — the work a
    /// hit saves, kept so warm-scan reports can state it.
    pub elapsed_ms: u64,
}

/// On-disk segment record: a [`CachedResult`] under its hex key.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SegmentRecord {
    key: String,
    status: Status,
    elapsed_ms: u64,
}

/// Cumulative counters persisted in the cache directory (`stats.json`)
/// and surfaced by `ethainter cache stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistentStats {
    /// Lookups answered from the cache, over the directory's lifetime.
    pub hits: u64,
    /// Lookups that missed, over the directory's lifetime.
    pub misses: u64,
}

/// A point-in-time view of a store (for reporting).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Distinct keys in the index.
    pub entries: usize,
    /// Bytes in the append-only segment file.
    pub segment_bytes: u64,
    /// Hits since this store was opened.
    pub session_hits: u64,
    /// Misses since this store was opened.
    pub session_misses: u64,
    /// Lifetime hits (previous sessions + this one).
    pub total_hits: u64,
    /// Lifetime misses (previous sessions + this one).
    pub total_misses: u64,
}

impl CacheStats {
    /// Session hit rate in `[0, 1]`; `0.0` before any lookup.
    pub fn session_hit_rate(&self) -> f64 {
        let total = self.session_hits + self.session_misses;
        if total == 0 {
            0.0
        } else {
            self.session_hits as f64 / total as f64
        }
    }
}

/// The content-addressed result store: in-memory index over an
/// append-only segment file.
pub struct ResultStore {
    dir: PathBuf,
    index: HashMap<CacheKey, CachedResult>,
    writer: BufWriter<File>,
    segment_bytes: u64,
    session_hits: u64,
    session_misses: u64,
    prior: PersistentStats,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir`, replaying the
    /// segment into the in-memory index. A truncated final line — the
    /// signature of a crash mid-append — is cut off; any earlier
    /// malformed line is reported as corruption instead of silently
    /// skipped.
    pub fn open(dir: impl AsRef<Path>) -> Result<ResultStore, String> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating cache dir {}: {e}", dir.display()))?;
        let segment_path = dir.join(SEGMENT_FILE);
        let mut index = HashMap::new();
        let mut valid_bytes = 0u64;
        if segment_path.exists() {
            let text = std::fs::read_to_string(&segment_path)
                .map_err(|e| format!("reading {}: {e}", segment_path.display()))?;
            let (records, valid) = parse_jsonl_prefix::<SegmentRecord>(&text)
                .map_err(|e| format!("corrupt cache segment {}: {e}", segment_path.display()))?;
            valid_bytes = valid as u64;
            for r in records {
                let key = CacheKey::from_hex(&r.key)
                    .map_err(|e| format!("corrupt cache segment: {e}"))?;
                index.insert(key, CachedResult { status: r.status, elapsed_ms: r.elapsed_ms });
            }
            if (valid_bytes as usize) < text.len() {
                // Crash-truncated tail: cut the segment back to the valid
                // prefix so future appends start on a line boundary.
                let file = OpenOptions::new()
                    .write(true)
                    .open(&segment_path)
                    .map_err(|e| format!("opening {}: {e}", segment_path.display()))?;
                file.set_len(valid_bytes)
                    .map_err(|e| format!("truncating {}: {e}", segment_path.display()))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&segment_path)
            .map_err(|e| format!("opening {}: {e}", segment_path.display()))?;
        let prior: PersistentStats = match std::fs::read_to_string(dir.join(STATS_FILE)) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
            Err(_) => PersistentStats::default(),
        };
        Ok(ResultStore {
            dir,
            index,
            writer: BufWriter::new(file),
            segment_bytes: valid_bytes,
            session_hits: 0,
            session_misses: 0,
            prior,
        })
    }

    /// Looks up a key, counting the hit or miss — both in the store's
    /// own persistent stats and in the global telemetry registry
    /// (`ethainter_cache_{hits,misses}_total`), so `--metrics-out`
    /// surfaces cache temperature without a second accounting path.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedResult> {
        match self.index.get(key) {
            Some(hit) => {
                self.session_hits += 1;
                telemetry::metrics::counter("ethainter_cache_hits_total").inc();
                Some(hit.clone())
            }
            None => {
                self.session_misses += 1;
                telemetry::metrics::counter("ethainter_cache_misses_total").inc();
                None
            }
        }
    }

    /// Inserts a result: appends one segment record and flushes it, then
    /// updates the index. Non-deterministic statuses (`TimedOut`,
    /// `Panicked`) are dropped — they must be retried, not replayed.
    pub fn put(&mut self, key: CacheKey, result: CachedResult) -> Result<(), String> {
        match result.status {
            Status::TimedOut | Status::Panicked { .. } => return Ok(()),
            Status::Analyzed { .. } | Status::DecompileFailed { .. } => {}
        }
        // Cached statuses must be pure functions of (bytecode, config,
        // analyzer version): strip the wall-clock phase timings so the
        // segment bytes — and every warm replay — are deterministic.
        let result = CachedResult {
            status: result.status.verdict_only(),
            elapsed_ms: result.elapsed_ms,
        };
        let record = SegmentRecord {
            key: key.to_hex(),
            status: result.status.clone(),
            elapsed_ms: result.elapsed_ms,
        };
        let line = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("appending cache segment: {e}"))?;
        self.segment_bytes += line.len() as u64 + 1;
        self.index.insert(key, result);
        Ok(())
    }

    /// Distinct keys in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current statistics (session + lifetime).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.index.len(),
            segment_bytes: self.segment_bytes,
            session_hits: self.session_hits,
            session_misses: self.session_misses,
            total_hits: self.prior.hits + self.session_hits,
            total_misses: self.prior.misses + self.session_misses,
        }
    }

    /// Per-status entry counts (`analyzed` / `decompile_failed`), for
    /// `ethainter cache stats`.
    pub fn status_breakdown(&self) -> (usize, usize) {
        let mut analyzed = 0;
        let mut failed = 0;
        for r in self.index.values() {
            match r.status {
                Status::Analyzed { .. } => analyzed += 1,
                Status::DecompileFailed { .. } => failed += 1,
                Status::TimedOut | Status::Panicked { .. } => {}
            }
        }
        (analyzed, failed)
    }

    /// Folds the session counters into `stats.json` so `cache stats`
    /// can report lifetime hit rates across runs. Idempotent per
    /// session: counters move from "session" to "prior".
    pub fn persist_stats(&mut self) -> Result<(), String> {
        self.prior.hits += self.session_hits;
        self.prior.misses += self.session_misses;
        self.session_hits = 0;
        self.session_misses = 0;
        let text = serde_json::to_string_pretty(&self.prior).map_err(|e| e.to_string())?;
        std::fs::write(self.dir.join(STATS_FILE), text)
            .map_err(|e| format!("writing cache stats: {e}"))
    }
}

/// Parses a JSONL buffer, tolerating exactly one truncated *final*
/// line: returns the parsed records and the byte length of the valid
/// prefix. A malformed line anywhere else is an error.
pub(crate) fn parse_jsonl_prefix<T: serde::Deserialize>(
    text: &str,
) -> Result<(Vec<T>, usize), String> {
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        let complete = line.ends_with('\n');
        if body.is_empty() {
            offset += line.len();
            if complete {
                valid = offset;
            }
            continue;
        }
        match serde_json::from_str::<T>(body) {
            Ok(record) if complete => {
                records.push(record);
                offset += line.len();
                valid = offset;
            }
            // A parseable but unterminated final line is still suspect
            // (the trailing newline never made it to disk); drop it like
            // a truncated one so the rewrite starts on a clean boundary.
            Ok(_) => break,
            Err(e) if !complete => {
                // Truncated tail — expected after a crash; drop it.
                let _ = e;
                break;
            }
            Err(e) => {
                return Err(format!("malformed record at byte {offset}: {e}"));
            }
        }
    }
    Ok((records, valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethainter::FactCounts;

    fn analyzed(findings: usize) -> Status {
        Status::Analyzed {
            findings,
            composite: 0,
            blocks: 2,
            stmts: 5,
            rounds: 0, // cached statuses are verdict projections
            facts: FactCounts::default(),
            lint: Vec::new(),
            timings: ethainter::PhaseTimings::default(),
            witness: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ethainter-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_depend_on_every_ingredient() {
        let cfg = ethainter::Config::default();
        let k1 = cache_key(b"\x60\x00", &cfg);
        let k2 = cache_key(b"\x60\x01", &cfg);
        assert_ne!(k1, k2, "bytecode must change the key");
        let alt = ethainter::Config { optimize_ir: false, ..cfg };
        assert_ne!(k1, cache_key(b"\x60\x00", &alt), "config must change the key");
        assert_eq!(k1, cache_key(b"\x60\x00", &cfg), "equal inputs, equal key");
        let hex = k1.to_hex();
        assert_eq!(CacheKey::from_hex(&hex).unwrap(), k1);
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp_dir("reopen");
        let key = cache_key(b"code", &ethainter::Config::default());
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert!(store.get(&key).is_none());
            store
                .put(key, CachedResult { status: analyzed(3), elapsed_ms: 17 })
                .unwrap();
            assert_eq!(store.get(&key).unwrap().status, analyzed(3));
            store.persist_stats().unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let hit = store.get(&key).unwrap();
        assert_eq!(hit.status, analyzed(3));
        assert_eq!(hit.elapsed_ms, 17);
        let stats = store.stats();
        assert_eq!(stats.session_hits, 1);
        assert_eq!(stats.total_misses, 1, "first run's miss persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_segment_repaired() {
        let dir = tmp_dir("trunc");
        let key_a = cache_key(b"a", &ethainter::Config::default());
        let key_b = cache_key(b"b", &ethainter::Config::default());
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.put(key_a, CachedResult { status: analyzed(1), elapsed_ms: 1 }).unwrap();
            store.put(key_b, CachedResult { status: analyzed(2), elapsed_ms: 2 }).unwrap();
        }
        // Simulate a crash mid-append: chop the last record in half.
        let seg = dir.join(SEGMENT_FILE);
        let text = std::fs::read_to_string(&seg).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&seg, &text[..cut]).unwrap();

        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "only the intact record survives");
        assert!(store.get(&key_a).is_some());
        assert!(store.get(&key_b).is_none());
        // The segment was repaired: appending after the cut must yield a
        // cleanly parseable file again.
        store.put(key_b, CachedResult { status: analyzed(2), elapsed_ms: 2 }).unwrap();
        drop(store);
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(&key_b).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterministic_statuses_are_not_cached() {
        let dir = tmp_dir("nondet");
        let mut store = ResultStore::open(&dir).unwrap();
        let key = cache_key(b"t", &ethainter::Config::default());
        store.put(key, CachedResult { status: Status::TimedOut, elapsed_ms: 9 }).unwrap();
        store
            .put(key, CachedResult { status: Status::Panicked { message: "m".into() }, elapsed_ms: 9 })
            .unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let dir = tmp_dir("corrupt");
        let seg = dir.join(SEGMENT_FILE);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&seg, "not json at all\n{\"also\": \"wrong shape\"}\n").unwrap();
        assert!(ResultStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
