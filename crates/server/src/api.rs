//! The JSON wire types of the daemon — and of every CLI surface that
//! mirrors them.
//!
//! These structs are the *contract*: `POST /jobs` deserializes
//! [`JobRequest`], `GET /jobs/<id>` serializes [`JobStatusBody`], and
//! `ethainter cache stats --json` prints the very same
//! [`CacheStatsBody`] the daemon serves at `GET /cache/stats` — one
//! schema, two transports, so tooling written against either keeps
//! working against both.

use driver::Outcome;
use serde::{Deserialize, Serialize};
use store::CacheStats;

/// Body of `POST /jobs`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct JobRequest {
    /// Runtime bytecode as hex, with or without a `0x` prefix.
    pub bytecode: String,
    /// Optional client-chosen label echoed back in the outcome's `id`
    /// field; defaults to the server-assigned job id.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub id: Option<String>,
    /// Optional per-job analysis configuration overrides.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub config: Option<ConfigPatch>,
}

/// Per-job overrides on the daemon's base [`ethainter::Config`]. Every
/// field is optional; omitted fields inherit the server default. Field
/// names mirror the CLI flags (`guards: false` ≙ `--no-guards`).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Guard-aware sanitization modeling (`false` ≙ `--no-guards`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub guards: Option<bool>,
    /// Storage taint propagation (`false` ≙ `--no-storage`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub storage: Option<bool>,
    /// Conservative storage model (`true` ≙ `--conservative`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub conservative: Option<bool>,
    /// Attach taint-provenance witnesses to findings (`--witness`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub witness: Option<bool>,
}

impl ConfigPatch {
    /// Applies the overrides to a base config.
    pub fn apply(&self, base: &ethainter::Config) -> Result<ethainter::Config, String> {
        let mut cfg = *base;
        if let Some(g) = self.guards {
            cfg.guard_modeling = g;
        }
        if let Some(s) = self.storage {
            cfg.storage_taint = s;
        }
        if let Some(true) = self.conservative {
            cfg.storage_model = ethainter::StorageModel::Conservative;
        }
        if let Some(w) = self.witness {
            cfg.witness = w;
        }
        Ok(cfg)
    }
}

/// Body of a successful `POST /jobs` (HTTP 202).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobAccepted {
    /// The server-assigned job id — poll `GET /jobs/<id>` with it.
    pub id: String,
    /// Always `"queued"` at acceptance.
    pub state: String,
}

/// Body of `GET /jobs/<id>`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobStatusBody {
    /// The job id.
    pub id: String,
    /// `"queued"`, `"running"`, or `"done"`.
    pub state: String,
    /// Present once running: milliseconds spent queued.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wait_ms: Option<u64>,
    /// Present once done: milliseconds from acceptance to completion.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub total_ms: Option<u64>,
    /// Present once done: whether the verdict came from the shared
    /// cache.
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cached: Option<bool>,
    /// Present once done: the full analysis report — the same
    /// [`driver::Outcome`] record a batch run writes per JSONL line
    /// (verdicts, fact counts, timings, optional witness).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub report: Option<Outcome>,
}

/// Body of `GET /healthz`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Health {
    /// `"ok"` while accepting, `"draining"` during graceful shutdown.
    pub status: String,
    /// Jobs accepted but not yet claimed by a worker.
    pub queued: u64,
    /// Jobs currently being analyzed.
    pub running: u64,
    /// Jobs finished since boot.
    pub done: u64,
    /// Analysis worker threads.
    pub workers: u64,
    /// Bound on the queue (`--queue-depth`).
    pub queue_capacity: u64,
    /// True when a shared result cache is configured.
    pub cache: bool,
}

/// Body of `GET /cache/stats` — and, verbatim, of
/// `ethainter cache stats --json`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CacheStatsBody {
    /// Distinct keys in the index.
    pub entries: u64,
    /// Entries whose status is `Analyzed`.
    pub analyzed: u64,
    /// Entries whose status is `DecompileFailed`.
    pub decompile_failed: u64,
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

impl CacheStatsBody {
    /// Builds the wire form from a store's point-in-time stats plus its
    /// per-status breakdown.
    pub fn new(stats: &CacheStats, analyzed: usize, decompile_failed: usize) -> CacheStatsBody {
        CacheStatsBody {
            entries: stats.entries as u64,
            analyzed: analyzed as u64,
            decompile_failed: decompile_failed as u64,
            segment_bytes: stats.segment_bytes,
            session_hits: stats.session_hits,
            session_misses: stats.session_misses,
            total_hits: stats.total_hits,
            total_misses: stats.total_misses,
        }
    }
}

/// Body of `GET /jobs/<id>/trace` — the job's span tree, assembled
/// from the per-trace span store ([`telemetry::trace`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceBody {
    /// The job id (== the trace id every span below carries).
    pub id: String,
    /// The job's lifecycle state at snapshot time: `"queued"`,
    /// `"running"`, or `"done"` — a trace fetched before `done` is a
    /// prefix of the final tree.
    pub state: String,
    /// Flat count of spans recorded under this trace so far.
    pub span_count: u64,
    /// The assembled span forest: roots in start order, each node with
    /// total and self time and its children nested.
    pub spans: Vec<telemetry::trace::SpanNode>,
}

/// Body of `GET /events[?since=<seq>]` — a page of the daemon's
/// structured event feed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EventsBody {
    /// The newest sequence number the bus has emitted; pass it back as
    /// `since` to long-poll for what comes next.
    pub latest: u64,
    /// Buffered events newer than `since`, oldest first.
    pub events: Vec<telemetry::events::Event>,
}

/// Body of every non-2xx response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable reason.
    pub error: String,
}

impl ErrorBody {
    /// Serializes `{"error": msg}`.
    pub fn json(msg: impl Into<String>) -> String {
        serde_json::to_string(&ErrorBody { error: msg.into() })
            .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_request_parses_with_and_without_optionals() {
        let min: JobRequest = serde_json::from_str(r#"{"bytecode":"0x6001"}"#).unwrap();
        assert_eq!(min.bytecode, "0x6001");
        assert!(min.id.is_none() && min.config.is_none());

        let full: JobRequest = serde_json::from_str(
            r#"{"bytecode":"00","id":"c1","config":{"guards":false,"witness":true}}"#,
        )
        .unwrap();
        assert_eq!(full.id.as_deref(), Some("c1"));
        let cfg = full.config.unwrap().apply(&ethainter::Config::default()).unwrap();
        assert!(!cfg.guard_modeling);
        assert!(cfg.witness);
    }

    #[test]
    fn retired_engine_key_is_ignored() {
        // Clients written against the two-engine daemon still parse: the
        // `engine` key is unknown now and ignored.
        let req: JobRequest =
            serde_json::from_str(r#"{"bytecode":"00","config":{"engine":"dense"}}"#).unwrap();
        let cfg = req.config.unwrap().apply(&ethainter::Config::default()).unwrap();
        assert_eq!(cfg, ethainter::Config::default());
    }

    #[test]
    fn job_status_omits_absent_fields() {
        let queued = JobStatusBody {
            id: "0000000000000001".into(),
            state: "queued".into(),
            wait_ms: None,
            total_ms: None,
            cached: None,
            report: None,
        };
        let s = serde_json::to_string(&queued).unwrap();
        assert!(!s.contains("report"), "absent fields must not serialize: {s}");
        let back: JobStatusBody = serde_json::from_str(&s).unwrap();
        assert_eq!(back.state, "queued");
    }
}
