//! # telemetry — spans, metrics, and progress for the ethainter pipeline
//!
//! A zero-external-dependency observability layer shared by every crate
//! in the workspace. Three independent pieces:
//!
//! - [`span`] / [`SpanGuard`] — structured tracing. A span is a named,
//!   timed region of code; guards nest via a thread-local stack so each
//!   span records its parent, and completed spans land in a bounded
//!   global ring buffer exportable as JSONL ([`spans_jsonl`]) — or, with
//!   a streaming writer installed ([`install_span_writer`]), flushed
//!   downstream batch-by-batch whenever the buffer fills, so arbitrarily
//!   long runs (`--trace-out`, `ethainter serve`) lose no spans. Spans
//!   *subsume* the per-phase stopwatch (`PhaseTimings`): the pipeline
//!   times each phase by opening a span and stamping
//!   [`SpanGuard::finish_us`] into the matching timings field, so the
//!   trace and the timings can never disagree.
//! - [`metrics`] — a global registry of named counters, gauges, and
//!   log-bucketed histograms (power-of-two buckets, p50/p90/p99
//!   estimates). All instruments are lock-free atomics, so the batch
//!   driver's workers aggregate into the same registry without coordination.
//!   Snapshots export as JSON ([`metrics::Snapshot::to_json`]) and
//!   Prometheus text exposition format
//!   ([`metrics::Snapshot::to_prometheus`]).
//! - [`progress`] — a throttled, single-line stderr heartbeat for long
//!   batch runs (done/total, throughput, ETA) that auto-disables when
//!   stderr is not a TTY so CI logs never see `\r` control characters.
//! - [`trace`] — job-scoped correlation across thread boundaries. A
//!   [`trace::TraceContext`] captured before a thread hop and
//!   re-installed on the far side makes every span carry the id of the
//!   job that caused it; a bounded per-trace store ([`trace::retain`] /
//!   [`trace::spans_for`]) keeps each retained job's *complete* span
//!   set independent of the lossy global ring, and
//!   [`trace::build_tree`] assembles it into a self-time-annotated
//!   forest (`GET /jobs/<id>/trace`, `ethainter trace`).
//! - [`events`] — a bounded structured event bus (severity + message +
//!   trace id + numeric fields) with monotone sequence numbers and a
//!   condvar long-poll ([`events::wait_events_since`]) — the feed
//!   behind `GET /events?since=<seq>` and the slow-job log.
//!
//! Metric names follow `ethainter_<subsystem>_<what>[_<unit>][_total]`
//! (Prometheus conventions): counters end in `_total`, durations carry
//! a `_us`/`_ms` unit suffix, and the subsystem is the crate that owns
//! the instrument (`cache`, `scan`, `phase`, ...).

#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod progress;
mod spans;
pub mod trace;

pub use progress::Progress;
pub use spans::{
    flush_spans, install_span_writer, remove_span_writer, set_span_capacity,
    span, spans_dropped, spans_flushed, spans_jsonl, take_spans, SpanGuard,
    SpanRecord,
};
