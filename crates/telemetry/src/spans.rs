//! Span-based structured tracing.
//!
//! A [`span`] opens a named, timed region; dropping (or explicitly
//! finishing) the returned [`SpanGuard`] records a [`SpanRecord`] into
//! a bounded global ring buffer. Nesting is tracked per thread: the
//! guard stashes the previous "current span" id on construction and
//! restores it on drop, so `parent` links form a forest even across
//! concurrent worker threads (each thread keeps its own stack).
//!
//! The collector is deliberately bounded ([`set_span_capacity`],
//! default 4096 records): telemetry must never grow without limit
//! during a million-contract scan. What happens when the buffer fills
//! depends on whether a **span writer** is installed:
//!
//! - no writer (the default): the oldest records are evicted — recent
//!   history is what an operator dumping a post-mortem trace wants;
//! - writer installed ([`install_span_writer`]): the full buffer is
//!   serialized to the writer as a JSONL batch and cleared, so a
//!   long-running exporter (`--trace-out`, the server's job traces)
//!   streams span batches incrementally and **never loses a span** —
//!   however far past the ring capacity a run grows.

use crate::trace::TraceId;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span, as stored in the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// Process-unique span id (monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// The trace (job) this span was recorded under; [`TraceId::NONE`]
    /// outside any installed [`crate::trace::TraceContext`].
    pub trace: TraceId,
    /// Static span name, e.g. `"ethainter.fixpoint"`.
    pub name: String,
    /// Start offset in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

struct Collector {
    buf: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
    flushed: u64,
    writer: Option<Box<dyn Write + Send>>,
}

impl Collector {
    /// Serializes every buffered span to the installed writer (oldest
    /// first) and clears the buffer. Records that fail to write are
    /// counted as dropped — an exporter whose disk filled up must not
    /// wedge the analysis pipeline.
    fn flush_to_writer(&mut self) -> usize {
        let Some(writer) = self.writer.as_mut() else { return 0 };
        let mut written = 0usize;
        for rec in self.buf.drain(..) {
            let line = serde_json::to_string(&rec).expect("span serializes");
            match writer.write_all(line.as_bytes()).and_then(|_| writer.write_all(b"\n")) {
                Ok(()) => written += 1,
                Err(_) => self.dropped += 1,
            }
        }
        let _ = writer.flush();
        self.flushed += written as u64;
        written
    }
}

fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| {
        Mutex::new(Collector {
            buf: VecDeque::new(),
            capacity: 4096,
            dropped: 0,
            flushed: 0,
            writer: None,
        })
    })
}

/// Locks the collector, shrugging off poisoning: spans record from
/// sandbox threads that may panic mid-span, and the buffer is only
/// ever mutated through complete push/drain operations.
fn lock_collector() -> std::sync::MutexGuard<'static, Collector> {
    collector().lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CURRENT_TRACE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current span id on this thread (0 when no span is open) — what a
/// [`crate::trace::TraceContext`] captures as its `parent_span`.
pub(crate) fn current_span() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Replaces the thread's current span id, returning the previous value.
pub(crate) fn set_current_span(id: u64) -> u64 {
    CURRENT.with(|c| c.replace(id))
}

/// The raw trace id installed on this thread (0 = none).
pub(crate) fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Replaces the thread's trace id, returning the previous value.
pub(crate) fn set_current_trace(id: u64) -> u64 {
    CURRENT_TRACE.with(|c| c.replace(id))
}

/// An open span; records itself into the global collector when dropped
/// or [finished](SpanGuard::finish_us).
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    prev: u64,
    trace: u64,
    name: &'static str,
    started: Instant,
    start_us: u64,
}

/// Opens a span named `name`, nested under the thread's current span
/// and tagged with the thread's installed trace id (if any — see
/// [`crate::trace::install`]).
pub fn span(name: &'static str) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    let trace = CURRENT_TRACE.with(|c| c.get());
    let started = Instant::now();
    let start_us = started.duration_since(epoch()).as_micros() as u64;
    SpanGuard { id, prev, trace, name, started, start_us }
}

impl SpanGuard {
    /// Closes the span, records it, and returns its duration in
    /// microseconds — the hook that feeds `PhaseTimings` fields.
    pub fn finish_us(self) -> u64 {
        let us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // Drop runs next and records with the same clock; remember the
        // value so the record and the returned duration agree exactly.
        self.record(us);
        std::mem::forget(self);
        us
    }

    fn record(&self, dur_us: u64) {
        CURRENT.with(|c| c.set(self.prev));
        let rec = SpanRecord {
            id: self.id,
            parent: self.prev,
            trace: TraceId(self.trace),
            name: self.name.to_string(),
            start_us: self.start_us,
            dur_us,
        };
        // Copy into the per-trace store first (it has its own lock and
        // an atomic fast path when nothing is retained).
        crate::trace::sink_record(&rec);
        let mut c = lock_collector();
        if c.buf.len() >= c.capacity {
            if c.writer.is_some() {
                // Streaming mode: flush the whole batch downstream
                // instead of evicting — no span is ever lost.
                c.flush_to_writer();
            } else {
                c.buf.pop_front();
                c.dropped += 1;
            }
        }
        c.buf.push_back(rec);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.record(us);
    }
}

/// Caps the ring buffer at `capacity` records, evicting the oldest if
/// already over. A capacity of 0 effectively disables span collection.
pub fn set_span_capacity(capacity: usize) {
    let mut c = lock_collector();
    c.capacity = capacity;
    while c.buf.len() > capacity {
        c.buf.pop_front();
        c.dropped += 1;
    }
}

/// Installs a streaming span writer: from now on, a full buffer is
/// serialized to `w` as a JSONL batch instead of evicting the oldest
/// record, so no span is lost however long the process runs. Replaces
/// any previously installed writer (after flushing the current buffer
/// to it, so its output stays complete).
pub fn install_span_writer(w: Box<dyn Write + Send>) {
    let mut c = lock_collector();
    c.flush_to_writer();
    c.writer = Some(w);
}

/// Flushes all currently buffered spans to the installed writer.
/// Returns the number of records written (0 when no writer is
/// installed — buffered spans stay put for [`take_spans`]).
pub fn flush_spans() -> usize {
    lock_collector().flush_to_writer()
}

/// Flushes remaining buffered spans, uninstalls the writer, and
/// returns it so the caller can close it (dropping a `File` writer
/// closes the file). The collector reverts to bounded-ring mode.
pub fn remove_span_writer() -> Option<Box<dyn Write + Send>> {
    let mut c = lock_collector();
    c.flush_to_writer();
    c.writer.take()
}

/// Records streamed to a writer since process start, across all
/// writers ever installed.
pub fn spans_flushed() -> u64 {
    lock_collector().flushed
}

/// Records lost since process start: ring evictions in writer-less
/// mode plus any records a writer failed to persist.
pub fn spans_dropped() -> u64 {
    lock_collector().dropped
}

/// Drains and returns all buffered spans (oldest first).
pub fn take_spans() -> Vec<SpanRecord> {
    let mut c = lock_collector();
    c.buf.drain(..).collect()
}

/// Drains the buffer and renders one JSON object per line (JSONL),
/// oldest span first — the export format for `--trace-out`.
pub fn spans_jsonl() -> String {
    let mut out = String::new();
    for rec in take_spans() {
        out.push_str(&serde_json::to_string(&rec).expect("span serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share one global collector, and `take_spans` drains
    // it wholesale — two tests draining concurrently would steal each
    // other's records. Serialize them behind one lock.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_parent_child_on_one_thread() {
        let _g = guard();
        let outer = span("test.outer_xq");
        let inner = span("test.inner_xq");
        drop(inner);
        drop(outer);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.name == "test.outer_xq").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner_xq").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.dur_us <= outer.dur_us);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _g = guard();
        let outer = span("test.parent_sib");
        let a = span("test.sib_a");
        drop(a);
        let b = span("test.sib_b");
        drop(b);
        drop(outer);
        let spans = take_spans();
        let outer = spans.iter().find(|s| s.name == "test.parent_sib").unwrap();
        let a = spans.iter().find(|s| s.name == "test.sib_a").unwrap();
        let b = spans.iter().find(|s| s.name == "test.sib_b").unwrap();
        assert_eq!(a.parent, outer.id);
        assert_eq!(b.parent, outer.id);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn finish_us_returns_duration_and_records() {
        let _lk = guard();
        let g = span("test.finish_us");
        let us = g.finish_us();
        let spans = take_spans();
        let rec = spans.iter().find(|s| s.name == "test.finish_us").unwrap();
        assert_eq!(rec.dur_us, us);
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let _g = guard();
        drop(span("test.jsonl_a"));
        drop(span("test.jsonl_b"));
        let text = spans_jsonl();
        let mine: Vec<&str> =
            text.lines().filter(|l| l.contains("test.jsonl_")).collect();
        assert_eq!(mine.len(), 2);
        for line in mine {
            let v = serde_json::parse(line).unwrap();
            assert!(v.get("id").is_some());
            assert!(v.get("dur_us").is_some());
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest_when_full() {
        let _g = guard();
        take_spans();
        set_span_capacity(3);
        for name in
            ["test.rb_1", "test.rb_2", "test.rb_3", "test.rb_4", "test.rb_5"]
        {
            // A fixed set of static names keeps `span` happy without a
            // leak; each drop pushes one record.
            drop(span(name));
        }
        let spans = take_spans();
        set_span_capacity(4096);
        assert_eq!(spans.len(), 3);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["test.rb_3", "test.rb_4", "test.rb_5"]);
    }
}
