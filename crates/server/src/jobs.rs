//! Job identity and lifecycle tracking.
//!
//! Every accepted submission gets a monotonically assigned [`JobId`]
//! and a [`JobRecord`] in the [`Registry`], moving through exactly one
//! path: `Queued → Running → Done`. The registry is the single source
//! of truth `GET /jobs/<id>` reads. Completed records are retained so a
//! poller that comes back late still finds its verdict — but only up to
//! a bound (`max_done`, default 65,536): a week-long daemon must not grow
//! without limit, so the oldest `Done` records are FIFO-evicted beyond
//! the bound (counted in `ethainter_server_jobs_evicted_total`) and a
//! `GET` on an evicted id answers `410 Gone` rather than `404` — the
//! job existed, its record aged out.

use driver::Outcome;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// A server-assigned job identifier; rendered as 16 lowercase hex
/// digits (`000000000000002a`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl JobId {
    /// Parses the 16-hex-digit display form.
    pub fn parse(s: &str) -> Result<JobId, String> {
        if s.len() != 16 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!("job id must be 16 hex digits, got `{s}`"));
        }
        u64::from_str_radix(s, 16).map(JobId).map_err(|e| e.to_string())
    }
}

/// Where one job is in its lifecycle.
//
// `Done` dwarfs the transient states, but every record ends there and
// stays there — boxing the payload would cost an allocation per job to
// shrink states that exist only for milliseconds.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker; analysis in progress.
    Running {
        /// Milliseconds the job spent queued before a worker took it.
        wait_ms: u64,
    },
    /// Finished — the terminal state.
    Done {
        /// The full per-contract result record (verdicts, fact counts,
        /// timings, optional witness), identical in shape to a batch
        /// outcome line.
        outcome: Outcome,
        /// True when the verdict came from the shared cache.
        cached: bool,
        /// Milliseconds spent queued.
        wait_ms: u64,
        /// Milliseconds from acceptance to completion.
        total_ms: u64,
    },
}

/// One tracked job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The server-assigned id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    submitted: Instant,
}

/// Counts of jobs per lifecycle state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs accepted but not yet claimed.
    pub queued: u64,
    /// Jobs a worker is currently analyzing.
    pub running: u64,
    /// Jobs in the terminal state (still retained).
    pub done: u64,
}

/// What the registry knows about an id — the three-way answer behind
/// `GET /jobs/<id>`'s 200 / 410 / 404 split.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// The job is tracked; here is its record (boxed: a `Done` record
    /// carries a full outcome, and the marker variants carry nothing).
    Found(Box<JobRecord>),
    /// The job completed but its record aged out of the `Done` bound.
    Evicted,
    /// No such job was ever accepted (or its eviction marker also
    /// aged out).
    Unknown,
}

/// Eviction markers kept so a 410 stays distinguishable from a 404; a
/// second-tier bound so even the markers cannot grow forever.
const MAX_EVICTED_MARKERS: usize = 65_536;

#[derive(Default)]
struct Inner {
    jobs: HashMap<u64, JobRecord>,
    /// Completion order of retained `Done` records, oldest first.
    done_order: VecDeque<u64>,
    /// Ids whose `Done` record was evicted (bounded separately).
    evicted: HashSet<u64>,
    evicted_order: VecDeque<u64>,
    /// Jobs ever completed, eviction-proof (feeds the drain report).
    completed_total: u64,
}

/// Job ids are allocated from one counter for the whole process: the
/// per-trace span store is process-global, so a second server in the
/// same process (tests, embedders running several daemons) must never
/// reuse an id whose spans an earlier server left behind.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

/// The job table shared by acceptors and workers.
pub struct Registry {
    max_done: usize,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(Registry::DEFAULT_MAX_DONE)
    }
}

impl Registry {
    /// Default bound on retained `Done` records (`--max-done`). A cache
    /// hit completes in about 1 ms, so a busy daemon finishes thousands
    /// of jobs a second; the bound keeps a late poller's verdict for tens
    /// of seconds at that rate.
    pub const DEFAULT_MAX_DONE: usize = 65_536;

    /// An empty registry retaining at most `max_done` completed
    /// records (min 1). Its ids continue the process-wide sequence.
    pub fn new(max_done: usize) -> Registry {
        Registry {
            max_done: max_done.max(1),
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Allocates an id and records the job as queued.
    pub fn create(&self) -> JobId {
        let id = JobId(NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed));
        self.lock().jobs.insert(
            id.0,
            JobRecord { id, state: JobState::Queued, submitted: Instant::now() },
        );
        id
    }

    /// Forgets a job whose enqueue was refused (it was never really
    /// accepted, so it must not linger as eternally `Queued`).
    pub fn forget(&self, id: JobId) {
        self.lock().jobs.remove(&id.0);
    }

    /// Marks a job running; returns the time it spent queued (ms).
    pub fn mark_running(&self, id: JobId) -> u64 {
        let mut g = self.lock();
        let Some(rec) = g.jobs.get_mut(&id.0) else { return 0 };
        let wait_ms = rec.submitted.elapsed().as_millis() as u64;
        rec.state = JobState::Running { wait_ms };
        wait_ms
    }

    /// Records the terminal state; returns acceptance-to-completion ms.
    /// Beyond the `max_done` bound the oldest retained `Done` record is
    /// evicted: removed from the table (its per-trace spans discarded),
    /// marked so lookups answer `Evicted`, and counted.
    pub fn complete(&self, id: JobId, outcome: Outcome, cached: bool) -> u64 {
        let mut g = self.lock();
        let Some(rec) = g.jobs.get_mut(&id.0) else { return 0 };
        let total_ms = rec.submitted.elapsed().as_millis() as u64;
        let wait_ms = match rec.state {
            JobState::Running { wait_ms } => wait_ms,
            _ => 0,
        };
        rec.state = JobState::Done { outcome, cached, wait_ms, total_ms };
        g.completed_total += 1;
        g.done_order.push_back(id.0);
        while g.done_order.len() > self.max_done {
            let Some(old) = g.done_order.pop_front() else { break };
            if g.jobs.remove(&old).is_none() {
                continue; // already forgotten some other way
            }
            telemetry::trace::discard(telemetry::trace::TraceId(old));
            telemetry::metrics::counter("ethainter_server_jobs_evicted_total").inc();
            if g.evicted.insert(old) {
                g.evicted_order.push_back(old);
                while g.evicted_order.len() > MAX_EVICTED_MARKERS {
                    if let Some(stale) = g.evicted_order.pop_front() {
                        g.evicted.remove(&stale);
                    }
                }
            }
        }
        total_ms
    }

    /// A snapshot of one job (`None` for unknown *and* evicted ids —
    /// use [`lookup`](Registry::lookup) to tell them apart).
    pub fn get(&self, id: JobId) -> Option<JobRecord> {
        self.lock().jobs.get(&id.0).cloned()
    }

    /// The three-way answer for one id: found, evicted, or unknown.
    pub fn lookup(&self, id: JobId) -> Lookup {
        let g = self.lock();
        if let Some(rec) = g.jobs.get(&id.0) {
            Lookup::Found(Box::new(rec.clone()))
        } else if g.evicted.contains(&id.0) {
            Lookup::Evicted
        } else {
            Lookup::Unknown
        }
    }

    /// How many jobs are in each state (evicted records not counted).
    pub fn counts(&self) -> JobCounts {
        let g = self.lock();
        let mut c = JobCounts::default();
        for rec in g.jobs.values() {
            match rec.state {
                JobState::Queued => c.queued += 1,
                JobState::Running { .. } => c.running += 1,
                JobState::Done { .. } => c.done += 1,
            }
        }
        c
    }

    /// Jobs ever completed, unaffected by eviction — what the shutdown
    /// report's `jobs_done` means.
    pub fn completed_total(&self) -> u64 {
        self.lock().completed_total
    }

    /// True when every accepted job has reached the terminal state —
    /// the post-drain invariant graceful shutdown asserts.
    pub fn all_done(&self) -> bool {
        let c = self.counts();
        c.queued == 0 && c.running == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::Status;

    fn outcome(id: &str) -> Outcome {
        Outcome {
            index: 0,
            id: id.to_string(),
            status: Status::DecompileFailed { reason: "x".into() },
            elapsed_ms: 1,
        }
    }

    #[test]
    fn lifecycle_and_counts() {
        let reg = Registry::default();
        let a = reg.create();
        let b = reg.create();
        assert_ne!(a, b);
        assert_eq!(reg.counts(), JobCounts { queued: 2, running: 0, done: 0 });
        assert!(!reg.all_done());

        reg.mark_running(a);
        assert_eq!(reg.counts(), JobCounts { queued: 1, running: 1, done: 0 });
        reg.complete(a, outcome("a"), false);
        reg.mark_running(b);
        reg.complete(b, outcome("b"), true);
        assert_eq!(reg.counts(), JobCounts { queued: 0, running: 0, done: 2 });
        assert!(reg.all_done());
        assert_eq!(reg.completed_total(), 2);

        match reg.get(b).unwrap().state {
            JobState::Done { cached, .. } => assert!(cached),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn ids_round_trip_through_display() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "000000000000002a");
        assert_eq!(JobId::parse("000000000000002a").unwrap(), id);
        assert!(JobId::parse("2a").is_err());
        assert!(JobId::parse("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn refused_jobs_are_forgotten() {
        let reg = Registry::default();
        let id = reg.create();
        reg.forget(id);
        assert!(reg.get(id).is_none());
        assert!(reg.all_done());
    }

    #[test]
    fn done_records_evict_fifo_beyond_the_bound() {
        let reg = Registry::new(2);
        let ids: Vec<JobId> = (0..4).map(|_| reg.create()).collect();
        for id in &ids {
            reg.mark_running(*id);
            reg.complete(*id, outcome(&id.to_string()), false);
        }
        // The two oldest aged out; the two newest are still readable.
        assert!(matches!(reg.lookup(ids[0]), Lookup::Evicted));
        assert!(matches!(reg.lookup(ids[1]), Lookup::Evicted));
        assert!(matches!(reg.lookup(ids[2]), Lookup::Found(_)));
        assert!(matches!(reg.lookup(ids[3]), Lookup::Found(_)));
        assert!(matches!(reg.lookup(JobId(0xdead_beef)), Lookup::Unknown));
        assert_eq!(reg.counts().done, 2);
        // Eviction never forgets how many jobs actually finished.
        assert_eq!(reg.completed_total(), 4);
        // Queued/Running records are untouchable: only `Done` ages out.
        let live = reg.create();
        assert!(matches!(reg.lookup(live), Lookup::Found(_)));
    }
}
