//! # driver — parallel batch analysis with per-contract isolation
//!
//! Fans the decompile → Datalog-fixpoint → detect pipeline across cores
//! and guarantees that **no input contract can take the batch down**: a
//! contract that loops gets a wall-clock timeout, a contract that
//! panics the analyzer gets contained, and every input produces exactly
//! one [`Outcome`] — in input order, regardless of scheduling.
//!
//! ## Architecture
//!
//! ```text
//!                        ┌────────────────────────────┐
//!   contracts ────────▶  │  shared queue (atomic idx) │
//!   (id, bytecode)       └──────────┬─────────────────┘
//!                                   │ claim next index
//!                 ┌─────────────────┼─────────────────┐
//!                 ▼                 ▼                 ▼
//!           ┌──────────┐     ┌──────────┐       ┌──────────┐
//!           │ worker 0 │     │ worker 1 │  ...  │ worker N │   (scoped)
//!           └────┬─────┘     └────┬─────┘       └────┬─────┘
//!                │ per contract: spawn + watch        │
//!                ▼                                    ▼
//!         ┌──────────────┐                     ┌──────────────┐
//!         │ sandbox      │  result ──▶ channel │ sandbox      │
//!         │ thread       │  ◀── recv_timeout   │ thread       │
//!         │ catch_unwind │      (watchdog)     │ catch_unwind │
//!         └──────────────┘                     └──────────────┘
//!                │                                    │
//!                ▼                                    ▼
//!        outcome slot [i]  ──── ordered by input index ────▶  Vec<Outcome>
//! ```
//!
//! Two thread layers, each for one isolation property:
//!
//! - **Workers** (one per `--jobs`) pull contract *indices* from an
//!   atomic counter — dynamic load balancing, so one slow contract
//!   doesn't idle the other cores behind a static partition.
//! - Each worker runs each contract on a fresh disposable **sandbox
//!   thread** and waits on a channel with [`mpsc::Receiver::recv_timeout`].
//!   On timeout the sandbox thread is *abandoned* (not killed — Rust has
//!   no safe thread kill): the worker records [`Status::TimedOut`] and
//!   moves on. Abandonment is safe because the sandbox owns all its
//!   state — and it is cheap because the analysis honors the cooperative
//!   deadline installed via [`ethainter::with_deadline`], so the
//!   abandoned thread exits at its next fixpoint-pass boundary instead
//!   of running to the round cap.
//!
//! Panics inside the sandbox are caught with
//! [`std::panic::catch_unwind`] and surface as [`Status::Panicked`]
//! with the panic message; the batch keeps going.
//!
//! The `datalog` engine's `Variable<T>` is `Rc<RefCell<..>>`-based and
//! deliberately `!Send`: fixpoint state can never leak across contract
//! boundaries, because each sandbox thread *must* construct its own
//! `Iteration` from scratch (see DESIGN.md §“Batch pipeline”).
//!
//! ## Example
//!
//! ```
//! use driver::{analyze_batch, DriverConfig};
//!
//! let src = "contract C { uint v; function set(uint a) public { v = a; } }";
//! let bytecode = minisol::compile_source(src).unwrap().bytecode;
//! let report = driver::analyze_batch(
//!     vec![("c".to_string(), bytecode)],
//!     &DriverConfig::default(),
//!     &ethainter::Config::default(),
//! );
//! assert_eq!(report.outcomes.len(), 1);
//! assert!(report.outcomes[0].status.is_analyzed());
//! ```

#![warn(missing_docs)]

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Batch execution settings (parallelism + isolation budget).
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Wall-clock budget per contract before it is recorded as
    /// [`Status::TimedOut`] and its sandbox thread abandoned.
    pub timeout: Duration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig { jobs: 0, timeout: Duration::from_secs(120) }
    }
}

impl DriverConfig {
    /// The worker count this config resolves to on this machine.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// What happened to one contract.
//
// `Analyzed` dwarfs the failure variants, but it is also the variant
// nearly every outcome holds, so boxing its payload would trade a
// once-per-batch size asymmetry for an allocation per contract.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// The pipeline completed; counts summarize the produced facts.
    Analyzed {
        /// Total findings reported.
        findings: usize,
        /// Findings whose taint path required a defeated guard
        /// (Ethainter's composite vulnerabilities).
        composite: usize,
        /// TAC blocks in the decompiled program.
        blocks: usize,
        /// TAC statements (the analysis' fact universe, after the IR
        /// passes when they are enabled).
        stmts: usize,
        /// Outer fixpoint rounds to convergence.
        rounds: usize,
        /// Per-relation Datalog fact counts at the fixpoint.
        facts: ethainter::FactCounts,
        /// IR-validator violations on the *raw* decompiler output
        /// (before any optimization pass). Empty for well-formed IR;
        /// non-empty entries are decompiler bugs surfaced per contract
        /// so batch runs can triage them without re-running.
        lint: Vec<String>,
        /// Per-phase wall-clock timings
        /// (decompile/passes/index-build/fixpoint/sink-scan).
        /// Observability only: present in the live `outcomes.jsonl`
        /// stream, but stripped by `crates/store` before anything
        /// equality-sensitive (cache entries, `merged.jsonl`).
        #[serde(default)]
        timings: ethainter::PhaseTimings,
        /// Source→sink provenance witnesses, one per finding — present
        /// only when the analysis ran with
        /// [`ethainter::Config::witness`] on. Like `timings`,
        /// observability riding on the verdicts: stripped by
        /// `crates/store` from cache entries and `merged.jsonl`, and
        /// serialized as *absent* (never `null`) when unset so
        /// witness-off and witness-stripped records are byte-identical.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        witness: Option<Vec<ethainter::Witness>>,
    },
    /// The wall-clock budget elapsed (or the analysis hit its internal
    /// deadline) before a fixpoint was reached.
    TimedOut,
    /// The analysis panicked; the message is the panic payload.
    Panicked {
        /// Stringified panic payload.
        message: String,
    },
    /// Decompilation gave up (budget exhausted / unresolved control
    /// flow), so no analysis was attempted.
    DecompileFailed {
        /// First decompiler warning, or a generic reason.
        reason: String,
    },
}

impl Status {
    /// True for [`Status::Analyzed`].
    pub fn is_analyzed(&self) -> bool {
        matches!(self, Status::Analyzed { .. })
    }

    /// Short machine-friendly tag, e.g. for summaries and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            Status::Analyzed { .. } => "analyzed",
            Status::TimedOut => "timed_out",
            Status::Panicked { .. } => "panicked",
            Status::DecompileFailed { .. } => "decompile_failed",
        }
    }

    /// The verdict projection — the one strip every deterministic
    /// artifact (result-cache entries, `merged.jsonl`) goes through:
    /// per-phase timings zeroed, provenance witnesses dropped, and
    /// `rounds` zeroed. Timings vary run to run, witnesses with the
    /// observability switch [`ethainter::Config::witness`], and `rounds`
    /// is a convergence-effort statistic, not a verdict.
    pub fn verdict_only(&self) -> Status {
        let mut s = self.clone();
        if let Status::Analyzed { rounds, timings, witness, .. } = &mut s {
            *rounds = 0;
            *timings = ethainter::PhaseTimings::default();
            *witness = None;
        }
        s
    }
}

/// Per-contract result record; one per input, in input order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outcome {
    /// Position of the contract in the input batch.
    pub index: usize,
    /// Caller-provided contract identifier (path, address, family…).
    pub id: String,
    /// What happened.
    pub status: Status,
    /// Wall-clock time spent on this contract, in milliseconds.
    pub elapsed_ms: u64,
}

/// Result of a whole batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per input contract, in input order.
    pub outcomes: Vec<Outcome>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// End-to-end wall-clock time for the batch.
    pub wall_time: Duration,
}

/// Aggregate counts for a [`BatchReport`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Contracts in the batch.
    pub total: usize,
    /// Completed analyses.
    pub analyzed: usize,
    /// Contracts cut off by the timeout.
    pub timed_out: usize,
    /// Contracts whose analysis panicked.
    pub panicked: usize,
    /// Contracts the decompiler gave up on.
    pub decompile_failed: usize,
    /// Total findings across completed analyses.
    pub findings: usize,
    /// Composite findings across completed analyses.
    pub composite: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Batch wall-clock time in milliseconds.
    pub wall_ms: u64,
    /// Contracts per second of wall-clock time (×1000, to stay
    /// integer-typed for the JSON shim).
    pub contracts_per_sec_x1000: u64,
}

impl Summary {
    /// Starts an empty summary for `jobs` workers (the incremental
    /// counterpart of [`BatchReport::summary`], used by streaming scans
    /// that never hold all outcomes in memory).
    pub fn empty(jobs: usize) -> Summary {
        Summary {
            total: 0,
            analyzed: 0,
            timed_out: 0,
            panicked: 0,
            decompile_failed: 0,
            findings: 0,
            composite: 0,
            jobs,
            wall_ms: 0,
            contracts_per_sec_x1000: 0,
        }
    }

    /// Folds one outcome's status into the counts.
    pub fn record(&mut self, status: &Status) {
        self.total += 1;
        match status {
            Status::Analyzed { findings, composite, .. } => {
                self.analyzed += 1;
                self.findings += findings;
                self.composite += composite;
            }
            Status::TimedOut => self.timed_out += 1,
            Status::Panicked { .. } => self.panicked += 1,
            Status::DecompileFailed { .. } => self.decompile_failed += 1,
        }
    }

    /// Stamps the batch wall-clock time and the derived throughput.
    pub fn finish(&mut self, wall_time: Duration) {
        self.wall_ms = wall_time.as_millis() as u64;
        let secs = wall_time.as_secs_f64();
        if secs > 0.0 {
            self.contracts_per_sec_x1000 = (self.total as f64 / secs * 1000.0) as u64;
        }
    }
}

impl BatchReport {
    /// Aggregates the outcomes into a [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut s = Summary::empty(self.jobs);
        for o in &self.outcomes {
            s.record(&o.status);
        }
        s.finish(self.wall_time);
        s
    }

    /// Serializes the outcomes as JSON Lines (one object per contract).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&serde_json::to_string(o).expect("outcome serializes"));
            out.push('\n');
        }
        out
    }
}

/// Result of one isolated run of caller-supplied work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Isolated<R> {
    /// The work finished within the budget and returned `R`.
    Completed(R),
    /// The wall-clock budget elapsed; the sandbox thread was abandoned.
    TimedOut,
    /// The work panicked; the message is the panic payload.
    Panicked {
        /// Stringified panic payload.
        message: String,
    },
}

/// One isolated result with identity and timing, at its input index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IsolatedOutcome<R> {
    /// Position of the item in the input batch.
    pub index: usize,
    /// Caller-provided item identifier.
    pub id: String,
    /// What the sandbox produced.
    pub result: Isolated<R>,
    /// Wall-clock time spent on this item, in milliseconds.
    pub elapsed_ms: u64,
}

/// All results of a generic isolated batch, in input order.
#[derive(Clone, Debug)]
pub struct IsolatedBatch<R> {
    /// One outcome per input item, in input order.
    pub results: Vec<IsolatedOutcome<R>>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// End-to-end wall-clock time for the batch.
    pub wall_time: Duration,
}

/// Runs `work` over every `(id, item)` pair with `cfg.jobs` workers,
/// a per-item wall-clock timeout, and panic containment — the generic
/// engine under [`analyze_batch`] and `bench`'s population scans.
///
/// The worker pool is a rayon thread pool sized to `cfg.jobs`; workers
/// claim items dynamically (work stealing), so one slow contract does
/// not idle the other cores behind a static partition. Each claimed
/// item then runs on a disposable sandbox thread under a
/// `recv_timeout` watchdog (see the crate docs for the two-layer
/// rationale).
///
/// Guarantees:
///
/// - exactly one [`IsolatedOutcome`] per input, at the input's index;
/// - a panicking item yields [`Isolated::Panicked`], others unaffected;
/// - an item exceeding `cfg.timeout` yields [`Isolated::TimedOut`] and
///   its sandbox thread is abandoned (cooperative deadlines inside
///   `work` make abandonment cheap — see [`ethainter::with_deadline`]).
pub fn run_isolated<T, R, F>(items: Vec<(String, T)>, cfg: &DriverConfig, work: F) -> IsolatedBatch<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let jobs = cfg.effective_jobs().min(n.max(1));
    let timeout = cfg.timeout;
    let work = Arc::new(work);
    // Each item is claimed exactly once by whichever worker reaches its
    // index, then *moved* into that item's sandbox thread (the sandbox
    // must own it: on timeout the thread is abandoned together with the
    // item). The pool's map is order-preserving, so results come back
    // at their input index whatever the scheduling.
    let indexed: Vec<(usize, String, Mutex<Option<T>>)> = items
        .into_iter()
        .enumerate()
        .map(|(i, (id, item))| (i, id, Mutex::new(Some(item))))
        .collect();
    let started = Instant::now();

    let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("worker pool");
    let results: Vec<IsolatedOutcome<R>> = pool.install(|| {
        indexed
            .par_iter()
            .map(|(i, id, cell)| {
                let item = cell.lock().unwrap().take().expect("index claimed exactly once");
                run_one(*i, id.clone(), item, timeout, &work)
            })
            .collect()
    });

    IsolatedBatch { results, jobs, wall_time: started.elapsed() }
}

/// Like [`run_isolated`], for work that classifies itself into a
/// [`Status`]: timeout/panic isolation results are folded into the same
/// enum, giving the flat per-contract records the JSONL output wants.
pub fn run_batch_with<T, F>(items: Vec<(String, T)>, cfg: &DriverConfig, work: F) -> BatchReport
where
    T: Send + 'static,
    F: Fn(T) -> Status + Send + Sync + 'static,
{
    let batch = run_isolated(items, cfg, work);
    BatchReport {
        outcomes: batch.results.into_iter().map(fold_outcome).collect(),
        jobs: batch.jobs,
        wall_time: batch.wall_time,
    }
}

/// Folds one isolated status run into a flat [`Outcome`], counting the
/// isolation layer's own verdicts (watchdog expiry, contained panic)
/// in the telemetry registry; the cooperative in-analysis paths count
/// themselves in [`analyze_one`]. Shared by the batch fold and the
/// single-job server path so both classify identically.
fn fold_outcome(o: IsolatedOutcome<Status>) -> Outcome {
    telemetry::metrics::histogram("ethainter_contract_elapsed_ms").observe(o.elapsed_ms);
    Outcome {
        index: o.index,
        id: o.id,
        status: match o.result {
            Isolated::Completed(status) => status,
            Isolated::TimedOut => {
                telemetry::metrics::counter("ethainter_contracts_timed_out_total").inc();
                Status::TimedOut
            }
            Isolated::Panicked { message } => {
                telemetry::metrics::counter("ethainter_contracts_panicked_total").inc();
                Status::Panicked { message }
            }
        },
        elapsed_ms: o.elapsed_ms,
    }
}

/// Runs one item on a disposable sandbox thread under a watchdog.
fn run_one<T, R, F>(
    index: usize,
    id: String,
    item: T,
    timeout: Duration,
    work: &Arc<F>,
) -> IsolatedOutcome<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let work = Arc::clone(work);
    let mut outcome = isolate_one(id, item, timeout, move |item| work(item));
    outcome.index = index;
    outcome
}

/// Runs one unit of caller-supplied work with the full sandbox
/// treatment — disposable thread, `catch_unwind` panic containment,
/// `recv_timeout` watchdog with thread abandonment — without a worker
/// pool around it. This is the job-at-a-time isolation primitive for
/// callers that schedule their own concurrency, like the `ethainter
/// serve` worker loop; [`run_isolated`] is built on it.
///
/// The returned outcome always has `index == 0`; pool callers stamp
/// their own.
pub fn isolate_one<T, R, F>(
    id: String,
    item: T,
    timeout: Duration,
    work: F,
) -> IsolatedOutcome<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: FnOnce(T) -> R + Send + 'static,
{
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    // Carry the caller's trace across the thread hop so sandbox spans
    // stay attached to the job that caused them; sandboxes launched
    // outside any trace (plain `ethainter batch`) mint their own per-
    // contract id so concurrent sandboxes never share a trace.
    let ctx = telemetry::trace::current();
    let spawned = std::thread::Builder::new()
        .name(format!("sandbox-{id}"))
        .spawn(move || {
            let ctx = if ctx.trace.is_none() {
                telemetry::trace::TraceContext { trace: telemetry::trace::mint(), parent_span: 0 }
            } else {
                ctx
            };
            let _trace = telemetry::trace::install(ctx);
            let result = catch_unwind(AssertUnwindSafe(|| work(item)));
            // The watchdog may have given up on us; a dead receiver is fine.
            let _ = tx.send(result);
        });

    let result = match spawned {
        Err(e) => Isolated::Panicked { message: format!("sandbox spawn failed: {e}") },
        Ok(handle) => match rx.recv_timeout(timeout) {
            Ok(Ok(value)) => {
                let _ = handle.join();
                Isolated::Completed(value)
            }
            Ok(Err(payload)) => {
                let _ = handle.join();
                Isolated::Panicked { message: panic_message(payload.as_ref()) }
            }
            // Timed out: abandon the sandbox thread. It owns all its
            // state and exits at the analysis' next deadline check.
            Err(_) => Isolated::TimedOut,
        },
    };

    IsolatedOutcome { index: 0, id, result, elapsed_ms: started.elapsed().as_millis() as u64 }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Analyzes one bytecode blob into a [`Status`], honoring any
/// cooperative deadline installed on the current thread.
///
/// This is the per-contract unit [`analyze_batch`] runs inside each
/// sandbox; exposed so callers can reuse the exact same classification
/// (decompile-failed vs. timed-out vs. analyzed) without the pool.
pub fn analyze_one(bytecode: &[u8], config: &ethainter::Config) -> Status {
    let sp_dec = telemetry::span("ethainter.decompile");
    let mut program = decompiler::decompile(bytecode);
    let decompile_us = sp_dec.finish_us();
    if program.incomplete {
        telemetry::metrics::counter("ethainter_contracts_decompile_failed_total").inc();
        let reason = program
            .warnings
            .first()
            .cloned()
            .unwrap_or_else(|| "decompile budget exhausted".to_string());
        return Status::DecompileFailed { reason };
    }
    // Lint the raw decompiler output (the passes assume and preserve the
    // invariants, so violations always originate in the decompiler).
    let lint = decompiler::validate(&program);
    let sp_pass = telemetry::span("ethainter.passes");
    if config.optimize_ir {
        decompiler::optimize(&mut program, &decompiler::PassConfig::default());
    }
    let passes_us = sp_pass.finish_us();
    let report = ethainter::analyze(&program, config);
    if report.timed_out {
        telemetry::metrics::counter("ethainter_contracts_timed_out_total").inc();
        return Status::TimedOut;
    }
    let mut timings = report.stats.timings;
    timings.decompile_us = decompile_us;
    timings.passes_us = passes_us;
    // Re-establish the `total_us == phase_sum()` invariant after adding
    // the two front-end phases (the scanner re-stamps once more when it
    // adds `cache_lookup_us`).
    timings.stamp_total();
    // Worker-side aggregation: these counters/histograms are global
    // lock-free atomics, so sandbox threads across the rayon pool fold
    // into one registry without coordination.
    telemetry::metrics::counter("ethainter_contracts_analyzed_total").inc();
    telemetry::metrics::counter("ethainter_findings_total")
        .add(report.findings.len() as u64);
    telemetry::metrics::counter("ethainter_findings_composite_total")
        .add(report.findings.iter().filter(|f| f.composite).count() as u64);
    telemetry::metrics::histogram("ethainter_phase_decompile_us").observe(decompile_us);
    telemetry::metrics::histogram("ethainter_phase_fixpoint_us")
        .observe(timings.fixpoint_us);
    telemetry::metrics::histogram("ethainter_phase_sink_scan_us")
        .observe(timings.sink_scan_us);
    if let Some((detectors_us, effects_us, composite_us)) = timings.sink_scan_breakdown() {
        telemetry::metrics::histogram("ethainter_phase_detectors_us").observe(detectors_us);
        telemetry::metrics::histogram("ethainter_phase_effects_us").observe(effects_us);
        telemetry::metrics::histogram("ethainter_phase_composite_us").observe(composite_us);
    }
    telemetry::metrics::histogram("ethainter_phase_total_us").observe(timings.total_us);
    Status::Analyzed {
        findings: report.findings.len(),
        composite: report.findings.iter().filter(|f| f.composite).count(),
        blocks: report.stats.blocks,
        stmts: report.stats.stmts,
        rounds: report.stats.rounds,
        facts: report.stats.facts,
        lint,
        timings,
        witness: report.witnesses,
    }
}

/// Analyzes a batch of `(id, bytecode)` contracts in parallel with
/// per-contract isolation — the production entry point.
///
/// Each sandbox thread installs a cooperative deadline equal to the
/// watchdog timeout, constructs its own decompiler and fixpoint state
/// (the engine's `Rc`-based internals are `!Send`, so sharing is
/// impossible by construction), and reports one [`Outcome`].
pub fn analyze_batch(
    contracts: Vec<(String, Vec<u8>)>,
    cfg: &DriverConfig,
    analysis: &ethainter::Config,
) -> BatchReport {
    let analysis = *analysis;
    let timeout = cfg.timeout;
    run_batch_with(contracts, cfg, move |bytecode: Vec<u8>| {
        let deadline = Instant::now() + timeout;
        ethainter::with_deadline(deadline, || analyze_one(&bytecode, &analysis))
    })
}

/// Analyzes one `(id, bytecode)` contract as a standalone job with the
/// **same** isolation and classification as [`analyze_batch`] — sandbox
/// thread, cooperative deadline, panic containment, identical
/// [`Status`] taxonomy and telemetry counters — but no worker pool.
///
/// This is the per-job unit of `ethainter serve`: the server supplies
/// its own concurrency (one OS worker per `--jobs`), so each job needs
/// exactly one disposable sandbox, not a rayon pool. The returned
/// outcome has `index == 0`; job identity lives in `id`.
pub fn analyze_job(
    id: &str,
    bytecode: Vec<u8>,
    cfg: &DriverConfig,
    analysis: &ethainter::Config,
) -> Outcome {
    let analysis = *analysis;
    let timeout = cfg.timeout;
    fold_outcome(isolate_one(id.to_string(), bytecode, timeout, move |code: Vec<u8>| {
        let deadline = Instant::now() + timeout;
        ethainter::with_deadline(deadline, || analyze_one(&code, &analysis))
    }))
}

/// Analyzes an unbounded stream of `(id, bytecode)` contracts with
/// bounded memory: contracts are pulled from the iterator `chunk` at a
/// time, each chunk runs through [`analyze_batch`] (same parallelism,
/// timeout, and panic isolation), and every [`Outcome`] is handed to
/// `sink` in input order — with its **global** stream index — as soon as
/// its chunk completes. At no point are more than `chunk` contracts (or
/// outcomes) resident.
///
/// This is the driver half of the ROADMAP's streaming-corpus item: a
/// population larger than RAM flows through as long as the source
/// iterator itself is lazy (see `corpus::stream` and the
/// `store::ContractSource` adapters). The returned [`Summary`] is
/// aggregated incrementally.
pub fn analyze_stream<I, F>(
    contracts: I,
    cfg: &DriverConfig,
    analysis: &ethainter::Config,
    chunk: usize,
    mut sink: F,
) -> Summary
where
    I: IntoIterator<Item = (String, Vec<u8>)>,
    F: FnMut(Outcome),
{
    let chunk = chunk.max(1);
    let started = Instant::now();
    let mut summary = Summary::empty(cfg.effective_jobs());
    let mut next_index = 0usize;
    let mut pending: Vec<(String, Vec<u8>)> = Vec::with_capacity(chunk);
    let mut flush = |pending: &mut Vec<(String, Vec<u8>)>, base: usize| {
        let report = analyze_batch(std::mem::take(pending), cfg, analysis);
        for mut o in report.outcomes {
            o.index += base;
            summary.record(&o.status);
            sink(o);
        }
    };
    for item in contracts {
        pending.push(item);
        if pending.len() == chunk {
            flush(&mut pending, next_index);
            next_index += chunk;
        }
    }
    if !pending.is_empty() {
        let n = pending.len();
        flush(&mut pending, next_index);
        next_index += n;
    }
    debug_assert_eq!(summary.total, next_index);
    summary.finish(started.elapsed());
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(jobs: usize, timeout_ms: u64) -> DriverConfig {
        DriverConfig { jobs, timeout: Duration::from_millis(timeout_ms) }
    }

    fn ids(n: usize) -> Vec<(String, usize)> {
        (0..n).map(|i| (format!("c{i}"), i)).collect()
    }

    fn analyzed(findings: usize, composite: usize) -> Status {
        Status::Analyzed {
            findings,
            composite,
            blocks: 1,
            stmts: 1,
            rounds: 1,
            facts: ethainter::FactCounts::default(),
            lint: Vec::new(),
            timings: ethainter::PhaseTimings::default(),
            witness: None,
        }
    }

    #[test]
    fn every_input_gets_one_outcome_in_order() {
        let report = run_batch_with(ids(64), &cfg(4, 10_000), |i| analyzed(i, 0));
        assert_eq!(report.outcomes.len(), 64);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.id, format!("c{i}"));
            assert_eq!(o.status, analyzed(i, 0));
        }
    }

    #[test]
    fn panics_are_contained() {
        let report = run_batch_with(ids(8), &cfg(2, 10_000), |i| {
            if i == 3 {
                panic!("boom on {i}");
            }
            Status::TimedOut // arbitrary non-panicking status
        });
        assert_eq!(report.outcomes.len(), 8);
        match &report.outcomes[3].status {
            Status::Panicked { message } => assert!(message.contains("boom on 3")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(report.outcomes.iter().filter(|o| o.status.tag() == "panicked").count() == 1);
    }

    #[test]
    fn slow_items_time_out_without_stalling_the_batch() {
        let report = run_batch_with(ids(4), &cfg(2, 100), |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_secs(30));
            }
            analyzed(0, 0)
        });
        assert_eq!(report.outcomes[1].status, Status::TimedOut);
        assert_eq!(report.outcomes.iter().filter(|o| o.status.is_analyzed()).count(), 3);
        // The batch must not have waited for the 30 s sleeper.
        assert!(report.wall_time < Duration::from_secs(10), "{:?}", report.wall_time);
    }

    #[test]
    fn jsonl_round_trips_outcomes() {
        let report = run_batch_with(ids(3), &cfg(1, 10_000), |i| match i {
            0 => Status::Panicked { message: "m".into() },
            1 => Status::Analyzed {
                findings: 2,
                composite: 1,
                blocks: 3,
                stmts: 9,
                rounds: 2,
                facts: ethainter::FactCounts { input_tainted: 4, rba_blocks: 3, ..Default::default() },
                lint: vec!["B0 is empty (no terminator)".into()],
                timings: ethainter::PhaseTimings { fixpoint_us: 7, ..Default::default() },
                witness: None,
            },
            _ => Status::DecompileFailed { reason: "r".into() },
        });
        let jsonl = report.to_jsonl();
        let parsed: Vec<Outcome> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid outcome json"))
            .collect();
        assert_eq!(parsed, report.outcomes);
    }

    #[test]
    fn summary_counts_every_status_once() {
        let report = run_batch_with(ids(10), &cfg(3, 10_000), |i| match i % 3 {
            0 => analyzed(2, 1),
            1 => Status::Panicked { message: "p".into() },
            _ => Status::DecompileFailed { reason: "d".into() },
        });
        let s = report.summary();
        assert_eq!(s.total, 10);
        assert_eq!(s.analyzed + s.timed_out + s.panicked + s.decompile_failed, 10);
        assert_eq!(s.analyzed, 4);
        assert_eq!(s.findings, 8);
        assert_eq!(s.composite, 4);
    }

    #[test]
    fn stream_emits_global_indices_in_order_across_chunks() {
        // 11 trivial contracts (a lone STOP) through chunk size 4: the
        // sink must observe global indices 0..11 in order, with the tail
        // chunk shorter than the rest.
        let items: Vec<(String, Vec<u8>)> =
            (0..11).map(|i| (format!("s{i}"), vec![0x00])).collect();
        let mut seen: Vec<(usize, String)> = Vec::new();
        let summary = analyze_stream(
            items,
            &cfg(2, 10_000),
            &ethainter::Config::default(),
            4,
            |o| seen.push((o.index, o.id.clone())),
        );
        assert_eq!(summary.total, 11);
        assert_eq!(seen.len(), 11);
        for (i, (idx, id)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(id, &format!("s{i}"));
        }
    }

    #[test]
    fn stream_summary_matches_batch_summary() {
        let items: Vec<(String, Vec<u8>)> =
            (0..6).map(|i| (format!("s{i}"), vec![0x00])).collect();
        let batch = analyze_batch(items.clone(), &cfg(1, 10_000), &ethainter::Config::default());
        let mut streamed: Vec<Outcome> = Vec::new();
        let summary =
            analyze_stream(items, &cfg(1, 10_000), &ethainter::Config::default(), 2, |o| {
                streamed.push(o)
            });
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
        let b = batch.summary();
        assert_eq!(
            (summary.total, summary.analyzed, summary.findings),
            (b.total, b.analyzed, b.findings)
        );
    }

    #[test]
    fn isolate_one_completes_panics_and_times_out() {
        let done = isolate_one("ok".to_string(), 21usize, Duration::from_secs(10), |n| n * 2);
        assert_eq!(done.result, Isolated::Completed(42));
        assert_eq!(done.index, 0);

        let boom = isolate_one("boom".to_string(), (), Duration::from_secs(10), |()| {
            panic!("job exploded");
        });
        match boom.result {
            Isolated::Panicked { ref message } => assert!(message.contains("job exploded")),
            ref other => panic!("expected Panicked, got {other:?}"),
        }

        let slow = isolate_one("slow".to_string(), (), Duration::from_millis(50), |()| {
            std::thread::sleep(Duration::from_secs(30));
        });
        assert_eq!(slow.result, Isolated::TimedOut);
        assert!(slow.elapsed_ms < 10_000, "watchdog must not wait for the sleeper");
    }

    #[test]
    fn analyze_job_matches_analyze_batch_verdicts() {
        let src = "contract J { uint v; function set(uint a) public { v = a; } }";
        let code = minisol::compile_source(src).unwrap().bytecode;
        let dcfg = cfg(1, 10_000);
        let analysis = ethainter::Config::default();
        let job = analyze_job("j", code.clone(), &dcfg, &analysis);
        assert!(job.status.is_analyzed());
        let batch = analyze_batch(vec![("j".into(), code)], &dcfg, &analysis);
        assert_eq!(
            job.status.verdict_only(),
            batch.outcomes[0].status.verdict_only(),
            "single-job and batch paths classify identically"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let report =
            run_batch_with(Vec::<(String, u8)>::new(), &cfg(0, 1_000), |_| Status::TimedOut);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.summary().total, 0);
    }
}
