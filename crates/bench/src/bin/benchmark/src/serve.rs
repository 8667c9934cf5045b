//! The two daemon workloads, against an in-process `server::Server`
//! driven through the shipped `server::client` functions (so the
//! client's poll strategy is part of the system under test).
//!
//! - `serve-hits` — two closed-loop clients re-submit a warmed hot set.
//!   Analysis costs ~0, so the time is the HTTP round trips (parsing the
//!   submitted hex body is most of it), polling, cache key and lookup;
//!   every analyzer layer is bypassed.
//! - `serve-mixed` — a writer submits fresh contracts back to back while
//!   a reader repeats hot-set hits. Hits wait in the same FIFO queue as
//!   fresh analyses and share the two cores, so a change that speeds one
//!   role at the other's expense shows here.

use crate::inputs::{self, Input};
use crate::layers::{self, AnalysisSamples};
use crate::load::{self, parallel_map, Done, Pass, Stop, THREADS};
use crate::metrics::{self, Metric, RunResult};
use crate::stats::{median, peak_rss_mb, percentile, sorted, warn_thin_tail};
use crate::trace::{self, Recorder};
use corpus::Scale;
use driver::Status;
use server::api::{CacheStatsBody, JobAccepted, JobRequest, JobStatusBody};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Contracts warmed into the cache during setup and re-submitted as hits,
/// chosen from `HOT_CANDIDATES` by size (the daemon's JSON parse of a
/// submission grows faster than linearly with its size, so the hot set's
/// size mix decides hit latency).
const HOT_SET: usize = 48;
const HOT_CANDIDATES: usize = 3 * HOT_SET;
/// Fresh contracts generated per second of run time for the writer. It
/// completes about 10/s on the 2-vCPU VM the benchmark was defined on,
/// and stops early if it runs out.
const FRESH_INPUTS_PER_S: u64 = 20;
/// How long a client waits for one verdict.
const AWAIT: Duration = Duration::from_secs(120);
/// Finished-job status reads timed after a traced run.
const STATUS_GETS: usize = 200;

/// What a client got back for one request: the finished job, or why not.
type Response = Result<JobStatusBody, String>;

/// A running daemon plus the inputs it serves.
struct Setup {
    inputs: Vec<Input>,
    jobs: Vec<JobRequest>,
    handle: server::ServerHandle,
    addr: String,
    cache_dir: PathBuf,
    warm: Pass<Response>,
}

impl Setup {
    /// Shuts the daemon down, removes its cache, and reports whether
    /// every accepted job was drained.
    fn shutdown(self) -> bool {
        let report = self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        report.drained_cleanly
    }
}

/// Generates the hot set and `fresh` more contracts, starts a daemon with
/// two workers and an empty cache, and warms the hot set through it.
fn start(seed: u64, fresh: usize, scratch: &Path, repetition: usize) -> Result<Setup, String> {
    let mut inputs = inputs::generate(Scale::Realistic, seed, HOT_CANDIDATES + fresh, |_| true);
    let fresh_inputs = inputs.split_off(HOT_CANDIDATES);
    let mut inputs = inputs::spread_by_size(inputs, HOT_SET);
    inputs.extend(fresh_inputs);
    let jobs: Vec<JobRequest> = inputs
        .iter()
        .enumerate()
        .map(|(i, c)| JobRequest {
            bytecode: inputs::hex(&c.bytecode),
            id: Some(format!("{}#{i}", c.family)),
            config: None,
        })
        .collect();
    let cache_dir = scratch.join(format!("cache-{repetition}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let handle = server::Server::start(server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: THREADS,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        ..Default::default()
    })?;
    let addr = handle.addr().to_string();
    let warm = load::closed_loop(THREADS, Stop::after_count(HOT_SET), |i| {
        submit_and_await(&addr, &jobs[i])
    });
    Ok(Setup {
        inputs,
        jobs,
        handle,
        addr,
        cache_dir,
        warm,
    })
}

/// One client request: `POST /jobs`, then poll until the verdict is in.
fn submit_and_await(addr: &str, job: &JobRequest) -> Response {
    let id = submit(addr, job)?;
    server::client::await_job(addr, &id, AWAIT)
}

fn submit(addr: &str, job: &JobRequest) -> Result<String, String> {
    let resp = server::client::submit(addr, job)?;
    if resp.status != 202 {
        return Err(format!("POST /jobs -> {}: {}", resp.status, resp.body));
    }
    let accepted: JobAccepted =
        serde_json::from_str(&resp.body).map_err(|e| format!("bad 202 body: {e}"))?;
    Ok(accepted.id)
}

/// [`submit_and_await`] with the two client calls in spans.
fn traced_request(rec: &Recorder, trace: u64, addr: &str, job: &JobRequest) -> Response {
    rec.span(trace, 0, "bench.request", |me| {
        let id = rec.span(trace, me, "server.submit", |_| submit(addr, job))?;
        rec.span(trace, me, "server.await", |_| {
            server::client::await_job(addr, &id, AWAIT)
        })
    })
}

/// Checks one response: it arrived, carries an analyzed verdict equal to
/// the in-process one, and came from (or bypassed) the cache as the role
/// requires.
fn check(what: &str, response: &Response, expected: &Status, cached: bool, out: &mut RunResult) {
    let body = match response {
        Ok(body) => body,
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("{what}: {e}"));
            return;
        }
    };
    let Some(outcome) = &body.report else {
        out.failed += 1;
        out.problems.push(format!("{what}: done without a report"));
        return;
    };
    if !outcome.status.is_analyzed() {
        out.failed += 1;
        out.problems
            .push(format!("{what}: {}", outcome.status.tag()));
    } else if outcome.status.verdict_only() != *expected {
        out.problems.push(format!(
            "{what}: daemon verdict differs from driver::analyze_one"
        ));
    }
    if body.cached != Some(cached) {
        out.problems.push(format!(
            "{what}: cached = {:?}, expected {cached}",
            body.cached
        ));
    }
}

/// The in-process verdicts for `inputs`.
fn in_process(inputs: &[Input]) -> Vec<Status> {
    let cfg = ethainter::Config::default();
    parallel_map(inputs.len(), |i| {
        driver::analyze_one(&inputs[i].bytecode, &cfg).verdict_only()
    })
}

fn status_of(response: &Response) -> Option<&Status> {
    response.as_ref().ok()?.report.as_ref().map(|o| &o.status)
}

/// The value of one sample line of Prometheus text (0 when absent).
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Snapshot of the daemon counters the layer metrics difference.
struct Scrape {
    metrics: String,
    cache: CacheStatsBody,
}

fn scrape(addr: &str) -> Result<Scrape, String> {
    let metrics = server::client::request(addr, "GET", "/metrics", None)?.body;
    let cache_text = server::client::request(addr, "GET", "/cache/stats", None)?.body;
    let cache =
        serde_json::from_str(&cache_text).map_err(|e| format!("bad /cache/stats body: {e}"))?;
    Ok(Scrape { metrics, cache })
}

/// The daemon-side layer metrics over the interval between two scrapes.
fn server_layers(before: &Scrape, after: &Scrape, requests: usize) -> Vec<Metric> {
    let delta = |name: &str| prom(&after.metrics, name) - prom(&before.metrics, name);
    let mean =
        |hist: &str| delta(&format!("{hist}_sum")) / delta(&format!("{hist}_count")).max(1.0);
    let hits = (after.cache.session_hits - before.cache.session_hits) as f64;
    let misses = (after.cache.session_misses - before.cache.session_misses) as f64;
    vec![
        Metric::new(
            "server.connections_per_request",
            delta("ethainter_server_connections_total") / requests.max(1) as f64,
            "count",
        ),
        Metric::new(
            "server.queue_wait_ms_mean",
            mean("ethainter_server_job_wait_ms"),
            "ms",
        ),
        Metric::new(
            "server.job_ms_mean",
            mean("ethainter_server_job_latency_ms"),
            "ms",
        ),
        Metric::new("store.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
    ]
}

/// p50 of the client spans and of `STATUS_GETS` reads of finished jobs.
fn client_layers(
    spans: &[trace::Span],
    addr: &str,
    finished: &[String],
) -> Result<Vec<Metric>, String> {
    let by_name = trace::self_us_by_name(spans);
    let p50_ms = |metric: &'static str, span: &str| {
        let v = by_name.get(span).map_or(&[][..], |v| v);
        Metric::over(
            metric,
            percentile(&sorted(v), 50.0).unwrap_or(0.0) / 1e3,
            "ms",
            v.len(),
        )
    };
    let mut gets = Vec::with_capacity(STATUS_GETS);
    for id in finished.iter().cycle().take(STATUS_GETS) {
        let t = Instant::now();
        let resp = server::client::request(addr, "GET", &format!("/jobs/{id}"), None)?;
        gets.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("GET /jobs/{id} -> {}", resp.status));
        }
    }
    Ok(vec![
        p50_ms("server.submit_ms", "server.submit"),
        p50_ms("server.await_ms", "server.await"),
        Metric::over(
            "server.status_get_ms",
            median(&gets).unwrap_or(0.0),
            "ms",
            gets.len(),
        ),
    ])
}

fn start_repeated(seed: u64, fresh: usize, scratch: &Path) -> Result<(Setup, f64), String> {
    let repetition = AtomicUsize::new(0);
    let mut drained = true;
    let result = load::repeated_setup(
        || {
            start(
                seed,
                fresh,
                scratch,
                repetition.fetch_add(1, Ordering::Relaxed),
            )
        },
        |s: Setup| drained &= s.shutdown(),
    );
    if !drained {
        return Err("a setup daemon did not drain cleanly".into());
    }
    result
}

/// Verifies the warm-up: every hot-set contract analyzed fresh, with the
/// in-process verdict.
fn check_warm(setup: &Setup, hot: &[Status], out: &mut RunResult) {
    for d in &setup.warm.done {
        check(
            &format!("warm-up {}", d.index),
            &d.result,
            &hot[d.index],
            false,
            out,
        );
    }
}

/// Re-submits the hot set round-robin from `THREADS` clients until `stop`.
fn hits(setup: &Setup, stop: Stop, rec: Option<&Recorder>) -> Pass<Response> {
    load::closed_loop(THREADS, stop, |r| {
        let job = &setup.jobs[r % HOT_SET];
        match rec {
            Some(rec) => traced_request(rec, r as u64, &setup.addr, job),
            None => submit_and_await(&setup.addr, job),
        }
    })
}

/// One untimed round of hits over the hot set, so the measured passes
/// start from a daemon and client in steady state.
fn warm_up(setup: &Setup) {
    hits(setup, Stop::after_count(HOT_SET), None);
}

fn finished_ids(done: &[Done<Response>]) -> Vec<String> {
    done.iter()
        .filter_map(|d| d.result.as_ref().ok().map(|b| b.id.clone()))
        .collect()
}

/// `serve-hits`.
pub fn serve_hits(
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    scratch: &Path,
) -> Result<RunResult, String> {
    let (setup, setup_s) = start_repeated(seed, 0, scratch)?;
    warm_up(&setup);
    let run = Duration::from_secs(seconds);
    let mut out = RunResult::default();
    let passes: Vec<Pass<_>>;
    let mut traced_parts = None;
    match trace_dir {
        None => passes = vec![hits(&setup, Stop::after_time(run), None)],
        Some(_) => {
            let base = hits(&setup, Stop::after_time(run / 2), None);
            let rec = Recorder::new();
            let before = scrape(&setup.addr)?;
            let traced = hits(&setup, Stop::after_count(base.done.len()), Some(&rec));
            let after = scrape(&setup.addr)?;
            traced_parts = Some((rec.spans(), before, after));
            passes = vec![base, traced];
        }
    }
    let rss = peak_rss_mb().unwrap_or(0.0);
    let hot = in_process(&setup.inputs[..HOT_SET]);
    check_warm(&setup, &hot, &mut out);
    for pass in &passes {
        out.attempted += pass.done.len() as u64;
        for d in &pass.done {
            check(
                &format!("hit {}", d.index),
                &d.result,
                &hot[d.index % HOT_SET],
                true,
                &mut out,
            );
        }
    }
    let Some((spans, before, after)) = traced_parts else {
        let pass = &passes[0];
        warn_thin_tail(pass.done.len());
        out.metrics = metrics::end_to_end(setup_s, pass.rate(), &pass.latencies_ms(), rss);
        if !setup.shutdown() {
            out.problems.push("shutdown did not drain cleanly".into());
        }
        return Ok(out);
    };

    let (base, traced) = (&passes[0], &passes[1]);
    let mut samples = AnalysisSamples::default();
    for status in setup.warm.done.iter().filter_map(|d| status_of(&d.result)) {
        samples.push_status(status);
    }
    let store_items: Vec<(&[u8], Status)> = setup.inputs[..HOT_SET]
        .iter()
        .zip(&hot)
        .map(|(i, s)| (i.bytecode.as_slice(), s.clone()))
        .collect();
    let store = layers::store_replay(&scratch.join("store-replay"), &store_items)?;
    out.metrics = layers::catalog_metrics(
        &samples,
        &layers::count_work(&setup.inputs[..HOT_SET]),
        &store,
        trace::unaccounted_ratio(&spans),
        traced.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    );
    out.extra = client_layers(&spans, &setup.addr, &finished_ids(&traced.done))?;
    out.extra
        .extend(server_layers(&before, &after, traced.done.len()));
    let job_ms = out
        .extra
        .iter()
        .find(|m| m.name == "server.job_ms_mean")
        .map_or(0.0, |m| m.value);
    let hit_p50 = percentile(&sorted(&traced.latencies_ms()), 50.0).unwrap_or(0.0);
    out.extra
        .push(Metric::new("server.client_gap_ms", hit_p50 - job_ms, "ms"));
    if !setup.shutdown() {
        out.problems.push("shutdown did not drain cleanly".into());
    }
    layers::write_trace(trace_dir.expect("traced run"), "serve-hits", &spans, &out)?;
    Ok(out)
}

/// One mixed pass: the writer submits `fresh[offset..]` back to back
/// until `stop`; the reader repeats hot-set hits until the writer is done.
/// Returns the writer's pass and the reader's (index, latency, response).
fn mixed_pass(
    setup: &Setup,
    offset: usize,
    stop: Stop,
    rec: Option<&Recorder>,
) -> (Pass<Response>, Vec<Done<Response>>) {
    let fresh = &setup.jobs[HOT_SET + offset..];
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut done = Vec::new();
            // SeqCst pairs with the writer's store below; the flag
            // publishes nothing else.
            while !writer_done.load(Ordering::SeqCst) {
                let r = done.len();
                let job = &setup.jobs[r % HOT_SET];
                let t = Instant::now();
                let result = match rec {
                    Some(rec) => traced_request(rec, (1 << 32) + r as u64, &setup.addr, job),
                    None => submit_and_await(&setup.addr, job),
                };
                done.push(Done {
                    index: r,
                    latency: t.elapsed(),
                    result,
                });
            }
            done
        });
        let writer = load::closed_loop(1, stop.at_most(fresh.len()), |k| match rec {
            Some(rec) => traced_request(rec, k as u64, &setup.addr, &fresh[k]),
            None => submit_and_await(&setup.addr, &fresh[k]),
        });
        writer_done.store(true, Ordering::SeqCst);
        (writer, reader.join().expect("reader thread"))
    })
}

/// `serve-mixed`.
pub fn serve_mixed(
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
    scratch: &Path,
) -> Result<RunResult, String> {
    let (setup, setup_s) = start_repeated(seed, (seconds * FRESH_INPUTS_PER_S) as usize, scratch)?;
    warm_up(&setup);
    let run = Duration::from_secs(seconds);
    let mut out = RunResult::default();
    let mut passes = Vec::new();
    let mut traced_parts = None;
    match trace_dir {
        None => passes.push(mixed_pass(&setup, 0, Stop::after_time(run), None)),
        Some(_) => {
            let base = mixed_pass(&setup, 0, Stop::after_time(run / 2), None);
            let rec = Recorder::new();
            let before = scrape(&setup.addr)?;
            let traced = mixed_pass(
                &setup,
                base.0.done.len(),
                Stop::after_count(base.0.done.len()),
                Some(&rec),
            );
            let after = scrape(&setup.addr)?;
            traced_parts = Some((rec.spans(), before, after));
            passes.extend([base, traced]);
        }
    }
    let rss = peak_rss_mb().unwrap_or(0.0);
    let hot = in_process(&setup.inputs[..HOT_SET]);
    check_warm(&setup, &hot, &mut out);
    let fresh_used: usize = passes.iter().map(|(w, _)| w.done.len()).sum();
    let fresh_inputs = &setup.inputs[HOT_SET..HOT_SET + fresh_used];
    let fresh_expected = in_process(fresh_inputs);
    let mut offset = 0;
    for (writer, reader) in &passes {
        out.attempted += (writer.done.len() + reader.len()) as u64;
        for d in &writer.done {
            check(
                &format!("fresh {}", offset + d.index),
                &d.result,
                &fresh_expected[offset + d.index],
                false,
                &mut out,
            );
        }
        for d in reader {
            check(
                &format!("hit {}", d.index),
                &d.result,
                &hot[d.index % HOT_SET],
                true,
                &mut out,
            );
        }
        offset += writer.done.len();
    }
    let Some((spans, before, after)) = traced_parts else {
        let (writer, reader) = &passes[0];
        let hit_ms: Vec<f64> = reader
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect();
        warn_thin_tail(hit_ms.len());
        out.metrics = metrics::end_to_end(setup_s, writer.rate(), &hit_ms, rss);
        if !setup.shutdown() {
            out.problems.push("shutdown did not drain cleanly".into());
        }
        return Ok(out);
    };

    let ((base, _), (traced, traced_reader)) = (&passes[0], &passes[1]);
    let mut samples = AnalysisSamples::default();
    for status in passes
        .iter()
        .flat_map(|(w, _)| &w.done)
        .filter_map(|d| status_of(&d.result))
    {
        samples.push_status(status);
    }
    let store_items: Vec<(&[u8], Status)> = setup.inputs[..HOT_SET + fresh_used]
        .iter()
        .zip(hot.iter().chain(&fresh_expected))
        .map(|(i, s)| (i.bytecode.as_slice(), s.clone()))
        .collect();
    let store = layers::store_replay(&scratch.join("store-replay"), &store_items)?;
    out.metrics = layers::catalog_metrics(
        &samples,
        &layers::count_work(&setup.inputs[HOT_SET..]),
        &store,
        trace::unaccounted_ratio(&spans),
        traced.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    );
    let requests = traced.done.len() + traced_reader.len();
    out.extra = client_layers(&spans, &setup.addr, &finished_ids(&traced.done))?;
    out.extra.extend(server_layers(&before, &after, requests));
    if !setup.shutdown() {
        out.problems.push("shutdown did not drain cleanly".into());
    }
    layers::write_trace(trace_dir.expect("traced run"), "serve-mixed", &spans, &out)?;
    Ok(out)
}
