//! End-to-end loopback exercise of the daemon over real TCP: concurrent
//! clients, mixed warm/cold submissions, verdict identity against the
//! batch pipeline, deterministic queue overflow, and a graceful
//! shutdown that loses nothing it accepted.

use server::{api, client, Server, ServerConfig};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// The global telemetry registry is shared by every test in this
/// binary; serializing them keeps the delta assertions honest.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock_serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ethainter-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(code: &[u8]) -> String {
    code.iter().map(|b| format!("{b:02x}")).collect()
}

/// Four distinct single-function contracts — tiny but real bytecode.
fn unique_contracts(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let src = format!(
                "contract S{i} {{ uint v; function set(uint a) public {{ v = a + 0x{i:x}; }} }}"
            );
            minisol::compile_source(&src).unwrap().bytecode
        })
        .collect()
}

fn counter(name: &str) -> u64 {
    telemetry::metrics::counter(name).get()
}

/// The headline acceptance test: N=8 concurrent clients over loopback
/// TCP, mixed warm/cold submissions of 4 unique bytecodes, all jobs
/// completing with verdicts byte-identical to the batch pipeline,
/// every duplicate answered by the shared cache, and the completion
/// counter visible through `GET /metrics`.
#[test]
fn eight_concurrent_clients_mixed_warm_cold() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 3;
    const UNIQUE: usize = 4;
    let _serial = lock_serial();

    let dir = tmp_dir("mixed");
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let contracts = unique_contracts(UNIQUE);
    let completed_before = counter("ethainter_server_jobs_completed_total");

    // The reference verdicts: the same bytecodes through the batch
    // pipeline, stripped of timings exactly like cache entries are.
    let batch = driver::analyze_batch(
        contracts.iter().enumerate().map(|(i, c)| (format!("ref-{i}"), c.clone())).collect(),
        &driver::DriverConfig::default(),
        &ethainter::Config::default(),
    );
    let reference: Vec<String> = batch
        .outcomes
        .iter()
        .map(|o| serde_json::to_string(&o.status.verdict_only()).unwrap())
        .collect();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for t in 0..CLIENTS {
        let addr = addr.clone();
        let contracts = contracts.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let mut results = Vec::new();
            for j in 0..PER_CLIENT {
                let which = (t + j) % UNIQUE;
                let resp = client::submit(
                    &addr,
                    &api::JobRequest {
                        bytecode: hex(&contracts[which]),
                        id: Some(format!("client{t}-job{j}")),
                        config: None,
                    },
                )
                .unwrap();
                assert_eq!(resp.status, 202, "submit must be accepted: {}", resp.body);
                let accepted: api::JobAccepted = serde_json::from_str(&resp.body).unwrap();
                let done =
                    client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
                results.push((which, done));
            }
            results
        }));
    }

    let mut cached_count = 0usize;
    let mut total = 0usize;
    for t in threads {
        for (which, done) in t.join().unwrap() {
            total += 1;
            assert_eq!(done.state, "done");
            let report = done.report.expect("done jobs carry the full report");
            let got = serde_json::to_string(&report.status.verdict_only()).unwrap();
            assert_eq!(
                got, reference[which],
                "serve verdict for contract {which} must be byte-identical to batch"
            );
            if done.cached == Some(true) {
                cached_count += 1;
            }
        }
    }
    assert_eq!(total, CLIENTS * PER_CLIENT);
    // Single-flight + shared cache: exactly one fresh analysis per
    // unique bytecode, every other submission a hit.
    assert_eq!(
        cached_count,
        total - UNIQUE,
        "all but {UNIQUE} submissions must be answered by the shared cache"
    );

    // The live metrics endpoint reflects the work while it is running.
    let metrics = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("ethainter_server_jobs_completed_total"),
        "prometheus text must carry the server counters"
    );
    assert_eq!(
        counter("ethainter_server_jobs_completed_total") - completed_before,
        total as u64
    );

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic backpressure: with the lone worker wedged on a
/// single-flight claim the test holds, the bounded queue fills, the
/// next submission gets 429 — and after the release the workers drain
/// everything, un-wedged.
#[test]
fn queue_overflow_answers_429_without_wedging_workers() {
    let _serial = lock_serial();
    let dir = tmp_dir("overflow");
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 2,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let contracts = unique_contracts(4);
    let config = ethainter::Config::default();

    // Wedge: claim contract 0's cache key from the test thread. The
    // worker that picks job 0 will block on the single-flight condvar
    // until we finish "computing".
    let key0 = store::cache_key(&contracts[0], &config);
    let cache = handle.cache().unwrap();
    let claimed = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let wedge = {
        let (claimed, release) = (Arc::clone(&claimed), Arc::clone(&release));
        let code0 = contracts[0].clone();
        std::thread::spawn(move || {
            cache.get_or_compute(key0, move || {
                claimed.wait();
                release.wait();
                store::CachedResult {
                    status: driver::analyze_one(&code0, &config),
                    elapsed_ms: 0,
                }
            })
        })
    };
    claimed.wait(); // key 0 is now held in flight

    let submit = |which: usize, label: &str| {
        client::submit(
            &addr,
            &api::JobRequest {
                bytecode: hex(&contracts[which]),
                id: Some(label.to_string()),
                config: None,
            },
        )
        .unwrap()
    };

    // Job 0 is claimed by the worker, which blocks on the wedge.
    let a = submit(0, "wedged");
    assert_eq!(a.status, 202);
    // Wait until the worker has actually taken it (queue empties).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let c = handle.job_counts();
        if c.running == 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never claimed the job");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Fill the bounded queue (depth 2), then overflow it.
    assert_eq!(submit(1, "fill-1").status, 202);
    assert_eq!(submit(2, "fill-2").status, 202);
    let overflow = submit(3, "overflow");
    assert_eq!(overflow.status, 429, "full queue must push back: {}", overflow.body);
    let err: api::ErrorBody = serde_json::from_str(&overflow.body).unwrap();
    assert!(err.error.contains("queue full"), "{}", err.error);

    // Release the wedge: everything accepted drains, nothing is stuck.
    release.wait();
    wedge.join().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let c = handle.job_counts();
        if c.queued == 0 && c.running == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "drain never finished: {c:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The rejected submission was never registered — retrying works.
    let retry = submit(3, "overflow-retry");
    assert_eq!(retry.status, 202, "a 429 must not wedge future submissions");
    let accepted: api::JobAccepted = serde_json::from_str(&retry.body).unwrap();
    let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
    assert_eq!(done.state, "done");

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown: with jobs accepted and the drain held open, new
/// submissions get 503 while polls keep answering; when the drain
/// completes, every accepted job reached `done`.
#[test]
fn shutdown_drains_every_accepted_job() {
    let _serial = lock_serial();
    let dir = tmp_dir("drain");
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let contracts = unique_contracts(4);
    let config = ethainter::Config::default();

    // Hold the drain open by wedging contract 0's key.
    let key0 = store::cache_key(&contracts[0], &config);
    let claimed = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let wedge = {
        let (claimed, release) = (Arc::clone(&claimed), Arc::clone(&release));
        let code0 = contracts[0].clone();
        let cache = handle.cache().unwrap();
        std::thread::spawn(move || {
            cache.get_or_compute(key0, move || {
                claimed.wait();
                release.wait();
                store::CachedResult {
                    status: driver::analyze_one(&code0, &config),
                    elapsed_ms: 0,
                }
            })
        })
    };

    let mut accepted_ids = Vec::new();
    for (i, code) in contracts.iter().enumerate() {
        let resp = client::submit(
            &addr,
            &api::JobRequest {
                bytecode: hex(code),
                id: Some(format!("drain-{i}")),
                config: None,
            },
        )
        .unwrap();
        assert_eq!(resp.status, 202);
        let a: api::JobAccepted = serde_json::from_str(&resp.body).unwrap();
        accepted_ids.push(a.id);
    }
    claimed.wait(); // the worker is now inside job 0, drain will block

    // Shutdown on a helper thread: it must wait for the wedged job.
    let shutdown = std::thread::spawn(move || handle.shutdown());

    // During the drain: new work is refused, polling still answers.
    std::thread::sleep(Duration::from_millis(50));
    let refused = client::submit(
        &addr,
        &api::JobRequest { bytecode: hex(&contracts[1]), id: None, config: None },
    )
    .unwrap();
    assert_eq!(refused.status, 503, "draining daemon must refuse new jobs: {}", refused.body);
    let poll = client::request(&addr, "GET", &format!("/jobs/{}", accepted_ids[0]), None).unwrap();
    assert_eq!(poll.status, 200, "polls must keep working during the drain");
    let health = client::request(&addr, "GET", "/healthz", None).unwrap();
    let h: api::Health = serde_json::from_str(&health.body).unwrap();
    assert_eq!(h.status, "draining");

    release.wait();
    wedge.join().unwrap();
    let report = shutdown.join().unwrap();
    assert!(report.drained_cleanly, "SIGINT must lose no accepted job");
    assert!(report.jobs_done >= accepted_ids.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
