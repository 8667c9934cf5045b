//! End-to-end exercise of the observability plane against a live
//! daemon: per-job span trees over `GET /jobs/<id>/trace`, the event
//! feed (lifecycle, long-poll, slow-job detection), registry eviction
//! answering 410, and the byte-identity guarantee — trace ids live in
//! telemetry output only, never in cache segments or merged verdicts.

use server::{api, client, Server, ServerConfig};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use telemetry::trace::{SpanNode, TraceId};

/// The global telemetry registry (metrics, events, trace store) is
/// shared by every test in this binary; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock_serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ethainter-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(code: &[u8]) -> String {
    code.iter().map(|b| format!("{b:02x}")).collect()
}

/// Distinct composite-vulnerable contracts: a tainted owner write plus
/// a guarded selfdestruct, so every analysis walks the full phase set
/// (detectors, effects, and the composite re-evaluation).
fn composite_contracts(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let src = format!(
                "contract S{i} {{
                    address owner;
                    uint total;
                    function claim(address who) public {{ owner = who; }}
                    function add(uint v) public {{ total = total + v + 0x{i:x}; }}
                    function kill() public {{ require(msg.sender == owner); selfdestruct(msg.sender); }}
                }}"
            );
            minisol::compile_source(&src).unwrap().bytecode
        })
        .collect()
}

fn submit(addr: &str, code: &[u8], label: &str) -> api::JobAccepted {
    let resp = client::submit(
        addr,
        &api::JobRequest {
            bytecode: hex(code),
            id: Some(label.to_string()),
            config: None,
        },
    )
    .unwrap();
    assert_eq!(resp.status, 202, "submit must be accepted: {}", resp.body);
    serde_json::from_str(&resp.body).unwrap()
}

fn counter(name: &str) -> u64 {
    telemetry::metrics::counter(name).get()
}

/// Flattens a span forest to `(name, trace)` pairs, depth-first.
fn flatten(nodes: &[SpanNode], out: &mut Vec<(String, TraceId)>) {
    for n in nodes {
        out.push((n.name.clone(), n.trace));
        flatten(&n.children, out);
    }
}

/// The headline acceptance test: 8 concurrent jobs against a live
/// daemon, each `/trace` serving a complete span tree in which every
/// span carries that job's trace id and the tree walks the pipeline's
/// phases — decompile → index_build → fixpoint → detectors/effects/
/// composite — under one `server.job` root.
#[test]
fn eight_concurrent_jobs_each_serve_their_own_span_tree() {
    const JOBS: usize = 8;
    let _serial = lock_serial();

    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let contracts = composite_contracts(JOBS);

    let barrier = Arc::new(Barrier::new(JOBS));
    let mut threads = Vec::new();
    for (t, code) in contracts.into_iter().enumerate() {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            let accepted = submit(&addr, &code, &format!("traced-{t}"));
            let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
            assert_eq!(done.state, "done");
            let resp = client::request(
                &addr,
                "GET",
                &format!("/jobs/{}/trace", accepted.id),
                None,
            )
            .unwrap();
            assert_eq!(resp.status, 200, "trace route must answer: {}", resp.body);
            let trace: api::TraceBody = serde_json::from_str(&resp.body).unwrap();
            (accepted.id, trace)
        }));
    }

    for t in threads {
        let (job_id, body) = t.join().unwrap();
        assert_eq!(body.id, job_id);
        assert_eq!(body.state, "done", "trace fetched after `done` is complete");
        let own = TraceId::parse(&job_id).expect("job ids are 16-hex trace ids");

        let mut spans = Vec::new();
        flatten(&body.spans, &mut spans);
        assert_eq!(spans.len() as u64, body.span_count, "the tree holds every span");
        assert!(
            spans.iter().all(|(_, trace)| *trace == own),
            "job {job_id}: every span carries this job's trace id, none bleed in"
        );

        // The root is the worker's job span; the analysis phases all
        // nest beneath it (across the sandbox thread hop).
        assert_eq!(body.spans.len(), 1, "one root per job trace");
        assert_eq!(body.spans[0].name, "server.job");
        let names: Vec<&str> = spans.iter().map(|(n, _)| n.as_str()).collect();
        for phase in [
            "ethainter.decompile",
            "ethainter.index_build",
            "ethainter.fixpoint",
            "ethainter.detectors",
            "ethainter.effects",
            "ethainter.composite",
        ] {
            assert!(names.contains(&phase), "job {job_id}: tree must contain {phase}: {names:?}");
        }
    }

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
}

/// Zeroes every `"elapsed_ms":N` in a JSONL text — the one field that
/// is wall-clock, hence legitimately run-dependent.
fn zero_elapsed(text: &str) -> String {
    let mut out = String::new();
    let needle = "\"elapsed_ms\":";
    for line in text.lines() {
        if let Some(pos) = line.find(needle) {
            let start = pos + needle.len();
            let end = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |e| start + e);
            out.push_str(&line[..start]);
            out.push('0');
            out.push_str(&line[end..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Byte-identity: tracing is pure telemetry. The daemon's cache
/// segment must match a tracing-off in-process run modulo wall-clock
/// `elapsed_ms`, and merged verdict lines from a traced batch run must
/// be byte-identical to an untraced one. Neither artifact may so much
/// as mention traces.
#[test]
fn trace_ids_never_reach_cache_segments_or_merged_output() {
    let _serial = lock_serial();
    let contracts = composite_contracts(3);
    let config = ethainter::Config::default();

    // Daemon run (tracing on: trace id == job id for every worker).
    let dir_daemon = tmp_dir("ident-daemon");
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir_daemon.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    for (i, code) in contracts.iter().enumerate() {
        let accepted = submit(&addr, code, &format!("ident-{i}"));
        let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, "done");
    }
    handle.shutdown();
    let daemon_segment =
        std::fs::read_to_string(dir_daemon.join("segment.jsonl")).expect("daemon wrote a segment");

    // Reference run: the same contracts through the shared cache with
    // no trace context anywhere near it.
    let dir_ref = tmp_dir("ident-ref");
    let reference = store::SharedCache::open(&dir_ref).unwrap();
    for code in &contracts {
        let key = store::cache_key(code, &config);
        let code = code.clone();
        reference.get_or_compute(key, move || store::CachedResult {
            status: driver::analyze_one(&code, &config),
            elapsed_ms: 0,
        });
    }
    drop(reference);
    let ref_segment =
        std::fs::read_to_string(dir_ref.join("segment.jsonl")).expect("reference wrote a segment");

    assert_eq!(
        zero_elapsed(&daemon_segment),
        zero_elapsed(&ref_segment),
        "cache segments must be byte-identical modulo wall-clock elapsed_ms"
    );
    assert!(
        !daemon_segment.contains("trace"),
        "trace ids are telemetry-only; the segment must never mention them"
    );

    // Merged verdict lines: a batch run under a retained trace vs one
    // with no tracing at all.
    let inputs: Vec<(String, Vec<u8>)> =
        contracts.iter().enumerate().map(|(i, c)| (format!("m-{i}"), c.clone())).collect();
    let merged = |outcomes: &[driver::Outcome]| -> String {
        outcomes
            .iter()
            .map(|o| serde_json::to_string(&store::VerdictRecord::from_outcome(o)).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let traced = {
        let id = telemetry::trace::mint();
        telemetry::trace::retain(id);
        let _ctx = telemetry::trace::root(id);
        let batch = driver::analyze_batch(
            inputs.clone(),
            &driver::DriverConfig::default(),
            &config,
        );
        telemetry::trace::discard(id);
        merged(&batch.outcomes)
    };
    let untraced = {
        let batch =
            driver::analyze_batch(inputs, &driver::DriverConfig::default(), &config);
        merged(&batch.outcomes)
    };
    assert_eq!(traced, untraced, "merged verdicts are identical with tracing on or off");
    assert!(!traced.contains("trace"), "merged output must never mention traces");

    let _ = std::fs::remove_dir_all(&dir_daemon);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Registry eviction: with `--max-done 2`, the oldest completed
/// records age out FIFO — their status *and* trace routes answer
/// `410 Gone`, the eviction counter ticks, and recent jobs still serve.
#[test]
fn evicted_jobs_answer_410_on_status_and_trace_routes() {
    let _serial = lock_serial();
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_done: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let contracts = composite_contracts(4);
    let evicted_before = counter("ethainter_server_jobs_evicted_total");

    let mut ids = Vec::new();
    for (i, code) in contracts.iter().enumerate() {
        let accepted = submit(&addr, code, &format!("evict-{i}"));
        let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, "done");
        ids.push(accepted.id);
    }

    // 4 completions against a bound of 2: the first two aged out.
    assert_eq!(counter("ethainter_server_jobs_evicted_total") - evicted_before, 2);
    for old in &ids[..2] {
        for route in [format!("/jobs/{old}"), format!("/jobs/{old}/trace")] {
            let resp = client::request(&addr, "GET", &route, None).unwrap();
            assert_eq!(resp.status, 410, "evicted job must answer 410 on {route}: {}", resp.body);
            let err: api::ErrorBody = serde_json::from_str(&resp.body).unwrap();
            assert!(err.error.contains("evicted"), "{}", err.error);
        }
    }
    for recent in &ids[2..] {
        let resp = client::request(&addr, "GET", &format!("/jobs/{recent}"), None).unwrap();
        assert_eq!(resp.status, 200, "recent jobs stay served: {}", resp.body);
        let trace =
            client::request(&addr, "GET", &format!("/jobs/{recent}/trace"), None).unwrap();
        assert_eq!(trace.status, 200);
    }
    // An id never issued is 404, not 410.
    let never = client::request(&addr, "GET", "/jobs/00000000deadbeef", None).unwrap();
    assert_eq!(never.status, 404);

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
}

/// A contract heavy enough to dwarf everything else this test binary
/// analyzes: the slow-job detector compares against the live p99, so
/// the induced outlier must dominate whatever history exists.
fn big_contract() -> Vec<u8> {
    let mut src = String::from("contract Big { address owner; uint acc; mapping(address => uint) bal;\n");
    for i in 0..150 {
        src.push_str(&format!(
            "function f{i}(uint v) public {{ acc = acc + v * 0x{i:x} + acc; bal[msg.sender] = acc + v; }}\n"
        ));
    }
    src.push_str(
        "function claim(address who) public { owner = who; }
         function kill() public { require(msg.sender == owner); selfdestruct(msg.sender); } }",
    );
    minisol::compile_source(&src).unwrap().bytecode
}

/// The event feed end-to-end: lifecycle events are served over
/// `GET /events`, a `since=` cursor long-polls and wakes on the next
/// emission, and a job far above the live p99 emits `slow_job` with a
/// phase breakdown under its own trace id.
#[test]
fn events_feed_serves_lifecycle_long_poll_and_slow_jobs() {
    let _serial = lock_serial();
    let seq_boot = telemetry::events::latest_event_seq();
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Lifecycle: startup emitted an event newer than our cursor.
    let resp = client::request(
        &addr,
        "GET",
        &format!("/events?since={seq_boot}&wait_ms=2000"),
        None,
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let feed: api::EventsBody = serde_json::from_str(&resp.body).unwrap();
    assert!(
        feed.events.iter().any(|e| e.message == "server_started"),
        "the feed carries the startup event: {}",
        resp.body
    );
    assert!(feed.latest > seq_boot);

    // Long-poll: a reader parked on the current cursor wakes when the
    // next event lands, well before its 10s window lapses.
    let cursor = telemetry::events::latest_event_seq();
    let poll = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::request(
                &addr,
                "GET",
                &format!("/events?since={cursor}&wait_ms=10000"),
                None,
            )
            .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let woke = std::time::Instant::now();
    telemetry::events::emit(
        telemetry::events::Severity::Info,
        "long_poll_wakeup",
        None,
        vec![],
    );
    let resp = poll.join().unwrap();
    assert!(woke.elapsed() < Duration::from_secs(8), "the poll must wake, not time out");
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("long_poll_wakeup"), "{}", resp.body);

    // Slow job: seed enough latency history for the p99 gate, then
    // push one contract that dwarfs it.
    let tiny = composite_contracts(17);
    for (i, code) in tiny.iter().enumerate() {
        let accepted = submit(&addr, code, &format!("hist-{i}"));
        let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, "done");
    }
    let seq_before_big = telemetry::events::latest_event_seq();
    let accepted = submit(&addr, &big_contract(), "the-slow-one");
    let done = client::await_job(&addr, &accepted.id, Duration::from_secs(120)).unwrap();
    assert_eq!(done.state, "done");

    let resp = client::request(
        &addr,
        "GET",
        &format!("/events?since={seq_before_big}&wait_ms=2000"),
        None,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let feed: api::EventsBody = serde_json::from_str(&resp.body).unwrap();
    let slow = feed
        .events
        .iter()
        .find(|e| e.message == "slow_job")
        .expect("a job far above the live p99 must emit slow_job");
    assert_eq!(
        slow.trace,
        Some(TraceId::parse(&accepted.id).unwrap()),
        "the slow_job event names the offending job's trace"
    );
    assert_eq!(slow.severity.as_str(), "warn");
    let field = |name: &str| slow.fields.iter().find(|(k, _)| k == name);
    assert!(field("total_ms").is_some(), "slow_job carries the total");
    assert!(field("fixpoint_us").is_some(), "slow_job carries the phase breakdown");

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
}

/// Job ids come from one process-wide sequence: the trace store is
/// global to the process, so a second server must not restart at id 1
/// and inherit the spans (and `server.job` root) an earlier server left
/// under that id.
#[test]
fn servers_started_one_after_another_never_share_a_job_trace() {
    let _serial = lock_serial();
    let code = &composite_contracts(1)[0];
    let mut ids = Vec::new();
    for round in 0..2 {
        let handle = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let accepted = submit(&addr, code, &format!("sequential-{round}"));
        let done = client::await_job(&addr, &accepted.id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.state, "done");
        let resp =
            client::request(&addr, "GET", &format!("/jobs/{}/trace", accepted.id), None).unwrap();
        assert_eq!(resp.status, 200, "trace route must answer: {}", resp.body);
        let trace: api::TraceBody = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(trace.spans.len(), 1, "server {round}: one root per job trace");
        assert_eq!(trace.spans[0].name, "server.job");
        ids.push(accepted.id);
        assert!(handle.shutdown().drained_cleanly);
    }
    assert_ne!(ids[0], ids[1], "a later server must not reuse an earlier server's job id");
}
