//! End-to-end conformance for the study server: concurrent HTTP clients
//! with overlapping specs get byte-identical results to serial engine runs,
//! identical in-flight specs share one execution, cancel-then-resubmit
//! resumes from chunk checkpoints, queue and connection bounds reject as
//! configured, only the most recent settled jobs are retained, and shutdown
//! never hangs on the blocking accept.
//!
//! The client side is a deliberately tiny hand-rolled HTTP/1.1 exchange over
//! `std::net::TcpStream` (one request, read to close) — the same strict
//! subset the server speaks.

use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_serve::{
    JobPhase, OverflowPolicy, SchedConfig, Server, ServerConfig, MAX_CONNECTIONS, RETAINED_SETTLED,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("testkit-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(module: ModuleId, rows_per_chunk: u32) -> JobSpec {
    JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk,
            modules: vec![module],
            ..StudyConfig::smoke()
        },
    }
}

/// One HTTP exchange: send, read to close, split status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..header_end]).expect("UTF-8 headers");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, raw[header_end + 4..].to_vec())
}

/// Extracts the first `"key":<digits>` value from a JSON body.
fn json_u64(body: &[u8], key: &str) -> u64 {
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key:?} in {text}"))
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> u64 {
    let body = serde_json::to_string(spec).expect("spec serializes");
    let (status, reply) = http(addr, "POST", "/studies", &body);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    json_u64(&reply, "job")
}

fn server(tag: &str, workers: usize, checkpoints: bool) -> (Server, PathBuf) {
    let dir = temp_dir(tag);
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    }
    .with_checkpoints(checkpoints);
    let config = ServerConfig {
        sched: SchedConfig {
            workers,
            ..SchedConfig::default()
        },
        exec,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind ephemeral port");
    (server, dir)
}

#[test]
fn concurrent_clients_get_results_byte_identical_to_serial_runs() {
    let specs = [small_spec(ModuleId::B3, 2), small_spec(ModuleId::B0, 2)];
    let serial: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            s.run(&ExecConfig::serial(), &JobControl::new())
                .expect("serial reference run")
                .records_jsonl
                .into_bytes()
        })
        .collect();

    let (server, dir) = server("clients", 2, false);
    let addr = server.addr();
    // Six clients, three per spec, submitted concurrently: between dedup
    // and the sweep cache the server may run each spec only once, but every
    // client must still receive the full, exact byte stream.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let spec = specs[i % 2].clone();
            std::thread::spawn(move || {
                let job = submit(addr, &spec);
                let (status, body) = http(
                    addr,
                    "GET",
                    &format!("/studies/{job}/result?wait_ms=120000"),
                    "",
                );
                assert_eq!(status, 200, "result: {}", String::from_utf8_lossy(&body));
                (i % 2, body)
            })
        })
        .collect();
    for handle in handles {
        let (which, body) = handle.join().expect("client thread");
        assert_eq!(
            body, serial[which],
            "HTTP result diverged from the serial engine run"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_inflight_specs_share_one_execution() {
    let (server, dir) = server("dedup", 1, false);
    let addr = server.addr();
    let spec = small_spec(ModuleId::B1, 2);

    let first = submit(addr, &spec);
    // Submitted again while queued or running: the server must answer with
    // the *same* job rather than scheduling a second execution.
    let second = submit(addr, &spec);
    assert_eq!(first, second, "identical in-flight specs must dedup");
    let (status, view) = http(addr, "GET", &format!("/studies/{first}"), "");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&view, "subscribers"), 2);

    let (s1, b1) = http(
        addr,
        "GET",
        &format!("/studies/{first}/result?wait_ms=120000"),
        "",
    );
    let (s2, b2) = http(
        addr,
        "GET",
        &format!("/studies/{second}/result?wait_ms=120000"),
        "",
    );
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "both waiters see the one execution's bytes");

    // Once settled the dedup slot is released — a resubmission is a *new*
    // job (served instantly from the sweep cache).
    let third = submit(addr, &spec);
    assert_ne!(third, first, "settled specs must not dedup");
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{third}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(body, b1);
    let (_, view) = http(addr, "GET", &format!("/studies/{third}"), "");
    assert_eq!(
        json_u64(&view, "units_executed"),
        0,
        "warm resubmission must be served from cache without re-executing"
    );
    assert_eq!(json_u64(&view, "cache_hits"), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_then_resubmit_resumes_from_chunk_checkpoints() {
    let (server, dir) = server("resume", 1, true);
    let addr = server.addr();
    let spec = small_spec(ModuleId::B2, 2);

    let job = submit(addr, &spec);
    // Wait until at least one unit has checkpointed, then cancel.
    loop {
        let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
        if json_u64(&view, "units_done") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (status, _) = http(addr, "POST", &format!("/studies/{job}/cancel"), "");
    assert_eq!(status, 200);
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(
        status,
        410,
        "cancelled job's result is gone: {}",
        String::from_utf8_lossy(&body)
    );
    let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
    let finished_units = json_u64(&view, "units_done");
    let total_units = json_u64(&view, "units_total");
    assert!(finished_units >= 1);
    assert!(
        finished_units < total_units,
        "cancel must land mid-sweep ({finished_units}/{total_units})"
    );

    // Resubmit: a fresh job restores the finished chunks and re-runs only
    // the rest, and its bytes match a clean serial run.
    let retry = submit(addr, &spec);
    assert_ne!(retry, job);
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{retry}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);
    let clean = spec
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("clean reference run");
    assert_eq!(body, clean.records_jsonl.into_bytes());
    let (_, view) = http(addr, "GET", &format!("/studies/{retry}"), "");
    assert_eq!(json_u64(&view, "checkpoint_hits"), finished_units);
    assert_eq!(
        json_u64(&view, "units_executed"),
        total_units - finished_units,
        "resume may re-run only unfinished chunks"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_bound_rejects_with_429() {
    let dir = temp_dir("bound");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 1,
            queue_capacity: 1,
            overflow: OverflowPolicy::Reject,
        },
        exec,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let running = submit(addr, &small_spec(ModuleId::B3, 2));
    // Wait for the worker to claim it so it stops counting against the
    // queue bound.
    loop {
        let (_, view) = http(addr, "GET", &format!("/studies/{running}"), "");
        if !String::from_utf8_lossy(&view).contains("\"state\":\"queued\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _queued = submit(addr, &small_spec(ModuleId::B0, 2));
    let body = serde_json::to_string(&small_spec(ModuleId::B1, 2)).unwrap();
    let (status, reply) = http(addr, "POST", "/studies", &body);
    assert_eq!(
        status,
        429,
        "over-bound submission must be rejected: {}",
        String::from_utf8_lossy(&reply)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extracts the first `"key":"string"` value from a JSON body.
fn json_str(body: &[u8], key: &str) -> String {
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    let needle = format!("\"{key}\":\"");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no string {key:?} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

/// Serializes the tests that flip the process-wide metrics flag, so one
/// cannot disable metrics mid-way through another's run.
static METRICS_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Two concurrent jobs each get their own metric scope: the scoped counter
/// snapshot in `GET /studies/{id}` reflects only that job's execution, even
/// though both ran in the same process at the same time with global metrics
/// on.
#[test]
fn scoped_counters_do_not_bleed_between_concurrent_jobs() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hammervolt_obs::set_metrics(true);
    let (server, dir) = server("scoped", 2, false);
    let addr = server.addr();
    // Different unit and module counts so attribution errors are visible in
    // either direction: one module vs two.
    let spec_a = small_spec(ModuleId::B3, 2);
    let spec_b = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            modules: vec![ModuleId::B0, ModuleId::B1],
            ..StudyConfig::smoke()
        },
    };
    let job_a = submit(addr, &spec_a);
    let job_b = submit(addr, &spec_b);
    for job in [job_a, job_b] {
        let (status, _) = http(
            addr,
            "GET",
            &format!("/studies/{job}/result?wait_ms=120000"),
            "",
        );
        assert_eq!(status, 200);
    }
    let (_, view_a) = http(addr, "GET", &format!("/studies/{job_a}"), "");
    let (_, view_b) = http(addr, "GET", &format!("/studies/{job_b}"), "");
    let units_a = json_u64(&view_a, "units_total");
    let units_b = json_u64(&view_b, "units_total");
    assert_ne!(units_a, units_b, "specs must differ in unit count");
    // exec_units/exec_modules appear only in the scoped "metrics" object
    // (progress uses the units_* names), so a first-match scan is safe.
    for (view, units, modules) in [(&view_a, units_a, 1), (&view_b, units_b, 2)] {
        assert_eq!(
            json_u64(view, "exec_units"),
            units,
            "scoped exec_units must equal the job's own unit count: {}",
            String::from_utf8_lossy(view)
        );
        assert_eq!(json_u64(view, "exec_modules"), modules);
    }
    hammervolt_obs::set_metrics(false);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /metrics` answers with parseable Prometheus text exposition carrying
/// the scheduler gauges and per-job scoped series, and `GET /stats` reports
/// the scheduler-derived numbers.
#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hammervolt_obs::set_metrics(true);
    let (server, dir) = server("metrics", 1, false);
    let addr = server.addr();
    let job = submit(addr, &small_spec(ModuleId::B1, 2));
    let (status, _) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("exposition is UTF-8");
    for needle in [
        "# TYPE sched_queue_depth gauge",
        "# TYPE sched_inflight gauge",
        "# TYPE http_request_us histogram",
        "http_request_us_bucket{le=\"+Inf\"}",
        &format!("exec_units{{job_id=\"{job}\",sweep_kind=\"hammer\",tenant=\"anon\"}}"),
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every sample line is `name[{labels}] value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<i64>().is_ok(),
            "non-integer sample value in {line:?}"
        );
    }

    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = String::from_utf8(stats).expect("stats is UTF-8");
    assert!(stats.contains("\"queue_depth\":0"), "stats: {stats}");
    assert!(stats.contains("\"in_flight\":0"), "stats: {stats}");
    assert!(stats.contains("\"anon\":1"), "tenants_served: {stats}");
    hammervolt_obs::set_metrics(false);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submissions carry the request id end to end: an inbound `X-Request-Id`
/// shows up in the submit reply and the job view; without one the server
/// generates a `req-{n}` id.
#[test]
fn request_ids_propagate_from_header_to_job_view() {
    let (server, dir) = server("reqid", 1, false);
    let addr = server.addr();
    let spec_body = serde_json::to_string(&small_spec(ModuleId::B2, 2)).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /studies HTTP/1.1\r\nHost: test\r\nX-Request-Id: trace-me-42\r\nContent-Length: {}\r\n\r\n{spec_body}",
        spec_body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("\"request_id\":\"trace-me-42\""), "{text}");
    let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let job = json_u64(&raw[body_at..], "job");

    let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
    assert_eq!(json_str(&view, "request_id"), "trace-me-42");

    // A plain submission gets a generated id.
    let job2 = submit(addr, &small_spec(ModuleId::B3, 2));
    let (_, view2) = http(addr, "GET", &format!("/studies/{job2}"), "");
    assert!(
        json_str(&view2, "request_id").starts_with("req-"),
        "generated id: {}",
        String::from_utf8_lossy(&view2)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An HTTP-submitted job produces one span tree: the submit request's
/// `http.request` span is the root, the job's `job.run` span parents under
/// it, and the engine's `exec.shard` spans are its descendants.
#[test]
fn submitted_jobs_trace_as_one_tree_rooted_at_the_request() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = std::sync::Arc::new(hammervolt_obs::MemorySink::new());
    hammervolt_obs::set_sink(Some(sink.clone()));
    hammervolt_obs::set_tracing(true);

    let (server, dir) = server("tree", 1, false);
    let addr = server.addr();
    let spec_body = serde_json::to_string(&small_spec(ModuleId::B2, 2)).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /studies HTTP/1.1\r\nHost: test\r\nX-Request-Id: tree-77\r\nContent-Length: {}\r\n\r\n{spec_body}",
        spec_body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let job = json_u64(&raw[body_at..], "job");
    let (status, _) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);

    hammervolt_obs::set_tracing(false);
    hammervolt_obs::set_sink(None);

    // Rebuild the span forest and walk shard spans up to the request root.
    let mut parents: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut root = 0u64;
    let mut job_span = 0u64;
    let mut shards: Vec<u64> = Vec::new();
    for line in sink.lines() {
        let v: serde::Value = serde_json::from_str(&line).expect("event line parses");
        if let (serde::Value::Str(kind), serde::Value::Int(id), serde::Value::Int(parent)) =
            (v.field("type"), v.field("id"), v.field("parent"))
        {
            if kind != "span" {
                continue;
            }
            let (id, parent) = (*id as u64, *parent as u64);
            parents.insert(id, parent);
            match v.field("name") {
                serde::Value::Str(name) if name == "http.request" => {
                    if matches!(v.field("request_id"), serde::Value::Str(r) if r == "tree-77") {
                        root = id;
                    }
                }
                serde::Value::Str(name) if name == "job.run" && parent != 0 => job_span = id,
                serde::Value::Str(name) if name == "exec.shard" => shards.push(id),
                _ => {}
            }
        }
    }
    assert_ne!(root, 0, "no http.request span for the tagged submit");
    assert_eq!(
        parents.get(&job_span),
        Some(&root),
        "job.run must parent under the submitting request"
    );
    let descends_from_root = |mut id: u64| {
        for _ in 0..64 {
            if id == root {
                return true;
            }
            id = parents.get(&id).copied().unwrap_or(0);
            if id == 0 {
                return false;
            }
        }
        false
    };
    assert!(
        shards.iter().any(|&s| descends_from_root(s)),
        "no exec.shard span descends from the request root"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and then goes silent is cut off by the read
/// timeout instead of pinning a handler thread forever.
#[test]
fn slow_clients_are_timed_out() {
    let dir = temp_dir("slow");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
        exec,
        read_timeout: Some(std::time::Duration::from_millis(100)),
        write_timeout: Some(std::time::Duration::from_millis(100)),
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: te").expect("send a partial request");
    // No more bytes: the server's read must time out and close (possibly
    // after answering 400 for the truncated request).
    let started = std::time::Instant::now();
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("server closes the connection");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "stalled request held the connection too long"
    );

    // The server is still healthy for well-behaved clients.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_submissions_and_unknown_jobs_are_clean_errors() {
    let (server, dir) = server("errors", 1, false);
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/studies", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/studies/424242", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/studies/424242/cancel", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The JSON parser stops at its nesting limit, so a body of 100 000 nested
/// `[` is an ordinary 400 rather than a stack overflow that aborts the
/// whole server.
#[test]
fn deeply_nested_submission_is_a_400_and_the_server_survives() {
    let (server, dir) = server("nested", 1, false);
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/studies", &"[".repeat(100_000));
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `?stream=1` sends JSONL snapshots until the job settles, ends with the
/// terminal snapshot, and closes the connection.
#[test]
fn progress_stream_ends_with_the_terminal_snapshot_and_closes() {
    let (server, dir) = server("stream", 1, false);
    let addr = server.addr();
    let job = submit(addr, &small_spec(ModuleId::B0, 2));
    // `http` reads until the server closes, so returning at all proves the
    // stream ends.
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/progress?stream=1"),
        "",
    );
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("stream is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines {
        let _: serde::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("snapshot {line:?} is not JSON: {e}"));
        assert_eq!(json_u64(line.as_bytes(), "job"), job);
    }
    let (last, earlier) = lines.split_last().expect("stream carried no snapshot");
    assert!(last.contains("\"state\":\"done\""), "last snapshot: {last}");
    assert!(
        earlier.iter().all(|l| !l.contains("\"state\":\"done\"")),
        "the stream must end at the first terminal snapshot: {text}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shuts `server` down on another thread and fails unless it finishes
/// within 2 s: the accept loop blocks in `accept`, so shutdown must wake it.
fn assert_prompt_shutdown(server: Server, what: &str) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
        "shutdown of {what} did not finish within 2 s"
    );
    handle.join().expect("shutdown thread panicked");
}

#[test]
fn shutdown_wakes_the_blocking_accept_on_any_bind_address() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for after_request in [false, true] {
            let config = ServerConfig {
                sched: SchedConfig {
                    workers: 1,
                    ..SchedConfig::default()
                },
                ..ServerConfig::default()
            };
            let server = Server::start(bind, config).expect("bind");
            if after_request {
                let port = server.addr().port();
                let (status, _) = http(
                    SocketAddr::from(([127, 0, 0, 1], port)),
                    "GET",
                    "/healthz",
                    "",
                );
                assert_eq!(status, 200);
            }
            let state = if after_request {
                "after a request"
            } else {
                "idle"
            };
            assert_prompt_shutdown(server, &format!("{bind} {state}"));
        }
    }
}

/// The server keeps the `RETAINED_SETTLED` most recent settled jobs: the
/// oldest beyond that answers 404 everywhere, the retained ones still
/// answer with the exact result bytes.
#[test]
fn only_the_most_recent_settled_jobs_are_retained() {
    let (server, dir) = server("retain", 1, false);
    let addr = server.addr();
    let spec = small_spec(ModuleId::B3, 2);
    let reference = spec
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("serial reference run")
        .records_jsonl
        .into_bytes();
    // A cold run fills the result cache; every job after it is a warm hit.
    let cold = submit(addr, &spec);
    let (status, _) = http(
        addr,
        "GET",
        &format!("/studies/{cold}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);
    let sched = server.scheduler();
    let warm: Vec<u64> = (0..=RETAINED_SETTLED)
        .map(|_| {
            // Each job settles before the next submit, so none dedup.
            let id = sched.submit("anon", spec.clone()).expect("queue has room");
            let (view, _) = sched
                .wait(id, Duration::from_secs(120))
                .expect("a just-submitted job is known");
            assert_eq!(view.phase, JobPhase::Done);
            id
        })
        .collect();
    let (first, second, newest) = (warm[0], warm[1], warm[RETAINED_SETTLED]);

    for path in [
        format!("/studies/{first}"),
        format!("/studies/{first}/result?wait_ms=0"),
    ] {
        let (status, _) = http(addr, "GET", &path, "");
        assert_eq!(status, 404, "{path} must be dropped");
    }
    let (status, _) = http(addr, "GET", &format!("/studies/{second}"), "");
    assert_eq!(status, 200, "the oldest of the retained jobs is kept");
    let (status, body) = http(addr, "GET", &format!("/studies/{newest}/result"), "");
    assert_eq!(status, 200);
    assert_eq!(
        body, reference,
        "retained result diverged from the serial run"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Beyond `MAX_CONNECTIONS` live handlers, the accept thread answers 503
/// and ticks `http_connections_rejected`; once the handlers are released
/// the server answers normally again.
#[test]
fn connections_beyond_the_cap_get_503() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hammervolt_obs::set_metrics(true);
    let rejected = || {
        hammervolt_obs::metrics::counters_snapshot()
            .into_iter()
            .find(|(name, _)| name == "http_connections_rejected")
            .map_or(0, |(_, n)| n)
    };
    let before = rejected();
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
        // Silent sockets hold their handler until this timeout, which must
        // outlast the connects below: a connect that overflows the listen
        // backlog waits out a SYN retransmit (1 s, then 3 s, ...). The test
        // releases the handlers itself by closing the sockets.
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    // Accepts are served in connect order, so all of these hold a handler
    // by the time the server accepts the one after them.
    let silent: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect silent socket"))
        .collect();
    let mut extra = TcpStream::connect(addr).expect("connect one more");
    let mut raw = Vec::new();
    extra.read_to_end(&mut raw).expect("read the rejection");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503 "), "over-cap reply: {text}");
    assert_eq!(rejected() - before, 1);
    hammervolt_obs::set_metrics(false);

    // Closing the silent sockets ends their handlers; the server recovers.
    drop(silent);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http(addr, "GET", "/healthz", "");
        if status == 200 {
            break;
        }
        assert_eq!(status, 503);
        assert!(Instant::now() < deadline, "server never left the cap");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
