//! The std-only HTTP/1.1 study server: `std::net::TcpListener`, one thread
//! per connection, routing onto the [`Scheduler`].
//!
//! # Endpoints
//!
//! | Method & path                  | Purpose |
//! |--------------------------------|---------|
//! | `POST /studies`                | Submit a study spec (full or shortcut form; see [`crate::api`]). Tenant from the `X-Tenant` header (default `anon`). `202` with `{"job":…}`; `429` when the queue rejects. |
//! | `GET /studies/{id}`            | One status + progress snapshot, plus the submitting request's id and the job's scoped counter snapshot (`"metrics"`, empty until the job runs or when metrics are off). |
//! | `GET /studies/{id}/progress`   | Same snapshot; with `?stream=1`, a close-delimited JSONL stream of snapshots until the job settles. |
//! | `GET /studies/{id}/result`     | Block (up to `?wait_ms`, default 10 min) for the result. `200` with the records JSONL on success — byte-identical to the CLI run of the same spec; `202` while still running; `410` for cancelled/shed; `500` for failed. |
//! | `POST /studies/{id}/cancel`    | Cooperative cancel. |
//! | `GET /metrics`                 | Prometheus text exposition of the whole obs registry (counters, gauges, histograms, live per-job scoped series as labels). |
//! | `GET /stats`                   | Scheduler state (`queue_depth`, `in_flight`, per-worker `deque_lens`, lifetime `tenants_served`) + global obs counters + progress counts. |
//! | `GET /healthz`                 | Liveness probe. |
//!
//! Every exchange is one request, one response, connection closed — no
//! keep-alive state to manage across tenants.
//!
//! # Limits
//!
//! The accept loop blocks in `accept` and hands each connection to its own
//! handler thread. At most [`MAX_CONNECTIONS`] handlers run at once; a
//! connection beyond that is answered `503` by the accept thread itself and
//! closed. The server keeps only the
//! [`RETAINED_SETTLED`](crate::scheduler::RETAINED_SETTLED) (1024) most recently
//! settled jobs: older ids answer `404` on every `/studies/{id}` endpoint, like
//! an id that never existed. Queued and running jobs are always kept.
//!
//! # Observability
//!
//! Each request gets a request id — the inbound `X-Request-Id` header when
//! present, else a generated `req-{n}` — which is recorded on submitted jobs
//! and echoed in their views. With tracing on, every request opens an
//! `http.request` span and submitted jobs parent their root span under it,
//! so one submission produces a single span tree from socket accept down to
//! the deepest execution shard. With a sink installed, each request also
//! emits (and flushes) one `{"type":"access",…}` JSONL line. With metrics
//! on, per-endpoint status-class counters (`http_requests_{endpoint}_{class}`)
//! and the `http_request_us` latency histogram tick, as do
//! `http_connections_rejected` (the connection cap) and `http_accept_errors`.
//! Accepted connections carry read/write timeouts
//! ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`]) so a
//! stalled client cannot pin a handler thread forever.

use crate::api;
use crate::http::{read_request, write_response, write_stream_head, Request};
use crate::sched::SchedConfig;
use crate::scheduler::{JobPhase, JobView, SchedStats, Scheduler, SubmitError};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::ProgressSnapshot;
use hammervolt_obs::{counter_add, histogram_record, metrics, prometheus, Span};
use std::io::{self, BufReader, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest gap between two snapshots on a progress stream while the job
/// runs; the terminal snapshot goes out as soon as the job settles.
const STREAM_TICK: Duration = Duration::from_millis(25);

/// Most connections handled at once; the accept thread answers `503` to any
/// connection beyond it.
pub const MAX_CONNECTIONS: usize = 256;

/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long shutdown waits for its wake-up connection to the listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Default cap on how long `/result` blocks before answering `202`.
const DEFAULT_WAIT: Duration = Duration::from_secs(600);

/// Everything the server needs: scheduler sizing and the execution-engine
/// template shared by all jobs (cache directory, per-job worker count,
/// checkpoint policy).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler sizing and overflow policy.
    pub sched: SchedConfig,
    /// Engine configuration every job runs under.
    pub exec: ExecConfig,
    /// Per-read socket timeout on accepted connections (`None` blocks
    /// forever). Bounds how long a slow or silent client can hold a handler
    /// thread while sending its request.
    pub read_timeout: Option<Duration>,
    /// Per-write socket timeout on accepted connections (`None` blocks
    /// forever). Bounds a client that accepts the connection but never
    /// drains the response.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            sched: SchedConfig::default(),
            exec: ExecConfig::default(),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Monotonic source for generated request ids (`req-{n}`).
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// A running study server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting connections and drains the scheduler.
pub struct Server {
    addr: SocketAddr,
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the accept
    /// loop and scheduler workers.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the listener.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let timeouts = (config.read_timeout, config.write_timeout);
        let sched = Arc::new(Scheduler::start(config.sched, config.exec));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hv-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &sched, &stop, timeouts))
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            sched,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind the server (for in-process inspection in
    /// tests).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Stops accepting connections, then drains and joins the scheduler
    /// workers.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    /// Sets the stop flag, then wakes the accept thread out of its blocking
    /// `accept` with one connection of its own and joins it. Should the wake
    /// connection fail, the thread is left to exit on the next connection it
    /// accepts rather than hanging the caller (and `Drop`) in `join`.
    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.accept.take() else {
            return;
        };
        if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
        // The scheduler's own Drop drains workers once the last Arc (accept
        // loop joined above; handler threads are short-lived) releases.
    }
}

/// The address shutdown connects to in order to wake the accept thread: the
/// bound address, with an unspecified IP (`0.0.0.0`, `[::]`) replaced by the
/// loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// One live handler thread's claim on the connection cap; released on drop,
/// including when the thread fails to spawn and drops its closure.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(
    listener: &TcpListener,
    sched: &Arc<Scheduler>,
    stop: &Arc<AtomicBool>,
    timeouts: (Option<Duration>, Option<Duration>),
) {
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                counter_add!("http_accept_errors", 1);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let _ = stream.set_read_timeout(timeouts.0);
        let _ = stream.set_write_timeout(timeouts.1);
        // Only this thread increments, so the check and the claim below
        // cannot race past the cap.
        if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
            counter_add!("http_connections_rejected", 1);
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                "application/json",
                api::error_body("too many connections").as_bytes(),
            );
            continue;
        }
        live.fetch_add(1, Ordering::Relaxed);
        let slot = Slot(Arc::clone(&live));
        let sched = Arc::clone(sched);
        let _ = std::thread::Builder::new()
            .name("hv-serve-conn".to_string())
            .spawn(move || {
                let _slot = slot;
                let _ = handle_connection(&sched, stream);
            });
    }
}

fn handle_connection(sched: &Scheduler, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let started = Instant::now();
    let request = match read_request(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) => {
            let rid = next_request_id();
            let result = write_response(
                &mut out,
                400,
                "Bad Request",
                "application/json",
                api::error_body(&e.to_string()).as_bytes(),
            );
            finish_request("bad_request", "?", "?", "anon", &rid, 400, started);
            return result;
        }
    };
    let rid = request
        .header("x-request-id")
        .filter(|v| !v.is_empty())
        .map_or_else(next_request_id, str::to_string);
    let tenant = request.header("x-tenant").unwrap_or("anon").to_string();
    let mut span = Span::begin("http.request");
    span.field_str("method", &request.method);
    span.field_str("path", &request.path);
    span.field_str("request_id", &rid);
    let result = route(sched, &request, &mut out, span.id(), &rid);
    drop(span);
    // An Err here means the socket died mid-response; log it as status 0 so
    // the access log still accounts for the request.
    let status = *result.as_ref().unwrap_or(&0);
    finish_request(
        endpoint_label(&request.method, &request.path),
        &request.method,
        &request.path,
        &tenant,
        &rid,
        status,
        started,
    );
    result.map(|_| ())
}

fn next_request_id() -> String {
    format!("req-{}", REQUEST_SEQ.fetch_add(1, Ordering::Relaxed) + 1)
}

/// The bounded per-endpoint label used in metric names — one label per
/// route, never derived from raw client input.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/stats") => "stats",
        ("GET", "/metrics") => "metrics",
        ("POST", "/studies") => "submit",
        (method, path) => match (method, study_target(path).map(|(_, action)| action)) {
            ("GET", Some(None)) => "status",
            ("GET", Some(Some("progress"))) => "progress",
            ("GET", Some(Some("result"))) => "result",
            ("POST", Some(Some("cancel"))) => "cancel",
            _ => "other",
        },
    }
}

/// Per-request bookkeeping: status-class counter, latency histogram, and one
/// flushed `{"type":"access",…}` JSONL line through the installed sink.
fn finish_request(
    endpoint: &str,
    method: &str,
    path: &str,
    tenant: &str,
    request_id: &str,
    status: u16,
    started: Instant,
) {
    let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    if hammervolt_obs::metrics_enabled() {
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            500..=599 => "5xx",
            _ => "err",
        };
        metrics::counter_named(&format!("http_requests_{endpoint}_{class}")).add(1);
        histogram_record!("http_request_us", dur_us);
    }
    if hammervolt_obs::sink_installed() {
        let line = format!(
            "{{\"type\":\"access\",\"t_us\":{},\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"dur_us\":{},\"request_id\":\"{}\",\"tenant\":\"{}\"}}",
            hammervolt_obs::epoch_us(),
            api::json_escape(method),
            api::json_escape(path),
            status,
            dur_us,
            api::json_escape(request_id),
            api::json_escape(tenant),
        );
        hammervolt_obs::emit_event(&line);
        // One flush per request: the serve process is typically killed by
        // signal, and buffered access lines would vanish with it.
        hammervolt_obs::flush_sink();
    }
}

/// Splits `/studies/{id}[/{action}]` into the id and optional action.
fn study_target(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/studies/")?;
    let (id_part, action) = match rest.split_once('/') {
        Some((id, action)) => (id, Some(action)),
        None => (rest, None),
    };
    id_part.parse().ok().map(|id| (id, action))
}

/// Dispatches one request; every handler returns the HTTP status it wrote so
/// the caller can attribute counters and the access log.
fn route(
    sched: &Scheduler,
    req: &Request,
    out: &mut TcpStream,
    trace_parent: u64,
    request_id: &str,
) -> io::Result<u16> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            write_response(out, 200, "OK", "application/json", b"{\"ok\":true}")?;
            Ok(200)
        }
        ("GET", "/metrics") => {
            let body = prometheus::render();
            write_response(out, 200, "OK", "text/plain; version=0.0.4", body.as_bytes())?;
            Ok(200)
        }
        ("GET", "/stats") => {
            let body = stats_body(sched);
            write_response(out, 200, "OK", "application/json", body.as_bytes())?;
            Ok(200)
        }
        ("POST", "/studies") => submit(sched, req, out, trace_parent, request_id),
        (method, path) => {
            if let Some((id, action)) = study_target(path) {
                return match (method, action) {
                    ("GET", None) => status(sched, id, out),
                    ("GET", Some("progress")) => progress(sched, req, id, out),
                    ("GET", Some("result")) => result(sched, req, id, out),
                    ("POST", Some("cancel")) => cancel(sched, id, out),
                    _ => not_found(out),
                };
            }
            not_found(out)
        }
    }
}

fn not_found(out: &mut TcpStream) -> io::Result<u16> {
    write_response(
        out,
        404,
        "Not Found",
        "application/json",
        api::error_body("no such resource").as_bytes(),
    )?;
    Ok(404)
}

fn submit(
    sched: &Scheduler,
    req: &Request,
    out: &mut TcpStream,
    trace_parent: u64,
    request_id: &str,
) -> io::Result<u16> {
    let spec = match api::parse_spec(&req.body) {
        Ok(spec) => spec,
        Err(msg) => {
            write_response(
                out,
                400,
                "Bad Request",
                "application/json",
                api::error_body(&msg).as_bytes(),
            )?;
            return Ok(400);
        }
    };
    let tenant = req.header("x-tenant").unwrap_or("anon").to_string();
    match sched.submit_with(&tenant, spec, request_id, trace_parent) {
        Ok(id) => {
            let view = sched.view(id);
            let state = view.map_or("queued".to_string(), |v| v.phase.label().to_string());
            let hash = sched.view(id).map_or(0, |v| v.spec_hash);
            let body = format!(
                "{{\"job\":{id},\"spec_hash\":\"{hash:016x}\",\"state\":\"{state}\",\"request_id\":\"{}\"}}",
                api::json_escape(request_id)
            );
            write_response(out, 202, "Accepted", "application/json", body.as_bytes())?;
            Ok(202)
        }
        Err(SubmitError::QueueFull) => {
            write_response(
                out,
                429,
                "Too Many Requests",
                "application/json",
                api::error_body("queue full").as_bytes(),
            )?;
            Ok(429)
        }
        Err(SubmitError::ShuttingDown) => {
            write_response(
                out,
                503,
                "Service Unavailable",
                "application/json",
                api::error_body("shutting down").as_bytes(),
            )?;
            Ok(503)
        }
    }
}

fn view_body(view: &JobView) -> String {
    let mut body = format!(
        "{{\"job\":{},\"spec_hash\":\"{:016x}\",\"state\":\"{}\",\"subscribers\":{},\"request_id\":\"{}\",\"progress\":{}",
        view.id,
        view.spec_hash,
        view.phase.label(),
        view.subscribers,
        api::json_escape(&view.request_id),
        progress_body(&view.progress),
    );
    body.push_str(",\"metrics\":{");
    for (i, (name, value)) in view.metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\":{value}", api::json_escape(name)));
    }
    body.push('}');
    if let JobPhase::Failed(msg) = &view.phase {
        body.push_str(&format!(",\"error\":\"{}\"", api::json_escape(msg)));
    }
    body.push('}');
    body
}

fn progress_body(p: &ProgressSnapshot) -> String {
    serde_json::to_string(p).expect("snapshot serializes")
}

fn status(sched: &Scheduler, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    match sched.view(id) {
        Some(view) => {
            write_response(
                out,
                200,
                "OK",
                "application/json",
                view_body(&view).as_bytes(),
            )?;
            Ok(200)
        }
        None => not_found(out),
    }
}

fn progress(sched: &Scheduler, req: &Request, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    if req.query_param("stream") != Some("1") {
        return status(sched, id, out);
    }
    let Some(mut view) = sched.view(id) else {
        return not_found(out);
    };
    // Close-delimited JSONL stream: one snapshot per tick while the job
    // runs, then the terminal snapshot as soon as it settles, then the
    // connection closes.
    write_stream_head(out, "application/x-ndjson")?;
    loop {
        writeln!(out, "{}", view_body(&view))?;
        out.flush()?;
        if view.phase.is_settled() {
            return Ok(200);
        }
        match sched.wait(id, STREAM_TICK) {
            Some((v, _)) => view = v,
            None => return Ok(200),
        }
    }
}

fn result(sched: &Scheduler, req: &Request, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    let wait = req
        .query_param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(DEFAULT_WAIT, Duration::from_millis);
    let Some((view, output)) = sched.wait(id, wait) else {
        return not_found(out);
    };
    match (&view.phase, output) {
        (JobPhase::Done, Some(output)) => {
            write_response(
                out,
                200,
                "OK",
                "application/x-ndjson",
                output.records_jsonl.as_bytes(),
            )?;
            Ok(200)
        }
        (JobPhase::Failed(msg), _) => {
            write_response(
                out,
                500,
                "Internal Server Error",
                "application/json",
                api::error_body(msg).as_bytes(),
            )?;
            Ok(500)
        }
        (JobPhase::Cancelled, _) => {
            write_response(
                out,
                410,
                "Gone",
                "application/json",
                api::error_body("job was cancelled").as_bytes(),
            )?;
            Ok(410)
        }
        (JobPhase::Shed, _) => {
            write_response(
                out,
                410,
                "Gone",
                "application/json",
                api::error_body("job was shed from the queue; resubmit").as_bytes(),
            )?;
            Ok(410)
        }
        _ => {
            write_response(
                out,
                202,
                "Accepted",
                "application/json",
                view_body(&view).as_bytes(),
            )?;
            Ok(202)
        }
    }
}

fn cancel(sched: &Scheduler, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    if sched.cancel(id) {
        write_response(out, 200, "OK", "application/json", b"{\"cancelled\":true}")?;
        Ok(200)
    } else {
        not_found(out)
    }
}

/// `{"scheduler":{…},"counters":{…},"progress":{…}}`: scheduler-derived
/// numbers read under the scheduling lock (`queue_depth` — queued and
/// unclaimed; `in_flight` — claimed, still running; `deque_lens` — queued
/// length per worker deque; `tenants_served` — jobs claimed per tenant over
/// the scheduler's lifetime), then the global obs counters the run manifest
/// reports and the live progress counts.
fn stats_body(sched: &Scheduler) -> String {
    let stats: SchedStats = sched.stats();
    let counters = hammervolt_obs::metrics::counters_snapshot();
    let progress = hammervolt_obs::progress::snapshot();
    let mut body = format!(
        "{{\"scheduler\":{{\"queue_depth\":{},\"in_flight\":{},\"deque_lens\":[",
        stats.queue_depth, stats.in_flight
    );
    for (i, len) in stats.deque_lens.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&len.to_string());
    }
    body.push_str("],\"tenants_served\":{");
    for (i, (tenant, served)) in stats.tenants_served.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\":{served}", api::json_escape(tenant)));
    }
    body.push_str("}},\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{}\":{value}", api::json_escape(name)));
    }
    body.push_str(&format!(
        "}},\"progress\":{{\"modules_done\":{},\"modules_total\":{},\"units_done\":{},\"units_total\":{},\"cache_hits\":{},\"cache_misses\":{}}}}}",
        progress.modules_done,
        progress.modules_total,
        progress.units_done,
        progress.units_total,
        progress.cache_hits,
        progress.cache_misses,
    ));
    body
}
