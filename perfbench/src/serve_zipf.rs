//! The `serve_zipf` workload: an in-process study server driven over real
//! TCP by a closed loop of clients drawing catalog specs from a Zipf law.
//!
//! Set-up starts a fresh server (empty disk cache) and submits every
//! catalog spec once until its result returns; the priming responses are
//! the reference every later response must match byte for byte. The
//! catalog is larger than the server's 32-entry result LRU, so part of the
//! timed traffic falls through to the disk store.

use crate::digest;
use crate::host;
use crate::http;
use crate::layers;
use crate::probes;
use crate::report::Outcome;
use crate::spans::{within, Spans};
use crate::stats::{median, percentile};
use crate::zipf::{permutation, SplitMix64, Zipf};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_serve::{SchedConfig, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scheduler workers, each running jobs with one engine thread.
const WORKERS: usize = 2;
/// Concurrent clients, in set-up and in the timed loop.
const CLIENTS: usize = 2;
/// Timed requests per run at least, so p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Zipf exponent of the request mix.
const ZIPF_S: f64 = 1.1;
/// Modules per manufacturer in the catalog (of ten).
const MODULES_PER_MAKER: usize = 8;
/// Rows per chunk of the catalog's smoke-scale specs.
const ROWS: u32 = 2;
/// Set-ups measured in fresh child processes, besides the run's own.
const CHILD_SETUPS: usize = 2;

/// The catalog: smoke-scale single-module hammer, t_RCD and retention
/// specs at `seed`, as request bodies.
pub fn catalog(seed: u64) -> Vec<String> {
    let kinds = [
        SweepKind::Hammer,
        SweepKind::Trcd { levels_cap: 4 },
        SweepKind::Retention,
    ];
    ModuleId::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 10 < MODULES_PER_MAKER)
        .flat_map(|(_, &id)| {
            kinds.iter().map(move |kind| {
                let spec = JobSpec {
                    kind: kind.clone(),
                    config: StudyConfig {
                        modules: vec![id],
                        seed,
                        rows_per_chunk: ROWS,
                        ..StudyConfig::smoke()
                    },
                };
                serde_json::to_string(&spec).expect("JobSpec serializes")
            })
        })
        .collect()
}

/// A running server and its private cache directory.
struct Live {
    server: Server,
    cache_dir: PathBuf,
}

impl Live {
    fn start(out_dir: &Path, tag: &str) -> Result<Live, String> {
        let cache_dir = out_dir.join(format!("serve-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("cache dir: {e}"))?;
        let config = ServerConfig {
            sched: SchedConfig {
                workers: WORKERS,
                queue_capacity: 256,
                ..SchedConfig::default()
            },
            exec: ExecConfig {
                jobs: 1,
                cache_dir: Some(cache_dir.clone()),
                ..ExecConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("start: {e}"))?;
        Ok(Live { server, cache_dir })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One study request: submit, then block on the result. Returns the result
/// body and the two call durations in seconds.
fn study(
    addr: SocketAddr,
    body: &str,
    spans: Option<(&Spans, u64)>,
) -> Result<(Vec<u8>, f64, f64), String> {
    let call = |name, method, path: &str, body: &[u8]| {
        within(spans, name, || http::request(addr, method, path, body))
    };
    let t0 = Instant::now();
    let submitted = call("http.submit", "POST", "/studies", body.as_bytes())?;
    let t1 = Instant::now();
    if submitted.status != 202 {
        return Err(format!("submit answered {}", submitted.status));
    }
    let text = String::from_utf8_lossy(&submitted.body);
    let id: u64 = text
        .split_once("\"job\":")
        .and_then(|(_, rest)| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .ok_or_else(|| format!("no job id in {text:?}"))?;
    let result = call("http.result", "GET", &format!("/studies/{id}/result"), b"")?;
    let t2 = Instant::now();
    if result.status != 200 {
        return Err(format!("result answered {}", result.status));
    }
    Ok((
        result.body,
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
    ))
}

/// A priming response, or why the request failed.
type Priming = Result<Vec<u8>, String>;

/// Set-up: start a fresh server and submit every catalog spec once (two
/// clients) until its result returns. Returns the server, the priming
/// responses in catalog order, and the set-up time.
fn set_up(
    out_dir: &Path,
    tag: &str,
    catalog: &[String],
    spans: Option<(&Spans, u64)>,
) -> Result<(Live, Vec<Vec<u8>>, f64), String> {
    let t = Instant::now();
    let live = Live::start(out_dir, tag)?;
    let addr = live.addr();
    let next = AtomicUsize::new(0);
    // One slot per catalog spec: its priming response once answered.
    let slots: Mutex<Vec<Option<Priming>>> = Mutex::new(vec![None; catalog.len()]);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = catalog.get(i) else { break };
                let r = study(addr, body, spans).map(|(b, _, _)| b);
                slots.lock().expect("priming slots poisoned")[i] = Some(r);
            });
        }
    });
    let setup_s = t.elapsed().as_secs_f64();
    let mut responses = Vec::with_capacity(catalog.len());
    for (i, slot) in slots
        .into_inner()
        .expect("priming slots poisoned")
        .into_iter()
        .enumerate()
    {
        match slot {
            Some(Ok(b)) => responses.push(b),
            Some(Err(e)) => {
                live.stop();
                return Err(format!("priming spec {i}: {e}"));
            }
            None => unreachable!("every catalog index is claimed once"),
        }
    }
    Ok((live, responses, setup_s))
}

/// The digest input of a priming: every response in catalog order.
fn priming_bytes(responses: &[Vec<u8>]) -> Vec<u8> {
    responses.concat()
}

/// What the timed closed loop observed.
#[derive(Debug, Default)]
struct LoopStats {
    /// Submit-to-result latency of each answered request (s).
    latency: Vec<f64>,
    /// `POST /studies` durations (s).
    submit: Vec<f64>,
    /// `GET …/result` durations (s).
    result: Vec<f64>,
    /// Requests sent.
    attempted: usize,
    /// Requests not answered 200 with the priming bytes.
    errors: Vec<String>,
    /// Wall time of the loop (s).
    wall_s: f64,
}

/// The timed phase: `CLIENTS` clients, each sending its next request only
/// after the previous one returned, until `seconds` have passed and at
/// least `MIN_REQUESTS` requests were sent.
fn closed_loop(
    addr: SocketAddr,
    responses: &[Vec<u8>],
    catalog: &[String],
    seed: u64,
    seconds: f64,
    spans: Option<(&Spans, u64)>,
) -> LoopStats {
    let zipf = Zipf::new(catalog.len(), ZIPF_S);
    let hot_order = permutation(catalog.len(), &mut SplitMix64::new(seed));
    let sent = AtomicUsize::new(0);
    let stats = Mutex::new(LoopStats::default());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (zipf, hot_order, sent, stats) = (&zipf, &hot_order, &sent, &stats);
            s.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (0xC0FF_EE00 + c as u64));
                loop {
                    if start.elapsed() >= budget && sent.load(Ordering::Relaxed) >= MIN_REQUESTS {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    let i = hot_order[zipf.sample(&mut rng)];
                    let outcome = study(addr, &catalog[i], spans);
                    let mut st = stats.lock().expect("loop stats poisoned");
                    st.attempted += 1;
                    match outcome {
                        Ok((body, submit, result)) if body == responses[i] => {
                            st.latency.push(submit + result);
                            st.submit.push(submit);
                            st.result.push(result);
                        }
                        Ok(_) => st
                            .errors
                            .push(format!("spec {i}: response differs from its priming")),
                        Err(e) => st.errors.push(format!("spec {i}: {e}")),
                    }
                }
            });
        }
    });
    let mut st = stats.into_inner().expect("loop stats poisoned");
    st.wall_s = start.elapsed().as_secs_f64();
    st
}

/// Folds a closed loop's request counts and failures into the outcome.
fn account(o: &mut Outcome, st: &LoopStats) {
    o.attempted += st.attempted as u64;
    let failed = st.errors.len() as u64;
    if failed > 0 {
        let first = st.errors.first().cloned().unwrap_or_default();
        o.fail(
            failed,
            format!("{failed} timed requests failed; first: {first}"),
        );
    }
}

/// The `--setup-only` child: one fresh set-up; prints
/// `setup_s=<seconds> digest=<hex>` as its last line.
pub fn setup_only(seed: u64, out_dir: &Path) -> Result<String, String> {
    let catalog = catalog(seed);
    let (live, responses, setup_s) = set_up(out_dir, "child", &catalog, None)?;
    live.stop();
    Ok(format!(
        "setup_s={setup_s:?} digest={:016x}",
        digest::digest(&priming_bytes(&responses))
    ))
}

/// Runs `--setup-only` in a fresh process, so process-wide caches (the
/// blueprint cache above all) start cold as they do for a new server.
fn child_setup(seed: u64) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            "serve_zipf",
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let parsed = (|| {
        let (s, d) = last.split_once(' ')?;
        let s = s.strip_prefix("setup_s=")?.parse().ok()?;
        let d = u64::from_str_radix(d.strip_prefix("digest=")?, 16).ok()?;
        Some((s, d))
    })();
    match parsed {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!("set-up child failed ({}): {last:?}", out.status)),
    }
}

/// The untraced run: two set-ups in child processes and one here (median
/// reported), then the timed closed loop on this process's server.
pub fn untraced(seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let catalog = catalog(seed);
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut child_digests = Vec::new();
    for _ in 0..CHILD_SETUPS {
        o.attempted += catalog.len() as u64;
        match child_setup(seed) {
            Ok((s, d)) => {
                setups.push(s);
                child_digests.push(d);
            }
            Err(e) => o.fail(catalog.len() as u64, e),
        }
    }
    o.attempted += catalog.len() as u64;
    let (live, responses, setup_s) = match set_up(out_dir, "main", &catalog, None) {
        Ok(v) => v,
        Err(e) => {
            o.fail(catalog.len() as u64, format!("set-up failed: {e}"));
            return o;
        }
    };
    setups.push(setup_s);
    let priming = priming_bytes(&responses);
    if let Err(e) = digest::check_pinned("serve_zipf", seed, &priming) {
        o.fail(catalog.len() as u64, e);
    }
    let here = digest::digest(&priming);
    for d in child_digests.into_iter().filter(|&d| d != here) {
        o.fail(
            catalog.len() as u64,
            format!("a fresh server primed to digest {d:016x}, this one to {here:016x}"),
        );
    }

    let st = closed_loop(live.addr(), &responses, &catalog, seed, seconds, None);
    live.stop();
    account(&mut o, &st);
    let n = st.latency.len();
    o.set("wall_s", "s", st.wall_s, 1);
    o.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    o.set("peak_rss_mb", "MiB", host::peak_rss_mb().unwrap_or(0.0), 1);
    o.set(
        "ops_per_s",
        "1/s",
        st.attempted as f64 / st.wall_s,
        st.attempted,
    );
    let ms: Vec<f64> = st.latency.iter().map(|s| s * 1e3).collect();
    for (name, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
        match percentile(&ms, q) {
            Ok(v) => o.note(name, "ms", v, n),
            Err(e) => o.fail(0, format!("{name}: {e}")),
        }
    }
    o
}

/// The traced run: a fresh server traced end to end (metrics on, a span
/// around each HTTP call), then a fresh untraced server with process usage
/// for the overhead baseline, then the layer probes.
pub fn traced(seed: u64, seconds: f64, out_dir: &Path, spans: &Spans) -> Outcome {
    let catalog = catalog(seed);
    let mut o = Outcome::default();
    layers::zero_all(&mut o);

    let mark = layers::begin_traced();
    let t = Instant::now();
    let setup_span = spans.begin("setup", 0);
    let primed = set_up(out_dir, "traced", &catalog, Some((spans, setup_span.id())));
    spans.end(setup_span);
    o.attempted += catalog.len() as u64;
    let (live, responses, _) = match primed {
        Ok(v) => v,
        Err(e) => {
            hammervolt_obs::set_metrics(false);
            o.fail(catalog.len() as u64, format!("traced set-up failed: {e}"));
            return o;
        }
    };
    if let Err(e) = digest::check_pinned("serve_zipf", seed, &priming_bytes(&responses)) {
        o.fail(catalog.len() as u64, e);
    }
    let handler_before = layers::histogram("http_request_us");
    let loop_span = spans.begin("loop", 0);
    let traced_loop = closed_loop(
        live.addr(),
        &responses,
        &catalog,
        seed,
        seconds,
        Some((spans, loop_span.id())),
    );
    spans.end(loop_span);
    let handler_after = layers::histogram("http_request_us");
    let (queue_wait, nq) =
        layers::histogram_mean_ms((0, 0), layers::histogram("sched_queue_wait_us"));
    let (job_run, nj) = layers::histogram_mean_ms((0, 0), layers::histogram("sched_job_run_us"));
    live.stop();
    layers::end_traced(&mut o, &mark, WORKERS, t.elapsed().as_secs_f64());
    account(&mut o, &traced_loop);

    let ms = |v: &[f64]| median(v).unwrap_or(0.0) * 1e3;
    let n = traced_loop.submit.len();
    layers::set(&mut o, "serve.submit_ms", ms(&traced_loop.submit), n);
    layers::set(&mut o, "serve.result_ms", ms(&traced_loop.result), n);
    let (handler, nh) = layers::histogram_mean_ms(handler_before, handler_after);
    layers::set(&mut o, "serve.handler_ms", handler, nh);
    // Client time per HTTP call minus server handler time per call: the
    // time a request spends outside any handler (accept wait, connect).
    let client_calls = (traced_loop.submit.iter().sum::<f64>()
        + traced_loop.result.iter().sum::<f64>())
        / (2 * n.max(1)) as f64;
    layers::set(
        &mut o,
        "serve.outside_handler_ms",
        client_calls * 1e3 - handler,
        2 * n,
    );
    layers::set(&mut o, "serve.queue_wait_ms", queue_wait, nq);
    layers::set(&mut o, "serve.job_run_ms", job_run, nj);

    let before = host::usage();
    let t = Instant::now();
    match set_up(out_dir, "untraced", &catalog, None) {
        Ok((live, responses, _)) => {
            o.attempted += catalog.len() as u64;
            let untraced_loop = closed_loop(live.addr(), &responses, &catalog, seed, seconds, None);
            live.stop();
            account(&mut o, &untraced_loop);
            layers::record_usage(
                &mut o,
                &host::usage().since(&before),
                t.elapsed().as_secs_f64(),
                WORKERS,
            );
            let per_op = |st: &LoopStats| st.wall_s / st.attempted.max(1) as f64;
            layers::record_overhead(&mut o, per_op(&traced_loop), per_op(&untraced_loop));
        }
        Err(e) => o.fail(catalog.len() as u64, format!("untraced set-up failed: {e}")),
    }

    if let Err(e) = probes::run(&mut o, spans) {
        o.fail(0, format!("layer probe failed: {e}"));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_outgrows_the_result_lru_and_follows_the_seed() {
        let a = catalog(1);
        assert_eq!(a.len(), 72);
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
        assert_eq!(a, catalog(1));
        assert_ne!(a, catalog(2));
    }
}
