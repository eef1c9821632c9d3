//! Session-pool and cross-job cache conformance: pooled runs of every sweep
//! kind are byte-identical at every worker count, a recycled [`SoftMc`]
//! session (O(touched-rows) reset) is observably identical to a fresh
//! `blueprint.instantiate()` clone, a session that errored mid-unit is
//! discarded rather than recycled, and the serve-layer caches (cross-job
//! blueprints, the in-memory result LRU) hit on warm traffic without
//! changing a byte.

use hammervolt_core::exec::{self, ExecConfig, ModulePool};
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_serve::{SchedConfig, Server, ServerConfig};
use hammervolt_softmc::SoftMc;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A two-module, multi-chunk spec: small enough to run twelve times in one
/// test, chunked finely enough (two rows per chunk) that each worker
/// processes several units per module — so pooled sessions actually get
/// recycled, not just created.
fn spec(kind: SweepKind) -> JobSpec {
    JobSpec {
        kind,
        config: StudyConfig {
            rows_per_chunk: 2,
            modules: vec![ModuleId::A0, ModuleId::B3],
            ..StudyConfig::smoke()
        },
    }
}

#[test]
fn pooled_runs_match_the_serial_run_for_every_sweep_kind() {
    let kinds = [
        SweepKind::Hammer,
        SweepKind::Trcd { levels_cap: 4 },
        SweepKind::Retention,
    ];
    for kind in kinds {
        let spec = spec(kind);
        // Reference: the one-worker run. Recycled = fresh itself is pinned
        // by the goldens (recorded before sessions were pooled), by the
        // fingerprint test below, and by `debug_assert_pristine` on every
        // recycle in debug builds.
        let reference = spec
            .run(&ExecConfig::serial(), &JobControl::new())
            .expect("serial reference run")
            .records_jsonl;
        for jobs in [1, 2, 8] {
            let (_, reuses_before) = exec::pool_stats();
            let out = spec
                .run(&ExecConfig::with_jobs(jobs), &JobControl::new())
                .expect("pooled run")
                .records_jsonl;
            assert_eq!(
                out, reference,
                "pooled run (jobs={jobs}) diverged from the serial run for {:?}",
                spec.kind
            );
            let (_, reuses_after) = exec::pool_stats();
            // At jobs=8 the two-module spec spreads so thin that a worker
            // may see each module only once; recycling is only guaranteed
            // when workers process multiple units per module.
            if jobs <= 2 {
                assert!(
                    reuses_after > reuses_before,
                    "pooled run (jobs={jobs}, {:?}) never recycled a session — \
                     the byte-identity assertion proved nothing",
                    spec.kind
                );
            }
        }
    }
}

/// The observable fingerprint of a session: drive the exact program
/// sequence a unit would and capture every read word plus the device clock.
fn fingerprint(mc: &mut SoftMc) -> (Vec<u64>, u64, u64) {
    mc.init_row(0, 100, 0xAAAA_AAAA_AAAA_AAAA).unwrap();
    mc.init_row(0, 99, 0x5555_5555_5555_5555).unwrap();
    mc.init_row(0, 101, 0x5555_5555_5555_5555).unwrap();
    mc.hammer_double_sided(0, 99, 101, 120_000).unwrap();
    let words = mc.read_row_scratch(0, 100).unwrap().to_vec();
    (
        words,
        mc.module().now_ns().to_bits(),
        mc.module().total_activations(),
    )
}

#[test]
fn errored_sessions_are_discarded_and_recycled_sessions_are_pristine() {
    let config = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = config
        .blueprint(ModuleId::B3)
        .expect("blueprint calibrates");

    let fresh_print = fingerprint(&mut SoftMc::new(bp.instantiate()));

    let mut pool = ModulePool::new(1);

    // A unit that errors mid-way never checks its session back in: dirty
    // the session arbitrarily, then drop it (simulating the error path).
    let mut poisoned = pool.checkout(0, &bp);
    poisoned.set_vpp(2.4).unwrap();
    poisoned.set_temperature(80.0).unwrap();
    poisoned.init_row(0, 100, 0xDEAD_BEEF_DEAD_BEEF).unwrap();
    drop(poisoned);

    // The next checkout must not see any of that state. The pool's own
    // counts are read, not the process totals, which sibling tests move.
    let mut replacement = pool.checkout(0, &bp);
    assert_eq!(
        pool.stats(),
        (2, 0),
        "a poisoned (never checked-in) session must be replaced by a fresh \
         instantiation, not recycled"
    );
    assert_eq!(fingerprint(&mut replacement), fresh_print);

    // A session that finished cleanly *is* recycled — and recycling must
    // scrub it back to the exact just-brought-up observables.
    replacement.set_vpp(2.4).unwrap();
    replacement.set_temperature(80.0).unwrap();
    pool.check_in(0, replacement);
    let mut recycled = pool.checkout(0, &bp);
    assert_eq!(pool.stats(), (2, 1), "clean check-in must recycle");
    assert_eq!(
        (recycled.module().vpp(), recycled.module().temperature_c()),
        (
            SoftMc::new(bp.instantiate()).module().vpp(),
            SoftMc::new(bp.instantiate()).module().temperature_c()
        ),
        "recycled session must come back at bring-up V_PP and temperature"
    );
    assert_eq!(
        fingerprint(&mut recycled),
        fresh_print,
        "recycled session diverged from a fresh clone"
    );
}

// --- serve-layer cache conformance (same hand-rolled HTTP/1.1 client the
// --- server tests use: one request, read to close).

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

fn result_of(addr: SocketAddr, job: u64) -> Vec<u8> {
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200, "result: {}", String::from_utf8_lossy(&body));
    body
}

#[test]
fn serve_blueprint_and_result_caches_hit_on_warm_traffic() {
    // Deliberately NO cache_dir: any warm short-circuit below can only come
    // from the in-memory caches under test, not the disk sweep cache.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            sched: SchedConfig {
                workers: 1,
                ..SchedConfig::default()
            },
            exec: ExecConfig::serial(),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let spec_a = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            modules: vec![ModuleId::B1],
            ..StudyConfig::smoke()
        },
    };
    // Same module, seed, and geometry — the blueprint cache key — but a
    // different chunking, so the spec hash (and thus the result cache key)
    // differs and the job actually executes.
    let spec_b = JobSpec {
        config: StudyConfig {
            rows_per_chunk: 1,
            ..spec_a.config.clone()
        },
        ..spec_a.clone()
    };

    let first = result_of(addr, submit(addr, &spec_a));

    // Second job, same blueprint key: the scheduler's cross-job blueprint
    // cache must serve the calibrated blueprint (with its memoized V_PPmin)
    // instead of re-calibrating.
    let (hits_before, _) = exec::blueprint_cache_stats();
    let _ = result_of(addr, submit(addr, &spec_b));
    let (hits_after, _) = exec::blueprint_cache_stats();
    assert!(
        hits_after > hits_before,
        "resubmitting a spec sharing a blueprint key must hit the \
         cross-job blueprint cache ({hits_before} -> {hits_after})"
    );

    // Identical warm resubmit: with no disk cache configured, only the
    // in-memory result LRU can satisfy this without re-executing.
    let (lru_hits_before, _) = hammervolt_serve::scheduler::result_cache_stats();
    let retry = submit(addr, &spec_a);
    let body = result_of(addr, retry);
    assert_eq!(body, first, "cached result must be byte-identical");
    let (lru_hits_after, _) = hammervolt_serve::scheduler::result_cache_stats();
    assert!(lru_hits_after > lru_hits_before, "result LRU must hit");
    let (_, view) = http(addr, "GET", &format!("/studies/{retry}"), "");
    assert_eq!(
        json_u64(&view, "units_executed"),
        0,
        "a result-cache hit must not re-execute any unit"
    );
    assert_eq!(json_u64(&view, "cache_hits"), 1);

    server.shutdown();
}
