//! The study workloads: `hammer_quick` (Alg. 1) and
//! `latency_retention_quick` (Alg. 2 then Alg. 3), both on the quick
//! protocol over all 30 modules with two engine workers and no cache.

use crate::digest;
use crate::host;
use crate::layers;
use crate::probes;
use crate::report::Outcome;
use crate::spans::{within, Spans};
use crate::stats::median;
use hammervolt_core::exec::{self, ExecConfig};
use hammervolt_core::records::write_jsonl;
use hammervolt_core::study::StudyConfig;
use hammervolt_obs::metrics;
use std::time::{Duration, Instant};

/// Engine worker threads.
const JOBS: usize = 2;
/// Alg. 2 ladder levels (the CLI default).
const LEVELS_CAP: usize = 4;
/// Row chunks the sample takes per module.
const CHUNKS: u64 = 4;
/// Set-up samples per run.
const SETUP_REPS: usize = 11;

/// Which study campaign a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Alg. 1 RowHammer sweep.
    Hammer,
    /// Alg. 2 t_RCD sweep followed by the Alg. 3 retention sweep.
    LatencyRetention,
}

impl Kind {
    fn workload(self) -> &'static str {
        match self {
            Kind::Hammer => "hammer_quick",
            Kind::LatencyRetention => "latency_retention_quick",
        }
    }

    /// Work units one pass attempts: every module's row chunks, per sweep.
    fn units(self, cfg: &StudyConfig) -> u64 {
        let sweeps = match self {
            Kind::Hammer => 1,
            Kind::LatencyRetention => 2,
        };
        cfg.modules.len() as u64 * CHUNKS * sweeps
    }
}

/// The quick protocol at `seed` with an 8-row chunk.
fn config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        rows_per_chunk: 8,
        ..StudyConfig::quick()
    }
}

/// One pass of the campaign: the records JSONL of every sweep, modules in
/// configuration order (what the CLI prints). With `spans`, each sweep call
/// is recorded under the given parent.
fn pass(kind: Kind, cfg: &StudyConfig, spans: Option<(&Spans, u64)>) -> Result<Vec<u8>, String> {
    let engine = ExecConfig::with_jobs(JOBS);
    let mut out = Vec::new();
    let emit = |records: Result<(), Box<dyn std::error::Error>>| {
        records.map_err(|e| format!("cannot serialize records: {e}"))
    };
    match kind {
        Kind::Hammer => {
            let sweeps = within(spans, "exec::rowhammer_sweeps", || {
                exec::rowhammer_sweeps(cfg, &engine)
            })
            .map_err(|e| e.to_string())?;
            for s in &sweeps {
                emit(write_jsonl(&s.records, &mut out))?;
            }
        }
        Kind::LatencyRetention => {
            let trcd = within(spans, "exec::trcd_sweeps", || {
                exec::trcd_sweeps(cfg, LEVELS_CAP, &engine)
            })
            .map_err(|e| e.to_string())?;
            let retention = within(spans, "exec::retention_sweeps", || {
                exec::retention_sweeps(cfg, &engine)
            })
            .map_err(|e| e.to_string())?;
            for s in &trcd {
                emit(write_jsonl(&s.records, &mut out))?;
            }
            for s in &retention {
                emit(write_jsonl(&s.records, &mut out))?;
            }
        }
    }
    Ok(out)
}

/// Set-up: calibrating every module's blueprint (the shared bring-up stage
/// each sweep pays once per module), in seconds.
fn calibrate_all(cfg: &StudyConfig) -> Result<f64, String> {
    let t = Instant::now();
    for &id in &cfg.modules {
        std::hint::black_box(cfg.blueprint(id).map_err(|e| e.to_string())?);
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs one pass, checks its output against `reference` (or adopts it as
/// the reference), and returns its wall time.
fn checked_pass(
    o: &mut Outcome,
    kind: Kind,
    cfg: &StudyConfig,
    spans: Option<(&Spans, u64)>,
    reference: &mut Option<Vec<u8>>,
) -> f64 {
    let units = kind.units(cfg);
    o.attempted += units;
    let t = Instant::now();
    let result = pass(kind, cfg, spans);
    let wall = t.elapsed().as_secs_f64();
    match (result, reference.as_ref()) {
        (Err(e), _) => o.fail(units, format!("sweep failed: {e}")),
        (Ok(out), Some(r)) if out != *r => o.fail(
            units,
            "pass output differs from the run's first pass".to_string(),
        ),
        (Ok(_), Some(_)) => {}
        (Ok(out), None) => {
            if let Err(e) = digest::check_pinned(kind.workload(), cfg.seed, &out) {
                o.fail(units, e);
            }
            *reference = Some(out);
        }
    }
    wall
}

/// The untraced run: set-up samples, one counting pass with metrics on
/// (its `softmc_act` count is the pass's simulated ACTs), then timed passes
/// with metrics off until `seconds` have elapsed.
pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let cfg = config(seed);
    let mut o = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match calibrate_all(&cfg) {
            Ok(s) => setups.push(s),
            Err(e) => o.fail(0, format!("calibration failed: {e}")),
        }
    }

    let mut reference = None;
    metrics::reset();
    hammervolt_obs::set_metrics(true);
    checked_pass(&mut o, kind, &cfg, None, &mut reference);
    hammervolt_obs::set_metrics(false);
    let acts = metrics::counter_value("softmc_act") as f64;

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed() < budget {
        walls.push(checked_pass(&mut o, kind, &cfg, None, &mut reference));
    }
    let wall = median(&walls).unwrap_or(0.0);
    let n = walls.len();
    o.set("wall_s", "s", wall, n);
    o.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    o.set("peak_rss_mb", "MiB", host::peak_rss_mb().unwrap_or(0.0), 1);
    o.set("ops_per_s", "1/s", acts / wall, n);
    o.note("sim_act_per_s", "ACT/s", acts / wall, n);
    o.note("sim_acts_per_pass", "count", acts, 1);
    o
}

/// The traced run: an untraced pass, a traced pass (metrics on, a span
/// around each sweep call), a second untraced pass with process usage, then
/// the layer probes.
pub fn traced(kind: Kind, seed: u64, spans: &Spans) -> Outcome {
    let cfg = config(seed);
    let mut o = Outcome::default();
    layers::zero_all(&mut o);
    let mut reference = None;
    let untraced_1 = checked_pass(&mut o, kind, &cfg, None, &mut reference);

    let mark = layers::begin_traced();
    let root = spans.begin("pass", 0);
    let traced = checked_pass(&mut o, kind, &cfg, Some((spans, root.id())), &mut reference);
    spans.end(root);
    layers::end_traced(&mut o, &mark, JOBS, traced);

    let before = host::usage();
    let untraced_2 = checked_pass(&mut o, kind, &cfg, None, &mut reference);
    layers::record_usage(&mut o, &host::usage().since(&before), untraced_2, JOBS);
    layers::record_overhead(&mut o, traced, (untraced_1 + untraced_2) / 2.0);

    if let Err(e) = probes::run(&mut o, spans) {
        o.fail(0, format!("layer probe failed: {e}"));
    }
    o
}
