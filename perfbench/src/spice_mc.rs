//! The `spice_mc` workload: batched Monte-Carlo activation over the union
//! of the Fig. 8b and Fig. 9b `V_PP` levels with two workers.

use crate::digest;
use crate::host;
use crate::layers;
use crate::probes;
use crate::report::Outcome;
use crate::spans::{within, Spans};
use crate::stats::median;
use hammervolt_spice::batch::BatchedActivation;
use hammervolt_spice::dram_cell::{DramCellParams, McActivationStats};
use hammervolt_spice::montecarlo::MonteCarlo;
use std::time::{Duration, Instant};

/// Fig. 8b ∪ Fig. 9b `V_PP` levels (V).
const LEVELS: [f64; 7] = [2.5, 2.1, 2.0, 1.9, 1.8, 1.7, 1.6];
/// Trials per level.
const TRIALS: usize = 60;
/// Worker threads.
const JOBS: usize = 2;
/// Set-up samples per run.
const SETUP_REPS: usize = 11;

fn monte_carlo(seed: u64) -> MonteCarlo {
    MonteCarlo {
        trials: TRIALS,
        seed,
        ..MonteCarlo::default()
    }
}

/// Appends a level's statistics as bytes (every float by its bit pattern).
fn encode(stats: &McActivationStats, out: &mut Vec<u8>) {
    let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    put(stats.vpp.to_bits());
    put(stats.trials as u64);
    put(stats.failures as u64);
    put(stats.solver_failures as u64);
    for series in [&stats.t_rcd, &stats.t_ras, &stats.v_restore] {
        put(series.len() as u64);
        for x in series.iter() {
            put(x.to_bits());
        }
    }
}

/// One pass over every level: the encoded statistics and the solver
/// failures (simulated outcomes, not benchmark failures).
fn pass(mc: &MonteCarlo, spans: Option<(&Spans, u64)>) -> Result<(Vec<u8>, u64), String> {
    let params = DramCellParams::default();
    let mut out = Vec::new();
    let mut solver_failures = 0;
    for vpp in LEVELS {
        let batch = BatchedActivation::new(&params, vpp).map_err(|e| e.to_string())?;
        let stats = within(spans, "BatchedActivation::run", || batch.run(mc, JOBS))
            .map_err(|e| format!("V_PP {vpp}: {e}"))?;
        solver_failures += stats.solver_failures as u64;
        encode(&stats, &mut out);
    }
    Ok((out, solver_failures))
}

/// Set-up: time to the first result at every level — prepare each level's
/// batch and run its trial 0 — in seconds.
fn first_results(mc: &MonteCarlo) -> Result<f64, String> {
    let params = DramCellParams::default();
    let t = Instant::now();
    for vpp in LEVELS {
        let batch = BatchedActivation::new(&params, vpp).map_err(|e| e.to_string())?;
        let mut ws = batch.workspace();
        match batch.run_trial(&mut ws, mc, 0) {
            Ok(m) => {
                std::hint::black_box(m);
            }
            Err(e) if e.is_trial_failure() => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs one checked pass; returns `(wall, solver failures)`.
fn checked_pass(
    o: &mut Outcome,
    mc: &MonteCarlo,
    spans: Option<(&Spans, u64)>,
    reference: &mut Option<Vec<u8>>,
) -> (f64, u64) {
    let trials = (TRIALS * LEVELS.len()) as u64;
    o.attempted += trials;
    let t = Instant::now();
    let result = pass(mc, spans);
    let wall = t.elapsed().as_secs_f64();
    match (result, reference.as_ref()) {
        (Err(e), _) => {
            o.fail(trials, format!("Monte-Carlo failed: {e}"));
            (wall, 0)
        }
        (Ok((out, _)), Some(r)) if out != *r => {
            o.fail(
                trials,
                "pass statistics differ from the run's first pass".to_string(),
            );
            (wall, 0)
        }
        (Ok((out, failures)), r) => {
            if r.is_none() {
                if let Err(e) = digest::check_pinned("spice_mc", mc.seed, &out) {
                    o.fail(trials, e);
                }
                *reference = Some(out);
            }
            (wall, failures)
        }
    }
}

/// The untraced run: set-up samples, then timed passes until `seconds`
/// have elapsed.
pub fn untraced(seed: u64, seconds: f64) -> Outcome {
    let mc = monte_carlo(seed);
    let mut o = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match first_results(&mc) {
            Ok(s) => setups.push(s),
            Err(e) => o.fail(0, format!("set-up failed: {e}")),
        }
    }
    let mut reference = None;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed() < budget {
        walls.push(checked_pass(&mut o, &mc, None, &mut reference).0);
    }
    let wall = median(&walls).unwrap_or(0.0);
    let n = walls.len();
    let trials = (TRIALS * LEVELS.len()) as f64;
    o.set("wall_s", "s", wall, n);
    o.set("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len());
    o.set("peak_rss_mb", "MiB", host::peak_rss_mb().unwrap_or(0.0), 1);
    o.set("ops_per_s", "1/s", trials / wall, n);
    o.note("trials_per_s", "trial/s", trials / wall, n);
    o
}

/// The traced run: untraced pass, traced pass (metrics on, a span around
/// each `BatchedActivation::run`), untraced pass with process usage, then
/// the layer probes.
pub fn traced(seed: u64, spans: &Spans) -> Outcome {
    let mc = monte_carlo(seed);
    let mut o = Outcome::default();
    layers::zero_all(&mut o);
    let mut reference = None;
    let (untraced_1, _) = checked_pass(&mut o, &mc, None, &mut reference);

    let mark = layers::begin_traced();
    let root = spans.begin("pass", 0);
    let (traced, solver_failures) =
        checked_pass(&mut o, &mc, Some((spans, root.id())), &mut reference);
    spans.end(root);
    layers::end_traced(&mut o, &mark, JOBS, traced);
    layers::set(&mut o, "spice.trial_failures", solver_failures as f64, 1);

    let before = host::usage();
    let (untraced_2, _) = checked_pass(&mut o, &mc, None, &mut reference);
    layers::record_usage(&mut o, &host::usage().since(&before), untraced_2, JOBS);
    layers::record_overhead(&mut o, traced, (untraced_1 + untraced_2) / 2.0);

    if let Err(e) = probes::run(&mut o, spans) {
        o.fail(0, format!("layer probe failed: {e}"));
    }
    o
}
