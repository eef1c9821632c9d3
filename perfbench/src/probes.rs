//! The layer-probe phase of a traced run: times single entry points of the
//! alg, softmc, dram and spice layers on fixed inputs (module B3 of the
//! quick protocol at the default seed; the nominal-`V_PP` cell), so the
//! numbers compare across workloads and seeds.

use crate::digest::DEFAULT_SEED;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::median;
use hammervolt_core::study::StudyConfig;
use hammervolt_core::{alg1, alg2, alg3};
use hammervolt_dram::registry::ModuleId;
use hammervolt_softmc::SoftMc;
use hammervolt_spice::batch::BatchedActivation;
use hammervolt_spice::dram_cell::DramCellParams;
use hammervolt_spice::montecarlo::MonteCarlo;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each single-call probe; the median is reported.
const REPS: usize = 21;

/// The module every probe runs on.
const MODULE: ModuleId = ModuleId::B3;

/// Median duration of `reps` calls of `f`, in seconds.
fn time_median<E>(reps: usize, mut f: impl FnMut(usize) -> Result<(), E>) -> Result<f64, E> {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        f(i)?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&samples).unwrap_or(0.0))
}

/// Runs every probe under a `probes` span and records its metric.
///
/// # Errors
///
/// On any error from the probed entry points.
pub fn run(o: &mut Outcome, spans: &Spans) -> Result<(), String> {
    let root = spans.begin("probes", 0);
    let parent = root.id();
    let result = spans
        .time("probes.study", parent, || study_probes(o))
        .and_then(|()| spans.time("probes.spice", parent, || spice_probes(o)));
    spans.end(root);
    result
}

fn study_probes(o: &mut Outcome) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let cfg = StudyConfig {
        seed: DEFAULT_SEED,
        ..StudyConfig::quick_subset(&[MODULE])
    };
    let bank = cfg.bank;
    let blueprint_s =
        time_median(5, |_| cfg.blueprint(MODULE).map(black_box).map(drop)).map_err(|e| err(&e))?;
    layers::set(o, "dram.blueprint_ms", blueprint_s * 1e3, 5);

    let bp = cfg.blueprint(MODULE).map_err(|e| err(&e))?;
    let sample = cfg.sample(cfg.geometry_for(MODULE));
    // One chunk: the sample's first `rows_per_chunk` rows.
    let rows: Vec<u32> = sample
        .rows()
        .iter()
        .copied()
        .take(cfg.rows_per_chunk as usize)
        .collect();
    let n = rows.len();
    let mut mc = SoftMc::new(bp.instantiate());

    let t = time_median(n, |i| {
        alg1::measure_row(&mut mc, bank, rows[i], &cfg.alg1).map(drop)
    })
    .map_err(|e| err(&e))?;
    layers::set(o, "alg.alg1_row_ms", t * 1e3, n);
    mc.recycle();
    let t = time_median(n, |i| {
        alg2::measure_row(&mut mc, bank, rows[i], &cfg.alg2).map(drop)
    })
    .map_err(|e| err(&e))?;
    layers::set(o, "alg.alg2_row_ms", t * 1e3, n);
    mc.recycle();
    let t = time_median(n, |i| {
        alg3::measure_row(&mut mc, bank, rows[i], &cfg.alg3).map(drop)
    })
    .map_err(|e| err(&e))?;
    layers::set(o, "alg.alg3_row_ms", t * 1e3, n);

    mc.recycle();
    let victim = rows[0];
    let (a, b) = alg1::aggressors_of(&mc, victim).map_err(|e| err(&e))?;
    let hc = cfg.alg1.fixed_hc;
    let t = time_median(REPS, |_| mc.hammer_double_sided(bank, a, b, hc)).map_err(|e| err(&e))?;
    layers::set(o, "softmc.hammer_us", t * 1e6, REPS);
    let t = time_median(REPS, |_| mc.read_row(bank, victim).map(black_box).map(drop))
        .map_err(|e| err(&e))?;
    layers::set(o, "softmc.read_row_us", t * 1e6, REPS);

    // Reset after touching one chunk's rows, as a pooled unit does.
    let mut resets = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        for &row in &rows {
            mc.read_row(bank, row).map_err(|e| err(&e))?;
        }
        mc.hammer_double_sided(bank, a, b, hc)
            .map_err(|e| err(&e))?;
        let t = Instant::now();
        mc.module_mut().reset_to_pristine();
        resets.push(t.elapsed().as_secs_f64());
    }
    layers::set(
        o,
        "dram.reset_us",
        median(&resets).unwrap_or(0.0) * 1e6,
        REPS,
    );
    Ok(())
}

fn spice_probes(o: &mut Outcome) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let params = DramCellParams::default();
    let vpp = 2.5;
    let t = time_median(REPS, |_| {
        BatchedActivation::new(&params, vpp)
            .map(black_box)
            .map(drop)
    })
    .map_err(|e| err(&e))?;
    layers::set(o, "spice.batch_new_us", t * 1e6, REPS);

    let batch = BatchedActivation::new(&params, vpp).map_err(|e| err(&e))?;
    let mut ws = batch.workspace();
    let mc = MonteCarlo::quick(11);
    let trials = mc.trials;
    let t = time_median(trials, |i| match batch.run_trial(&mut ws, &mc, i) {
        Ok(m) => {
            black_box(m);
            Ok(())
        }
        Err(e) if e.is_trial_failure() => Ok(()),
        Err(e) => Err(e),
    })
    .map_err(|e| err(&e))?;
    layers::set(o, "spice.trial_us", t * 1e6, trials);
    Ok(())
}
