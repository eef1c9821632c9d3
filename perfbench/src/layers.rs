//! Per-layer readings taken from the program's own counters, manifest
//! phases, histograms and `*_stats()` accessors around a traced part of a
//! run, plus process usage around an untraced part.

use crate::host::Usage;
use crate::report::{Outcome, PER_LAYER};
use hammervolt_core::exec::{blueprint_cache_stats, pool_stats};
use hammervolt_obs::{manifest, metrics};
use hammervolt_serve::scheduler::result_cache_stats;

/// Sets per-layer metric `name`, taking its unit from [`PER_LAYER`].
pub fn set(o: &mut Outcome, name: &'static str, value: f64, samples: usize) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
    o.set(name, unit, value, samples);
}

/// Sets every per-layer metric to 0, so layers a workload never reaches
/// still appear in the result line.
pub fn zero_all(o: &mut Outcome) {
    for &(name, unit) in PER_LAYER {
        o.set(name, unit, 0.0, 0);
    }
}

/// Program counters copied one-to-one into per-layer metrics.
const COUNTERS: &[(&str, &str)] = &[
    ("exec.units", "exec_units"),
    ("exec.store_hits", "cache_hits"),
    ("exec.store_misses", "cache_misses"),
    ("exec.store_writes", "cache_stores"),
    ("alg.alg1_rows", "alg1_rows"),
    ("alg.alg1_search_steps", "alg1_search_steps"),
    ("alg.alg1_ber_measurements", "alg1_ber_measurements"),
    ("alg.alg2_probe_reads", "alg2_probe_reads"),
    ("alg.alg3_window_measurements", "alg3_window_measurements"),
    ("softmc.act", "softmc_act"),
    ("softmc.programs", "softmc_programs"),
    ("softmc.rd", "softmc_rd"),
    ("softmc.wr", "softmc_wr"),
    ("dram.disturb_events", "dram_disturb_events"),
    ("dram.flips_hammer", "dram_flips_hammer"),
    ("dram.flips_retention", "dram_flips_retention"),
];

/// A histogram's `(count, sum)`.
pub fn histogram(name: &'static str) -> (u64, u64) {
    let h = metrics::histogram(name);
    (h.count(), h.sum())
}

/// Mean of a histogram's samples recorded between two `(count, sum)`
/// readings, in ms (the histograms record µs).
pub fn histogram_mean_ms(before: (u64, u64), after: (u64, u64)) -> (f64, usize) {
    let n = after.0.saturating_sub(before.0);
    let sum = after.1.saturating_sub(before.1);
    if n == 0 {
        (0.0, 0)
    } else {
        (sum as f64 / n as f64 / 1e3, n as usize)
    }
}

/// The program's process-lifetime side-channel totals, read before a traced
/// part so the part's own share can be taken as a difference.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pool: (u64, u64),
    blueprints: (u64, u64),
    lru: (u64, u64),
}

/// Starts a traced part: clears the obs registry and manifest, reads the
/// side-channel totals, and turns metrics on.
pub fn begin_traced() -> Mark {
    metrics::reset();
    manifest::reset();
    let mark = Mark {
        pool: pool_stats(),
        blueprints: blueprint_cache_stats(),
        lru: result_cache_stats(),
    };
    hammervolt_obs::set_metrics(true);
    mark
}

/// Ends a traced part that took `wall_s` with `jobs` compute threads:
/// turns metrics off and records the exec, alg, softmc, dram and serve
/// cache layers.
pub fn end_traced(o: &mut Outcome, mark: &Mark, jobs: usize, wall_s: f64) {
    hammervolt_obs::set_metrics(false);
    for &(name, counter) in COUNTERS {
        set(o, name, metrics::counter_value(counter) as f64, 1);
    }
    let phase_s = |name: &str| {
        manifest::phases_snapshot()
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, us)| us as f64 / 1e6)
    };
    let (bringup, steady) = (phase_s("unit:bringup"), phase_s("unit:steady"));
    set(o, "exec.bringup_s", bringup, 1);
    set(o, "exec.steady_s", steady, 1);
    if bringup + steady > 0.0 {
        set(o, "exec.bringup_ratio", bringup / (bringup + steady), 1);
        set(
            o,
            "exec.worker_util",
            (bringup + steady) / (jobs as f64 * wall_s),
            1,
        );
    }
    let delta = |now: (u64, u64), then: (u64, u64)| {
        (
            now.0.saturating_sub(then.0) as f64,
            now.1.saturating_sub(then.1) as f64,
        )
    };
    let (creates, reuses) = delta(pool_stats(), mark.pool);
    set(o, "exec.pool_creates", creates, 1);
    set(o, "exec.pool_reuses", reuses, 1);
    let (hits, misses) = delta(blueprint_cache_stats(), mark.blueprints);
    set(o, "exec.blueprint_hits", hits, 1);
    set(o, "exec.blueprint_misses", misses, 1);
    let (hits, misses) = delta(result_cache_stats(), mark.lru);
    set(o, "serve.lru_hits", hits, 1);
    set(o, "serve.lru_misses", misses, 1);
}

/// Records process usage over an untraced part of `wall_s` that ran
/// `threads` compute threads: `proc.*` and `par.efficiency`.
pub fn record_usage(o: &mut Outcome, usage: &Usage, wall_s: f64, threads: usize) {
    set(o, "proc.user_s", usage.user_s, 1);
    set(o, "proc.sys_s", usage.sys_s, 1);
    set(o, "proc.minflt", usage.minflt as f64, 1);
    set(o, "proc.nivcsw", usage.nivcsw as f64, 1);
    let threads = threads.min(crate::host::nproc()).max(1);
    set(
        o,
        "par.efficiency",
        usage.cpu_s() / (threads as f64 * wall_s),
        1,
    );
}

/// Records the tracing overhead from the time per operation of the traced
/// and untraced parts.
pub fn record_overhead(o: &mut Outcome, traced_per_op: f64, untraced_per_op: f64) {
    set(
        o,
        "obs.overhead_ratio",
        traced_per_op / untraced_per_op - 1.0,
        2,
    );
}
