//! Criterion benches for the data-oriented device-model hot path.
//!
//! `hammer_loop` exercises the per-burst overhead of the hammer inner loop:
//! many short double-sided bursts against freshly initialized rows, so the
//! cost is dominated by row-state and row-parameter lookups plus the
//! per-burst materialization bookkeeping rather than the per-cell flip
//! loop. `sweep_unit` times one serial single-module Alg. 1 sweep through
//! the execution engine, covering work-unit bring-up amortization.
//!
//! `blueprint_instantiate`, `find_vppmin`, and `pool_reset` price the three
//! bring-up costs the session pool eliminates: the full pristine-arena
//! clone, the descending V_PPmin ladder a memoized blueprint skips, and the
//! O(touched-rows) recycle that replaces both on the steady path.
//!
//! `BENCH_hotpath.json` at the repository root records the median numbers
//! of these benches before and after the arena rewrite; regenerate with
//! `cargo bench -p hammervolt-bench --bench hotpath`.

use criterion::{criterion_group, criterion_main, Criterion};
use hammervolt_core::exec::{self, ExecConfig};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_softmc::SoftMc;
use std::hint::black_box;

fn module() -> DramModule {
    DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test()).unwrap()
}

/// Many short double-sided bursts: 64 `hammer` calls of 500 activations
/// each per iteration, with the three rows re-initialized first so the
/// accumulated disturbance (and therefore the per-iteration work) stays
/// constant across samples.
fn bench_hammer_loop(c: &mut Criterion) {
    let mut m = module();
    let columns = m.geometry().columns_per_row as usize;
    let data = vec![0xAAAA_AAAA_AAAA_AAAAu64; columns];
    let inv = vec![!0xAAAA_AAAA_AAAA_AAAAu64; columns];
    let victim = 100u32;
    let (below, above) = m.mapping().physical_neighbors(victim);
    let (below, above) = (below.unwrap(), above.unwrap());
    c.bench_function("hammer_loop", |b| {
        b.iter(|| {
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &inv).unwrap();
            m.write_row(0, above, &inv).unwrap();
            for _ in 0..32 {
                m.hammer(0, black_box(below), 500, 48.5).unwrap();
                m.hammer(0, black_box(above), 500, 48.5).unwrap();
            }
            black_box(m.read_row(0, victim, 13.5).unwrap())
        })
    });
}

/// One serial Alg. 1 work-unit sweep through the execution engine: four
/// two-row chunks, each paying full bring-up (construction, calibration,
/// `V_PPmin` search) before its ladder.
fn bench_sweep_unit(c: &mut Criterion) {
    let cfg = StudyConfig {
        rows_per_chunk: 2,
        ..StudyConfig::quick_subset(&[ModuleId::B3])
    };
    c.bench_function("sweep_unit", |b| {
        b.iter(|| black_box(exec::rowhammer_sweeps(&cfg, &ExecConfig::serial())))
    });
}

/// The same single-module sweep reusing one engine configuration, and so
/// its blueprint cache (the study server's steady state): per-module
/// calibration and the `V_PPmin` ladder are paid once ever, so iterations
/// measure pure steady-state sweep work over pooled sessions.
fn bench_sweep_unit_warm(c: &mut Criterion) {
    let cfg = StudyConfig {
        rows_per_chunk: 2,
        ..StudyConfig::quick_subset(&[ModuleId::B3])
    };
    let exec = ExecConfig::serial();
    c.bench_function("sweep_unit_warm", |b| {
        b.iter(|| black_box(exec::rowhammer_sweeps(&cfg, &exec)))
    });
}

/// The full pristine-arena clone a unit used to pay per chunk: one
/// calibrated blueprint, `instantiate()` per iteration.
fn bench_blueprint_instantiate(c: &mut Criterion) {
    let cfg = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = cfg.blueprint(ModuleId::B3).unwrap();
    c.bench_function("blueprint_instantiate", |b| {
        b.iter(|| black_box(bp.instantiate()))
    });
}

/// The descending V_PPmin ladder a unit used to run per chunk; reading the
/// blueprint's memo replaces this entirely.
fn bench_find_vppmin(c: &mut Criterion) {
    let cfg = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = cfg.blueprint(ModuleId::B3).unwrap();
    let mut mc = SoftMc::new(bp.instantiate());
    c.bench_function("find_vppmin", |b| {
        b.iter(|| black_box(mc.find_vppmin().unwrap()))
    });
}

/// The steady-state replacement for both: recycle a session that just ran a
/// representative unit's worth of work (writes, a hammer burst, a read)
/// back to pristine in O(touched rows).
fn bench_pool_reset(c: &mut Criterion) {
    let cfg = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = cfg.blueprint(ModuleId::B3).unwrap();
    let mut mc = SoftMc::new(bp.instantiate());
    c.bench_function("pool_reset", |b| {
        b.iter(|| {
            mc.init_row(0, 100, 0xAAAA_AAAA_AAAA_AAAA).unwrap();
            mc.init_row(0, 99, 0x5555_5555_5555_5555).unwrap();
            mc.init_row(0, 101, 0x5555_5555_5555_5555).unwrap();
            mc.hammer_double_sided(0, 99, 101, 10_000).unwrap();
            black_box(mc.read_row_scratch(0, 100).unwrap());
            mc.recycle();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hammer_loop, bench_sweep_unit, bench_sweep_unit_warm,
        bench_blueprint_instantiate, bench_find_vppmin, bench_pool_reset
}
criterion_main!(benches);
