//! Parallel study execution engine: deterministic sharding plus a
//! content-addressed sweep cache.
//!
//! The study's sweeps are embarrassingly parallel *across modules* (each
//! module is an independent specimen) and, with care, *within a module*
//! (the row sample splits into chunks). The care is the device model's
//! cycle-to-cycle measurement noise: it is drawn from an advancing stream,
//! so a row's measured values depend on every operation issued before it.
//! Run the same rows in a different order — or on a different worker — and
//! the noise differs.
//!
//! This engine removes that order dependence by making the *chunk* the unit
//! of execution:
//!
//! - every `(module, chunk)` work unit brings up its **own** fresh
//!   [`SoftMc`] session from the module's specimen seed (per-cell physics
//!   are a pure function of that seed, so every session sees the same
//!   silicon), and
//! - rebases the session's noise stream onto a seed derived from
//!   `(seed, module, bank, chunk)` (see `hammervolt_dram::hash::chunk_seed`).
//!
//! A unit's records are then a pure function of the study configuration and
//! the unit's coordinates — never of scheduling — so sweep output is
//! **byte-identical for any worker count**, including one.
//!
//! One driver, keyed by [`SweepKind`], runs all three registry sweeps. Its
//! only public entry points are [`rowhammer_sweeps`], [`trcd_sweeps`] and
//! [`retention_sweeps`]; [`JobSpec::run`](crate::job::JobSpec::run) reaches
//! the same driver under its [`JobControl`]. A single-module sweep is a
//! configuration whose `modules` is `[id]`.
//!
//! # Sweep cache
//!
//! With `cache_dir` set, each completed module sweep is persisted as a
//! single-line JSON record in a file whose name embeds a 64-bit FNV-1a hash
//! of the full [`StudyConfig`] (with `modules` normalized to the one module
//! under test, so subset runs share entries) plus the sweep kind and its
//! parameters. A later run with the same configuration loads the file and
//! performs zero re-simulation; any configuration change produces a
//! different key, so entries never need invalidation. Serialization
//! round-trips floats exactly (shortest-representation printing), so cached
//! and freshly computed sweeps are byte-identical.
//!
//! Entries are not trusted blindly: each one is a [`CacheEnvelope`] carrying
//! the writer's sweep key and an FNV-1a checksum over the payload bytes.
//! `cache_read` re-derives both and falls back to recomputation on any
//! mismatch, so a truncated, bit-flipped, or key-swapped entry (the faults
//! `hammervolt-testkit` injects) is detected and recomputed, never served.

use crate::alg1::{self, Alg1Config, RowScratch};
use crate::alg2;
use crate::alg3;
use crate::error::StudyError;
use crate::experiment::vpp_ladder;
use crate::job::{JobControl, SweepKind};
use crate::patterns::DataPattern;
use crate::population;
use crate::records::{write_jsonl, RetentionRecord, RowHammerRecord, TrcdRecord};
use crate::study::{
    level_matches, thin_levels, ModuleHammerSweep, ModuleRetentionSweep, ModuleTrcdSweep,
    StudyConfig,
};
use hammervolt_dram::hash;
use hammervolt_dram::registry::ModuleId;
use hammervolt_dram::{Geometry, ModuleBlueprint};
use hammervolt_obs::{counter_add, histogram_record, manifest, progress, Span};
use hammervolt_softmc::SoftMc;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// How the engine runs: worker count, optional sweep cache, optional
/// chunk-granular checkpoints, and the blueprint cache its sweeps share.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Directory for the content-addressed sweep cache; `None` disables
    /// caching.
    pub cache_dir: Option<PathBuf>,
    /// Persist every completed `(module, chunk)` unit as a sealed checkpoint in
    /// `cache_dir` and restore finished units on re-run, so a cancelled or
    /// killed sweep resumes re-running only unfinished chunks. Requires
    /// `cache_dir`; a module's checkpoints are swept away once its
    /// module-level cache entry lands. Output stays byte-identical to an
    /// uninterrupted run.
    pub checkpoints: bool,
    /// Calibrated blueprints shared by every sweep run under this
    /// configuration or any clone of it. Every constructor starts a fresh,
    /// empty cache, so the study server's one configuration shares across
    /// all its jobs while separately built configurations stay independent.
    /// Blueprints are pure values: sharing never changes an output byte.
    pub blueprints: BlueprintCache,
}

impl ExecConfig {
    /// One worker, no cache — the reference serial semantics.
    pub fn serial() -> Self {
        ExecConfig {
            jobs: 1,
            ..ExecConfig::default()
        }
    }

    /// `jobs` workers, no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecConfig {
            jobs,
            ..ExecConfig::default()
        }
    }

    /// This configuration with chunk checkpoints switched on or off.
    #[must_use]
    pub fn with_checkpoints(mut self, on: bool) -> Self {
        self.checkpoints = on;
        self
    }

    /// Reads `HAMMERVOLT_JOBS` (worker count, `0` = auto),
    /// `HAMMERVOLT_CACHE_DIR` (cache directory) and `HAMMERVOLT_RESUME`
    /// (chunk checkpoints, truthy = on) from the environment. Unset (or
    /// empty) variables leave the defaults: one worker per CPU, no cache, no
    /// checkpoints. A variable that is set but unparsable or unusable is
    /// reported through the observability event sink (stderr when no sink is
    /// installed) before falling back, never silently ignored.
    pub fn from_env() -> Self {
        let jobs = match std::env::var("HAMMERVOLT_JOBS") {
            Ok(v) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    hammervolt_obs::warn(
                        "exec",
                        &format!(
                            "HAMMERVOLT_JOBS={v:?} is not a valid worker count; \
                             using auto (one worker per CPU)"
                        ),
                    );
                    0
                }
            },
            Err(std::env::VarError::NotPresent) => 0,
            Err(std::env::VarError::NotUnicode(_)) => {
                hammervolt_obs::warn(
                    "exec",
                    "HAMMERVOLT_JOBS is set but not valid UTF-8; using auto",
                );
                0
            }
        };
        let cache_dir = match std::env::var("HAMMERVOLT_CACHE_DIR") {
            Ok(v) if v.is_empty() => None,
            Ok(v) => {
                let dir = PathBuf::from(v);
                // Probe usability now so a bad directory is reported once at
                // configuration time instead of degrading every sweep into
                // silent cache misses.
                if let Err(err) = std::fs::create_dir_all(&dir) {
                    hammervolt_obs::warn(
                        "exec",
                        &format!(
                            "HAMMERVOLT_CACHE_DIR={} is unusable ({err}); caching disabled",
                            dir.display()
                        ),
                    );
                    None
                } else {
                    Some(dir)
                }
            }
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(_)) => {
                hammervolt_obs::warn(
                    "exec",
                    "HAMMERVOLT_CACHE_DIR is set but not valid UTF-8; caching disabled",
                );
                None
            }
        };
        let checkpoints = match std::env::var("HAMMERVOLT_RESUME") {
            Ok(v) => !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"),
            Err(_) => false,
        };
        ExecConfig {
            jobs,
            cache_dir,
            checkpoints,
            ..ExecConfig::default()
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        hammervolt_par::resolve_jobs(self.jobs)
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// The ordered fork-join map lives in `hammervolt-par` so the execution
// engine and the SPICE Monte-Carlo batcher share one scheduler (one claim
// discipline, one ordering guarantee, one panic-propagation policy). The
// engine runs the cancellable variant: a fired `JobControl` token stops
// workers at the next unit boundary and the sweep returns
// `StudyError::Cancelled`.
use hammervolt_par::parallel_map_cancellable_with;

// ---------------------------------------------------------------------------
// Session pool
// ---------------------------------------------------------------------------

static POOL_CREATES: AtomicU64 = AtomicU64::new(0);
static POOL_REUSES: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime totals over every [`ModulePool`]: `(sessions created,
/// sessions recycled)`. A plain side channel (static atomics, not `obs`
/// counters) so the observability stream pinned by the manifest goldens
/// does not depend on how units land on pooled sessions. Each pool also
/// keeps its own counts ([`ModulePool::stats`]).
pub fn pool_stats() -> (u64, u64) {
    (
        POOL_CREATES.load(Ordering::Relaxed),
        POOL_REUSES.load(Ordering::Relaxed),
    )
}

/// A worker's pool of live [`SoftMc`] sessions, one slot per module in the
/// sweep. Checking a session out recycles it back to its just-brought-up
/// state in O(touched rows) ([`SoftMc::recycle`]) instead of paying a fresh
/// `blueprint.instantiate()` clone plus plan compilation; checking it in
/// makes it available for the worker's next unit of the same module.
///
/// Error handling is fail-safe by construction: units only check a session
/// back in after completing successfully, so a session that errored
/// mid-unit (arbitrary intermediate state) is dropped — the pool never
/// recycles a poisoned instance.
#[derive(Debug)]
pub struct ModulePool {
    slots: Vec<Option<SoftMc>>,
    created: u64,
    reused: u64,
}

impl ModulePool {
    /// An empty pool with one slot per module.
    pub fn new(modules: usize) -> Self {
        ModulePool {
            slots: (0..modules).map(|_| None).collect(),
            created: 0,
            reused: 0,
        }
    }

    /// A session for `module_index`, pristine either way: the slot's
    /// recycled instance when one is pooled, a fresh
    /// `SoftMc::new(blueprint.instantiate())` otherwise.
    pub fn checkout(&mut self, module_index: usize, blueprint: &ModuleBlueprint) -> SoftMc {
        if let Some(mc) = self.slots.get_mut(module_index).and_then(Option::take) {
            self.reused += 1;
            POOL_REUSES.fetch_add(1, Ordering::Relaxed);
            return mc;
        }
        self.created += 1;
        POOL_CREATES.fetch_add(1, Ordering::Relaxed);
        SoftMc::new(blueprint.instantiate())
    }

    /// Returns a session that finished its unit cleanly. Call only on unit
    /// success — dropping an errored session instead is what keeps poisoned
    /// state out of the pool.
    ///
    /// The session is recycled *now*, not at the next checkout: an idle
    /// pooled session would otherwise pin its last unit's materialized rows
    /// (data words, per-cell masks, flip indexes — megabytes per module) for
    /// as long as it sits in the pool, and a wide sweep's worth of idle
    /// sessions adds up to a working set that thrashes the cache. Parked
    /// sessions hold only pristine arenas plus the cheap scalar row
    /// parameters.
    pub fn check_in(&mut self, module_index: usize, mut mc: SoftMc) {
        if let Some(slot) = self.slots.get_mut(module_index) {
            mc.recycle();
            *slot = Some(mc);
        }
    }

    /// This pool's own `(sessions created, sessions recycled)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.created, self.reused)
    }
}

// ---------------------------------------------------------------------------
// Blueprint cache
// ---------------------------------------------------------------------------

const BLUEPRINT_CAP: usize = 64;

static BLUEPRINT_HITS: AtomicU64 = AtomicU64::new(0);
static BLUEPRINT_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime totals over every [`BlueprintCache`]: `(hits, misses)`.
/// Same side-channel design as [`pool_stats`].
pub fn blueprint_cache_stats() -> (u64, u64) {
    (
        BLUEPRINT_HITS.load(Ordering::Relaxed),
        BLUEPRINT_MISSES.load(Ordering::Relaxed),
    )
}

/// What blueprint construction reads: module identity, specimen seed,
/// geometry.
type BlueprintKey = (ModuleId, u64, Geometry);

/// Cached blueprints, most-recently-used last.
type BlueprintEntries = Vec<(BlueprintKey, Arc<ModuleBlueprint>)>;

/// A handle on a bounded MRU of calibrated blueprints (each carrying its
/// memoized `V_PPmin` search) keyed by [`BlueprintKey`]. Clones share one
/// cache; [`Default`] makes a fresh, empty one. Entries are `Arc`-shared,
/// so a hit is a pointer clone and eviction never invalidates a running
/// sweep. Small linear scan: the whole fleet is 30 modules.
#[derive(Clone, Default)]
pub struct BlueprintCache(Arc<Mutex<BlueprintEntries>>);

impl std::fmt::Debug for BlueprintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlueprintCache")
            .field("entries", &self.lock().len())
            .finish()
    }
}

impl BlueprintCache {
    fn lock(&self) -> MutexGuard<'_, BlueprintEntries> {
        self.0.lock().expect("blueprint cache poisoned")
    }

    /// One module's calibrated blueprint for `config`: the cached one when
    /// this cache has seen the same module, seed and geometry before,
    /// otherwise calibrated now and cached.
    fn get(&self, config: &StudyConfig, id: ModuleId) -> Result<Arc<ModuleBlueprint>, StudyError> {
        let key = (id, config.module_seed(id), config.geometry_for(id));
        let cached = touch(&mut self.lock(), &key);
        if let Some(bp) = cached {
            BLUEPRINT_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(bp);
        }
        // Calibrate outside the lock: concurrent jobs may briefly duplicate
        // the work, but blueprints are pure values, so either result is
        // correct.
        BLUEPRINT_MISSES.fetch_add(1, Ordering::Relaxed);
        let bp = Arc::new(config.blueprint(id)?);
        let mut entries = self.lock();
        if let Some(raced) = touch(&mut entries, &key) {
            // A racing job landed the same key first; adopt its entry.
            return Ok(raced);
        }
        if entries.len() >= BLUEPRINT_CAP {
            entries.remove(0);
        }
        entries.push((key, Arc::clone(&bp)));
        Ok(bp)
    }
}

/// The entry for `key`, moved to the most-recently-used end.
fn touch(entries: &mut BlueprintEntries, key: &BlueprintKey) -> Option<Arc<ModuleBlueprint>> {
    let pos = entries.iter().position(|(k, _)| k == key)?;
    let entry = entries.remove(pos);
    let bp = Arc::clone(&entry.1);
    entries.push(entry);
    Some(bp)
}

// ---------------------------------------------------------------------------
// Work units
// ---------------------------------------------------------------------------

/// One `(module, chunk)` work unit.
struct Unit {
    /// Index of the module in the driver's module list.
    module_index: usize,
    id: ModuleId,
    chunk: u64,
    rows: Vec<u32>,
}

/// A unit's output: the module-wide sweep metadata (identical across the
/// module's units by determinism) plus records grouped by ladder level.
struct UnitOut<R> {
    vpp_min: f64,
    levels: Vec<f64>,
    per_level: Vec<Vec<R>>,
}

/// A unit's measured ladder: the levels swept and the records per level.
type Levels<R> = (Vec<f64>, Vec<Vec<R>>);

/// Starts a unit sub-phase timer when metrics are enabled; the disabled
/// path costs one relaxed load, like every instrumentation site here.
fn subphase_timer() -> Option<Instant> {
    hammervolt_obs::metrics_enabled().then(Instant::now)
}

/// Closes a unit bring-up timing window: one sample in the `exec_bringup_us`
/// histogram plus the manifest's accumulated `unit:bringup` phase — the
/// bring-up half of the bring-up-vs-steady profiling split.
fn record_bringup(t0: Option<Instant>) {
    if let Some(t0) = t0 {
        let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        histogram_record!("exec_bringup_us", us);
        manifest::add_phase_us("unit:bringup", us);
    }
}

/// Closes a unit steady-state timing window (`exec_steady_us` histogram,
/// `unit:steady` manifest phase): everything after bring-up — the ladder's
/// measurement loops and record assembly.
fn record_steady(t0: Option<Instant>) {
    if let Some(t0) = t0 {
        let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        histogram_record!("exec_steady_us", us);
        manifest::add_phase_us("unit:steady", us);
    }
}

/// Brings up a unit's private session: a pristine session for the module
/// from the worker's pool (spec, vendor profile, and `calibrate_eta_mean`
/// are paid once per module, not per chunk), the `V_PPmin` search, the
/// unit's temperature when it runs hot, then the noise stream rebased onto
/// the unit's chunk seed so results are independent of scheduling. The
/// chunk's row-parameter table is pre-derived so the ladder's loops never
/// derive parameters mid-sweep.
fn bring_up_unit(
    config: &StudyConfig,
    pool: &mut ModulePool,
    blueprint: &ModuleBlueprint,
    unit: &Unit,
    temperature_c: Option<f64>,
) -> Result<(SoftMc, f64), StudyError> {
    let mut mc = pool.checkout(unit.module_index, blueprint);
    let (vpp_min, steps) = match blueprint.vppmin_memo() {
        // The search result is a pure function of the calibrated module, so
        // a memoized value replaces the ladder outright. Checkout leaves the
        // session at nominal V_PP — the exact state `calibrate_vppmin` ends
        // in — so both arms satisfy the same ending-state contract.
        Some(memo) => memo,
        None => mc.calibrate_vppmin()?,
    };
    // Either way the unit accounts for one search, so manifests (and the
    // pinned observability goldens) are identical to the per-unit-search
    // engine.
    mc.record_vppmin_search(steps);
    if let Some(t) = temperature_c {
        mc.set_temperature(t)?;
    }
    mc.module_mut().reseed_noise(hash::chunk_seed(
        config.module_seed(unit.id),
        config.bank,
        unit.chunk,
    ));
    mc.module_mut().prepare_rows(config.bank, &unit.rows);
    Ok((mc, vpp_min))
}

/// Runs one unit: bring-up, then the kind's `ladder` over the unit's rows,
/// timed under the bring-up/steady split. The session goes back to the pool
/// only when the ladder succeeds.
fn run_unit<R, L>(
    sweep: &Sweep<'_>,
    pool: &mut ModulePool,
    blueprint: &ModuleBlueprint,
    unit: &Unit,
    ladder: &L,
) -> Result<UnitOut<R>, StudyError>
where
    L: Fn(&StudyConfig, &mut SoftMc, ModuleId, f64, &[u32]) -> Result<Levels<R>, StudyError>,
{
    let timer = subphase_timer();
    let (mut mc, vpp_min) =
        bring_up_unit(sweep.config, pool, blueprint, unit, sweep.temperature_c)?;
    record_bringup(timer);
    let timer = subphase_timer();
    let (levels, per_level) = ladder(sweep.config, &mut mc, unit.id, vpp_min, &unit.rows)?;
    record_steady(timer);
    pool.check_in(unit.module_index, mc);
    Ok(UnitOut {
        vpp_min,
        levels,
        per_level,
    })
}

/// Alg. 1 ladder: the full ladder over a unit's rows, with per-row WCDP
/// reuse across levels (§4.1/footnote 9 — the WCDP search runs once at
/// nominal `V_PP`, the chosen pattern is reused below).
fn hammer_ladder(
    config: &StudyConfig,
    mc: &mut SoftMc,
    id: ModuleId,
    vpp_min: f64,
    rows: &[u32],
) -> Result<Levels<RowHammerRecord>, StudyError> {
    let levels = vpp_ladder(vpp_min);
    let mut per_level: Vec<Vec<RowHammerRecord>> = levels.iter().map(|_| Vec::new()).collect();
    // Per-row WCDP memo, dense over the chunk's row list: the ladder probes
    // it once per (level, row) on the hot path, and a chunk's rows are a
    // small contiguous-by-construction sample, so a slot vector beats
    // hashing the row address every probe.
    let mut wcdp_by_slot: Vec<Option<DataPattern>> = vec![None; rows.len()];
    // One scratch per unit: the ladder's measurement loops reuse its buffers
    // instead of allocating per (level, row) step.
    let mut scratch = RowScratch::new();
    for (li, &vpp) in levels.iter().enumerate() {
        mc.set_vpp(vpp)?;
        for (slot, &row) in rows.iter().enumerate() {
            let cfg = if let Some(wcdp) = wcdp_by_slot[slot] {
                Alg1Config {
                    wcdp_override: Some(wcdp),
                    ..config.alg1
                }
            } else {
                config.alg1
            };
            let m = match alg1::measure_row_with(mc, config.bank, row, &cfg, &mut scratch) {
                Ok(m) => m,
                Err(StudyError::NoAggressor { .. }) => continue,
                Err(e) => return Err(e),
            };
            wcdp_by_slot[slot].get_or_insert(m.wcdp);
            per_level[li].push(RowHammerRecord {
                module: id,
                vpp,
                bank: config.bank,
                row,
                wcdp: m.wcdp,
                hc_first: m.hc_first,
                ber: m.ber,
            });
        }
    }
    Ok((levels, per_level))
}

/// Alg. 2 ladder: the ladder thinned to `levels_cap` levels over a unit's
/// rows.
fn trcd_ladder(
    levels_cap: usize,
) -> impl Fn(
    &StudyConfig,
    &mut SoftMc,
    ModuleId,
    f64,
    &[u32],
) -> Result<Levels<TrcdRecord>, StudyError>
       + Sync {
    move |config, mc, id, vpp_min, rows| {
        let levels = thin_levels(&vpp_ladder(vpp_min), levels_cap.max(2));
        let mut per_level: Vec<Vec<TrcdRecord>> = levels.iter().map(|_| Vec::new()).collect();
        for (li, &vpp) in levels.iter().enumerate() {
            mc.set_vpp(vpp)?;
            for &row in rows {
                let m = alg2::measure_row(mc, config.bank, row, &config.alg2)?;
                per_level[li].push(TrcdRecord {
                    module: id,
                    vpp,
                    bank: config.bank,
                    row,
                    t_rcd_min_ns: m.t_rcd_min_ns,
                });
            }
        }
        Ok((levels, per_level))
    }
}

/// Alg. 3 ladder: the retention levels (clamped at `V_PPmin`) over a unit's
/// rows. The unit was brought up at [`RETENTION_TEMP_C`]; the `V_PP` the
/// session sat at while the thermal loop settled is unobservable, because
/// the first measurement follows the first `set_vpp` below.
fn retention_ladder(
    config: &StudyConfig,
    mc: &mut SoftMc,
    id: ModuleId,
    vpp_min: f64,
    rows: &[u32],
) -> Result<Levels<RetentionRecord>, StudyError> {
    let mut levels: Vec<f64> = config
        .retention_vpp_levels
        .iter()
        .map(|&v| v.max(vpp_min))
        .collect();
    levels.dedup_by(|a, b| level_matches(*a, *b));
    let mut per_level: Vec<Vec<RetentionRecord>> = levels.iter().map(|_| Vec::new()).collect();
    for (li, &vpp) in levels.iter().enumerate() {
        mc.set_vpp(vpp)?;
        for &row in rows {
            let m = alg3::measure_row(mc, config.bank, row, &config.alg3)?;
            for p in &m.points {
                per_level[li].push(RetentionRecord {
                    module: id,
                    vpp,
                    bank: config.bank,
                    row,
                    window_s: p.window_s,
                    ber: p.ber,
                });
            }
        }
    }
    Ok((levels, per_level))
}

// ---------------------------------------------------------------------------
// Sharded driver
// ---------------------------------------------------------------------------

/// The temperature Alg. 3 measures retention at.
const RETENTION_TEMP_C: f64 = 80.0;

/// One module's assembled sweep: `(vpp_min, levels, records)`.
type Assembled<R> = (f64, Vec<f64>, Vec<R>);

/// One registry sweep in flight: everything the cache and sharding stages
/// read besides the module list.
struct Sweep<'a> {
    config: &'a StudyConfig,
    exec: &'a ExecConfig,
    ctl: &'a JobControl,
    /// The cache-kind string ([`SweepKind::cache_kind`]).
    kind: &'static str,
    /// The kind's cache-key parameter: the `t_RCD` level cap, else 0.
    extra: u64,
    /// Set for kinds whose units run hot (retention).
    temperature_c: Option<f64>,
    /// The sweep-wide span shard spans attach to.
    parent_span: u64,
}

impl Sweep<'_> {
    /// The cache key of module `id`'s sweep (see [`sweep_key`]).
    fn key(&self, id: ModuleId) -> u64 {
        sweep_key(self.config, id, self.kind, self.extra)
    }
}

/// Plans the `(module, chunk)` units for a module list, runs them on the
/// worker pool, and reassembles each module's records in canonical order
/// (level-major, chunks ascending — the order a serial sweep produces).
///
/// Instrumentation is a pure side channel and never affects which units
/// run or how their outputs assemble.
fn run_sharded<R, L>(
    sweep: &Sweep<'_>,
    modules: &[ModuleId],
    ladder: &L,
) -> Result<Vec<Assembled<R>>, StudyError>
where
    R: Send + Serialize + for<'de> Deserialize<'de>,
    L: Fn(&StudyConfig, &mut SoftMc, ModuleId, f64, &[u32]) -> Result<Levels<R>, StudyError> + Sync,
{
    let Sweep {
        config,
        exec,
        ctl,
        kind,
        ..
    } = *sweep;
    // The shared immutable stage of bring-up: one calibrated blueprint per
    // module (V_PPmin memo included), served to every work unit through the
    // configuration's blueprint cache.
    let blueprints: Vec<Arc<ModuleBlueprint>> = modules
        .iter()
        .map(|&id| exec.blueprints.get(config, id))
        .collect::<Result<_, _>>()?;
    let mut units: Vec<Unit> = Vec::new();
    for (module_index, &id) in modules.iter().enumerate() {
        let groups = config.sample(config.geometry_for(id)).groups();
        if groups.is_empty() {
            return Err(StudyError::InvalidConfig {
                reason: format!("module {} has an empty row sample", id.label()),
            });
        }
        for (chunk, rows) in groups.into_iter().enumerate() {
            units.push(Unit {
                module_index,
                id,
                chunk: chunk as u64,
                rows,
            });
        }
    }
    counter_add!("exec_modules", modules.len());
    counter_add!("exec_units", units.len());
    progress::add_totals(modules.len() as u64, units.len() as u64);
    ctl.progress()
        .add_totals(modules.len() as u64, units.len() as u64);
    // Chunk checkpoints live in the sweep-cache directory, addressed by the
    // module's sweep key continued over the chunk index — so they share the
    // cache's envelope verification and its any-config-change-changes-the-key
    // invalidation-free property.
    let ckpt_dir = if exec.checkpoints {
        exec.cache_dir.as_deref()
    } else {
        None
    };
    let module_keys: Vec<u64> = if ckpt_dir.is_some() {
        modules.iter().map(|&id| sweep.key(id)).collect()
    } else {
        Vec::new()
    };
    // Per-module outstanding-unit counts so the progress line can tick a
    // module the moment its last unit completes, whichever worker ran it.
    let outstanding: Vec<AtomicUsize> = modules.iter().map(|_| AtomicUsize::new(0)).collect();
    for u in &units {
        outstanding[u.module_index].fetch_add(1, Ordering::Relaxed);
    }
    // Each worker owns a session pool: sessions recycle across the units a
    // worker runs (O(touched) reset), and since a unit's output is a pure
    // function of its coordinates, pooling cannot perturb byte identity no
    // matter how units land on workers.
    let outputs = parallel_map_cancellable_with(
        &units,
        exec.effective_jobs(),
        &ctl.cancel,
        || ModulePool::new(modules.len()),
        |pool, u| {
            let mut span = Span::begin_child_of(sweep.parent_span, "exec.shard");
            span.field_str("module", &u.id.label());
            span.field_u64("bank", u64::from(config.bank));
            span.field_u64("chunk", u.chunk);
            span.field_u64("rows", u.rows.len() as u64);
            // Resume: a verified checkpoint replaces the unit's computation
            // outright — restored bytes equal recomputed bytes because the
            // unit is a pure function of (config, coordinates).
            let restored = ckpt_dir.and_then(|dir| {
                let skey = module_keys[u.module_index];
                let ukey = unit_key(skey, u.chunk);
                let path = unit_checkpoint_path(dir, kind, u.id, skey, u.chunk);
                match cache_read::<(f64, Vec<f64>, Vec<Vec<R>>)>(&path, ukey) {
                    CacheRead::Hit((vpp_min, levels, per_level)) => {
                        counter_add!("ckpt_hits", 1);
                        ctl.progress().checkpoint_hit();
                        Some(UnitOut {
                            vpp_min,
                            levels,
                            per_level,
                        })
                    }
                    CacheRead::Miss => None,
                    CacheRead::Corrupt => {
                        counter_add!("ckpt_corrupt_recovered", 1);
                        None
                    }
                }
            });
            let out = match restored {
                Some(unit_out) => Ok(unit_out),
                None => {
                    let timed = hammervolt_obs::metrics_enabled().then(Instant::now);
                    let out = run_unit(sweep, pool, &blueprints[u.module_index], u, ladder);
                    if let Some(t0) = timed {
                        histogram_record!("exec_unit_us", t0.elapsed().as_micros());
                    }
                    if let Ok(unit_out) = &out {
                        ctl.progress().unit_executed();
                        if let Some(dir) = ckpt_dir {
                            let skey = module_keys[u.module_index];
                            let ukey = unit_key(skey, u.chunk);
                            // Written inside the work item, so cooperative
                            // cancellation can never tear a checkpoint: the
                            // item either completes (checkpoint sealed) or
                            // never starts.
                            cache_store(
                                &unit_checkpoint_path(dir, kind, u.id, skey, u.chunk),
                                ukey,
                                &(unit_out.vpp_min, &unit_out.levels, &unit_out.per_level),
                            );
                        }
                    }
                    out
                }
            };
            ctl.progress().unit_done();
            if hammervolt_obs::progress_enabled() {
                progress::unit_done();
            }
            if outstanding[u.module_index].fetch_sub(1, Ordering::Relaxed) == 1 {
                ctl.progress().module_done();
                if hammervolt_obs::progress_enabled() {
                    progress::module_done();
                }
            }
            out
        },
    );
    let Some(outputs) = outputs else {
        return Err(StudyError::Cancelled);
    };
    let mut per_module: Vec<Vec<UnitOut<R>>> = modules.iter().map(|_| Vec::new()).collect();
    for (unit, out) in units.iter().zip(outputs) {
        per_module[unit.module_index].push(out?);
    }
    // Surface the bring-up share of total unit time (ROADMAP item 4's
    // profiling question) from the cumulative phase totals; recomputed after
    // every sweep so the manifest's value covers the whole run.
    if hammervolt_obs::collecting() {
        let phases = manifest::phases_snapshot();
        let total_of = |name: &str| {
            phases
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, us)| us)
        };
        let bringup = total_of("unit:bringup");
        let steady = total_of("unit:steady");
        if bringup + steady > 0 {
            manifest::annotate(
                "bringup_ratio",
                &format!("{:.4}", bringup as f64 / (bringup + steady) as f64),
            );
        }
        // Pool and blueprint-cache totals ride along as annotations (side
        // channels like `bringup_ratio` — the stable counter set the
        // goldens pin is untouched).
        let (created, reused) = pool_stats();
        manifest::annotate("pool_creates", &created.to_string());
        manifest::annotate("pool_reuses", &reused.to_string());
        let (bp_hits, bp_misses) = blueprint_cache_stats();
        manifest::annotate("blueprint_cache_hits", &bp_hits.to_string());
        manifest::annotate("blueprint_cache_misses", &bp_misses.to_string());
    }
    Ok(per_module.into_iter().map(stitch).collect())
}

/// Concatenates a module's unit outputs into one record list: level-major,
/// then chunks in ascending order — matching a serial sweep of the whole
/// sample.
fn stitch<R>(mut units: Vec<UnitOut<R>>) -> Assembled<R> {
    let vpp_min = units[0].vpp_min;
    let levels = units[0].levels.clone();
    debug_assert!(
        units.iter().all(|u| u.levels.len() == levels.len()),
        "units of one module must agree on the ladder"
    );
    let mut records = Vec::new();
    for li in 0..levels.len() {
        for unit in &mut units {
            records.append(&mut unit.per_level[li]);
        }
    }
    (vpp_min, levels, records)
}

// ---------------------------------------------------------------------------
// Content-addressed sweep cache
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over a byte string, continuing from `h`. Public because
/// the job layer derives spec hashes with the same function the cache keys
/// use (one hashing discipline across the workspace).
pub fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a-64 offset basis — the starting `h` for [`fnv1a64`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// On-disk format version; bumped whenever the envelope layout changes so
/// old entries miss instead of misparsing.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The verified on-disk wrapper around one cached sweep.
///
/// The payload is stored as a JSON string (the sweep's exact serialization),
/// so the checksum covers the precise bytes that deserialize back into the
/// sweep and warm loads stay byte-identical to cold computes. `key` records
/// the sweep key the *writer* derived from its configuration; a reader
/// computing a different key (stale-key swap, renamed file) rejects the
/// entry even if its checksum is internally consistent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEnvelope {
    /// Envelope format version ([`CACHE_FORMAT_VERSION`]).
    pub version: u32,
    /// Writer's sweep key (config hash + kind + parameter), zero-padded hex.
    pub key: String,
    /// FNV-1a-64 over the payload bytes, zero-padded hex.
    pub checksum: String,
    /// The sweep's JSON serialization.
    pub payload: String,
}

/// The cache key for one module's sweep: a hash of the full configuration
/// (with `modules` normalized to the one module, so subset runs share
/// entries), the sweep kind, and any kind-specific parameter.
pub fn sweep_key(config: &StudyConfig, id: ModuleId, kind: &str, extra: u64) -> u64 {
    let normalized = StudyConfig {
        modules: vec![id],
        ..config.clone()
    };
    let json = serde_json::to_string(&normalized).expect("StudyConfig serializes");
    let mut h = fnv1a64(kind.as_bytes(), FNV_OFFSET);
    h = fnv1a64(&extra.to_le_bytes(), h);
    fnv1a64(json.as_bytes(), h)
}

/// The cache file path for one `(kind, module, key)` entry.
pub fn cache_path(dir: &Path, kind: &str, id: ModuleId, key: u64) -> PathBuf {
    dir.join(format!("{kind}-{}-{key:016x}.jsonl", id.label()))
}

/// The checkpoint key for one `(module, chunk)` unit: the module's sweep
/// key (see [`sweep_key`]) continued over the chunk index.
pub fn unit_key(sweep_key: u64, chunk: u64) -> u64 {
    fnv1a64(&chunk.to_le_bytes(), sweep_key)
}

/// The checkpoint file path for one `(module, chunk)` unit. The name embeds
/// the module's sweep key so a whole module's checkpoints share a prefix and
/// can be swept away together once its sweep-level entry lands.
pub fn unit_checkpoint_path(
    dir: &Path,
    kind: &str,
    id: ModuleId,
    sweep_key: u64,
    chunk: u64,
) -> PathBuf {
    dir.join(format!(
        "ckpt-{kind}-{}-{sweep_key:016x}-{chunk}.jsonl",
        id.label()
    ))
}

/// Removes every checkpoint for one module's sweep (best-effort — leftover
/// checkpoints are harmless, merely stale disk).
fn clear_unit_checkpoints(dir: &Path, kind: &str, id: ModuleId, sweep_key: u64) {
    let prefix = format!("ckpt-{kind}-{}-{sweep_key:016x}-", id.label());
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Seals a payload into its single-line envelope form: the exact line
/// [`cache_store`] writes for `key`. Public so conformance tests can forge
/// valid entries (proving warm hits are served from disk) and fault
/// injectors can re-seal corrupted payloads.
pub fn seal_entry(key: u64, payload_json: &str) -> String {
    let envelope = CacheEnvelope {
        version: CACHE_FORMAT_VERSION,
        key: format!("{key:016x}"),
        checksum: format!("{:016x}", fnv1a64(payload_json.as_bytes(), FNV_OFFSET)),
        payload: payload_json.to_string(),
    };
    serde_json::to_string(&envelope).expect("envelope serializes")
}

/// Verifies an envelope line against the reader's expected key and returns
/// the payload on success. `None` on parse failure, version skew, key
/// mismatch (stale-key swap), or checksum mismatch (corruption). Public so
/// stress and fault-injection suites can verify entries exactly the way the
/// engine does.
pub fn open_entry(line: &str, expected_key: u64) -> Option<String> {
    let envelope: CacheEnvelope = serde_json::from_str(line).ok()?;
    if envelope.version != CACHE_FORMAT_VERSION {
        return None;
    }
    if envelope.key != format!("{expected_key:016x}") {
        return None;
    }
    let computed = format!("{:016x}", fnv1a64(envelope.payload.as_bytes(), FNV_OFFSET));
    if envelope.checksum != computed {
        return None;
    }
    Some(envelope.payload)
}

/// Outcome of one cache lookup, distinguishing a plain miss (no entry on
/// disk) from a *corrupt* entry — present but truncated, bit-flipped,
/// key-swapped, or version-skewed — so recoveries are countable.
enum CacheRead<T> {
    /// Verified entry, payload deserialized.
    Hit(T),
    /// No entry on disk (or the file is unreadable).
    Miss,
    /// An entry exists but failed envelope or payload verification; it will
    /// be recomputed and rewritten, never served.
    Corrupt,
}

/// Reads and classifies one cache entry (see [`CacheRead`]).
fn cache_read<T: for<'de> Deserialize<'de>>(path: &Path, expected_key: u64) -> CacheRead<T> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return CacheRead::Miss;
    };
    let Some(line) = text.lines().find(|l| !l.trim().is_empty()) else {
        return CacheRead::Corrupt;
    };
    let Some(payload) = open_entry(line, expected_key) else {
        return CacheRead::Corrupt;
    };
    match serde_json::from_str(&payload) {
        Ok(value) => CacheRead::Hit(value),
        Err(_) => CacheRead::Corrupt,
    }
}

/// Loads and verifies a cached sweep; `None` on miss, any read/parse
/// failure, or an envelope whose key or checksum does not match (the entry
/// is then recomputed and rewritten). Public for the multi-writer stress
/// suite, which must observe entries through the verifying read path.
pub fn cache_load<T: for<'de> Deserialize<'de>>(path: &Path, expected_key: u64) -> Option<T> {
    match cache_read(path, expected_key) {
        CacheRead::Hit(value) => Some(value),
        CacheRead::Miss | CacheRead::Corrupt => None,
    }
}

/// Persists a sweep as one sealed envelope line, atomically
/// (write-then-rename), so a concurrent reader never sees a partial entry.
/// Best-effort: cache I/O failures never fail the sweep.
///
/// The temp name carries the process id *and* a process-wide store counter:
/// two threads storing to the same path concurrently (e.g. two workers
/// finishing the same module's sweep in separate pools) each write their own
/// temp file, so neither can rename the other's half-written bytes into
/// place. Public so the multi-writer stress suite can hammer this exact
/// path from many threads.
pub fn cache_store<T: Serialize>(path: &Path, key: u64, value: &T) {
    static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(json) = serde_json::to_string(value) else {
        return;
    };
    let line = seal_entry(key, &json);
    let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    if std::fs::write(&tmp, line + "\n").is_ok() && std::fs::rename(&tmp, path).is_ok() {
        counter_add!("cache_stores", 1);
    }
}

/// Runs `compute` for the modules missing from the cache, merging cached
/// and fresh sweeps back into `config.modules` order.
fn with_cache<T, G>(sweep: &Sweep<'_>, compute: G) -> Result<Vec<T>, StudyError>
where
    T: Serialize + for<'de> Deserialize<'de>,
    G: FnOnce(&[ModuleId]) -> Result<Vec<T>, StudyError>,
{
    let Sweep {
        config,
        exec,
        ctl,
        kind,
        ..
    } = *sweep;
    let modules = &config.modules;
    // Touch-register the cache counters so every manifest reports them,
    // zero included — a run without a cache dir should say "0 hits", not
    // omit the counter.
    if hammervolt_obs::metrics_enabled() {
        hammervolt_obs::metrics::counter("cache_hits");
        hammervolt_obs::metrics::counter("cache_misses");
        hammervolt_obs::metrics::counter("cache_corrupt_recovered");
        hammervolt_obs::metrics::counter("cache_stores");
    }
    let Some(dir) = exec.cache_dir.as_deref() else {
        return compute(modules);
    };
    let mut slots: Vec<Option<T>> = Vec::with_capacity(modules.len());
    let mut missing: Vec<ModuleId> = Vec::new();
    for &id in modules {
        let key = sweep.key(id);
        let hit = match cache_read::<T>(&cache_path(dir, kind, id, key), key) {
            CacheRead::Hit(value) => {
                counter_add!("cache_hits", 1);
                progress::cache_lookup(true);
                ctl.progress().cache_lookup(true);
                Some(value)
            }
            CacheRead::Miss => {
                counter_add!("cache_misses", 1);
                progress::cache_lookup(false);
                ctl.progress().cache_lookup(false);
                None
            }
            CacheRead::Corrupt => {
                counter_add!("cache_misses", 1);
                counter_add!("cache_corrupt_recovered", 1);
                progress::cache_lookup(false);
                ctl.progress().cache_lookup(false);
                hammervolt_obs::warn(
                    "exec",
                    &format!(
                        "corrupt cache entry for {kind}/{} rejected; recomputing",
                        id.label()
                    ),
                );
                None
            }
        };
        if hit.is_none() {
            missing.push(id);
        }
        slots.push(hit);
    }
    let fresh = compute(&missing)?;
    let mut fresh = fresh.into_iter();
    for (slot, &id) in slots.iter_mut().zip(modules) {
        if slot.is_none() {
            let value = fresh.next().expect("compute returns one sweep per module");
            let key = sweep.key(id);
            cache_store(&cache_path(dir, kind, id, key), key, &value);
            // The sweep-level entry supersedes the module's chunk
            // checkpoints; sweep them away so a cache dir doesn't
            // accumulate one file per chunk forever.
            if exec.checkpoints {
                clear_unit_checkpoints(dir, kind, id, key);
            }
            *slot = Some(value);
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect())
}

// ---------------------------------------------------------------------------
// Public sweep drivers
// ---------------------------------------------------------------------------

/// Opens the sweep-wide trace span and records the study-configuration hash
/// as the manifest's `config_hash` annotation. The hash is an FNV-1a-64
/// over the configuration's exact JSON serialization, so any parameter
/// change produces a new hash (the same property the sweep cache keys rely
/// on). Inert when nothing collects.
fn begin_sweep(config: &StudyConfig, exec: &ExecConfig, kind: &str, modules: usize) -> Span {
    if hammervolt_obs::collecting() {
        let json = serde_json::to_string(config).expect("StudyConfig serializes");
        manifest::annotate(
            "config_hash",
            &format!("{:016x}", fnv1a64(json.as_bytes(), FNV_OFFSET)),
        );
        manifest::annotate("jobs", &exec.effective_jobs().to_string());
    }
    let mut span = Span::begin("exec.sweep");
    span.field_str("kind", kind);
    span.field_u64("modules", modules as u64);
    span
}

/// The one sweep driver: runs registry sweep `kind` over every module in
/// `config` under `ctl` — manifest phase, sweep span, module-level cache,
/// sharded units — and builds each module's sweep from its stitched records
/// with `build`. `ladder` measures one unit's rows.
fn sweeps<R, S, L>(
    config: &StudyConfig,
    kind: &SweepKind,
    exec: &ExecConfig,
    ctl: &JobControl,
    ladder: L,
    build: fn(ModuleId, Assembled<R>) -> S,
) -> Result<Vec<S>, StudyError>
where
    R: Send + Serialize + for<'de> Deserialize<'de>,
    S: Serialize + for<'de> Deserialize<'de>,
    L: Fn(&StudyConfig, &mut SoftMc, ModuleId, f64, &[u32]) -> Result<Levels<R>, StudyError> + Sync,
{
    let name = kind.cache_kind();
    let _phase = manifest::phase(&format!("sweep:{name}"));
    let sweep_span = begin_sweep(config, exec, name, config.modules.len());
    let sweep = Sweep {
        config,
        exec,
        ctl,
        kind: name,
        extra: match kind {
            SweepKind::Trcd { levels_cap } => *levels_cap as u64,
            _ => 0,
        },
        temperature_c: matches!(kind, SweepKind::Retention).then_some(RETENTION_TEMP_C),
        parent_span: sweep_span.id(),
    };
    with_cache(&sweep, |missing| {
        let assembled = run_sharded(&sweep, missing, &ladder)?;
        Ok(missing
            .iter()
            .zip(assembled)
            .map(|(&id, module)| build(id, module))
            .collect())
    })
}

// How the driver builds each kind's module sweep from its stitched records.

fn hammer_sweep(
    module: ModuleId,
    (vpp_min, vpp_levels, records): Assembled<RowHammerRecord>,
) -> ModuleHammerSweep {
    ModuleHammerSweep {
        module,
        vpp_min,
        vpp_levels,
        records,
    }
}

fn trcd_sweep(
    module: ModuleId,
    (vpp_min, vpp_levels, records): Assembled<TrcdRecord>,
) -> ModuleTrcdSweep {
    ModuleTrcdSweep {
        module,
        vpp_min,
        vpp_levels,
        records,
    }
}

fn retention_sweep(
    module: ModuleId,
    (vpp_min, vpp_levels, records): Assembled<RetentionRecord>,
) -> ModuleRetentionSweep {
    ModuleRetentionSweep {
        module,
        vpp_min,
        vpp_levels,
        records,
    }
}

// ---------------------------------------------------------------------------
// Public sweep entry points
// ---------------------------------------------------------------------------

/// Runs the Alg. 1 RowHammer sweep for every module in the configuration,
/// sharded across modules *and* row chunks within each module.
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit.
pub fn rowhammer_sweeps(
    config: &StudyConfig,
    exec: &ExecConfig,
) -> Result<Vec<ModuleHammerSweep>, StudyError> {
    let ctl = JobControl::new();
    sweeps(
        config,
        &SweepKind::Hammer,
        exec,
        &ctl,
        hammer_ladder,
        hammer_sweep,
    )
}

/// Runs the Alg. 2 activation-latency sweep for every configured module.
/// To bound cost it sweeps nominal and `V_PPmin` plus evenly spaced
/// intermediate levels, `levels_cap` in total.
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit.
pub fn trcd_sweeps(
    config: &StudyConfig,
    levels_cap: usize,
    exec: &ExecConfig,
) -> Result<Vec<ModuleTrcdSweep>, StudyError> {
    let kind = SweepKind::Trcd { levels_cap };
    let ctl = JobControl::new();
    sweeps(
        config,
        &kind,
        exec,
        &ctl,
        trcd_ladder(levels_cap),
        trcd_sweep,
    )
}

/// Runs the Alg. 3 retention sweep at 80 °C for every configured module.
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit.
pub fn retention_sweeps(
    config: &StudyConfig,
    exec: &ExecConfig,
) -> Result<Vec<ModuleRetentionSweep>, StudyError> {
    let ctl = JobControl::new();
    sweeps(
        config,
        &SweepKind::Retention,
        exec,
        &ctl,
        retention_ladder,
        retention_sweep,
    )
}

/// The record payload of a job of `kind` under `ctl`: exactly the JSONL the
/// CLI prints, one record per line, modules in configuration order.
/// Registry sweeps run through the same driver as the public entry points;
/// population studies run through [`population::population_run`].
pub(crate) fn records_jsonl(
    config: &StudyConfig,
    kind: &SweepKind,
    exec: &ExecConfig,
    ctl: &JobControl,
) -> Result<String, StudyError> {
    let mut out = Vec::new();
    let written = match kind {
        SweepKind::Hammer => sweeps(config, kind, exec, ctl, hammer_ladder, hammer_sweep)?
            .iter()
            .try_for_each(|s| write_jsonl(&s.records, &mut out)),
        &SweepKind::Trcd { levels_cap } => {
            sweeps(config, kind, exec, ctl, trcd_ladder(levels_cap), trcd_sweep)?
                .iter()
                .try_for_each(|s| write_jsonl(&s.records, &mut out))
        }
        SweepKind::Retention => sweeps(config, kind, exec, ctl, retention_ladder, retention_sweep)?
            .iter()
            .try_for_each(|s| write_jsonl(&s.records, &mut out)),
        SweepKind::Population(cfg) => {
            // One line per batch, then the summary as the final line.
            let (records, summary) = population::population_run(cfg, exec, ctl)?;
            write_jsonl(&records, &mut out)
                .and_then(|()| write_jsonl(std::slice::from_ref(&summary), &mut out))
        }
    };
    written.map_err(|e| StudyError::InvalidConfig {
        reason: format!("cannot serialize records: {e}"),
    })?;
    Ok(String::from_utf8(out).expect("JSON is UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammervolt_par::parallel_map;
    use std::sync::atomic::AtomicU64;

    fn tiny_config(modules: &[ModuleId]) -> StudyConfig {
        StudyConfig {
            rows_per_chunk: 3,
            ..StudyConfig::quick_subset(modules)
        }
    }

    fn unique_temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hammervolt-exec-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // degenerate pools
        assert_eq!(parallel_map(&items, 1, |&x| x + 1).len(), 37);
        assert!(parallel_map(&Vec::<u64>::new(), 8, |&x: &u64| x).is_empty());
    }

    #[test]
    fn hammer_sweep_is_identical_across_worker_counts() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let serial = rowhammer_sweeps(&cfg, &ExecConfig::serial())
            .unwrap()
            .remove(0);
        for jobs in [2, 4, 16] {
            let parallel = rowhammer_sweeps(&cfg, &ExecConfig::with_jobs(jobs))
                .unwrap()
                .remove(0);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "jobs={jobs} must be byte-identical to serial"
            );
        }
    }

    #[test]
    fn multi_module_sweeps_match_single_module_runs() {
        let cfg = tiny_config(&[ModuleId::B3, ModuleId::C0]);
        let together = rowhammer_sweeps(&cfg, &ExecConfig::with_jobs(4)).unwrap();
        assert_eq!(together.len(), 2);
        for (i, &id) in cfg.modules.iter().enumerate() {
            let alone = rowhammer_sweeps(&tiny_config(&[id]), &ExecConfig::serial())
                .unwrap()
                .remove(0);
            assert_eq!(
                serde_json::to_string(&together[i]).unwrap(),
                serde_json::to_string(&alone).unwrap(),
            );
        }
    }

    #[test]
    fn cache_round_trips_byte_identically() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("roundtrip");
        let exec = ExecConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let cold = rowhammer_sweeps(&cfg, &exec).unwrap().remove(0);
        // The entry exists on disk now.
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        assert!(cache_path(&dir, "hammer", ModuleId::B3, key).exists());
        // Warm run: loaded, not recomputed, identical bytes.
        let warm = rowhammer_sweeps(&cfg, &exec).unwrap().remove(0);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_configs_kinds_and_modules() {
        let a = tiny_config(&[ModuleId::B3]);
        let b = StudyConfig {
            rows_per_chunk: 4,
            ..a.clone()
        };
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&b, ModuleId::B3, "hammer", 0)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&a, ModuleId::B3, "trcd", 0)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "trcd", 2),
            sweep_key(&a, ModuleId::B3, "trcd", 4)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&a, ModuleId::C0, "hammer", 0)
        );
        // The key ignores which *other* modules the config selects.
        let subset = tiny_config(&[ModuleId::B3, ModuleId::C0]);
        assert_eq!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&subset, ModuleId::B3, "hammer", 0)
        );
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("corrupt");
        let exec = ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        let path = cache_path(&dir, "hammer", ModuleId::B3, key);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "not json\n").unwrap();
        let sweep = rowhammer_sweeps(&cfg, &exec).unwrap().remove(0);
        assert!(!sweep.records.is_empty());
        // The corrupt entry was replaced by a valid one.
        assert!(cache_load::<ModuleHammerSweep>(&path, key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_to_one_path_never_corrupt_the_entry() {
        // Regression: the temp name used to carry only the process id, so two
        // threads storing the same path shared one temp file — one thread
        // could rename the other's half-written bytes into place. With the
        // store counter in the suffix every writer owns its temp file; the
        // final entry is always one writer's complete, verifiable line.
        let dir = unique_temp_dir("concurrent-store");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.jsonl");
        let key = 0xDEAD_BEEFu64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let payload: Vec<u64> = vec![t, i, t * 1000 + i];
                        cache_store(path, key, &payload);
                    }
                });
            }
        });
        let loaded: Vec<u64> =
            cache_load(&path, key).expect("entry must verify after concurrent stores");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2], loaded[0] * 1000 + loaded[1]);
        // Every writer renamed its own temp file; none leak.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .map(|e| e.file_name())
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_seal_open_round_trip() {
        let payload = r#"{"hello":[1,2,3]}"#;
        let line = seal_entry(42, payload);
        assert_eq!(open_entry(&line, 42).as_deref(), Some(payload));
        // Wrong expected key: a stale-key swap is rejected.
        assert_eq!(open_entry(&line, 43), None);
    }

    #[test]
    fn envelope_rejects_corruption() {
        let payload = r#"{"ber":0.25,"rows":[7,8]}"#;
        let line = seal_entry(7, payload);

        // Single-character payload corruption breaks the checksum.
        let tampered = line.replace("0.25", "0.26");
        assert_ne!(tampered, line, "tamper must change the line");
        assert_eq!(open_entry(&tampered, 7), None);

        // Truncation breaks JSON parsing.
        assert_eq!(open_entry(&line[..line.len() / 2], 7), None);

        // A version bump invalidates old entries wholesale.
        let old = line.replace(
            &format!("\"version\":{CACHE_FORMAT_VERSION}"),
            "\"version\":1",
        );
        assert_ne!(old, line, "version field must be present");
        assert_eq!(open_entry(&old, 7), None);
    }

    #[test]
    fn tampered_cache_payload_is_detected_and_recomputed() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("tamper");
        let exec = ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let cold = rowhammer_sweeps(&cfg, &exec).unwrap().remove(0);
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        let path = cache_path(&dir, "hammer", ModuleId::B3, key);

        // Flip one payload character without re-sealing: the checksum catches
        // it and the engine recomputes the true result.
        let line = std::fs::read_to_string(&path).unwrap();
        let mut envelope: CacheEnvelope = serde_json::from_str(line.trim()).unwrap();
        let mut sweep: ModuleHammerSweep = serde_json::from_str(&envelope.payload).unwrap();
        sweep.records[0].ber = 0.123_456_789;
        envelope.payload = serde_json::to_string(&sweep).unwrap();
        std::fs::write(&path, serde_json::to_string(&envelope).unwrap()).unwrap();

        let reread = rowhammer_sweeps(&cfg, &exec).unwrap().remove(0);
        assert_ne!(reread.records[0].ber, 0.123_456_789);
        assert_eq!(
            serde_json::to_string(&reread).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "detection must fall back to the true recomputed sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_warns_on_unparsable_jobs_instead_of_silent_fallback() {
        // Env vars and the event sink are process-global; this is the only
        // test in this binary that touches either.
        let sink = std::sync::Arc::new(hammervolt_obs::MemorySink::new());
        hammervolt_obs::set_sink(Some(sink.clone()));
        std::env::set_var("HAMMERVOLT_JOBS", "not-a-number");
        let cfg = ExecConfig::from_env();
        std::env::remove_var("HAMMERVOLT_JOBS");
        hammervolt_obs::set_sink(None);

        assert_eq!(cfg.jobs, 0, "unparsable HAMMERVOLT_JOBS falls back to auto");
        let lines = sink.lines();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"type\":\"warn\"") && l.contains("HAMMERVOLT_JOBS")),
            "a warn event must be emitted for the bad value: {lines:?}"
        );
    }

    #[test]
    fn trcd_and_retention_are_identical_across_worker_counts() {
        let cfg = tiny_config(&[ModuleId::A0]);
        let t1 = trcd_sweeps(&cfg, 3, &ExecConfig::serial()).unwrap();
        let t4 = trcd_sweeps(&cfg, 3, &ExecConfig::with_jobs(4)).unwrap();
        assert_eq!(
            serde_json::to_string(&t1).unwrap(),
            serde_json::to_string(&t4).unwrap()
        );
        let r1 = retention_sweeps(&cfg, &ExecConfig::serial()).unwrap();
        let r4 = retention_sweeps(&cfg, &ExecConfig::with_jobs(4)).unwrap();
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r4).unwrap()
        );
    }

    #[test]
    fn blueprint_cache_is_shared_by_clones_only() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let exec = ExecConfig::default();
        let clone = exec.clone();
        let separate = ExecConfig::default();
        rowhammer_sweeps(&cfg, &exec).unwrap();
        assert_eq!(exec.blueprints.lock().len(), 1);
        assert_eq!(clone.blueprints.lock().len(), 1, "a clone shares the cache");
        assert_eq!(
            separate.blueprints.lock().len(),
            0,
            "separately built configurations must not share entries"
        );
    }

    #[test]
    fn second_sweep_on_one_config_calibrates_nothing() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let exec = ExecConfig::serial();
        let first = rowhammer_sweeps(&cfg, &exec).unwrap();
        // Plant a sentinel under the cached key: the blueprint of another
        // specimen. A second sweep that calibrated B3 again would not see it.
        let other = StudyConfig {
            seed: cfg.seed ^ 1,
            ..cfg.clone()
        };
        let sentinel = Arc::new(other.blueprint(ModuleId::B3).unwrap());
        exec.blueprints.lock()[0].1 = Arc::clone(&sentinel);
        let second = rowhammer_sweeps(&cfg, &exec).unwrap();
        trcd_sweeps(&cfg, 3, &exec).unwrap();
        let entries = exec.blueprints.lock();
        assert_eq!(entries.len(), 1);
        assert!(Arc::ptr_eq(&entries[0].1, &sentinel));
        assert_ne!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "the second sweep must run on the cached blueprint"
        );
    }
}
