//! The resumable, cancellable job abstraction over the execution engine.
//!
//! A **job** is one self-describing unit of study work: a sweep kind plus
//! the full [`StudyConfig`] it runs under. Its identity is the
//! [`JobSpec::spec_hash`] — an FNV-1a-64 over the spec's exact JSON
//! serialization, the same scheme the sweep cache keys use — so two
//! submitters asking for the same study *provably* ask for the same bytes,
//! which is what lets a scheduler dedup identical in-flight specs onto one
//! execution and serve warm resubmissions from the content-addressed cache.
//!
//! Jobs run through [`JobSpec::run`] under a [`JobControl`]:
//!
//! - **cancellation** — the control's [`CancelToken`] is threaded through
//!   the `hammervolt-par` workers; workers stop claiming `(module, chunk)`
//!   units at the next unit boundary and the run returns
//!   [`StudyError::Cancelled`]. In-flight units always complete, so durable
//!   side effects (cache entries, checkpoints) are never torn.
//! - **resume** — with [`ExecConfig::checkpoints`] enabled, every completed
//!   unit is persisted as a sealed envelope in the sweep-cache directory
//!   (chunk-granular checkpoints). A re-run of the same spec verifies and
//!   loads finished chunks and recomputes only the rest; output stays
//!   byte-identical to an uninterrupted run.
//! - **progress** — the control carries a lock-free [`JobProgress`] the
//!   engine ticks as units finish; [`JobControl::snapshot`] reads it from
//!   any thread without perturbing the run (pure side channel, like the
//!   `hammervolt-obs` counters it mirrors).
//!
//! The CLI's `--resume` flag and the `hammervolt-serve` study server are
//! both thin layers over this module.

use crate::error::StudyError;
use crate::exec::{self, ExecConfig};
use crate::population::PopulationConfig;
use crate::study::StudyConfig;
use hammervolt_obs::scope::Scope;
use hammervolt_obs::Span;
use hammervolt_par::CancelToken;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which sweep a job runs.
///
/// `Population` carries a float-bearing config, so the enum is `Clone +
/// PartialEq` rather than `Copy + Eq` like the registry sweeps alone would
/// allow. Serde's externally-tagged representation keeps the existing
/// variants' JSON unchanged, so pre-population spec hashes are stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepKind {
    /// Alg. 1 RowHammer ladder sweep.
    Hammer,
    /// Alg. 2 activation-latency sweep with a thinned ladder.
    Trcd {
        /// Maximum ladder levels swept (the CLI uses 4).
        levels_cap: usize,
    },
    /// Alg. 3 retention sweep.
    Retention,
    /// Generated-population study with CV-convergence adaptive stopping.
    Population(PopulationConfig),
}

impl SweepKind {
    /// The cache-kind string this sweep stores entries under (shared with
    /// [`crate::exec::sweep_key`]).
    pub fn cache_kind(&self) -> &'static str {
        match self {
            SweepKind::Hammer => "hammer",
            SweepKind::Trcd { .. } => "trcd",
            SweepKind::Retention => "retention",
            SweepKind::Population(_) => "population",
        }
    }

    /// Short lowercase label for logs and API payloads.
    pub fn label(&self) -> &'static str {
        self.cache_kind()
    }
}

/// One submittable study job: sweep kind plus full configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The sweep to run.
    pub kind: SweepKind,
    /// The study configuration (modules, seed, sample, algorithm knobs).
    pub config: StudyConfig,
}

impl JobSpec {
    /// A population job. The `config` field is irrelevant to population
    /// runs, so it is pinned to one canonical value — every submission of
    /// an equal [`PopulationConfig`] hashes (and therefore dedups and
    /// caches) identically.
    pub fn population(cfg: PopulationConfig) -> JobSpec {
        JobSpec {
            kind: SweepKind::Population(cfg),
            config: StudyConfig::smoke(),
        }
    }

    /// The spec's content hash: FNV-1a-64 over its exact JSON
    /// serialization. Two specs hash equal iff they serialize to the same
    /// bytes — the dedup and result-addressing key for schedulers.
    pub fn spec_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("JobSpec serializes");
        exec::fnv1a64(json.as_bytes(), exec::FNV_OFFSET)
    }

    /// Runs the job on the execution engine under `ctl`, producing the
    /// record payload the CLI would print for the same spec (byte-identical
    /// JSONL, one record per line, modules in configuration order).
    ///
    /// # Errors
    ///
    /// Propagates engine errors; returns [`StudyError::Cancelled`] when
    /// `ctl.cancel` fires before the run completes.
    pub fn run(&self, exec: &ExecConfig, ctl: &JobControl) -> Result<JobOutput, StudyError> {
        // Root the job's span tree at the submitter's span (an HTTP
        // request, for server jobs) and activate its metric scope so every
        // counter the engine ticks — on this thread or any `hammervolt-par`
        // worker — attributes to this job. Both are pure side channels.
        let mut span = if ctl.trace_parent() != 0 {
            Span::begin_child_of(ctl.trace_parent(), "job.run")
        } else {
            Span::begin("job.run")
        };
        span.field_str("kind", self.kind.label());
        span.field_str("spec_hash", &format!("{:016x}", self.spec_hash()));
        let _scope_guard = ctl.scope().map(hammervolt_obs::scope::enter);
        Ok(JobOutput {
            spec_hash: self.spec_hash(),
            records_jsonl: exec::records_jsonl(&self.config, &self.kind, exec, ctl)?,
        })
    }
}

/// A completed job's payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobOutput {
    /// The producing spec's [`JobSpec::spec_hash`].
    pub spec_hash: u64,
    /// The record payload: exactly the JSONL the CLI prints for this spec.
    pub records_jsonl: String,
}

/// Lock-free per-job progress, ticked by the execution engine as units
/// complete. A pure side channel: reading or ignoring it never affects the
/// run.
#[derive(Debug, Default)]
pub struct JobProgress {
    units_total: AtomicU64,
    units_done: AtomicU64,
    modules_total: AtomicU64,
    modules_done: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    checkpoint_hits: AtomicU64,
    units_executed: AtomicU64,
}

impl JobProgress {
    pub(crate) fn add_totals(&self, modules: u64, units: u64) {
        self.modules_total.fetch_add(modules, Ordering::Relaxed);
        self.units_total.fetch_add(units, Ordering::Relaxed);
    }

    pub(crate) fn unit_done(&self) {
        self.units_done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn module_done(&self) {
        self.modules_done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cache_lookup(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn checkpoint_hit(&self) {
        self.checkpoint_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn unit_executed(&self) {
        self.units_executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a job's progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Shard units planned across the job's sweeps.
    pub units_total: u64,
    /// Shard units finished (computed, checkpoint-loaded, or covered by a
    /// module-level cache hit counts separately below).
    pub units_done: u64,
    /// Modules planned.
    pub modules_total: u64,
    /// Modules finished.
    pub modules_done: u64,
    /// Module-level sweep-cache hits (no units planned for these).
    pub cache_hits: u64,
    /// Module-level sweep-cache misses.
    pub cache_misses: u64,
    /// Units restored from chunk checkpoints instead of recomputed.
    pub checkpoint_hits: u64,
    /// Units actually simulated by this run.
    pub units_executed: u64,
}

/// The handle a controller keeps on a running job: cancellation, progress,
/// and (for server-submitted jobs) the observability context the run
/// executes under.
#[derive(Debug, Clone, Default)]
pub struct JobControl {
    /// Cooperative cancellation token; [`CancelToken::cancel`] stops the
    /// job at the next unit boundary.
    pub cancel: CancelToken,
    progress: Arc<JobProgress>,
    /// Span id the job's root span parents to (`0` = root; the study server
    /// passes the submitting HTTP request's span so one job forms a single
    /// span tree from socket to shard).
    trace_parent: u64,
    /// Metric scope entered for the duration of [`JobSpec::run`], so the
    /// engine's counters attribute to this job.
    scope: Option<Arc<Scope>>,
}

impl JobControl {
    /// A fresh control with its own token and zeroed progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parents the job's root span to an existing span id (e.g. the
    /// submitting HTTP request's span).
    #[must_use]
    pub fn with_trace_parent(mut self, span_id: u64) -> Self {
        self.trace_parent = span_id;
        self
    }

    /// Runs the job under `scope`, attributing every engine counter tick to
    /// it (on the job thread and every fork-join worker).
    #[must_use]
    pub fn with_scope(mut self, scope: Arc<Scope>) -> Self {
        self.scope = Some(scope);
        self
    }

    /// The span id the job's root span parents to (`0` = root).
    pub fn trace_parent(&self) -> u64 {
        self.trace_parent
    }

    /// The metric scope the job runs under, if any.
    pub fn scope(&self) -> Option<&Arc<Scope>> {
        self.scope.as_ref()
    }

    /// The shared progress the engine ticks (for wiring, prefer
    /// [`JobControl::snapshot`] for reading).
    pub(crate) fn progress(&self) -> &JobProgress {
        &self.progress
    }

    /// Records a cache hit for a job that was satisfied without running
    /// (e.g. an in-memory result-cache hit in a scheduler), so its
    /// progress snapshot reports `cache_hits: 1` just like a disk-cache
    /// short-circuit inside the engine would.
    pub fn note_cache_hit(&self) {
        self.progress.cache_lookup(true);
    }

    /// A point-in-time copy of the job's progress counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let p = &self.progress;
        ProgressSnapshot {
            units_total: p.units_total.load(Ordering::Relaxed),
            units_done: p.units_done.load(Ordering::Relaxed),
            modules_total: p.modules_total.load(Ordering::Relaxed),
            modules_done: p.modules_done.load(Ordering::Relaxed),
            cache_hits: p.cache_hits.load(Ordering::Relaxed),
            cache_misses: p.cache_misses.load(Ordering::Relaxed),
            checkpoint_hits: p.checkpoint_hits.load(Ordering::Relaxed),
            units_executed: p.units_executed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::write_jsonl;
    use hammervolt_dram::registry::ModuleId;

    fn tiny_spec(kind: SweepKind) -> JobSpec {
        JobSpec {
            kind,
            config: StudyConfig {
                rows_per_chunk: 2,
                ..StudyConfig::quick_subset(&[ModuleId::B3])
            },
        }
    }

    #[test]
    fn spec_hash_is_stable_and_separates_specs() {
        let a = tiny_spec(SweepKind::Hammer);
        assert_eq!(a.spec_hash(), a.clone().spec_hash(), "hash is pure");
        let b = tiny_spec(SweepKind::Retention);
        assert_ne!(a.spec_hash(), b.spec_hash(), "kind separates specs");
        let c = JobSpec {
            config: StudyConfig {
                rows_per_chunk: 3,
                ..a.config.clone()
            },
            ..a.clone()
        };
        assert_ne!(a.spec_hash(), c.spec_hash(), "config separates specs");
        let t2 = tiny_spec(SweepKind::Trcd { levels_cap: 2 });
        let t3 = tiny_spec(SweepKind::Trcd { levels_cap: 3 });
        assert_ne!(t2.spec_hash(), t3.spec_hash(), "kind params separate specs");
    }

    #[test]
    fn spec_round_trips_through_json() {
        for kind in [
            SweepKind::Hammer,
            SweepKind::Trcd { levels_cap: 4 },
            SweepKind::Retention,
        ] {
            let spec = tiny_spec(kind);
            let json = serde_json::to_string(&spec).unwrap();
            let back: JobSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.spec_hash(), spec.spec_hash());
        }
    }

    #[test]
    fn job_run_matches_direct_engine_output() {
        let spec = tiny_spec(SweepKind::Hammer);
        let ctl = JobControl::new();
        let out = spec.run(&ExecConfig::serial(), &ctl).unwrap();
        assert_eq!(out.spec_hash, spec.spec_hash());

        let sweeps = exec::rowhammer_sweeps(&spec.config, &ExecConfig::serial()).unwrap();
        let mut buf = Vec::new();
        for sweep in &sweeps {
            write_jsonl(&sweep.records, &mut buf).unwrap();
        }
        assert_eq!(out.records_jsonl.as_bytes(), buf.as_slice());

        let snap = ctl.snapshot();
        assert!(snap.units_total > 0);
        assert_eq!(snap.units_done, snap.units_total);
        assert_eq!(snap.modules_done, snap.modules_total);
        assert_eq!(snap.units_executed, snap.units_total);
        assert_eq!(snap.checkpoint_hits, 0);
    }

    #[test]
    fn cancelled_token_stops_a_job_before_any_unit() {
        let spec = tiny_spec(SweepKind::Hammer);
        let ctl = JobControl::new();
        ctl.cancel.cancel();
        let err = spec.run(&ExecConfig::serial(), &ctl).unwrap_err();
        assert_eq!(err, StudyError::Cancelled);
        assert_eq!(ctl.snapshot().units_executed, 0);
    }
}
