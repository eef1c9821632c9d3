//! The threaded job scheduler: worker threads driving the deterministic
//! [`Core`] over real [`JobSpec`] executions.
//!
//! Threading is a thin shell — every scheduling decision is delegated to the
//! [`Core`] state machine under one mutex, with a logical tick counter as its
//! clock, so the concurrent scheduler inherits the core's tested fairness,
//! bounding, dedup, and stealing behavior. Workers block on a condvar when
//! idle and are woken by submissions and shutdown.
//!
//! Execution itself happens *outside* the lock: a worker claims a job,
//! releases the mutex, runs [`JobSpec::run`] under the job's [`JobControl`],
//! then re-locks to record the outcome and wake waiters. Cancellation fires
//! the running job's token; the engine returns [`StudyError::Cancelled`] at
//! the next unit boundary and (with checkpoints enabled) the finished chunks
//! stay on disk for the next submission of the same spec to resume from.
//!
//! Settled jobs (done, failed, cancelled while queued, or shed) stay
//! queryable until [`RETAINED_SETTLED`] newer jobs have settled; then the
//! oldest settled record is dropped and its id reads as unknown. Queued and
//! running jobs are never dropped. Job outputs are shared [`Arc`]s, so the
//! result cache, the job records and every waiter hold one copy of the
//! records JSONL.

use crate::sched::{CancelOutcome, Core, JobId, SchedConfig, SubmitOutcome};
use hammervolt_core::error::StudyError;
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobOutput, JobSpec, ProgressSnapshot};
use hammervolt_obs::scope::Scope;
use hammervolt_obs::{histogram_record, metrics};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity and the overflow policy rejects.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

/// A job's externally visible lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully; the output is available.
    Done,
    /// Finished with an engine error (message attached).
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
    /// Evicted from the queue by the shed-oldest overflow policy.
    Shed,
}

impl JobPhase {
    /// Whether the job has reached a terminal state.
    pub fn is_settled(&self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }

    /// Short lowercase label for API payloads.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Shed => "shed",
        }
    }
}

/// A point-in-time external view of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// The job's scheduler id.
    pub id: JobId,
    /// The job's content hash (shared by deduped submitters).
    pub spec_hash: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Progress counters (all zeros until the job starts).
    pub progress: ProgressSnapshot,
    /// How many submissions share this execution (1 + dedup hits).
    pub subscribers: u64,
    /// The submitting request's id (empty for jobs submitted without one).
    pub request_id: String,
    /// The job's scoped counter snapshot, name-sorted: every `obs` counter
    /// the engine ticked while executing *this* job — empty until it runs,
    /// or when metrics are disabled process-wide.
    pub metrics: Vec<(String, u64)>,
}

/// Scheduler-level numbers for `/stats`: the deterministic state the core
/// tracks, read under the same lock submissions take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Queued (not yet claimed) jobs across all deques.
    pub queue_depth: usize,
    /// Jobs claimed by workers but not yet completed.
    pub in_flight: usize,
    /// Each worker deque's queued length, by worker index.
    pub deque_lens: Vec<usize>,
    /// Jobs claimed per tenant over the scheduler's lifetime, name-sorted.
    pub tenants_served: Vec<(String, u64)>,
}

struct JobRecord {
    spec: JobSpec,
    spec_hash: u64,
    ctl: JobControl,
    phase: JobPhase,
    output: Option<Arc<JobOutput>>,
    subscribers: u64,
    /// The submitting request's id (propagated into `x-request-id`-rooted
    /// span trees and the job view).
    request_id: String,
    /// The job's metric scope; held here so its series stays visible to
    /// `/metrics` for as long as the job record is retained.
    scope: Arc<Scope>,
    /// When the job entered the queue (queue-wait histogram).
    queued_at: Instant,
}

impl JobRecord {
    fn view(&self, id: JobId) -> JobView {
        JobView {
            id,
            spec_hash: self.spec_hash,
            phase: self.phase.clone(),
            progress: self.ctl.snapshot(),
            subscribers: self.subscribers,
            request_id: self.request_id.clone(),
            metrics: self.scope.counters_snapshot(),
        }
    }
}

/// How many settled job records the scheduler keeps before dropping the
/// oldest; bounds the memory of a long-lived server however many jobs it
/// serves.
pub const RETAINED_SETTLED: usize = 1024;

/// Bound on the in-memory result cache: 32 recent job outputs is plenty for
/// warm-resubmit traffic while keeping worst-case memory small (outputs are
/// JSONL strings, typically a few KiB each).
const RESULT_CACHE_CAP: usize = 32;

static RESULT_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static RESULT_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(hits, misses)` for the in-memory result cache in front of
/// the disk sweep cache. Monotonic; test-facing.
pub fn result_cache_stats() -> (u64, u64) {
    (
        RESULT_CACHE_HITS.load(Ordering::Relaxed),
        RESULT_CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// In-memory LRU of completed job outputs keyed by spec hash, consulted
/// before [`JobSpec::run`] so a warm resubmit of an identical spec skips the
/// engine (and the disk cache deserialization) entirely. MRU entries live at
/// the back; only successful outputs are stored, so cancelled or failed jobs
/// always re-execute.
struct ResultLru {
    entries: Vec<(u64, Arc<JobOutput>)>,
}

impl ResultLru {
    fn get(&mut self, spec_hash: u64) -> Option<Arc<JobOutput>> {
        if let Some(pos) = self.entries.iter().position(|(h, _)| *h == spec_hash) {
            let entry = self.entries.remove(pos);
            let out = Arc::clone(&entry.1);
            self.entries.push(entry);
            RESULT_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            Some(out)
        } else {
            RESULT_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    fn put(&mut self, spec_hash: u64, output: &Arc<JobOutput>) {
        if let Some(pos) = self.entries.iter().position(|(h, _)| *h == spec_hash) {
            self.entries.remove(pos);
        } else if self.entries.len() >= RESULT_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push((spec_hash, Arc::clone(output)));
    }
}

struct Shared {
    core: Mutex<Inner>,
    /// Woken on submissions (workers) and on any job settling (waiters).
    changed: Condvar,
    exec: ExecConfig,
    tick: AtomicU64,
    /// In-memory result cache, keyed by spec hash (own lock: consulted
    /// outside the scheduling lock, on the worker's execution path).
    results: Mutex<ResultLru>,
}

struct Inner {
    core: Core,
    jobs: BTreeMap<JobId, JobRecord>,
    /// Settled job ids, oldest first; at most [`RETAINED_SETTLED`] long.
    settled: VecDeque<JobId>,
    shutdown: bool,
}

impl Inner {
    /// Records that `id` reached a terminal state, dropping the oldest
    /// settled record (here and in the core) once more than
    /// [`RETAINED_SETTLED`] are kept. Called exactly once per job, at the
    /// transition to settled, so only settled ids ever enter the FIFO.
    fn settle(&mut self, id: JobId) {
        self.settled.push_back(id);
        while self.settled.len() > RETAINED_SETTLED {
            if let Some(old) = self.settled.pop_front() {
                self.jobs.remove(&old);
                self.core.forget(old);
            }
        }
    }
}

/// The multi-tenant job scheduler. Create with [`Scheduler::start`], stop
/// with [`Scheduler::shutdown`] (also invoked on drop).
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `config.workers` worker threads executing jobs under `exec`
    /// (shared cache dir, per-job worker count, checkpoint policy). Every
    /// job runs under this one configuration, so all of them share its
    /// blueprint cache: a module calibrated for one job is never
    /// recalibrated for the next.
    pub fn start(config: SchedConfig, exec: ExecConfig) -> Self {
        let shared = Arc::new(Shared {
            core: Mutex::new(Inner {
                core: Core::new(config.clone()),
                jobs: BTreeMap::new(),
                settled: VecDeque::new(),
                shutdown: false,
            }),
            changed: Condvar::new(),
            exec,
            tick: AtomicU64::new(1),
            results: Mutex::new(ResultLru {
                entries: Vec::new(),
            }),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hv-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler { shared, workers }
    }

    fn now(&self) -> u64 {
        self.shared.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Submits a spec for `tenant`. Identical in-flight specs dedup onto the
    /// existing job (its id is returned and its subscriber count grows).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under the reject policy at capacity;
    /// [`SubmitError::ShuttingDown`] after [`Scheduler::shutdown`] began.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_with(tenant, spec, "", 0)
    }

    /// [`Scheduler::submit`] carrying the submitter's observability context:
    /// `request_id` is recorded on the job (and echoed in views), and
    /// `trace_parent` — the submitting request's span id, `0` for none —
    /// becomes the parent of the job's root span, so one job's spans form a
    /// single tree from socket to shard.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::submit`].
    pub fn submit_with(
        &self,
        tenant: &str,
        spec: JobSpec,
        request_id: &str,
        trace_parent: u64,
    ) -> Result<JobId, SubmitError> {
        let spec_hash = spec.spec_hash();
        let now = self.now();
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let reply = inner.core.submit(tenant, spec_hash, now);
        if let Some(shed) = reply.shed {
            if let Some(rec) = inner.jobs.get_mut(&shed) {
                rec.phase = JobPhase::Shed;
                inner.settle(shed);
            }
        }
        let id = match reply.outcome {
            SubmitOutcome::Rejected => return Err(SubmitError::QueueFull),
            SubmitOutcome::Deduped(id) => {
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.subscribers += 1;
                }
                id
            }
            SubmitOutcome::Queued(id) => {
                // One metric scope per job: the engine's counters attribute
                // to it while this job (and only this job) executes, however
                // many fork-join workers the run fans out over.
                let scope = Scope::new(&[
                    ("job_id", id.to_string().as_str()),
                    ("tenant", tenant),
                    ("sweep_kind", spec.kind.label()),
                ]);
                let ctl = JobControl::new()
                    .with_trace_parent(trace_parent)
                    .with_scope(Arc::clone(&scope));
                inner.jobs.insert(
                    id,
                    JobRecord {
                        spec,
                        spec_hash,
                        ctl,
                        phase: JobPhase::Queued,
                        output: None,
                        subscribers: 1,
                        request_id: request_id.to_string(),
                        scope,
                        queued_at: Instant::now(),
                    },
                );
                id
            }
        };
        refresh_gauges(&inner.core);
        drop(inner);
        self.shared.changed.notify_all();
        Ok(id)
    }

    /// A snapshot of one job, or `None` for an unknown id.
    pub fn view(&self, id: JobId) -> Option<JobView> {
        let inner = self.shared.core.lock().expect("scheduler poisoned");
        inner.jobs.get(&id).map(|rec| rec.view(id))
    }

    /// Scheduler-level numbers for `/stats`, read under the scheduling lock.
    pub fn stats(&self) -> SchedStats {
        let inner = self.shared.core.lock().expect("scheduler poisoned");
        SchedStats {
            queue_depth: inner.core.queued_len(),
            in_flight: inner.core.running_len(),
            deque_lens: inner.core.deque_lens(),
            tenants_served: inner.core.tenants_served(),
        }
    }

    /// Blocks until the job settles (or `timeout` elapses), then returns its
    /// final view plus output when done. `None` for an unknown id (never
    /// submitted, or settled long enough ago to have been dropped);
    /// `Some((view, None))` on timeout or non-`Done` terminal states.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<(JobView, Option<Arc<JobOutput>>)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        loop {
            let settled = match inner.jobs.get(&id) {
                None => return None,
                Some(rec) => rec.phase.is_settled(),
            };
            if settled {
                break;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _timeout) = self
                .shared
                .changed
                .wait_timeout(inner, left)
                .expect("scheduler poisoned");
            inner = guard;
        }
        inner
            .jobs
            .get(&id)
            .map(|rec| (rec.view(id), rec.output.clone()))
    }

    /// Requests cancellation. Queued jobs settle as `Cancelled` immediately;
    /// running jobs get their token fired and settle once the engine unwinds
    /// (cooperatively, at the next unit boundary). Returns `false` for an
    /// unknown id.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        match inner.core.cancel(id) {
            CancelOutcome::Unknown => false,
            CancelOutcome::Settled => true,
            CancelOutcome::WasQueued => {
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.phase = JobPhase::Cancelled;
                    inner.settle(id);
                }
                drop(inner);
                self.shared.changed.notify_all();
                true
            }
            CancelOutcome::WasRunning(_) => {
                if let Some(rec) = inner.jobs.get(&id) {
                    rec.ctl.cancel.cancel();
                }
                true
            }
        }
    }

    /// Stops accepting work, drains running jobs, and joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        inner.shutdown = true;
        drop(inner);
        self.shared.changed.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Re-publishes the scheduler gauges from the core's current state. Called
/// under the scheduling lock after every mutation; a no-op when metrics are
/// off so the hot path stays untouched in bare runs.
fn refresh_gauges(core: &Core) {
    if !hammervolt_obs::metrics_enabled() {
        return;
    }
    metrics::gauge("sched_queue_depth").set(i64::try_from(core.queued_len()).unwrap_or(i64::MAX));
    metrics::gauge("sched_inflight").set(i64::try_from(core.running_len()).unwrap_or(i64::MAX));
    for (w, len) in core.deque_lens().into_iter().enumerate() {
        metrics::gauge_named(&format!("sched_deque_len_{w}"))
            .set(i64::try_from(len).unwrap_or(i64::MAX));
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut inner = shared.core.lock().expect("scheduler poisoned");
    loop {
        let now = shared.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = inner.core.next(worker, now) {
            let Some((spec, spec_hash, ctl, queued_at)) = inner.jobs.get_mut(&id).map(|rec| {
                rec.phase = JobPhase::Running;
                (
                    rec.spec.clone(),
                    rec.spec_hash,
                    rec.ctl.clone(),
                    rec.queued_at,
                )
            }) else {
                // A claimed job with no record cannot happen (records are
                // inserted before the core learns the id), but completing it
                // keeps the core consistent if it ever did.
                inner.core.complete(id);
                continue;
            };
            refresh_gauges(&inner.core);
            drop(inner);
            if hammervolt_obs::metrics_enabled() {
                let wait_us = u64::try_from(queued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                histogram_record!("sched_queue_wait_us", wait_us);
            }
            let cached = shared
                .results
                .lock()
                .expect("result cache poisoned")
                .get(spec_hash);
            let result = if let Some(output) = cached {
                // Warm hit: the output is byte-identical to what a rerun
                // would produce (spec hash covers every input), so serve it
                // without touching the engine. The job still reports
                // `cache_hits: 1` / zero executed units, exactly like a
                // disk-cache short-circuit inside the engine.
                ctl.note_cache_hit();
                Ok(output)
            } else {
                let run_started = Instant::now();
                let result = spec.run(&shared.exec, &ctl).map(Arc::new);
                if hammervolt_obs::metrics_enabled() {
                    let run_us =
                        u64::try_from(run_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    histogram_record!("sched_job_run_us", run_us);
                }
                if let Ok(output) = &result {
                    shared
                        .results
                        .lock()
                        .expect("result cache poisoned")
                        .put(spec_hash, output);
                }
                result
            };
            inner = shared.core.lock().expect("scheduler poisoned");
            inner.core.complete(id);
            if let Some(rec) = inner.jobs.get_mut(&id) {
                match result {
                    Ok(output) => {
                        rec.output = Some(output);
                        rec.phase = JobPhase::Done;
                    }
                    Err(StudyError::Cancelled) => rec.phase = JobPhase::Cancelled,
                    Err(e) => rec.phase = JobPhase::Failed(e.to_string()),
                }
                inner.settle(id);
            }
            refresh_gauges(&inner.core);
            // Wake result waiters (and idle peers, harmlessly).
            shared.changed.notify_all();
            continue;
        }
        if inner.shutdown {
            return;
        }
        inner = self_wait(shared, inner);
    }
}

/// Parks an idle worker until something changes; a timeout guards against a
/// missed wakeup ever stranding a queued job.
fn self_wait<'a>(
    shared: &'a Shared,
    inner: std::sync::MutexGuard<'a, Inner>,
) -> std::sync::MutexGuard<'a, Inner> {
    let (guard, _) = shared
        .changed
        .wait_timeout(inner, Duration::from_millis(50))
        .expect("scheduler poisoned");
    guard
}
