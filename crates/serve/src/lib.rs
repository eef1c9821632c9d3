//! `hammervolt-serve` — study-as-a-service on top of the simulation engine.
//!
//! This crate turns the batch CLI into a long-lived service: a multi-tenant
//! job [`scheduler`] executing [`hammervolt_core::job::JobSpec`]s with
//! per-tenant fairness, work stealing, bounded queues, and in-flight dedup,
//! fronted by a hand-rolled std-only HTTP/1.1 [`server`]
//! (`std::net::TcpListener` — the build is offline/vendored, so the [`http`]
//! module hand-rolls the small strict subset of HTTP it needs, the same way
//! `hammervolt-obs` hand-rolls JSONL).
//!
//! Results served over HTTP are byte-identical to CLI runs of the same spec:
//! the server executes the exact engine entry points the CLI does, and the
//! [`api`] shortcut form reconstructs the CLI's configuration mapping.
//! Identical in-flight specs share one execution; warm resubmissions of a
//! finished spec are answered from the content-addressed sweep cache without
//! re-executing; cancelled jobs leave chunk checkpoints behind so the next
//! submission of the same spec resumes where they stopped.
//!
//! Layering: [`sched`] is a deterministic, clock-injected state machine (no
//! threads, no I/O) holding every scheduling decision; [`scheduler`] wraps it
//! in worker threads; [`server`] wraps that in TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod sched;
pub mod scheduler;
pub mod server;

pub use sched::{JobId, OverflowPolicy, SchedConfig};
pub use scheduler::{JobPhase, JobView, SchedStats, Scheduler, SubmitError, RETAINED_SETTLED};
pub use server::{Server, ServerConfig, MAX_CONNECTIONS};
