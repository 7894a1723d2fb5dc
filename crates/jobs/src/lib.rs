//! # jobs
//!
//! Simulation-as-a-service: a crash-safe, multi-tenant job server over the
//! deterministic PTPM simulation stack.
//!
//! A *job* is a fully reproducible simulation request — workload spec, plan,
//! steps, time-step, optional fault injection — described by [`spec::JobSpec`].
//! Jobs flow through a durable on-disk [`spool::Spool`] with a five-state
//! machine (`submitted → running → done | failed | poisoned`) whose every
//! transition is an atomic rename, so a `kill -9` at any instant leaves the
//! spool in a recoverable state: on the next [`spool::Spool::open`],
//! in-flight jobs are re-queued and resume from their newest usable
//! checkpoint ([`checkpoint::scan`]) bit-exactly. That claim is not prose:
//! every durable mutation goes through the [`fsx::SpoolFs`] seam, and the
//! crash-point fuzzer ([`crashpoint`]) replays a full job lifecycle killing
//! the filesystem after each mutation prefix, asserting recovery loses and
//! duplicates nothing.
//!
//! The scheduler ([`server::drain`]) applies admission control
//! ([`spec::admit`] — malformed or over-budget specs fail with typed
//! [`spec::AdmissionError`]s), orders work by priority class then submission
//! sequence, and runs up to `max_parallel` jobs concurrently on the
//! [`par`] pool. Per-job deadlines are *cooperative*: the runner checks the
//! simulated device clock between integration steps, checkpoints, and yields;
//! the server retries with the deterministic bounded backoff of
//! [`gpu_sim::fault::RetryPolicy`], so a deadline behaves as a simulated-time
//! slice and retry counts are identical across host thread counts.
//!
//! Because every run is bit-exact in `(spec, seed, plan, threads, tile)`
//! (DESIGN.md §8), completed results are content-addressed by the canonical
//! job hash ([`spec::JobSpec::canonical_hash`]) and stored in
//! [`cache::ResultCache`]: resubmitting an identical spec is a cache hit that
//! never recomputes. Every computed job also emits its observability
//! artifacts (`bench.json`, and `trace.csv` of the run's own priming
//! evaluation) into its spool work directory ([`artifact`]).
//!
//! On top of the finite drain sits the supervised daemon
//! ([`daemon::run_daemon`]): a long-lived tick loop with preemptive
//! scheduling (a waiting `high` job preempts running `batch` jobs at
//! their next checkpoint boundary, where each asks the spool), wall-clock
//! watchdogs for stuck attempts, attempt-budget poisoning into
//! `poisoned/`, PTPM-forecast load shedding ([`server::ShedPolicy`]), an
//! atomic `daemon.json` heartbeat, and graceful SIGTERM drain.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// clippy.toml bars direct `std::fs` mutations outside the `SpoolFs` seam;
// unit tests build their fixtures with them
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod artifact;
pub mod cache;
pub mod checkpoint;
pub mod crashpoint;
pub mod daemon;
pub mod error;
pub mod fsx;
pub mod runner;
pub mod server;
pub mod spec;
pub mod spool;
pub mod tuning;

/// Common imports.
pub mod prelude {
    pub use crate::cache::{JobResult, ResultCache};
    pub use crate::checkpoint::{scan, CheckpointScan};
    pub use crate::crashpoint::{fuzz, CrashpointReport};
    pub use crate::daemon::{run_daemon, DaemonConfig, DaemonExit, DaemonStatus, DaemonSummary};
    pub use crate::error::JobError;
    pub use crate::fsx::{real_fs, CrashFs, RealFs, SpoolFs};
    pub use crate::runner::{reference_set, run_job, RunOptions, RunStatus};
    pub use crate::server::{drain, DrainSummary, JobOutcome, JobReport, ServerConfig, ShedPolicy};
    pub use crate::spec::{admit, AdmissionError, AdmissionPolicy, JobSpec, Priority};
    pub use crate::spool::{JobRecord, JobState, Spool, SpoolRecovery};
    pub use crate::tuning::{
        db_key, device_spec_hash, expressible_grid, resolve_plan, PlanSource, Resolution, TuningDb,
        TuningEntry, AUTO_TILES, DB_VERSION, FORECAST_MARGIN,
    };
}

pub use prelude::*;
