//! Supervised daemon mode: the long-lived lifetime of the job server.
//!
//! [`run_daemon`] turns the round engine from [`crate::server`] into a
//! service loop. Each *tick* it:
//!
//! 1. delivers any scripted arrivals due at this tick (tests and CI drive
//!    deterministic schedules this way; production intake is whatever
//!    `submit` drops into `submitted/` — the spool directory *is* the
//!    intake socket),
//! 2. runs one scheduling round — admission, PTPM load shedding, cache
//!    service, one concurrent wave, supervision (requeue / poison /
//!    preempt) — via [`crate::server`]'s round engine,
//! 3. writes an atomic heartbeat to `<spool>/daemon.json` with uptime
//!    ticks, per-priority queue depths, jobs in flight, and the cache hit
//!    rate, then
//! 4. checks the stop flag (the `serve` binary wires SIGTERM to it).
//!
//! Ticks are *simulated time* for scheduling purposes: a tick is one round,
//! not a wall-clock interval, so a scripted run is bit-reproducible. Wall
//! clocks appear in exactly two places, both supervision: the per-attempt
//! watchdog ([`crate::runner::RunOptions::watchdog_s`]) and the idle sleep
//! between empty polls.
//!
//! **Graceful drain:** when the stop flag rises, the daemon stops intake
//! and exits after the current round. A round ends only when its wave has
//! ended, and every way a wave job ends is durable — completed into
//! `done/`, checkpointed and requeued, poisoned, or still checkpointed at
//! its last boundary in `running/` for the next [`Spool::open`] to
//! requeue. Nothing is lost by exiting between rounds; queued work stays in
//! `submitted/` for the next start. That is the whole crash-consistency
//! contract: SIGTERM is just a crash the daemon saw coming.

use crate::error::JobError;
use crate::server::{drain_round, DrainSummary, RoundResult, ServerConfig};
use crate::spec::{JobSpec, Priority};
use crate::spool::{JobState, Spool, SpoolRecovery};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};

/// Configuration for one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Scheduler configuration for each round. The default enables
    /// supervision and batch preemption — that is what makes it a daemon.
    pub server: ServerConfig,
    /// Stop after this many ticks (None = run until the stop flag rises).
    pub max_ticks: Option<u64>,
    /// Exit once the spool is idle and every scripted arrival has been
    /// delivered (useful for finite CI runs; a production daemon keeps
    /// polling).
    pub exit_when_idle: bool,
    /// Wall-clock sleep between polls when a tick found nothing to do.
    pub idle_sleep_ms: u64,
    /// Deterministic arrival script: `(tick, spec)` pairs submitted when
    /// the daemon reaches that tick. Sorted internally; ties keep script
    /// order.
    pub arrivals: Vec<(u64, JobSpec)>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            server: ServerConfig { supervise: true, preempt_batch: true, ..Default::default() },
            max_ticks: None,
            exit_when_idle: false,
            idle_sleep_ms: 10,
            arrivals: Vec::new(),
        }
    }
}

/// The heartbeat the daemon writes atomically to `<spool>/daemon.json`
/// every tick. External monitors read this file; it is always a complete,
/// valid JSON document (written via the same `.tmp` + rename discipline as
/// every other spool file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Ticks since this daemon started (uptime in scheduler time).
    pub uptime_ticks: u64,
    /// `high` jobs waiting in `submitted/`.
    pub queued_high: usize,
    /// `normal` jobs waiting in `submitted/`.
    pub queued_normal: usize,
    /// `batch` jobs waiting in `submitted/`.
    pub queued_batch: usize,
    /// Jobs currently claimed in `running/` (in flight).
    pub in_flight: usize,
    /// Jobs quarantined in `poisoned/`.
    pub poisoned: usize,
    /// Entries in the content-addressed result cache.
    pub cache_entries: usize,
    /// Fraction of completed jobs served from the cache this run
    /// (0.0 when nothing has completed yet).
    pub cache_hit_rate: f64,
}

/// Why [`run_daemon`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonExit {
    /// The stop flag rose (SIGTERM); the daemon drained gracefully.
    Stopped,
    /// `exit_when_idle` was set and the spool went idle with no scripted
    /// arrivals left.
    Idle,
    /// `max_ticks` was reached.
    TickLimit,
    /// A simulated crash hook fired mid-wave (tests only).
    Crashed,
}

/// Everything one daemon run did.
#[derive(Debug)]
pub struct DaemonSummary {
    /// The accumulated per-job reports and recovery stats, exactly as a
    /// finite drain would report them.
    pub summary: DrainSummary,
    /// Ticks the daemon ran.
    pub ticks: u64,
    /// Why it returned.
    pub exit: DaemonExit,
    /// The last heartbeat written.
    pub last_status: DaemonStatus,
}

impl DaemonSummary {
    /// True when no job ended in an untyped or diverged state (same
    /// contract as [`DrainSummary::ok`]).
    pub fn ok(&self) -> bool {
        self.summary.ok()
    }

    /// Report: a `daemon  :` line, then the standard drain report ending in
    /// `JOBS OK` / `JOBS DEGRADED` (CI greps that tail).
    pub fn render(&self) -> String {
        let mut out = format!(
            "daemon  : ticks={} exit={:?} preempted={} requeued={} poisoned={} shed={}\n",
            self.ticks,
            self.exit,
            self.summary.count("preempted"),
            self.summary.count("requeued"),
            self.summary.count("poisoned"),
            self.summary.count("shed"),
        );
        out.push_str(&self.summary.render());
        out
    }
}

fn write_heartbeat(spool: &Spool, status: &DaemonStatus) -> Result<(), JobError> {
    let path = spool.status_path();
    let text = serde_json::to_string_pretty(status)
        .map_err(|e| JobError::Parse { path: path.display().to_string(), msg: e.to_string() })?;
    spool
        .fs()
        .write_atomic(&path, text.as_bytes())
        .map_err(|e| JobError::io(path.display().to_string(), e))
}

fn heartbeat(
    spool: &Spool,
    summary: &DrainSummary,
    uptime_ticks: u64,
) -> Result<DaemonStatus, JobError> {
    let hits = summary.count("cache-hit");
    let completed = summary.completed();
    // one listing of submitted/ serves all three depths
    let queued = spool.list(JobState::Submitted)?;
    let depth = |priority: Priority| queued.iter().filter(|r| r.spec.priority == priority).count();
    let status = DaemonStatus {
        uptime_ticks,
        queued_high: depth(Priority::High),
        queued_normal: depth(Priority::Normal),
        queued_batch: depth(Priority::Batch),
        in_flight: spool.count(JobState::Running),
        poisoned: spool.count(JobState::Poisoned),
        cache_entries: spool.cache().len(),
        cache_hit_rate: if completed == 0 { 0.0 } else { hits as f64 / completed as f64 },
    };
    write_heartbeat(spool, &status)?;
    Ok(status)
}

/// Runs the supervised daemon loop until the stop flag rises, the tick
/// limit is reached, or (with `exit_when_idle`) the spool drains.
///
/// The stop flag is the SIGTERM seam: the `serve` binary points a signal
/// handler at it; tests flip it from a thread. The daemon checks it between
/// rounds, so stopping never interrupts a wave — every in-flight job
/// finishes or reaches a durable checkpoint first.
pub fn run_daemon(
    spool: &Spool,
    recovery: SpoolRecovery,
    config: &DaemonConfig,
    stop: &AtomicBool,
) -> Result<DaemonSummary, JobError> {
    let cache = spool.cache();
    let mut summary = DrainSummary { reports: Vec::new(), recovery };
    let mut arrivals: Vec<(u64, JobSpec)> = config.arrivals.clone();
    arrivals.sort_by_key(|(tick, _)| *tick);
    let mut next_arrival = 0usize;
    let mut ticks: u64 = 0;
    // the status file exists from tick 0, before any round runs
    heartbeat(spool, &summary, 0)?;
    let mut last_status;
    let exit = loop {
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= ticks {
            spool.submit(&arrivals[next_arrival].1)?;
            next_arrival += 1;
        }
        let round = drain_round(spool, &cache, &config.server, &mut summary)?;
        ticks += 1;
        last_status = heartbeat(spool, &summary, ticks)?;
        if round == RoundResult::Crashed {
            break DaemonExit::Crashed;
        }
        if stop.load(Ordering::SeqCst) {
            break DaemonExit::Stopped;
        }
        if let Some(max) = config.max_ticks {
            if ticks >= max {
                break DaemonExit::TickLimit;
            }
        }
        if round == RoundResult::Idle {
            if config.exit_when_idle && next_arrival >= arrivals.len() {
                break DaemonExit::Idle;
            }
            std::thread::sleep(std::time::Duration::from_millis(config.idle_sleep_ms));
        }
    };
    Ok(DaemonSummary { summary, ticks, exit, last_status })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunOptions;
    use crate::server::JobOutcome;
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::PlanKind;
    use std::sync::atomic::AtomicBool;
    use workloads::spec::WorkloadSpec;

    fn spec(n: usize, seed: u64, priority: Priority) -> JobSpec {
        let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, 4);
        s.checkpoint_every = 2;
        s.priority = priority;
        s
    }

    fn quick_daemon() -> DaemonConfig {
        DaemonConfig { exit_when_idle: true, idle_sleep_ms: 1, ..Default::default() }
    }

    #[test]
    fn scripted_arrivals_drain_and_heartbeat_tracks_them() {
        let scratch = ScratchDir::new("daemon");
        let (spool, recovery) = Spool::open(scratch.join("script")).unwrap();
        let config = DaemonConfig {
            arrivals: vec![
                (0, spec(64, 1, Priority::Batch)),
                (0, spec(64, 2, Priority::Normal)),
                (2, spec(64, 1, Priority::Batch)), // repeat: cache hit
            ],
            ..quick_daemon()
        };
        let stop = AtomicBool::new(false);
        let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
        assert!(daemon.ok(), "{}", daemon.render());
        assert_eq!(daemon.exit, DaemonExit::Idle);
        assert_eq!(daemon.summary.completed(), 3);
        assert_eq!(daemon.summary.count("cache-hit"), 1, "{}", daemon.render());
        assert_eq!(daemon.last_status.queued_batch, 0);
        assert_eq!(daemon.last_status.in_flight, 0);
        assert!(daemon.last_status.cache_hit_rate > 0.3);

        // the heartbeat on disk is the last status, atomically written
        let text = std::fs::read_to_string(spool.status_path()).unwrap();
        let on_disk: DaemonStatus = serde_json::from_str(&text).unwrap();
        assert_eq!(on_disk.uptime_ticks, daemon.last_status.uptime_ticks);
        assert_eq!(on_disk.cache_entries, 2);
        let rendered = daemon.render();
        assert!(rendered.ends_with("JOBS OK\n"), "{rendered}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn stop_flag_drains_gracefully_and_leaves_queue_durable() {
        let scratch = ScratchDir::new("daemon");
        let (spool, recovery) = Spool::open(scratch.join("sigterm")).unwrap();
        // stop is already raised: the daemon must still finish the current
        // round (one wave) and leave the rest in submitted/
        let config = DaemonConfig {
            arrivals: vec![
                (0, spec(64, 10, Priority::Normal)),
                (0, spec(64, 11, Priority::Normal)),
                (0, spec(64, 12, Priority::Normal)),
            ],
            ..quick_daemon()
        };
        let stop = AtomicBool::new(true);
        let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
        assert_eq!(daemon.exit, DaemonExit::Stopped);
        assert!(daemon.ok(), "{}", daemon.render());
        assert_eq!(daemon.ticks, 1, "one round, then out");
        assert_eq!(spool.count(JobState::Running), 0, "nothing left in flight");
        let completed = daemon.summary.completed();
        assert_eq!(completed, 2, "one wave of max_parallel=2 finished");
        assert_eq!(spool.count(JobState::Submitted), 1, "the rest waits durably");

        // a later daemon picks the queue right back up
        let (spool, recovery) = Spool::open(spool.root()).unwrap();
        let stop = AtomicBool::new(false);
        let daemon =
            run_daemon(&spool, recovery, &DaemonConfig { ..quick_daemon() }, &stop).unwrap();
        assert!(daemon.ok());
        assert_eq!(spool.count(JobState::Done), 3);
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn arriving_high_preempts_running_batch_and_both_finish_bitexact() {
        let scratch = ScratchDir::new("daemon");
        let (spool, recovery) = Spool::open(scratch.join("preempt")).unwrap();
        let mut batch = spec(96, 20, Priority::Batch);
        batch.steps = 8;
        batch.checkpoint_every = 1;
        let reference = crate::runner::reference_set(&batch);
        spool.submit(&batch).unwrap();

        let mut config = quick_daemon();
        // slow the batch job down so the high job reliably arrives mid-run
        config.server.run = RunOptions { throttle_ms: 15, ..Default::default() };
        config.server.max_parallel = 1;
        let high = spec(64, 21, Priority::High);
        let stop = AtomicBool::new(false);
        let daemon = std::thread::scope(|scope| {
            let spool_for_submit = spool.clone();
            let high = high.clone();
            let submitter = scope.spawn(move || {
                // land in submitted/ while the batch wave is mid-flight
                std::thread::sleep(std::time::Duration::from_millis(40));
                spool_for_submit.submit(&high).unwrap();
            });
            let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
            submitter.join().unwrap();
            daemon
        });
        assert!(daemon.ok(), "{}", daemon.render());
        assert_eq!(spool.count(JobState::Done), 2, "{}", daemon.render());
        let preempts =
            daemon.summary.reports.iter().filter(|r| r.outcome == JobOutcome::Preempted).count();
        assert!(preempts >= 1, "the batch job yielded at a boundary: {}", daemon.render());
        // the preempted batch job resumed and its physics is bit-exact
        let batch_reports: Vec<_> = daemon
            .summary
            .reports
            .iter()
            .filter(|r| r.hash_hex == batch.hash_hex() && r.outcome == JobOutcome::Computed)
            .collect();
        assert_eq!(batch_reports.len(), 1);
        assert!(batch_reports[0].resumed_from > 0, "resumed from the preemption checkpoint");
        assert_eq!(batch_reports[0].verified, Some(true), "bit-exact against uninterrupted run");
        let result = spool.cache().lookup(&batch.hash_hex()).unwrap().unwrap();
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
        // preemption never charges an attempt
        let done = spool.list(JobState::Done).unwrap();
        let batch_record = done.iter().find(|r| r.hash_hex == batch.hash_hex()).unwrap();
        assert_eq!(batch_record.attempts, 1, "{batch_record:?}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn unrunnable_job_is_poisoned_while_daemon_stays_up() {
        let scratch = ScratchDir::new("daemon");
        let (spool, recovery) = Spool::open(scratch.join("poison")).unwrap();
        let mut doomed = spec(64, 30, Priority::Batch);
        doomed.fault_seed = Some(1);
        doomed.fault_prob = Some(0.2);
        doomed.fault_loss_prob = Some(1.0);
        let config = DaemonConfig {
            arrivals: vec![(0, doomed.clone()), (0, spec(64, 31, Priority::Normal))],
            ..quick_daemon()
        };
        let stop = AtomicBool::new(false);
        let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
        assert!(daemon.ok(), "{}", daemon.render());
        assert_eq!(daemon.exit, DaemonExit::Idle, "poison quarantine cannot wedge the loop");
        assert_eq!(spool.count(JobState::Poisoned), 1);
        assert_eq!(spool.count(JobState::Done), 1);
        assert_eq!(daemon.last_status.poisoned, 1);
        let rendered = daemon.render();
        assert!(rendered.contains("poisoned=1"), "{rendered}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn tick_limit_bounds_the_run() {
        let scratch = ScratchDir::new("daemon");
        let (spool, recovery) = Spool::open(scratch.join("ticks")).unwrap();
        let config = DaemonConfig { max_ticks: Some(3), exit_when_idle: false, ..quick_daemon() };
        let stop = AtomicBool::new(false);
        let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
        assert_eq!(daemon.exit, DaemonExit::TickLimit);
        assert_eq!(daemon.ticks, 3);
        assert_eq!(daemon.last_status.uptime_ticks, 3);
        std::fs::remove_dir_all(spool.root()).ok();
    }
}
