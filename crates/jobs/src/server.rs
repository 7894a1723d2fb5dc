//! The multi-tenant scheduler: admission, waves, retries, cache, survival.
//!
//! [`drain`] empties a spool deterministically. Each round it lists
//! `submitted/` (already ordered by priority class then submission
//! sequence), applies admission control and PTPM load shedding, serves
//! cache hits, and runs the next *wave* — up to `max_parallel` jobs with
//! pairwise-distinct canonical hashes — concurrently on the [`par`] pool. A
//! duplicate hash inside a wave is deferred one round so it becomes a cache
//! hit instead of a redundant computation.
//!
//! Retry lives here, not in the runner: a deadline yield that made progress
//! is retried up to [`gpu_sim::fault::RetryPolicy::max_attempts`] with
//! deterministic exponential backoff (charged as a bounded wall-clock
//! sleep). A permanent device fault panics inside the recovery layer by
//! design; the wave worker catches the unwind at the job boundary and
//! records a typed `unrecoverable` failure — one tenant's chaos never takes
//! the server down.
//!
//! The same round engine serves two lifetimes:
//!
//! * **finite drain** (`supervise = false`, the default): failures are
//!   terminal; the call returns when the spool is empty — PR 6 semantics.
//! * **supervised** (`supervise = true`, what the daemon runs): failed
//!   attempts are *requeued* with their durably-charged attempt count until
//!   [`ServerConfig::max_job_attempts`] is exhausted, then quarantined into
//!   `poisoned/` with a typed reason. With `preempt_batch = true`, a `high`
//!   job arriving while a wave of `batch` jobs runs preempts them at their
//!   next checkpoint boundary (progress stays durable; the requeued jobs
//!   resume bit-exactly and the preemption does not charge an attempt).
//!
//! PTPM load shedding ([`ShedPolicy`]): admission consults
//! [`crate::spec::JobSpec::forecast_seconds`] — the paper's analytic model
//! composed over the whole job — and sheds `batch` jobs with a typed
//! `overloaded` rejection once the forecast debt of everything queued and
//! running exceeds the budget. `high` and `normal` always admit:
//! backpressure lands on the traffic that asked for it.
//!
//! All spool transitions happen on the scheduler thread in wave order, so
//! the spool's on-disk history is identical for every host thread count.

use crate::artifact::write_run_artifacts;
use crate::cache::{JobResult, ResultCache};
use crate::error::JobError;
use crate::runner::{reference_set, run_job, RunOptions, RunStatus};
use crate::spec::{admit, AdmissionPolicy, Priority};
use crate::spool::{JobRecord, JobState, Spool, SpoolRecovery};
use gpu_sim::fault::RetryPolicy;
use gpu_sim::trace::Trace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// PTPM-guarded load shedding: the queue-debt budget admission enforces.
#[derive(Debug, Clone)]
pub struct ShedPolicy {
    /// Maximum PTPM-forecast simulated seconds of queued-plus-running work.
    /// A `batch` job whose admission would push the debt past this budget
    /// is shed with a typed `overloaded` rejection; `high` and `normal`
    /// jobs always admit.
    pub budget_s: f64,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Jobs per wave (admission-controlled parallelism). They run
    /// concurrently only up to [`par::threads`]: with one `par` thread a
    /// wave's jobs run one after another on the scheduler's core.
    pub max_parallel: usize,
    /// Budgets specs must fit inside.
    pub admission: AdmissionPolicy,
    /// Retry budget and backoff for deadline yields.
    pub retry: RetryPolicy,
    /// Runner hooks (CI throttle, simulated crash, watchdog budget).
    pub run: RunOptions,
    /// PTPM load shedding; `None` disables it.
    pub shed: Option<ShedPolicy>,
    /// Cross-restart attempt budget per job: a job that has durably charged
    /// this many claims (crash loops) — or, under supervision, whose
    /// attempt fails with this many charged — is quarantined into
    /// `poisoned/` instead of retried forever.
    pub max_job_attempts: u32,
    /// Daemon semantics: requeue failed attempts until the budget above
    /// poisons them, instead of failing terminally on first error.
    pub supervise: bool,
    /// Let an arriving `high` job preempt running `batch` jobs at their
    /// next checkpoint boundary.
    pub preempt_batch: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_parallel: 2,
            admission: AdmissionPolicy::default(),
            retry: RetryPolicy::default(),
            run: RunOptions::default(),
            shed: None,
            max_job_attempts: 3,
            supervise: false,
            preempt_batch: false,
        }
    }
}

/// How one drained job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Ran to completion and was stored in the cache.
    Computed,
    /// Served from the content-addressed cache without recomputing.
    CacheHit,
    /// Terminal failure, recorded in `failed/` with the error string.
    Failed(String),
    /// Refused at admission, recorded in `failed/`.
    Rejected(String),
    /// Shed by PTPM load shedding, recorded in `failed/` with the typed
    /// `overloaded` error.
    Shed(String),
    /// Quarantined into `poisoned/`: the job exhausted its cross-restart
    /// attempt budget.
    Poisoned(String),
    /// Supervised failure sent back to `submitted/` for another attempt.
    Requeued(String),
    /// Preempted at a checkpoint boundary by an arriving `high` job and
    /// requeued with progress intact (does not charge an attempt).
    Preempted,
    /// The simulated-crash hook fired; the record stays in `running/` for
    /// the next [`Spool::open`] to requeue.
    Crashed,
}

impl JobOutcome {
    /// Stable identifier for report lines.
    pub fn id(&self) -> &'static str {
        match self {
            JobOutcome::Computed => "computed",
            JobOutcome::CacheHit => "cache-hit",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Rejected(_) => "rejected",
            JobOutcome::Shed(_) => "shed",
            JobOutcome::Poisoned(_) => "poisoned",
            JobOutcome::Requeued(_) => "requeued",
            JobOutcome::Preempted => "preempted",
            JobOutcome::Crashed => "crashed",
        }
    }
}

/// One job's drain report.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's spool identity.
    pub id: String,
    /// Canonical hash.
    pub hash_hex: String,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Deadline retries consumed in this drain.
    pub retries: u32,
    /// Step the final attempt resumed from (0 = from scratch).
    pub resumed_from: usize,
    /// Bit-exactness verdict for resumed jobs (None = not applicable).
    pub verified: Option<bool>,
}

/// Everything one [`drain`] did, in completion order.
#[derive(Debug)]
pub struct DrainSummary {
    /// Per-job reports in the order jobs were finalized.
    pub reports: Vec<JobReport>,
    /// What opening the spool had to repair.
    pub recovery: SpoolRecovery,
}

impl DrainSummary {
    pub(crate) fn count(&self, id: &str) -> usize {
        self.reports.iter().filter(|r| r.outcome.id() == id).count()
    }

    /// Jobs that ended in `done/` (computed or cache hit).
    pub fn completed(&self) -> usize {
        self.count("computed") + self.count("cache-hit")
    }

    /// Jobs that resumed from a checkpoint.
    pub fn resumed_jobs(&self) -> usize {
        self.reports.iter().filter(|r| r.resumed_from > 0).count()
    }

    /// Resumed jobs that verified bit-exact against their reference.
    pub fn verified_bitexact(&self) -> usize {
        self.reports.iter().filter(|r| r.verified == Some(true)).count()
    }

    /// True when nothing failed for an unexpected reason: every job either
    /// completed, was rejected/shed/poisoned with a *typed* error, was
    /// requeued or preempted under supervision, or crashed on purpose — and
    /// no resumed job failed verification.
    pub fn ok(&self) -> bool {
        self.reports.iter().all(|r| r.verified != Some(false))
    }

    /// Human- and grep-friendly report (the `serve` binary prints this;
    /// the CI smoke greps its `JOBS OK` tail).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&format!("{} : {}", r.id, r.outcome.id()));
            if r.retries > 0 {
                out.push_str(&format!(" retries={}", r.retries));
            }
            if r.resumed_from > 0 {
                out.push_str(&format!(" resumed-from={}", r.resumed_from));
            }
            if let Some(v) = r.verified {
                out.push_str(if v { " bit-exact" } else { " DIVERGED" });
            }
            match &r.outcome {
                JobOutcome::Failed(msg)
                | JobOutcome::Rejected(msg)
                | JobOutcome::Shed(msg)
                | JobOutcome::Poisoned(msg)
                | JobOutcome::Requeued(msg) => {
                    out.push_str(&format!(" ({msg})"));
                }
                _ => {}
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "jobs    : completed={} computed={} cache-hits={} failed={} rejected={} crashed={} \
             shed={} poisoned={} preempted={} requeued={}\n",
            self.completed(),
            self.count("computed"),
            self.count("cache-hit"),
            self.count("failed"),
            self.count("rejected"),
            self.count("crashed"),
            self.count("shed"),
            self.count("poisoned"),
            self.count("preempted"),
            self.count("requeued"),
        ));
        out.push_str(&format!(
            "recovery: requeued={} tmp-cleaned={} duplicates-dropped={} resumed-jobs={} \
             verified-bitexact={}\n",
            self.recovery.requeued,
            self.recovery.tmp_cleaned,
            self.recovery.duplicates_dropped,
            self.resumed_jobs(),
            self.verified_bitexact(),
        ));
        out.push_str(if self.ok() { "JOBS OK\n" } else { "JOBS DEGRADED\n" });
        out
    }
}

/// How one wave worker's job ended.
enum WaveOutcome {
    /// The result and the trace of the final attempt's priming evaluation.
    Done(Box<JobResult>, Trace),
    Preempted,
    Crashed,
    Failed(JobError),
}

/// What a wave worker hands back to the scheduler thread.
struct WaveResult {
    record: JobRecord,
    outcome: WaveOutcome,
    retries: u32,
    verified: Option<bool>,
}

/// Runs one job to completion, retrying deadline yields per `config.retry`.
/// Never panics: unwinds from the recovery layer become typed errors.
fn run_with_retry(
    spool: &Spool,
    record: &JobRecord,
    config: &ServerConfig,
    opts: &RunOptions,
) -> WaveResult {
    let dir = spool.job_dir(&record.hash_hex);
    let mut retries = 0u32;
    loop {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(&record.spec, &dir, opts)
        }));
        let outcome = match attempt {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "panic with non-string payload".into());
                Err(JobError::Unrecoverable(msg))
            }
        };
        let (outcome, verified) = match outcome {
            Ok(RunStatus::Complete { mut result, trace }) => {
                // the record was claimed before the wave, so `attempts` is
                // already one ahead of the completed prior attempts
                result.retries = record.attempts.saturating_sub(1) + retries;
                // the crash-recovery gate: a resumed result is cached only
                // if it matches the uninterrupted reference bit for bit
                let verified = (result.resumed_from > 0).then(|| {
                    let reference = reference_set(&record.spec);
                    result.final_snapshot.set.pos() == reference.pos()
                        && result.final_snapshot.set.vel() == reference.vel()
                });
                (WaveOutcome::Done(result, trace), verified)
            }
            Ok(RunStatus::Preempted { .. }) => (WaveOutcome::Preempted, None),
            Ok(RunStatus::Crashed { .. }) => (WaveOutcome::Crashed, None),
            Err(err)
                if err.is_retryable() && (retries as usize + 1) < config.retry.max_attempts =>
            {
                retries += 1;
                // deterministic exponential backoff, charged as bounded wall
                // time so a tight deadline cannot stall the wave
                let backoff = config.retry.backoff_s(retries as usize).min(0.05);
                std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
                continue;
            }
            Err(err) => (WaveOutcome::Failed(err), None),
        };
        return WaveResult { record: record.clone(), outcome, retries, verified };
    }
}

/// What one scheduling round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundResult {
    /// `submitted/` was empty; nothing to do.
    Idle,
    /// At least one job was finalized, requeued, or deferred.
    Progressed,
    /// A simulated crash stopped the server mid-wave.
    Crashed,
}

/// Runs one scheduling round: intake pass (admission, shedding, cache,
/// claim) followed by one concurrent wave and its sequential finalization.
/// This is the engine both [`drain`] and the daemon loop turn.
pub(crate) fn drain_round(
    spool: &Spool,
    cache: &ResultCache,
    config: &ServerConfig,
    summary: &mut DrainSummary,
) -> Result<RoundResult, JobError> {
    let submitted = spool.list(JobState::Submitted)?;
    if submitted.is_empty() {
        return Ok(RoundResult::Idle);
    }

    // queue debt starts from whatever is already committed to run
    let mut debt_s = 0.0;
    if config.shed.is_some() {
        for r in spool.list(JobState::Running)? {
            debt_s += r.spec.forecast_seconds();
        }
    }

    // admission, shedding, cache service, and wave selection — sequential,
    // in scheduling order, so the outcome is thread-count invariant
    let mut wave: Vec<JobRecord> = Vec::new();
    let mut deferred = 0usize;
    for record in submitted {
        if let Err(err) = admit(&record.spec, &config.admission) {
            let job_err = JobError::from(err);
            let mut failed = record.clone();
            failed.error = Some(job_err.to_string());
            spool.transition(&failed, JobState::Submitted, JobState::Failed)?;
            summary.reports.push(JobReport {
                id: record.id,
                hash_hex: record.hash_hex,
                outcome: JobOutcome::Rejected(job_err.to_string()),
                retries: 0,
                resumed_from: 0,
                verified: None,
            });
            continue;
        }
        if let Some(_hit) = cache.lookup(&record.hash_hex)? {
            let mut done = record.clone();
            done.error = None;
            spool.transition(&done, JobState::Submitted, JobState::Done)?;
            summary.reports.push(JobReport {
                id: record.id,
                hash_hex: record.hash_hex,
                outcome: JobOutcome::CacheHit,
                retries: 0,
                resumed_from: 0,
                verified: None,
            });
            continue;
        }
        if let Some(policy) = &config.shed {
            let forecast_s = record.spec.forecast_seconds();
            if record.spec.priority == Priority::Batch && debt_s + forecast_s > policy.budget_s {
                let err = JobError::Overloaded {
                    forecast_s,
                    debt_s: debt_s + forecast_s,
                    budget_s: policy.budget_s,
                };
                let msg = err.to_string();
                let mut shed = record.clone();
                shed.error = Some(msg.clone());
                spool.transition(&shed, JobState::Submitted, JobState::Failed)?;
                summary.reports.push(JobReport {
                    id: record.id,
                    hash_hex: record.hash_hex,
                    outcome: JobOutcome::Shed(msg),
                    retries: 0,
                    resumed_from: 0,
                    verified: None,
                });
                continue;
            }
            debt_s += forecast_s;
        }
        if wave.len() == config.max_parallel.max(1) {
            deferred += 1;
            continue;
        }
        if wave.iter().any(|w| w.hash_hex == record.hash_hex) {
            // identical job already in this wave: defer one round so it
            // lands on the cache entry the first copy is about to write
            deferred += 1;
            continue;
        }
        if record.attempts >= config.max_job_attempts {
            // a crash-looping job: every claim was durably charged, so the
            // budget survives server restarts
            let msg = format!(
                "[poisoned] {} attempts exhausted; last: {}",
                record.attempts,
                record.error.as_deref().unwrap_or("crash loop (no recorded error)")
            );
            let mut poisoned = record.clone();
            poisoned.error = Some(msg.clone());
            spool.transition(&poisoned, JobState::Submitted, JobState::Poisoned)?;
            summary.reports.push(JobReport {
                id: record.id,
                hash_hex: record.hash_hex,
                outcome: JobOutcome::Poisoned(msg),
                retries: 0,
                resumed_from: 0,
                verified: None,
            });
            continue;
        }
        wave.push(spool.claim(&record)?);
    }
    if wave.is_empty() {
        return Ok(RoundResult::Progressed);
    }
    let _ = deferred; // deferred jobs are picked up by the next round

    // per-job runner options: checkpoints route through the spool's fs
    // seam, and preemptible batch jobs get a preemption flag
    let mut opts: Vec<RunOptions> = Vec::with_capacity(wave.len());
    let mut batch_flags: Vec<Arc<AtomicBool>> = Vec::new();
    for record in &wave {
        let mut o = config.run.clone();
        o.fs = spool.fs();
        if config.preempt_batch && record.spec.priority == Priority::Batch {
            let flag = Arc::new(AtomicBool::new(false));
            batch_flags.push(Arc::clone(&flag));
            o.preempt = Some(flag);
        }
        opts.push(o);
    }

    // while the wave runs, a watcher raises the preemption flags the moment
    // a high-priority job lands in submitted/
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = (!batch_flags.is_empty()).then(|| {
        let spool = spool.clone();
        let stop = Arc::clone(&stop);
        let flags = batch_flags;
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let high_waiting = spool
                    .list(JobState::Submitted)
                    .map(|subs| subs.iter().any(|r| r.spec.priority == Priority::High))
                    .unwrap_or(false);
                if high_waiting {
                    for flag in &flags {
                        flag.store(true, Ordering::SeqCst);
                    }
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    });

    // the wave runs concurrently; results come back in wave order because
    // par::run_tasks preserves task order
    let results: Vec<WaveResult> = par::run_tasks(
        wave.iter()
            .zip(&opts)
            .map(|(record, o)| || run_with_retry(spool, record, config, o))
            .collect(),
    );
    stop.store(true, Ordering::SeqCst);
    if let Some(w) = watcher {
        w.join().ok();
    }

    // finalization is sequential and in wave order: spool and cache
    // mutations are identical for every host thread count
    let mut crashed = false;
    for wave_result in results {
        let mut record = wave_result.record;
        record.attempts += wave_result.retries;
        let report = match wave_result.outcome {
            WaveOutcome::Done(result, trace) => {
                if wave_result.verified == Some(false) {
                    let msg = JobError::Verification(
                        "resumed run diverged from the fault-free reference".into(),
                    )
                    .to_string();
                    record.error = Some(msg.clone());
                    spool.transition(&record, JobState::Running, JobState::Failed)?;
                    JobReport {
                        id: record.id.clone(),
                        hash_hex: record.hash_hex.clone(),
                        outcome: JobOutcome::Failed(msg),
                        retries: wave_result.retries,
                        resumed_from: result.resumed_from,
                        verified: Some(false),
                    }
                } else {
                    cache.store(&result)?;
                    write_run_artifacts(
                        &result,
                        &trace,
                        &spool.job_dir(&record.hash_hex),
                        spool.fs().as_ref(),
                    )?;
                    record.error = None;
                    spool.transition(&record, JobState::Running, JobState::Done)?;
                    JobReport {
                        id: record.id.clone(),
                        hash_hex: record.hash_hex.clone(),
                        outcome: JobOutcome::Computed,
                        retries: wave_result.retries,
                        resumed_from: result.resumed_from,
                        verified: wave_result.verified,
                    }
                }
            }
            WaveOutcome::Preempted => {
                // restore the claim's attempt charge: preemption is the
                // scheduler's doing, not the job's failure
                record.attempts = record.attempts.saturating_sub(1 + wave_result.retries);
                record.error = None;
                spool.transition(&record, JobState::Running, JobState::Submitted)?;
                JobReport {
                    id: record.id.clone(),
                    hash_hex: record.hash_hex.clone(),
                    outcome: JobOutcome::Preempted,
                    retries: wave_result.retries,
                    resumed_from: 0,
                    verified: None,
                }
            }
            WaveOutcome::Crashed => {
                // leave the record in running/ exactly as a dead server
                // would; Spool::open requeues it
                crashed = true;
                JobReport {
                    id: record.id.clone(),
                    hash_hex: record.hash_hex.clone(),
                    outcome: JobOutcome::Crashed,
                    retries: wave_result.retries,
                    resumed_from: 0,
                    verified: None,
                }
            }
            WaveOutcome::Failed(err) => {
                let msg = err.to_string();
                record.error = Some(msg.clone());
                let supervisable = config.supervise && !matches!(err, JobError::Verification(_));
                if supervisable && record.attempts < config.max_job_attempts {
                    spool.transition(&record, JobState::Running, JobState::Submitted)?;
                    JobReport {
                        id: record.id.clone(),
                        hash_hex: record.hash_hex.clone(),
                        outcome: JobOutcome::Requeued(msg),
                        retries: wave_result.retries,
                        resumed_from: 0,
                        verified: None,
                    }
                } else if supervisable {
                    let msg =
                        format!("[poisoned] {} attempts exhausted; last: {msg}", record.attempts);
                    record.error = Some(msg.clone());
                    spool.transition(&record, JobState::Running, JobState::Poisoned)?;
                    JobReport {
                        id: record.id.clone(),
                        hash_hex: record.hash_hex.clone(),
                        outcome: JobOutcome::Poisoned(msg),
                        retries: wave_result.retries,
                        resumed_from: 0,
                        verified: None,
                    }
                } else {
                    spool.transition(&record, JobState::Running, JobState::Failed)?;
                    JobReport {
                        id: record.id.clone(),
                        hash_hex: record.hash_hex.clone(),
                        outcome: JobOutcome::Failed(msg),
                        retries: wave_result.retries,
                        resumed_from: 0,
                        verified: None,
                    }
                }
            }
        };
        summary.reports.push(report);
    }
    Ok(if crashed { RoundResult::Crashed } else { RoundResult::Progressed })
}

/// Drains the spool: runs every submitted job to a terminal state (or to a
/// simulated crash). Deterministic for a fixed spool content: job ordering,
/// retry counts, cache hits, and the resulting on-disk state are identical
/// across host thread counts.
pub fn drain(
    spool: &Spool,
    recovery: SpoolRecovery,
    config: &ServerConfig,
) -> Result<DrainSummary, JobError> {
    let cache = spool.cache();
    let mut summary = DrainSummary { reports: Vec::new(), recovery };
    loop {
        match drain_round(spool, &cache, config, &mut summary)? {
            RoundResult::Idle | RoundResult::Crashed => break,
            RoundResult::Progressed => {}
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, Priority};
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::PlanKind;
    use workloads::spec::WorkloadSpec;

    fn spec(n: usize, seed: u64) -> JobSpec {
        let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, 4);
        s.checkpoint_every = 2;
        s
    }

    #[test]
    fn drains_batch_in_priority_order_and_caches() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("basic")).unwrap();
        let mut high = spec(64, 2);
        high.priority = Priority::High;
        spool.submit(&spec(64, 1)).unwrap();
        spool.submit(&high).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok(), "{}", summary.render());
        assert_eq!(summary.completed(), 2);
        assert_eq!(summary.reports[0].hash_hex, high.hash_hex(), "high priority runs first");
        assert_eq!(spool.count(JobState::Done), 2);
        assert_eq!(spool.cache().len(), 2);

        // resubmission of an identical spec is a pure cache hit
        spool.submit(&spec(64, 1)).unwrap();
        let (spool, recovery) = Spool::open(spool.root()).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert_eq!(summary.reports.len(), 1);
        assert_eq!(summary.reports[0].outcome, JobOutcome::CacheHit);
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn duplicate_hashes_in_one_wave_compute_once() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("dedup")).unwrap();
        spool.submit(&spec(64, 5)).unwrap();
        spool.submit(&spec(64, 5)).unwrap();
        spool.submit(&spec(64, 5)).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok());
        let computed = summary.reports.iter().filter(|r| r.outcome == JobOutcome::Computed).count();
        let hits = summary.reports.iter().filter(|r| r.outcome == JobOutcome::CacheHit).count();
        assert_eq!((computed, hits), (1, 2), "{}", summary.render());
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn admission_rejections_are_typed_and_recorded() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("reject")).unwrap();
        // checkpoint_every = 0 is malformed but JSON-representable, so it
        // reaches the server's admission check (a NaN dt would already be
        // quarantined at spool parse time)
        let mut bad = spec(64, 1);
        bad.checkpoint_every = 0;
        spool.submit(&bad).unwrap();
        spool.submit(&spec(64, 2)).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok(), "a typed rejection is not degradation");
        let rejected: Vec<_> = summary
            .reports
            .iter()
            .filter_map(|r| match &r.outcome {
                JobOutcome::Rejected(msg) => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].contains("zero-checkpoint-every"), "{rejected:?}");
        assert_eq!(spool.count(JobState::Failed), 1);
        assert_eq!(spool.count(JobState::Done), 1);
        let failed = spool.list(JobState::Failed).unwrap();
        assert!(failed[0].error.as_deref().unwrap().contains("zero-checkpoint-every"));
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn deadline_jobs_retry_and_complete() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("deadline")).unwrap();
        // probe the budget first
        let probe = spec(64, 9);
        spool.submit(&probe).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok());
        let total = spool.cache().lookup(&probe.hash_hex()).unwrap().unwrap().simulated_total_s;

        let mut sliced = spec(64, 10);
        sliced.deadline_s = Some(total * 0.4);
        spool.submit(&sliced).unwrap();
        let (spool, recovery) = Spool::open(spool.root()).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok(), "{}", summary.render());
        let report = &summary.reports[0];
        assert_eq!(report.outcome, JobOutcome::Computed);
        assert!(report.retries > 0, "a 40% budget must slice the job");
        assert!(report.resumed_from > 0);
        assert_eq!(report.verified, Some(true), "resumed job verified bit-exact");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn permanent_device_loss_fails_the_job_not_the_server() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("chaos")).unwrap();
        let mut doomed = spec(64, 11);
        doomed.fault_seed = Some(1);
        doomed.fault_prob = Some(0.2);
        doomed.fault_loss_prob = Some(1.0); // every CU dies on first touch
        spool.submit(&doomed).unwrap();
        spool.submit(&spec(64, 12)).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok(), "typed failure keeps the server healthy");
        let failed: Vec<_> =
            summary.reports.iter().filter(|r| matches!(r.outcome, JobOutcome::Failed(_))).collect();
        assert_eq!(failed.len(), 1, "{}", summary.render());
        assert_eq!(spool.count(JobState::Done), 1, "the healthy job still completes");
        assert_eq!(spool.count(JobState::Failed), 1);
        let record = &spool.list(JobState::Failed).unwrap()[0];
        assert!(record.error.as_deref().unwrap().contains("unrecoverable"), "{record:?}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn simulated_crash_leaves_job_running_and_resume_completes() {
        let scratch = ScratchDir::new("server");
        let root = scratch.join("crash");
        let (spool, recovery) = Spool::open(&root).unwrap();
        let job = spec(64, 13);
        spool.submit(&job).unwrap();
        let crash_config = ServerConfig {
            run: RunOptions { crash_after: Some(2), ..Default::default() },
            ..Default::default()
        };
        let summary = drain(&spool, recovery, &crash_config).unwrap();
        assert_eq!(summary.reports[0].outcome, JobOutcome::Crashed);
        assert_eq!(spool.count(JobState::Running), 1, "crash leaves the claim in place");

        // restart: open requeues, drain resumes from the checkpoint
        let (spool, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.requeued, 1);
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.ok(), "{}", summary.render());
        let report = &summary.reports[0];
        assert_eq!(report.outcome, JobOutcome::Computed);
        assert_eq!(report.resumed_from, 2);
        assert_eq!(report.verified, Some(true), "resumed result is bit-exact");
        let rendered = summary.render();
        assert!(rendered.contains("resumed-jobs=1"), "{rendered}");
        assert!(rendered.ends_with("JOBS OK\n"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ptpm_shedding_drops_batch_keeps_high() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("shed")).unwrap();
        let mut batch_a = spec(64, 20);
        batch_a.priority = Priority::Batch;
        let mut batch_b = spec(64, 21);
        batch_b.priority = Priority::Batch;
        let mut high = spec(64, 22);
        high.priority = Priority::High;
        spool.submit(&batch_a).unwrap();
        spool.submit(&batch_b).unwrap();
        spool.submit(&high).unwrap();

        // budget fits the high job plus exactly one batch job
        let one_job = high.forecast_seconds();
        assert!(one_job > 0.0);
        let config = ServerConfig {
            shed: Some(ShedPolicy { budget_s: one_job * 2.5 }),
            ..Default::default()
        };
        let summary = drain(&spool, recovery, &config).unwrap();
        assert!(summary.ok(), "{}", summary.render());
        let shed: Vec<_> =
            summary.reports.iter().filter(|r| matches!(r.outcome, JobOutcome::Shed(_))).collect();
        assert_eq!(shed.len(), 1, "{}", summary.render());
        assert_eq!(shed[0].hash_hex, batch_b.hash_hex(), "later batch job is the one shed");
        assert_eq!(summary.completed(), 2, "high and the first batch job still run");
        let record = &spool.list(JobState::Failed).unwrap()[0];
        assert!(record.error.as_deref().unwrap().contains("[overloaded]"), "{record:?}");
        let rendered = summary.render();
        assert!(rendered.contains("shed=1"), "{rendered}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn supervised_failures_requeue_then_poison_with_typed_reason() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("poison")).unwrap();
        let mut doomed = spec(64, 30);
        doomed.fault_seed = Some(1);
        doomed.fault_prob = Some(0.2);
        doomed.fault_loss_prob = Some(1.0); // deterministically unrunnable
        spool.submit(&doomed).unwrap();
        spool.submit(&spec(64, 31)).unwrap();
        let config = ServerConfig { supervise: true, max_job_attempts: 3, ..Default::default() };
        let summary = drain(&spool, recovery, &config).unwrap();
        assert!(summary.ok(), "{}", summary.render());
        let requeues =
            summary.reports.iter().filter(|r| matches!(r.outcome, JobOutcome::Requeued(_))).count();
        let poisons =
            summary.reports.iter().filter(|r| matches!(r.outcome, JobOutcome::Poisoned(_))).count();
        assert_eq!(requeues, 2, "attempts 1 and 2 requeue: {}", summary.render());
        assert_eq!(poisons, 1, "attempt 3 poisons: {}", summary.render());
        assert_eq!(spool.count(JobState::Poisoned), 1);
        assert_eq!(spool.count(JobState::Done), 1, "the healthy job is unaffected");
        assert_eq!(spool.count(JobState::Failed), 0, "supervision never uses failed/ for this");
        let record = &spool.list(JobState::Poisoned).unwrap()[0];
        assert_eq!(record.attempts, 3);
        let reason = record.error.as_deref().unwrap();
        assert!(reason.contains("[poisoned]"), "{reason}");
        assert!(reason.contains("[unrecoverable]"), "the last typed error rides along: {reason}");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn watchdog_attempts_are_supervised_and_make_progress() {
        let scratch = ScratchDir::new("server");
        let (spool, recovery) = Spool::open(scratch.join("watchdog")).unwrap();
        let mut slow = spec(64, 40);
        slow.checkpoint_every = 1;
        spool.submit(&slow).unwrap();
        // a zero watchdog budget times every attempt out after exactly one
        // step — deterministically, however fast the host is. Each attempt
        // checkpoints and is requeued; three attempts reach step 3, then
        // the attempt budget poisons the job
        let config = ServerConfig {
            supervise: true,
            max_job_attempts: 3,
            run: RunOptions { watchdog_s: Some(0.0), ..Default::default() },
            ..Default::default()
        };
        let summary = drain(&spool, recovery, &config).unwrap();
        let poisoned = spool.list(JobState::Poisoned).unwrap();
        assert_eq!(poisoned.len(), 1, "{}", summary.render());
        assert!(poisoned[0].error.as_deref().unwrap().contains("[watchdog-timeout]"));
        // progress survived across the supervised attempts: the checkpoint
        // directory holds step 3 (one step per attempt, three attempts)
        let scan = crate::checkpoint::scan(&spool.job_dir(&slow.hash_hex())).unwrap();
        assert_eq!(scan.best.unwrap().0, 3, "each attempt advanced one durable step");
        std::fs::remove_dir_all(spool.root()).ok();
    }
}
