//! Crash-point fuzzing: prove the spool survives a crash after *every*
//! durable mutation.
//!
//! The crash-consistency argument in [`crate::spool`] is inductive: each
//! mutation is atomic, each transition writes its destination before
//! removing its source, and [`Spool::open`] repairs every intermediate
//! state. This module turns the induction into an exhaustive test. A
//! scripted job lifecycle — submit → run → preempt at a checkpoint
//! boundary → resume → complete → cache-hit resubmission, with artifacts
//! and a daemon heartbeat — is first executed on a counting
//! [`crate::fsx::CrashFs`] to number its durable mutations `1..=M`; then,
//! for each prefix length `k`, the lifecycle is replayed on a fresh
//! directory with a [`CrashFs`] that dies after `k` mutations. That leaves
//! on disk exactly the state a `kill -9` after the `k`-th syscall would
//! leave. Recovery is then asserted:
//!
//! 1. [`Spool::open`] succeeds and leaves every acknowledged job in
//!    exactly one state directory — nothing lost, nothing duplicated
//!    (a submission is *acknowledged* once `submit` returned `Ok`, i.e.
//!    its durable rename landed);
//! 2. a plain drain on the recovered spool completes every acknowledged
//!    job into `done/` and leaves no `ckpt-*` file in a work dir whose
//!    hash has a cache entry;
//! 3. the batch job's final result — whatever mixture of preemption,
//!    crash, and resume it went through — is bit-exact against an
//!    uninterrupted reference integration.
//!
//! The enumeration is exhaustive by construction: every durable mutation
//! the subsystem can make goes through the [`crate::fsx::SpoolFs`] seam,
//! so `k` ranges over every possible crash point of the lifecycle.

use crate::checkpoint::is_checkpoint_name;
use crate::error::JobError;
use crate::fsx::{is_crashpoint, CrashFs, SpoolFs};
use crate::runner::reference_set;
use crate::server::{drain, drain_round, DrainSummary, ServerConfig};
use crate::spec::{JobSpec, Priority};
use crate::spool::{JobState, Spool, SpoolRecovery};
use nbody_core::body::ParticleSet;
use plans::prelude::PlanKind;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use workloads::spec::WorkloadSpec;

/// The batch job the lifecycle preempts, resumes, and verifies.
pub fn batch_spec() -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(32, 101), PlanKind::JwParallel, 4);
    s.checkpoint_every = 2;
    s.priority = Priority::Batch;
    s
}

/// The high-priority job that arrives mid-lifecycle.
pub fn high_spec() -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(32, 102), PlanKind::JParallel, 2);
    s.checkpoint_every = 1;
    s.priority = Priority::High;
    s
}

fn lifecycle_config() -> ServerConfig {
    ServerConfig { max_parallel: 1, ..Default::default() }
}

/// Runs the scripted lifecycle on `fs`, pushing each acknowledged
/// submission id into `acked` the moment its durable write has landed.
/// Sequential (`max_parallel = 1`) and preempted by a constant check, so
/// the mutation sequence is identical on every run — which is what makes
/// prefix `k` meaningful.
fn lifecycle(root: &Path, fs: Arc<dyn SpoolFs>, acked: &mut Vec<String>) -> Result<(), JobError> {
    let (spool, _) = Spool::open_with(root, fs)?;
    let config = lifecycle_config();
    let cache = spool.cache();

    // submit → run → preempt: the check always answers yes, so the wave
    // yields at the first checkpoint boundary and requeues with progress
    // intact
    acked.push(spool.submit(&batch_spec())?.id);
    let mut preempting = config.clone();
    preempting.run.preempt = Some(Arc::new(|| true));
    let mut scratch = DrainSummary { reports: Vec::new(), recovery: SpoolRecovery::default() };
    drain_round(&spool, &cache, &preempting, &mut scratch)?;

    // a high-priority job arrives; the next drain runs it first, then
    // resumes the preempted batch job from its checkpoint and verifies it
    acked.push(spool.submit(&high_spec())?.id);
    drain(&spool, SpoolRecovery::default(), &config)?;

    // identical resubmission: served from the content-addressed cache
    acked.push(spool.submit(&batch_spec())?.id);
    drain(&spool, SpoolRecovery::default(), &config)?;

    // one daemon tick on the drained spool covers the heartbeat writes
    let daemon = crate::daemon::DaemonConfig {
        server: config,
        max_ticks: Some(1),
        exit_when_idle: true,
        idle_sleep_ms: 0,
        arrivals: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    crate::daemon::run_daemon(&spool, SpoolRecovery::default(), &daemon, &stop)?;
    Ok(())
}

fn verify_recovery(root: &Path, acked: &[String], reference: &ParticleSet) -> Result<(), String> {
    // recovery runs on the real filesystem: the machine came back up
    let (spool, recovery) = Spool::open(root).map_err(|e| format!("recovery open failed: {e}"))?;

    // no acknowledged job lost or duplicated
    for id in acked {
        let name = format!("{id}.json");
        let homes: Vec<&str> = JobState::all()
            .iter()
            .filter(|s| spool.dir(**s).join(&name).exists())
            .map(|s| s.dir_name())
            .collect();
        if homes.len() != 1 {
            return Err(format!("job {id} is in {homes:?} after recovery (want exactly one)"));
        }
    }

    // the recovered spool drains to completion...
    let config = lifecycle_config();
    let summary =
        drain(&spool, recovery, &config).map_err(|e| format!("recovery drain failed: {e}"))?;
    if !summary.ok() {
        return Err(format!("recovery drain degraded:\n{}", summary.render()));
    }
    for id in acked {
        if spool.job_state(id) != Some(JobState::Done) {
            return Err(format!("job {id} did not reach done/ after recovery"));
        }
    }

    // ...keeps no checkpoint behind a cached result...
    let cache = spool.cache();
    let work_dirs = std::fs::read_dir(spool.jobs_dir()).map_err(|e| format!("jobs/: {e}"))?;
    for dir in work_dirs.flatten() {
        let hash = dir.file_name().to_string_lossy().into_owned();
        if !cache.contains(&hash) {
            continue;
        }
        let files = std::fs::read_dir(dir.path()).map_err(|e| format!("jobs/{hash}: {e}"))?;
        let left: Vec<String> = files
            .flatten()
            .map(|f| f.file_name().to_string_lossy().into_owned())
            .filter(|name| is_checkpoint_name(name))
            .collect();
        if !left.is_empty() {
            return Err(format!("jobs/{hash} keeps {left:?} beside its cache entry"));
        }
    }

    // ...and, when the batch submission made it in before the crash, its
    // physics is bit-exact despite any mixture of crash, preempt, resume
    let batch_hash = batch_spec().hash_hex();
    if acked.iter().any(|id| id.ends_with(&batch_hash)) {
        let result = spool
            .cache()
            .lookup(&batch_hash)
            .map_err(|e| format!("cache lookup failed: {e}"))?
            .ok_or("batch result missing from cache after recovery")?;
        if result.final_snapshot.set.pos() != reference.pos()
            || result.final_snapshot.set.vel() != reference.vel()
        {
            return Err("batch result diverged from the uninterrupted reference".into());
        }
    }
    Ok(())
}

/// What one fuzz run proved.
#[derive(Debug)]
pub struct CrashpointReport {
    /// Durable mutations in the uninterrupted lifecycle (`M`).
    pub mutations: u64,
    /// Crash prefixes tested, each recovering with no job lost or
    /// duplicated and bit-exact physics.
    pub prefixes: Vec<u64>,
}

impl CrashpointReport {
    /// The verdict line CI greps.
    pub fn render(&self) -> String {
        format!(
            "CRASHPOINT OK ({} crash prefixes of {} mutations, all recovered)\n",
            self.prefixes.len(),
            self.mutations
        )
    }
}

/// Removes a fuzz scratch tree. It is the harness's own litter, not spool
/// state, so it stays outside the seam whose mutations the fuzz counts.
#[allow(clippy::disallowed_methods)]
fn clear_scratch(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// Enumerates the lifecycle's crash points and verifies recovery after
/// each. `stride = 1` tests every prefix (the CI release-mode gate);
/// larger strides sample the space for cheap debug-mode runs. Returns an
/// error describing the first violated invariant, if any.
pub fn fuzz(scratch: &Path, stride: u64) -> Result<CrashpointReport, String> {
    // pass 1: count the mutation sequence on a crash-free seam
    let probe = scratch.join("probe");
    clear_scratch(&probe);
    let counter = CrashFs::counting();
    let mut acked = Vec::new();
    lifecycle(&probe, counter.clone(), &mut acked)
        .map_err(|e| format!("uninterrupted lifecycle failed: {e}"))?;
    let mutations = counter.ops_used();
    clear_scratch(&probe);

    let reference = reference_set(&batch_spec());
    let mut prefixes = Vec::new();
    let mut k = 0u64;
    while k < mutations {
        let root = scratch.join(format!("k{k:04}"));
        clear_scratch(&root);
        let crash_fs = CrashFs::with_budget(k);
        let mut acked = Vec::new();
        match lifecycle(&root, crash_fs, &mut acked) {
            Ok(()) => {
                return Err(format!(
                    "prefix {k} of {mutations} completed without crashing: the budget \
                     accounting and the mutation count disagree"
                ));
            }
            Err(e) if is_crashpoint(&e) => {}
            Err(e) => {
                return Err(format!("prefix {k}: lifecycle died with a non-crash error: {e}"))
            }
        }
        verify_recovery(&root, &acked, &reference).map_err(|e| format!("prefix {k}: {e}"))?;
        clear_scratch(&root);
        prefixes.push(k);
        k += stride.max(1);
    }
    Ok(CrashpointReport { mutations, prefixes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::ScratchDir;

    #[test]
    fn lifecycle_is_deterministic_and_rich_enough() {
        // the prefix enumeration is only meaningful if the op sequence is
        // reproducible, and the acceptance bar wants >= 50 crash points
        let scratch = ScratchDir::new("crashpoint-det");
        let a = CrashFs::counting();
        let mut acked = Vec::new();
        lifecycle(&scratch.join("a"), a.clone(), &mut acked).unwrap();
        assert_eq!(acked.len(), 3);
        let b = CrashFs::counting();
        lifecycle(&scratch.join("b"), b.clone(), &mut Vec::new()).unwrap();
        assert_eq!(a.ops_used(), b.ops_used(), "mutation count must be reproducible");
        assert!(a.ops_used() >= 50, "lifecycle has {} mutations, want >= 50", a.ops_used());
    }

    #[test]
    fn sampled_prefixes_recover() {
        // debug-mode sample; the CI release gate runs stride 1 over all
        // prefixes via tests/crashpoint_fuzz.rs
        let scratch = ScratchDir::new("crashpoint-sampled");
        let report = fuzz(&scratch, 13).unwrap();
        assert!(report.prefixes.len() >= 4, "{report:?}");
        assert!(report.render().starts_with("CRASHPOINT OK"));
    }
}
