//! Fault-tolerant checkpointed simulation demo.
//!
//! The demo is a job: [`smoke`] builds a [`JobSpec`] (Plummer, jw-parallel,
//! transient faults at p = 0.1) that [`run_job`] integrates on the simulated
//! GPU under the spec's injected fault plan, checkpointing every few steps.
//! A crash ([`RunOptions::crash_after`]) loses only the work since the last
//! checkpoint: the next attempt resumes from the newest usable checkpoint
//! in the directory and re-primes forces from the restored positions, so
//! the completed trajectory is **bit-exact** against the fault-free
//! [`reference_set`] — transient faults are absorbed by retry, crashes by
//! restart.
//!
//! The `faults` binary drives the whole story (faulty run, mid-run crash,
//! resume, bit-exact verification) and prints `FAULTS OK`;
//! `repro-all --faults <seed>` instead injects faults into the full
//! experiment suite (see [`crate::config::ExperimentConfig::fault_seed`]).

use crate::error::HarnessError;
use jobs::cache::JobResult;
use jobs::runner::{reference_set, run_job, RunOptions, RunStatus};
use jobs::spec::JobSpec;
use plans::prelude::PlanKind;
use std::path::Path;
use workloads::snapshot::Snapshot;
use workloads::spec::WorkloadSpec;

/// A small, CI-sized faulty job: a 384-body Plummer sphere on jw-parallel,
/// 12 steps, a checkpoint every 4, transient faults at p = 0.1 from
/// `fault_seed`.
pub fn smoke(fault_seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(WorkloadSpec::plummer(384, 20110101), PlanKind::JwParallel, 12);
    spec.checkpoint_every = 4;
    spec.fault_seed = Some(fault_seed);
    spec.fault_prob = Some(0.1);
    spec
}

/// Finds the newest loadable checkpoint `(step, snapshot)` in `dir`.
///
/// Delegates to the hardened scanner in [`jobs::checkpoint`]: zero-byte,
/// truncated, wrong-version, and checksum-corrupt files are skipped (with a
/// reason on stderr), stale `.tmp` litter from interrupted atomic writes is
/// deleted, and only a checksum-valid snapshot is ever resumed from.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<(usize, Snapshot)>, HarnessError> {
    let scan = jobs::checkpoint::scan(dir).map_err(harness_error)?;
    for skipped in &scan.skipped {
        eprintln!("skipping unusable checkpoint {}: {}", skipped.file, skipped.reason);
    }
    Ok(scan.best)
}

/// Carries a job error over, keeping its path for io and snapshot
/// failures.
fn harness_error(err: jobs::JobError) -> HarnessError {
    match err {
        jobs::JobError::Io { path, source } => HarnessError::Io { path, source },
        jobs::JobError::Snapshot { path, source } => HarnessError::Snapshot { path, source },
        other => HarnessError::Verification(other.to_string()),
    }
}

/// The full demonstration the `faults` binary and CI smoke run: an attempt
/// of `spec` that crashes half-way, a resumed attempt that completes it,
/// and a bit-exact check of the result against the fault-free reference.
/// Returns the human-readable report; ends with `FAULTS OK` only if every
/// invariant held.
pub fn demo(spec: &JobSpec, dir: &Path) -> Result<String, HarnessError> {
    // fresh checkpoint directory so stale state can't mask a failure
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| HarnessError::io(dir.display().to_string(), e))?;
    }
    let mut out = String::new();
    let crash = RunOptions { crash_after: Some(spec.steps / 2), ..Default::default() };
    match run_job(spec, dir, &crash).map_err(harness_error)? {
        RunStatus::Crashed { at_step } => {
            out.push_str(&format!("crashed run : at step {at_step} of {}\n", spec.steps));
        }
        _ => return Err(HarnessError::Verification("simulated crash did not trigger".into())),
    }

    let result: JobResult =
        match run_job(spec, dir, &RunOptions::default()).map_err(harness_error)? {
            RunStatus::Complete(result) => *result,
            other => return Err(HarnessError::Verification(format!("resume ended as {other:?}"))),
        };
    out.push_str(&format!(
        "resumed run : from step {}, completed {} steps, {} fault(s) injected, recovery {:.3e} s\n",
        result.resumed_from, result.steps, result.fault_total, result.recovery_s,
    ));
    if result.resumed_from == 0 {
        return Err(HarnessError::Verification("resume did not pick up a checkpoint".into()));
    }

    let exact = reference_set(spec);
    let recovered = &result.final_snapshot.set;
    if recovered.pos() != exact.pos() || recovered.vel() != exact.vel() {
        return Err(HarnessError::Verification(
            "recovered trajectory diverged from the fault-free reference".into(),
        ));
    }
    out.push_str(&format!(
        "verification: recovered trajectory is bit-exact vs fault-free reference \
         (N={}, {} steps, fault seed {})\n",
        spec.workload.n,
        spec.steps,
        spec.fault_seed.map_or_else(|| "none".into(), |s| s.to_string()),
    ));
    out.push_str("FAULTS OK\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobs::checkpoint::checkpoint_path;
    use nbody_core::testutil::ScratchDir;

    fn complete(status: RunStatus) -> JobResult {
        match status {
            RunStatus::Complete(result) => *result,
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn uninterrupted_faulty_run_matches_reference_bitexactly() {
        let spec = smoke(3);
        let dir = ScratchDir::new("faults-plain");
        let result = complete(run_job(&spec, &dir, &RunOptions::default()).unwrap());
        assert_eq!(result.steps, spec.steps);
        assert!(result.fault_total > 0, "seed 3 must inject something");
        assert!(result.recovery_s > 0.0);
        let exact = reference_set(&spec);
        assert_eq!(result.final_snapshot.set.pos(), exact.pos());
        assert_eq!(result.final_snapshot.set.vel(), exact.vel());
    }

    #[test]
    fn crash_then_resume_completes_bitexactly() {
        let dir = ScratchDir::new("faults-crash-resume");
        let text = demo(&smoke(5), &dir).unwrap();
        assert!(text.ends_with("FAULTS OK\n"), "{text}");
        assert!(text.contains("bit-exact"));
    }

    #[test]
    fn resume_skips_corrupt_checkpoint() {
        let spec = smoke(7);
        let dir = ScratchDir::new("faults-corrupt");
        // crash after the second checkpoint (steps 4 and 8) so an older
        // one is still there once the newest is corrupted
        let crash = RunOptions { crash_after: Some(9), ..Default::default() };
        assert!(matches!(run_job(&spec, &dir, &crash).unwrap(), RunStatus::Crashed { .. }));
        // truncate the newest checkpoint, as a crash mid-write would
        let (step, _) = latest_checkpoint(&dir).unwrap().unwrap();
        let newest = checkpoint_path(&dir, step);
        std::fs::write(&newest, "{truncated").unwrap();
        let (fallback, _) = latest_checkpoint(&dir).unwrap().expect("older checkpoint survives");
        assert!(fallback < step);
        let result = complete(run_job(&spec, &dir, &RunOptions::default()).unwrap());
        assert_eq!(result.resumed_from, fallback);
        let exact = reference_set(&spec);
        assert_eq!(result.final_snapshot.set.pos(), exact.pos());
    }

    #[test]
    fn latest_checkpoint_of_missing_dir_is_none() {
        assert!(latest_checkpoint(Path::new("/definitely/not/here")).unwrap().is_none());
    }

    #[test]
    fn latest_checkpoint_survives_crash_litter() {
        let spec = smoke(13);
        let dir = ScratchDir::new("faults-litter");
        complete(run_job(&spec, &dir, &RunOptions::default()).unwrap());
        let (step, _) = latest_checkpoint(&dir).unwrap().unwrap();
        // litter the directory the way assorted crashes would
        std::fs::write(dir.join(format!("ckpt-{:05}.json", step + 1)), "").unwrap();
        std::fs::write(dir.join(format!("ckpt-{:05}.json", step + 2)), "{trunc").unwrap();
        std::fs::write(dir.join(format!("ckpt-{:05}.json.tmp", step + 3)), "{half").unwrap();
        let (best, snap) = latest_checkpoint(&dir).unwrap().expect("valid checkpoint survives");
        assert_eq!(best, step, "garbage newer than the valid checkpoint is never resumed");
        assert!(snap.set.all_finite());
        assert!(!dir.join(format!("ckpt-{:05}.json.tmp", step + 3)).exists(), "tmp cleaned");
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let spec = smoke(11);
        let a_dir = ScratchDir::new("faults-det-a");
        let b_dir = ScratchDir::new("faults-det-b");
        let a = complete(run_job(&spec, &a_dir, &RunOptions::default()).unwrap());
        let b = complete(run_job(&spec, &b_dir, &RunOptions::default()).unwrap());
        assert_eq!(a.fault_total, b.fault_total);
        assert_eq!(a.recovery_s, b.recovery_s);
        assert_eq!(a.simulated_total_s, b.simulated_total_s);
        assert_eq!(a.final_snapshot.set.pos(), b.final_snapshot.set.pos());
    }
}
