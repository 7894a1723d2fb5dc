//! Fault-tolerant checkpointed simulation driver.
//!
//! Runs a Plummer workload on the simulated GPU under an injected
//! [`FaultPlan`], writing a checkpoint through [`jobs::checkpoint`] every
//! few steps. A crash (simulated with [`FaultRun::crash_after`]) loses only
//! the work since the last checkpoint: [`run`] resumes from the newest
//! usable checkpoint in the directory and re-primes forces from the
//! restored positions, so the completed trajectory is **bit-exact** against
//! an uninterrupted fault-free run — transient faults are absorbed by retry,
//! crashes by restart.
//!
//! The `faults` binary drives the whole story (reference run, faulty run,
//! mid-run crash, resume, bit-exact verification) and prints `FAULTS OK`;
//! `repro-all --faults <seed>` instead injects faults into the full
//! experiment suite (see [`crate::config::ExperimentConfig::fault_seed`]).

use crate::error::HarnessError;
use gpu_sim::prelude::*;
use jobs::checkpoint::save_checkpoint;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::integrator::{prime, Integrator, LeapfrogKdk};
use plans::engine::PlanForceEngine;
use plans::make_plan;
use plans::prelude::{PlanConfig, PlanKind};
use std::path::Path;
use workloads::snapshot::Snapshot;
use workloads::spec::WorkloadSpec;

/// One fault-tolerant run: workload, fault model, checkpoint cadence.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// Seed for the deterministic fault schedule.
    pub fault_seed: u64,
    /// Per-operation fault probabilities and penalties.
    pub faults: FaultConfig,
    /// Workload size (Plummer sphere).
    pub n: usize,
    /// Workload seed.
    pub workload_seed: u64,
    /// Integration steps to complete.
    pub steps: usize,
    /// Write a checkpoint every this many steps.
    pub checkpoint_every: usize,
    /// Time-step size.
    pub dt: f64,
    /// Stop (state lost, like a host crash) after this many steps.
    pub crash_after: Option<usize>,
}

impl FaultRun {
    /// A small, CI-sized run: N = 384, 12 steps, checkpoint every 4.
    pub fn smoke(fault_seed: u64) -> Self {
        Self {
            fault_seed,
            faults: FaultConfig::transient(0.1),
            n: 384,
            workload_seed: 20110101,
            steps: 12,
            checkpoint_every: 4,
            dt: 1e-3,
            crash_after: None,
        }
    }

    /// The initial particle set.
    pub fn initial_set(&self) -> ParticleSet {
        let mut set = WorkloadSpec::plummer(self.n, self.workload_seed).generate();
        set.recenter();
        set
    }

    fn engine(&self, with_faults: bool) -> PlanForceEngine {
        let mut device =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
        if with_faults {
            device.set_fault_plan(FaultPlan::new(self.fault_seed, self.faults));
        }
        PlanForceEngine::new(
            device,
            make_plan(PlanKind::JwParallel, PlanConfig::default()),
            GravityParams { g: 1.0, softening: 0.05 },
        )
    }
}

/// What a (possibly crashed, possibly resumed) run did.
#[derive(Debug)]
pub struct FaultRunReport {
    /// Steps completed in this invocation (counting resumed-over steps).
    pub steps_completed: usize,
    /// Step the run resumed from, if a checkpoint was found.
    pub resumed_from: Option<usize>,
    /// Checkpoints written by this invocation.
    pub checkpoints_written: usize,
    /// True when the run stopped early at [`FaultRun::crash_after`].
    pub crashed: bool,
    /// Simulated seconds spent on fault recovery (retry backoff + stalls).
    pub recovery_s: f64,
    /// Simulated end-to-end seconds of every force evaluation.
    pub simulated_total_s: f64,
    /// Injected-fault tally by kind.
    pub fault_counts: FaultCounts,
    /// The particle state at the end of the run.
    pub final_set: ParticleSet,
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

/// Carries a checkpoint error over, keeping its path for io and snapshot
/// failures.
fn harness_error(err: jobs::JobError) -> HarnessError {
    match err {
        jobs::JobError::Io { path, source } => HarnessError::Io { path, source },
        jobs::JobError::Snapshot { path, source } => HarnessError::Snapshot { path, source },
        other => HarnessError::Verification(other.to_string()),
    }
}

/// Runs (or resumes) a fault-tolerant simulation, checkpointing into `dir`.
pub fn run(cfg: &FaultRun, dir: &Path) -> Result<FaultRunReport, HarnessError> {
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::io(dir.display().to_string(), e))?;
    let (start_step, mut set) = match latest_checkpoint(dir)? {
        Some((step, snap)) => (step, snap.set),
        None => (0, cfg.initial_set()),
    };
    let resumed_from = (start_step > 0).then_some(start_step);

    let mut engine = cfg.engine(true);
    // re-prime after restore: forces are a deterministic function of the
    // restored positions, so this reproduces the pre-crash accelerations
    // bit-exactly (and fills them on a fresh start)
    prime(&mut set, &mut engine);

    let mut checkpoints_written = 0;
    let mut crashed = false;
    let mut step = start_step;
    while step < cfg.steps {
        LeapfrogKdk.step(&mut set, &mut engine, cfg.dt);
        step += 1;
        if step % cfg.checkpoint_every == 0 || step == cfg.steps {
            let label = format!("faults n={}", cfg.n);
            save_checkpoint(dir, &label, step as f64 * cfg.dt, step, &set)
                .map_err(harness_error)?;
            checkpoints_written += 1;
        }
        if cfg.crash_after == Some(step) && step < cfg.steps {
            crashed = true;
            break;
        }
    }

    let fault_counts =
        engine.device().and_then(|d| d.fault_plan()).map(|p| p.counts()).unwrap_or_default();
    Ok(FaultRunReport {
        steps_completed: step,
        resumed_from,
        checkpoints_written,
        crashed,
        recovery_s: engine.simulated_recovery_seconds(),
        simulated_total_s: engine.simulated_total_seconds(),
        fault_counts,
        final_set: set,
    })
}

/// Fault-free reference trajectory for the same run (no checkpointing).
pub fn reference(cfg: &FaultRun) -> ParticleSet {
    let mut set = cfg.initial_set();
    let mut engine = cfg.engine(false);
    prime(&mut set, &mut engine);
    for _ in 0..cfg.steps {
        LeapfrogKdk.step(&mut set, &mut engine, cfg.dt);
    }
    set
}

/// The full demonstration the `faults` binary and CI smoke run: a faulty
/// run that crashes mid-way, a resume that completes it, and a bit-exact
/// check of the result against the fault-free reference. Returns the
/// human-readable report; ends with `FAULTS OK` only if every invariant
/// held.
pub fn demo(cfg: &FaultRun, dir: &Path) -> Result<String, HarnessError> {
    // fresh checkpoint directory so stale state can't mask a failure
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| HarnessError::io(dir.display().to_string(), e))?;
    }
    let mut out = String::new();
    let mut crash_cfg = cfg.clone();
    crash_cfg.crash_after = Some(cfg.steps / 2);
    let first = run(&crash_cfg, dir)?;
    out.push_str(&format!(
        "crashed run : {} of {} steps, {} checkpoint(s), {} fault(s) injected, recovery {:.3e} s\n",
        first.steps_completed,
        cfg.steps,
        first.checkpoints_written,
        first.fault_counts.total(),
        first.recovery_s,
    ));
    if !first.crashed {
        return Err(HarnessError::Verification("simulated crash did not trigger".into()));
    }

    let second = run(cfg, dir)?;
    out.push_str(&format!(
        "resumed run : from step {}, completed {} steps, {} fault(s) injected, recovery {:.3e} s\n",
        second.resumed_from.map_or_else(|| "-".into(), |s| s.to_string()),
        second.steps_completed,
        second.fault_counts.total(),
        second.recovery_s,
    ));
    if second.resumed_from.is_none() {
        return Err(HarnessError::Verification("resume did not pick up a checkpoint".into()));
    }
    if second.steps_completed != cfg.steps {
        return Err(HarnessError::Verification(format!(
            "resume stopped at step {} of {}",
            second.steps_completed, cfg.steps
        )));
    }

    let exact = reference(cfg);
    if second.final_set.pos() != exact.pos() || second.final_set.vel() != exact.vel() {
        return Err(HarnessError::Verification(
            "recovered trajectory diverged from the fault-free reference".into(),
        ));
    }
    out.push_str(&format!(
        "verification: recovered trajectory is bit-exact vs fault-free reference \
         (N={}, {} steps, fault seed {})\n",
        cfg.n, cfg.steps, cfg.fault_seed
    ));
    out.push_str("FAULTS OK\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobs::checkpoint::checkpoint_path;
    use nbody_core::testutil::ScratchDir;

    #[test]
    fn uninterrupted_faulty_run_matches_reference_bitexactly() {
        let cfg = FaultRun::smoke(3);
        let dir = ScratchDir::new("faults-plain");
        let report = run(&cfg, &dir).unwrap();
        assert!(!report.crashed);
        assert_eq!(report.steps_completed, cfg.steps);
        assert!(report.fault_counts.total() > 0, "seed 3 must inject something");
        assert!(report.recovery_s > 0.0);
        let exact = reference(&cfg);
        assert_eq!(report.final_set.pos(), exact.pos());
        assert_eq!(report.final_set.vel(), exact.vel());
    }

    #[test]
    fn crash_then_resume_completes_bitexactly() {
        let cfg = FaultRun::smoke(5);
        let dir = ScratchDir::new("faults-crash-resume");
        let text = demo(&cfg, &dir).unwrap();
        assert!(text.ends_with("FAULTS OK\n"), "{text}");
        assert!(text.contains("bit-exact"));
    }

    #[test]
    fn resume_skips_corrupt_checkpoint() {
        let cfg = FaultRun::smoke(7);
        let dir = ScratchDir::new("faults-corrupt");
        let mut crash_cfg = cfg.clone();
        // crash after the second checkpoint (steps 4 and 8) so an older
        // one is still there once the newest is corrupted
        crash_cfg.crash_after = Some(9);
        let first = run(&crash_cfg, &dir).unwrap();
        assert!(first.crashed);
        // truncate the newest checkpoint, as a crash mid-write would
        let (step, _) = latest_checkpoint(&dir).unwrap().unwrap();
        let newest = checkpoint_path(&dir, step);
        std::fs::write(&newest, "{truncated").unwrap();
        let (fallback, _) = latest_checkpoint(&dir).unwrap().expect("older checkpoint survives");
        assert!(fallback < step);
        let second = run(&cfg, &dir).unwrap();
        assert_eq!(second.resumed_from, Some(fallback));
        let exact = reference(&cfg);
        assert_eq!(second.final_set.pos(), exact.pos());
    }

    #[test]
    fn latest_checkpoint_of_missing_dir_is_none() {
        assert!(latest_checkpoint(Path::new("/definitely/not/here")).unwrap().is_none());
    }

    #[test]
    fn latest_checkpoint_survives_crash_litter() {
        let cfg = FaultRun::smoke(13);
        let dir = ScratchDir::new("faults-litter");
        let report = run(&cfg, &dir).unwrap();
        assert!(!report.crashed);
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
        let cfg = FaultRun::smoke(11);
        let a_dir = ScratchDir::new("faults-det-a");
        let b_dir = ScratchDir::new("faults-det-b");
        let a = run(&cfg, &a_dir).unwrap();
        let b = run(&cfg, &b_dir).unwrap();
        assert_eq!(a.fault_counts.total(), b.fault_counts.total());
        assert_eq!(a.recovery_s, b.recovery_s);
        assert_eq!(a.simulated_total_s, b.simulated_total_s);
        assert_eq!(a.final_set.pos(), b.final_set.pos());
    }
}
