//! Executes one job attempt: resume, integrate, checkpoint, yield.
//!
//! [`run_job`] is the single-attempt engine under the server's retry loop.
//! It resumes from the newest usable checkpoint in the job's work directory
//! ([`crate::checkpoint::scan`]), re-primes forces from the restored
//! positions (bit-exact, per the determinism contract), integrates with
//! kick-drift-kick leapfrog, and checkpoints on the spec's cadence at every
//! step short of the last. The final state is the cached result, not a
//! checkpoint: a checkpoint exists only while the job is unfinished. A crash
//! between the last step and the cache store resumes from the last cadence
//! checkpoint (or from scratch) and is verified bit-exact like any resume.
//!
//! Deadlines are *cooperative and simulated*: after each step the runner
//! compares the engine's accumulated simulated device seconds against
//! `spec.deadline_s`. On exceed it checkpoints the current step and returns
//! [`JobError::DeadlineExceeded`] — the server retries, and the retry
//! resumes from that checkpoint with a fresh budget. Because the simulated
//! clock is deterministic, the yield step — and therefore the retry count —
//! is identical across host thread counts and runs.
//!
//! A permanent device fault (injected device loss) panics deep in the
//! recovery layer by design; the server catches it at the job boundary, so
//! this module stays panic-transparent.

use crate::cache::JobResult;
use crate::checkpoint::{save_checkpoint_with, scan_with};
use crate::error::JobError;
use crate::fsx::{real_fs, SpoolFs};
use crate::spec::JobSpec;
use gpu_sim::prelude::FaultPlan;
use gpu_sim::trace::{MemoryTraceSink, Trace};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::integrator::{prime, Integrator, LeapfrogKdk};
use plans::engine::PlanForceEngine;
use plans::prelude::{default_device, make_backend, Backend, BackendKind, PlanConfig, SimBackend};
use std::path::Path;
use std::sync::Arc;
use workloads::snapshot::Snapshot;

/// Knobs for one attempt that are not part of the job spec (and therefore
/// never hashed): supervision hooks and test/CI hooks.
#[derive(Clone)]
pub struct RunOptions {
    /// Wall-clock milliseconds to sleep after each step. Used by the serve
    /// binary's `--throttle-ms` so a CI `SIGKILL` reliably lands mid-job;
    /// never affects the simulated clocks or the trajectory.
    pub throttle_ms: u64,
    /// Abandon the attempt after this step *without* transitioning the
    /// spool — an in-process stand-in for a host crash (the on-disk state
    /// is exactly what a `kill -9` at that instant leaves).
    pub crash_after: Option<usize>,
    /// Cooperative preemption check, asked only where a cadence checkpoint
    /// has just landed; when it returns `true` the attempt yields
    /// [`RunStatus::Preempted`] there. Progress is durable, so the requeued
    /// job resumes bit-exactly. The scheduler's check asks the spool
    /// whether a `high` record waits ([`crate::spool::Spool::high_waiting`]).
    pub preempt: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Wall-clock watchdog budget per attempt, in seconds. Distinct from
    /// the simulated-seconds deadline: this one catches attempts that are
    /// genuinely stuck on the host. Checked cooperatively between steps;
    /// on exceed the attempt checkpoints and returns
    /// [`JobError::WatchdogTimeout`].
    pub watchdog_s: Option<f64>,
    /// The filesystem seam checkpoint writes go through.
    pub fs: Arc<dyn SpoolFs>,
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("throttle_ms", &self.throttle_ms)
            .field("crash_after", &self.crash_after)
            .field("preempt", &self.preempt.as_ref().map(|_| "<check>"))
            .field("watchdog_s", &self.watchdog_s)
            .field("fs", &self.fs)
            .finish()
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            throttle_ms: 0,
            crash_after: None,
            preempt: None,
            watchdog_s: None,
            fs: real_fs(),
        }
    }
}

/// How an attempt ended (errors are returned separately as [`JobError`]).
#[derive(Debug)]
pub enum RunStatus {
    /// The job integrated all its steps; the result is ready to cache.
    Complete {
        /// The cacheable result.
        result: Box<JobResult>,
        /// The attempt's traced priming evaluation (empty off the sim
        /// backend), kept out of the cached result.
        trace: Trace,
    },
    /// The simulated crash hook fired; state survives only as checkpoints.
    Crashed {
        /// The step the attempt had reached when it died.
        at_step: usize,
    },
    /// The preemption check fired; the attempt checkpointed at
    /// `at_step` and yielded. Requeue and resume bit-exactly.
    Preempted {
        /// The checkpoint boundary the attempt yielded at.
        at_step: usize,
    },
}

/// The initial particle set of a spec, recentered like every driver in this
/// repo does before integrating.
pub(crate) fn initial_set(spec: &JobSpec) -> ParticleSet {
    let mut set = spec.workload.generate();
    set.recenter();
    set
}

fn plan_config(spec: &JobSpec) -> PlanConfig {
    let mut config = PlanConfig::default();
    if let Some(tile) = spec.tile {
        // one knob pins both block geometries. The tile is part of the
        // canonical hash precisely because it is NOT physics-neutral in
        // general: j/jw slice grouping and walk-level MAC geometry depend
        // on it (DESIGN.md §13), so differently-tiled runs must never share
        // a cache entry.
        config.block_size = tile;
        config.walk_size = tile;
    }
    // the out-of-core knobs are bit-exact at any setting (DESIGN.md §14), so
    // they pick the execution path without entering the canonical hash
    config.shards = spec.shards;
    config.mem_budget_bytes = spec.mem_budget_bytes;
    config.device_tree = spec.device_tree;
    config
}

/// The one place a spec becomes an engine: its plan on its backend with
/// the spec's tunables, and — when `with_faults` — the spec's fault plan
/// on the sim device. Attempts and reference runs build their engine here.
pub(crate) fn engine(spec: &JobSpec, with_faults: bool) -> PlanForceEngine {
    let config = plan_config(spec);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let backend: Box<dyn Backend> = match spec.backend_kind() {
        // admission guarantees fault injection only reaches the sim
        // backend, the one with a device to carry it
        BackendKind::Sim => {
            let mut device = default_device();
            if with_faults {
                if let Some((seed, cfg)) = spec.fault_config() {
                    device.set_fault_plan(FaultPlan::new(seed, cfg));
                }
            }
            Box::new(SimBackend::new(device, config))
        }
        other => make_backend(other, config),
    };
    PlanForceEngine::with_backend(backend, spec.plan, params)
}

/// Runs (or resumes) one attempt of `spec`, checkpointing into `dir`.
///
/// On success the returned [`JobResult`] carries the final snapshot, the
/// attempt's simulated clocks, fault tally, and the step it resumed from;
/// `retries` is left at zero for the server to fill in. Beside it comes the
/// trace of the attempt's priming evaluation (DESIGN.md §11): the only
/// evaluation traced, so the stepping loop runs untraced. A deadline yield
/// returns [`JobError::DeadlineExceeded`] with the progress flag the retry
/// policy keys on.
pub fn run_job(spec: &JobSpec, dir: &Path, opts: &RunOptions) -> Result<RunStatus, JobError> {
    opts.fs.create_dir_all(dir).map_err(|e| JobError::io(dir.display().to_string(), e))?;
    let (start_step, mut set) = match scan_with(opts.fs.as_ref(), dir)?.best {
        Some((step, snap)) => (step, snap.set),
        None => (0, initial_set(spec)),
    };

    let mut eng = engine(spec, true);
    // the priming evaluation is the one traced, for the job's trace.csv
    let sink = MemoryTraceSink::new();
    if let Some(device) = eng.device_mut() {
        device.set_trace_sink(Box::new(sink.clone()));
    }
    // re-prime after restore: forces are a deterministic function of the
    // restored positions, so this reproduces the pre-crash accelerations
    prime(&mut set, &mut eng);
    if let Some(device) = eng.device_mut() {
        device.clear_trace_sink();
    }
    let trace = sink.take();

    let started = std::time::Instant::now();
    let mut step = start_step;
    while step < spec.steps {
        LeapfrogKdk.step(&mut set, &mut eng, spec.dt);
        step += 1;
        let on_cadence = step % spec.checkpoint_every == 0 && step < spec.steps;
        if on_cadence {
            save_checkpoint_with(
                opts.fs.as_ref(),
                dir,
                &spec.label(),
                step as f64 * spec.dt,
                step,
                &set,
            )?;
        }
        if opts.crash_after == Some(step) && step < spec.steps {
            return Ok(RunStatus::Crashed { at_step: step });
        }
        // preemption only fires where a checkpoint just landed: the yield
        // point is always durable, so the requeued job resumes bit-exactly
        if on_cadence && opts.preempt.as_ref().is_some_and(|check| check()) {
            return Ok(RunStatus::Preempted { at_step: step });
        }
        if let Some(deadline_s) = spec.deadline_s {
            let simulated_s = eng.simulated_total_seconds();
            if step < spec.steps && simulated_s > deadline_s {
                if !on_cadence {
                    save_checkpoint_with(
                        opts.fs.as_ref(),
                        dir,
                        &spec.label(),
                        step as f64 * spec.dt,
                        step,
                        &set,
                    )?;
                }
                return Err(JobError::DeadlineExceeded {
                    step,
                    simulated_s,
                    deadline_s,
                    progressed: step > start_step,
                });
            }
        }
        if let Some(watchdog_s) = opts.watchdog_s {
            let elapsed_s = started.elapsed().as_secs_f64();
            if step < spec.steps && elapsed_s > watchdog_s {
                if !on_cadence {
                    save_checkpoint_with(
                        opts.fs.as_ref(),
                        dir,
                        &spec.label(),
                        step as f64 * spec.dt,
                        step,
                        &set,
                    )?;
                }
                return Err(JobError::WatchdogTimeout { step, elapsed_s, watchdog_s });
            }
        }
        if opts.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
    }

    let final_snapshot = Snapshot::new(spec.label(), spec.steps as f64 * spec.dt, set);
    let Some(result_checksum) = final_snapshot.checksum else {
        return Err(JobError::Verification("final snapshot carries no checksum".into()));
    };
    let fault_total =
        eng.device().and_then(|d| d.fault_plan()).map(|p| p.counts().total() as u64).unwrap_or(0);
    let result = Box::new(JobResult {
        hash_hex: spec.hash_hex(),
        spec: spec.clone(),
        final_snapshot,
        result_checksum,
        steps: spec.steps,
        simulated_total_s: eng.simulated_total_seconds(),
        simulated_kernel_s: eng.simulated_kernel_seconds(),
        recovery_s: eng.simulated_recovery_seconds(),
        fault_total,
        resumed_from: start_step,
        retries: 0,
    });
    Ok(RunStatus::Complete { result, trace })
}

/// The fault-free, checkpoint-free reference trajectory for `spec` — what
/// crash-recovery and cache verification compare against bit-exactly.
pub fn reference_set(spec: &JobSpec) -> ParticleSet {
    let mut set = initial_set(spec);
    let mut eng = engine(spec, false);
    prime(&mut set, &mut eng);
    for _ in 0..spec.steps {
        LeapfrogKdk.step(&mut set, &mut eng, spec.dt);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::PlanKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use workloads::spec::WorkloadSpec;

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(WorkloadSpec::plummer(96, 42), PlanKind::JwParallel, 6);
        s.checkpoint_every = 2;
        s
    }

    fn complete(status: RunStatus) -> JobResult {
        match status {
            RunStatus::Complete { result, .. } => *result,
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn fresh_run_completes_and_matches_reference() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("fresh");
        let result = complete(run_job(&spec(), &dir, &RunOptions::default()).unwrap());
        assert_eq!(result.resumed_from, 0);
        assert_eq!(result.steps, 6);
        assert_eq!(result.fault_total, 0);
        assert_eq!(result.recovery_s, 0.0);
        assert!(result.simulated_total_s > result.simulated_kernel_s);
        let reference = reference_set(&spec());
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_completed_run_checkpoints_only_at_cadence_steps_short_of_the_last() {
        let scratch = ScratchDir::new("runner");
        for steps in [6, 5] {
            let mut s = spec();
            s.steps = steps;
            let dir = scratch.join(format!("cadence-{steps}"));
            complete(run_job(&s, &dir, &RunOptions::default()).unwrap());
            let mut written: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("ckpt-"))
                .collect();
            written.sort();
            let cadence = [2, 4].map(|step| crate::checkpoint::checkpoint_path(&dir, step));
            assert_eq!(written, cadence, "{steps} steps, every 2: no final-step checkpoint");
        }
    }

    #[test]
    fn crash_then_resume_is_bitexact() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("crash");
        let opts = RunOptions { crash_after: Some(3), ..Default::default() };
        match run_job(&spec(), &dir, &opts).unwrap() {
            RunStatus::Crashed { at_step } => assert_eq!(at_step, 3),
            other => panic!("crash hook did not fire: {other:?}"),
        }
        let result = complete(run_job(&spec(), &dir, &RunOptions::default()).unwrap());
        assert_eq!(result.resumed_from, 2, "newest checkpoint before the crash is step 2");
        let reference = reference_set(&spec());
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_yields_checkpoint_and_retries_complete_bitexactly() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("deadline-probe");
        let full = complete(run_job(&spec(), &dir, &RunOptions::default()).unwrap());
        std::fs::remove_dir_all(&dir).ok();

        let mut tight = spec();
        tight.deadline_s = Some(full.simulated_total_s * 0.4);
        let dir = scratch.join("deadline");
        let mut attempts = 0;
        let result = loop {
            attempts += 1;
            assert!(attempts <= 8, "deadline slicing did not converge");
            match run_job(&tight, &dir, &RunOptions::default()) {
                Ok(status) => break complete(status),
                Err(JobError::DeadlineExceeded { progressed, step, .. }) => {
                    assert!(progressed, "every attempt must advance at least one step");
                    assert!(step < tight.steps);
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        };
        assert!(attempts > 1, "deadline at 40% of total must slice the job");
        assert!(result.resumed_from > 0);
        let reference = reference_set(&spec());
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());

        // deterministic slicing: the same tight deadline yields the same
        // attempt count from a fresh directory
        let dir2 = scratch.join("deadline-again");
        let mut attempts2 = 0;
        loop {
            attempts2 += 1;
            match run_job(&tight, &dir2, &RunOptions::default()) {
                Ok(_) => break,
                Err(JobError::DeadlineExceeded { .. }) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert_eq!(attempts, attempts2);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn transient_faults_do_not_change_the_answer() {
        let mut faulty = spec();
        faulty.fault_seed = Some(3);
        faulty.fault_prob = Some(0.1);
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("faulty");
        let result = complete(run_job(&faulty, &dir, &RunOptions::default()).unwrap());
        assert!(result.fault_total > 0, "seed 3 at p=0.1 must inject something");
        assert!(result.recovery_s > 0.0);
        let reference = reference_set(&faulty);
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_tiers_route_through_the_trait() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("backend-sim");
        let sim = complete(run_job(&spec(), &dir, &RunOptions::default()).unwrap());

        // the f32 backend re-executes the device kernels bit-exactly, so the
        // whole trajectory matches the sim oracle — under a distinct hash
        let mut f32_spec = spec();
        f32_spec.backend = Some(BackendKind::F32);
        let dir_f = scratch.join("backend-f32");
        let f32_res = complete(run_job(&f32_spec, &dir_f, &RunOptions::default()).unwrap());
        assert_ne!(sim.hash_hex, f32_res.hash_hex);
        assert_eq!(sim.final_snapshot.set.pos(), f32_res.final_snapshot.set.pos());
        assert_eq!(sim.final_snapshot.set.vel(), f32_res.final_snapshot.set.vel());
        assert_eq!(f32_res.simulated_total_s, 0.0, "no simulated clock off the sim backend");

        // the host f64 tier computes different bits but the same physics,
        // and reproduces its own reference trajectory exactly
        let mut host_spec = spec();
        host_spec.backend = Some(BackendKind::Host);
        let dir_h = scratch.join("backend-host");
        let host = complete(run_job(&host_spec, &dir_h, &RunOptions::default()).unwrap());
        assert_ne!(host.hash_hex, sim.hash_hex);
        assert_ne!(host.hash_hex, f32_res.hash_hex);
        assert_ne!(host.final_snapshot.set.pos(), sim.final_snapshot.set.pos());
        assert!(host.final_snapshot.set.all_finite());
        let reference = reference_set(&host_spec);
        assert_eq!(host.final_snapshot.set.pos(), reference.pos());
        assert_eq!(host.final_snapshot.set.vel(), reference.vel());

        for dir in [dir, dir_f, dir_h] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn preemption_yields_at_checkpoint_boundary_and_resumes_bitexactly() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("preempt");
        let flag = Arc::new(AtomicBool::new(true)); // raised before the attempt starts
        let check = Arc::clone(&flag);
        let opts = RunOptions {
            preempt: Some(Arc::new(move || check.load(Ordering::SeqCst))),
            ..Default::default()
        };
        match run_job(&spec(), &dir, &opts).unwrap() {
            RunStatus::Preempted { at_step } => {
                assert_eq!(at_step, 2, "first checkpoint boundary (checkpoint_every=2)");
                assert!(crate::checkpoint::checkpoint_path(&dir, at_step).exists());
            }
            other => panic!("expected preemption, got {other:?}"),
        }
        // flag lowered: the resumed attempt runs to completion from step 2
        flag.store(false, Ordering::SeqCst);
        let result = complete(run_job(&spec(), &dir, &opts).unwrap());
        assert_eq!(result.resumed_from, 2);
        let reference = reference_set(&spec());
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_checkpoints_then_times_out_stuck_attempts() {
        let scratch = ScratchDir::new("runner");
        let dir = scratch.join("watchdog");
        // a zero budget trips on the very first step regardless of host
        // speed, and the trip point must be durable so a later attempt
        // resumes instead of restarting
        let opts = RunOptions { watchdog_s: Some(0.0), ..Default::default() };
        match run_job(&spec(), &dir, &opts).unwrap_err() {
            JobError::WatchdogTimeout { step, elapsed_s, watchdog_s } => {
                assert_eq!(step, 1);
                assert!(elapsed_s > watchdog_s);
                assert!(crate::checkpoint::checkpoint_path(&dir, step).exists());
            }
            other => panic!("expected watchdog timeout, got {other}"),
        }
        let result = complete(run_job(&spec(), &dir, &RunOptions::default()).unwrap());
        assert_eq!(result.resumed_from, 1);
        let reference = reference_set(&spec());
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_override_changes_clocks_not_physics() {
        let scratch = ScratchDir::new("runner");
        let dir_a = scratch.join("tile-a");
        let base = complete(run_job(&spec(), &dir_a, &RunOptions::default()).unwrap());
        let mut tiled = spec();
        tiled.tile = Some(128);
        let dir_b = scratch.join("tile-b");
        let other = complete(run_job(&tiled, &dir_b, &RunOptions::default()).unwrap());
        assert_ne!(base.hash_hex, other.hash_hex, "tile is hashed as provenance");
        assert_eq!(base.final_snapshot.set.pos(), other.final_snapshot.set.pos());
        assert_eq!(base.final_snapshot.set.vel(), other.final_snapshot.set.vel());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
