//! The traced replay: each computed job's spec re-run through the public
//! calls of every layer, with a span around each call.
//!
//! The replay follows `jobs::runner::run_job` step for step — generate,
//! prime, integrate, checkpoint on cadence, snapshot — on an engine built
//! the way the runner builds it, except that the backend is wrapped in the
//! [`TimedBackend`] decorator. It then runs what the server does around a
//! computed job: admission, artifacts and, for resumed jobs, the
//! verification re-run. Its final checksum must equal the cached one.

use crate::report::Tally;
use crate::timed_backend::{BackendStats, TimedBackend};
use gpu_sim::prelude::{Device, DeviceSpec, FaultPlan, TransferModel};
use jobs::artifact::write_artifacts;
use jobs::cache::JobResult;
use jobs::checkpoint::save_checkpoint_with;
use jobs::fsx::RealFs;
use jobs::runner::reference_set;
use jobs::spec::{admit, AdmissionPolicy, JobSpec};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::integrator::{prime, Integrator, LeapfrogKdk};
use plans::engine::PlanForceEngine;
use plans::prelude::{make_backend, Backend, BackendKind, PlanConfig, SimBackend};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use workloads::snapshot::Snapshot;

/// Span totals over every replayed job.
#[derive(Debug, Default)]
pub struct Layers {
    /// Decorator tallies for the sim backend.
    pub sim: BackendStats,
    /// Decorator tallies for the host backend.
    pub host: BackendStats,
    /// `WorkloadSpec::generate` + recentering.
    pub generate: Tally,
    /// Integrator step wall minus the evaluation inside it.
    pub integrate: Tally,
    /// `save_checkpoint_with`.
    pub checkpoint: Tally,
    /// `write_artifacts`.
    pub artifact: Tally,
    /// `admit` + `canonical_hash` + `forecast_seconds`.
    pub admit: Tally,
    /// `reference_set` for resumed jobs.
    pub verify: Tally,
    /// Σ `JobSpec::forecast_seconds` (model seconds).
    pub forecast_model_s: f64,
    /// Σ forecast over sim jobs only, and their simulated seconds.
    pub forecast_sim_model_s: f64,
    /// Σ simulated seconds of the replayed sim jobs.
    pub simulated_s: f64,
    /// Wall seconds of the replays, direct treecode calls excluded.
    pub replay_wall_s: f64,
    /// Jobs replayed.
    pub jobs: u64,
}

impl Layers {
    /// Wall seconds inside a named span.
    pub fn attributed_s(&self) -> f64 {
        self.sim.busy.sum()
            + self.host.busy.sum()
            + self.generate.sum()
            + self.integrate.sum()
            + self.checkpoint.sum()
            + self.artifact.sum()
            + self.admit.sum()
            + self.verify.sum()
    }
}

/// The runner's plan configuration for `spec`.
pub fn plan_config(spec: &JobSpec) -> PlanConfig {
    let mut config = PlanConfig::default();
    if let Some(tile) = spec.tile {
        config.block_size = tile;
        config.walk_size = tile;
    }
    config
}

/// The backend `jobs::runner` builds for `spec`, fault plan included.
pub fn backend(spec: &JobSpec) -> Box<dyn Backend> {
    let config = plan_config(spec);
    match spec.backend_kind() {
        BackendKind::Sim => {
            let mut device = Device::with_transfer_model(
                DeviceSpec::radeon_hd_5850(),
                TransferModel::pcie2_x16(),
            );
            if let Some((seed, cfg)) = spec.fault_config() {
                device.set_fault_plan(FaultPlan::new(seed, cfg));
            }
            Box::new(SimBackend::new(device, config))
        }
        other => make_backend(other, config),
    }
}

/// The gravity model every job runs with.
pub const PARAMS: GravityParams = GravityParams { g: 1.0, softening: 0.05 };

/// Replays one computed job; `resumed` adds the verification re-run the
/// server makes for a job that resumed from a checkpoint. Returns the
/// final snapshot checksum. `scratch` receives the replay's checkpoints and
/// artifacts.
pub fn replay_job(spec: &JobSpec, resumed: bool, scratch: &Path, layers: &mut Layers) -> u64 {
    let t_job = Instant::now();

    let t0 = Instant::now();
    let admitted = admit(spec, &AdmissionPolicy::default()).is_ok();
    let _hash = std::hint::black_box(spec.canonical_hash());
    let forecast = spec.forecast_seconds();
    layers.admit.add(t0.elapsed().as_secs_f64());
    debug_assert!(admitted, "the benchmark submits only admissible jobs");
    layers.forecast_model_s += forecast;

    let t0 = Instant::now();
    let mut set: ParticleSet = spec.workload.generate();
    set.recenter();
    layers.generate.add(t0.elapsed().as_secs_f64());

    let kind = spec.backend_kind();
    let stats = Rc::new(RefCell::new(BackendStats::default()));
    let timed = TimedBackend::new(backend(spec), plan_config(spec), Rc::clone(&stats));
    let mut eng = PlanForceEngine::with_backend(Box::new(timed), spec.plan, PARAMS);

    let dir = scratch.join(spec.hash_hex());
    let label = spec.label();
    layers.integrate.add(outside(&stats, || prime(&mut set, &mut eng)));
    for step in 1..=spec.steps {
        layers.integrate.add(outside(&stats, || LeapfrogKdk.step(&mut set, &mut eng, spec.dt)));
        if step % spec.checkpoint_every == 0 || step == spec.steps {
            let t0 = Instant::now();
            save_checkpoint_with(&RealFs, &dir, &label, step as f64 * spec.dt, step, &set)
                .expect("replay scratch directory is writable");
            layers.checkpoint.add(t0.elapsed().as_secs_f64());
        }
    }

    let final_snapshot = Snapshot::new(label, spec.steps as f64 * spec.dt, set);
    let checksum = final_snapshot.checksum.expect("fresh snapshots carry a checksum");
    let result = JobResult {
        hash_hex: spec.hash_hex(),
        spec: spec.clone(),
        final_snapshot,
        result_checksum: checksum,
        steps: spec.steps,
        simulated_total_s: eng.simulated_total_seconds(),
        simulated_kernel_s: eng.simulated_kernel_seconds(),
        recovery_s: eng.simulated_recovery_seconds(),
        fault_total: eng
            .device()
            .and_then(|d| d.fault_plan())
            .map_or(0, |p| p.counts().total() as u64),
        resumed_from: 0,
        retries: 0,
    };
    let t0 = Instant::now();
    write_artifacts(&result, &dir, &RealFs).expect("replay scratch directory is writable");
    layers.artifact.add(t0.elapsed().as_secs_f64());

    if resumed {
        let t0 = Instant::now();
        std::hint::black_box(reference_set(spec));
        layers.verify.add(t0.elapsed().as_secs_f64());
    }

    drop(eng);
    let stats = Rc::try_unwrap(stats).expect("engine dropped").into_inner();
    let treecode_s = stats.tree_build.sum() + stats.tree_walks.sum();
    if kind == BackendKind::Sim {
        layers.forecast_sim_model_s += forecast;
        layers.simulated_s += stats.total_sim_s;
    }
    merge(if kind == BackendKind::Sim { &mut layers.sim } else { &mut layers.host }, stats);
    layers.replay_wall_s += t_job.elapsed().as_secs_f64() - treecode_s;
    layers.jobs += 1;
    std::fs::remove_dir_all(&dir).ok();
    checksum
}

/// Wall seconds of `f` minus the wall the decorator recorded inside it
/// (backend evaluation and direct treecode calls).
fn outside(stats: &RefCell<BackendStats>, f: impl FnOnce()) -> f64 {
    let inside = |s: &BackendStats| s.busy.sum() + s.tree_build.sum() + s.tree_walks.sum();
    let before = inside(&stats.borrow());
    let t0 = Instant::now();
    f();
    let wall = t0.elapsed().as_secs_f64();
    wall - (inside(&stats.borrow()) - before)
}

fn merge(into: &mut BackendStats, from: BackendStats) {
    into.busy.merge(&from.busy);
    into.interactions += from.interactions;
    into.prep_wall_s += from.prep_wall_s;
    into.kernel_sim_s += from.kernel_sim_s;
    into.transfer_sim_s += from.transfer_sim_s;
    into.total_sim_s += from.total_sim_s;
    into.launches += from.launches;
    into.tree_build.merge(&from.tree_build);
    into.tree_walks.merge(&from.tree_walks);
    into.walk_entries += from.walk_entries;
    into.list_len_cv_sum += from.list_len_cv_sum;
}

/// Median wall seconds of one force evaluation of `spec`'s initial set at
/// `threads` host threads, over up to `reps` repetitions capped by about a
/// second of work.
pub fn eval_wall(spec: &JobSpec, threads: usize, reps: usize) -> Tally {
    let mut set = spec.workload.generate();
    set.recenter();
    let mut b = backend(spec);
    par::set_threads(threads);
    let mut t = Tally::default();
    let started = Instant::now();
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(b.evaluate(spec.plan, &set, &PARAMS));
        t.add(t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() > 1.0 {
            break;
        }
    }
    t
}
