//! [`PlanForceEngine`]: run a whole simulation on a plan [`Backend`].
//!
//! Adapts any ([`Backend`], [`PlanKind`]) pair to `nbody_core`'s
//! [`ForceEngine`] so the standard integrators drive the plans exactly like
//! they drive the CPU engines — this is what the paper's Table 1 measures
//! (100 steps of the full loop). The engine accumulates the simulated
//! device time and the per-evaluation outcomes so callers can report time
//! splits afterwards. On backends without a simulated clock (host, f32)
//! those accumulators simply stay zero.

use crate::backend::{Backend, BackendKind};
use crate::common::{PlanKind, PlanOutcome};
use gpu_sim::device::Device;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::integrator::ForceEngine;
use nbody_core::vec3::Vec3;

/// A force engine backed by an execution plan running on a [`Backend`].
pub struct PlanForceEngine {
    backend: Box<dyn Backend>,
    plan: PlanKind,
    params: GravityParams,
    evaluations: u64,
    simulated_total_s: f64,
    simulated_kernel_s: f64,
    simulated_recovery_s: f64,
    last_outcome: Option<PlanOutcome>,
}

impl PlanForceEngine {
    /// Creates an engine running `plan` on `backend` (a sim device goes in
    /// as a [`crate::backend::SimBackend`]).
    pub fn with_backend(backend: Box<dyn Backend>, plan: PlanKind, params: GravityParams) -> Self {
        Self {
            backend,
            plan,
            params,
            evaluations: 0,
            simulated_total_s: 0.0,
            simulated_kernel_s: 0.0,
            simulated_recovery_s: 0.0,
            last_outcome: None,
        }
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Accumulated simulated end-to-end seconds (the paper's total time).
    /// Stays zero on backends without a simulated clock.
    pub fn simulated_total_seconds(&self) -> f64 {
        self.simulated_total_s
    }

    /// Accumulated simulated kernel seconds.
    pub fn simulated_kernel_seconds(&self) -> f64 {
        self.simulated_kernel_s
    }

    /// Accumulated simulated fault-recovery seconds (retry backoff and
    /// injected stalls; zero when no fault plan is installed).
    pub fn simulated_recovery_seconds(&self) -> f64 {
        self.simulated_recovery_s
    }

    /// The backend this engine evaluates on.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// The backend's resolved kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The underlying simulated device, when the backend has one (e.g. to
    /// inspect fault counts). `None` on host/f32 backends.
    pub fn device(&self) -> Option<&Device> {
        self.backend.device()
    }

    /// Mutable access to the underlying device, when present (e.g. to
    /// install a [`gpu_sim::fault::FaultPlan`] after construction).
    pub fn device_mut(&mut self) -> Option<&mut Device> {
        self.backend.device_mut()
    }

    /// The most recent evaluation's full outcome.
    pub fn last_outcome(&self) -> Option<&PlanOutcome> {
        self.last_outcome.as_ref()
    }

    /// The plan's name.
    pub fn plan_name(&self) -> &str {
        self.plan.id()
    }

    /// The plan this engine runs.
    pub fn plan_kind(&self) -> PlanKind {
        self.plan
    }
}

impl ForceEngine for PlanForceEngine {
    fn accelerations(&mut self, set: &ParticleSet, acc: &mut [Vec3]) {
        let outcome = self.backend.evaluate(self.plan, set, &self.params);
        acc.copy_from_slice(&outcome.acc);
        self.evaluations += 1;
        self.simulated_total_s += outcome.total_seconds();
        self.simulated_kernel_s += outcome.kernel_s;
        self.simulated_recovery_s += outcome.recovery_s;
        self.last_outcome = Some(outcome);
    }

    fn name(&self) -> &str {
        self.plan.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{default_device, make_backend, SimBackend};
    use crate::common::{PlanConfig, PlanKind};
    use nbody_core::energy::total_energy;
    use nbody_core::integrator::{run, LeapfrogKdk};
    use nbody_core::testutil::random_set;

    fn engine(kind: PlanKind) -> PlanForceEngine {
        PlanForceEngine::with_backend(
            Box::new(SimBackend::new(default_device(), PlanConfig::default())),
            kind,
            GravityParams { g: 1.0, softening: 0.05 },
        )
    }

    #[test]
    fn drives_a_simulation_and_accumulates_clocks() {
        let mut set = random_set(128, 1);
        set.recenter();
        let mut eng = engine(PlanKind::JwParallel);
        run(&mut set, &mut eng, &LeapfrogKdk, 1e-3, 5);
        assert_eq!(eng.evaluations(), 6); // prime + 5 steps
        assert!(eng.simulated_total_seconds() > eng.simulated_kernel_seconds());
        assert!(eng.last_outcome().is_some());
        assert!(set.all_finite());
        assert_eq!(eng.plan_name(), "jw-parallel");
        assert_eq!(eng.backend_kind(), BackendKind::Sim);
        assert!(eng.device().is_some());
    }

    #[test]
    fn gpu_integration_conserves_energy_like_cpu() {
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut set = random_set(96, 2);
        set.recenter();
        let e0 = total_energy(&set, &params);
        let mut eng = engine(PlanKind::IParallel);
        run(&mut set, &mut eng, &LeapfrogKdk, 5e-4, 40);
        let e1 = total_energy(&set, &params);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn faulty_engine_reproduces_healthy_trajectory_bitexactly() {
        use gpu_sim::prelude::{FaultConfig, FaultPlan};
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut healthy_set = random_set(96, 3);
        healthy_set.recenter();
        let mut faulty_set = healthy_set.clone();

        let mut healthy = engine(PlanKind::JwParallel);
        run(&mut healthy_set, &mut healthy, &LeapfrogKdk, 1e-3, 4);

        let mut faulty = engine(PlanKind::JwParallel);
        faulty
            .device_mut()
            .expect("sim engine has a device")
            .set_fault_plan(FaultPlan::new(5, FaultConfig::transient(0.25)));
        run(&mut faulty_set, &mut faulty, &LeapfrogKdk, 1e-3, 4);

        assert_eq!(healthy_set.pos(), faulty_set.pos(), "recovered trajectory must be bit-exact");
        assert_eq!(healthy_set.vel(), faulty_set.vel());
        assert!(faulty.simulated_recovery_seconds() > 0.0);
        assert_eq!(healthy.simulated_recovery_seconds(), 0.0);
        assert!(faulty.simulated_total_seconds() > healthy.simulated_total_seconds());
        assert!(faulty.device().unwrap().fault_plan().unwrap().counts().total() > 0);
        let _ = params;
    }

    /// The host tree engine the examples evolve on: w-parallel walks on the
    /// f64 host backend.
    fn host_tree_engine(params: GravityParams) -> PlanForceEngine {
        PlanForceEngine::with_backend(
            Box::new(crate::backend::HostBackend::new(PlanConfig::default())),
            PlanKind::WParallel,
            params,
        )
    }

    #[test]
    fn engine_fills_accelerations() {
        let set = random_set(100, 1);
        let mut eng = host_tree_engine(GravityParams::default());
        let mut acc = vec![Vec3::ZERO; set.len()];
        eng.accelerations(&set, &mut acc);
        assert!(acc.iter().all(|a| a.is_finite()));
        assert!(acc.iter().any(|a| a.norm() > 0.0));
        assert_eq!(eng.evaluations(), 1);
        assert!(eng.last_outcome().is_some_and(|o| o.interactions > 0));
    }

    #[test]
    fn integration_with_bh_conserves_energy_roughly() {
        let mut set = random_set(150, 3);
        set.recenter();
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut eng = host_tree_engine(params);
        let e0 = total_energy(&set, &params);
        run(&mut set, &mut eng, &LeapfrogKdk, 2e-4, 50);
        let e1 = total_energy(&set, &params);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.05, "energy drift {drift}");
    }

    #[test]
    fn engine_name_matches_plan() {
        for kind in PlanKind::all() {
            let eng = engine(kind);
            assert_eq!(eng.name(), kind.id());
        }
    }

    #[test]
    fn engine_runs_on_every_backend() {
        for backend_kind in [BackendKind::Sim, BackendKind::Host, BackendKind::F32] {
            let mut set = random_set(64, 9);
            set.recenter();
            let mut eng = PlanForceEngine::with_backend(
                make_backend(backend_kind, PlanConfig::default()),
                PlanKind::JwParallel,
                GravityParams { g: 1.0, softening: 0.05 },
            );
            run(&mut set, &mut eng, &LeapfrogKdk, 1e-3, 3);
            assert_eq!(eng.evaluations(), 4);
            assert!(set.all_finite());
            assert_eq!(eng.backend_kind(), backend_kind);
            if backend_kind == BackendKind::Sim {
                assert!(eng.simulated_total_seconds() > 0.0);
            } else {
                assert_eq!(eng.simulated_total_seconds(), 0.0);
                assert!(eng.device().is_none());
            }
        }
    }
}
