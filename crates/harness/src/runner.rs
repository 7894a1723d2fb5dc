//! The experiment runner: evaluates each (plan, N) point once and caches the
//! outcome so all tables and figures derive from the same measurements.

use crate::config::ExperimentConfig;
use gpu_sim::trace::{MemoryTraceSink, Trace};
use nbody_core::body::ParticleSet;
use plans::prelude::*;
use std::collections::HashMap;

/// Caching evaluator over the experiment grid. All evaluations flow through
/// the configured [`Backend`]; the sim backend keeps one shared device so a
/// configured fault stream advances across the grid exactly as before.
pub struct Runner {
    /// The configuration in force.
    pub cfg: ExperimentConfig,
    backend: Box<dyn Backend>,
    sets: HashMap<usize, ParticleSet>,
    outcomes: HashMap<(PlanKind, usize), PlanOutcome>,
    traces: HashMap<(PlanKind, usize), Trace>,
}

impl Runner {
    /// Creates a runner for a configuration.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let backend = cfg.make_backend();
        Self {
            cfg,
            backend,
            sets: HashMap::new(),
            outcomes: HashMap::new(),
            traces: HashMap::new(),
        }
    }

    /// The backend grid points evaluate on.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// The workload at size `n` (generated once).
    pub fn set(&mut self, n: usize) -> &ParticleSet {
        let cfg = &self.cfg;
        self.sets.entry(n).or_insert_with(|| cfg.workload(n).generate())
    }

    /// Evaluates the whole `(plan, size)` grid concurrently and primes the
    /// outcome cache, so the later table/figure passes are pure lookups.
    ///
    /// Each grid point runs on a fresh device, which is equivalent to the
    /// serial shared-device path because every plan resets the simulated
    /// clocks at the start of `evaluate` — all simulated fields and forces
    /// are bit-identical (only the informational wall-clock
    /// `host_measured_s` can differ). Fault runs are excluded: there the
    /// shared device's fault stream position carries across evaluations, so
    /// they keep the serial evaluation order.
    pub fn prefetch_all(&mut self) {
        if self.cfg.fault_seed.is_some() || par::threads() == 1 {
            return;
        }
        let sizes = self.cfg.sizes.clone();
        for &n in &sizes {
            self.set(n);
        }
        let grid: Vec<(PlanKind, usize)> = PlanKind::all()
            .into_iter()
            .flat_map(|kind| sizes.iter().map(move |&n| (kind, n)))
            .filter(|key| !self.outcomes.contains_key(key))
            .collect();
        let cfg = &self.cfg;
        let sets = &self.sets;
        let results = par::run_tasks(
            grid.iter()
                .map(|&(kind, n)| {
                    move || {
                        let set = &sets[&n];
                        let mut backend = cfg.make_backend();
                        let outcome = backend.evaluate(kind, set, &cfg.gravity);
                        (kind, n, outcome)
                    }
                })
                .collect(),
        );
        for (kind, n, outcome) in results {
            self.outcomes.insert((kind, n), outcome);
        }
    }

    /// The outcome of one plan at one size (evaluated once).
    pub fn outcome(&mut self, kind: PlanKind, n: usize) -> PlanOutcome {
        if let Some(o) = self.outcomes.get(&(kind, n)) {
            return o.clone();
        }
        // disjoint field borrows: the cached set is evaluated in place
        // instead of cloned per run
        let cfg = &self.cfg;
        let set = self.sets.entry(n).or_insert_with(|| cfg.workload(n).generate());
        let outcome = self.backend.evaluate(kind, set, &cfg.gravity);
        self.outcomes.insert((kind, n), outcome.clone());
        outcome
    }

    /// The execution trace of one plan at one size (captured once).
    ///
    /// The traced run uses a fresh device so its timeline starts at zero;
    /// the observed timings are identical to the untraced run (the traced
    /// launch path recomputes the exact same schedule), so the outcome cache
    /// is primed from the traced evaluation as well.
    pub fn trace(&mut self, kind: PlanKind, n: usize) -> Trace {
        if let Some(t) = self.traces.get(&(kind, n)) {
            return t.clone();
        }
        // trace contract: only the sim backend owns a device, so the other
        // backends yield an empty trace
        if self.cfg.backend_kind() != BackendKind::Sim {
            let trace = Trace::default();
            self.traces.insert((kind, n), trace.clone());
            return trace;
        }
        let cfg = &self.cfg;
        let set = self.sets.entry(n).or_insert_with(|| cfg.workload(n).generate());
        let mut device = cfg.device();
        let sink = MemoryTraceSink::new();
        device.set_trace_sink(Box::new(sink.clone()));
        let outcome = plans::evaluate(kind, &cfg.plan, &mut device, set, &cfg.gravity);
        self.outcomes.entry((kind, n)).or_insert(outcome);
        let trace = sink.snapshot();
        self.traces.insert((kind, n), trace.clone());
        trace
    }

    /// Measured host-baseline seconds scaled by the configured CPU slowdown
    /// (used only for the Table 1 CPU columns; plan host times are already
    /// simulated by the [`plans::common::HostCostModel`]).
    pub fn scaled_host(&self, seconds: f64) -> f64 {
        seconds * self.cfg.host_slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_cached() {
        let mut r = Runner::new(ExperimentConfig::quick());
        let a = r.outcome(PlanKind::IParallel, 256);
        let b = r.outcome(PlanKind::IParallel, 256);
        // identical object contents (same simulated clocks, same forces)
        assert_eq!(a.kernel_s, b.kernel_s);
        assert_eq!(a.acc, b.acc);
    }

    #[test]
    fn sets_are_shared_across_plans() {
        let mut r = Runner::new(ExperimentConfig::quick());
        let i = r.outcome(PlanKind::IParallel, 256);
        let j = r.outcome(PlanKind::JParallel, 256);
        // same workload -> near-identical physics
        let err = nbody_core::gravity::max_relative_error(&i.acc, &j.acc);
        assert!(err < 1e-4, "{err}");
    }

    #[test]
    fn scaled_host_applies_slowdown() {
        let mut cfg = ExperimentConfig::quick();
        cfg.host_slowdown = 10.0;
        let r = Runner::new(cfg);
        assert!((r.scaled_host(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_matches_serial_evaluation_bitexactly() {
        let mut cfg = ExperimentConfig::quick();
        cfg.sizes = vec![256];
        let mut serial = Runner::new(cfg.clone());
        par::set_threads(2);
        let mut pre = Runner::new(cfg);
        pre.prefetch_all();
        par::set_threads(1);
        for kind in PlanKind::all() {
            let a = serial.outcome(kind, 256);
            let b = pre.outcome(kind, 256);
            assert_eq!(a.acc, b.acc, "{kind:?}");
            assert_eq!(a.kernel_s, b.kernel_s, "{kind:?}");
            assert_eq!(a.transfer_s, b.transfer_s, "{kind:?}");
            assert_eq!(a.launches, b.launches, "{kind:?}");
            assert_eq!(a.interactions, b.interactions, "{kind:?}");
        }
    }

    #[test]
    fn prefetch_is_skipped_under_fault_injection() {
        let mut cfg = ExperimentConfig::quick();
        cfg.sizes = vec![256];
        cfg.fault_seed = Some(5);
        let mut faulty = Runner::new(cfg.clone());
        par::set_threads(2);
        let mut pre = Runner::new(cfg);
        pre.prefetch_all();
        par::set_threads(1);
        // the shared-device fault stream must advance identically
        for kind in PlanKind::all() {
            let a = faulty.outcome(kind, 256);
            let b = pre.outcome(kind, 256);
            assert_eq!(a.acc, b.acc, "{kind:?}");
            assert_eq!(a.recovery_s, b.recovery_s, "{kind:?}");
        }
    }

    #[test]
    fn non_sim_backends_run_the_grid_without_devices() {
        let mut cfg = ExperimentConfig::quick();
        cfg.sizes = vec![256];

        cfg.backend = Some(BackendKind::Host);
        let mut host = Runner::new(cfg.clone());
        assert_eq!(host.backend().kind(), BackendKind::Host);
        let o = host.outcome(PlanKind::JwParallel, 256);
        assert!(o.acc.iter().all(|a| a.x.is_finite() && a.y.is_finite() && a.z.is_finite()));
        assert_eq!(o.kernel_s, 0.0, "no simulated clock off the sim backend");
        assert!(host.trace(PlanKind::JwParallel, 256).is_empty(), "no device, no trace");

        // the f32 backend reproduces the sim oracle bit-exactly through the
        // full Runner path
        cfg.backend = Some(BackendKind::F32);
        let mut f32r = Runner::new(cfg.clone());
        cfg.backend = None;
        let mut sim = Runner::new(cfg);
        for kind in PlanKind::all() {
            assert_eq!(f32r.outcome(kind, 256).acc, sim.outcome(kind, 256).acc, "{kind:?}");
        }
    }

    #[test]
    fn tree_plan_outcomes_report_simulated_host_times() {
        let mut r = Runner::new(ExperimentConfig::quick());
        let o = r.outcome(PlanKind::JwParallel, 1024);
        // simulated by the host model, deterministic
        let model = r.cfg.plan.host_model;
        assert!((o.host_tree_s - model.tree_seconds(1024)).abs() < 1e-15);
        assert!(o.host_walk_s > 0.0);
        assert!(o.host_measured_s > 0.0);
    }
}
