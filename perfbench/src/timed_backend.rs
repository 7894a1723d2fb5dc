//! A timing decorator over `plans::backend::Backend`.
//!
//! Installed with `PlanForceEngine::with_backend`, it times each
//! `evaluate` from outside and tallies what the returned `PlanOutcome`
//! reports: interactions, host tree/walk preparation wall time, and the
//! simulated kernel and transfer seconds of the `gpu-sim` device. For tree
//! plans it also times the `treecode` layer directly, by building the same
//! octree and walk lists the plan builds (that extra work is timed apart
//! and never counted as backend time).

use crate::report::Tally;
use gpu_sim::device::Device;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use plans::prelude::{Backend, BackendKind, PlanConfig, PlanKind, PlanOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};

/// What the decorator saw, shared with whoever installed it.
#[derive(Debug, Default, Clone)]
pub struct BackendStats {
    /// Wall seconds inside the wrapped backend's `evaluate`.
    pub busy: Tally,
    /// Pairwise interactions evaluated.
    pub interactions: u64,
    /// Σ `PlanOutcome::host_measured_s`: the plan's own wall time for tree
    /// build, walks and packing.
    pub prep_wall_s: f64,
    /// Σ simulated kernel seconds.
    pub kernel_sim_s: f64,
    /// Σ simulated transfer seconds.
    pub transfer_sim_s: f64,
    /// Σ simulated seconds end to end (`PlanOutcome::total_seconds`).
    pub total_sim_s: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Direct `Octree::build` wall seconds (tree plans only).
    pub tree_build: Tally,
    /// Direct `build_walks` wall seconds (tree plans only).
    pub tree_walks: Tally,
    /// Interaction-list entries the direct walks produced.
    pub walk_entries: u64,
    /// Σ per-evaluation `WalkSet::list_len_cv`.
    pub list_len_cv_sum: f64,
}

/// The decorator. `stats` is shared so the caller can read it after the
/// engine that owns the decorator is done.
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    config: PlanConfig,
    stats: Rc<RefCell<BackendStats>>,
}

impl TimedBackend {
    /// Wraps `inner`; `config` must be the plan configuration `inner` runs
    /// with, so the direct treecode calls build the same tree.
    pub fn new(
        inner: Box<dyn Backend>,
        config: PlanConfig,
        stats: Rc<RefCell<BackendStats>>,
    ) -> Self {
        TimedBackend { inner, config, stats }
    }
}

impl Backend for TimedBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        let t0 = Instant::now();
        let outcome = self.inner.evaluate(plan, set, params);
        let busy = t0.elapsed().as_secs_f64();
        let mut st = self.stats.borrow_mut();
        st.busy.add(busy);
        st.interactions += outcome.interactions;
        st.prep_wall_s += outcome.host_measured_s;
        st.kernel_sim_s += outcome.kernel_s;
        st.transfer_sim_s += outcome.transfer_s;
        st.total_sim_s += outcome.total_seconds();
        st.launches += outcome.launches as u64;
        if plan.uses_tree() {
            let t0 = Instant::now();
            let tree = Octree::build(set, TreeParams { leaf_capacity: self.config.leaf_capacity });
            let t1 = Instant::now();
            let walks = build_walks(
                &tree,
                set,
                OpeningAngle::new(self.config.theta),
                self.config.walk_size,
            );
            st.tree_build.add((t1 - t0).as_secs_f64());
            st.tree_walks.add(t1.elapsed().as_secs_f64());
            st.walk_entries += walks.groups.iter().map(|g| g.list_len() as u64).sum::<u64>();
            st.list_len_cv_sum += walks.list_len_cv();
        }
        outcome
    }

    fn device(&self) -> Option<&Device> {
        self.inner.device()
    }

    fn device_mut(&mut self) -> Option<&mut Device> {
        self.inner.device_mut()
    }
}
