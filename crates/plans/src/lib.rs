//! # plans
//!
//! The four GPU execution plans of the PTPM N-body paper, implemented as
//! host programs against the simulated device (`gpu-sim`):
//!
//! | plan | paper §4 | strategy | module |
//! |------|----------|----------|--------|
//! | [`PlanKind::IParallel`] | Nyland (GPU Gems 3) | thread per target body, LDS tiles | [`i_parallel`] |
//! | [`PlanKind::JParallel`] | Hamada's chamomile | j-range split across blocks + reduction | [`j_parallel`] |
//! | [`PlanKind::WParallel`] | Hamada's multiple-walk | one block per Barnes-Hut walk | [`w_parallel`] |
//! | [`PlanKind::JwParallel`] | **this paper** | (walk × j-slice) blocks + per-walk reduction | [`jw_parallel`] |
//!
//! [`evaluate`] is the one route from a plan kind to the simulated device,
//! and every plan produces a [`PlanOutcome`] whose time split (host
//! tree/walks, kernel, transfers) is what the paper's Tables 1–3 and
//! Figures 4–5 report. The two tree plans share one host program,
//! [`tree_pipeline::evaluate_tree_plan`]: the Morton shard loop, whose
//! one-shard case is the unsharded evaluation.

#![warn(missing_docs)]

use gpu_sim::device::Device;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;

pub mod autotune;
pub mod backend;
pub mod common;
pub mod conformance;
pub mod engine;
pub mod i_parallel;
pub mod j_parallel;
pub mod jw_parallel;
pub mod potential;
pub mod recover;
pub mod tree_pipeline;
pub mod validate;
pub mod w_parallel;

/// Common imports.
pub mod prelude {
    pub use crate::autotune::{
        autotune, candidates, evaluate_forces, forecast_candidate, forecast_grid_points, full_grid,
        measure, prune, selection_is_reproducible, AutotuneResult, Candidate, ForecastGeometry,
        ForecastPoint, MeasurePoint, TuneObjective, DEFAULT_SHORTLIST,
    };
    pub use crate::backend::{
        default_device, make_backend, Backend, BackendKind, DeviceF32Backend, HostBackend,
        PrecisionTier, SimBackend,
    };
    pub use crate::common::{
        download_acc, upload_bodies, PlanConfig, PlanKind, PlanOutcome, FLOPS_PER_INTERACTION,
    };
    pub use crate::conformance::{
        check_cell, check_energy_drift, check_fault_contract, check_trace_contract, f32_l2_bound,
        rel_l2, run_matrix, CellReport, ConformanceCase, ConformanceReport, DEFAULT_THREADS,
    };
    pub use crate::engine::PlanForceEngine;
    pub use crate::j_parallel::auto_j_slices;
    pub use crate::jw_parallel::{auto_slice_len, slice_walks};
    pub use crate::potential::potential_on_device;
    pub use crate::recover::{launch_with_recovery, with_retry};
    pub use crate::tree_pipeline::{
        build_tree_on_device, evaluate_tree_plan, geometric_key, predict_pipeline_shape,
        DeviceTreeBuild, TreePipelineRun,
    };
    pub use crate::validate::{validate_all, validate_plan, ErrorBudget, ValidationReport};
    pub use crate::w_parallel::{pack_walks, NO_TARGET};
}

pub use prelude::*;

/// Evaluates accelerations for `set` under the plan `kind` on `device`: the
/// one route from a plan kind to the simulated device. i-parallel and
/// j-parallel run their modules' host programs; w-parallel and jw-parallel
/// run the shared Morton shard loop,
/// [`tree_pipeline::evaluate_tree_plan`].
///
/// Every plan calls [`Device::begin_evaluation`] on entry, so the outcome
/// (clocks, launches, peak device bytes) reflects exactly this evaluation.
/// An unrecoverable injected fault (device loss) panics; the job server
/// catches it at the job boundary.
pub fn evaluate(
    kind: PlanKind,
    config: &PlanConfig,
    device: &mut Device,
    set: &ParticleSet,
    params: &GravityParams,
) -> PlanOutcome {
    match kind {
        PlanKind::IParallel => i_parallel::evaluate(config, device, set, params),
        PlanKind::JParallel => j_parallel::evaluate(config, device, set, params),
        PlanKind::WParallel | PlanKind::JwParallel => {
            tree_pipeline::evaluate_tree_plan(kind, config, device, set, params).outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::random_set;

    #[test]
    fn evaluate_matches_sim_backend_for_every_kind() {
        let set = random_set(300, 4);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let config = PlanConfig::default();
        for kind in PlanKind::all() {
            let direct = evaluate(kind, &config, &mut default_device(), &set, &params);
            let mut sim = SimBackend::new(default_device(), config);
            let routed = sim.evaluate(kind, &set, &params);
            // wall-clock host time is the one field free to differ; `{:?}`
            // prints every f64 exactly (shortest round-trip form)
            let fields = |o: &PlanOutcome| {
                format!("{:?}", PlanOutcome { host_measured_s: 0.0, ..o.clone() })
            };
            assert_eq!(fields(&direct), fields(&routed), "{kind:?}");
        }
    }
}
