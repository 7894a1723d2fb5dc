//! # plans
//!
//! The four GPU execution plans of the PTPM N-body paper, implemented as
//! host programs against the simulated device (`gpu-sim`):
//!
//! | plan | paper §4 | strategy |
//! |------|----------|----------|
//! | [`IParallel`] | Nyland (GPU Gems 3) | thread per target body, LDS tiles |
//! | [`JParallel`] | Hamada's chamomile | j-range split across blocks + reduction |
//! | [`WParallel`] | Hamada's multiple-walk | one block per Barnes-Hut walk |
//! | [`JwParallel`] | **this paper** | (walk × j-slice) blocks + per-walk reduction |
//!
//! All plans implement [`ExecutionPlan`] and produce a [`PlanOutcome`] whose
//! time split (host tree/walks, kernel, transfers) is what the paper's
//! Tables 1–3 and Figures 4–5 report.

#![warn(missing_docs)]

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
        download_acc, upload_bodies, ExecutionPlan, PlanConfig, PlanKind, PlanOutcome,
        FLOPS_PER_INTERACTION,
    };
    pub use crate::conformance::{
        check_cell, check_energy_drift, check_fault_contract, check_trace_contract, f32_l2_bound,
        rel_l2, run_matrix, CellReport, ConformanceCase, ConformanceReport, DEFAULT_THREADS,
    };
    pub use crate::engine::PlanForceEngine;
    pub use crate::i_parallel::IParallel;
    pub use crate::j_parallel::{auto_j_slices, JParallel};
    pub use crate::jw_parallel::{auto_slice_len, run_jw_kernels, slice_walks, JwParallel};
    pub use crate::potential::potential_on_device;
    pub use crate::recover::{launch_with_recovery, with_retry};
    pub use crate::tree_pipeline::{
        build_tree_on_device, evaluate_tree_plan, geometric_key, predict_pipeline_shape,
        DeviceTreeBuild, TreePipelineRun,
    };
    pub use crate::validate::{validate_all, validate_plan, ErrorBudget, ValidationReport};
    pub use crate::w_parallel::{pack_walks, WParallel, NO_TARGET};
}

pub use prelude::*;

/// Instantiates a plan by kind with a shared configuration.
pub fn make_plan(kind: PlanKind, config: PlanConfig) -> Box<dyn ExecutionPlan> {
    match kind {
        PlanKind::IParallel => Box::new(IParallel::new(config)),
        PlanKind::JParallel => Box::new(JParallel::new(config)),
        PlanKind::WParallel => Box::new(WParallel::new(config)),
        PlanKind::JwParallel => Box::new(JwParallel::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_plan_dispatches() {
        for kind in PlanKind::all() {
            let plan = make_plan(kind, PlanConfig::default());
            assert_eq!(plan.kind(), kind);
            assert_eq!(plan.name(), kind.id());
        }
    }
}
