//! Validation reports: one call that answers "is this plan computing the
//! right forces, and how fast is it doing so?"
//!
//! Downstream users changing kernels or device models need a single
//! pass/fail gate; this module packages the comparisons the workspace's
//! tests perform into a reusable API with explicit error budgets.

use crate::common::{PlanConfig, PlanKind, PlanOutcome};
use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::body::ParticleSet;
use nbody_core::flops::FlopConvention;
use nbody_core::gravity::{accelerations_pp_parallel, max_relative_error, GravityParams};
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Error budgets per method family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorBudget {
    /// Max relative error allowed for PP (f32-exact) plans.
    pub pp: f64,
    /// Max relative error allowed for tree plans at the configured θ.
    pub tree: f64,
}

impl Default for ErrorBudget {
    fn default() -> Self {
        Self { pp: 1e-3, tree: 2e-2 }
    }
}

/// The outcome of validating one plan on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Which plan was validated.
    pub kind: PlanKind,
    /// Bodies in the workload.
    pub n: usize,
    /// Max relative error against the `f64` direct sum.
    pub max_rel_error: f64,
    /// RMS relative error against the `f64` direct sum.
    pub rms_rel_error: f64,
    /// The budget applied.
    pub budget: f64,
    /// True if the error is within budget.
    pub passed: bool,
    /// Simulated kernel seconds.
    pub kernel_s: f64,
    /// Sustained GFLOPS (38-flop convention).
    pub gflops38: f64,
    /// Whether any data race was detected during checked execution.
    pub races: usize,
}

impl ValidationReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: n={} max_err={:.2e} rms_err={:.2e} kernel={:.3}ms gflops={:.0} races={} -> {}",
            self.kind.id(),
            self.n,
            self.max_rel_error,
            self.rms_rel_error,
            self.kernel_s * 1e3,
            self.gflops38,
            self.races,
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

/// Validates `kind` on `set`: runs under race checking, compares against the
/// scalar reference, applies the budget.
pub fn validate_plan(
    kind: PlanKind,
    config: PlanConfig,
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
    budget: ErrorBudget,
) -> ValidationReport {
    // bit-identical to the serial reference at any thread count
    let mut exact = vec![Vec3::ZERO; set.len()];
    accelerations_pp_parallel(set, params, &mut exact, par::threads());

    let mut device = Device::with_transfer_model(spec.clone(), TransferModel::pcie2_x16());
    device.set_race_checking(true);
    let outcome: PlanOutcome = crate::evaluate(kind, &config, &mut device, set, params);

    let max_rel_error = max_relative_error(&exact, &outcome.acc);
    let rms_rel_error = {
        let scale = exact.iter().map(|a| a.norm()).fold(0.0_f64, f64::max).max(1e-30);
        let ss: f64 = exact
            .iter()
            .zip(&outcome.acc)
            .map(|(e, a)| {
                let r = (*e - *a).norm() / scale;
                r * r
            })
            .sum();
        (ss / set.len().max(1) as f64).sqrt()
    };
    let b = if kind.uses_tree() { budget.tree } else { budget.pp };
    let races = device.races().len();
    ValidationReport {
        kind,
        n: set.len(),
        max_rel_error,
        rms_rel_error,
        budget: b,
        passed: max_rel_error < b && races == 0,
        kernel_s: outcome.kernel_s,
        gflops38: outcome.gflops(FlopConvention::Grape38),
        races,
    }
}

/// Validates all four plans; returns the reports in presentation order.
/// Each plan validates on its own fresh device, so the four runs are
/// independent and execute one per `par` task, joined in presentation order.
pub fn validate_all(
    config: PlanConfig,
    spec: &DeviceSpec,
    set: &ParticleSet,
    params: &GravityParams,
) -> Vec<ValidationReport> {
    par::run_tasks(
        PlanKind::all()
            .into_iter()
            .map(|kind| {
                move || validate_plan(kind, config, spec, set, params, ErrorBudget::default())
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::random_set;

    #[test]
    fn all_plans_validate_out_of_the_box() {
        let spec = DeviceSpec::radeon_hd_5850();
        let set = random_set(500, 1);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let reports = validate_all(PlanConfig::default(), &spec, &set, &params);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.passed, "{}", r.summary());
            assert!(r.rms_rel_error <= r.max_rel_error + 1e-15);
            assert_eq!(r.races, 0);
            assert!(r.summary().contains("PASS"));
        }
    }

    #[test]
    fn sloppy_theta_fails_the_tree_budget() {
        let spec = DeviceSpec::radeon_hd_5850();
        let set = random_set(600, 2);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let cfg = PlanConfig { theta: 1.8, ..Default::default() };
        let tight = ErrorBudget { pp: 1e-3, tree: 1e-3 };
        let r = validate_plan(PlanKind::JwParallel, cfg, &spec, &set, &params, tight);
        assert!(!r.passed, "{}", r.summary());
        assert!(r.summary().contains("FAIL"));
    }

    #[test]
    fn pp_budget_applied_to_pp_plans() {
        let spec = DeviceSpec::radeon_hd_5850();
        let set = random_set(300, 3);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let r = validate_plan(
            PlanKind::IParallel,
            PlanConfig::default(),
            &spec,
            &set,
            &params,
            ErrorBudget::default(),
        );
        assert_eq!(r.budget, ErrorBudget::default().pp);
        assert!(r.passed);
    }
}
