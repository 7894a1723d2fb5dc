//! Cross-crate validation: every execution plan, on every workload family,
//! must reproduce the scalar CPU reference within its method's error budget.

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::*;
use workloads::spec::{WorkloadKind, WorkloadSpec};

fn device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
}

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

/// PP plans are exact up to f32; tree plans carry the θ=0.5 multipole error.
fn error_budget(kind: PlanKind) -> f64 {
    if kind.uses_tree() {
        0.02
    } else {
        1e-3
    }
}

#[test]
fn all_plans_match_reference_on_all_workloads() {
    let mut dev = device();
    let p = params();
    for kind_w in WorkloadKind::all() {
        let set = WorkloadSpec { kind: kind_w, n: 600, seed: 5 }.generate();
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &p, &mut exact);
        for kind in PlanKind::all() {
            let outcome = plans::evaluate(kind, &PlanConfig::default(), &mut dev, &set, &p);
            let err = nbody_core::gravity::max_relative_error(&exact, &outcome.acc);
            assert!(err < error_budget(kind), "{} on {}: error {err}", kind.id(), kind_w.id());
        }
    }
}

#[test]
fn pp_plans_agree_with_each_other_tightly() {
    let mut dev = device();
    let p = params();
    let set = plummer(1500, PlummerParams::default(), 9);
    let i = plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &p);
    let j = plans::evaluate(PlanKind::JParallel, &PlanConfig::default(), &mut dev, &set, &p);
    let err = nbody_core::gravity::max_relative_error(&i.acc, &j.acc);
    assert!(err < 1e-4, "i vs j: {err}");
}

#[test]
fn tree_plans_agree_with_each_other_tightly() {
    let mut dev = device();
    let p = params();
    let set = plummer(1500, PlummerParams::default(), 10);
    let w = plans::evaluate(PlanKind::WParallel, &PlanConfig::default(), &mut dev, &set, &p);
    let jw = plans::evaluate(PlanKind::JwParallel, &PlanConfig::default(), &mut dev, &set, &p);
    let err = nbody_core::gravity::max_relative_error(&w.acc, &jw.acc);
    assert!(err < 1e-5, "w vs jw: {err}");
    assert_eq!(w.interactions, jw.interactions);
}

#[test]
fn tightening_theta_tightens_device_results() {
    let mut dev = device();
    let p = params();
    let set = plummer(1200, PlummerParams::default(), 11);
    let mut exact = vec![Vec3::ZERO; set.len()];
    accelerations_pp(&set, &p, &mut exact);

    let run_theta = |dev: &mut Device, theta: f64| {
        let cfg = PlanConfig { theta, ..Default::default() };
        let o = plans::evaluate(PlanKind::JwParallel, &cfg, dev, &set, &p);
        nbody_core::gravity::max_relative_error(&exact, &o.acc)
    };
    let loose = run_theta(&mut dev, 0.9);
    let tight = run_theta(&mut dev, 0.3);
    assert!(tight < loose, "θ=0.3 ({tight}) should beat θ=0.9 ({loose})");
    assert!(tight < 5e-3, "θ=0.3 error {tight}");
}

#[test]
fn varying_block_size_does_not_change_physics() {
    let mut dev = device();
    let p = params();
    let set = plummer(700, PlummerParams::default(), 12);
    let mut reference: Option<Vec<Vec3>> = None;
    for block in [64, 128, 256] {
        let cfg = PlanConfig { block_size: block, ..Default::default() };
        let o = plans::evaluate(PlanKind::IParallel, &cfg, &mut dev, &set, &p);
        if let Some(ref r) = reference {
            let err = nbody_core::gravity::max_relative_error(r, &o.acc);
            assert!(err < 1e-5, "block {block}: {err}");
        } else {
            reference = Some(o.acc);
        }
    }
}

#[test]
fn varying_walk_size_does_not_change_physics_beyond_mac() {
    let mut dev = device();
    let p = params();
    let set = plummer(900, PlummerParams::default(), 13);
    let mut exact = vec![Vec3::ZERO; set.len()];
    accelerations_pp(&set, &p, &mut exact);
    for ws in [64, 128, 256] {
        let cfg = PlanConfig { walk_size: ws, ..Default::default() };
        let o = plans::evaluate(PlanKind::JwParallel, &cfg, &mut dev, &set, &p);
        let err = nbody_core::gravity::max_relative_error(&exact, &o.acc);
        assert!(err < 0.02, "walk size {ws}: {err}");
    }
}
