//! Determinism: every simulated quantity — forces, interaction counts,
//! device clocks — must be bit-identical across repeated runs. This is what
//! makes the experiment tables reproducible artifacts rather than noise.

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn evaluate(kind: PlanKind, n: usize, seed: u64) -> PlanOutcome {
    let mut dev =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    let set = plummer(n, PlummerParams::default(), seed);
    plans::evaluate(
        kind,
        &PlanConfig::default(),
        &mut dev,
        &set,
        &GravityParams { g: 1.0, softening: 0.05 },
    )
}

#[test]
fn every_plan_is_bitwise_deterministic() {
    for kind in PlanKind::all() {
        let a = evaluate(kind, 800, 21);
        let b = evaluate(kind, 800, 21);
        assert_eq!(a.acc, b.acc, "{} forces differ", kind.id());
        assert_eq!(a.interactions, b.interactions, "{} interactions differ", kind.id());
        assert_eq!(a.kernel_s, b.kernel_s, "{} kernel clock differs", kind.id());
        assert_eq!(a.transfer_s, b.transfer_s, "{} transfer clock differs", kind.id());
        assert_eq!(a.launches, b.launches);
    }
}

#[test]
fn different_seeds_give_different_systems() {
    let a = evaluate(PlanKind::JwParallel, 400, 1);
    let b = evaluate(PlanKind::JwParallel, 400, 2);
    assert_ne!(a.acc, b.acc);
}

#[test]
fn workload_generation_is_cross_run_stable() {
    // pin a few sampled values so accidental RNG/stream changes are caught
    // (ChaCha8 with a fixed seed is platform-independent)
    let set = plummer(8, PlummerParams::default(), 42);
    let p0 = set.pos()[0];
    let again = plummer(8, PlummerParams::default(), 42);
    assert_eq!(set, again);
    assert!(p0.is_finite());
}

#[test]
fn fault_schedule_and_recovery_are_seed_deterministic() {
    use gpu_sim::prelude::{FaultConfig, FaultPlan};
    let evaluate_faulty = |kind: PlanKind| {
        let mut dev =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
        dev.set_fault_plan(FaultPlan::new(31, FaultConfig::transient(0.2)));
        let set = plummer(800, PlummerParams::default(), 21);
        let outcome = plans::evaluate(
            kind,
            &PlanConfig::default(),
            &mut dev,
            &set,
            &GravityParams { g: 1.0, softening: 0.05 },
        );
        let counts = dev.fault_plan().unwrap().counts();
        (outcome, counts)
    };
    for kind in PlanKind::all() {
        let (a, ca) = evaluate_faulty(kind);
        let (b, cb) = evaluate_faulty(kind);
        // same seed → same fault schedule, same recovery path, same clocks
        assert_eq!(ca, cb, "{} fault schedule differs", kind.id());
        assert_eq!(a.recovery_s, b.recovery_s, "{} recovery time differs", kind.id());
        assert_eq!(a.kernel_s, b.kernel_s, "{} kernel clock differs", kind.id());
        assert_eq!(a.total_seconds(), b.total_seconds());
        assert_eq!(a.acc, b.acc, "{} forces differ", kind.id());
        // and the recovered forces match the fault-free run bit-exactly
        let clean = evaluate(kind, 800, 21);
        assert_eq!(a.acc, clean.acc, "{} recovery is not bit-exact", kind.id());
        assert_eq!(clean.recovery_s, 0.0);
    }
}

#[test]
fn simulated_clocks_are_independent_of_wall_time() {
    // run the same evaluation twice with an artificial pause between; the
    // simulated clocks must not change (only host_measured_s may)
    let a = evaluate(PlanKind::WParallel, 600, 7);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let b = evaluate(PlanKind::WParallel, 600, 7);
    assert_eq!(a.kernel_s, b.kernel_s);
    assert_eq!(a.host_tree_s, b.host_tree_s);
    assert_eq!(a.host_walk_s, b.host_walk_s);
    assert_eq!(a.total_seconds(), b.total_seconds());
}
