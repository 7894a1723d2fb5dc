//! Parallel-exactness matrix: the workspace's determinism contract says
//! every observable result — forces, energies, interaction counts, and all
//! *simulated* clocks — is bit-identical for any worker-thread count. These
//! tests sweep `--threads` ∈ {1, 2, 3, 8} (more threads than cores included
//! deliberately) over every plan, the treecode pipeline, and a full
//! integrated trajectory.
//!
//! `PlanOutcome::host_measured_s` is real wall clock ("informational only")
//! and is the one field deliberately excluded from the comparisons.
//!
//! The thread count is process-global, so a concurrently running test can
//! change it mid-run — which is harmless precisely because of the property
//! under test: any thread count produces the same bits.

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use treecode::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 8];

fn device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
}

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

/// Every field of [`PlanOutcome`] except the wall-clock `host_measured_s`.
fn assert_outcomes_identical(a: &PlanOutcome, b: &PlanOutcome, what: &str) {
    assert_eq!(a.acc, b.acc, "{what}: forces differ");
    assert_eq!(a.interactions, b.interactions, "{what}: interactions differ");
    assert_eq!(a.host_tree_s, b.host_tree_s, "{what}: host_tree_s differs");
    assert_eq!(a.host_walk_s, b.host_walk_s, "{what}: host_walk_s differs");
    assert_eq!(a.kernel_s, b.kernel_s, "{what}: kernel_s differs");
    assert_eq!(a.transfer_s, b.transfer_s, "{what}: transfer_s differs");
    assert_eq!(a.recovery_s, b.recovery_s, "{what}: recovery_s differs");
    assert_eq!(a.launches, b.launches, "{what}: launches differ");
    assert_eq!(
        a.overlap_walk_with_kernel, b.overlap_walk_with_kernel,
        "{what}: overlap flag differs"
    );
}

#[test]
fn every_plan_is_bit_exact_across_thread_counts() {
    let set = plummer(700, PlummerParams::default(), 41);
    for kind in PlanKind::all() {
        par::set_threads(THREAD_MATRIX[0]);
        let base = plans::evaluate(kind, &PlanConfig::default(), &mut device(), &set, &params());
        for &t in &THREAD_MATRIX[1..] {
            par::set_threads(t);
            let o = plans::evaluate(kind, &PlanConfig::default(), &mut device(), &set, &params());
            assert_outcomes_identical(&base, &o, &format!("{} @ {t} threads", kind.id()));
        }
    }
    par::set_threads(1);
}

#[test]
fn treecode_pipeline_is_bit_exact_across_thread_counts() {
    let set = plummer(2000, PlummerParams::default(), 43);
    let theta = OpeningAngle::new(0.5);
    let run = |t: usize| {
        par::set_threads(t);
        let order = morton_order(&set);
        let tree = Octree::build(&set, TreeParams::default());
        let walks = build_walks(&tree, &set, theta, 32);
        let mut acc = vec![Vec3::ZERO; set.len()];
        let stats = accelerations_bh(&tree, &set, theta, &params(), &mut acc);
        (order, tree, walks, acc, stats)
    };
    let base = run(THREAD_MATRIX[0]);
    for &t in &THREAD_MATRIX[1..] {
        let got = run(t);
        assert_eq!(base.0, got.0, "morton order differs at {t} threads");
        assert_eq!(base.1.order(), got.1.order(), "tree order differs at {t} threads");
        assert_eq!(base.1.nodes(), got.1.nodes(), "tree nodes differ at {t} threads");
        assert_eq!(base.2, got.2, "walk set differs at {t} threads");
        assert_eq!(base.3, got.3, "BH forces differ at {t} threads");
        assert_eq!(base.4, got.4, "walk stats differ at {t} threads");
    }
    par::set_threads(1);
}

#[test]
fn integrated_trajectory_and_energies_are_bit_exact_across_thread_counts() {
    let run = |t: usize| {
        par::set_threads(t);
        let mut engine = PlanForceEngine::with_backend(
            Box::new(SimBackend::new(device(), PlanConfig::default())),
            PlanKind::JwParallel,
            params(),
        );
        let mut set = plummer(300, PlummerParams::default(), 53);
        prime(&mut set, &mut engine);
        // total energy at step 0 and every 2 steps after
        let mut history = vec![total_energy(&set, &params()).to_bits()];
        for step in 1..=6 {
            LeapfrogKdk.step(&mut set, &mut engine, 0.01);
            if step % 2 == 0 {
                history.push(total_energy(&set, &params()).to_bits());
            }
        }
        let energy = total_energy(&set, &params());
        (set.pos().to_vec(), set.vel().to_vec(), energy, history)
    };
    let (pos0, vel0, e0, hist0) = run(THREAD_MATRIX[0]);
    assert!(!hist0.is_empty() && e0.is_finite());
    for &t in &THREAD_MATRIX[1..] {
        let (pos, vel, e, hist) = run(t);
        assert_eq!(pos0, pos, "positions diverge at {t} threads");
        assert_eq!(vel0, vel, "velocities diverge at {t} threads");
        assert_eq!(e0.to_bits(), e.to_bits(), "total energy diverges at {t} threads");
        assert_eq!(hist0, hist, "recorded energies diverge at {t} threads");
    }
    par::set_threads(1);
}
