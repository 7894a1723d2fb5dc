//! End-to-end simulations: integrate real workloads with the device plans
//! driving the forces, and check the physics that must survive — energy,
//! momentum, and agreement between CPU and simulated-GPU trajectories.

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::*;

fn gpu_engine(kind: PlanKind) -> PlanForceEngine {
    let device =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    PlanForceEngine::with_backend(
        Box::new(SimBackend::new(device, PlanConfig::default())),
        kind,
        GravityParams { g: 1.0, softening: 0.05 },
    )
}

#[test]
fn gpu_trajectory_tracks_cpu_trajectory() {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let initial = plummer(256, PlummerParams::default(), 31);

    let mut cpu_set = initial.clone();
    let mut cpu_engine = DirectPp::new(params);
    run(&mut cpu_set, &mut cpu_engine, &LeapfrogKdk, 1e-3, 30);

    let mut gpu_set = initial;
    let mut engine = gpu_engine(PlanKind::IParallel);
    run(&mut gpu_set, &mut engine, &LeapfrogKdk, 1e-3, 30);

    // f32 forces diverge slowly; after 30 steps positions still agree well
    let max_dev =
        cpu_set.pos().iter().zip(gpu_set.pos()).map(|(a, b)| a.distance(*b)).fold(0.0, f64::max);
    assert!(max_dev < 1e-3, "trajectory deviation {max_dev}");
}

#[test]
fn cluster_collision_conserves_energy_under_jw() {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let mut set = cluster_collision(400, CollisionParams::default(), 17);
    let e0 = total_energy(&set, &params);
    let mut engine = gpu_engine(PlanKind::JwParallel);
    run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 60);
    let e1 = total_energy(&set, &params);
    let drift = ((e1 - e0) / e0).abs();
    assert!(drift < 0.02, "energy drift {drift}");
    assert!(set.all_finite());
}

#[test]
fn momentum_stays_zero_under_every_plan() {
    for kind in PlanKind::all() {
        let mut set = plummer(200, PlummerParams::default(), 23);
        set.recenter();
        let mut engine = gpu_engine(kind);
        run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 20);
        let p = set.center_of_mass_velocity().unwrap() * set.total_mass();
        // tree plans have slightly asymmetric forces; bound is loose but real
        let bound = if kind.uses_tree() { 5e-3 } else { 1e-4 };
        assert!(p.norm() < bound, "{}: net momentum {:?}", kind.id(), p);
    }
}

#[test]
fn simulated_time_grows_linearly_with_steps() {
    let mut set = plummer(256, PlummerParams::default(), 29);
    let mut engine = gpu_engine(PlanKind::JwParallel);
    prime(&mut set, &mut engine);
    let t1 = engine.simulated_total_seconds();
    for _ in 0..10 {
        LeapfrogKdk.step(&mut set, &mut engine, 1e-3);
    }
    let t11 = engine.simulated_total_seconds();
    // 11 evaluations total; per-step cost roughly constant
    let per_step = (t11 - t1) / 10.0;
    assert!((t1 - per_step).abs() < per_step * 0.5, "prime {t1} vs step {per_step}");
}

#[test]
fn disk_galaxy_keeps_spinning_under_gpu_forces() {
    let mut set = disk_galaxy(500, DiskParams::default(), 37);
    let l0 = nbody_core::energy::angular_momentum(&set);
    let mut engine = gpu_engine(PlanKind::WParallel);
    run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 50);
    let l1 = nbody_core::energy::angular_momentum(&set);
    assert!((l1.z - l0.z).abs() < 0.02 * l0.z.abs(), "Lz {} -> {}", l0.z, l1.z);
}
