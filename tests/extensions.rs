//! Integration tests of the extension features working *together*: a
//! leapfrog run on the simulated GPU with recorded diagnostics, tuned
//! configurations, device-side diagnostics, and snapshot round-trips of
//! evolved states.

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use treecode::prelude::*;
use workloads::prelude::*;

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

#[test]
fn simulation_driver_on_simulated_gpu_records_physics() {
    let device =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    let mut engine = PlanForceEngine::with_backend(
        Box::new(SimBackend::new(device, PlanConfig::default())),
        PlanKind::JwParallel,
        params(),
    );
    let mut set = plummer(256, PlummerParams::default(), 41);
    set.recenter();
    prime(&mut set, &mut engine);
    let mut history = vec![Diagnostics::measure(&set, &params())];
    for step in 1..=30 {
        LeapfrogKdk.step(&mut set, &mut engine, 1e-3);
        if step % 10 == 0 {
            history.push(Diagnostics::measure(&set, &params()));
        }
    }
    assert_eq!(history.len(), 4); // steps 0, 10, 20, 30
    let drift = history[0].energy_drift(&history[3]);
    assert!(drift < 1e-3, "drift {drift}");
    assert!(engine.simulated_total_seconds() > 0.0);
}

#[test]
fn tuned_jw_config_preserves_physics() {
    let set = plummer(1024, PlummerParams::default(), 43);
    let spec = DeviceSpec::radeon_hd_5850();
    let grid: Vec<Candidate> = candidates(PlanKind::JwParallel, PlanConfig::default(), &spec)
        .into_iter()
        .map(|config| Candidate { kind: PlanKind::JwParallel, config })
        .collect();
    let measured = measure(&grid, &spec, &set, &params(), TuneObjective::KernelTime);
    let best = measured.iter().min_by(|a, b| a.seconds.total_cmp(&b.seconds)).unwrap();
    let mut exact = vec![Vec3::ZERO; set.len()];
    accelerations_pp(&set, &params(), &mut exact);
    let mut dev = Device::with_transfer_model(spec, TransferModel::pcie2_x16());
    let outcome =
        plans::evaluate(PlanKind::JwParallel, &best.candidate.config, &mut dev, &set, &params());
    let err = nbody_core::gravity::max_relative_error(&exact, &outcome.acc);
    assert!(err < 0.02, "tuned config error {err}");
    assert!(outcome.kernel_s <= best.seconds * 1.0001);
}

#[test]
fn device_potential_tracks_cpu_during_evolution() {
    let mut set = plummer(200, PlummerParams::default(), 44);
    set.recenter();
    let p = params();
    let mut engine = DirectPp::new(p);
    run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 15);
    let cpu_u = nbody_core::gravity::potential_energy(&set, &p);
    let mut dev =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    let (gpu_u, _) = potential_on_device(&mut dev, &set, &p, &PlanConfig::default());
    assert!(((gpu_u - cpu_u) / cpu_u).abs() < 1e-4, "gpu {gpu_u} vs cpu {cpu_u}");
}

#[test]
fn snapshot_roundtrips_an_evolved_state() {
    let p = params();
    let mut set = cluster_collision(200, CollisionParams::default(), 46);
    let host_tree = || {
        PlanForceEngine::with_backend(
            Box::new(HostBackend::new(PlanConfig::default())),
            PlanKind::WParallel,
            p,
        )
    };
    let mut engine = host_tree();
    run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 10);

    let snap = Snapshot::new("evolved-collision", 0.01, set.clone());
    let restored = Snapshot::from_json(&snap.to_json()).unwrap();
    let bits = nbody_core::testutil::stored_bits;
    assert_eq!(bits(&restored.set), bits(&set));
    assert_eq!(restored.set.acc(), vec![Vec3::ZERO; 200], "acc is not stored");
    assert_eq!((restored.time.to_bits(), restored.checksum), (0.01f64.to_bits(), snap.checksum));

    // the restored state continues identically to the original
    let mut a = set.clone();
    let mut b = restored.set;
    let mut ea = host_tree();
    let mut eb = host_tree();
    run(&mut a, &mut ea, &LeapfrogKdk, 1e-3, 5);
    run(&mut b, &mut eb, &LeapfrogKdk, 1e-3, 5);
    assert_eq!(a.pos(), b.pos());
}

#[test]
fn morton_order_agrees_with_tree_locality() {
    // Morton-ordered chunks and tree-ordered chunks both give compact walk
    // boxes; the two orderings must produce comparable interaction totals
    let set = plummer(2048, PlummerParams::default(), 47);
    let tree = Octree::build(&set, TreeParams::default());
    let tree_walks = build_walks(&tree, &set, OpeningAngle::new(0.5), 64);

    let morder = treecode::morton::morton_order(&set);
    // group-MAC lists for morton chunks, built directly
    let pos = set.pos();
    let mut morton_total = 0_u64;
    for chunk in morder.chunks(64) {
        let bbox = Aabb::from_points(chunk.iter().map(|&b| pos[b as usize]));
        let mut stack = vec![0_u32];
        let mut len = 0_u64;
        while let Some(idx) = stack.pop() {
            let node = &tree.nodes()[idx as usize];
            if accepts_group(node, &bbox, OpeningAngle::new(0.5)) {
                len += 1;
            } else if node.is_leaf {
                len += node.body_count as u64;
            } else {
                stack.extend(node.child_indices());
            }
        }
        morton_total += chunk.len() as u64 * len;
    }
    let tree_total = tree_walks.total_interactions();
    let ratio = morton_total as f64 / tree_total as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "morton {morton_total} vs tree {tree_total} (ratio {ratio})"
    );
}
