//! Quickstart: simulate a small star cluster three ways and check they
//! agree — the CPU direct sum, the w-parallel treecode on the host f64
//! backend, and the paper's jw-parallel plan on the simulated Radeon HD
//! 5850.
//!
//! Run with: `cargo run --release --example quickstart`

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn main() {
    let n = 1024;
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(n, PlummerParams::default(), 42);
    println!("Sampled a Plummer sphere: {n} bodies, total mass {:.3}", set.total_mass());

    // 1. ground truth: direct particle-particle sum on the CPU
    let mut pp_acc = vec![Vec3::ZERO; n];
    accelerations_pp(&set, &params, &mut pp_acc);

    // 2. the treecode on the host: w-parallel walks on the f64 backend
    let mut tree = PlanForceEngine::with_backend(
        Box::new(HostBackend::new(PlanConfig::default())),
        PlanKind::WParallel,
        params,
    );
    let mut tree_acc = vec![Vec3::ZERO; n];
    tree.accelerations(&set, &mut tree_acc);
    let tree_err = nbody_core::gravity::max_relative_error(&pp_acc, &tree_acc);
    println!("host w-parallel treecode (θ=0.5) vs direct sum: max relative error {tree_err:.2e}");

    // 3. the paper's jw-parallel plan on the simulated GPU
    let mut device =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    let outcome =
        plans::evaluate(PlanKind::JwParallel, &PlanConfig::default(), &mut device, &set, &params);
    let gpu_err = nbody_core::gravity::max_relative_error(&pp_acc, &outcome.acc);
    println!("jw-parallel on {}:", device.spec().name);
    println!("  max relative error vs direct sum  {gpu_err:.2e}");
    println!("  interactions                      {}", outcome.interactions);
    println!("  simulated kernel time             {:.3} ms", outcome.kernel_s * 1e3);
    println!(
        "  sustained throughput              {:.0} GFLOPS (38-flop convention)",
        outcome.gflops(FlopConvention::Grape38)
    );

    // 4. integrate 100 steps with the host treecode and watch energy
    //    conservation
    let mut sim = set.clone();
    let e0 = total_energy(&sim, &params);
    run(&mut sim, &mut tree, &LeapfrogKdk, 1e-3, 100);
    let e1 = total_energy(&sim, &params);
    println!(
        "100 leapfrog steps with the host treecode: relative energy drift {:.2e}",
        ((e1 - e0) / e0).abs()
    );
}
