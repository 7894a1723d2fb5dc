//! Galaxy collision: two disk galaxies on a tilted collision course,
//! integrated end-to-end on the simulated GPU with the jw-parallel plan.
//!
//! Prints diagnostics (energy, angular momentum, extent) as the encounter
//! unfolds, plus the accumulated simulated device time — the workload the
//! paper's introduction motivates.
//!
//! Run with: `cargo run --release --example galaxy_collision`

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{galaxy_collision, CollisionParams};

fn main() {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let mut set = galaxy_collision(2000, CollisionParams::default(), 7);
    println!(
        "Two disk galaxies: {} bodies, approaching at {:.2} per axis",
        set.len(),
        CollisionParams::default().approach_speed
    );

    let device =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    let mut engine = PlanForceEngine::with_backend(
        Box::new(SimBackend::new(device, PlanConfig::default())),
        PlanKind::JwParallel,
        params,
    );

    let dt = 2e-3;
    let steps_per_report = 50;
    let reports = 6;

    let d0 = Diagnostics::measure(&set, &params);
    println!("{:>6}  {:>12}  {:>12}  {:>10}  {:>10}", "step", "energy", "Lz", "extent", "drift");
    prime(&mut set, &mut engine);
    for r in 0..=reports {
        if r > 0 {
            for _ in 0..steps_per_report {
                LeapfrogKdk.step(&mut set, &mut engine, dt);
            }
        }
        let d = Diagnostics::measure(&set, &params);
        let (lo, hi) = set.bounding_box().unwrap();
        println!(
            "{:>6}  {:>12.5}  {:>12.5}  {:>10.3}  {:>10.2e}",
            r * steps_per_report,
            d.total,
            d.angular_momentum.z,
            (hi - lo).max_component(),
            d0.energy_drift(&d)
        );
    }

    println!(
        "\nsimulated device time for {} force evaluations: {:.3} s total ({:.3} s in kernels)",
        engine.evaluations(),
        engine.simulated_total_seconds(),
        engine.simulated_kernel_seconds()
    );
    if let Some(o) = engine.last_outcome() {
        println!(
            "last evaluation: {} interactions, {:.0} GFLOPS",
            o.interactions,
            o.gflops(FlopConvention::Grape38)
        );
    }
}
