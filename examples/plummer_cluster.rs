//! Plummer cluster in virial equilibrium: verify that a cluster sampled
//! from the equilibrium distribution *stays* in equilibrium when evolved
//! with the w-parallel treecode on the host f64 backend, and show how the
//! opening angle θ trades accuracy for interaction count — the knob behind
//! the paper's tree plans.
//!
//! Run with: `cargo run --release --example plummer_cluster`

use nbody_core::prelude::*;
use plans::prelude::*;
use treecode::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn main() {
    let n = 4096;
    let params = GravityParams { g: 1.0, softening: 0.02 };
    let set = plummer(n, PlummerParams::default(), 3);
    let d0 = Diagnostics::measure(&set, &params);
    println!("Plummer sphere, N = {n}");
    println!("initial virial ratio -2T/U = {:.4} (1.0 = equilibrium)\n", d0.virial);

    // θ sweep: accuracy vs work
    println!("{:>6}  {:>14}  {:>14}  {:>12}", "theta", "interactions", "vs direct", "max rel err");
    let mut exact = vec![Vec3::ZERO; n];
    accelerations_pp(&set, &params, &mut exact);
    let pp_count = (n * (n - 1)) as f64;
    for theta in [0.2, 0.4, 0.5, 0.7, 1.0] {
        let tree = Octree::build(&set, TreeParams::default());
        let mut acc = vec![Vec3::ZERO; n];
        let stats = accelerations_bh(&tree, &set, OpeningAngle::new(theta), &params, &mut acc);
        let err = nbody_core::gravity::max_relative_error(&exact, &acc);
        println!(
            "{theta:>6.1}  {:>14}  {:>13.1}%  {:>12.2e}",
            stats.total_interactions(),
            100.0 * stats.total_interactions() as f64 / pp_count,
            err
        );
    }

    // evolve half a crossing time and watch the equilibrium hold
    let mut sim = set.clone();
    // the default plan config walks at θ = 0.5
    let mut engine = PlanForceEngine::with_backend(
        Box::new(HostBackend::new(PlanConfig::default())),
        PlanKind::WParallel,
        params,
    );
    let dt = 1e-3;
    let steps = 200;
    let started = std::time::Instant::now();
    run(&mut sim, &mut engine, &LeapfrogKdk, dt, steps);
    let wall = started.elapsed();
    let d1 = Diagnostics::measure(&sim, &params);
    println!("\nafter {steps} leapfrog steps (dt = {dt}):");
    println!("  virial ratio   {:.4} -> {:.4}", d0.virial, d1.virial);
    println!("  energy drift   {:.2e}", d0.energy_drift(&d1));
    println!("  net momentum   {:.2e}", d1.momentum.norm());
    println!(
        "  {:.1} ms wall over {} host w-parallel evaluations",
        wall.as_secs_f64() * 1e3,
        engine.evaluations()
    );
}
