//! Auto-tune a plan for a workload, then validate the winner: the
//! production workflow a downstream user runs when adopting the library on
//! a new problem size or a different (simulated) device.
//!
//! Run with: `cargo run --release --example tune_and_validate -- [N]`

use gpu_sim::prelude::DeviceSpec;
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4096);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(n, PlummerParams::default(), 99);
    let spec = DeviceSpec::radeon_hd_5850();

    println!("Tuning jw-parallel for N = {n} on {} ...\n", spec.name);
    let grid: Vec<Candidate> = candidates(PlanKind::JwParallel, PlanConfig::default(), &spec)
        .into_iter()
        .map(|config| Candidate { kind: PlanKind::JwParallel, config })
        .collect();
    let measured = measure(&grid, &spec, &set, &params, TuneObjective::KernelTime);
    let best = measured
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("non-empty candidate grid")
        .candidate
        .config;
    println!("{:>10} {:>12} {:>14}", "walk size", "slice len", "kernel time");
    for point in &measured {
        let config = point.candidate.config;
        println!(
            "{:>10} {:>12} {:>11.3} ms{}",
            config.walk_size,
            config.jw_slice_len.map(|l| l.to_string()).unwrap_or_else(|| "auto".to_string()),
            point.seconds * 1e3,
            if config == best { "  <- best" } else { "" }
        );
    }

    println!("\nValidating the tuned configuration (race-checked, vs f64 reference):");
    let report = plans::validate::validate_plan(
        PlanKind::JwParallel,
        best,
        &spec,
        &set,
        &params,
        ErrorBudget::default(),
    );
    println!("  {}", report.summary());
    assert!(report.passed, "tuned configuration failed validation");

    println!("\nAnd the other plans at their defaults, for comparison:");
    for r in plans::validate::validate_all(PlanConfig::default(), &spec, &set, &params) {
        println!("  {}", r.summary());
    }
}
