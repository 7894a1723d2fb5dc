//! Plan explorer: evaluate all four execution plans at one problem size,
//! print their time splits, and show the PTPM time-space picture behind the
//! numbers — including the analytic forecast the paper's model makes and an
//! ASCII rendering of each plan's compute-unit occupancy.
//!
//! Run with: `cargo run --release --example plan_explorer -- [N]`
//! (default N = 2048)

use gpu_sim::prelude::{Device, DeviceSpec, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use ptpm::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2048);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(n, PlummerParams::default(), 11);
    let spec = DeviceSpec::radeon_hd_5850();
    println!("Exploring all four plans at N = {n} on {}\n", spec.name);

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "plan", "kernel", "total", "interactions", "GFLOPS(38)", "launches"
    );
    let mut outcomes = Vec::new();
    for kind in PlanKind::all() {
        let mut device = Device::with_transfer_model(spec.clone(), TransferModel::pcie2_x16());
        let o = plans::evaluate(kind, &PlanConfig::default(), &mut device, &set, &params);
        println!(
            "{:<12} {:>9.3} ms {:>9.3} ms {:>12} {:>12.0} {:>10}",
            kind.id(),
            o.kernel_s * 1e3,
            o.total_seconds() * 1e3,
            o.interactions,
            o.gflops(FlopConvention::Grape38),
            o.launches
        );
        // keep the heaviest launch's per-CU busy profile for the grid view
        let heaviest = device
            .launches()
            .iter()
            .max_by(|a, b| a.timing.seconds.partial_cmp(&b.timing.seconds).unwrap())
            .expect("at least one launch");
        outcomes.push((kind, heaviest.timing.cu_busy_cycles.clone()));
    }

    // PTPM analytic forecasts for the two PP plans (closed-form)
    println!("\nPTPM analytic forecast (ALU-only model):");
    let fi = forecast_i_parallel(n, 256, &spec);
    let fj = forecast_j_parallel(n, 256, 8, &spec);
    for (name, f) in [("i-parallel", fi), ("j-parallel S=8", fj)] {
        println!(
            "  {:<16} blocks {:>4}  predicted {:>8.3} ms  space utilization {:>5.1}%",
            name,
            f.blocks,
            f.seconds * 1e3,
            f.space_utilization * 100.0
        );
    }

    // time-space occupancy of each plan's main kernel
    println!("\nTime-space occupancy of the heaviest kernel (one row per CU):");
    for (kind, busy) in &outcomes {
        let total: f64 = busy.iter().sum();
        let max = busy.iter().copied().fold(0.0_f64, f64::max);
        let bar: String = busy
            .iter()
            .map(|b| {
                let frac = if max > 0.0 { b / max } else { 0.0 };
                match (frac * 8.0).round() as usize {
                    0 => ' ',
                    1..=2 => '.',
                    3..=5 => 'o',
                    _ => '#',
                }
            })
            .collect();
        println!(
            "  {:<12} |{}|  balance {:>5.1}%",
            kind.id(),
            bar,
            if max > 0.0 { 100.0 * total / (max * busy.len() as f64) } else { 0.0 }
        );
    }
}
