//! PTPM-vs-simulator agreement: the analytic time-space model must predict
//! the same plan *ranking* the full simulator measures, its absolute
//! kernel-time forecasts for the ALU-bound PP plans must land close, and
//! its forecast time-space *grids* must match the schedules reconstructed
//! from execution traces.

use gpu_sim::prelude::{Device, DeviceSpec, MemoryTraceSink, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use ptpm::prelude::*;
use treecode::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free())
}

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

#[test]
fn i_parallel_forecast_matches_simulator_within_20_percent() {
    let spec = DeviceSpec::radeon_hd_5850();
    let p = params();
    for n in [1024_usize, 4096, 8192] {
        let set = plummer(n, PlummerParams::default(), 1);
        let mut dev = device();
        let measured =
            plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &p)
                .kernel_s;
        let forecast = forecast_i_parallel(n, 256, &spec).seconds;
        let ratio = forecast / measured;
        assert!(
            (0.8..1.25).contains(&ratio),
            "N={n}: forecast {forecast} vs simulated {measured} (ratio {ratio})"
        );
    }
}

#[test]
fn forecast_ranks_i_vs_j_like_the_simulator() {
    let spec = DeviceSpec::radeon_hd_5850();
    let p = params();
    for n in [512_usize, 1024, 4096] {
        let set = plummer(n, PlummerParams::default(), 2);
        let mut dev = device();
        let i_sim =
            plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &p)
                .kernel_s;
        let config = PlanConfig::default();
        let slices = config.j_slices_for(n, &spec);
        let j_sim = plans::evaluate(PlanKind::JParallel, &config, &mut dev, &set, &p).kernel_s;

        let i_fc = forecast_i_parallel(n, 256, &spec).seconds;
        let j_fc = forecast_j_parallel(n, 256, slices, &spec).seconds;
        assert_eq!(
            i_sim < j_sim,
            i_fc < j_fc,
            "N={n}: simulator says i<j = {}, forecast says {}",
            i_sim < j_sim,
            i_fc < j_fc
        );
    }
}

#[test]
fn forecast_ranks_w_vs_jw_like_the_simulator() {
    let spec = DeviceSpec::radeon_hd_5850();
    let p = params();
    let cfg = PlanConfig::default();
    for n in [1024_usize, 4096] {
        let set = plummer(n, PlummerParams::default(), 3);
        // real list lengths from the same walks the plans use
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let lens: Vec<usize> = walks.groups.iter().map(|g| g.list_len()).collect();
        let total: usize = lens.iter().sum();
        let slice = cfg.jw_slice_len_for(total, &spec);

        let w_fc = forecast_w_parallel(&lens, cfg.walk_size, &spec).seconds;
        let jw_fc = forecast_jw_parallel(&lens, cfg.walk_size, slice, &spec).seconds;

        let mut dev = device();
        let w_sim = plans::evaluate(PlanKind::WParallel, &cfg, &mut dev, &set, &p).kernel_s;
        let jw_sim = plans::evaluate(PlanKind::JwParallel, &cfg, &mut dev, &set, &p).kernel_s;

        assert!(
            jw_fc <= w_fc && jw_sim <= w_sim,
            "N={n}: forecast jw {jw_fc} vs w {w_fc}; simulated jw {jw_sim} vs w {w_sim}"
        );
    }
}

#[test]
fn grid_utilization_explains_gflops_ordering() {
    // the plan with higher forecast space-utilization achieves higher
    // simulated GFLOPS at small N
    let spec = DeviceSpec::radeon_hd_5850();
    let p = params();
    let n = 1024;
    let set = plummer(n, PlummerParams::default(), 4);
    let mut dev = device();

    let i_fc = forecast_i_parallel(n, 256, &spec);
    let j_fc = forecast_j_parallel(n, 256, 16, &spec);
    assert!(j_fc.space_utilization > i_fc.space_utilization);

    let conv = FlopConvention::Grape38;
    let i_g = plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &p)
        .gflops(conv);
    let j_g = plans::evaluate(PlanKind::JParallel, &PlanConfig::default(), &mut dev, &set, &p)
        .gflops(conv);
    assert!(j_g > i_g, "j {j_g} vs i {i_g}");
}

/// Forecast time-space grids vs the schedules the simulator actually
/// produced, reconstructed from execution traces. The model forecasts from
/// launch shape alone (per-block ALU work), so agreement here means the
/// paper's geometric reasoning — not just its wall-clock totals — matches
/// the machine: utilization within 2 points for the uniform PP plans and
/// 15 points for the tree plans (whose memory traffic the forecast
/// ignores), balance within the same bands.
#[test]
fn forecast_grids_agree_with_observed_schedules_for_all_plans() {
    let spec = DeviceSpec::radeon_hd_5850();
    let p = params();
    let cfg = PlanConfig::default();
    for n in [1024_usize, 4096] {
        let set = plummer(n, PlummerParams::default(), 5);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let lens: Vec<usize> = walks.groups.iter().map(|g| g.list_len()).collect();
        let total: usize = lens.iter().sum();
        let slice = cfg.jw_slice_len_for(total, &spec);
        let slices = cfg.j_slices_for(n, &spec);

        for kind in PlanKind::all() {
            let mut dev = device();
            let sink = MemoryTraceSink::new();
            dev.set_trace_sink(Box::new(sink.clone()));
            plans::evaluate(kind, &cfg, &mut dev, &set, &p);
            let trace = sink.snapshot();
            // the force kernel is always the plan's first launch
            let force = &trace.launches[0];

            let blocks = match kind {
                PlanKind::IParallel => i_parallel_block_flops(n, cfg.block_size),
                PlanKind::JParallel => j_parallel_block_flops(n, cfg.block_size, slices),
                PlanKind::WParallel => w_parallel_block_flops(&lens, cfg.walk_size),
                PlanKind::JwParallel => jw_parallel_block_flops(&lens, cfg.walk_size, slice),
            };
            let forecast = forecast_grid(&blocks, &spec);
            let observed = observed_grid(force, trace.compute_units);
            assert_eq!(forecast.placements.len(), force.timing.num_groups);

            let cmp = compare_grids(&forecast, &observed, 32);
            let tol = if kind.uses_tree() { 0.15 } else { 0.02 };
            assert!(
                cmp.utilization_error() <= tol,
                "{} at N={n}: forecast utilization {:.3} vs observed {:.3}",
                kind.id(),
                cmp.forecast_utilization,
                cmp.observed_utilization
            );
            assert!(
                cmp.balance_error() <= tol,
                "{} at N={n}: forecast balance {:.3} vs observed {:.3}",
                kind.id(),
                cmp.forecast_balance,
                cmp.observed_balance
            );
            assert!(
                cmp.mean_cell_error <= 0.30,
                "{} at N={n}: mean cell error {:.3}",
                kind.id(),
                cmp.mean_cell_error
            );
        }
    }
}
