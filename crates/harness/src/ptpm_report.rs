//! PTPM model-validation report: the analytic time-space forecast of each
//! plan next to the simulator's measurement, with the prediction gap.
//!
//! This is the artifact behind the paper's §3–4 argument: if the closed-form
//! model predicts the measured ranking (and lands close in absolute terms
//! for the ALU-bound plans), the time-space reasoning is doing real work.
//!
//! Beyond wall-clock agreement, the report now checks the model's
//! *geometry* against the execution trace: the forecast time-space grid of
//! the force kernel is diffed cell-by-cell against the grid reconstructed
//! from the traced schedule ([`ptpm::observed`]), and each plan gets an
//! observed summary — wavefront occupancy, load balance, and whether the
//! launch was memory- or compute-bound.

use crate::runner::Runner;
use crate::table::{fmt_seconds, TextTable};
use gpu_sim::spec::DeviceSpec;
use plans::prelude::*;
use ptpm::prelude::*;
use serde::{Deserialize, Serialize};
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};

/// Time-bucket resolution of the forecast-vs-observed grid diff.
pub const COMPARE_BUCKETS: usize = 32;

/// Forecast-vs-measured for one plan at one size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PtpmRow {
    /// Problem size.
    pub n: usize,
    /// Which plan.
    pub kind: PlanKind,
    /// Analytic forecast seconds (ALU-only model).
    pub forecast_s: f64,
    /// Simulated kernel seconds.
    pub simulated_s: f64,
    /// Forecast space utilization.
    pub space_utilization: f64,
    /// Forecast-vs-observed geometry of the plan's force kernel.
    pub comparison: GridComparison,
    /// Observed wavefront occupancy of the force kernel, in `[0, 1]`.
    pub wavefront_occupancy: f64,
    /// True if the device model held the force kernel to the bandwidth
    /// floor (memory-bound) rather than the compute makespan.
    pub bandwidth_bound: bool,
    /// Observed global-memory bytes moved per charged flop.
    pub bytes_per_flop: f64,
}

impl PtpmRow {
    /// forecast / simulated (1.0 = perfect).
    pub fn ratio(&self) -> f64 {
        if self.simulated_s <= 0.0 {
            return f64::INFINITY;
        }
        self.forecast_s / self.simulated_s
    }

    /// `"memory"` or `"compute"` — the model's verdict on what bounded the
    /// force kernel.
    pub fn bound(&self) -> &'static str {
        if self.bandwidth_bound {
            "memory"
        } else {
            "compute"
        }
    }
}

/// The forecast time-space grid of one plan's force kernel, built from the
/// same walk statistics the report gathers for the wall-clock forecasts.
fn forecast_force_grid(
    kind: PlanKind,
    n: usize,
    cfg: PlanConfig,
    lens: &[usize],
    slices: usize,
    slice: usize,
    spec: &DeviceSpec,
) -> ptpm::grid::TimeSpaceGrid {
    let blocks = match kind {
        PlanKind::IParallel => i_parallel_block_flops(n, cfg.block_size),
        PlanKind::JParallel => j_parallel_block_flops(n, cfg.block_size, slices),
        PlanKind::WParallel => w_parallel_block_flops(lens, cfg.walk_size),
        PlanKind::JwParallel => jw_parallel_block_flops(lens, cfg.walk_size, slice),
    };
    forecast_grid(&blocks, spec)
}

/// Runs the forecast-vs-simulated comparison over the configured sweep.
pub fn ptpm_report(runner: &mut Runner) -> Vec<PtpmRow> {
    let spec: DeviceSpec = runner.cfg.device().spec().clone();
    let cfg = runner.cfg.plan;
    let sizes = runner.cfg.sizes.clone();
    let mut rows = Vec::new();
    for n in sizes {
        // walk statistics for the tree-plan forecasts
        let set = runner.set(n).clone();
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let lens: Vec<usize> = walks.groups.iter().map(|g| g.list_len()).collect();
        let total: usize = lens.iter().sum();
        let slice = cfg.jw_slice_len_for(total, &spec);
        let slices = cfg.j_slices_for(n, &spec);

        for kind in PlanKind::all() {
            let forecast = match kind {
                PlanKind::IParallel => forecast_i_parallel(n, cfg.block_size, &spec),
                PlanKind::JParallel => forecast_j_parallel(n, cfg.block_size, slices, &spec),
                PlanKind::WParallel => forecast_w_parallel(&lens, cfg.walk_size, &spec),
                PlanKind::JwParallel => forecast_jw_parallel(&lens, cfg.walk_size, slice, &spec),
            };
            let simulated_s = runner.outcome(kind, n).kernel_s;

            // geometry check: forecast grid vs the traced schedule of the
            // force kernel (always the first launch of the plan)
            let trace = runner.trace(kind, n);
            let force = &trace.launches[0];
            let fgrid = forecast_force_grid(kind, n, cfg, &lens, slices, slice, &spec);
            let ogrid = observed_grid(force, trace.compute_units);
            let comparison = compare_grids(&fgrid, &ogrid, COMPARE_BUCKETS);

            rows.push(PtpmRow {
                n,
                kind,
                forecast_s: forecast.seconds,
                simulated_s,
                space_utilization: forecast.space_utilization,
                comparison,
                wavefront_occupancy: force.wavefront_occupancy,
                bandwidth_bound: force.timing.bandwidth_bound,
                bytes_per_flop: force.bytes_per_flop(),
            });
        }
    }
    rows
}

/// Renders the report.
pub fn render(rows: &[PtpmRow]) -> String {
    let mut t = TextTable::new(
        "PTPM model validation — analytic forecast vs full simulator (kernel time)",
        &["N", "plan", "forecast", "simulated", "forecast/sim", "space util"],
    );
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.kind.id().to_string(),
            fmt_seconds(r.forecast_s),
            fmt_seconds(r.simulated_s),
            format!("{:.2}", r.ratio()),
            format!("{:.0}%", r.space_utilization * 100.0),
        ]);
    }
    let mut out = t.render();
    out.push('\n');

    let mut g = TextTable::new(
        "PTPM geometry validation — forecast grid vs traced schedule (force kernel)",
        &["N", "plan", "util fc/obs", "balance fc/obs", "cell err mean/max", "occupancy", "bound"],
    );
    for r in rows {
        let c = &r.comparison;
        g.row(vec![
            r.n.to_string(),
            r.kind.id().to_string(),
            format!(
                "{:.0}%/{:.0}%",
                c.forecast_utilization * 100.0,
                c.observed_utilization * 100.0
            ),
            format!("{:.2}/{:.2}", c.forecast_balance, c.observed_balance),
            format!("{:.3}/{:.3}", c.mean_cell_error, c.max_cell_error),
            format!("{:.0}%", r.wavefront_occupancy * 100.0),
            r.bound().to_string(),
        ]);
    }
    out.push_str(&g.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn forecast_ranking_matches_simulated_ranking_per_size() {
        let mut runner = Runner::new(ExperimentConfig::quick());
        let rows = ptpm_report(&mut runner);
        for n in runner.cfg.sizes.clone() {
            let at_n: Vec<&PtpmRow> = rows.iter().filter(|r| r.n == n).collect();
            // best plan by forecast == best plan by simulation
            let best_fc = at_n
                .iter()
                .min_by(|a, b| a.forecast_s.partial_cmp(&b.forecast_s).unwrap())
                .unwrap();
            let best_sim = at_n
                .iter()
                .min_by(|a, b| a.simulated_s.partial_cmp(&b.simulated_s).unwrap())
                .unwrap();
            // allow a tie within 10% — j and jw are nearly identical at
            // small N and the ALU-only model cannot split hairs
            let sim_of_fc_winner = best_fc.simulated_s;
            assert!(
                sim_of_fc_winner <= best_sim.simulated_s * 1.10,
                "N={n}: forecast winner {} is {:.1}% behind simulated winner {}",
                best_fc.kind.id(),
                100.0 * (sim_of_fc_winner / best_sim.simulated_s - 1.0),
                best_sim.kind.id()
            );
        }
    }

    #[test]
    fn pp_forecasts_land_close() {
        // the ALU-only closed form ignores launch overhead and the reduce
        // kernel, so tiny launches (tens of µs) are underpredicted; by
        // N = 8192 the arithmetic dominates and the forecast must be tight
        let mut runner = Runner::new(ExperimentConfig::quick());
        let rows = ptpm_report(&mut runner);
        for r in rows.iter().filter(|r| !r.kind.uses_tree()) {
            let ratio = r.ratio();
            let band = if r.n >= 4096 { 0.7..1.3 } else { 0.3..1.5 };
            assert!(band.contains(&ratio), "{} at N={}: forecast/sim = {ratio}", r.kind.id(), r.n);
        }
    }

    #[test]
    fn observed_geometry_agrees_with_forecast() {
        // the forecast grid and the traced schedule must describe the same
        // *shape* of execution: utilization within 15 points for every plan
        // and size, and near-exact for the PP plans whose block population
        // is uniform
        let mut runner = Runner::new(ExperimentConfig::quick());
        let rows = ptpm_report(&mut runner);
        for r in &rows {
            let err = r.comparison.utilization_error();
            let tol = if r.kind.uses_tree() { 0.15 } else { 0.02 };
            assert!(
                err <= tol,
                "{} at N={}: forecast util {:.3} vs observed {:.3}",
                r.kind.id(),
                r.n,
                r.comparison.forecast_utilization,
                r.comparison.observed_utilization
            );
        }
    }

    #[test]
    fn observed_metrics_are_sane() {
        let mut runner = Runner::new(ExperimentConfig::quick());
        let rows = ptpm_report(&mut runner);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.wavefront_occupancy), "{r:?}");
            assert!(r.bytes_per_flop > 0.0, "{r:?}");
            // all-pairs force kernels stream tiles through LDS: strongly
            // compute-bound under any reasonable device model
            if !r.kind.uses_tree() {
                assert_eq!(r.bound(), "compute", "{r:?}");
            }
        }
    }

    #[test]
    fn render_covers_all_rows() {
        let mut runner = Runner::new(ExperimentConfig::quick());
        let rows = ptpm_report(&mut runner);
        let s = render(&rows);
        assert_eq!(rows.len(), 4 * runner.cfg.sizes.len());
        assert!(s.contains("PTPM model validation"));
        assert!(s.contains("PTPM geometry validation"));
        assert!(s.contains("jw-parallel"));
    }
}
