//! Load-imbalance experiment (extension beyond the paper's figures).
//!
//! The paper argues jw-parallel's j-slicing fixes the load imbalance of
//! whole-walk scheduling, but its evaluation uses a single near-uniform
//! workload. This experiment makes the mechanism visible: on a
//! hierarchically clustered field the interaction-list lengths become
//! strongly ragged (high coefficient of variation) and w-parallel's
//! makespan degrades, while jw-parallel is nearly workload-insensitive.

use crate::table::{fmt_seconds, TextTable};
use gpu_sim::prelude::*;
use nbody_core::gravity::GravityParams;
use plans::prelude::*;
use serde::{Deserialize, Serialize};
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};
use workloads::prelude::*;

/// One workload's imbalance profile and plan timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImbalanceRow {
    /// Workload label.
    pub workload: String,
    /// Problem size.
    pub n: usize,
    /// Coefficient of variation of interaction-list lengths.
    pub list_cv: f64,
    /// Longest list / mean list.
    pub max_over_mean: f64,
    /// w-parallel kernel seconds.
    pub w_kernel_s: f64,
    /// jw-parallel kernel seconds.
    pub jw_kernel_s: f64,
}

impl ImbalanceRow {
    /// How much jw-parallel gains over w-parallel here.
    pub fn jw_gain(&self) -> f64 {
        self.w_kernel_s / self.jw_kernel_s
    }
}

/// Runs the imbalance comparison at size `n` on the uniform-ish Plummer
/// sphere versus the clustered field.
pub fn imbalance_experiment(n: usize, seed: u64) -> Vec<ImbalanceRow> {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let cfg = PlanConfig::default();
    let sets = [
        ("plummer".to_string(), plummer(n, PlummerParams::default(), seed)),
        ("clustered".to_string(), clustered(n, ClusteredParams::default(), seed)),
    ];

    sets.into_iter()
        .map(|(label, set)| {
            let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
            let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
            let lens: Vec<f64> = walks.groups.iter().map(|g| g.list_len() as f64).collect();
            let mean = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
            let max = lens.iter().copied().fold(0.0, f64::max);

            let mut dev = Device::with_transfer_model(
                DeviceSpec::radeon_hd_5850(),
                TransferModel::pcie2_x16(),
            );
            let w = plans::evaluate(PlanKind::WParallel, &cfg, &mut dev, &set, &params);
            let jw = plans::evaluate(PlanKind::JwParallel, &cfg, &mut dev, &set, &params);
            ImbalanceRow {
                workload: label,
                n,
                list_cv: walks.list_len_cv(),
                max_over_mean: if mean > 0.0 { max / mean } else { 0.0 },
                w_kernel_s: w.kernel_s,
                jw_kernel_s: jw.kernel_s,
            }
        })
        .collect()
}

/// Renders the experiment.
pub fn render(rows: &[ImbalanceRow]) -> String {
    let mut t = TextTable::new(
        "Imbalance ablation — ragged interaction lists: w-parallel vs jw-parallel kernels",
        &["workload", "N", "list CV", "max/mean", "w-parallel", "jw-parallel", "jw gain"],
    );
    for r in rows {
        t.row(vec![
            r.workload.clone(),
            r.n.to_string(),
            format!("{:.2}", r.list_cv),
            format!("{:.1}", r.max_over_mean),
            fmt_seconds(r.w_kernel_s),
            fmt_seconds(r.jw_kernel_s),
            format!("{:.2}x", r.jw_gain()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_field_is_more_ragged() {
        let rows = imbalance_experiment(4096, 3);
        assert_eq!(rows.len(), 2);
        let plummer = &rows[0];
        let clustered = &rows[1];
        assert!(
            clustered.list_cv > plummer.list_cv,
            "clustered CV {} should exceed plummer CV {}",
            clustered.list_cv,
            plummer.list_cv
        );
    }

    #[test]
    fn jw_gain_grows_with_raggedness() {
        let rows = imbalance_experiment(4096, 4);
        let plummer = &rows[0];
        let clustered = &rows[1];
        assert!(
            clustered.jw_gain() >= plummer.jw_gain() * 0.95,
            "jw should help at least as much on the ragged field: {} vs {}",
            clustered.jw_gain(),
            plummer.jw_gain()
        );
        // and jw never loses to w
        for r in &rows {
            assert!(r.jw_gain() >= 0.95, "{}: {}", r.workload, r.jw_gain());
        }
    }

    #[test]
    fn render_shows_both_workloads() {
        let rows = imbalance_experiment(1024, 5);
        let s = render(&rows);
        assert!(s.contains("plummer"));
        assert!(s.contains("clustered"));
        assert!(s.contains("jw gain"));
    }
}
