//! What-if device study: rerun the plan comparison on hypothetical
//! hardware — the HD 5850's bigger sibling (HD 5870) and CU-scaled
//! variants — to ask the PTPM question the paper leaves open: *how do the
//! plans' advantages move as the space dimension grows?*
//!
//! Expected mechanics: plans that already fill the device (j/jw) speed up
//! linearly with CUs; plans that don't (i/w at small N) barely move —
//! occupancy starvation gets *worse* on bigger devices, so jw's small-N
//! advantage widens with every hardware generation.

use crate::table::{fmt_seconds, TextTable};
use gpu_sim::prelude::*;
use nbody_core::gravity::GravityParams;
use plans::prelude::*;
use serde::{Deserialize, Serialize};
use workloads::prelude::{plummer, PlummerParams};

/// One device's plan timings at one size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfRow {
    /// Device label.
    pub device: String,
    /// Compute units.
    pub cus: u32,
    /// Problem size.
    pub n: usize,
    /// Kernel seconds per plan, in [`PlanKind::all`] order.
    pub kernel_s: [f64; 4],
}

impl WhatIfRow {
    /// jw-parallel advantage over i-parallel on this device.
    pub fn jw_over_i(&self) -> f64 {
        self.kernel_s[0] / self.kernel_s[3]
    }
}

/// Devices compared by the study.
pub fn device_roster() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::radeon_hd_5850().with_compute_units(9),
        DeviceSpec::radeon_hd_5850(),
        DeviceSpec::radeon_hd_5870(),
        DeviceSpec::radeon_hd_5850().with_compute_units(36),
    ]
}

/// Runs the study at one problem size.
pub fn whatif(n: usize, seed: u64) -> Vec<WhatIfRow> {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(n, PlummerParams::default(), seed);
    device_roster()
        .into_iter()
        .map(|spec| {
            let mut kernel_s = [0.0_f64; 4];
            for (k, kind) in PlanKind::all().into_iter().enumerate() {
                let mut dev = Device::with_transfer_model(spec.clone(), TransferModel::pcie2_x16());
                let config = PlanConfig::default();
                kernel_s[k] = plans::evaluate(kind, &config, &mut dev, &set, &params).kernel_s;
            }
            WhatIfRow { device: spec.name.clone(), cus: spec.compute_units, n, kernel_s }
        })
        .collect()
}

/// Renders the study.
pub fn render(rows: &[WhatIfRow]) -> String {
    let n = rows.first().map(|r| r.n).unwrap_or(0);
    let mut t = TextTable::new(
        format!("What-if devices — kernel time per plan at N = {n}"),
        &["device", "CUs", "i-parallel", "j-parallel", "w-parallel", "jw-parallel", "jw/i"],
    );
    for r in rows {
        t.row(vec![
            r.device.clone(),
            r.cus.to_string(),
            fmt_seconds(r.kernel_s[0]),
            fmt_seconds(r.kernel_s[1]),
            fmt_seconds(r.kernel_s[2]),
            fmt_seconds(r.kernel_s[3]),
            format!("{:.1}x", r.jw_over_i()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jw_advantage_grows_with_device_size_at_fixed_n() {
        // at a size that fills a 9-CU device but starves a 36-CU one, the
        // jw/i gap should widen monotonically-ish with CUs
        let rows = whatif(2048, 1);
        assert_eq!(rows.len(), 4);
        let small_dev = rows.first().unwrap();
        let big_dev = rows.last().unwrap();
        assert!(
            big_dev.jw_over_i() > small_dev.jw_over_i(),
            "jw/i should widen: {} (9 CU) -> {} (36 CU)",
            small_dev.jw_over_i(),
            big_dev.jw_over_i()
        );
    }

    #[test]
    fn jw_scales_down_with_cus() {
        let rows = whatif(8192, 2);
        let jw9 = rows[0].kernel_s[3];
        let jw36 = rows[3].kernel_s[3];
        let speedup = jw9 / jw36;
        assert!(speedup > 2.0, "36 vs 9 CUs should speed jw up: {speedup}");
    }

    #[test]
    fn render_lists_all_devices() {
        let rows = whatif(1024, 3);
        let s = render(&rows);
        assert!(s.contains("5850"));
        assert!(s.contains("5870"));
        assert!(s.contains("36"));
    }
}
