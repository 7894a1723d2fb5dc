//! Measured CPU baselines (the paper's Pentium E2140 column).
//!
//! The PP baseline is the scalar `f64` reference from `nbody-core`; the BH
//! baseline is the per-body treecode walk from `treecode`. For large N the
//! PP measurement samples a row range and extrapolates — the cost per row is
//! uniform, so the extrapolation is exact up to cache effects, and it keeps
//! the harness runtime sane (a full 65536² f64 sweep is ~20 s per step on a
//! modern core and the paper runs 100 steps).

use nbody_core::body::ParticleSet;
use nbody_core::gravity::{accelerations_pp_rows, GravityParams};
use nbody_core::vec3::Vec3;
use std::time::Instant;
use treecode::mac::OpeningAngle;
use treecode::traverse::accelerations_bh;
use treecode::tree::{Octree, TreeParams};

/// Rows above which the PP measurement extrapolates from a sample.
const PP_SAMPLE_ROWS: usize = 4096;

/// Per-step CPU costs of the two reference algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTiming {
    /// Seconds per force evaluation, direct PP.
    pub pp_seconds: f64,
    /// Seconds per force evaluation, Barnes-Hut (includes tree build).
    pub bh_seconds: f64,
    /// True if the PP number was extrapolated from a row sample.
    pub pp_extrapolated: bool,
}

/// Measures per-evaluation CPU cost for both reference algorithms on `set`.
pub fn measure_cpu(set: &ParticleSet, params: &GravityParams, theta: f64) -> CpuTiming {
    let n = set.len();

    // --- PP ---
    let rows = n.min(PP_SAMPLE_ROWS);
    let mut acc = vec![Vec3::ZERO; rows];
    let t0 = Instant::now();
    accelerations_pp_rows(set, params, 0..rows, &mut acc);
    let sample = t0.elapsed().as_secs_f64();
    // keep the result alive so the measurement cannot be optimized out
    assert!(acc.iter().all(|a| a.is_finite()));
    let pp_extrapolated = rows < n;
    let pp_seconds = if pp_extrapolated { sample * n as f64 / rows as f64 } else { sample };

    // --- BH ---
    let mut acc = vec![Vec3::ZERO; n];
    let t1 = Instant::now();
    let tree = Octree::build(set, TreeParams::default());
    accelerations_bh(&tree, set, OpeningAngle::new(theta), params, &mut acc);
    let bh_seconds = t1.elapsed().as_secs_f64();
    assert!(acc.iter().all(|a| a.is_finite()));

    CpuTiming { pp_seconds, bh_seconds, pp_extrapolated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::random_set;

    #[test]
    fn small_n_measured_exactly() {
        let set = random_set(200, 2);
        let t = measure_cpu(&set, &GravityParams::default(), 0.5);
        assert!(!t.pp_extrapolated);
        assert!(t.pp_seconds > 0.0);
        assert!(t.bh_seconds > 0.0);
    }

    #[test]
    fn large_n_extrapolates() {
        let set = random_set(5000, 3);
        let t = measure_cpu(&set, &GravityParams::default(), 0.5);
        assert!(t.pp_extrapolated);
    }

    #[test]
    fn pp_scales_quadratically_bh_slower_growth() {
        let params = GravityParams::default();
        let t1 = measure_cpu(&random_set(1000, 4), &params, 0.5);
        let t2 = measure_cpu(&random_set(4000, 4), &params, 0.5);
        // 4x bodies: PP should grow markedly faster than BH
        let pp_ratio = t2.pp_seconds / t1.pp_seconds;
        let bh_ratio = t2.bh_seconds / t1.bh_seconds;
        assert!(pp_ratio > bh_ratio, "pp ratio {pp_ratio} should exceed bh ratio {bh_ratio}");
    }
}
