//! Softened Newtonian gravity and the direct particle–particle (PP) method.
//!
//! Implements the paper's Eq. (1)–(2): the force on body *i* is
//!
//! ```text
//! F_i = G Σ_{j≠i} m_i m_j (x_j − x_i) / (|x_j − x_i|² + ε²)^{3/2}
//! ```
//!
//! with Plummer softening `ε` to regularize close encounters, exactly as the
//! GPU kernels in Nyland et al. (GPU Gems 3) and in the paper do.
//!
//! [`accelerations_pp`] is the scalar `O(N²)` reference every other method
//! is validated against (fixed `j`-ascending summation order,
//! deterministic); [`accelerations_pp_rows`] is its row loop over a row
//! range, which Table 1's sampled CPU column times. The production host PP
//! kernel is the tiled SoA sweep in [`crate::soa`], bit-identical to this
//! reference.

use crate::body::ParticleSet;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Physical and numerical constants of a gravity model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GravityParams {
    /// Gravitational constant. Simulation units default to `G = 1`.
    pub g: f64,
    /// Plummer softening length `ε`.
    pub softening: f64,
}

impl Default for GravityParams {
    fn default() -> Self {
        Self { g: 1.0, softening: 1e-2 }
    }
}

impl GravityParams {
    /// Creates parameters with `G = 1` and the given softening.
    pub fn with_softening(softening: f64) -> Self {
        Self { g: 1.0, softening }
    }

    /// Squared softening length.
    #[inline]
    pub fn eps_sq(&self) -> f64 {
        self.softening * self.softening
    }
}

/// Acceleration contribution on a body at `xi` from a point mass `mj` at
/// `xj` (Eq. 1 divided by `m_i`, times `G` applied by the caller if desired).
///
/// Returns `G = 1` units; multiply by `params.g` for physical units. The
/// softened kernel never divides by zero, so `xi == xj` contributes a finite
/// (zero-direction) value.
#[inline]
pub fn pair_acceleration(xi: Vec3, xj: Vec3, mj: f64, eps_sq: f64) -> Vec3 {
    let d = xj - xi;
    let r2 = d.norm_sq() + eps_sq;
    let inv_r = 1.0 / r2.sqrt();
    let inv_r3 = inv_r * inv_r * inv_r;
    d * (mj * inv_r3)
}

/// Softened pair potential energy `−G m_i m_j / sqrt(r² + ε²)` in `G = 1`
/// units.
#[inline]
pub fn pair_potential(xi: Vec3, xj: Vec3, mi: f64, mj: f64, eps_sq: f64) -> f64 {
    let r2 = xi.distance_sq(xj) + eps_sq;
    -mi * mj / r2.sqrt()
}

/// Scalar reference PP: fills `acc[i] = G Σ_j a(i, j)` with a fixed `j`
/// ascending summation order. This is the ground truth all GPU plans are
/// validated against.
///
/// # Panics
/// Panics if `acc.len() != set.len()`.
pub fn accelerations_pp(set: &ParticleSet, params: &GravityParams, acc: &mut [Vec3]) {
    accelerations_pp_rows(set, params, 0..set.len(), acc);
}

/// The reference row loop of [`accelerations_pp`] over `rows` only:
/// `out[k]` is the acceleration of body `rows.start + k`, bit-identical to
/// the full evaluation's entry.
///
/// # Panics
/// Panics if `out.len() != rows.len()` or `rows` exceeds the set.
pub fn accelerations_pp_rows(
    set: &ParticleSet,
    params: &GravityParams,
    rows: Range<usize>,
    out: &mut [Vec3],
) {
    assert_eq!(out.len(), rows.len(), "output buffer length mismatch");
    let pos = set.pos();
    let mass = set.mass();
    let eps_sq = params.eps_sq();
    for (i, ai) in rows.zip(out.iter_mut()) {
        let xi = pos[i];
        let mut a = Vec3::ZERO;
        for j in 0..pos.len() {
            if j != i {
                a += pair_acceleration(xi, pos[j], mass[j], eps_sq);
            }
        }
        *ai = a * params.g;
    }
}

/// Total potential energy, `O(N²)` over unordered pairs.
pub fn potential_energy(set: &ParticleSet, params: &GravityParams) -> f64 {
    let pos = set.pos();
    let mass = set.mass();
    let eps_sq = params.eps_sq();
    let mut u = 0.0;
    for i in 0..pos.len() {
        for j in (i + 1)..pos.len() {
            u += pair_potential(pos[i], pos[j], mass[i], mass[j], eps_sq);
        }
    }
    u * params.g
}

/// Maximum relative error between two acceleration fields, using the scale
/// of the reference field (plus a small floor) as the denominator.
pub fn max_relative_error(reference: &[Vec3], candidate: &[Vec3]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "field length mismatch");
    let scale = reference.iter().map(|a| a.norm()).fold(0.0_f64, f64::max).max(1e-30);
    reference.iter().zip(candidate).map(|(r, c)| (*r - *c).norm() / scale).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;

    fn two_body_set() -> ParticleSet {
        ParticleSet::from_bodies(&[
            Body::at_rest(Vec3::new(-0.5, 0.0, 0.0), 1.0),
            Body::at_rest(Vec3::new(0.5, 0.0, 0.0), 1.0),
        ])
    }

    #[test]
    fn pair_acceleration_inverse_square() {
        // unit mass at distance 2, no softening: |a| = 1/4, toward the source
        let a = pair_acceleration(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 1.0, 0.0);
        assert!((a - Vec3::new(0.25, 0.0, 0.0)).norm() < 1e-15);
    }

    #[test]
    fn softening_regularizes_coincident_points() {
        let a = pair_acceleration(Vec3::ZERO, Vec3::ZERO, 1.0, 1e-4);
        assert!(a.is_finite());
        assert_eq!(a, Vec3::ZERO); // zero direction
                                   // nearly coincident: finite and bounded by 1/eps²-ish
        let b = pair_acceleration(Vec3::ZERO, Vec3::new(1e-12, 0.0, 0.0), 1.0, 1e-4);
        assert!(b.is_finite());
    }

    #[test]
    fn two_bodies_attract_equally() {
        let set = two_body_set();
        let params = GravityParams { g: 1.0, softening: 0.0 };
        let mut acc = vec![Vec3::ZERO; 2];
        accelerations_pp(&set, &params, &mut acc);
        // separation 1, masses 1: |a| = 1 each, pointing at each other
        assert!((acc[0] - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-14);
        assert!((acc[1] - Vec3::new(-1.0, 0.0, 0.0)).norm() < 1e-14);
    }

    #[test]
    fn g_scales_linearly() {
        let set = two_body_set();
        let mut a1 = vec![Vec3::ZERO; 2];
        let mut a2 = vec![Vec3::ZERO; 2];
        accelerations_pp(&set, &GravityParams { g: 1.0, softening: 0.0 }, &mut a1);
        accelerations_pp(&set, &GravityParams { g: 6.5, softening: 0.0 }, &mut a2);
        for i in 0..2 {
            assert!((a2[i] - a1[i] * 6.5).norm() < 1e-12);
        }
    }

    #[test]
    fn pp_rows_matches_reference() {
        let set = crate::testutil::random_set(100, 1);
        let params = GravityParams::default();
        let mut full = vec![Vec3::ZERO; 100];
        accelerations_pp(&set, &params, &mut full);
        let mut rows = vec![Vec3::ZERO; 30];
        accelerations_pp_rows(&set, &params, 20..50, &mut rows);
        assert_eq!(rows[..], full[20..50]);
    }

    #[test]
    fn momentum_conservation_in_forces() {
        // Σ m_i a_i = 0 for internal forces
        let set = crate::testutil::random_set(50, 3);
        let params = GravityParams::default();
        let mut acc = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut acc);
        let net: Vec3 = acc.iter().zip(set.mass()).map(|(&a, &m)| a * m).sum();
        let scale: f64 = acc.iter().zip(set.mass()).map(|(a, m)| a.norm() * m).sum();
        assert!(net.norm() < 1e-11 * scale.max(1.0), "net force {net:?}");
    }

    #[test]
    fn potential_energy_two_bodies() {
        let set = two_body_set();
        let params = GravityParams { g: 2.0, softening: 0.0 };
        // U = -G m1 m2 / r = -2
        assert!((potential_energy(&set, &params) + 2.0).abs() < 1e-14);
    }

    #[test]
    fn potential_is_negative_for_clustered_masses() {
        let set = crate::testutil::random_set(30, 11);
        assert!(potential_energy(&set, &GravityParams::default()) < 0.0);
    }

    #[test]
    fn max_relative_error_basics() {
        let a = vec![Vec3::X, Vec3::Y];
        let b = vec![Vec3::X, Vec3::Y];
        assert_eq!(max_relative_error(&a, &b), 0.0);
        let c = vec![Vec3::X * 1.1, Vec3::Y];
        let e = max_relative_error(&a, &c);
        assert!((e - 0.1).abs() < 1e-12, "{e}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_acc_buffer_panics() {
        let set = two_body_set();
        let mut acc = vec![Vec3::ZERO; 1];
        accelerations_pp(&set, &GravityParams::default(), &mut acc);
    }
}
