//! Property matrix for the lane-vectorized walk kernel
//! (`treecode::interaction_list::evaluate_walk_lanes`, the host tree force):
//! across seeds, populations, walk sizes (including one above the lane
//! block `MAX_TILE`) and opening angles it must reproduce the scalar
//! reference `evaluate_walks_cpu` **bit for bit** — compared with
//! `f64::to_bits`, so `-0.0` vs `0.0` and NaN payloads count.
//!
//! The kernel earns this by construction: every target keeps one
//! sequential summation chain over its walk's list, cells then bodies, in
//! list order, with the reference's expression tree; lanes only change
//! which targets share a source load. Auto-vectorization happens only in
//! optimized builds, so CI runs this file in release as well.

use nbody_core::prelude::*;
use nbody_core::soa::MAX_TILE;
use treecode::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 42];
const WALK_SIZES: [usize; 5] = [1, 7, 64, 256, MAX_TILE + 88];
const THETAS: [f64; 2] = [0.4, 0.9];

/// Evaluates every walk of `walks` with the lane kernel into a fresh buffer.
fn lane_forces(
    walks: &WalkSet,
    tree: &Octree,
    set: &ParticleSet,
    params: &GravityParams,
) -> Vec<Vec3> {
    let mut acc = vec![Vec3::splat(f64::NAN); set.len()];
    for group in &walks.groups {
        evaluate_walk_lanes(group, tree, set, params, |i, a| acc[i as usize] = a);
    }
    acc
}

fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter().map(|a| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]).collect()
}

/// Asserts the lane kernel matches the scalar reference bitwise for one
/// configuration and returns the reference forces.
fn assert_exact(
    set: &ParticleSet,
    params: &GravityParams,
    walk_size: usize,
    theta: f64,
) -> Vec<Vec3> {
    let tree = Octree::build(set, TreeParams::default());
    let walks = build_walks(&tree, set, OpeningAngle::new(theta), walk_size);
    let mut reference = vec![Vec3::ZERO; set.len()];
    evaluate_walks_cpu(&walks, &tree, set, params, &mut reference);
    let lanes = lane_forces(&walks, &tree, set, params);
    assert_eq!(
        bits(&lanes),
        bits(&reference),
        "lane kernel diverged: n={}, walk_size={walk_size}, theta={theta}, params={params:?}",
        set.len()
    );
    reference
}

#[test]
fn walk_lane_kernel_is_bitwise_identical_to_evaluate_walks_cpu() {
    // N = 1, one less than a full lane block, and a non-multiple of every
    // walk size in the grid
    let populations = [1, MAX_TILE - 1, 1000];
    let params = GravityParams { g: 1.0, softening: 0.05 };
    for seed in SEEDS {
        for n in populations {
            let set = nbody_core::testutil::random_set(n, seed);
            for walk_size in WALK_SIZES {
                for theta in THETAS {
                    assert_exact(&set, &params, walk_size, theta);
                }
            }
        }
    }
}

#[test]
fn zero_softening_discards_the_nan_self_lane() {
    // at eps = 0 every self-pair computes 0 * inf = NaN; the lane select
    // must drop it, so the forces stay finite
    let params = GravityParams { g: 1.0, softening: 0.0 };
    let set = nbody_core::testutil::random_set(700, 3);
    for walk_size in WALK_SIZES {
        let forces = assert_exact(&set, &params, walk_size, 0.5);
        assert!(forces.iter().all(|a| a.is_finite()), "walk_size {walk_size}");
    }
}

#[test]
fn coincident_bodies_at_zero_softening_match_bitwise() {
    // two bodies at one point: their mutual pair is a genuine NaN in the
    // reference, which the lane kernel must reproduce to the bit, while
    // each one's self lane is still discarded
    let mut set = nbody_core::testutil::random_set(300, 5);
    let shared = set.pos()[4];
    set.pos_mut()[17] = shared;
    let params = GravityParams { g: 1.0, softening: 0.0 };
    for walk_size in WALK_SIZES {
        let forces = assert_exact(&set, &params, walk_size, 0.5);
        assert!(forces[4].x.is_nan() && forces[17].x.is_nan());
        assert_eq!(forces.iter().filter(|a| !a.is_finite()).count(), 2);
    }
}

#[test]
fn negative_zero_sums_keep_their_sign() {
    // body 0 sits at x = +0.0 and every other body at x = -0.0, so all its
    // x contributions are -0.0 and its x sum is exactly zero; a negative G
    // makes the final component -0.0, which only a bitwise comparison tells
    // apart from +0.0
    let mut set = nbody_core::testutil::random_set(200, 9);
    for (i, p) in set.pos_mut().iter_mut().enumerate() {
        p.x = if i == 0 { 0.0 } else { -0.0 };
    }
    let params = GravityParams { g: -1.0, softening: 0.05 };
    for walk_size in WALK_SIZES {
        let forces = assert_exact(&set, &params, walk_size, 0.5);
        assert_eq!(forces[0].x.to_bits(), (-0.0_f64).to_bits(), "walk_size {walk_size}");
    }
}
