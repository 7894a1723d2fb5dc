//! Per-body tree walks: the classic CPU Barnes-Hut force evaluation, timed
//! as Table 1's CPU column and used by the θ accuracy sweeps.
//!
//! For each target body the walk descends from the root; accepted cells
//! contribute a softened monopole interaction with their center of mass
//! (the paper's Eq. 3), rejected internal cells are opened, and leaf bodies
//! interact directly (skipping the target itself). Statistics of the walk —
//! how many cell and body interactions occurred — feed the flop accounting
//! used by figures 4–5.

use crate::mac::{accepts_point, OpeningAngle};
use crate::tree::Octree;
use nbody_core::gravity::{pair_acceleration, GravityParams};
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Counters for one or more walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkStats {
    /// Accepted cell (monopole) interactions.
    pub cell_interactions: u64,
    /// Direct body-body interactions.
    pub body_interactions: u64,
    /// Nodes popped from the traversal stack.
    pub nodes_visited: u64,
}

impl WalkStats {
    /// Total pairwise interactions (cells + bodies), the quantity flop
    /// conventions are applied to.
    pub fn total_interactions(&self) -> u64 {
        self.cell_interactions + self.body_interactions
    }
}

impl std::ops::AddAssign for WalkStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cell_interactions += rhs.cell_interactions;
        self.body_interactions += rhs.body_interactions;
        self.nodes_visited += rhs.nodes_visited;
    }
}

/// Acceleration on body `target` (an index into `set`) from the whole
/// tree, walking with a caller-provided traversal stack so the walks of one
/// evaluation reuse one buffer. The stack is cleared on entry.
fn acceleration_on(
    tree: &Octree,
    set: &nbody_core::body::ParticleSet,
    target: usize,
    theta: OpeningAngle,
    params: &GravityParams,
    stats: &mut WalkStats,
    stack: &mut Vec<u32>,
) -> Vec3 {
    let pos = set.pos();
    let mass = set.mass();
    let xi = pos[target];
    let eps_sq = params.eps_sq();
    let mut acc = Vec3::ZERO;
    stack.clear();
    if tree.root().body_count > 0 {
        stack.push(0);
    }
    while let Some(idx) = stack.pop() {
        let node = &tree.nodes()[idx as usize];
        stats.nodes_visited += 1;
        if accepts_point(node, xi, theta) {
            acc += pair_acceleration(xi, node.com, node.mass, eps_sq);
            stats.cell_interactions += 1;
        } else if node.is_leaf {
            for &b in tree.bodies_of(node) {
                let b = b as usize;
                if b != target {
                    acc += pair_acceleration(xi, pos[b], mass[b], eps_sq);
                    stats.body_interactions += 1;
                }
            }
        } else {
            stack.extend(node.child_indices());
        }
    }
    acc * params.g
}

/// Accelerations on every body via per-body walks. Returns aggregate walk
/// statistics.
///
/// Walks are independent per body, so they run chunked over `par` worker
/// threads; each body's acceleration depends only on the tree, and the
/// stats counters are summed in chunk order, so results are bit-identical
/// for every thread count.
pub fn accelerations_bh(
    tree: &Octree,
    set: &nbody_core::body::ParticleSet,
    theta: OpeningAngle,
    params: &GravityParams,
    acc: &mut [Vec3],
) -> WalkStats {
    assert_eq!(acc.len(), set.len(), "acceleration buffer length mismatch");
    if par::threads() == 1 {
        // serial fast path: write in place with one shared traversal stack
        let mut stats = WalkStats::default();
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        for (i, ai) in acc.iter_mut().enumerate() {
            *ai = acceleration_on(tree, set, i, theta, params, &mut stats, &mut stack);
        }
        return stats;
    }
    let chunks = par::map_chunks(set.len(), |range| {
        let mut stats = WalkStats::default();
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        let accs: Vec<Vec3> = range
            .clone()
            .map(|i| acceleration_on(tree, set, i, theta, params, &mut stats, &mut stack))
            .collect();
        (range, accs, stats)
    });
    let mut stats = WalkStats::default();
    for (range, accs, chunk_stats) in chunks {
        acc[range].copy_from_slice(&accs);
        stats += chunk_stats;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;

    fn bh_error(n: usize, theta: f64, seed: u64) -> f64 {
        let set = random_set(n, seed);
        let params = GravityParams::default();
        let tree = Octree::build(&set, TreeParams::default());
        let mut exact = vec![Vec3::ZERO; n];
        let mut approx = vec![Vec3::ZERO; n];
        accelerations_pp(&set, &params, &mut exact);
        accelerations_bh(&tree, &set, OpeningAngle::new(theta), &params, &mut approx);
        max_relative_error(&exact, &approx)
    }

    #[test]
    fn tiny_theta_matches_direct_sum() {
        // θ→0 opens everything: BH degenerates to exact PP
        let err = bh_error(200, 1e-9, 1);
        assert!(err < 1e-12, "error {err}");
    }

    #[test]
    fn theta_half_is_accurate() {
        let err = bh_error(500, 0.5, 2);
        assert!(err < 0.02, "θ=0.5 error {err}");
    }

    #[test]
    fn error_grows_with_theta() {
        let e_small = bh_error(400, 0.3, 3);
        let e_large = bh_error(400, 1.0, 3);
        assert!(e_small <= e_large, "error should not decrease with θ: {e_small} vs {e_large}");
    }

    #[test]
    fn stats_count_fewer_interactions_than_pp() {
        let n = 2000;
        let set = random_set(n, 4);
        let params = GravityParams::default();
        let tree = Octree::build(&set, TreeParams::default());
        let mut acc = vec![Vec3::ZERO; n];
        let stats = accelerations_bh(&tree, &set, OpeningAngle::new(0.5), &params, &mut acc);
        let pp = (n * (n - 1)) as u64;
        assert!(stats.total_interactions() < pp / 2, "{stats:?}");
        assert!(stats.cell_interactions > 0);
        assert!(stats.body_interactions > 0);
    }

    #[test]
    fn interactions_scale_subquadratically() {
        let count = |n: usize| {
            let set = random_set(n, 5);
            let params = GravityParams::default();
            let tree = Octree::build(&set, TreeParams::default());
            let mut acc = vec![Vec3::ZERO; n];
            accelerations_bh(&tree, &set, OpeningAngle::default(), &params, &mut acc)
                .total_interactions()
        };
        let c1 = count(500);
        let c2 = count(2000); // 4x bodies
                              // O(N log N): expect much less than 16x
        assert!(c2 < 8 * c1, "c1 {c1}, c2 {c2}");
    }

    #[test]
    fn empty_tree_yields_zero_acceleration() {
        use nbody_core::body::{Body, ParticleSet};
        let set = ParticleSet::from_bodies(&[Body::at_rest(Vec3::ZERO, 1.0)]);
        let tree = Octree::build(&set, TreeParams::default());
        let params = GravityParams::default();
        let mut stats = WalkStats::default();
        // single body: no interaction partners
        let mut stack = Vec::new();
        let a = acceleration_on(
            &tree,
            &set,
            0,
            OpeningAngle::default(),
            &params,
            &mut stats,
            &mut stack,
        );
        assert_eq!(a, Vec3::ZERO);
        assert_eq!(stats.cell_interactions, 0);
        assert_eq!(stats.body_interactions, 0);
    }

    #[test]
    fn stats_add_assign() {
        let mut a = WalkStats { cell_interactions: 1, body_interactions: 2, nodes_visited: 3 };
        a += WalkStats { cell_interactions: 10, body_interactions: 20, nodes_visited: 30 };
        assert_eq!(a.cell_interactions, 11);
        assert_eq!(a.total_interactions(), 33);
    }

    #[test]
    fn momentum_approximately_conserved() {
        // BH forces are not exactly antisymmetric, but net force stays small
        let set = random_set(300, 6);
        let params = GravityParams::default();
        let tree = Octree::build(&set, TreeParams::default());
        let mut acc = vec![Vec3::ZERO; set.len()];
        accelerations_bh(&tree, &set, OpeningAngle::new(0.5), &params, &mut acc);
        let net: Vec3 = acc.iter().zip(set.mass()).map(|(&a, &m)| a * m).sum();
        let scale: f64 = acc.iter().zip(set.mass()).map(|(a, m)| a.norm() * m).sum();
        assert!(net.norm() < 0.02 * scale, "net {net:?} scale {scale}");
    }
}
