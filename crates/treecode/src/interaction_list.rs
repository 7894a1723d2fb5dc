//! Multiple-walk interaction lists (Hamada's method, the substrate of the
//! paper's w-parallel and jw-parallel plans).
//!
//! Instead of walking the tree once per body, bodies are grouped into
//! spatially coherent **walks** (consecutive runs of the tree-order
//! permutation). One traversal per walk, using the *group* MAC, produces an
//! interaction list — accepted cells plus leaf bodies — valid for every
//! body of the walk. The GPU then evaluates `|walk| × |list|` interactions
//! with perfectly regular data access, which is exactly the shape the
//! paper's tile-based kernels consume.

use crate::mac::{accepts_group, Aabb, OpeningAngle};
use crate::traverse::WalkStats;
use crate::tree::Octree;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::{pair_acceleration, GravityParams};
use nbody_core::soa::{lanes_accumulate, lanes_accumulate_except, MAX_TILE};
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// One walk: a group of target bodies sharing an interaction list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkGroup {
    /// Target body indices (original particle ids, tree order).
    pub bodies: Vec<u32>,
    /// Bounding box of the targets.
    pub bbox: Aabb,
    /// Accepted cells: indices into the octree's node array.
    pub cell_list: Vec<u32>,
    /// Direct-interaction source bodies (original particle ids). Includes
    /// the walk's own bodies; evaluators must skip `i == j`.
    pub body_list: Vec<u32>,
}

impl WalkGroup {
    /// Length of the interaction list (cells + bodies).
    pub fn list_len(&self) -> usize {
        self.cell_list.len() + self.body_list.len()
    }

    /// Pairwise interactions this walk evaluates (self-pairs excluded).
    pub fn interactions(&self) -> u64 {
        let targets = self.bodies.len() as u64;
        let cells = self.cell_list.len() as u64;
        let bodies = self.body_list.len() as u64;
        // every target meets every listed cell and body, minus its self-pair
        let self_pairs = self.bodies.iter().filter(|b| self.body_list.contains(b)).count() as u64;
        targets * (cells + bodies) - self_pairs
    }
}

/// All walks covering a particle set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkSet {
    /// The walks, in tree order.
    pub groups: Vec<WalkGroup>,
    /// θ the lists were built with.
    pub theta: OpeningAngle,
    /// Requested targets per walk.
    pub walk_size: usize,
}

impl WalkSet {
    /// Total pairwise interactions across all walks.
    pub fn total_interactions(&self) -> u64 {
        self.groups.iter().map(WalkGroup::interactions).sum()
    }

    /// Longest interaction list (sizes GPU staging buffers).
    pub fn max_list_len(&self) -> usize {
        self.groups.iter().map(WalkGroup::list_len).max().unwrap_or(0)
    }

    /// Coefficient of variation of list lengths — the load-imbalance measure
    /// that motivates jw-parallel over w-parallel.
    pub fn list_len_cv(&self) -> f64 {
        let n = self.groups.len();
        if n == 0 {
            return 0.0;
        }
        let lens: Vec<f64> = self.groups.iter().map(|g| g.list_len() as f64).collect();
        let mean = lens.iter().sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = lens.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n as f64;
        var.sqrt() / mean
    }
}

/// Builds walks of at most `walk_size` targets each and their interaction
/// lists.
///
/// # Panics
/// Panics if `walk_size == 0`.
pub fn build_walks(
    tree: &Octree,
    set: &ParticleSet,
    theta: OpeningAngle,
    walk_size: usize,
) -> WalkSet {
    assert!(walk_size > 0, "walk_size must be positive");
    let num_walks = tree.order().len().div_ceil(walk_size);
    build_walks_range(tree, set, theta, walk_size, 0..num_walks)
}

/// Builds the walks of one contiguous sub-range of the **global** walk grid
/// (walk indices `walk_range` of the grid [`build_walks`] produces), used by
/// the Morton-sharded out-of-core path: each shard builds only its own
/// walks, yet every group is identical to the corresponding group of the
/// full build, so per-walk results are bit-exact against the unsharded
/// reference.
///
/// # Panics
/// Panics if `walk_size == 0` or the range exceeds the walk grid.
pub fn build_walks_range(
    tree: &Octree,
    set: &ParticleSet,
    theta: OpeningAngle,
    walk_size: usize,
    walk_range: std::ops::Range<usize>,
) -> WalkSet {
    assert!(walk_size > 0, "walk_size must be positive");
    let num_walks = tree.order().len().div_ceil(walk_size);
    assert!(walk_range.end <= num_walks, "walk range {walk_range:?} exceeds grid {num_walks}");
    let pos = set.pos();
    // Each walk's list depends only on the tree and its own bodies, so the
    // `par` workers claim the traversals one walk at a time; the groups
    // come back in walk order, which is tree order.
    let groups = par::map_items(walk_range.len(), |r| {
        let w = walk_range.start + r;
        let start = w * walk_size;
        let end = (start + walk_size).min(tree.order().len());
        let bodies = &tree.order()[start..end];
        let bbox = Aabb::from_points(bodies.iter().map(|&b| pos[b as usize]));
        let (cell_list, body_list) = collect_list(tree, &bbox, theta);
        WalkGroup { bodies: bodies.to_vec(), bbox, cell_list, body_list }
    });
    WalkSet { groups, theta, walk_size }
}

/// Rebuilds a walk set **in place**, reusing every group's `bodies`,
/// `cell_list`, and `body_list` capacity and pooling the traversal stack in
/// `scratch` — after a warmup build, a steady-state rebuild over a
/// same-sized set performs no heap allocation at one thread (list capacities
/// grow monotonically to their high-water mark).
///
/// The result is exactly [`build_walks`]' output: same groups, same order.
/// With more than one `par` thread this delegates to the walk-claiming
/// [`build_walks`] (zero-alloc is a serial invariant; see DESIGN.md §9).
///
/// # Panics
/// Panics if `walk_size == 0`.
pub fn build_walks_into(
    walks: &mut WalkSet,
    tree: &Octree,
    set: &ParticleSet,
    theta: OpeningAngle,
    walk_size: usize,
    scratch: &mut par::arena::Scratch,
) {
    assert!(walk_size > 0, "walk_size must be positive");
    if par::threads() != 1 {
        *walks = build_walks(tree, set, theta, walk_size);
        return;
    }
    let pos = set.pos();
    let num_walks = tree.order().len().div_ceil(walk_size);
    walks.theta = theta;
    walks.walk_size = walk_size;
    walks.groups.truncate(num_walks);
    let mut stack = scratch.take::<u32>("list-stack");
    for w in 0..num_walks {
        let start = w * walk_size;
        let end = (start + walk_size).min(tree.order().len());
        let bodies = &tree.order()[start..end];
        let bbox = Aabb::from_points(bodies.iter().map(|&b| pos[b as usize]));
        if let Some(group) = walks.groups.get_mut(w) {
            group.bodies.clear();
            group.bodies.extend_from_slice(bodies);
            group.bbox = bbox;
            collect_list_into(
                tree,
                &group.bbox,
                theta,
                &mut group.cell_list,
                &mut group.body_list,
                &mut stack,
            );
        } else {
            let mut cell_list = Vec::new();
            let mut body_list = Vec::new();
            collect_list_into(tree, &bbox, theta, &mut cell_list, &mut body_list, &mut stack);
            walks.groups.push(WalkGroup { bodies: bodies.to_vec(), bbox, cell_list, body_list });
        }
    }
    scratch.put("list-stack", stack);
}

/// Traverses the tree once for a group box, splitting accepted cells from
/// leaf bodies. Public so alternative walk generators (the GPU tree
/// pipeline's emit kernel) produce lists with the exact traversal order of
/// the host path.
pub fn collect_list(tree: &Octree, bbox: &Aabb, theta: OpeningAngle) -> (Vec<u32>, Vec<u32>) {
    let mut cells = Vec::new();
    let mut bodies = Vec::new();
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    collect_list_into(tree, bbox, theta, &mut cells, &mut bodies, &mut stack);
    (cells, bodies)
}

/// [`collect_list`] into caller-provided buffers (cleared on entry), with a
/// reusable traversal stack.
pub fn collect_list_into(
    tree: &Octree,
    bbox: &Aabb,
    theta: OpeningAngle,
    cells: &mut Vec<u32>,
    bodies: &mut Vec<u32>,
    stack: &mut Vec<u32>,
) {
    cells.clear();
    bodies.clear();
    stack.clear();
    if tree.root().body_count > 0 {
        stack.push(0);
    }
    while let Some(idx) = stack.pop() {
        let node = &tree.nodes()[idx as usize];
        if accepts_group(node, bbox, theta) {
            cells.push(idx);
        } else if node.is_leaf {
            bodies.extend_from_slice(tree.bodies_of(node));
        } else {
            stack.extend(node.child_indices());
        }
    }
}

/// Reference CPU evaluation of a walk set: the semantics every GPU walk
/// kernel must reproduce. One scalar chain per target; the host tree force
/// runs the bit-identical lane kernel [`evaluate_walk_lanes`] instead.
pub fn evaluate_walks_cpu(
    walks: &WalkSet,
    tree: &Octree,
    set: &ParticleSet,
    params: &GravityParams,
    acc: &mut [Vec3],
) -> WalkStats {
    assert_eq!(acc.len(), set.len(), "acceleration buffer length mismatch");
    let pos = set.pos();
    let mass = set.mass();
    let eps_sq = params.eps_sq();
    let mut stats = WalkStats::default();
    for group in &walks.groups {
        for &i in &group.bodies {
            let i = i as usize;
            let xi = pos[i];
            let mut a = Vec3::ZERO;
            for &c in &group.cell_list {
                let node = &tree.nodes()[c as usize];
                a += pair_acceleration(xi, node.com, node.mass, eps_sq);
                stats.cell_interactions += 1;
            }
            for &j in &group.body_list {
                let j = j as usize;
                if j != i {
                    a += pair_acceleration(xi, pos[j], mass[j], eps_sq);
                    stats.body_interactions += 1;
                }
            }
            acc[i] = a * params.g;
        }
    }
    stats
}

/// Lane-vectorized evaluation of one walk: the host form of the paper's
/// w-parallel work-group, where the walk's list is staged once and every
/// work-item accumulates one target against it.
///
/// The walk's targets become SIMD lanes, in blocks of up to
/// [`MAX_TILE`]. Each block sweeps the interaction list once, cells then
/// bodies in list order, loading every source once and applying it across
/// all lanes through the shared [`lanes_accumulate`] arithmetic of the
/// tiled PP kernel. Every target therefore keeps its own summation chain in
/// exactly [`evaluate_walks_cpu`]'s order and expression tree, so the
/// result is **bit-identical** to it. A body source that is one of the
/// block's own targets goes through [`lanes_accumulate_except`], which
/// drops that lane's self-pair by a select on the accumulator; every other
/// source takes the branch-free path.
///
/// `emit(i, a)` receives each target's acceleration (`G` applied), in
/// `group.bodies` order. Lanes, accumulators and the membership index live
/// on the stack: a call performs no heap allocation.
pub fn evaluate_walk_lanes(
    group: &WalkGroup,
    tree: &Octree,
    set: &ParticleSet,
    params: &GravityParams,
    mut emit: impl FnMut(u32, Vec3),
) {
    let pos = set.pos();
    let g = params.g;
    let mut lanes = WalkLanes {
        ix: [0.0; MAX_TILE],
        iy: [0.0; MAX_TILE],
        iz: [0.0; MAX_TILE],
        axs: [0.0; MAX_TILE],
        ays: [0.0; MAX_TILE],
        azs: [0.0; MAX_TILE],
        members: [0; MAX_TILE],
    };
    for block in group.bodies.chunks(MAX_TILE) {
        let rb = block.len();
        for (k, &i) in block.iter().enumerate() {
            let p = pos[i as usize];
            lanes.ix[k] = p.x;
            lanes.iy[k] = p.y;
            lanes.iz[k] = p.z;
            // (body id, lane) in one key: sorted, it answers "is source j
            // one of this block's targets, and which lane" by binary search
            lanes.members[k] = (u64::from(i) << 32) | k as u64;
        }
        lanes.members[..rb].sort_unstable();
        lanes.axs[..rb].fill(0.0);
        lanes.ays[..rb].fill(0.0);
        lanes.azs[..rb].fill(0.0);
        sweep_walk_block(&mut lanes, rb, group, tree, set, params.eps_sq());
        for (k, &i) in block.iter().enumerate() {
            emit(i, Vec3::new(lanes.axs[k] * g, lanes.ays[k] * g, lanes.azs[k] * g));
        }
    }
}

/// Stack storage of one lane block of [`evaluate_walk_lanes`].
struct WalkLanes {
    ix: [f64; MAX_TILE],
    iy: [f64; MAX_TILE],
    iz: [f64; MAX_TILE],
    axs: [f64; MAX_TILE],
    ays: [f64; MAX_TILE],
    azs: [f64; MAX_TILE],
    /// `(body id << 32) | lane`, sorted.
    members: [u64; MAX_TILE],
}

/// One sweep of the walk's list over the first `rb` lanes.
///
/// Non-generic and `inline(never)`: one copy serves every `emit` closure,
/// and, like the PP tile block, the lane sweeps it calls stay the packed
/// `sqrtpd`/`divpd` loops rather than being inlined into setup code.
#[inline(never)]
fn sweep_walk_block(
    lanes: &mut WalkLanes,
    rb: usize,
    group: &WalkGroup,
    tree: &Octree,
    set: &ParticleSet,
    eps_sq: f64,
) {
    let pos = set.pos();
    let mass = set.mass();
    let nodes = tree.nodes();
    let members = &lanes.members[..rb];
    let (ix, iy, iz) = (&lanes.ix[..rb], &lanes.iy[..rb], &lanes.iz[..rb]);
    let (axs, ays, azs) = (&mut lanes.axs[..rb], &mut lanes.ays[..rb], &mut lanes.azs[..rb]);
    for &c in &group.cell_list {
        let node = &nodes[c as usize];
        let src = [node.com.x, node.com.y, node.com.z, node.mass];
        lanes_accumulate(ix, iy, iz, axs, ays, azs, src, eps_sq);
    }
    for &j in &group.body_list {
        let p = pos[j as usize];
        let src = [p.x, p.y, p.z, mass[j as usize]];
        match members.binary_search_by_key(&j, |&m| (m >> 32) as u32) {
            Ok(at) => {
                let lane = (members[at] & u64::from(u32::MAX)) as usize;
                lanes_accumulate_except(ix, iy, iz, axs, ays, azs, src, eps_sq, lane);
            }
            Err(_) => lanes_accumulate(ix, iy, iz, axs, ays, azs, src, eps_sq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;

    fn setup(n: usize, seed: u64, walk_size: usize) -> (ParticleSet, Octree, WalkSet) {
        let set = random_set(n, seed);
        let tree = Octree::build(&set, TreeParams::default());
        let walks = build_walks(&tree, &set, OpeningAngle::new(0.5), walk_size);
        (set, tree, walks)
    }

    #[test]
    fn every_body_appears_in_exactly_one_walk() {
        let (set, _tree, walks) = setup(333, 1, 32);
        let mut seen = vec![false; set.len()];
        for g in &walks.groups {
            for &b in &g.bodies {
                assert!(!seen[b as usize], "body {b} in two walks");
                seen[b as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn walk_sizes_respected() {
        let (_, _, walks) = setup(100, 2, 32);
        assert_eq!(walks.groups.len(), 4); // 32+32+32+4
        for g in &walks.groups[..3] {
            assert_eq!(g.bodies.len(), 32);
        }
        assert_eq!(walks.groups[3].bodies.len(), 4);
    }

    #[test]
    fn walk_evaluation_matches_direct_sum() {
        let (set, tree, walks) = setup(600, 3, 32);
        let params = GravityParams::default();
        let mut exact = vec![Vec3::ZERO; set.len()];
        let mut approx = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        evaluate_walks_cpu(&walks, &tree, &set, &params, &mut approx);
        let err = max_relative_error(&exact, &approx);
        assert!(err < 0.02, "walk evaluation error {err}");
    }

    #[test]
    fn group_mac_at_least_as_accurate_as_point_walks() {
        // group MAC is stricter, so interactions >= per-body BH interactions
        let (set, tree, walks) = setup(800, 4, 32);
        let params = GravityParams::default();
        let mut acc = vec![Vec3::ZERO; set.len()];
        let point_stats = crate::traverse::accelerations_bh(
            &tree,
            &set,
            OpeningAngle::new(0.5),
            &params,
            &mut acc,
        );
        assert!(
            walks.total_interactions() >= point_stats.total_interactions(),
            "walks {} < point {}",
            walks.total_interactions(),
            point_stats.total_interactions()
        );
    }

    #[test]
    fn interactions_formula_matches_evaluation_stats() {
        let (set, tree, walks) = setup(200, 5, 16);
        let params = GravityParams::default();
        let mut acc = vec![Vec3::ZERO; set.len()];
        let stats = evaluate_walks_cpu(&walks, &tree, &set, &params, &mut acc);
        assert_eq!(walks.total_interactions(), stats.total_interactions());
    }

    #[test]
    fn bigger_walks_shorter_total_but_longer_each() {
        let (_, _, small) = setup(1024, 6, 8);
        let (_, _, big) = setup(1024, 6, 64);
        assert!(big.groups.len() < small.groups.len());
        // fewer traversals but each list serves more bodies; total
        // interactions grow with walk size (lists get conservative)
        assert!(big.total_interactions() >= small.total_interactions());
    }

    #[test]
    fn list_stats_helpers() {
        let (_, _, walks) = setup(500, 7, 32);
        assert!(walks.max_list_len() > 0);
        assert!(walks.list_len_cv() >= 0.0);
        let g = &walks.groups[0];
        assert_eq!(g.list_len(), g.cell_list.len() + g.body_list.len());
    }

    #[test]
    #[should_panic(expected = "walk_size must be positive")]
    fn zero_walk_size_panics() {
        let set = random_set(10, 8);
        let tree = Octree::build(&set, TreeParams::default());
        build_walks(&tree, &set, OpeningAngle::default(), 0);
    }

    #[test]
    fn build_walks_into_matches_build_walks() {
        let (set, tree, fresh) = setup(500, 10, 32);
        let mut scratch = par::arena::Scratch::new();
        // cold start from an empty set of walks
        let mut walks = WalkSet { groups: Vec::new(), theta: OpeningAngle::new(0.9), walk_size: 1 };
        build_walks_into(&mut walks, &tree, &set, OpeningAngle::new(0.5), 32, &mut scratch);
        assert_eq!(walks, fresh);
        // rebuild over stale contents (different walk size: more groups than needed)
        build_walks_into(&mut walks, &tree, &set, OpeningAngle::new(0.5), 8, &mut scratch);
        assert_eq!(walks, build_walks(&tree, &set, OpeningAngle::new(0.5), 8));
        // and shrink back, reusing capacity
        build_walks_into(&mut walks, &tree, &set, OpeningAngle::new(0.5), 32, &mut scratch);
        assert_eq!(walks, fresh);
    }

    #[test]
    fn ranged_build_matches_slices_of_the_full_build() {
        let (set, tree, full) = setup(700, 11, 32);
        let num_walks = full.groups.len();
        for (a, b) in [(0, num_walks), (0, 3), (3, 9), (num_walks - 1, num_walks)] {
            let part = build_walks_range(&tree, &set, OpeningAngle::new(0.5), 32, a..b);
            assert_eq!(part.groups.as_slice(), &full.groups[a..b], "range {a}..{b}");
        }
        // empty range is fine
        let empty = build_walks_range(&tree, &set, OpeningAngle::new(0.5), 32, 5..5);
        assert!(empty.groups.is_empty());
    }

    #[test]
    fn self_interactions_excluded_from_count() {
        // a single walk covering everything: bodies interact with all listed
        // bodies except themselves
        let set = random_set(20, 9);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 4 });
        let walks = build_walks(&tree, &set, OpeningAngle::new(1e-6), 20);
        // θ→0 forces all-direct: one walk, body list = all 20 bodies
        assert_eq!(walks.groups.len(), 1);
        let g = &walks.groups[0];
        assert!(g.cell_list.is_empty());
        assert_eq!(g.body_list.len(), 20);
        assert_eq!(g.interactions(), 20 * 19);
    }
}
