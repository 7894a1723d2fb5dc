//! Octree construction and center-of-mass multipoles.
//!
//! The Barnes-Hut tree (paper §2.2): space is recursively cut into octants
//! until each cell holds at most `leaf_capacity` bodies; every cell stores
//! its total mass and center of mass, which stand in for the bodies it
//! contains whenever the multipole acceptance criterion passes.
//!
//! The tree is stored as a flat node vector (children always appear after
//! their parent, so a single reverse sweep computes multipoles bottom-up),
//! and particle indices are reordered so each node owns a *contiguous* range
//! of the [`Octree::order`] permutation — that contiguity is what the
//! multiple-walk grouping exploits later.

use nbody_core::body::ParticleSet;
use nbody_core::vec3::Vec3;

/// Sentinel for "no child".
pub const NO_CHILD: u32 = u32::MAX;

/// Hard depth cap: guards against coincident points producing unbounded
/// recursion. 2^-64 of the root cube is far below f64 resolution anyway.
const MAX_DEPTH: u32 = 64;

/// One octree cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Geometric center of the cell.
    pub center: Vec3,
    /// Half the side length of the (cubic) cell.
    pub half: f64,
    /// Center of mass of the bodies in the cell.
    pub com: Vec3,
    /// Total mass of the bodies in the cell.
    pub mass: f64,
    /// Start of this cell's range in [`Octree::order`].
    pub body_start: u32,
    /// Number of bodies in the cell.
    pub body_count: u32,
    /// Child node indices per octant, [`NO_CHILD`] where empty.
    pub children: [u32; 8],
    /// True if the node stores bodies directly.
    pub is_leaf: bool,
    /// Depth in the tree (root = 0).
    pub depth: u32,
}

impl Node {
    /// Side length of the cell (the `l` of the paper's Eq. 3).
    #[inline]
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }

    /// Iterator over present children.
    pub fn child_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.children.iter().copied().filter(|&c| c != NO_CHILD)
    }
}

/// Build parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum bodies per leaf. The paper's GPU walks favour bigger leaves
    /// than a classic CPU treecode; 8–32 are typical.
    pub leaf_capacity: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { leaf_capacity: 16 }
    }
}

/// A built Barnes-Hut octree over one snapshot of a particle set.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<Node>,
    order: Vec<u32>,
    params: TreeParams,
}

impl Octree {
    /// Builds the tree for the current positions of `set`.
    ///
    /// An empty set produces a tree with a single empty root.
    pub fn build(set: &ParticleSet, params: TreeParams) -> Self {
        assert!(params.leaf_capacity >= 1, "leaf capacity must be >= 1");
        let n = set.len();
        let mut tree =
            Self { nodes: Vec::with_capacity(2 * n.max(1)), order: Vec::with_capacity(n), params };
        let mut scratch = par::arena::Scratch::new();
        tree.rebuild(set, &mut scratch);
        tree
    }

    /// Assembles a tree from an externally produced node array and body
    /// permutation — the handoff point for alternative builders (the GPU
    /// tree pipeline constructs nodes level by level over Morton-sorted keys
    /// and materializes its host mirror through here). Callers own the
    /// invariants: `nodes` must be in DFS preorder with index 0 the root,
    /// and `order` a permutation of `0..n` consistent with the node body
    /// ranges. [`Octree::check_invariants`] verifies both in tests.
    pub fn from_parts(nodes: Vec<Node>, order: Vec<u32>, params: TreeParams) -> Self {
        assert!(!nodes.is_empty(), "a tree needs at least a root node");
        Self { nodes, order, params }
    }

    /// Rebuilds the tree **in place** for the current positions of `set`,
    /// reusing the node pool, the permutation buffer, and the bucketing
    /// scratch from `scratch` — after a warmup build, a steady-state rebuild
    /// of a same-sized set performs no heap allocation at one thread.
    ///
    /// The result is identical to a fresh [`Octree::build`] with the same
    /// parameters (same algorithm, same DFS preorder node numbering); only
    /// the allocation behavior differs. With more than one `par` thread the
    /// parallel octant fan-out is used, whose task-local buffers still
    /// allocate (the zero-allocation invariant is scoped to serial steps;
    /// see DESIGN.md §9).
    pub fn rebuild(&mut self, set: &ParticleSet, scratch: &mut par::arena::Scratch) {
        let n = set.len();
        self.order.clear();
        self.order.extend(0..n as u32);
        self.nodes.clear();

        let (center, half) = root_cube(set);
        self.nodes.push(Node {
            center,
            half,
            com: Vec3::ZERO,
            mass: 0.0,
            body_start: 0,
            body_count: n as u32,
            children: [NO_CHILD; 8],
            is_leaf: true,
            depth: 0,
        });

        if n > self.params.leaf_capacity {
            if par::threads() == 1 {
                let mut bucket = scratch.take::<u32>("octree-bucket");
                subdivide(0, &mut self.nodes, &mut self.order, 0, set, &self.params, &mut bucket);
                scratch.put("octree-bucket", bucket);
            } else {
                subdivide_root_parallel(&mut self.nodes, &mut self.order, set, &self.params);
            }
        }

        self.compute_multipoles(set);
    }

    /// All nodes; index 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Particle indices in tree order: every node's bodies are the
    /// contiguous slice `order[body_start .. body_start + body_count]`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Build parameters used.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// Bodies of `node` as original particle indices.
    pub fn bodies_of(&self, node: &Node) -> &[u32] {
        let s = node.body_start as usize;
        &self.order[s..s + node.body_count as usize]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf).count()
    }

    /// Maximum node depth.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    fn compute_multipoles(&mut self, set: &ParticleSet) {
        let pos = set.pos();
        let mass = set.mass();
        // children are created after parents, so reverse order is bottom-up
        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].is_leaf {
                let node = &self.nodes[i];
                let mut m = 0.0;
                let mut weighted = Vec3::ZERO;
                for &b in self.bodies_of(node) {
                    let b = b as usize;
                    m += mass[b];
                    weighted += pos[b] * mass[b];
                }
                let node = &mut self.nodes[i];
                node.mass = m;
                node.com = if m > 0.0 { weighted / m } else { node.center };
            } else {
                let mut m = 0.0;
                let mut weighted = Vec3::ZERO;
                for c in 0..8 {
                    let ci = self.nodes[i].children[c];
                    if ci != NO_CHILD {
                        let child = &self.nodes[ci as usize];
                        m += child.mass;
                        weighted += child.com * child.mass;
                    }
                }
                let node = &mut self.nodes[i];
                node.mass = m;
                node.com = if m > 0.0 { weighted / m } else { node.center };
            }
        }
    }

    /// Structural invariant check, used by tests and property tests:
    /// ranges partition correctly, bodies lie inside their cells, multipoles
    /// sum up, children nest geometrically.
    pub fn check_invariants(&self, set: &ParticleSet) -> Result<(), String> {
        let pos = set.pos();
        if self.order.len() != set.len() {
            return Err("order length mismatch".into());
        }
        let mut seen = vec![false; set.len()];
        for &b in &self.order {
            let b = b as usize;
            if seen[b] {
                return Err(format!("particle {b} appears twice in order"));
            }
            seen[b] = true;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let slack = node.half * 1e-9 + 1e-12;
            for &b in self.bodies_of(node) {
                let p = pos[b as usize];
                let d = (p - node.center).abs();
                if d.max_component() > node.half + slack {
                    return Err(format!(
                        "particle {b} outside node {i}: offset {d:?}, half {}",
                        node.half
                    ));
                }
            }
            if !node.is_leaf {
                let mut child_count = 0;
                let mut child_mass = 0.0;
                for ci in node.child_indices() {
                    let child = &self.nodes[ci as usize];
                    child_count += child.body_count;
                    child_mass += child.mass;
                    if child.depth != node.depth + 1 {
                        return Err(format!("child {ci} depth mismatch"));
                    }
                    if child.half > node.half * 0.5 + slack {
                        return Err(format!("child {ci} does not nest in parent {i}"));
                    }
                }
                if child_count != node.body_count {
                    return Err(format!(
                        "node {i}: children hold {child_count} bodies, node claims {}",
                        node.body_count
                    ));
                }
                let scale = node.mass.abs().max(1.0);
                if (child_mass - node.mass).abs() > 1e-9 * scale {
                    return Err(format!("node {i}: mass mismatch"));
                }
            }
        }
        Ok(())
    }
}

/// Smallest cube (center, half-side) covering all positions, slightly
/// inflated so boundary points fall strictly inside. Public so alternative
/// builders (the GPU tree pipeline) start from bit-identical root geometry.
pub fn root_cube(set: &ParticleSet) -> (Vec3, f64) {
    match set.bounding_box() {
        None => (Vec3::ZERO, 1.0),
        Some((lo, hi)) => {
            let center = (lo + hi) * 0.5;
            let half = ((hi - lo).max_component() * 0.5).max(1e-12) * (1.0 + 1e-9);
            (center, half)
        }
    }
}

/// Octant index of `p` relative to `center`: bit 0 = x ≥ cx, bit 1 = y,
/// bit 2 = z. Public for builders that must reproduce the exact predicate.
#[inline]
pub fn octant(p: Vec3, center: Vec3) -> usize {
    (usize::from(p.x >= center.x))
        | (usize::from(p.y >= center.y) << 1)
        | (usize::from(p.z >= center.z) << 2)
}

/// Buckets `slice` (the bodies of one node, as indices into the particle
/// set) by octant around `center` with a stable counting sort, staging
/// through `scratch` (cleared and resized as needed; a pooled buffer makes
/// repeated builds allocation-free). Returns the per-octant counts and start
/// offsets within the slice.
fn bucket_by_octant(
    slice: &mut [u32],
    center: Vec3,
    set: &ParticleSet,
    scratch: &mut Vec<u32>,
) -> ([usize; 8], [usize; 8]) {
    let pos = set.pos();
    let mut counts = [0_usize; 8];
    for &b in slice.iter() {
        counts[octant(pos[b as usize], center)] += 1;
    }
    let mut starts = [0_usize; 8];
    let mut acc = 0;
    for (o, &c) in counts.iter().enumerate() {
        starts[o] = acc;
        acc += c;
    }
    let mut cursor = starts;
    scratch.clear();
    scratch.resize(slice.len(), 0);
    for &b in slice.iter() {
        let o = octant(pos[b as usize], center);
        scratch[cursor[o]] = b;
        cursor[o] += 1;
    }
    slice.copy_from_slice(scratch);
    (counts, starts)
}

/// Geometric center offset of octant `o` within a cell of half-side `half`.
/// Public alongside [`octant`] for exact-geometry builders.
#[inline]
pub fn octant_offset(o: usize, quarter: f64) -> Vec3 {
    Vec3::new(
        if o & 1 != 0 { quarter } else { -quarter },
        if o & 2 != 0 { quarter } else { -quarter },
        if o & 4 != 0 { quarter } else { -quarter },
    )
}

/// Recursive DFS-preorder subdivision. `order` covers the bodies from
/// permutation index `base` onward (the full permutation in the serial
/// build, one octant's sub-slice in a parallel subtree task); node
/// `body_start` values are always absolute.
fn subdivide(
    node_idx: usize,
    nodes: &mut Vec<Node>,
    order: &mut [u32],
    base: usize,
    set: &ParticleSet,
    params: &TreeParams,
    scratch: &mut Vec<u32>,
) {
    let (center, half, start, count, depth) = {
        let n = &nodes[node_idx];
        (n.center, n.half, n.body_start as usize, n.body_count as usize, n.depth)
    };
    if count <= params.leaf_capacity || depth >= MAX_DEPTH {
        return;
    }

    let rel = start - base;
    // the parent's staging completes before any child recurses, so one
    // shared scratch buffer serves the whole DFS
    let (counts, starts) = bucket_by_octant(&mut order[rel..rel + count], center, set, scratch);

    nodes[node_idx].is_leaf = false;
    let quarter = half * 0.5;
    for o in 0..8 {
        if counts[o] == 0 {
            continue;
        }
        let child_idx = nodes.len();
        nodes.push(Node {
            center: center + octant_offset(o, quarter),
            half: quarter,
            com: Vec3::ZERO,
            mass: 0.0,
            body_start: (start + starts[o]) as u32,
            body_count: counts[o] as u32,
            children: [NO_CHILD; 8],
            is_leaf: true,
            depth: depth + 1,
        });
        nodes[node_idx].children[o] = child_idx as u32;
        subdivide(child_idx, nodes, order, base, set, params, scratch);
    }
}

/// Parallel build entry: splits the root one level, builds each occupied
/// octant's subtree on a `par` worker thread (each into a local node vector
/// over its own disjoint sub-slice of the permutation), and splices the
/// subtrees back in octant order.
///
/// The serial build numbers nodes in DFS preorder, where each root child's
/// subtree occupies one contiguous index range in octant order — exactly the
/// concatenation this performs — so the resulting node array, including all
/// indices, is **byte-identical** to the serial build's.
fn subdivide_root_parallel(
    nodes: &mut Vec<Node>,
    order: &mut [u32],
    set: &ParticleSet,
    params: &TreeParams,
) {
    let (center, half) = (nodes[0].center, nodes[0].half);
    let (counts, _starts) = bucket_by_octant(order, center, set, &mut Vec::new());
    nodes[0].is_leaf = false;
    let quarter = half * 0.5;

    // carve the permutation into per-octant sub-slices, in octant order
    let mut tasks = Vec::new();
    let mut rest = order;
    let mut abs_start = 0_usize;
    for (o, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let (slice, tail) = rest.split_at_mut(count);
        rest = tail;
        tasks.push((o, abs_start, count, slice));
        abs_start += count;
    }

    let subtrees = par::run_tasks(
        tasks
            .into_iter()
            .map(|(o, start, count, slice)| {
                move || {
                    let mut local = vec![Node {
                        center: center + octant_offset(o, quarter),
                        half: quarter,
                        com: Vec3::ZERO,
                        mass: 0.0,
                        body_start: start as u32,
                        body_count: count as u32,
                        children: [NO_CHILD; 8],
                        is_leaf: true,
                        depth: 1,
                    }];
                    subdivide(0, &mut local, slice, start, set, params, &mut Vec::new());
                    (o, local)
                }
            })
            .collect(),
    );

    for (o, local) in subtrees {
        let child_idx = nodes.len() as u32;
        nodes[0].children[o] = child_idx;
        nodes.extend(local.into_iter().map(|mut node| {
            for c in node.children.iter_mut() {
                if *c != NO_CHILD {
                    *c += child_idx;
                }
            }
            node
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::body::Body;
    use nbody_core::testutil::random_set;

    #[test]
    fn empty_set_builds_single_root() {
        let set = ParticleSet::new();
        let tree = Octree::build(&set, TreeParams::default());
        assert_eq!(tree.nodes().len(), 1);
        assert!(tree.root().is_leaf);
        assert_eq!(tree.root().body_count, 0);
        assert!(tree.check_invariants(&set).is_ok());
    }

    #[test]
    fn small_set_stays_in_root_leaf() {
        let set = random_set(8, 1);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 16 });
        assert_eq!(tree.nodes().len(), 1);
        assert!(tree.root().is_leaf);
        assert_eq!(tree.root().body_count, 8);
    }

    #[test]
    fn build_respects_leaf_capacity() {
        let set = random_set(500, 2);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 8 });
        for node in tree.nodes() {
            if node.is_leaf {
                assert!(node.body_count as usize <= 8 || node.depth >= 64);
            }
        }
        tree.check_invariants(&set).unwrap();
    }

    #[test]
    fn root_multipole_matches_set() {
        let set = random_set(200, 3);
        let tree = Octree::build(&set, TreeParams::default());
        assert!((tree.root().mass - set.total_mass()).abs() < 1e-9);
        let com = set.center_of_mass().unwrap();
        assert!(tree.root().com.distance(com) < 1e-9);
    }

    #[test]
    fn every_leaf_range_partitions_bodies() {
        let set = random_set(300, 4);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 4 });
        let total: u32 = tree.nodes().iter().filter(|n| n.is_leaf).map(|n| n.body_count).sum();
        assert_eq!(total, 300);
        tree.check_invariants(&set).unwrap();
    }

    #[test]
    fn coincident_points_terminate() {
        // 100 bodies at the same spot must not recurse forever
        let bodies: Vec<Body> = (0..100).map(|_| Body::at_rest(Vec3::ONE, 1.0)).collect();
        let set = ParticleSet::from_bodies(&bodies);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 4 });
        assert!(tree.max_depth() <= 64);
        tree.check_invariants(&set).unwrap();
    }

    #[test]
    fn octant_indexing() {
        let c = Vec3::ZERO;
        assert_eq!(octant(Vec3::new(-1.0, -1.0, -1.0), c), 0);
        assert_eq!(octant(Vec3::new(1.0, -1.0, -1.0), c), 1);
        assert_eq!(octant(Vec3::new(-1.0, 1.0, -1.0), c), 2);
        assert_eq!(octant(Vec3::new(1.0, 1.0, 1.0), c), 7);
    }

    #[test]
    fn deterministic_build() {
        let set = random_set(128, 9);
        let t1 = Octree::build(&set, TreeParams::default());
        let t2 = Octree::build(&set, TreeParams::default());
        assert_eq!(t1.order(), t2.order());
        assert_eq!(t1.nodes().len(), t2.nodes().len());
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        // The octant fan-out must reproduce the serial DFS preorder exactly:
        // same permutation, same node array, including all child indices.
        let set = random_set(2000, 11);
        par::set_threads(1);
        let serial = Octree::build(&set, TreeParams { leaf_capacity: 8 });
        for threads in [2, 3, 8] {
            par::set_threads(threads);
            let parallel = Octree::build(&set, TreeParams { leaf_capacity: 8 });
            assert_eq!(parallel.order(), serial.order(), "threads={threads}");
            assert_eq!(parallel.nodes(), serial.nodes(), "threads={threads}");
            parallel.check_invariants(&set).unwrap();
        }
        par::set_threads(1);
    }

    #[test]
    fn node_side_is_twice_half() {
        let set = random_set(64, 10);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 2 });
        for n in tree.nodes() {
            assert_eq!(n.side(), 2.0 * n.half);
        }
    }

    #[test]
    fn depth_grows_with_n() {
        let shallow = Octree::build(&random_set(32, 5), TreeParams { leaf_capacity: 8 });
        let deep = Octree::build(&random_set(4096, 5), TreeParams { leaf_capacity: 8 });
        assert!(deep.max_depth() > shallow.max_depth());
    }

    #[test]
    fn rebuild_in_place_is_identical_to_fresh_build() {
        let set = random_set(700, 12);
        let fresh = Octree::build(&set, TreeParams { leaf_capacity: 8 });
        // start from a tree over a *different* snapshot, then rebuild in place
        let other = random_set(700, 13);
        let mut tree = Octree::build(&other, TreeParams { leaf_capacity: 8 });
        let mut scratch = par::arena::Scratch::new();
        tree.rebuild(&set, &mut scratch);
        assert_eq!(tree.order(), fresh.order());
        assert_eq!(tree.nodes(), fresh.nodes());
        tree.check_invariants(&set).unwrap();
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let set = random_set(400, 14);
        let mut tree = Octree::build(&set, TreeParams::default());
        let mut scratch = par::arena::Scratch::new();
        tree.rebuild(&set, &mut scratch); // warm the bucket scratch
        let node_cap = tree.nodes.capacity();
        let order_cap = tree.order.capacity();
        tree.rebuild(&set, &mut scratch);
        assert_eq!(tree.nodes.capacity(), node_cap);
        assert_eq!(tree.order.capacity(), order_cap);
    }

    #[test]
    fn rebuild_handles_population_change() {
        let small = random_set(50, 15);
        let big = random_set(900, 15);
        let mut tree = Octree::build(&small, TreeParams::default());
        let mut scratch = par::arena::Scratch::new();
        tree.rebuild(&big, &mut scratch);
        tree.check_invariants(&big).unwrap();
        tree.rebuild(&small, &mut scratch);
        tree.check_invariants(&small).unwrap();
        assert_eq!(tree.order().len(), 50);
    }

    #[test]
    fn leaf_count_reasonable() {
        let set = random_set(1000, 6);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: 10 });
        // at least N / capacity leaves are needed; no more than N
        assert!(tree.leaf_count() >= 100);
        assert!(tree.leaf_count() <= 1000);
    }
}
