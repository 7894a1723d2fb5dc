//! The tree plans' one device path: on-device tree pipeline + Morton-sharded
//! execution.
//!
//! [`evaluate_tree_plan`] is how w-parallel and jw-parallel run on the
//! simulated device. The host (or, with [`PlanConfig::device_tree`], the
//! device) builds the tree and walk lists; one shard policy cuts the walks
//! into [`MortonShards`]; one loop streams each shard's lists through
//! max-shard-sized arenas into the plan's force kernels. An unsharded
//! evaluation is the one-shard case and issues the plan's own trace markers.
//!
//! At N ≥ 1M the host-side tree build and walk generation of the paper's
//! tree plans stop hiding under the kernel: the host becomes the bottleneck
//! the paper's time-space decomposition was meant to remove. This module
//! moves the whole front half of the tree plans onto the (simulated) device:
//!
//! 1. **Morton keys** — 21-level geometric keys per body, computed by
//!    evolving the *exact* host octant predicates level by level, so the key
//!    field at level ℓ equals the octant the host build would pick there.
//! 2. **Key sort** — 8-pass stable LSD radix sort of `(key, body)` pairs.
//! 3. **Level-by-level tree linking** — per-level run detection over the
//!    sorted keys reproduces the host's stable counting-sort buckets; the
//!    resulting tree is **byte-identical in DFS preorder** to
//!    [`Octree::build`] (nodes *and* body order). Workloads whose open
//!    ranges survive all 21 key levels (coincident points) fall back to the
//!    host build — flagged in [`PipelineShape::fallback_host_build`].
//! 4. **Walk scan/emit** — interaction-list generation on the device, in
//!    two passes (lengths, then packed float4 lists), bit-identical to
//!    [`treecode::interaction_list::build_walks`] + `pack_walks`.
//!
//! Shards cut whole walk groups at eligible Morton splits. Because a walk's
//! forces depend only on the shared tree and its own bodies, any shard
//! count is bit-exact against the unsharded run. Every kernel charges
//! the device cost model with exactly the per-phase terms
//! [`ptpm::model::forecast_pipeline`] prices, so forecast and observation
//! agree by construction.

use crate::common::{download_acc, PlanConfig, PlanKind, PlanOutcome};
use crate::jw_parallel::{slice_walks, JwPartialKernel, JwReduceKernel};
use crate::recover::{launch_with_recovery, upload_f32_with_recovery, upload_u32_with_recovery};
use crate::w_parallel::{pack_walks, PackedWalks, WWalkKernel, NO_TARGET};
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::vec3::Vec3;
use ptpm::model::{
    PipelineShape, BBOX_FLOPS_PER_BODY, CONVERT_FLOPS_PER_BODY, EMIT_FLOPS_PER_ENTRY,
    GEOM_U64_PER_NODE, KEY_FLOPS_PER_LEVEL, LEAF_SORT_FLOPS_PER_BODY, LINK_FLOPS_PER_KEY,
    META_U32_PER_NODE, MULTIPOLE_FLOPS_PER_BODY, MULTIPOLE_FLOPS_PER_NODE, PIPELINE_GROUP_LOCAL,
    PIPELINE_LEVELS, PIPELINE_LOCAL, SCAN_FLOPS_PER_VISIT, SORT_FLOPS_PER_ITEM, SORT_LDS_PER_ITEM,
    SORT_LDS_WORDS, SORT_PASSES,
};
use std::time::Instant;
use treecode::interaction_list::build_walks;
use treecode::mac::{accepts_group, Aabb, OpeningAngle};
use treecode::morton::keys_in_order;
use treecode::shards::MortonShards;
use treecode::tree::{octant, octant_offset, root_cube, Node, Octree, TreeParams, NO_CHILD};

/// The 21-level geometric Morton key of a point: level ℓ's 3-bit field (bits
/// `3*(20-ℓ)..3*(20-ℓ)+3`) is the octant the host build's subdivision would
/// route the point through at depth ℓ, computed by evolving the exact host
/// predicates ([`octant`] against the evolved cell center). Sorting these
/// keys therefore groups bodies into host-build buckets at every level.
pub fn geometric_key(p: Vec3, root_center: Vec3, root_half: f64) -> u64 {
    let mut center = root_center;
    let mut quarter = root_half * 0.5;
    let mut key = 0_u64;
    for level in 0..PIPELINE_LEVELS {
        let o = octant(p, center);
        key |= (o as u64) << (3 * (PIPELINE_LEVELS - 1 - level));
        center += octant_offset(o, quarter);
        quarter *= 0.5;
    }
    key
}

fn vec3_from_bits(pos_bits: &[u64], b: usize) -> Vec3 {
    Vec3::new(
        f64::from_bits(pos_bits[3 * b]),
        f64::from_bits(pos_bits[3 * b + 1]),
        f64::from_bits(pos_bits[3 * b + 2]),
    )
}

// ---------------------------------------------------------------------------
// Device kernels. All charges mirror `ptpm::model::forecast_pipeline`
// term-for-term; the functional work runs race-free (per-item writes are
// disjoint, or one designated item per group/launch does serial work
// through uncounted views while every item charges its modeled share).
// ---------------------------------------------------------------------------

/// One thread per body: compute the geometric key, seed the identity index.
struct MortonKeyKernel {
    pos_bits: BufU64,
    keys: BufU64,
    idx: BufU32,
    root_center: Vec3,
    root_half: f64,
    n: usize,
}

impl Kernel for MortonKeyKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/morton-keys"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        let i = ctx.global_id;
        if i >= self.n {
            return;
        }
        let x = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i));
        let y = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i + 1));
        let z = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i + 2));
        let key = geometric_key(Vec3::new(x, y, z), self.root_center, self.root_half);
        ctx.write_u64_coalesced(self.keys, i, key);
        ctx.write_u32_coalesced(self.idx, i, i as u32);
        ctx.charge_flops(KEY_FLOPS_PER_LEVEL * PIPELINE_LEVELS as f64);
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// One stable counting-sort pass over one key byte: ping-pongs
/// `(keys, idx) → (dst_keys, dst_idx)`. The sort itself runs once (item 0)
/// through uncounted views; every item charges the modeled per-item share
/// of the histogram/scatter traffic.
struct RadixPassKernel {
    src_keys: BufU64,
    src_idx: BufU32,
    dst_keys: BufU64,
    dst_idx: BufU32,
    shift: u32,
    n: usize,
}

impl Kernel for RadixPassKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/radix-pass"
    }

    fn lds_words(&self) -> usize {
        SORT_LDS_WORDS
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.global_id >= self.n {
            return;
        }
        if ctx.global_id == 0 {
            let (out_k, out_i) = {
                let keys = &ctx.global_u64(self.src_keys)[..self.n];
                let idx = &ctx.global_u32(self.src_idx)[..self.n];
                let mut counts = [0_usize; 256];
                for &k in keys {
                    counts[((k >> self.shift) & 0xFF) as usize] += 1;
                }
                let mut cursor = [0_usize; 256];
                let mut s = 0;
                for (c, &count) in cursor.iter_mut().zip(&counts) {
                    *c = s;
                    s += count;
                }
                let mut out_k = vec![0_u64; self.n];
                let mut out_i = vec![0_u32; self.n];
                for j in 0..self.n {
                    let b = ((keys[j] >> self.shift) & 0xFF) as usize;
                    out_k[cursor[b]] = keys[j];
                    out_i[cursor[b]] = idx[j];
                    cursor[b] += 1;
                }
                (out_k, out_i)
            };
            ctx.store_u64_slice(self.dst_keys, 0, &out_k);
            ctx.store_u32_slice(self.dst_idx, 0, &out_i);
        }
        ctx.charge_flops(SORT_FLOPS_PER_ITEM);
        ctx.charge_lds(SORT_LDS_PER_ITEM);
        ctx.charge_global_read(12.0, ctx.coalesced_transactions(12.0));
        ctx.charge_global_write(12.0, 2.0 * ctx.coalesced_transactions(12.0));
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// One group per open node range: histogram the level's 3-bit key field over
/// the range. The runs of equal field value inside a sorted parent range are
/// exactly the host build's stable counting-sort buckets.
struct LevelLinkKernel {
    keys: BufU64,
    counts_out: BufU32,
    ranges: Vec<(u32, u32)>,
    shift: u32,
}

impl Kernel for LevelLinkKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/level-link"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.local_id != 0 {
            return;
        }
        let (start, len) = self.ranges[ctx.group_id];
        let counts = {
            let keys = &ctx.global_u64(self.keys)[start as usize..(start + len) as usize];
            let mut counts = [0_u32; 8];
            for &k in keys {
                counts[((k >> self.shift) & 7) as usize] += 1;
            }
            counts
        };
        ctx.store_u32_slice(self.counts_out, 8 * ctx.group_id, &counts);
        let bytes = 8.0 * f64::from(len);
        ctx.charge_global_read(bytes, ctx.coalesced_transactions(bytes));
        ctx.charge_flops(LINK_FLOPS_PER_KEY * f64::from(len));
        ctx.charge_global_write(32.0, ctx.coalesced_transactions(32.0));
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// One group per multi-body leaf: sort the leaf's body-index range
/// ascending. The full-key sort orders same-leaf bodies by key bits below
/// the leaf's depth; the host's stable bucketing leaves them in ascending
/// original index. Ascending sort canonicalizes to the host order.
struct LeafSortKernel {
    idx: BufU32,
    ranges: Vec<(u32, u32)>,
}

impl Kernel for LeafSortKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/leaf-sort"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.local_id != 0 {
            return;
        }
        let (start, len) = self.ranges[ctx.group_id];
        let mut v = ctx.global_u32(self.idx)[start as usize..(start + len) as usize].to_vec();
        v.sort_unstable();
        ctx.store_u32_slice(self.idx, start as usize, &v);
        let bytes = 4.0 * f64::from(len);
        ctx.charge_global_read(bytes, ctx.coalesced_transactions(bytes));
        ctx.charge_global_write(bytes, ctx.coalesced_transactions(bytes));
        ctx.charge_flops(LEAF_SORT_FLOPS_PER_BODY * f64::from(len));
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// Bottom-up center-of-mass/mass pass over the DFS-ordered node arrays,
/// replicating `Octree::compute_multipoles` arithmetic exactly (leaf sums in
/// body order, internal sums in ascending octant order).
struct MultipoleKernel {
    meta: BufU32,
    geom: BufU64,
    idx: BufU32,
    pos_bits: BufU64,
    mass_bits: BufU64,
    nodes: usize,
    n: usize,
}

impl Kernel for MultipoleKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/multipoles"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.global_id >= self.n {
            return;
        }
        if ctx.global_id == 0 {
            let mut geom_v = ctx.global_u64(self.geom)[..GEOM_U64_PER_NODE * self.nodes].to_vec();
            let out = {
                let meta = &ctx.global_u32(self.meta)[..META_U32_PER_NODE * self.nodes];
                let idx = &ctx.global_u32(self.idx)[..self.n];
                let pos = ctx.global_u64(self.pos_bits);
                let mass = ctx.global_u64(self.mass_bits);
                let mut com = vec![Vec3::ZERO; self.nodes];
                let mut m = vec![0.0_f64; self.nodes];
                for i in (0..self.nodes).rev() {
                    let base = META_U32_PER_NODE * i;
                    let start = meta[base] as usize;
                    let count = meta[base + 1] as usize;
                    let is_leaf = meta[base + 2] != 0;
                    let mut mm = 0.0;
                    let mut weighted = Vec3::ZERO;
                    if is_leaf {
                        for &b in &idx[start..start + count] {
                            let b = b as usize;
                            let pm = f64::from_bits(mass[b]);
                            mm += pm;
                            weighted += vec3_from_bits(pos, b) * pm;
                        }
                    } else {
                        for o in 0..8 {
                            let c = meta[base + 3 + o];
                            if c != NO_CHILD {
                                let c = c as usize;
                                mm += m[c];
                                weighted += com[c] * m[c];
                            }
                        }
                    }
                    com[i] = if mm > 0.0 {
                        weighted / mm
                    } else {
                        // empty cell: com falls back to the geometric center,
                        // stored at geom words [8i..8i+3)
                        Vec3::new(
                            f64::from_bits(geom_v[GEOM_U64_PER_NODE * i]),
                            f64::from_bits(geom_v[GEOM_U64_PER_NODE * i + 1]),
                            f64::from_bits(geom_v[GEOM_U64_PER_NODE * i + 2]),
                        )
                    };
                    m[i] = mm;
                }
                (com, m)
            };
            for i in 0..self.nodes {
                let base = GEOM_U64_PER_NODE * i;
                geom_v[base + 4] = out.0[i].x.to_bits();
                geom_v[base + 5] = out.0[i].y.to_bits();
                geom_v[base + 6] = out.0[i].z.to_bits();
                geom_v[base + 7] = out.1[i].to_bits();
            }
            ctx.store_u64_slice(self.geom, 0, &geom_v);
        }
        let nodes = self.nodes as f64;
        let n = self.n as f64;
        let node_read =
            (4 * META_U32_PER_NODE) as f64 * nodes + 32.0 * (self.nodes.saturating_sub(1)) as f64;
        ctx.charge_flops(MULTIPOLE_FLOPS_PER_BODY + MULTIPOLE_FLOPS_PER_NODE * nodes / n);
        ctx.charge_global_read(
            36.0 + node_read / n,
            4.0 + ctx.coalesced_transactions(4.0) + ctx.coalesced_transactions(node_read) / n,
        );
        ctx.charge_global_write(32.0 * nodes / n, ctx.coalesced_transactions(32.0 * nodes) / n);
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// One thread per body: conversion of f64 position/mass bits to
/// the float4 `pos_mass` layout every force kernel consumes — identical bit
/// pattern to the host's `pack_pos_mass_f32` upload.
struct ConvertKernel {
    pos_bits: BufU64,
    mass_bits: BufU64,
    pos_mass: BufF32,
    n: usize,
}

impl Kernel for ConvertKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/convert-f32"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        let i = ctx.global_id;
        if i >= self.n {
            return;
        }
        let x = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i));
        let y = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i + 1));
        let z = f64::from_bits(ctx.read_u64_coalesced(self.pos_bits, 3 * i + 2));
        let m = f64::from_bits(ctx.read_u64_coalesced(self.mass_bits, i));
        ctx.write_f32_vec_coalesced::<4>(
            self.pos_mass,
            4 * i,
            [x as f32, y as f32, z as f32, m as f32],
        );
        ctx.charge_flops(CONVERT_FLOPS_PER_BODY);
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// Replays `collect_list_into`'s exact traversal (same stack discipline,
/// same MAC arithmetic) and returns `(cell_list, body_list, visited)` for
/// one walk. Shared by the scan and emit kernels so their traversals cannot
/// diverge.
fn walk_traverse(tree: &Octree, bbox: &Aabb, theta: OpeningAngle) -> (Vec<u32>, Vec<u32>, usize) {
    let mut cells = Vec::new();
    let mut bodies = Vec::new();
    let mut visited = 0_usize;
    let mut stack = Vec::new();
    if tree.root().body_count > 0 {
        stack.push(0_u32);
    }
    while let Some(i) = stack.pop() {
        visited += 1;
        let node = &tree.nodes()[i as usize];
        if accepts_group(node, bbox, theta) {
            cells.push(i);
        } else if node.is_leaf {
            bodies.extend_from_slice(tree.bodies_of(node));
        } else {
            stack.extend(node.child_indices());
        }
    }
    (cells, bodies, visited)
}

/// Predicts the [`PipelineShape`] the device pipeline would report for this
/// workload **without launching any kernel**: the host tree and walk
/// traversal are exact replicas of what the device executes, so every shape
/// field (levels, leaf ranges, walk/entry/visited counts) comes out
/// identical to the measured one. The autotuner prices `device_tree`
/// candidates with `forecast_pipeline` over this shape before deciding
/// whether moving the tree on-device beats the host build.
pub fn predict_pipeline_shape(set: &ParticleSet, config: &PlanConfig) -> PipelineShape {
    let n = set.len();
    let mut shape = PipelineShape { n, ..Default::default() };
    if n == 0 {
        return shape;
    }
    let tree = Octree::build(set, TreeParams { leaf_capacity: config.leaf_capacity });
    shape.nodes = tree.nodes().len();
    // Non-leaf nodes at depth ℓ are exactly the open ranges the device links
    // at level ℓ; any non-leaf past the last key level forces the fallback.
    let mut by_depth: Vec<(usize, usize)> = Vec::new();
    for node in tree.nodes() {
        if node.is_leaf {
            continue;
        }
        let d = node.depth as usize;
        if d >= PIPELINE_LEVELS {
            shape.fallback_host_build = true;
            continue;
        }
        if by_depth.len() <= d {
            by_depth.resize(d + 1, (0, 0));
        }
        by_depth[d].0 += 1;
        by_depth[d].1 += node.body_count as usize;
    }
    shape.levels = by_depth;
    if !shape.fallback_host_build {
        for node in tree.nodes() {
            if node.is_leaf && node.body_count >= 2 {
                shape.leaf_ranges += 1;
                shape.leaf_bodies += node.body_count as usize;
            }
        }
    }
    let theta = OpeningAngle::new(config.theta);
    let ws = config.walk_size;
    let order = tree.order();
    let pos = set.pos();
    shape.walks = n.div_ceil(ws);
    shape.walk_size = ws;
    for w in 0..shape.walks {
        let range = w * ws..((w + 1) * ws).min(n);
        let bbox = Aabb::from_points(order[range].iter().map(|&b| pos[b as usize]));
        let (cells, bodies, visited) = walk_traverse(&tree, &bbox, theta);
        shape.entries += cells.len() + bodies.len();
        shape.body_entries += bodies.len();
        shape.visited += visited;
    }
    shape
}

/// One group per walk, first pass: traverse and write
/// `[list_len, cells, visited]` per walk so the host can lay out shard
/// arenas without materializing any list.
struct WalkScanKernel<'t> {
    tree: &'t Octree,
    pos_bits: BufU64,
    lens_out: BufU32,
    theta: OpeningAngle,
    walk_size: usize,
}

fn charge_scan(ctx: &mut ItemCtx<'_>, walk_bodies: usize, visited: usize, body_entries: usize) {
    let c = walk_bodies as f64;
    let v = visited as f64;
    let be = body_entries as f64;
    let bytes = 24.0 * c + 48.0 * v + 4.0 * be;
    let txns = 3.0 * c + 2.0 * v + ctx.coalesced_transactions(4.0 * be);
    ctx.charge_global_read(bytes, txns);
    ctx.charge_flops(BBOX_FLOPS_PER_BODY * c + SCAN_FLOPS_PER_VISIT * v);
}

impl Kernel for WalkScanKernel<'_> {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/walk-scan"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.local_id != 0 {
            return;
        }
        let n = self.tree.order().len();
        let w = ctx.group_id;
        let walk = &self.tree.order()[w * self.walk_size..((w + 1) * self.walk_size).min(n)];
        let (cells, bodies, visited) = {
            let pos = ctx.global_u64(self.pos_bits);
            let bbox = Aabb::from_points(walk.iter().map(|&b| vec3_from_bits(pos, b as usize)));
            walk_traverse(self.tree, &bbox, self.theta)
        };
        let total = (cells.len() + bodies.len()) as u32;
        ctx.store_u32_slice(self.lens_out, 3 * w, &[total, cells.len() as u32, visited as u32]);
        charge_scan(ctx, walk.len(), visited, bodies.len());
        ctx.charge_global_write(12.0, ctx.coalesced_transactions(12.0));
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// One group per *shard* walk, second pass: re-traverse and emit the packed
/// float4 interaction list plus the strided target indices — byte-identical
/// to the host `pack_walks` layout, at shard-local offsets.
struct WalkEmitKernel<'t> {
    tree: &'t Octree,
    pos_bits: BufU64,
    mass_bits: BufU64,
    list_out: BufF32,
    targets_out: BufU32,
    /// Shard-local `(list_start, list_len)` per walk of the shard.
    desc: Vec<(u32, u32)>,
    walk_start: usize,
    walk_size: usize,
    theta: OpeningAngle,
}

impl Kernel for WalkEmitKernel<'_> {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "tree-pipeline/walk-emit"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        if ctx.local_id != 0 {
            return;
        }
        let n = self.tree.order().len();
        let w = self.walk_start + ctx.group_id;
        let walk = &self.tree.order()[w * self.walk_size..((w + 1) * self.walk_size).min(n)];
        let (data, targets, visited, num_cells, num_bodies) = {
            let pos = ctx.global_u64(self.pos_bits);
            let mass = ctx.global_u64(self.mass_bits);
            let bbox = Aabb::from_points(walk.iter().map(|&b| vec3_from_bits(pos, b as usize)));
            let (cells, bodies, visited) = walk_traverse(self.tree, &bbox, self.theta);
            let mut data = Vec::with_capacity(4 * (cells.len() + bodies.len()));
            for &c in &cells {
                let node = &self.tree.nodes()[c as usize];
                data.extend_from_slice(&[
                    node.com.x as f32,
                    node.com.y as f32,
                    node.com.z as f32,
                    node.mass as f32,
                ]);
            }
            for &b in &bodies {
                let b = b as usize;
                let p = vec3_from_bits(pos, b);
                data.extend_from_slice(&[
                    p.x as f32,
                    p.y as f32,
                    p.z as f32,
                    f64::from_bits(mass[b]) as f32,
                ]);
            }
            let mut targets = Vec::with_capacity(self.walk_size);
            for slot in 0..self.walk_size {
                targets.push(walk.get(slot).copied().unwrap_or(NO_TARGET));
            }
            (data, targets, visited, cells.len(), bodies.len())
        };
        let (start, len) = self.desc[ctx.group_id];
        debug_assert_eq!(data.len(), 4 * len as usize, "scan/emit length mismatch");
        ctx.store_f32_slice(self.list_out, 4 * start as usize, &data);
        ctx.store_u32_slice(self.targets_out, ctx.group_id * self.walk_size, &targets);
        charge_scan(ctx, walk.len(), visited, num_bodies);
        let e = f64::from(len);
        let ce = num_cells as f64;
        let be = num_bodies as f64;
        let ws = self.walk_size as f64;
        ctx.charge_global_read(32.0 * be + 32.0 * ce, 4.0 * be + 2.0 * ce);
        ctx.charge_flops(EMIT_FLOPS_PER_ENTRY * e);
        ctx.charge_global_write(
            16.0 * e + 4.0 * ws,
            ctx.coalesced_transactions(16.0 * e) + ctx.coalesced_transactions(4.0 * ws),
        );
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

/// Result of [`build_tree_on_device`]: the host mirror of the device-built
/// tree plus the device-resident f64 body data the walk kernels read.
pub struct DeviceTreeBuild {
    /// Host mirror of the device tree — byte-identical in DFS preorder
    /// (nodes *and* body order) to [`Octree::build`] over the same set.
    pub tree: Octree,
    /// Device f64 position bits, 3 words per body, original body order.
    pub pos_bits: BufU64,
    /// Device f64 mass bits, 1 word per body, original body order.
    pub mass_bits: BufU64,
    /// Workload shape: the argument [`ptpm::model::forecast_pipeline`]
    /// prices (tree phases filled; walk phases filled by the evaluator).
    pub shape: PipelineShape,
}

/// Host-side bookkeeping of one device-built node while the level loop runs
/// (BFS numbering; renumbered to DFS preorder at the end).
struct BfsNode {
    center: Vec3,
    half: f64,
    start: u32,
    count: u32,
    depth: u32,
    children: [u32; 8],
    is_leaf: bool,
}

/// Builds the octree on the device: Morton keys → 8-pass radix sort →
/// level-by-level linking (one histogram launch per level, descriptor
/// readback per level) → leaf canonicalization → multipole pass. The
/// returned tree is byte-identical in DFS preorder to [`Octree::build`].
/// Workloads with open ranges after all 21 key levels (coincident points)
/// fall back to the host build and upload its body order.
pub fn build_tree_on_device(
    device: &mut Device,
    set: &ParticleSet,
    params: TreeParams,
) -> DeviceTreeBuild {
    let n = set.len();
    assert!(n > 0, "device tree build needs at least one body");
    let (root_center, root_half) = root_cube(set);
    let pos = set.pos();
    let mass = set.mass();
    let mut pos_bits_host = Vec::with_capacity(3 * n);
    for p in pos {
        pos_bits_host.extend([p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]);
    }
    let mass_bits_host: Vec<u64> = mass.iter().map(|m| m.to_bits()).collect();

    device.annotate("tree-pipeline: upload");
    let pos_bits = device.alloc_u64(3 * n);
    device.upload_u64(pos_bits, &pos_bits_host);
    let mass_bits = device.alloc_u64(n);
    device.upload_u64(mass_bits, &mass_bits_host);

    device.annotate("tree-pipeline: build");
    let keys = device.alloc_u64(n);
    let idx = device.alloc_u32(n);
    let keys2 = device.alloc_u64(n);
    let idx2 = device.alloc_u32(n);
    launch_with_recovery(
        device,
        &MortonKeyKernel { pos_bits, keys, idx, root_center, root_half, n },
        NdRange::round_up(n, PIPELINE_LOCAL),
    );
    for pass in 0..SORT_PASSES {
        let (src_keys, src_idx, dst_keys, dst_idx) =
            if pass % 2 == 0 { (keys, idx, keys2, idx2) } else { (keys2, idx2, keys, idx) };
        launch_with_recovery(
            device,
            &RadixPassKernel { src_keys, src_idx, dst_keys, dst_idx, shift: (8 * pass) as u32, n },
            NdRange::round_up(n, PIPELINE_LOCAL),
        );
    }
    // SORT_PASSES is even: the sorted pairs are back in `keys`/`idx`.

    let mut shape = PipelineShape { n, ..Default::default() };
    let leaf_cap = params.leaf_capacity;
    let mut bfs = vec![BfsNode {
        center: root_center,
        half: root_half,
        start: 0,
        count: n as u32,
        depth: 0,
        children: [NO_CHILD; 8],
        is_leaf: n <= leaf_cap,
    }];
    let mut open: Vec<usize> = if n <= leaf_cap { Vec::new() } else { vec![0] };
    for level in 0..PIPELINE_LEVELS {
        if open.is_empty() {
            break;
        }
        let ranges: Vec<(u32, u32)> = open.iter().map(|&b| (bfs[b].start, bfs[b].count)).collect();
        let total_keys: usize = ranges.iter().map(|&(_, c)| c as usize).sum();
        shape.levels.push((ranges.len(), total_keys));
        let counts_buf = device.alloc_u32(8 * ranges.len());
        launch_with_recovery(
            device,
            &LevelLinkKernel {
                keys,
                counts_out: counts_buf,
                ranges,
                shift: (3 * (PIPELINE_LEVELS - 1 - level)) as u32,
            },
            NdRange { global: open.len() * PIPELINE_GROUP_LOCAL, local: PIPELINE_GROUP_LOCAL },
        );
        let counts = device.download_u32(counts_buf);
        let mut next_open = Vec::new();
        for (gi, &b) in open.iter().enumerate() {
            let (p_center, p_half, p_depth) = (bfs[b].center, bfs[b].half, bfs[b].depth);
            let quarter = p_half * 0.5;
            let mut cursor = bfs[b].start;
            for o in 0..8 {
                let c = counts[8 * gi + o];
                if c == 0 {
                    continue;
                }
                let child = BfsNode {
                    center: p_center + octant_offset(o, quarter),
                    half: quarter,
                    start: cursor,
                    count: c,
                    depth: p_depth + 1,
                    children: [NO_CHILD; 8],
                    is_leaf: c as usize <= leaf_cap,
                };
                cursor += c;
                let ci = bfs.len();
                bfs[b].children[o] = ci as u32;
                if !child.is_leaf {
                    next_open.push(ci);
                }
                bfs.push(child);
            }
        }
        open = next_open;
    }

    if !open.is_empty() {
        // Coincident (or sub-quantum-separated) points survive every key
        // level: the geometric keys cannot express the deeper splits the
        // host's f64 recursion would make. Build on the host and upload its
        // body order so the walk kernels still run on the device.
        shape.fallback_host_build = true;
        let tree = Octree::build(set, params);
        device.annotate("tree-pipeline: fallback-idx-upload");
        upload_u32_with_recovery(device, idx, tree.order());
        shape.nodes = tree.nodes().len();
        return DeviceTreeBuild { tree, pos_bits, mass_bits, shape };
    }

    // Canonicalize leaf body order: the full-key sort ordered same-leaf
    // bodies by key bits below the leaf's depth; the host's stable bucketing
    // keeps them in ascending original index.
    let leaf_ranges: Vec<(u32, u32)> = bfs
        .iter()
        .filter(|nd| nd.is_leaf && nd.count >= 2)
        .map(|nd| (nd.start, nd.count))
        .collect();
    shape.leaf_ranges = leaf_ranges.len();
    shape.leaf_bodies = leaf_ranges.iter().map(|&(_, c)| c as usize).sum();
    if !leaf_ranges.is_empty() {
        let groups = leaf_ranges.len();
        launch_with_recovery(
            device,
            &LeafSortKernel { idx, ranges: leaf_ranges },
            NdRange { global: groups * PIPELINE_GROUP_LOCAL, local: PIPELINE_GROUP_LOCAL },
        );
    }

    // Renumber BFS → DFS preorder (children pushed in reverse so octant 0
    // pops first) — the host build's node order.
    let mut dfs_of = vec![u32::MAX; bfs.len()];
    let mut dfs_order = Vec::with_capacity(bfs.len());
    let mut stack = vec![0_usize];
    while let Some(b) = stack.pop() {
        dfs_of[b] = dfs_order.len() as u32;
        dfs_order.push(b);
        for o in (0..8).rev() {
            let c = bfs[b].children[o];
            if c != NO_CHILD {
                stack.push(c as usize);
            }
        }
    }
    let nodes_n = bfs.len();
    shape.nodes = nodes_n;
    let mut meta = Vec::with_capacity(META_U32_PER_NODE * nodes_n);
    let mut geom = Vec::with_capacity(GEOM_U64_PER_NODE * nodes_n);
    let mut nodes = Vec::with_capacity(nodes_n);
    for &b in &dfs_order {
        let src = &bfs[b];
        let mut children = [NO_CHILD; 8];
        for (o, ch) in children.iter_mut().enumerate() {
            if src.children[o] != NO_CHILD {
                *ch = dfs_of[src.children[o] as usize];
            }
        }
        meta.extend([src.start, src.count, u32::from(src.is_leaf)]);
        meta.extend(children);
        geom.extend([
            src.center.x.to_bits(),
            src.center.y.to_bits(),
            src.center.z.to_bits(),
            src.half.to_bits(),
            0,
            0,
            0,
            0,
        ]);
        nodes.push(Node {
            center: src.center,
            half: src.half,
            com: Vec3::ZERO,
            mass: 0.0,
            body_start: src.start,
            body_count: src.count,
            children,
            is_leaf: src.is_leaf,
            depth: src.depth,
        });
    }
    device.annotate("tree-pipeline: multipoles");
    let meta_buf = device.alloc_u32(meta.len());
    upload_u32_with_recovery(device, meta_buf, &meta);
    let geom_buf = device.alloc_u64(geom.len());
    device.upload_u64(geom_buf, &geom);
    launch_with_recovery(
        device,
        &MultipoleKernel {
            meta: meta_buf,
            geom: geom_buf,
            idx,
            pos_bits,
            mass_bits,
            nodes: nodes_n,
            n,
        },
        NdRange::round_up(n, PIPELINE_LOCAL),
    );
    let geom_out = device.download_u64(geom_buf);
    let order = device.download_u32(idx);
    for (i, node) in nodes.iter_mut().enumerate() {
        let base = GEOM_U64_PER_NODE * i;
        node.com = Vec3::new(
            f64::from_bits(geom_out[base + 4]),
            f64::from_bits(geom_out[base + 5]),
            f64::from_bits(geom_out[base + 6]),
        );
        node.mass = f64::from_bits(geom_out[base + 7]);
    }
    let tree = Octree::from_parts(nodes, order, params);
    DeviceTreeBuild { tree, pos_bits, mass_bits, shape }
}

/// What [`evaluate_tree_plan`] produced: the plan outcome plus the pipeline
/// workload shape for PTPM forecasting.
pub struct TreePipelineRun {
    /// The plan outcome (accelerations, clock split, shard stats).
    pub outcome: PlanOutcome,
    /// Pipeline workload shape (`Default` when the host built the lists).
    pub shape: PipelineShape,
}

/// Device bytes one walk's shard working set costs: its packed float4 list,
/// its target stride, and (jw-parallel) its partial-sum slots.
fn shard_walk_bytes(kind: PlanKind, len: usize, walk_size: usize, slice_len: usize) -> usize {
    let base = 16 * len + 4 * walk_size;
    if kind == PlanKind::JwParallel {
        base + len.div_ceil(slice_len).max(1) * walk_size * 16
    } else {
        base
    }
}

/// The one Morton-shard policy of the tree plans, shared by the sim device
/// path and [`crate::backend::HostBackend`]: a shard count cuts by count, a
/// memory budget cuts by `walk_bytes` (bytes per walk, in walk order) on top
/// of `fixed_bytes`, and anything else runs as one shard. The Morton keys
/// and the byte vector are computed only when a count or a budget needs
/// them.
pub(crate) fn shard_decomposition(
    config: &PlanConfig,
    set: &ParticleSet,
    tree: &Octree,
    walk_bytes: impl Iterator<Item = usize>,
    fixed_bytes: usize,
) -> MortonShards {
    let ws = config.walk_size;
    if let Some(count) = config.shards {
        MortonShards::by_count(&keys_in_order(set, tree.order()), ws, count)
    } else if let Some(budget) = config.mem_budget_bytes {
        let keys = keys_in_order(set, tree.order());
        MortonShards::by_budget(&keys, ws, &walk_bytes.collect::<Vec<_>>(), fixed_bytes, budget)
    } else {
        MortonShards::unsharded(set.len(), ws)
    }
}

/// How each shard's packed lists reach the device.
enum ShardLists {
    /// Host-packed lists ([`pack_walks`]), uploaded shard by shard.
    Upload(PackedWalks),
    /// Lists the walk-emit kernel writes from the device-resident f64 bodies.
    Emit { pos_bits: BufU64, mass_bits: BufU64 },
}

/// The front half of a tree evaluation: the tree, the per-walk list lengths
/// and the device-resident bodies the shard loop streams against.
struct TreeFront {
    tree: Octree,
    lists: ShardLists,
    /// List length per walk, in walk order.
    walk_len: Vec<u32>,
    pos_mass: BufF32,
    acc_out: BufF32,
    /// Device-tree path: the pipeline's tree and walk-scan shape.
    shape: PipelineShape,
    /// Device seconds spent in the pipeline so far (zero on the host path).
    pipeline_s: f64,
    /// Host path: wall seconds of the tree build, walks and packing.
    prep_s: Option<f64>,
}

/// Evaluates a tree plan (`w-parallel` or `jw-parallel`) on the simulated
/// device. This is the only device path of the tree plans: the host (or,
/// with [`PlanConfig::device_tree`], the device) builds the tree and the
/// walk lists, one shard policy cuts the walks into Morton shards (a single
/// shard unless [`PlanConfig::shards`] or [`PlanConfig::mem_budget_bytes`]
/// asks for more), and one loop streams every shard's lists through
/// max-shard-sized arenas into the force kernels. The two tree builders
/// differ only in how a shard's lists reach the device: uploaded from the
/// host, or written by the walk-emit kernel. Forces are bit-identical for
/// any shard count and either builder.
pub fn evaluate_tree_plan(
    kind: PlanKind,
    config: &PlanConfig,
    device: &mut Device,
    set: &ParticleSet,
    params: &GravityParams,
) -> TreePipelineRun {
    assert!(params.softening > 0.0, "device plans require softening > 0");
    assert!(kind.uses_tree(), "tree pipeline only serves the tree plans");
    config.validate(device.spec()).expect("invalid plan config");
    device.begin_evaluation();
    if set.is_empty() {
        return TreePipelineRun { outcome: PlanOutcome::empty(), shape: PipelineShape::default() };
    }
    let wall = Instant::now();
    let n = set.len();
    let ws = config.walk_size;
    let label = kind.id();
    let front = if config.device_tree {
        device_tree_front(config, device, set)
    } else {
        host_tree_front(label, config, device, set)
    };
    let TreeFront { tree, lists, walk_len, pos_mass, acc_out, shape, mut pipeline_s, prep_s } =
        front;
    let entries: usize = walk_len.iter().map(|&l| l as usize).sum();
    let interactions: u64 = walk_len
        .iter()
        .enumerate()
        .map(|(w, &len)| ws.min(n - w * ws) as u64 * u64::from(len))
        .sum();

    let slice_len = config.jw_slice_len_for(entries, device.spec());
    let fixed = device.debug_pool().total_bytes();
    let walk_bytes = walk_len.iter().map(|&l| shard_walk_bytes(kind, l as usize, ws, slice_len));
    let decomp = shard_decomposition(config, set, &tree, walk_bytes, fixed);
    debug_assert_eq!(decomp.shards().last().map(|s| s.walk_end), Some(walk_len.len()));

    // one arena set, sized for the largest shard, serves every shard
    let mut max_entries = 1_usize;
    let mut max_walks = 1_usize;
    let mut max_slots = 1_usize;
    for s in decomp.shards() {
        let lens = &walk_len[s.walk_start..s.walk_end];
        max_entries = max_entries.max(lens.iter().map(|&l| l as usize).sum());
        max_walks = max_walks.max(s.num_walks());
        max_slots =
            max_slots.max(lens.iter().map(|&l| (l as usize).div_ceil(slice_len).max(1)).sum());
    }
    let list_buf = device.alloc_f32(4 * max_entries);
    let targets_buf = device.alloc_u32(max_walks * ws);
    let partial = (kind == PlanKind::JwParallel).then(|| device.alloc_f32(4 * max_slots * ws));
    let eps_sq = params.eps_sq() as f32;

    for (i, shard) in decomp.shards().iter().enumerate() {
        let mut desc = Vec::with_capacity(shard.num_walks());
        let mut cursor = 0_u32;
        for &len in &walk_len[shard.walk_start..shard.walk_end] {
            desc.push((cursor, len));
            cursor += len;
        }
        match &lists {
            ShardLists::Upload(packed) => {
                // the first shard's lists ride under the plan's upload marker
                if i > 0 {
                    device.annotate(&format!("{label}: shard-upload"));
                }
                let start = 4 * packed.walk_desc[shard.walk_start].0 as usize;
                upload_f32_with_recovery(
                    device,
                    list_buf,
                    &packed.list_data[start..start + 4 * cursor as usize],
                );
                upload_u32_with_recovery(
                    device,
                    targets_buf,
                    &packed.targets[shard.walk_start * ws..shard.walk_end * ws],
                );
            }
            &ShardLists::Emit { pos_bits, mass_bits } => {
                device.annotate("tree-pipeline: walk-emit");
                let before = device.kernel_seconds() + device.transfer_seconds();
                launch_with_recovery(
                    device,
                    &WalkEmitKernel {
                        tree: &tree,
                        pos_bits,
                        mass_bits,
                        list_out: list_buf,
                        targets_out: targets_buf,
                        desc: desc.clone(),
                        walk_start: shard.walk_start,
                        walk_size: ws,
                        theta: OpeningAngle::new(config.theta),
                    },
                    NdRange {
                        global: shard.num_walks() * PIPELINE_GROUP_LOCAL,
                        local: PIPELINE_GROUP_LOCAL,
                    },
                );
                pipeline_s += device.kernel_seconds() + device.transfer_seconds() - before;
            }
        }
        // per-walk force math is independent of list offsets, so shard-local
        // descriptors give bit-identical forces for any shard count
        let walks = desc.len();
        device.annotate(&format!("{label}: force-eval"));
        if let Some(partial) = partial {
            // jw-parallel: (walk × slice) partials, then the per-walk reduction
            let (blocks, slot_ranges) = slice_walks(&desc, slice_len);
            let slots = blocks.len();
            let k1 = JwPartialKernel {
                list_data: list_buf,
                targets: targets_buf,
                pos_mass,
                partial,
                blocks,
                walk_size: ws,
                eps_sq,
            };
            launch_with_recovery(device, &k1, NdRange { global: slots * ws, local: ws });
            device.annotate("jw-parallel: reduction");
            let k2 = JwReduceKernel {
                partial,
                targets: targets_buf,
                acc_out,
                slot_ranges,
                walk_size: ws,
            };
            launch_with_recovery(device, &k2, NdRange { global: walks * ws, local: ws });
        } else {
            let kernel = WWalkKernel {
                list_data: list_buf,
                targets: targets_buf,
                pos_mass,
                acc_out,
                walk_desc: desc,
                walk_size: ws,
                eps_sq,
            };
            launch_with_recovery(device, &kernel, NdRange { global: walks * ws, local: ws });
        }
    }

    device.annotate(&format!("{label}: download"));
    let acc = download_acc(device, acc_out, n, params.g);
    let host_tree = !config.device_tree || shape.fallback_host_build;
    let outcome = PlanOutcome {
        acc,
        interactions,
        host_tree_s: if host_tree { config.host_model.tree_seconds(n) } else { 0.0 },
        host_walk_s: if config.device_tree { 0.0 } else { config.host_model.walk_seconds(entries) },
        host_measured_s: prep_s.unwrap_or_else(|| wall.elapsed().as_secs_f64()),
        kernel_s: device.kernel_seconds(),
        transfer_s: device.transfer_seconds(),
        recovery_s: device.stall_seconds(),
        launches: device.launches().len(),
        overlap_walk_with_kernel: !config.device_tree,
        pipeline_s,
        shards_used: decomp.len(),
        peak_device_bytes: device.debug_pool().peak_bytes(),
    };
    TreePipelineRun { outcome, shape }
}

/// Host front half: tree build, walks and packing on the host (their wall
/// time becomes `host_measured_s`), then the body upload under the plan's
/// upload marker.
fn host_tree_front(
    label: &str,
    config: &PlanConfig,
    device: &mut Device,
    set: &ParticleSet,
) -> TreeFront {
    let t0 = Instant::now();
    let tree = Octree::build(set, TreeParams { leaf_capacity: config.leaf_capacity });
    let walks = build_walks(&tree, set, OpeningAngle::new(config.theta), config.walk_size);
    let packed = pack_walks(&walks, &tree, set, config.walk_size);
    let prep_s = t0.elapsed().as_secs_f64();

    device.annotate(&format!("{label}: upload"));
    let (pos_mass, acc_out) = crate::common::upload_bodies(device, set);
    let walk_len = packed.walk_desc.iter().map(|&(_, len)| len).collect();
    TreeFront {
        tree,
        lists: ShardLists::Upload(packed),
        walk_len,
        pos_mass,
        acc_out,
        shape: PipelineShape::default(),
        pipeline_s: 0.0,
        prep_s: Some(prep_s),
    }
}

/// Device front half: the device-built tree, the f32 body conversion, and
/// the walk-scan pass that sizes every walk's list without emitting it.
fn device_tree_front(config: &PlanConfig, device: &mut Device, set: &ParticleSet) -> TreeFront {
    let n = set.len();
    let ws = config.walk_size;
    let DeviceTreeBuild { tree, pos_bits, mass_bits, mut shape } =
        build_tree_on_device(device, set, TreeParams { leaf_capacity: config.leaf_capacity });

    device.annotate("tree-pipeline: convert-f32");
    let pos_mass = device.alloc_f32(4 * n);
    launch_with_recovery(
        device,
        &ConvertKernel { pos_bits, mass_bits, pos_mass, n },
        NdRange::round_up(n, PIPELINE_LOCAL),
    );
    let acc_out = device.alloc_f32(4 * n);

    device.annotate("tree-pipeline: walk-scan");
    let num_walks = n.div_ceil(ws);
    let lens_buf = device.alloc_u32(3 * num_walks);
    launch_with_recovery(
        device,
        &WalkScanKernel {
            tree: &tree,
            pos_bits,
            lens_out: lens_buf,
            theta: OpeningAngle::new(config.theta),
            walk_size: ws,
        },
        NdRange { global: num_walks * PIPELINE_GROUP_LOCAL, local: PIPELINE_GROUP_LOCAL },
    );
    let lens = device.download_u32(lens_buf);
    let walk_len: Vec<u32> = (0..num_walks).map(|w| lens[3 * w]).collect();
    shape.walks = num_walks;
    shape.walk_size = ws;
    shape.entries = walk_len.iter().map(|&l| l as usize).sum();
    shape.body_entries =
        shape.entries - (0..num_walks).map(|w| lens[3 * w + 1] as usize).sum::<usize>();
    shape.visited = (0..num_walks).map(|w| lens[3 * w + 2] as usize).sum();
    TreeFront {
        tree,
        lists: ShardLists::Emit { pos_bits, mass_bits },
        walk_len,
        pos_mass,
        acc_out,
        shape,
        pipeline_s: device.kernel_seconds() + device.transfer_seconds(),
        prep_s: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::random_set;
    use ptpm::model::forecast_pipeline;

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
    }

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    #[test]
    fn device_tree_is_byte_identical_to_host_build() {
        for (n, leaf_capacity, seed) in [(3000, 16, 1), (3000, 8, 2), (257, 4, 3), (1, 16, 4)] {
            let set = random_set(n, seed);
            let mut dev = device();
            let build = build_tree_on_device(&mut dev, &set, TreeParams { leaf_capacity });
            assert!(!build.shape.fallback_host_build, "unexpected fallback at n={n}");
            let host = Octree::build(&set, TreeParams { leaf_capacity });
            assert_eq!(build.tree.order(), host.order(), "body order n={n} leaf={leaf_capacity}");
            assert_eq!(build.tree.nodes(), host.nodes(), "nodes differ n={n} leaf={leaf_capacity}");
            build.tree.check_invariants(&set).expect("device tree invariants");
        }
    }

    #[test]
    fn coincident_points_fall_back_to_host_build() {
        let mut set = random_set(64, 5);
        let p = set.pos()[0];
        for i in 0..32 {
            set.pos_mut()[i] = p;
        }
        let mut dev = device();
        let build = build_tree_on_device(&mut dev, &set, TreeParams { leaf_capacity: 2 });
        assert!(build.shape.fallback_host_build);
        let host = Octree::build(&set, TreeParams { leaf_capacity: 2 });
        assert_eq!(build.tree.order(), host.order());
        assert_eq!(build.tree.nodes(), host.nodes());
    }

    #[test]
    fn device_tree_forces_match_host_tree_w_parallel_bitwise() {
        let set = random_set(1500, 6);
        let p = params();
        let mut dev = device();
        let host_tree =
            crate::evaluate(PlanKind::WParallel, &PlanConfig::default(), &mut dev, &set, &p);
        let config = PlanConfig { device_tree: true, ..Default::default() };
        let run = evaluate_tree_plan(PlanKind::WParallel, &config, &mut dev, &set, &p);
        assert_eq!(run.outcome.acc, host_tree.acc, "device-tree W forces differ");
        assert_eq!(run.outcome.interactions, host_tree.interactions);
        assert!(run.outcome.pipeline_s > 0.0);
        assert!(!run.shape.fallback_host_build);
    }

    #[test]
    fn sharded_host_tree_is_bit_exact_for_any_shard_count() {
        let set = random_set(2200, 7);
        let p = params();
        for kind in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut dev = device();
            let base = evaluate_tree_plan(kind, &PlanConfig::default(), &mut dev, &set, &p);
            for shards in [2, 7] {
                let config = PlanConfig { shards: Some(shards), ..Default::default() };
                let run = evaluate_tree_plan(kind, &config, &mut dev, &set, &p);
                assert_eq!(run.outcome.acc, base.outcome.acc, "{kind:?} shards={shards}");
                assert_eq!(run.outcome.interactions, base.outcome.interactions);
                assert!(run.outcome.shards_used > 1, "{kind:?} wanted >1 shard");
            }
        }
    }

    #[test]
    fn device_tree_sharded_matches_unsharded_bitwise() {
        let set = random_set(1800, 8);
        let p = params();
        for kind in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut dev = device();
            let unsharded = evaluate_tree_plan(
                kind,
                &PlanConfig { device_tree: true, ..Default::default() },
                &mut dev,
                &set,
                &p,
            );
            let config = PlanConfig { device_tree: true, shards: Some(4), ..Default::default() };
            let run = evaluate_tree_plan(kind, &config, &mut dev, &set, &p);
            assert_eq!(run.outcome.acc, unsharded.outcome.acc, "{kind:?} device-tree sharded");
            assert!(run.outcome.shards_used > 1);
        }
    }

    #[test]
    fn plan_evaluate_sharded_matches_unsharded() {
        // `plans::evaluate` runs the shard loop; a shard count only moves
        // where the lists are cut
        let set = random_set(900, 9);
        let p = params();
        let mut dev = device();
        let w = PlanKind::WParallel;
        let unsharded = crate::evaluate(w, &PlanConfig::default(), &mut dev, &set, &p);
        let sharded_config = PlanConfig { shards: Some(3), ..Default::default() };
        let sharded = crate::evaluate(w, &sharded_config, &mut dev, &set, &p);
        assert_eq!(sharded.acc, unsharded.acc);
        assert!(sharded.shards_used > 1);
    }

    #[test]
    fn memory_budget_drives_shard_count_and_peak_bytes() {
        let set = random_set(2600, 10);
        let p = params();
        let mut dev = device();
        let free =
            evaluate_tree_plan(PlanKind::WParallel, &PlanConfig::default(), &mut dev, &set, &p);
        let mut dev2 = device();
        // budget ~ half the unsharded peak forces a multi-shard run
        let budget = free.outcome.peak_device_bytes / 2;
        let config = PlanConfig { mem_budget_bytes: Some(budget), ..Default::default() };
        let run = evaluate_tree_plan(PlanKind::WParallel, &config, &mut dev2, &set, &p);
        assert_eq!(run.outcome.acc, free.outcome.acc);
        assert!(run.outcome.shards_used > 1, "budget did not shard");
        assert!(
            run.outcome.peak_device_bytes < free.outcome.peak_device_bytes,
            "sharding did not reduce the device working set: {} vs {}",
            run.outcome.peak_device_bytes,
            free.outcome.peak_device_bytes
        );
    }

    #[test]
    fn forecast_tracks_observed_pipeline_seconds() {
        let set = random_set(4096, 11);
        let p = params();
        let mut dev = device();
        let config = PlanConfig { device_tree: true, ..Default::default() };
        let run = evaluate_tree_plan(PlanKind::WParallel, &config, &mut dev, &set, &p);
        let forecast = forecast_pipeline(&run.shape, dev.spec(), &TransferModel::pcie2_x16());
        let ratio = forecast.seconds() / run.outcome.pipeline_s;
        assert!(
            (0.5..2.0).contains(&ratio),
            "pipeline forecast off: forecast {} observed {} ratio {ratio}",
            forecast.seconds(),
            run.outcome.pipeline_s
        );
    }
}
