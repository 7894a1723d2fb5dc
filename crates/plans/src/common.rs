//! Shared infrastructure of the four execution plans.
//!
//! A plan is a host program, run on a device by [`crate::evaluate`]: it
//! packs particle data into device buffers, launches kernels on the
//! simulated GPU, and collects a [`PlanOutcome`] splitting time into the
//! components the paper's tables report — host tree/walk work, kernel time,
//! transfer time. [`PlanKind`] names the plan and [`PlanConfig`] holds its
//! tunables.
//!
//! All device kernels share the same single-precision interaction
//! ([`lanes_interact_tile_f32`]): the softened monopole of Eq. (1)/(3),
//! computed exactly as the OpenCL kernels the paper builds on. With nonzero softening the
//! self-interaction contributes a zero vector, so kernels never branch on
//! `i == j` — matching Nyland's original CUDA kernel.

use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::flops::FlopConvention;
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};

/// Flops charged on the device per pairwise interaction. The GRAPE/Hamada
/// convention the paper's GFLOPS figures use.
pub const FLOPS_PER_INTERACTION: u64 = 38;

/// The four execution plans of the paper's §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanKind {
    /// Nyland et al.: one thread per target body, tiles through LDS.
    IParallel,
    /// Hamada's chamomile scheme: the j-range split across blocks, with a
    /// reduction pass.
    JParallel,
    /// Hamada's multiple-walk method: one block per tree walk.
    WParallel,
    /// This paper: walks × j-slices — w-parallel's algorithmic gain with
    /// j-parallel's occupancy.
    JwParallel,
}

impl PlanKind {
    /// Stable identifier used in table output.
    pub fn id(self) -> &'static str {
        match self {
            PlanKind::IParallel => "i-parallel",
            PlanKind::JParallel => "j-parallel",
            PlanKind::WParallel => "w-parallel",
            PlanKind::JwParallel => "jw-parallel",
        }
    }

    /// Parses the [`PlanKind::id`] form (CLI flags, job specs).
    pub fn parse(s: &str) -> Option<Self> {
        PlanKind::all().into_iter().find(|k| k.id() == s)
    }

    /// All plans in the paper's presentation order.
    pub fn all() -> [PlanKind; 4] {
        [PlanKind::IParallel, PlanKind::JParallel, PlanKind::WParallel, PlanKind::JwParallel]
    }

    /// True for the treecode-based plans.
    pub fn uses_tree(self) -> bool {
        matches!(self, PlanKind::WParallel | PlanKind::JwParallel)
    }
}

/// Simulated cost of the host-side (CPU) work of the tree plans, calibrated
/// to the paper's Intel Pentium E2140 era rather than the machine running
/// the simulation — this keeps the tables deterministic and comparable to
/// the paper's hardware balance.
///
/// Calibration: an optimized octree build runs at roughly 150 ns/body on a
/// 2006-class core; walk generation plus float4 packing costs ~15 ns per
/// interaction-list entry — list entries are produced by an in-order
/// traversal of a pointer-free tree and packed with memcpy-like loops, and
/// the E2140's two cores pipeline walk generation against the device
/// (Hamada's multiple-walk setup). The *measured* wall time of the modern
/// host is still reported in [`PlanOutcome::host_measured_s`] for
/// transparency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostCostModel {
    /// Simulated tree-build cost per body, nanoseconds.
    pub tree_ns_per_body: f64,
    /// Simulated walk-generation + packing cost per list entry, nanoseconds.
    pub walk_ns_per_entry: f64,
}

impl Default for HostCostModel {
    fn default() -> Self {
        Self { tree_ns_per_body: 150.0, walk_ns_per_entry: 15.0 }
    }
}

impl HostCostModel {
    /// A zero-cost host (isolates device behaviour in ablations).
    pub fn free() -> Self {
        Self { tree_ns_per_body: 0.0, walk_ns_per_entry: 0.0 }
    }

    /// Simulated seconds to build the octree over `n` bodies.
    pub fn tree_seconds(&self, n: usize) -> f64 {
        n as f64 * self.tree_ns_per_body * 1e-9
    }

    /// Simulated seconds to generate and pack `entries` list entries.
    pub fn walk_seconds(&self, entries: usize) -> f64 {
        entries as f64 * self.walk_ns_per_entry * 1e-9
    }
}

/// Tunables shared by the plans. `Default` reproduces the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Threads per block for the PP plans (Nyland's `p`).
    pub block_size: usize,
    /// j-slices for j-parallel; `None` auto-tunes to fill the device.
    pub j_slices: Option<usize>,
    /// Target bodies per walk for the tree plans. The paper's 256-thread
    /// blocks are what keeps walk generation (per *entry*) cheap relative to
    /// the device work it feeds (per *entry × walk size*).
    pub walk_size: usize,
    /// Barnes-Hut opening angle θ.
    pub theta: f64,
    /// Octree leaf capacity.
    pub leaf_capacity: usize,
    /// Interaction-list slice length for jw-parallel; `None` auto-tunes.
    pub jw_slice_len: Option<usize>,
    /// Simulated host (CPU) cost model for tree builds and walk generation.
    pub host_model: HostCostModel,
    /// Build the tree and emit interaction lists **on the device** (the
    /// Morton/sort/level-link/walk-emit pipeline of `tree_pipeline`) instead
    /// of on the host. Tree plans only.
    #[serde(default)]
    pub device_tree: bool,
    /// Explicit Morton-shard count for the tree plans' out-of-core path;
    /// `None` defers to `mem_budget_bytes` (or runs unsharded). Shard
    /// boundaries snap to eligible Morton splits, so any count yields
    /// bit-identical forces.
    #[serde(default)]
    pub shards: Option<usize>,
    /// Device-memory budget driving the shard decomposition; `None` leaves
    /// the working set unsharded (unless `shards` asks otherwise).
    #[serde(default)]
    pub mem_budget_bytes: Option<usize>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            block_size: 256,
            j_slices: None,
            walk_size: 256,
            theta: 0.5,
            leaf_capacity: 16,
            jw_slice_len: None,
            host_model: HostCostModel::default(),
            device_tree: false,
            shards: None,
            mem_budget_bytes: None,
        }
    }
}

impl PlanConfig {
    /// Work-groups that keep every CU fed with some double-buffering: the
    /// auto-tuners target this count.
    pub fn target_groups(spec: &DeviceSpec) -> usize {
        2 * spec.compute_units as usize * 6
    }

    /// The j-parallel slice count for `n` bodies on `spec`: the explicit
    /// [`PlanConfig::j_slices`], else [`crate::j_parallel::auto_j_slices`].
    pub fn j_slices_for(&self, n: usize, spec: &DeviceSpec) -> usize {
        let p = self.block_size;
        let n_padded = n.div_ceil(p).max(1) * p;
        self.j_slices.unwrap_or_else(|| crate::j_parallel::auto_j_slices(n_padded, p, spec))
    }

    /// The jw-parallel slice length for `total_entries` list entries on
    /// `spec`: the explicit [`PlanConfig::jw_slice_len`], else
    /// [`crate::jw_parallel::auto_slice_len`].
    pub fn jw_slice_len_for(&self, total_entries: usize, spec: &DeviceSpec) -> usize {
        self.jw_slice_len.unwrap_or_else(|| crate::jw_parallel::auto_slice_len(total_entries, spec))
    }

    /// Validates the configuration against a device.
    pub fn validate(&self, spec: &DeviceSpec) -> Result<(), String> {
        if self.block_size == 0 || self.block_size > spec.max_workgroup_size as usize {
            return Err(format!(
                "block_size {} outside (0, {}]",
                self.block_size, spec.max_workgroup_size
            ));
        }
        if self.walk_size == 0 || self.walk_size > spec.max_workgroup_size as usize {
            return Err(format!(
                "walk_size {} outside (0, {}]",
                self.walk_size, spec.max_workgroup_size
            ));
        }
        if !(self.theta > 0.0 && self.theta <= 2.0) {
            return Err(format!("theta {} outside (0, 2]", self.theta));
        }
        if self.leaf_capacity == 0 {
            return Err("leaf_capacity must be positive".into());
        }
        if self.j_slices == Some(0) || self.jw_slice_len == Some(0) {
            return Err("explicit slice parameters must be positive".into());
        }
        if self.shards == Some(0) {
            return Err("shard count must be positive".into());
        }
        if self.mem_budget_bytes == Some(0) {
            return Err("memory budget must be positive".into());
        }
        Ok(())
    }
}

/// Everything one force evaluation produced, split the way the paper's
/// tables need it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// Accelerations in original body order, widened to `f64`.
    pub acc: Vec<Vec3>,
    /// Pairwise interactions evaluated (PP: N²; tree plans: Σ walk targets ×
    /// list length).
    pub interactions: u64,
    /// Simulated host seconds building the octree (zero for PP plans);
    /// see [`HostCostModel`].
    pub host_tree_s: f64,
    /// Simulated host seconds generating walks/interaction lists.
    pub host_walk_s: f64,
    /// Wall time the *actual* host spent on tree + walks + packing —
    /// informational only, never used in tables. On the device-tree path
    /// ([`PlanConfig::device_tree`]) that work runs inside simulated
    /// kernels, so there it is the wall time of the whole evaluation,
    /// simulation included. Wall-clock-only backends report the wall time of
    /// the whole call.
    pub host_measured_s: f64,
    /// Simulated device seconds inside kernels.
    pub kernel_s: f64,
    /// Simulated seconds moving data over PCIe.
    pub transfer_s: f64,
    /// Simulated seconds lost to injected faults and retry backoff (the
    /// device's stall clock; zero on fault-free runs).
    pub recovery_s: f64,
    /// Kernel launches issued.
    pub launches: usize,
    /// True if the plan pipelines host walk generation with device kernels
    /// (the paper's w-parallel/jw-parallel do; see §4.2).
    pub overlap_walk_with_kernel: bool,
    /// Device seconds (kernels + descriptor traffic) spent in the on-device
    /// tree pipeline. Informational: already contained in `kernel_s` /
    /// `transfer_s`, never added to [`PlanOutcome::total_seconds`] again.
    #[serde(default)]
    pub pipeline_s: f64,
    /// Morton shards the evaluation streamed through (1 = unsharded).
    #[serde(default = "one")]
    pub shards_used: usize,
    /// High-water device-buffer bytes over the evaluation (the quantity the
    /// shard decomposition's memory budget caps).
    #[serde(default)]
    pub peak_device_bytes: usize,
}

fn one() -> usize {
    1
}

impl PlanOutcome {
    /// An all-zero outcome — the canonical `..PlanOutcome::empty()` tail for
    /// construction sites that only care about a subset of the fields.
    pub fn empty() -> Self {
        Self {
            acc: Vec::new(),
            interactions: 0,
            host_tree_s: 0.0,
            host_walk_s: 0.0,
            host_measured_s: 0.0,
            kernel_s: 0.0,
            transfer_s: 0.0,
            recovery_s: 0.0,
            launches: 0,
            overlap_walk_with_kernel: false,
            pipeline_s: 0.0,
            shards_used: 1,
            peak_device_bytes: 0,
        }
    }

    /// Kernel-only time: the paper's Table 3 column.
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_s
    }

    /// Total time: the paper's Table 2 column. Walk generation overlaps the
    /// kernels when the plan pipelines them; fault-recovery stalls are
    /// serial device time and never hide under host work.
    pub fn total_seconds(&self) -> f64 {
        let body = if self.overlap_walk_with_kernel {
            self.host_walk_s.max(self.kernel_s)
        } else {
            self.host_walk_s + self.kernel_s
        };
        self.host_tree_s + body + self.transfer_s + self.recovery_s
    }

    /// Sustained GFLOPS of the kernel under `convention`.
    pub fn gflops(&self, convention: FlopConvention) -> f64 {
        nbody_core::flops::gflops(self.interactions, convention, self.kernel_s)
    }
}

/// Lanes of one register block of [`lanes_interact_tile_f32`]: their
/// accumulators stay in SIMD registers for the whole tile sweep.
pub const LANE_BLOCK: usize = 8;

/// Accumulates a tile of packed float4 sources onto a block of target lanes:
/// `xi` holds the lanes' x/y/z positions and `acc` their x/y/z accumulators,
/// one slice per axis (the lane count is `acc[0].len()`).
///
/// This is the one copy of the f32 pair arithmetic: every sim kernel reaches
/// it. Zero-mass padding sources and the self-pair (with `eps_sq > 0`)
/// contribute exactly zero. Lanes run in register blocks of [`LANE_BLOCK`],
/// each sweeping the whole tile; the remainder runs one lane at a time.
/// Every lane keeps one sequential summation chain in tile order with the
/// same expression tree, so a lane's result does not depend on the lane
/// count or on its block: it is bit-identical to a one-lane call on that
/// target.
#[inline(always)]
pub fn lanes_interact_tile_f32(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    debug_assert!(tile.len().is_multiple_of(4), "tile must be packed float4");
    let [xs, ys, zs] = xi;
    let [axs, ays, azs] = acc;
    let n = axs.len();
    let (xs, ys, zs, ays, azs) = (&xs[..n], &ys[..n], &zs[..n], &mut ays[..n], &mut azs[..n]);
    let mut k = 0;
    while k + LANE_BLOCK <= n {
        let r = k..k + LANE_BLOCK;
        lane_block::<LANE_BLOCK>(
            [&xs[r.clone()], &ys[r.clone()], &zs[r.clone()]],
            [&mut axs[r.clone()], &mut ays[r.clone()], &mut azs[r]],
            tile,
            eps_sq,
        );
        k += LANE_BLOCK;
    }
    for k in k..n {
        lane_block::<1>(
            [&xs[k..=k], &ys[k..=k], &zs[k..=k]],
            [&mut axs[k..=k], &mut ays[k..=k], &mut azs[k..=k]],
            tile,
            eps_sq,
        );
    }
}

/// `W` lanes against the whole tile, accumulators held in registers.
#[inline(always)]
fn lane_block<const W: usize>(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    let lane = |s: &[f32]| -> [f32; W] { std::array::from_fn(|k| s[k]) };
    let (xs, ys, zs) = (lane(xi[0]), lane(xi[1]), lane(xi[2]));
    let [ax_out, ay_out, az_out] = acc;
    let (mut ax, mut ay, mut az) = (lane(ax_out), lane(ay_out), lane(az_out));
    for source in tile.chunks_exact(4) {
        let (sx, sy, sz, m) = (source[0], source[1], source[2], source[3]);
        for k in 0..W {
            let dx = sx - xs[k];
            let dy = sy - ys[k];
            let dz = sz - zs[k];
            let r2 = dx * dx + dy * dy + dz * dz + eps_sq;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            let s = m * inv_r3;
            ax[k] += dx * s;
            ay[k] += dy * s;
            az[k] += dz * s;
        }
    }
    ax_out[..W].copy_from_slice(&ax);
    ay_out[..W].copy_from_slice(&ay);
    az_out[..W].copy_from_slice(&az);
}

/// Work-items one [`force_eval_lanes`] pass holds on the stack: the HD 5850's
/// `max_workgroup_size`. Larger groups run in passes of this many items.
const MAX_LANES: usize = 256;
const _: () = assert!(MAX_LANES.is_multiple_of(LANE_BLOCK));

/// The registers of one work-item in a plan kernel's force-eval phase, seen
/// as a lane of [`force_eval_lanes`].
pub trait ForceLane {
    /// The item's target position and accumulator, or `None` for an
    /// inactive (padding) item, which is charged but computes nothing.
    fn lane(&mut self) -> Option<([f32; 3], &mut [f32; 3])>;
}

/// The force-eval phase of the plan kernels, run for the whole group at
/// once over the LDS tile's first `tile` float4 sources.
///
/// First every item, in local-id order, is charged
/// `FLOPS_PER_INTERACTION * tile` flops and a read of the `4 * tile` tile
/// words ([`GroupCtx::charge_items_lds_read`]), so costs and race reports are
/// those of the item-by-item phase. Then the active items' targets are
/// gathered into stack lanes, sweep the tile once through
/// [`lanes_interact_tile_f32`] at the widest width the CPU runs (see
/// [`sweep_lanes_avx2`]), and get their accumulators back; each is
/// bit-identical to that item sweeping the tile as a single lane. No heap
/// allocation.
pub fn force_eval_lanes<R: ForceLane>(
    ctx: &mut GroupCtx<'_>,
    items: &mut [R],
    tile: usize,
    eps_sq: f32,
) {
    ctx.charge_items_lds_read((FLOPS_PER_INTERACTION * tile as u64) as f64, 0, 4 * tile);
    let sources = &ctx.lds()[..4 * tile];
    let mut lanes = [[0.0_f32; MAX_LANES]; 6];
    let [xs, ys, zs, axs, ays, azs] = &mut lanes;
    for pass in items.chunks_mut(MAX_LANES) {
        let mut n = 0;
        for regs in pass.iter_mut() {
            if let Some((xi, acc)) = regs.lane() {
                [xs[n], ys[n], zs[n]] = xi;
                [axs[n], ays[n], azs[n]] = *acc;
                n += 1;
            }
        }
        // Round up to whole register blocks: the extra lanes hold stale
        // values and their results are discarded.
        let padded = n.next_multiple_of(LANE_BLOCK);
        sweep_lanes(
            [&xs[..padded], &ys[..padded], &zs[..padded]],
            [&mut axs[..padded], &mut ays[..padded], &mut azs[..padded]],
            sources,
            eps_sq,
        );
        let mut k = 0;
        for regs in pass.iter_mut() {
            if let Some((_, acc)) = regs.lane() {
                *acc = [axs[k], ays[k], azs[k]];
                k += 1;
            }
        }
    }
}

/// The one f32 tile sweep every kernel's [`force_eval_lanes`] runs:
/// [`lanes_interact_tile_f32`] out of line, compiled once at the baseline
/// width and, on x86_64, once more for AVX2, where each [`LANE_BLOCK`]
/// register block is one 8-lane `ymm` register. CPU detection picks the
/// widest build the host runs; nothing else selects a width. Every width
/// gives the same bits: IEEE `sqrt` and division round correctly at any
/// width, Rust never contracts `a * b + c` into an FMA, and no build enables
/// `fma`. AVX-512 is left out: 16-lane blocks measured 1.37 G
/// interactions/s against AVX2's 1.32 G/s (SSE2: 0.68 G/s), 256 lanes ×
/// 256 sources on a 2-vCPU Xeon.
fn sweep_lanes(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    let [ax, ay, az] = acc;
    if !sweep_lanes_avx2(xi, [&mut *ax, &mut *ay, &mut *az], tile, eps_sq) {
        sweep_lanes_baseline(xi, [ax, ay, az], tile, eps_sq);
    }
}

/// [`sweep_lanes`] at the baseline width (SSE2 on x86_64), whatever the
/// host supports. Public only for the exactness tests.
#[doc(hidden)]
#[inline(never)]
pub fn sweep_lanes_baseline(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    lanes_interact_tile_f32(xi, acc, tile, eps_sq);
}

/// [`sweep_lanes`] at AVX2 width when the host has AVX2; otherwise leaves
/// `acc` untouched and returns `false`. Public only for the exactness
/// tests.
#[doc(hidden)]
pub fn sweep_lanes_avx2(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only requirement of a `target_feature` function is
        // that the CPU supports its features; AVX2 was detected just above.
        unsafe { sweep_lanes_avx2_unchecked(xi, acc, tile, eps_sq) };
        return true;
    }
    // without an AVX2 build the arguments go unused
    let _ = (xi, acc, tile, eps_sq);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_lanes_avx2_unchecked(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    lanes_interact_tile_f32(xi, acc, tile, eps_sq);
}

/// Uploads positions+masses as float4 and returns (pos_mass, acc_out)
/// buffers; `acc_out` is float4 per body. The upload is charged to the
/// transfer clock — it is part of every plan's per-step cost. Retries
/// transient injected faults (see [`crate::recover`]).
pub fn upload_bodies(device: &mut Device, set: &ParticleSet) -> (BufF32, BufF32) {
    let packed = set.pack_pos_mass_f32();
    let pos_mass = device.alloc_f32(packed.len());
    crate::recover::upload_f32_with_recovery(device, pos_mass, &packed);
    let acc_out = device.alloc_f32(set.len() * 4);
    (pos_mass, acc_out)
}

/// Downloads a float4 acceleration buffer and widens to `Vec3`, applying the
/// gravitational constant `g` host-side (kernels work in G = 1 units).
/// Retries transient injected faults (see [`crate::recover`]).
pub fn download_acc(device: &mut Device, acc_out: BufF32, n: usize, g: f64) -> Vec<Vec3> {
    let raw = crate::recover::download_f32_with_recovery(device, acc_out);
    (0..n)
        .map(|i| {
            Vec3::new(f64::from(raw[4 * i]), f64::from(raw[4 * i + 1]), f64::from(raw[4 * i + 2]))
                * g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_ids_stable() {
        assert_eq!(PlanKind::IParallel.id(), "i-parallel");
        assert_eq!(PlanKind::JwParallel.id(), "jw-parallel");
        assert_eq!(PlanKind::all().len(), 4);
        assert!(PlanKind::WParallel.uses_tree());
        assert!(!PlanKind::JParallel.uses_tree());
    }

    #[test]
    fn plan_parse_roundtrips_every_id() {
        for kind in PlanKind::all() {
            assert_eq!(PlanKind::parse(kind.id()), Some(kind));
        }
        assert_eq!(PlanKind::parse("k-parallel"), None);
    }

    #[test]
    fn config_validation() {
        let spec = DeviceSpec::radeon_hd_5850();
        assert!(PlanConfig::default().validate(&spec).is_ok());
        let bad = PlanConfig { block_size: 0, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { block_size: 512, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { theta: 0.0, ..Default::default() };
        assert!(bad.validate(&spec).is_err());
        let bad = PlanConfig { j_slices: Some(0), ..Default::default() };
        assert!(bad.validate(&spec).is_err());
    }

    /// One target lane against `tile` through [`lanes_interact_tile_f32`].
    fn interact_one(xi: [f32; 3], tile: &[f32], eps_sq: f32, acc: &mut [f32; 3]) {
        let [ax, ay, az] = acc;
        lanes_interact_tile_f32(
            [&[xi[0]], &[xi[1]], &[xi[2]]],
            [std::slice::from_mut(ax), std::slice::from_mut(ay), std::slice::from_mut(az)],
            tile,
            eps_sq,
        );
    }

    #[test]
    fn interaction_math_matches_f64_reference() {
        let xi = [0.1_f32, 0.2, 0.3];
        let src = [1.0_f32, -0.5, 0.7, 2.0];
        let mut acc = [0.0_f32; 3];
        interact_one(xi, &src, 1e-4, &mut acc);
        let a64 = nbody_core::gravity::pair_acceleration(
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(1.0, -0.5, 0.7),
            2.0,
            1e-4,
        );
        assert!((f64::from(acc[0]) - a64.x).abs() < 1e-6);
        assert!((f64::from(acc[1]) - a64.y).abs() < 1e-6);
        assert!((f64::from(acc[2]) - a64.z).abs() < 1e-6);
    }

    #[test]
    fn self_and_padding_contribute_zero() {
        let xi = [0.5_f32, 0.5, 0.5];
        let mut acc = [0.0_f32; 3];
        // self-pair: same position, nonzero mass, softened
        interact_one(xi, &[0.5, 0.5, 0.5, 3.0], 1e-4, &mut acc);
        assert_eq!(acc, [0.0; 3]);
        // padding: zero mass anywhere
        interact_one(xi, &[9.0, 9.0, 9.0, 0.0], 1e-4, &mut acc);
        assert_eq!(acc, [0.0; 3]);
    }

    #[test]
    fn outcome_time_composition() {
        let base = PlanOutcome {
            acc: vec![],
            interactions: 0,
            host_tree_s: 1.0,
            host_walk_s: 2.0,
            host_measured_s: 0.0,
            kernel_s: 3.0,
            transfer_s: 0.5,
            recovery_s: 0.0,
            launches: 1,
            overlap_walk_with_kernel: false,
            ..PlanOutcome::empty()
        };
        assert_eq!(base.kernel_seconds(), 3.0);
        assert_eq!(base.total_seconds(), 6.5);
        let stalled = PlanOutcome { recovery_s: 0.25, ..base.clone() };
        assert_eq!(stalled.total_seconds(), 6.75);
        let overlapped = PlanOutcome { overlap_walk_with_kernel: true, ..base.clone() };
        // walk (2) hides under kernel (3)
        assert_eq!(overlapped.total_seconds(), 4.5);
        let walk_bound = PlanOutcome { host_walk_s: 5.0, overlap_walk_with_kernel: true, ..base };
        assert_eq!(walk_bound.total_seconds(), 6.5);
    }

    #[test]
    fn upload_download_roundtrip() {
        use nbody_core::testutil::random_set;
        let mut dev =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
        let set = random_set(10, 1);
        let (pos_mass, acc_out) = upload_bodies(&mut dev, &set);
        assert_eq!(dev.debug_pool().len_f32(pos_mass), 40);
        // poke accelerations directly and download
        for i in 0..10 {
            dev.debug_pool_mut().f32_mut(acc_out)[4 * i] = i as f32;
        }
        let acc = download_acc(&mut dev, acc_out, 10, 2.0);
        assert_eq!(acc.len(), 10);
        assert_eq!(acc[3], Vec3::new(6.0, 0.0, 0.0)); // 3 * g
    }
}
