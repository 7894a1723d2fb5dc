//! The jw-parallel plan — the paper's contribution (§4.3).
//!
//! w-parallel's unit of scheduling is a whole walk, so a walk with a long
//! interaction list pins one block to one CU for its entire duration, and at
//! small N there are too few walks to fill the device. jw-parallel applies
//! the chamomile idea *inside* each walk: the interaction list is cut into
//! j-slices of bounded length `L`, every `(walk, slice)` pair becomes its own
//! block, partial accelerations land in a scratch buffer, and a per-walk
//! reduction kernel folds them. Tiles still stage through LDS, so the
//! inner loop is identical to w-parallel's — the plan changes *where in
//! time-space* the work lands, not what it computes.
//!
//! Effects reproduced from the paper: block count grows from `#walks` to
//! `Σ⌈len_w / L⌉` (occupancy at small N), per-block cost is bounded by `L`
//! (load balance), and the extra cost is one more kernel plus the partial
//! traffic — cheap next to what it buys until N is large enough that
//! w-parallel saturates the device on its own.
//!
//! This module holds the slicing and the two kernels; the host program that
//! runs them is [`crate::tree_pipeline::evaluate_tree_plan`], shared with
//! w-parallel.

use crate::common::{force_eval_lanes, PlanConfig};
use crate::w_parallel::{WItemRegs, NO_TARGET};
use gpu_sim::prelude::*;

/// One `(walk, j-slice)` block of the partial kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JwBlockDesc {
    /// Walk index.
    pub walk: u32,
    /// Absolute start entry in the packed list data.
    pub start: u32,
    /// Entries in this slice.
    pub len: u32,
    /// Partial-buffer slot this block writes.
    pub slot: u32,
}

/// Shortest slice worth its block overhead (one LDS tile of a 64-wide
/// wavefront).
pub const MIN_JW_SLICE_ENTRIES: usize = 64;

/// Slice length chosen for a total list size on a device: long enough to
/// amortize staging, short enough to bound block cost and multiply blocks.
/// Plans read it through [`PlanConfig::jw_slice_len_for`].
pub fn auto_slice_len(total_entries: usize, spec: &DeviceSpec) -> usize {
    let target = PlanConfig::target_groups(spec).max(1);
    MIN_JW_SLICE_ENTRIES.max(total_entries.div_ceil(target))
}

/// Splits per-walk lists into bounded slices; returns the block table and
/// the per-walk slot ranges `(first_slot, slot_count)`.
pub fn slice_walks(
    walk_desc: &[(u32, u32)],
    slice_len: usize,
) -> (Vec<JwBlockDesc>, Vec<(u32, u32)>) {
    assert!(slice_len > 0, "slice length must be positive");
    let mut blocks = Vec::new();
    let mut ranges = Vec::with_capacity(walk_desc.len());
    let mut slot = 0_u32;
    for (w, &(start, len)) in walk_desc.iter().enumerate() {
        let first = slot;
        let mut cursor = 0_u32;
        // every walk gets at least one block (even an empty list needs its
        // reduction slot zeroed)
        loop {
            let remaining = len - cursor;
            let this = remaining.min(slice_len as u32);
            blocks.push(JwBlockDesc { walk: w as u32, start: start + cursor, len: this, slot });
            slot += 1;
            cursor += this;
            if cursor >= len {
                break;
            }
        }
        ranges.push((first, slot - first));
    }
    (blocks, ranges)
}

/// Kernel 1: partial forces, one block per (walk, slice).
pub struct JwPartialKernel {
    /// Packed interaction-list entries (float4).
    pub list_data: BufF32,
    /// Strided target indices.
    pub targets: BufU32,
    /// Original-order float4 bodies.
    pub pos_mass: BufF32,
    /// Partial accelerations: `[(slot * walk_size + lane) * 4 ..]`.
    pub partial: BufF32,
    /// Block table — uniform kernel arguments.
    pub blocks: Vec<JwBlockDesc>,
    /// Threads per block.
    pub walk_size: usize,
    /// Softening squared.
    pub eps_sq: f32,
}

impl JwPartialKernel {
    fn tile_len(&self, group_id: usize, cursor: usize) -> usize {
        let len = self.blocks[group_id].len as usize;
        self.walk_size.min(len - cursor)
    }
}

/// Per-block registers.
#[derive(Debug, Default)]
pub struct JwGroupRegs {
    cursor: usize,
}

impl Kernel for JwPartialKernel {
    type ItemRegs = WItemRegs;
    type GroupRegs = JwGroupRegs;

    fn name(&self) -> &str {
        "jw-parallel/partial"
    }

    fn lds_words(&self) -> usize {
        self.walk_size * 4
    }

    fn phase_label(&self, phase: usize) -> String {
        match phase {
            0 => "load-targets".into(),
            1 => "tile-load".into(),
            2 => "force-eval".into(),
            _ => "write-partial".into(),
        }
    }

    /// Phase 2 accumulates the tile as lanes; inactive items are charged
    /// too, as in w-parallel.
    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [WItemRegs],
        group: &JwGroupRegs,
    ) {
        let block = self.blocks[ctx.group_id];
        match phase {
            0 => {
                let first = block.walk as usize * self.walk_size;
                ctx.gather_f32x4_indexed(
                    self.pos_mass,
                    self.targets,
                    first,
                    NO_TARGET,
                    items,
                    WItemRegs::load_target,
                );
            }
            1 => {
                let tile = self.tile_len(ctx.group_id, group.cursor);
                ctx.stage_tile_f32x4(self.list_data, block.start as usize + group.cursor, tile);
            }
            2 => {
                let tile = self.tile_len(ctx.group_id, group.cursor);
                force_eval_lanes(ctx, items, tile, self.eps_sq);
            }
            _ => {
                let first = block.slot as usize * self.walk_size;
                ctx.write_f32x4_rows(self.partial, first, items, WItemRegs::acc4);
            }
        }
    }

    fn control(&self, phase: usize, group: &mut JwGroupRegs, info: &GroupInfo) -> Control {
        match phase {
            0 | 1 => Control::Next,
            2 => {
                group.cursor += self.tile_len(info.group_id, group.cursor);
                if group.cursor < self.blocks[info.group_id].len as usize {
                    Control::Jump(1)
                } else {
                    Control::Next
                }
            }
            _ => Control::Done,
        }
    }
}

/// Kernel 2: per-walk reduction of the slice partials.
pub struct JwReduceKernel {
    /// Partial buffer from the partial kernel.
    pub partial: BufF32,
    /// Strided target indices (to find where each lane's result goes).
    pub targets: BufU32,
    /// float4 output accelerations.
    pub acc_out: BufF32,
    /// Per-walk `(first_slot, slot_count)` — uniform kernel arguments.
    pub slot_ranges: Vec<(u32, u32)>,
    /// Threads per block.
    pub walk_size: usize,
}

impl Kernel for JwReduceKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "jw-parallel/reduce"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase_label(&self, _phase: usize) -> String {
        "reduction".into()
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        let (first, count) = self.slot_ranges[ctx.group_id];
        let slot_base = ctx.group_id * self.walk_size + ctx.local_id;
        let target = ctx.read_u32_coalesced(self.targets, slot_base);
        if target == NO_TARGET {
            return;
        }
        let mut acc = [0.0_f32; 3];
        for s in 0..count {
            let base = ((first + s) as usize * self.walk_size + ctx.local_id) * 4;
            let v = ctx.read_f32_vec_coalesced::<4>(self.partial, base);
            acc[0] += v[0];
            acc[1] += v[1];
            acc[2] += v[2];
        }
        ctx.charge_flops(3.0 * f64::from(count));
        ctx.write_f32_vec::<4>(self.acc_out, 4 * target as usize, [acc[0], acc[1], acc[2], 0.0]);
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::PlanKind;
    use crate::common::PlanOutcome;
    use nbody_core::body::ParticleSet;
    use nbody_core::gravity::{accelerations_pp, max_relative_error, GravityParams};
    use nbody_core::testutil::random_set;
    use nbody_core::vec3::Vec3;

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
    }

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    /// `kind` with the default configuration, through [`crate::evaluate`].
    fn evaluate(kind: PlanKind, dev: &mut Device, set: &ParticleSet) -> PlanOutcome {
        crate::evaluate(kind, &PlanConfig::default(), dev, set, &params())
    }

    #[test]
    fn matches_cpu_reference_within_bh_error() {
        let set = random_set(900, 1);
        let mut dev = device();
        let outcome = evaluate(PlanKind::JwParallel, &mut dev, &set);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params(), &mut exact);
        let err = max_relative_error(&exact, &outcome.acc);
        assert!(err < 0.02, "jw-parallel error {err}");
    }

    #[test]
    fn matches_w_parallel_results_exactly_in_physics() {
        // same walks, same θ: jw must agree with w to f32 reduction noise
        let set = random_set(600, 2);
        let mut dev = device();
        let w = evaluate(PlanKind::WParallel, &mut dev, &set);
        let jw = evaluate(PlanKind::JwParallel, &mut dev, &set);
        let err = max_relative_error(&w.acc, &jw.acc);
        assert!(err < 1e-5, "w vs jw mismatch {err}");
        assert_eq!(w.interactions, jw.interactions);
    }

    #[test]
    fn slicing_covers_lists_exactly() {
        let desc = vec![(0_u32, 300_u32), (300, 10), (310, 0), (310, 64)];
        let (blocks, ranges) = slice_walks(&desc, 64);
        // walk 0: ceil(300/64) = 5 blocks, walk 1: 1, walk 2 (empty): 1, walk 3: 1
        assert_eq!(blocks.len(), 8);
        assert_eq!(ranges, vec![(0, 5), (5, 1), (6, 1), (7, 1)]);
        // coverage per walk
        for (w, &(start, len)) in desc.iter().enumerate() {
            let covered: u32 = blocks.iter().filter(|b| b.walk == w as u32).map(|b| b.len).sum();
            assert_eq!(covered, len);
            // slices are contiguous from start
            let mut cursor = start;
            for b in blocks.iter().filter(|b| b.walk == w as u32) {
                assert_eq!(b.start, cursor);
                assert!(b.len <= 64);
                cursor += b.len;
            }
        }
        // slots are globally sequential
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.slot as usize, i);
        }
    }

    #[test]
    fn more_blocks_than_w_parallel_at_small_n() {
        let set = random_set(1024, 3);
        let mut dev = device();
        let _ = evaluate(PlanKind::WParallel, &mut dev, &set);
        let w_groups = dev.launches()[0].timing.num_groups;
        let _ = evaluate(PlanKind::JwParallel, &mut dev, &set);
        let jw_groups = dev.launches()[0].timing.num_groups;
        assert!(jw_groups > 2 * w_groups, "jw should multiply blocks: {jw_groups} vs {w_groups}");
    }

    #[test]
    fn faster_kernel_than_w_parallel_at_small_n() {
        let set = random_set(1024, 4);
        let mut dev = device();
        let w = evaluate(PlanKind::WParallel, &mut dev, &set);
        let jw = evaluate(PlanKind::JwParallel, &mut dev, &set);
        assert!(
            jw.kernel_s < w.kernel_s,
            "jw kernel {} should beat w kernel {} at N=1024",
            jw.kernel_s,
            w.kernel_s
        );
    }

    #[test]
    fn auto_slice_len_bounds() {
        let spec = DeviceSpec::radeon_hd_5850();
        // small totals: floor at one wavefront tile
        assert_eq!(auto_slice_len(100, &spec), 64);
        // large totals: ~ total / target groups
        let l = auto_slice_len(1_000_000, &spec);
        let target = PlanConfig::target_groups(&spec);
        assert_eq!(l, 1_000_000_usize.div_ceil(target));
    }

    #[test]
    fn two_kernels_launched() {
        let set = random_set(256, 5);
        let mut dev = device();
        let outcome = evaluate(PlanKind::JwParallel, &mut dev, &set);
        assert_eq!(outcome.launches, 2);
        assert_eq!(dev.launches()[0].kernel, "jw-parallel/partial");
        assert_eq!(dev.launches()[1].kernel, "jw-parallel/reduce");
        assert!(outcome.overlap_walk_with_kernel);
    }

    #[test]
    fn explicit_slice_len_honoured() {
        let cfg = PlanConfig { jw_slice_len: Some(32), walk_size: 64, ..Default::default() };
        let set = random_set(512, 6);
        let mut dev = device();
        let _ = crate::evaluate(PlanKind::JwParallel, &cfg, &mut dev, &set, &params());
        // every partial block processes at most 32 entries: #groups >= total/32
        let groups = dev.launches()[0].timing.num_groups;
        assert!(groups >= 512 / 64, "groups {groups}");
    }

    #[test]
    #[should_panic(expected = "slice length must be positive")]
    fn zero_slice_len_panics() {
        slice_walks(&[(0, 10)], 0);
    }
}
