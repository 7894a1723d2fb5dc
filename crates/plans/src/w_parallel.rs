//! The w-parallel plan (Hamada et al., SC'09 multiple-walk; paper §4.2).
//!
//! The host builds the Barnes-Hut tree and groups bodies into walks; each
//! walk's interaction list (accepted cells + leaf bodies, both reduced to
//! `[x,y,z,m]` float4 entries) goes to the device, and **one block per
//! walk** evaluates `|walk| × |list|` interactions, tiling the list through
//! LDS like the PP kernels tile bodies.
//!
//! The paper's observations, reproduced here: walk generation runs on the
//! CPU and overlaps the GPU kernel (hence `overlap_walk_with_kernel`), but
//! ragged list lengths make blocks unequal — the load imbalance jw-parallel
//! later removes — and at small N there are simply too few walks to fill
//! the device.
//!
//! This module holds the packing and the walk kernel; the host program that
//! runs them is [`crate::tree_pipeline::evaluate_tree_plan`].

use crate::common::{force_eval_lanes, ForceLane};
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use treecode::interaction_list::WalkSet;
use treecode::tree::Octree;

/// Sentinel marking an inactive (padding) thread slot in the targets buffer.
pub const NO_TARGET: u32 = u32::MAX;

/// Interaction-list data packed for the device.
pub struct PackedWalks {
    /// float4 per list entry, all walks concatenated.
    pub list_data: Vec<f32>,
    /// Per-walk `(list_start, list_len)` in entries — kernel arguments.
    pub walk_desc: Vec<(u32, u32)>,
    /// Target body indices, `walk_size`-strided, padded with [`NO_TARGET`].
    pub targets: Vec<u32>,
}

/// Flattens a [`WalkSet`] against tree node and body data into device
/// buffers.
pub fn pack_walks(
    walks: &WalkSet,
    tree: &Octree,
    set: &ParticleSet,
    walk_size: usize,
) -> PackedWalks {
    let pos = set.pos();
    let mass = set.mass();
    let total_entries: usize = walks.groups.iter().map(|g| g.list_len()).sum();
    let mut list_data = Vec::with_capacity(total_entries * 4);
    let mut walk_desc = Vec::with_capacity(walks.groups.len());
    let mut targets = Vec::with_capacity(walks.groups.len() * walk_size);

    for group in &walks.groups {
        let start = (list_data.len() / 4) as u32;
        for &c in &group.cell_list {
            let node = &tree.nodes()[c as usize];
            list_data.extend_from_slice(&[
                node.com.x as f32,
                node.com.y as f32,
                node.com.z as f32,
                node.mass as f32,
            ]);
        }
        for &b in &group.body_list {
            let b = b as usize;
            list_data.extend_from_slice(&[
                pos[b].x as f32,
                pos[b].y as f32,
                pos[b].z as f32,
                mass[b] as f32,
            ]);
        }
        let len = group.list_len() as u32;
        walk_desc.push((start, len));

        for slot in 0..walk_size {
            targets.push(group.bodies.get(slot).copied().unwrap_or(NO_TARGET));
        }
    }

    PackedWalks { list_data, walk_desc, targets }
}

/// Device kernel: one block per walk, list tiled through LDS.
pub struct WWalkKernel {
    /// Packed interaction-list entries (float4).
    pub list_data: BufF32,
    /// Strided target indices.
    pub targets: BufU32,
    /// Original-order float4 bodies.
    pub pos_mass: BufF32,
    /// float4 output accelerations.
    pub acc_out: BufF32,
    /// Per-walk `(list_start, list_len)` — uniform kernel arguments.
    pub walk_desc: Vec<(u32, u32)>,
    /// Threads per block (= walk capacity = tile size).
    pub walk_size: usize,
    /// Softening squared.
    pub eps_sq: f32,
}

impl WWalkKernel {
    fn tile_len(&self, group_id: usize, cursor: usize) -> usize {
        let (_, len) = self.walk_desc[group_id];
        self.walk_size.min(len as usize - cursor)
    }
}

/// Per-thread registers of the walk kernels: [`WWalkKernel`] and
/// jw-parallel's partial kernel.
#[derive(Debug, Clone, Copy)]
pub struct WItemRegs {
    xi: [f32; 3],
    acc: [f32; 3],
    target: u32,
}

impl Default for WItemRegs {
    fn default() -> Self {
        Self { xi: [0.0; 3], acc: [0.0; 3], target: NO_TARGET }
    }
}

impl WItemRegs {
    /// The load-targets phase for one item: its walk slot's `target` and,
    /// unless the slot is padding, that body's position.
    pub(crate) fn load_target(&mut self, target: u32, body: Option<[f32; 4]>) {
        self.target = target;
        self.acc = [0.0; 3];
        if let Some(v) = body {
            self.xi = [v[0], v[1], v[2]];
        }
    }

    /// The accumulated acceleration as the float4 the kernels store.
    pub(crate) fn acc4(&self) -> [f32; 4] {
        [self.acc[0], self.acc[1], self.acc[2], 0.0]
    }
}

impl ForceLane for WItemRegs {
    fn lane(&mut self) -> Option<([f32; 3], &mut [f32; 3])> {
        (self.target != NO_TARGET).then_some((self.xi, &mut self.acc))
    }
}

/// Per-block registers: cursor into the walk's list.
#[derive(Debug, Default)]
pub struct WGroupRegs {
    cursor: usize,
}

impl Kernel for WWalkKernel {
    type ItemRegs = WItemRegs;
    type GroupRegs = WGroupRegs;

    fn name(&self) -> &str {
        "w-parallel/walk"
    }

    fn lds_words(&self) -> usize {
        self.walk_size * 4
    }

    fn phase_label(&self, phase: usize) -> String {
        match phase {
            0 => "load-targets".into(),
            1 => "tile-load".into(),
            2 => "force-eval".into(),
            _ => "scatter-acc".into(),
        }
    }

    /// Phase 2 accumulates the tile as lanes. Every item of the wavefront
    /// burns cycles, active or not (the cost of ragged walks), so inactive
    /// items are charged too.
    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [WItemRegs],
        group: &WGroupRegs,
    ) {
        match phase {
            // load own target body (gather: tree order ≠ memory order)
            0 => {
                let first = ctx.group_id * self.walk_size;
                ctx.gather_f32x4_indexed(
                    self.pos_mass,
                    self.targets,
                    first,
                    NO_TARGET,
                    items,
                    WItemRegs::load_target,
                );
            }
            // stage a tile of the interaction list
            1 => {
                let (start, _) = self.walk_desc[ctx.group_id];
                let tile = self.tile_len(ctx.group_id, group.cursor);
                ctx.stage_tile_f32x4(self.list_data, start as usize + group.cursor, tile);
            }
            2 => {
                let tile = self.tile_len(ctx.group_id, group.cursor);
                force_eval_lanes(ctx, items, tile, self.eps_sq);
            }
            // scatter the result
            _ => ctx.scatter_f32x4(self.acc_out, items, |regs| {
                (regs.target != NO_TARGET).then(|| (regs.target as usize, regs.acc4()))
            }),
        }
    }

    fn control(&self, phase: usize, group: &mut WGroupRegs, info: &GroupInfo) -> Control {
        match phase {
            0 | 1 => Control::Next,
            2 => {
                group.cursor += self.tile_len(info.group_id, group.cursor);
                let (_, len) = self.walk_desc[info.group_id];
                if group.cursor < len as usize {
                    Control::Jump(1)
                } else {
                    Control::Next
                }
            }
            _ => Control::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::PlanOutcome;
    use crate::common::{PlanConfig, PlanKind};
    use nbody_core::body::ParticleSet;
    use nbody_core::gravity::{accelerations_pp, max_relative_error, GravityParams};
    use nbody_core::testutil::random_set;
    use nbody_core::vec3::Vec3;
    use treecode::interaction_list::build_walks;
    use treecode::mac::OpeningAngle;
    use treecode::tree::TreeParams;

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
        let set = random_set(800, 1);
        let mut dev = device();
        let outcome = evaluate(PlanKind::WParallel, &mut dev, &set);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params(), &mut exact);
        let err = max_relative_error(&exact, &outcome.acc);
        assert!(err < 0.02, "w-parallel error {err}");
    }

    #[test]
    fn matches_cpu_walk_evaluation_closely() {
        // the device must reproduce the CPU multiple-walk semantics to f32
        let set = random_set(400, 2);
        let cfg = PlanConfig::default();
        let p = params();
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let mut cpu = vec![Vec3::ZERO; set.len()];
        treecode::interaction_list::evaluate_walks_cpu(&walks, &tree, &set, &p, &mut cpu);

        let mut dev = device();
        let outcome = crate::evaluate(PlanKind::WParallel, &cfg, &mut dev, &set, &p);
        let err = max_relative_error(&cpu, &outcome.acc);
        assert!(err < 1e-4, "device vs CPU walks {err}");
    }

    #[test]
    fn fewer_interactions_than_pp() {
        // group-MAC lists only undercut PP clearly once N is a few times the
        // walk size (256 by default)
        let set = random_set(8192, 3);
        let mut dev = device();
        let outcome = evaluate(PlanKind::WParallel, &mut dev, &set);
        assert!(outcome.interactions < 8192 * 8192 / 2, "{}", outcome.interactions);
        assert!(outcome.interactions > 0);
    }

    #[test]
    fn host_times_recorded_and_overlapped() {
        let set = random_set(1024, 4);
        let mut dev = device();
        let outcome = evaluate(PlanKind::WParallel, &mut dev, &set);
        assert!(outcome.host_tree_s > 0.0);
        assert!(outcome.host_walk_s > 0.0);
        assert!(outcome.overlap_walk_with_kernel);
        // overlap: the walk time does not add if the kernel dominates
        let expect =
            outcome.host_tree_s + outcome.host_walk_s.max(outcome.kernel_s) + outcome.transfer_s;
        assert!((outcome.total_seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn one_block_per_walk() {
        let set = random_set(640, 5);
        let mut dev = device();
        let cfg = PlanConfig { walk_size: 64, ..Default::default() };
        let _ = crate::evaluate(PlanKind::WParallel, &cfg, &mut dev, &set, &params());
        assert_eq!(dev.launches()[0].timing.num_groups, 10); // 640/64
    }

    #[test]
    fn packing_layout() {
        let set = random_set(100, 6);
        let cfg = PlanConfig::default();
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let packed = pack_walks(&walks, &tree, &set, cfg.walk_size);
        assert_eq!(packed.walk_desc.len(), walks.groups.len());
        assert_eq!(packed.targets.len(), walks.groups.len() * cfg.walk_size);
        let entries: usize = walks.groups.iter().map(|g| g.list_len()).sum();
        assert_eq!(packed.list_data.len(), entries * 4);
        // descriptors cover the data exactly and in order
        let mut cursor = 0_u32;
        for (start, len) in &packed.walk_desc {
            assert_eq!(*start, cursor);
            cursor += len;
        }
        assert_eq!(cursor as usize * 4, packed.list_data.len());
    }

    #[test]
    fn padded_slots_marked_inactive() {
        let set = random_set(70, 7); // 70 bodies, walks of 64: second walk padded
        let cfg = PlanConfig { walk_size: 64, ..Default::default() };
        let tree = Octree::build(&set, TreeParams { leaf_capacity: cfg.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(cfg.theta), cfg.walk_size);
        let packed = pack_walks(&walks, &tree, &set, cfg.walk_size);
        let inactive = packed.targets.iter().filter(|&&t| t == NO_TARGET).count();
        assert_eq!(inactive, 2 * 64 - 70);
    }
}
