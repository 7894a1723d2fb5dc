//! The j-parallel plan (Hamada & Iitaka's *chamomile scheme*; paper §4.2).
//!
//! Splits the **source** dimension: block `(c, s)` accumulates, for the i-th
//! chunk `c`, only the partial force from j-slice `s`. With `S` slices the
//! launch has `⌈N/p⌉ × S` blocks — enough to fill the device even at small
//! N, which is exactly when i-parallel starves. The price is a partial-force
//! buffer of `S × N` float4s and a second reduction kernel.

use crate::common::{
    download_acc, force_eval_lanes, ExecutionPlan, ForceLane, PlanConfig, PlanKind, PlanOutcome,
};
use crate::i_parallel::packed_padded;
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;

/// Minimum bodies per j-slice: thinner slices drown in per-block barrier
/// and reduction overhead (the chamomile scheme uses wavefront-sized slices
/// as its floor too).
pub const MIN_SLICE_BODIES: usize = 64;

/// Picks the slice count that brings the launch to the target group count,
/// while keeping every slice at least [`MIN_SLICE_BODIES`] long.
pub fn auto_j_slices(n_padded: usize, block: usize, spec: &DeviceSpec) -> usize {
    let base_groups = (n_padded / block).max(1);
    let target = PlanConfig::target_groups(spec);
    let max_by_len = (n_padded / MIN_SLICE_BODIES).max(1);
    target.div_ceil(base_groups).clamp(1, 256).min(max_by_len)
}

/// Kernel 1: partial forces for (i-chunk, j-slice) blocks.
pub struct JPartialKernel {
    /// Padded float4 bodies.
    pub pos_mass: BufF32,
    /// Partial accelerations: layout `[(s * n_padded + i) * 4 ..]`.
    pub partial: BufF32,
    /// Padded body count.
    pub n_padded: usize,
    /// Threads per block (= i-chunk size = max tile size).
    pub block: usize,
    /// Number of j-slices.
    pub s_count: usize,
    /// Bodies per slice (last slice may be shorter).
    pub slice_len: usize,
    /// Softening squared.
    pub eps_sq: f32,
}

impl JPartialKernel {
    /// (slice index, slice start, slice length) of a group.
    fn slice_of(&self, group_id: usize) -> (usize, usize, usize) {
        let s = group_id % self.s_count;
        let start = s * self.slice_len;
        let len = self.slice_len.min(self.n_padded.saturating_sub(start));
        (s, start, len)
    }

    /// Current tile length given the group cursor.
    fn tile_len(&self, group_id: usize, cursor: usize) -> usize {
        let (_, _, len) = self.slice_of(group_id);
        self.block.min(len - cursor)
    }
}

/// Per-thread registers of the partial kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct JItemRegs {
    xi: [f32; 3],
    acc: [f32; 3],
}

impl ForceLane for JItemRegs {
    fn lane(&mut self) -> Option<([f32; 3], &mut [f32; 3])> {
        Some((self.xi, &mut self.acc))
    }
}

/// Per-block registers: the cursor into this block's j-slice.
#[derive(Debug, Default)]
pub struct JGroupRegs {
    cursor: usize,
}

impl Kernel for JPartialKernel {
    type ItemRegs = JItemRegs;
    type GroupRegs = JGroupRegs;

    fn name(&self) -> &str {
        "j-parallel/partial"
    }

    fn lds_words(&self) -> usize {
        self.block * 4
    }

    fn phase_label(&self, phase: usize) -> String {
        match phase {
            0 => "load-targets".into(),
            1 => "tile-load".into(),
            2 => "force-eval".into(),
            _ => "write-partial".into(),
        }
    }

    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [JItemRegs],
        group: &JGroupRegs,
    ) {
        let (s, start, _) = self.slice_of(ctx.group_id);
        // the group's first target body: its i-chunk's start
        let first = ctx.group_id / self.s_count * self.block;
        match phase {
            0 => ctx.read_f32x4_rows(self.pos_mass, first, items, |regs, v| {
                regs.xi = [v[0], v[1], v[2]];
                regs.acc = [0.0; 3];
            }),
            1 => {
                let tile = self.tile_len(ctx.group_id, group.cursor);
                ctx.stage_tile_f32x4(self.pos_mass, start + group.cursor, tile);
            }
            2 => {
                let tile = self.tile_len(ctx.group_id, group.cursor);
                force_eval_lanes(ctx, items, tile, self.eps_sq);
            }
            _ => ctx.write_f32x4_rows(self.partial, s * self.n_padded + first, items, |regs| {
                [regs.acc[0], regs.acc[1], regs.acc[2], 0.0]
            }),
        }
    }

    fn control(&self, phase: usize, group: &mut JGroupRegs, info: &GroupInfo) -> Control {
        match phase {
            0 | 1 => Control::Next,
            2 => {
                group.cursor += self.tile_len(info.group_id, group.cursor);
                let (_, _, len) = self.slice_of(info.group_id);
                if group.cursor < len {
                    Control::Jump(1)
                } else {
                    Control::Next
                }
            }
            _ => Control::Done,
        }
    }
}

/// Kernel 2: sums the S partials of every body.
pub struct JReduceKernel {
    /// Partial accelerations from [`JPartialKernel`].
    pub partial: BufF32,
    /// Final float4 accelerations (`n` entries).
    pub acc_out: BufF32,
    /// Real body count.
    pub n: usize,
    /// Padded body count (partial row stride).
    pub n_padded: usize,
    /// Number of slices to reduce.
    pub s_count: usize,
}

impl Kernel for JReduceKernel {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "j-parallel/reduce"
    }

    fn lds_words(&self) -> usize {
        0
    }

    fn phase_label(&self, _phase: usize) -> String {
        "reduction".into()
    }

    fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
        let i = ctx.global_id;
        if i >= self.n {
            return;
        }
        let mut acc = [0.0_f32; 3];
        for s in 0..self.s_count {
            let v = ctx.read_f32_vec_coalesced::<4>(self.partial, 4 * (s * self.n_padded + i));
            acc[0] += v[0];
            acc[1] += v[1];
            acc[2] += v[2];
        }
        ctx.charge_flops(3.0 * self.s_count as f64);
        ctx.write_f32_vec_coalesced::<4>(self.acc_out, 4 * i, [acc[0], acc[1], acc[2], 0.0]);
    }

    fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
        Control::Done
    }
}

/// The j-parallel execution plan.
#[derive(Debug, Clone, Default)]
pub struct JParallel {
    /// Tunables (block size, slice count).
    pub config: PlanConfig,
}

impl JParallel {
    /// Creates the plan with the given configuration.
    pub fn new(config: PlanConfig) -> Self {
        Self { config }
    }

    /// The slice count this plan will use for `n` bodies on `spec`.
    pub fn slices_for(&self, n: usize, spec: &DeviceSpec) -> usize {
        let p = self.config.block_size;
        let n_padded = n.div_ceil(p).max(1) * p;
        self.config.j_slices.unwrap_or_else(|| auto_j_slices(n_padded, p, spec))
    }
}

impl ExecutionPlan for JParallel {
    fn kind(&self) -> PlanKind {
        PlanKind::JParallel
    }

    fn config(&self) -> &PlanConfig {
        &self.config
    }

    fn evaluate(
        &self,
        device: &mut Device,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        assert!(params.softening > 0.0, "device plans require softening > 0");
        self.config.validate(device.spec()).expect("invalid plan config");
        device.begin_evaluation();

        let n = set.len();
        let p = self.config.block_size;
        let n_padded = n.div_ceil(p).max(1) * p;
        let s_count = self.slices_for(n, device.spec());
        let slice_len = n_padded.div_ceil(s_count);

        let packed = packed_padded(set, n_padded);
        device.annotate("j-parallel: upload");
        let pos_mass = device.alloc_f32(packed.len());
        crate::recover::upload_f32_with_recovery(device, pos_mass, &packed);
        let partial = device.alloc_f32(s_count * n_padded * 4);
        let acc_out = device.alloc_f32(n * 4);

        let eps_sq = params.eps_sq() as f32;
        let k1 =
            JPartialKernel { pos_mass, partial, n_padded, block: p, s_count, slice_len, eps_sq };
        let groups = (n_padded / p) * s_count;
        device.annotate("j-parallel: force-eval");
        crate::recover::launch_with_recovery(device, &k1, NdRange { global: groups * p, local: p });

        let k2 = JReduceKernel { partial, acc_out, n, n_padded, s_count };
        device.annotate("j-parallel: reduction");
        crate::recover::launch_with_recovery(device, &k2, NdRange::round_up(n, p.min(256)));

        device.annotate("j-parallel: download");
        let acc = download_acc(device, acc_out, n, params.g);

        PlanOutcome {
            acc,
            interactions: (n as u64) * (n as u64),
            host_tree_s: 0.0,
            host_walk_s: 0.0,
            host_measured_s: 0.0,
            kernel_s: device.kernel_seconds(),
            transfer_s: device.transfer_seconds(),
            recovery_s: device.stall_seconds(),
            launches: device.launches().len(),
            overlap_walk_with_kernel: false,
            peak_device_bytes: device.debug_pool().peak_bytes(),
            ..PlanOutcome::empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::flops::FlopConvention;
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;
    use nbody_core::vec3::Vec3;

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
    }

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    #[test]
    fn matches_cpu_reference() {
        let set = random_set(500, 1);
        let mut dev = device();
        let outcome = JParallel::default().evaluate(&mut dev, &set, &params());
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params(), &mut exact);
        let err = max_relative_error(&exact, &outcome.acc);
        assert!(err < 1e-3, "j-parallel error {err}");
    }

    #[test]
    fn matches_i_parallel_results() {
        use crate::i_parallel::IParallel;
        let set = random_set(700, 2);
        let mut dev = device();
        let ji = JParallel::default().evaluate(&mut dev, &set, &params());
        let ii = IParallel::default().evaluate(&mut dev, &set, &params());
        let err = max_relative_error(&ii.acc, &ji.acc);
        assert!(err < 1e-4, "i vs j mismatch {err}");
    }

    #[test]
    fn auto_slices_fill_small_launches() {
        let spec = DeviceSpec::radeon_hd_5850();
        // 1024 bodies, 4 base blocks: need many slices, but each slice must
        // keep at least MIN_SLICE_BODIES bodies
        let s = auto_j_slices(1024, 256, &spec);
        assert_eq!(s, 1024 / MIN_SLICE_BODIES, "s = {s}");
        // huge N: no splitting needed
        assert_eq!(auto_j_slices(262_144, 256, &spec), 1);
    }

    #[test]
    fn two_kernels_launched() {
        let set = random_set(512, 3);
        let mut dev = device();
        let outcome = JParallel::default().evaluate(&mut dev, &set, &params());
        assert_eq!(outcome.launches, 2);
        assert_eq!(dev.launches()[0].kernel, "j-parallel/partial");
        assert_eq!(dev.launches()[1].kernel, "j-parallel/reduce");
    }

    #[test]
    fn beats_i_parallel_at_small_n() {
        use crate::i_parallel::IParallel;
        let set = random_set(1024, 4);
        let mut dev = device();
        let j = JParallel::default().evaluate(&mut dev, &set, &params());
        let i = IParallel::default().evaluate(&mut dev, &set, &params());
        assert!(
            j.kernel_s < i.kernel_s,
            "j-parallel {} should beat i-parallel {} at N=1024",
            j.kernel_s,
            i.kernel_s
        );
        let conv = FlopConvention::Grape38;
        assert!(j.gflops(conv) > i.gflops(conv));
    }

    #[test]
    fn converges_to_i_parallel_at_large_n() {
        use crate::i_parallel::IParallel;
        let set = random_set(16384, 5);
        let mut dev = device();
        let j = JParallel::default().evaluate(&mut dev, &set, &params());
        let i = IParallel::default().evaluate(&mut dev, &set, &params());
        let ratio = j.kernel_s / i.kernel_s;
        assert!(ratio > 0.8 && ratio < 1.3, "at large N the plans should converge, ratio {ratio}");
    }

    #[test]
    fn explicit_slice_count_honoured() {
        let cfg = PlanConfig { j_slices: Some(7), ..Default::default() };
        let plan = JParallel::new(cfg);
        let set = random_set(512, 6);
        let mut dev = device();
        let _ = plan.evaluate(&mut dev, &set, &params());
        // 512 bodies / 256 block = 2 chunks × 7 slices = 14 groups
        assert_eq!(dev.launches()[0].timing.num_groups, 14);
        assert_eq!(plan.slices_for(512, dev.spec()), 7);
    }

    #[test]
    fn slice_math_covers_all_bodies() {
        let mut pool = BufferPool::new();
        let k = JPartialKernel {
            pos_mass: pool.alloc_f32(1),
            partial: pool.alloc_f32(1),
            n_padded: 1024,
            block: 256,
            s_count: 3,
            slice_len: 342, // ceil(1024/3)
            eps_sq: 0.01,
        };
        let mut covered = 0;
        for s in 0..3 {
            let (_, start, len) = k.slice_of(s);
            assert_eq!(start, s * 342);
            covered += len;
        }
        assert_eq!(covered, 1024);
    }
}
