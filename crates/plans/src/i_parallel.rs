//! The i-parallel plan (Nyland et al., *GPU Gems 3*; paper Fig. 1–3).
//!
//! One thread per target body *i*; the source bodies *j* stream through LDS
//! in p-sized **tiles**: each thread of the block loads one body of the tile
//! (coalesced float4), a barrier, then every thread accumulates p
//! interactions from LDS, another barrier, next tile. Blocks = ⌈N/p⌉ — which
//! is the plan's weakness: at N = 1024 and p = 256 only 4 blocks exist to
//! feed 18 compute units.

use crate::common::{
    download_acc, force_eval_lanes, ExecutionPlan, ForceLane, PlanConfig, PlanKind, PlanOutcome,
};
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;

/// Device kernel: all-pairs forces, tiled through LDS.
pub struct IParallelKernel {
    /// Padded float4 `[x,y,z,m]` source/target bodies (`n_padded` entries,
    /// padding has zero mass).
    pub pos_mass: BufF32,
    /// float4 output accelerations (`n` entries).
    pub acc_out: BufF32,
    /// Real body count.
    pub n: usize,
    /// Body count rounded up to the block size.
    pub n_padded: usize,
    /// Threads per block = tile size `p`.
    pub block: usize,
    /// Softening squared (single precision).
    pub eps_sq: f32,
}

/// Per-thread registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct IItemRegs {
    xi: [f32; 3],
    acc: [f32; 3],
}

impl ForceLane for IItemRegs {
    fn lane(&mut self) -> Option<([f32; 3], &mut [f32; 3])> {
        Some((self.xi, &mut self.acc))
    }
}

/// Per-block registers: the tile cursor.
#[derive(Debug, Default)]
pub struct IGroupRegs {
    tile: usize,
}

impl Kernel for IParallelKernel {
    type ItemRegs = IItemRegs;
    type GroupRegs = IGroupRegs;

    fn name(&self) -> &str {
        "i-parallel"
    }

    fn lds_words(&self) -> usize {
        self.block * 4
    }

    fn phase_label(&self, phase: usize) -> String {
        match phase {
            0 => "load-self".into(),
            1 => "tile-load".into(),
            2 => "force-eval".into(),
            _ => "write-acc".into(),
        }
    }

    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [IItemRegs],
        group: &IGroupRegs,
    ) {
        let first = ctx.group_id * ctx.local_size;
        match phase {
            // load own body
            0 => ctx.read_f32x4_rows(self.pos_mass, first, items, |regs, v| {
                regs.xi = [v[0], v[1], v[2]];
                regs.acc = [0.0; 3];
            }),
            // stage one tile into LDS
            1 => ctx.stage_tile_f32x4(self.pos_mass, group.tile * self.block, ctx.local_size),
            // accumulate p interactions from LDS
            2 => force_eval_lanes(ctx, items, self.block, self.eps_sq),
            // write result; the padding tail writes nothing
            _ => {
                let live = self.n.saturating_sub(first).min(items.len());
                ctx.write_f32x4_rows(self.acc_out, first, &items[..live], |regs| {
                    [regs.acc[0], regs.acc[1], regs.acc[2], 0.0]
                });
            }
        }
    }

    fn control(&self, phase: usize, group: &mut IGroupRegs, _info: &GroupInfo) -> Control {
        match phase {
            0 | 1 => Control::Next,
            2 => {
                group.tile += 1;
                if group.tile * self.block < self.n_padded {
                    Control::Jump(1)
                } else {
                    Control::Next
                }
            }
            _ => Control::Done,
        }
    }
}

/// The i-parallel execution plan.
#[derive(Debug, Clone, Default)]
pub struct IParallel {
    /// Tunables (block size).
    pub config: PlanConfig,
}

impl IParallel {
    /// Creates the plan with the given configuration.
    pub fn new(config: PlanConfig) -> Self {
        Self { config }
    }
}

/// Packs a particle set into padded float4 data (padding entries are all
/// zero, so their mass is zero and they exert no force).
pub(crate) fn packed_padded(set: &ParticleSet, n_padded: usize) -> Vec<f32> {
    let mut packed = set.pack_pos_mass_f32();
    packed.resize(n_padded * 4, 0.0);
    packed
}

impl ExecutionPlan for IParallel {
    fn kind(&self) -> PlanKind {
        PlanKind::IParallel
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

        let packed = packed_padded(set, n_padded);
        device.annotate("i-parallel: upload");
        let pos_mass = device.alloc_f32(packed.len());
        crate::recover::upload_f32_with_recovery(device, pos_mass, &packed);
        let acc_out = device.alloc_f32(n * 4);

        let kernel = IParallelKernel {
            pos_mass,
            acc_out,
            n,
            n_padded,
            block: p,
            eps_sq: (params.eps_sq()) as f32,
        };
        device.annotate("i-parallel: force-eval");
        crate::recover::launch_with_recovery(
            device,
            &kernel,
            NdRange { global: n_padded, local: p },
        );
        device.annotate("i-parallel: download");
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
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;
    use nbody_core::vec3::Vec3;

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
    }

    #[test]
    fn matches_cpu_reference() {
        let set = random_set(300, 1);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let outcome = IParallel::default().evaluate(&mut dev, &set, &params);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        let err = max_relative_error(&exact, &outcome.acc);
        assert!(err < 1e-3, "i-parallel error vs f64 reference: {err}");
    }

    #[test]
    fn respects_g_constant() {
        let set = random_set(50, 2);
        let params = GravityParams { g: 4.0, softening: 0.05 };
        let unit = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let a4 = IParallel::default().evaluate(&mut dev, &set, &params);
        let a1 = IParallel::default().evaluate(&mut dev, &set, &unit);
        for (x, y) in a4.acc.iter().zip(&a1.acc) {
            assert!((*x - *y * 4.0).norm() < 1e-9 * x.norm().max(1.0));
        }
    }

    #[test]
    fn one_launch_one_block_per_chunk() {
        let set = random_set(1000, 3);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let outcome = IParallel::default().evaluate(&mut dev, &set, &params);
        assert_eq!(outcome.launches, 1);
        // 1000 bodies, p=256 -> 4 blocks
        assert_eq!(dev.launches()[0].timing.num_groups, 4);
        assert_eq!(outcome.interactions, 1000 * 1000);
    }

    #[test]
    fn small_n_underutilizes_device() {
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let small = IParallel::default().evaluate(&mut dev, &random_set(512, 4), &params);
        // 2 blocks on 18 CUs: utilization must be terrible
        let util = dev.launches()[0].timing.utilization;
        assert!(util < 0.2, "utilization {util}");
        assert!(small.kernel_s > 0.0);
    }

    #[test]
    fn large_n_gflops_exceed_small_n() {
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let conv = nbody_core::flops::FlopConvention::Grape38;
        let mut dev = device();
        let small = IParallel::default().evaluate(&mut dev, &random_set(512, 5), &params);
        let large = IParallel::default().evaluate(&mut dev, &random_set(8192, 5), &params);
        assert!(
            large.gflops(conv) > 2.0 * small.gflops(conv),
            "large {} vs small {}",
            large.gflops(conv),
            small.gflops(conv)
        );
    }

    #[test]
    fn padding_is_harmless() {
        // n not a multiple of block: padded tail must not perturb forces
        let set = random_set(130, 6);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let outcome = IParallel::default().evaluate(&mut dev, &set, &params);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        assert!(max_relative_error(&exact, &outcome.acc) < 1e-3);
        assert_eq!(outcome.acc.len(), 130);
    }

    #[test]
    #[should_panic(expected = "softening")]
    fn zero_softening_rejected() {
        let set = random_set(16, 7);
        let params = GravityParams { g: 1.0, softening: 0.0 };
        let mut dev = device();
        IParallel::default().evaluate(&mut dev, &set, &params);
    }

    #[test]
    fn transfer_time_accounted() {
        let set = random_set(4096, 8);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let outcome = IParallel::default().evaluate(&mut dev, &set, &params);
        assert!(outcome.transfer_s > 0.0);
        assert!(outcome.total_seconds() >= outcome.kernel_seconds() + outcome.transfer_s);
    }
}
