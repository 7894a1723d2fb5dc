//! Device-side potential energy — the diagnostics kernel.
//!
//! Production N-body codes evaluate the total potential on the device
//! periodically to monitor energy conservation without downloading
//! positions. The kernel mirrors i-parallel's tile structure: each thread
//! accumulates `Σ_j −m_i m_j / √(r² + ε²)` for its body over LDS tiles,
//! writes the per-body potential, and the host folds the (cheap) final sum.
//! The pair count is halved host-side since each unordered pair is counted
//! twice.

use crate::common::{PlanConfig, FLOPS_PER_INTERACTION};
use crate::i_parallel::packed_padded;
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;

/// Device kernel: per-body softened potential.
pub struct PotentialKernel {
    /// Padded float4 bodies.
    pub pos_mass: BufF32,
    /// Per-body potential output (`n` entries).
    pub pot_out: BufF32,
    /// Real body count.
    pub n: usize,
    /// Padded body count.
    pub n_padded: usize,
    /// Threads per block.
    pub block: usize,
    /// Softening squared.
    pub eps_sq: f32,
}

/// Per-thread registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct PotItemRegs {
    xi: [f32; 4],
    pot: f32,
}

/// Per-block registers.
#[derive(Debug, Default)]
pub struct PotGroupRegs {
    tile: usize,
}

impl Kernel for PotentialKernel {
    type ItemRegs = PotItemRegs;
    type GroupRegs = PotGroupRegs;

    fn name(&self) -> &str {
        "potential"
    }

    fn lds_words(&self) -> usize {
        self.block * 4
    }

    fn phase(
        &self,
        phase: usize,
        ctx: &mut ItemCtx<'_>,
        regs: &mut PotItemRegs,
        group: &PotGroupRegs,
    ) {
        match phase {
            0 => {
                regs.xi = ctx.read_f32_vec_coalesced::<4>(self.pos_mass, 4 * ctx.global_id);
                regs.pot = 0.0;
            }
            1 => {
                let j = group.tile * self.block + ctx.local_id;
                let v = ctx.read_f32_vec_coalesced::<4>(self.pos_mass, 4 * j);
                ctx.lds_write_slice(4 * ctx.local_id, &v);
            }
            2 => {
                let p = self.block;
                ctx.charge_flops((FLOPS_PER_INTERACTION * p as u64) as f64 * 0.5);
                let xi = regs.xi;
                let mut pot = regs.pot;
                let lds = ctx.lds_read_slice(0, 4 * p);
                for j in 0..p {
                    let dx = lds[4 * j] - xi[0];
                    let dy = lds[4 * j + 1] - xi[1];
                    let dz = lds[4 * j + 2] - xi[2];
                    let r2 = dx * dx + dy * dy + dz * dz + self.eps_sq;
                    let inv_r = 1.0 / r2.sqrt();
                    // exclude the self-pair: its dx=dy=dz=0 term would add
                    // the (finite, softened) self-energy m²/ε
                    if r2 > self.eps_sq {
                        pot -= xi[3] * lds[4 * j + 3] * inv_r;
                    }
                }
                regs.pot = pot;
            }
            3 => {
                if ctx.global_id < self.n {
                    ctx.write_f32_coalesced(self.pot_out, ctx.global_id, regs.pot);
                }
            }
            _ => unreachable!("potential kernel has 4 phases"),
        }
    }

    fn control(&self, phase: usize, group: &mut PotGroupRegs, _info: &GroupInfo) -> Control {
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

/// Computes the total softened potential energy on the device. Returns
/// `(energy, simulated device seconds of this diagnostic)`.
pub fn potential_on_device(
    device: &mut Device,
    set: &ParticleSet,
    params: &GravityParams,
    config: &PlanConfig,
) -> (f64, f64) {
    assert!(params.softening > 0.0, "device diagnostics require softening > 0");
    device.begin_evaluation();
    let n = set.len();
    let p = config.block_size;
    let n_padded = n.div_ceil(p).max(1) * p;
    let packed = packed_padded(set, n_padded);
    let pos_mass = device.alloc_f32(packed.len());
    device.upload_f32(pos_mass, &packed);
    let pot_out = device.alloc_f32(n);
    let kernel = PotentialKernel {
        pos_mass,
        pot_out,
        n,
        n_padded,
        block: p,
        eps_sq: params.eps_sq() as f32,
    };
    device.launch(&kernel, NdRange { global: n_padded, local: p });
    let per_body = device.download_f32(pot_out);
    // each unordered pair counted twice
    let total: f64 = per_body.iter().map(|&v| f64::from(v)).sum::<f64>() * 0.5 * params.g;
    (total, device.device_seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::gravity::potential_energy;
    use nbody_core::testutil::random_set;

    fn device() -> Device {
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
    }

    #[test]
    fn matches_cpu_potential() {
        let set = random_set(500, 1);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let cpu = potential_energy(&set, &params);
        let mut dev = device();
        let (gpu, seconds) = potential_on_device(&mut dev, &set, &params, &PlanConfig::default());
        let rel = ((gpu - cpu) / cpu).abs();
        assert!(rel < 1e-4, "device potential {gpu} vs CPU {cpu} (rel {rel})");
        assert!(seconds > 0.0);
    }

    #[test]
    fn respects_g() {
        let set = random_set(100, 2);
        let mut dev = device();
        let cfg = PlanConfig::default();
        let (u1, _) =
            potential_on_device(&mut dev, &set, &GravityParams { g: 1.0, softening: 0.05 }, &cfg);
        let (u3, _) =
            potential_on_device(&mut dev, &set, &GravityParams { g: 3.0, softening: 0.05 }, &cfg);
        assert!((u3 - 3.0 * u1).abs() < 1e-9 * u1.abs());
    }

    #[test]
    fn potential_is_negative_and_padding_harmless() {
        let set = random_set(130, 3); // not a block multiple
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        let (u, _) = potential_on_device(&mut dev, &set, &params, &PlanConfig::default());
        assert!(u < 0.0);
        let cpu = potential_energy(&set, &params);
        assert!(((u - cpu) / cpu).abs() < 1e-4);
    }

    #[test]
    fn kernel_is_race_free() {
        let set = random_set(256, 4);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let mut dev = device();
        dev.set_race_checking(true);
        let _ = potential_on_device(&mut dev, &set, &params, &PlanConfig::default());
        assert!(dev.races().is_empty());
    }
}
