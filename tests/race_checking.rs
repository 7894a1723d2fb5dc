//! Race-detection validation: every production kernel (all four plans, both
//! reduction kernels) must execute cleanly under the device's intra-phase
//! data-race checker, and a deliberately racy kernel must be caught.

use gpu_sim::prelude::*;
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

#[test]
fn all_plan_kernels_are_race_free() {
    let mut dev =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16());
    dev.set_race_checking(true);
    let set = plummer(700, PlummerParams::default(), 3); // not a block multiple
    let params = GravityParams { g: 1.0, softening: 0.05 };
    for kind in PlanKind::all() {
        let _ = plans::evaluate(kind, &PlanConfig::default(), &mut dev, &set, &params);
        assert!(
            dev.races().is_empty(),
            "{}: {} race(s), first: {}",
            kind.id(),
            dev.races().len(),
            dev.races()[0]
        );
    }
}

/// A kernel where every item writes LDS word 0 in the same phase — the
/// classic unsynchronized reduction bug.
struct RacyReduction {
    input: BufF32,
    output: BufF32,
}

impl Kernel for RacyReduction {
    type ItemRegs = ();
    type GroupRegs = ();

    fn name(&self) -> &str {
        "racy-reduction"
    }

    fn lds_words(&self) -> usize {
        1
    }

    fn phase(&self, phase: usize, ctx: &mut ItemCtx<'_>, _r: &mut (), _g: &()) {
        match phase {
            0 => {
                // every item accumulates into the same LDS word without a
                // barrier: write-write race
                let v = ctx.read_f32_coalesced(self.input, ctx.global_id);
                let cur = ctx.lds_read(0);
                ctx.lds_write(0, cur + v);
            }
            _ => {
                if ctx.local_id == 0 {
                    let sum = ctx.lds_read(0);
                    ctx.write_f32(self.output, ctx.group_id, sum);
                }
            }
        }
    }

    fn control(&self, phase: usize, _g: &mut (), _i: &GroupInfo) -> Control {
        if phase == 0 {
            Control::Next
        } else {
            Control::Done
        }
    }
}

#[test]
fn racy_kernel_is_caught() {
    let mut dev =
        Device::with_transfer_model(DeviceSpec::tiny_test_device(), TransferModel::free());
    let input = dev.alloc_f32(8);
    let output = dev.alloc_f32(2);
    dev.upload_f32(input, &[1.0; 8]);
    let k = RacyReduction { input, output };
    let (_timing, races) = dev.launch_checked(&k, NdRange { global: 8, local: 4 });
    assert!(!races.is_empty(), "the unsynchronized reduction must be flagged");
    // the report names LDS word 0
    let r = &races[0];
    assert_eq!(r.space, Space::Lds);
    assert_eq!(r.index, 0);
    assert!(r.to_string().contains("LDS"));
    // the device-level log saw them too when the mode flag is used
    dev.set_race_checking(true);
    dev.reset_clocks();
    let _ = dev.launch(&k, NdRange { global: 8, local: 4 });
    assert!(!dev.races().is_empty());
}

#[test]
fn unchecked_launches_report_no_races() {
    let mut dev =
        Device::with_transfer_model(DeviceSpec::tiny_test_device(), TransferModel::free());
    let input = dev.alloc_f32(8);
    let output = dev.alloc_f32(2);
    let k = RacyReduction { input, output };
    let _ = dev.launch(&k, NdRange { global: 8, local: 4 });
    assert!(dev.races().is_empty()); // mode off: nothing recorded
}

#[test]
fn checked_and_unchecked_execution_produce_identical_results() {
    // the detector must be observation-only
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let set = plummer(300, PlummerParams::default(), 5);
    let mut fast = Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
    let mut checked =
        Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
    checked.set_race_checking(true);
    let (kind, config) = (PlanKind::JwParallel, PlanConfig::default());
    let a = plans::evaluate(kind, &config, &mut fast, &set, &params);
    let b = plans::evaluate(kind, &config, &mut checked, &set, &params);
    assert_eq!(a.acc, b.acc);
    assert_eq!(a.kernel_s, b.kernel_s);
}
