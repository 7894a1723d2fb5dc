//! The kernel programming model.
//!
//! A simulated kernel is written as a **phase machine**: the body between two
//! consecutive barriers is one *phase*. The executor runs phase `k` for every
//! work-item of a group (through [`Kernel::phase_group`]: item by item unless
//! the kernel runs that phase for the whole group), then consults the kernel's
//! [`Kernel::control`] to decide what follows the implicit barrier — proceed,
//! loop back, or finish.
//!
//! This encodes OpenCL's rule that barriers must be reached uniformly by all
//! work-items of a group: control flow across barriers lives in *group*
//! state ([`Kernel::GroupRegs`]), while divergent per-item state lives in
//! *item* registers ([`Kernel::ItemRegs`]). A kernel that would deadlock on
//! real hardware (non-uniform barrier) simply cannot be expressed.
//!
//! Example: the tile loop of the paper's PP kernels is
//!
//! ```text
//! phase 0: load my j-body into LDS           // barrier
//! phase 1: accumulate p interactions from LDS // barrier
//! control after 1: more tiles? Jump(0) : Next
//! phase 2: write accumulated acceleration     // Done
//! ```

use serde::{Deserialize, Serialize};

/// What the group does after finishing a phase (at the implicit barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Advance to the next phase index.
    Next,
    /// Jump to an arbitrary phase (loops).
    Jump(usize),
    /// The group has finished the kernel.
    Done,
}

/// One-dimensional launch geometry (sufficient for every kernel in the
/// paper; OpenCL's 2D/3D ranges linearize to this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NdRange {
    /// Total work-items.
    pub global: usize,
    /// Work-items per work-group. Must divide `global`.
    pub local: usize,
}

impl NdRange {
    /// Creates a range, rounding `global` up to a multiple of `local`
    /// (kernels guard with `global_id < n` exactly as OpenCL code does).
    pub fn round_up(work_items: usize, local: usize) -> Self {
        assert!(local > 0, "local size must be positive");
        let global = work_items.div_ceil(local).max(1) * local;
        Self { global, local }
    }

    /// Number of work-groups.
    pub fn num_groups(&self) -> usize {
        self.global / self.local
    }

    /// Validates divisibility and non-emptiness.
    pub fn validate(&self) -> Result<(), String> {
        if self.local == 0 || self.global == 0 {
            return Err("NdRange sizes must be positive".into());
        }
        if !self.global.is_multiple_of(self.local) {
            return Err(format!(
                "global size {} not a multiple of local size {}",
                self.global, self.local
            ));
        }
        Ok(())
    }
}

/// Static facts about the group being executed, available to
/// [`Kernel::control`].
#[derive(Debug, Clone, Copy)]
pub struct GroupInfo {
    /// This group's index.
    pub group_id: usize,
    /// Work-items per group.
    pub local_size: usize,
    /// Total work-items in the launch.
    pub global_size: usize,
    /// Total groups in the launch.
    pub num_groups: usize,
}

/// A simulated GPU kernel.
///
/// Implementations are pure policies: all mutable state lives in the
/// executor-owned registers and device buffers, so a single kernel value can
/// be launched many times. The `Sync` bound lets the executor run disjoint
/// work-group chunks of one launch on host worker threads sharing `&self`;
/// kernels are plain parameter blocks (buffer handles, sizes), so the bound
/// is automatic in practice.
pub trait Kernel: Sync {
    /// Per-work-item registers (divergent state).
    type ItemRegs: Default + Clone;
    /// Per-work-group registers (uniform state: loop counters etc.).
    type GroupRegs: Default;

    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// LDS words this kernel allocates per group.
    fn lds_words(&self) -> usize;

    /// Human-readable label for a phase index, used by execution traces
    /// (e.g. `"tile-load"`, `"force-eval"`). The default is the bare index.
    fn phase_label(&self, phase: usize) -> String {
        format!("phase{phase}")
    }

    /// Executes one phase for one work-item. A kernel that runs every phase
    /// in [`Kernel::phase_group`] keeps this default, which panics.
    fn phase(
        &self,
        phase: usize,
        _ctx: &mut crate::exec::ItemCtx<'_>,
        _regs: &mut Self::ItemRegs,
        _group: &Self::GroupRegs,
    ) {
        unreachable!("kernel `{}` runs phase {phase} in phase_group only", self.name())
    }

    /// Executes one phase for the whole group: `items` holds every item's
    /// registers in local-id order. The default runs [`Kernel::phase`] for
    /// each item in local-id order. A kernel overrides it to run a phase for
    /// the whole group at once: its items as SIMD lanes over shared data, or
    /// its loads and stores through the group-level primitives of
    /// [`crate::exec::GroupCtx`]. The override must leave memory, registers,
    /// charges and race reports exactly as the item-by-item run would, and
    /// delegates any phase it does not cover to
    /// [`crate::exec::GroupCtx::for_each_item`].
    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut crate::exec::GroupCtx<'_>,
        items: &mut [Self::ItemRegs],
        group: &Self::GroupRegs,
    ) {
        ctx.for_each_item(items, |item, regs| self.phase(phase, item, regs, group));
    }

    /// Decides, after all items finished `phase`, what the group does next.
    /// May mutate the group registers (advance loop counters).
    fn control(&self, phase: usize, group: &mut Self::GroupRegs, info: &GroupInfo) -> Control;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndrange_round_up() {
        let r = NdRange::round_up(100, 32);
        assert_eq!(r.global, 128);
        assert_eq!(r.local, 32);
        assert_eq!(r.num_groups(), 4);
        assert!(r.validate().is_ok());
        // exact multiple stays
        assert_eq!(NdRange::round_up(64, 32).global, 64);
        // zero items still yields one group
        assert_eq!(NdRange::round_up(0, 16).global, 16);
    }

    #[test]
    fn ndrange_validation() {
        assert!(NdRange { global: 64, local: 32 }.validate().is_ok());
        assert!(NdRange { global: 65, local: 32 }.validate().is_err());
        assert!(NdRange { global: 0, local: 32 }.validate().is_err());
        assert!(NdRange { global: 32, local: 0 }.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "local size must be positive")]
    fn round_up_zero_local_panics() {
        NdRange::round_up(10, 0);
    }
}
