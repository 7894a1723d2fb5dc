//! # gpu-sim
//!
//! A software model of an OpenCL-class GPU, standing in for the AMD Radeon
//! HD 5850 the PTPM N-body paper evaluates on (see DESIGN.md §2 for the
//! substitution argument).
//!
//! The crate separates three concerns:
//!
//! * **Functional execution** ([`exec`]) — kernels written as phase machines
//!   really compute their results on device buffers, with work-group
//!   barriers and LDS semantics enforced by construction;
//! * **Event accounting** ([`cost`]) — each access/flop records events;
//! * **Timing** ([`sched`]) — a deterministic first-order performance model
//!   turns per-group events into simulated seconds, capturing occupancy,
//!   latency hiding, load balance, bandwidth floors, and launch overhead.
//!
//! [`device::Device`] ties them together behind an API that reads like an
//! OpenCL host program:
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! struct Scale(BufF32, f32);
//! impl Kernel for Scale {
//!     type ItemRegs = ();
//!     type GroupRegs = ();
//!     fn name(&self) -> &str { "scale" }
//!     fn lds_words(&self) -> usize { 0 }
//!     fn phase(&self, _p: usize, ctx: &mut ItemCtx<'_>, _r: &mut (), _g: &()) {
//!         let i = ctx.global_id;
//!         if i < ctx.len_f32(self.0) {
//!             let v = ctx.read_f32_coalesced(self.0, i);
//!             ctx.flops(1);
//!             ctx.write_f32_coalesced(self.0, i, v * self.1);
//!         }
//!     }
//!     fn control(&self, _p: usize, _g: &mut (), _i: &GroupInfo) -> Control {
//!         Control::Done
//!     }
//! }
//!
//! let mut dev = Device::new(DeviceSpec::radeon_hd_5850());
//! let buf = dev.alloc_f32(128);
//! dev.upload_f32(buf, &vec![2.0; 128]);
//! let timing = dev.launch(&Scale(buf, 3.0), NdRange::round_up(128, 64));
//! assert!(timing.seconds > 0.0);
//! assert_eq!(dev.download_f32(buf)[0], 6.0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod cost;
pub mod device;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod pcie;
pub mod race;
pub mod sched;
pub mod spec;
pub mod trace;

/// Common imports for writing and launching kernels.
pub mod prelude {
    pub use crate::buffer::{BufF32, BufU32, BufU64, BufferPool};
    pub use crate::cost::GroupCost;
    pub use crate::device::{Device, LaunchRecord, TransferRecord};
    pub use crate::exec::{GroupCtx, ItemCtx};
    pub use crate::fault::{
        CuHealth, FaultConfig, FaultCounts, FaultError, FaultKind, FaultPlan, RetryPolicy,
    };
    pub use crate::kernel::{Control, GroupInfo, Kernel, NdRange};
    pub use crate::pcie::TransferModel;
    pub use crate::race::{Race, RaceDetector, Space};
    pub use crate::sched::{schedule_launch, GroupPlacement, LaunchTiming};
    pub use crate::spec::DeviceSpec;
    pub use crate::trace::{FaultTrace, LaunchTrace, MemoryTraceSink, Trace, TraceSink};
}

pub use prelude::*;
