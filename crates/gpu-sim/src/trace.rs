//! Execution traces: structured timeline events recorded by the device.
//!
//! The simulator already *computes* a full schedule for every launch — which
//! compute unit each work-group lands on, when it starts and ends, what it
//! charged per phase — but the default launch path throws that structure
//! away, keeping only aggregate [`LaunchTiming`]s. This module captures it:
//!
//! * [`TraceSink`] — the hook the device drives. When no sink is installed
//!   the device takes the exact pre-existing code path (no per-phase
//!   profiling, no placement capture), so tracing is zero-cost when
//!   disabled.
//! * [`LaunchTrace`] / [`GroupSpan`] / [`PhaseSummary`] — one kernel launch
//!   with its per-work-group CU placements (start/end cycles) and per-phase
//!   cost breakdown (flops, LDS and global traffic, barriers), as labelled
//!   by [`Kernel::phase_label`](crate::kernel::Kernel::phase_label).
//! * [`TransferTrace`] / [`MarkerTrace`] — PCIe transfers and host-issued
//!   annotations on the same timeline.
//! * [`MemoryTraceSink`] — the standard sink: accumulates a [`Trace`] in
//!   memory behind a shared handle, so the caller keeps access while the
//!   device owns the sink.
//!
//! All event times are simulated: seconds on the device timeline
//! (`kernel_seconds + transfer_seconds` at the moment the event began) and
//! core cycles within a launch. Converting cycles to the shared timeline is
//! `start_s + cycle / clock_hz`; the harness's exporters do exactly that.

use crate::cost::GroupCost;
use crate::exec::PhaseCost;
use crate::fault::FaultKind;
use crate::kernel::NdRange;
use crate::sched::LaunchTiming;
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// One work-group's stay on its compute unit, with its phase breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSpan {
    /// Work-group index (launch order).
    pub group: usize,
    /// Compute unit the scheduler placed it on.
    pub cu: usize,
    /// Start of the span in core cycles from launch start.
    pub start_cycle: f64,
    /// End of the span in core cycles from launch start.
    pub end_cycle: f64,
    /// Everything the group charged.
    pub cost: GroupCost,
    /// Per-phase cost breakdown, ordered by phase index.
    pub phases: Vec<PhaseCost>,
}

/// Launch-wide aggregate of one phase index across all groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase index in the kernel's phase machine.
    pub phase: usize,
    /// Label from [`Kernel::phase_label`](crate::kernel::Kernel::phase_label)
    /// (e.g. `"tile-load"`, `"force-eval"`).
    pub label: String,
    /// Phase executions summed over groups (loops execute a phase many
    /// times).
    pub executions: u64,
    /// Cost summed over all executions in all groups.
    pub cost: GroupCost,
}

/// One kernel launch: geometry, timing, placements, phase breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchTrace {
    /// Sequence number on this device since the last clock reset.
    pub launch_id: usize,
    /// Kernel name.
    pub kernel: String,
    /// Launch geometry.
    pub grid: NdRange,
    /// LDS words per group.
    pub lds_words: usize,
    /// Device-timeline seconds at which the launch began.
    pub start_s: f64,
    /// Wavefronts each work-group occupies.
    pub wavefronts_per_group: usize,
    /// Resident wavefront slots used / available, per CU, in `[0, 1]`.
    pub wavefront_occupancy: f64,
    /// Timing under the device model.
    pub timing: LaunchTiming,
    /// Per-work-group placements, in group order.
    pub groups: Vec<GroupSpan>,
    /// Launch-wide per-phase aggregates, ordered by phase index.
    pub phases: Vec<PhaseSummary>,
}

impl LaunchTrace {
    /// Device-timeline seconds at which the launch retired.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.timing.seconds
    }

    /// Bytes moved per charged flop — the memory-vs-compute character of
    /// the launch (pair with [`LaunchTiming::bandwidth_bound`] for the
    /// model's own verdict).
    pub fn bytes_per_flop(&self) -> f64 {
        if self.timing.total_cost.flops <= 0.0 {
            return 0.0;
        }
        self.timing.total_cost.total_bytes() / self.timing.total_cost.flops
    }
}

/// One PCIe transfer on the device timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferTrace {
    /// Sequence number on this device since the last clock reset.
    pub transfer_id: usize,
    /// Bytes moved.
    pub bytes: usize,
    /// True for host→device.
    pub to_device: bool,
    /// Device-timeline seconds at which the transfer began.
    pub start_s: f64,
    /// Simulated transfer seconds.
    pub seconds: f64,
}

/// A host-issued instant annotation (e.g. a plan marking `"force-eval"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkerTrace {
    /// Annotation text.
    pub label: String,
    /// Device-timeline seconds at which it was issued.
    pub at_s: f64,
}

/// One injected fault on the device timeline (see the `fault` module). The
/// fault-free golden traces never contain these rows, so enabling fault
/// injection cannot perturb existing exports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTrace {
    /// Sequence number on this device since the last clock reset.
    pub fault_id: usize,
    /// What was injected.
    pub kind: FaultKind,
    /// The operation it hit (kernel name, `"h2d"`, or `"d2h"`).
    pub op: String,
    /// Device-timeline seconds at which the faulted operation began.
    pub at_s: f64,
    /// Simulated seconds the failed attempt cost.
    pub charged_s: f64,
}

/// A complete recorded trace: device identity plus every event in issue
/// order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Device name from the spec.
    pub device: String,
    /// Core clock, for converting cycles to seconds.
    pub clock_hz: f64,
    /// Compute units — the spatial extent of the time-space grid.
    pub compute_units: usize,
    /// Kernel launches.
    pub launches: Vec<LaunchTrace>,
    /// PCIe transfers.
    pub transfers: Vec<TransferTrace>,
    /// Host annotations.
    pub markers: Vec<MarkerTrace>,
    /// Injected faults (empty on fault-free runs).
    pub faults: Vec<FaultTrace>,
}

impl Trace {
    /// True if no event of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
            && self.transfers.is_empty()
            && self.markers.is_empty()
            && self.faults.is_empty()
    }

    /// Seconds from the first event to the last retirement.
    pub fn span_s(&self) -> f64 {
        let end = self
            .launches
            .iter()
            .map(LaunchTrace::end_s)
            .chain(self.transfers.iter().map(|t| t.start_s + t.seconds))
            .fold(0.0_f64, f64::max);
        end
    }
}

/// Receives trace events from a device. Install with
/// [`Device::set_trace_sink`](crate::device::Device::set_trace_sink);
/// while no sink is installed the device skips all collection work.
///
/// The `Send` bound keeps whole devices `Send`, so a device can be handed to
/// a worker thread. Events still arrive from a single thread at a time —
/// the device serializes its own issue order — so a sink needs interior
/// synchronization only if its handles are shared across devices (as
/// [`MemoryTraceSink`]'s mutex provides).
pub trait TraceSink: std::fmt::Debug + Send {
    /// Called once when the sink is installed, with the device spec.
    fn begin(&mut self, spec: &DeviceSpec) {
        let _ = spec;
    }

    /// A kernel launch retired.
    fn launch(&mut self, event: LaunchTrace);

    /// A PCIe transfer completed.
    fn transfer(&mut self, event: TransferTrace);

    /// The host annotated the timeline.
    fn marker(&mut self, event: MarkerTrace);

    /// A fault was injected. Default no-op so pre-existing sinks keep
    /// compiling and fault-free traces stay byte-identical.
    fn fault(&mut self, event: FaultTrace) {
        let _ = event;
    }
}

/// The standard sink: accumulates a [`Trace`] in memory. Cloning produces a
/// handle onto the *same* trace, so the caller can keep one handle and give
/// the device the other:
///
/// ```
/// use gpu_sim::prelude::*;
///
/// let mut dev = Device::new(DeviceSpec::tiny_test_device());
/// let sink = MemoryTraceSink::new();
/// dev.set_trace_sink(Box::new(sink.clone()));
/// let buf = dev.alloc_f32(8);
/// dev.upload_f32(buf, &[1.0; 8]);
/// let trace = sink.snapshot();
/// assert_eq!(trace.transfers.len(), 1);
/// assert_eq!(trace.device, "tiny-test-device");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryTraceSink {
    trace: Arc<Mutex<Trace>>,
}

impl MemoryTraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        self.trace.lock().expect("trace sink poisoned").clone()
    }

    /// Takes the recorded trace, leaving the sink recording into an empty
    /// one (device identity is preserved).
    pub fn take(&self) -> Trace {
        let mut t = self.trace.lock().expect("trace sink poisoned");
        let taken = t.clone();
        t.launches.clear();
        t.transfers.clear();
        t.markers.clear();
        t.faults.clear();
        taken
    }
}

impl TraceSink for MemoryTraceSink {
    fn begin(&mut self, spec: &DeviceSpec) {
        let mut t = self.trace.lock().expect("trace sink poisoned");
        t.device = spec.name.clone();
        t.clock_hz = spec.clock_hz;
        t.compute_units = spec.compute_units as usize;
    }

    fn launch(&mut self, event: LaunchTrace) {
        self.trace.lock().expect("trace sink poisoned").launches.push(event);
    }

    fn transfer(&mut self, event: TransferTrace) {
        self.trace.lock().expect("trace sink poisoned").transfers.push(event);
    }

    fn marker(&mut self, event: MarkerTrace) {
        self.trace.lock().expect("trace sink poisoned").markers.push(event);
    }

    fn fault(&mut self, event: FaultTrace) {
        self.trace.lock().expect("trace sink poisoned").faults.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_handles_share_one_trace() {
        let a = MemoryTraceSink::new();
        let mut b = a.clone();
        b.marker(MarkerTrace { label: "x".into(), at_s: 0.5 });
        assert_eq!(a.snapshot().markers.len(), 1);
        let taken = a.take();
        assert_eq!(taken.markers.len(), 1);
        assert!(a.snapshot().is_empty());
    }

    #[test]
    fn fault_events_recorded_and_taken() {
        let mut sink = MemoryTraceSink::new();
        sink.fault(FaultTrace {
            fault_id: 0,
            kind: FaultKind::TransferError,
            op: "h2d".into(),
            at_s: 0.25,
            charged_s: 1e-5,
        });
        let t = sink.snapshot();
        assert_eq!(t.faults.len(), 1);
        assert_eq!(t.faults[0].kind, FaultKind::TransferError);
        assert!(!t.is_empty());
        sink.take();
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn trace_span_covers_latest_event() {
        let mut t = Trace::default();
        t.transfers.push(TransferTrace {
            transfer_id: 0,
            bytes: 4,
            to_device: true,
            start_s: 1.0,
            seconds: 0.5,
        });
        assert!((t.span_s() - 1.5).abs() < 1e-12);
    }
}
