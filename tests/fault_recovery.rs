//! Fault-recovery invariants, end to end.
//!
//! The contract of the fault subsystem (`gpu_sim::fault`, `plans::recover`,
//! `harness::faults`): a run that hits transient injected faults and
//! recovers by retry must reproduce the fault-free forces **bit-exactly**,
//! with the recovery overhead visible on the simulated clocks; and a crashed
//! checkpointed run must resume into a bit-exact trajectory.

mod common;

use gpu_sim::prelude::{Device, DeviceSpec, FaultConfig, FaultPlan, TransferModel};
use nbody_core::prelude::*;
use plans::prelude::*;
use workloads::prelude::{plummer, PlummerParams};

fn device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
}

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

#[test]
fn every_plan_recovers_transient_faults_bitexactly() {
    let set = plummer(700, PlummerParams::default(), 17);
    for kind in PlanKind::all() {
        let mut clean_dev = device();
        let clean = plans::evaluate(kind, &PlanConfig::default(), &mut clean_dev, &set, &params());

        let mut faulty_dev = device();
        faulty_dev.set_fault_plan(FaultPlan::new(19, FaultConfig::transient(0.25)));
        let faulty =
            plans::evaluate(kind, &PlanConfig::default(), &mut faulty_dev, &set, &params());

        assert_eq!(clean.acc, faulty.acc, "{}: recovered forces differ", kind.id());
        assert_eq!(clean.interactions, faulty.interactions);
        let counts = faulty_dev.fault_plan().unwrap().counts();
        assert!(counts.total() > 0, "{}: seed 19 at p=0.25 must inject faults", kind.id());
        assert!(faulty.recovery_s > 0.0, "{}: recovery overhead must be charged", kind.id());
        assert_eq!(clean.recovery_s, 0.0);
        assert!(
            faulty.total_seconds() > clean.total_seconds(),
            "{}: recovery must show in the end-to-end time",
            kind.id()
        );
    }
}

#[test]
fn fault_overhead_is_visible_in_the_execution_trace() {
    use gpu_sim::trace::MemoryTraceSink;
    let set = plummer(500, PlummerParams::default(), 23);
    let mut dev = device();
    dev.set_fault_plan(FaultPlan::new(19, FaultConfig::transient(0.25)));
    let sink = MemoryTraceSink::new();
    dev.set_trace_sink(Box::new(sink.clone()));
    let _ =
        plans::evaluate(PlanKind::JwParallel, &PlanConfig::default(), &mut dev, &set, &params());
    let trace = sink.snapshot();
    assert!(!trace.faults.is_empty(), "injected faults must be recorded as trace events");
    for (i, ft) in trace.faults.iter().enumerate() {
        assert_eq!(ft.fault_id, i, "fault ids are sequential");
        assert!(ft.at_s >= 0.0 && ft.charged_s >= 0.0);
        assert!(!ft.op.is_empty());
    }
}

#[test]
fn fault_recovery_is_thread_count_invariant() {
    // Injected faults draw from a per-device deterministic stream indexed
    // by operation order, and the host thread pool never reorders device
    // operations — so for any fault seed, the recovered forces AND the
    // simulated recovery overhead must be identical at every thread count.
    let set = plummer(500, PlummerParams::default(), 37);
    let faulty_eval = |kind: PlanKind, seed: u64| {
        let mut dev = device();
        dev.set_fault_plan(FaultPlan::new(seed, FaultConfig::transient(0.25)));
        plans::evaluate(kind, &PlanConfig::default(), &mut dev, &set, &params())
    };
    for seed in [3u64, 19, 101] {
        for kind in PlanKind::all() {
            par::set_threads(1);
            let base = faulty_eval(kind, seed);
            assert!(base.recovery_s > 0.0, "{}: seed {seed} must inject faults", kind.id());
            for t in [2, 3, 8] {
                par::set_threads(t);
                let o = faulty_eval(kind, seed);
                let what = format!("{} seed {seed} @ {t} threads", kind.id());
                assert_eq!(base.acc, o.acc, "{what}: recovered forces differ");
                assert_eq!(base.recovery_s, o.recovery_s, "{what}: recovery_s differs");
                assert_eq!(base.kernel_s, o.kernel_s, "{what}: kernel_s differs");
                assert_eq!(base.launches, o.launches, "{what}: launches differ");
            }
        }
    }
    par::set_threads(1);
}

#[test]
fn checkpoint_restart_reproduces_the_fault_free_trajectory() {
    let spec = harness::faults::smoke(13);
    let dir = common::ScratchDir::new("fault-recovery");
    let report = harness::error::or_exit(harness::faults::demo(&spec, &dir));
    assert!(report.ends_with("FAULTS OK\n"), "{report}");
}

#[test]
fn unrecoverable_device_loss_panics_with_context() {
    let set = plummer(300, PlummerParams::default(), 31);
    let result = std::panic::catch_unwind(|| {
        let mut dev = device();
        // certain loss: the very first operation fails permanently
        dev.set_fault_plan(FaultPlan::new(1, FaultConfig::default().with_device_loss(1.0)));
        plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &params())
    });
    let err = result.expect_err("a lost single device cannot complete");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("beyond recovery"), "panic message must explain: {msg}");
}
