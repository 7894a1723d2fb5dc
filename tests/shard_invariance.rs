//! Out-of-core invariance matrix: Morton-sharded and device-tree execution
//! must be *observably absent* — every shard count, thread count, and
//! backend substrate reproduces that substrate's unsharded forces and
//! post-kick total energy bit-for-bit, one shard is the unsharded run event
//! for event, the memory budget actually bounds
//! the device working set, and the PTPM pipeline forecast tracks the
//! simulated pipeline clock at moderate N.

use gpu_sim::prelude::{FaultConfig, FaultPlan, MemoryTraceSink, Trace};
use nbody_core::body::ParticleSet;
use nbody_core::energy::total_energy;
use nbody_core::gravity::GravityParams;
use nbody_core::vec3::Vec3;
use plans::prelude::{
    build_tree_on_device, default_device, evaluate_tree_plan, make_backend, predict_pipeline_shape,
    BackendKind, PlanConfig, PlanKind, PlanOutcome,
};
use ptpm::model::forecast_pipeline;
use treecode::tree::{Octree, TreeParams};
use workloads::spec::WorkloadSpec;

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

fn set(n: usize, seed: u64) -> ParticleSet {
    let mut s = WorkloadSpec::plummer(n, seed).generate();
    s.recenter();
    s
}

/// Total energy after kicking the velocities with `acc` — a scalar that is
/// bitwise-sensitive to every force component.
fn kicked_energy(set: &ParticleSet, acc: &[Vec3]) -> f64 {
    let mut kicked = set.clone();
    for (v, a) in kicked.vel_mut().iter_mut().zip(acc) {
        *v += *a * 1e-3;
    }
    total_energy(&kicked, &params())
}

#[test]
fn shard_matrix_reproduces_unsharded_forces_and_energy_bitwise() {
    let bodies = set(2048, 11);
    let p = params();
    for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
        for backend in [BackendKind::Sim, BackendKind::Host] {
            par::set_threads(1);
            let reference =
                make_backend(backend, PlanConfig::default()).evaluate(plan, &bodies, &p);
            let ref_energy = kicked_energy(&bodies, &reference.acc);
            for shards in [1usize, 2, 7, 64] {
                for threads in [1usize, 4] {
                    par::set_threads(threads);
                    let config = PlanConfig { shards: Some(shards), ..Default::default() };
                    let got = make_backend(backend, config).evaluate(plan, &bodies, &p);
                    let label =
                        format!("{} {} shards={shards} threads={threads}", plan.id(), backend.id());
                    assert_eq!(got.acc, reference.acc, "forces diverged: {label}");
                    assert_eq!(
                        kicked_energy(&bodies, &got.acc).to_bits(),
                        ref_energy.to_bits(),
                        "energy diverged: {label}"
                    );
                    assert!(
                        got.shards_used >= 1 && got.shards_used <= shards,
                        "shards_used {} outside [1, {shards}]: {label}",
                        got.shards_used
                    );
                }
            }
        }
    }
    par::set_threads(1);
}

/// Every field of [`PlanOutcome`] except the wall-clock `host_measured_s`.
fn assert_outcomes_identical(a: &PlanOutcome, b: &PlanOutcome, what: &str) {
    assert_eq!(a.acc, b.acc, "{what}: forces differ");
    assert_eq!(a.interactions, b.interactions, "{what}: interactions differ");
    assert_eq!(a.host_tree_s, b.host_tree_s, "{what}: host_tree_s differs");
    assert_eq!(a.host_walk_s, b.host_walk_s, "{what}: host_walk_s differs");
    assert_eq!(a.kernel_s, b.kernel_s, "{what}: kernel_s differs");
    assert_eq!(a.transfer_s, b.transfer_s, "{what}: transfer_s differs");
    assert_eq!(a.recovery_s, b.recovery_s, "{what}: recovery_s differs");
    assert_eq!(a.launches, b.launches, "{what}: launches differ");
    assert_eq!(a.overlap_walk_with_kernel, b.overlap_walk_with_kernel, "{what}: overlap differs");
    assert_eq!(a.pipeline_s, b.pipeline_s, "{what}: pipeline_s differs");
    assert_eq!(a.shards_used, b.shards_used, "{what}: shards_used differs");
    assert_eq!(a.peak_device_bytes, b.peak_device_bytes, "{what}: peak bytes differ");
}

/// One sim evaluation of `plan` with a recording trace sink and, when
/// `faults` is set, a seeded transient fault plan.
fn traced_run(
    plan: PlanKind,
    config: PlanConfig,
    faults: bool,
    bodies: &ParticleSet,
) -> (PlanOutcome, Trace) {
    let mut device = default_device();
    if faults {
        device.set_fault_plan(FaultPlan::new(3, FaultConfig::transient(0.3)));
    }
    let sink = MemoryTraceSink::new();
    device.set_trace_sink(Box::new(sink.clone()));
    let outcome = plans::evaluate(plan, &config, &mut device, bodies, &params());
    (outcome, sink.take())
}

#[test]
fn one_shard_is_the_unsharded_evaluation_event_for_event() {
    // an unsharded tree evaluation is the one-shard case of the shard loop:
    // same outcome, and the same launches, transfers, faults and marker
    // labels, with and without injected transient faults
    par::set_threads(1);
    let mut faults_seen = 0;
    for n in [1, 70, 1000] {
        let bodies = set(n, 13);
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            for faults in [false, true] {
                let (base, base_trace) = traced_run(plan, PlanConfig::default(), faults, &bodies);
                let one_shard = PlanConfig { shards: Some(1), ..Default::default() };
                let (one, one_trace) = traced_run(plan, one_shard, faults, &bodies);
                let what = format!("{} n={n} faults={faults}", plan.id());
                assert_outcomes_identical(&base, &one, &what);
                assert_eq!(one_trace, base_trace, "{what}: traces differ");
                assert!(!base_trace.markers.is_empty(), "{what}: no markers recorded");
                faults_seen += base_trace.faults.len();
            }
        }
    }
    assert!(faults_seen > 0, "the fault plan injected nothing");
}

#[test]
fn memory_budget_bounds_the_device_working_set() {
    par::set_threads(1);
    let bodies = set(4096, 3);
    let p = params();
    for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
        let unsharded =
            evaluate_tree_plan(plan, &PlanConfig::default(), &mut default_device(), &bodies, &p);
        let budget = unsharded.outcome.peak_device_bytes / 2;
        let config = PlanConfig { mem_budget_bytes: Some(budget), ..Default::default() };
        let run = evaluate_tree_plan(plan, &config, &mut default_device(), &bodies, &p);
        assert_eq!(run.outcome.acc, unsharded.outcome.acc, "{plan:?} budget run diverged");
        assert!(run.outcome.shards_used > 1, "{plan:?} budget produced no sharding");
        assert!(
            run.outcome.peak_device_bytes < unsharded.outcome.peak_device_bytes,
            "{plan:?} budget did not shrink the peak: {} vs {}",
            run.outcome.peak_device_bytes,
            unsharded.outcome.peak_device_bytes
        );
    }
}

#[test]
fn device_tree_is_byte_identical_even_when_degenerate() {
    par::set_threads(1);
    let p = params();
    // a healthy cloud and a fully coincident one (every body at one point,
    // which forces the documented host-build fallback path)
    let healthy = set(3000, 7);
    let mut coincident = set(96, 8);
    let anchor = coincident.pos()[0];
    for q in coincident.pos_mut() {
        *q = anchor;
    }
    for bodies in [&healthy, &coincident] {
        let tree_params = TreeParams { leaf_capacity: 16 };
        let host = Octree::build(bodies, tree_params);
        let built = build_tree_on_device(&mut default_device(), bodies, tree_params);
        assert_eq!(built.tree.nodes(), host.nodes(), "node records diverge");
        assert_eq!(built.tree.order(), host.order(), "body order diverges");
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let reference =
                evaluate_tree_plan(plan, &PlanConfig::default(), &mut default_device(), bodies, &p);
            let config = PlanConfig { device_tree: true, ..Default::default() };
            let run = evaluate_tree_plan(plan, &config, &mut default_device(), bodies, &p);
            assert_eq!(run.outcome.acc, reference.outcome.acc, "{plan:?} forces diverge");
        }
    }
}

#[test]
fn ptpm_pipeline_forecast_tracks_the_simulated_clock() {
    par::set_threads(1);
    let bodies = set(8192, 5);
    let config = PlanConfig { device_tree: true, ..Default::default() };
    let spec = gpu_sim::prelude::DeviceSpec::radeon_hd_5850();
    let xfer = gpu_sim::prelude::TransferModel::pcie2_x16();
    for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
        let run = evaluate_tree_plan(plan, &config, &mut default_device(), &bodies, &params());
        assert!(!run.shape.fallback_host_build, "{plan:?} unexpectedly fell back");
        let forecast = forecast_pipeline(&run.shape, &spec, &xfer).seconds();
        let ratio = forecast / run.outcome.pipeline_s;
        assert!(
            (0.8..1.25).contains(&ratio),
            "{plan:?}: forecast {forecast:.3e} vs observed {:.3e} (ratio {ratio:.3})",
            run.outcome.pipeline_s
        );
        // the autotuner's shape predictor must agree with the observed shape
        let predicted = predict_pipeline_shape(&bodies, &config);
        assert_eq!(predicted.entries, run.shape.entries, "{plan:?} predicted entries drift");
        assert_eq!(predicted.nodes, run.shape.nodes, "{plan:?} predicted nodes drift");
    }
}

/// The million-body out-of-core checks, for both tree plans at N = 2^20:
/// the device-built tree and a 16-shard split reproduce the in-core forces
/// bit-for-bit, sharding shrinks the peak device working set, the PTPM
/// pipeline forecast agrees with the simulated pipeline clock, and the
/// device pipeline beats the modeled host tree path (tree build + walk
/// generation + packed-list upload) by at least 1.5x. Minutes in debug, so
/// it runs in release: `cargo test --release --test shard_invariance --
/// --include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn million_body_device_tree_and_shards_are_exact_smaller_and_faster() {
    par::set_threads(1);
    let bodies = set(1 << 20, 20110101);
    let p = params();
    let spec = gpu_sim::prelude::DeviceSpec::radeon_hd_5850();
    let xfer = gpu_sim::prelude::TransferModel::pcie2_x16();
    for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
        let in_core =
            evaluate_tree_plan(plan, &PlanConfig::default(), &mut default_device(), &bodies, &p);
        let device_cfg = PlanConfig { device_tree: true, ..Default::default() };
        let device = evaluate_tree_plan(plan, &device_cfg, &mut default_device(), &bodies, &p);
        assert_eq!(device.outcome.acc, in_core.outcome.acc, "{plan:?} device tree diverged");
        let sharded_cfg = PlanConfig { shards: Some(16), ..Default::default() };
        let sharded = evaluate_tree_plan(plan, &sharded_cfg, &mut default_device(), &bodies, &p);
        assert_eq!(sharded.outcome.acc, in_core.outcome.acc, "{plan:?} 16 shards diverged");
        assert!(
            sharded.outcome.peak_device_bytes < in_core.outcome.peak_device_bytes,
            "{plan:?} sharding did not shrink the peak: {} vs {}",
            sharded.outcome.peak_device_bytes,
            in_core.outcome.peak_device_bytes
        );

        let pipeline_s = device.outcome.pipeline_s;
        let ratio = forecast_pipeline(&device.shape, &spec, &xfer).seconds() / pipeline_s;
        assert!(
            ratio > 0.8 && ratio < 1.25,
            "{plan:?}: forecast/pipeline {ratio:.3} outside (0.8, 1.25)"
        );
        let host_path_s = in_core.outcome.host_tree_s
            + in_core.outcome.host_walk_s
            + xfer.seconds(16 * device.shape.entries);
        assert!(
            pipeline_s * 1.5 <= host_path_s,
            "{plan:?}: pipeline {pipeline_s:.4}s is not 1.5x faster than the host path \
             {host_path_s:.4}s"
        );
    }
    par::set_threads(1);
}
