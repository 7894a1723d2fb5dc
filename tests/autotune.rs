//! Acceptance gates for the PTPM-pruned autotuner (ISSUE 9):
//!
//! * the pruned shortlist finds the same winner as the full grid search on
//!   the conformance matrix's workloads, for both objectives;
//! * `--plan auto` is *referentially transparent*: an auto-resolved job is
//!   content-identical (same canonical hash, bit-exact trajectory) to the
//!   same job with the resolved plan and tile pinned explicitly — tuning
//!   selects, it never changes physics;
//! * the resolution chain degrades exactly as documented: fresh spool →
//!   forecast/measured (persisted), second call → DB hit with the
//!   identical choice, corrupt DB → typed error recorded, fallback taken,
//!   file healed.

mod common;

use common::ScratchDir;
use gpu_sim::prelude::DeviceSpec;
use jobs::prelude::*;
use nbody_core::gravity::GravityParams;
use plans::prelude::*;
use workloads::spec::{WorkloadKind, WorkloadSpec};

fn params() -> GravityParams {
    GravityParams { g: 1.0, softening: 0.05 }
}

fn tmp(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("autotune-{name}"))
}

/// The same workload matrix the backend conformance suite pins.
fn matrix() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec { kind: WorkloadKind::Plummer, n: 256, seed: 20110101 },
        WorkloadSpec { kind: WorkloadKind::UniformCube, n: 320, seed: 3 },
        WorkloadSpec { kind: WorkloadKind::Disk, n: 192, seed: 7 },
        WorkloadSpec { kind: WorkloadKind::ClusterCollision, n: 256, seed: 11 },
    ]
}

#[test]
fn pruned_shortlist_finds_the_full_grid_winner_on_the_conformance_matrix() {
    let spec = DeviceSpec::radeon_hd_5850();
    let base = PlanConfig::default();
    for workload in matrix() {
        let mut set = workload.generate();
        set.recenter();
        for objective in [TuneObjective::KernelTime, TuneObjective::TotalTime] {
            let pruned = autotune(base, &spec, &set, &params(), objective, DEFAULT_SHORTLIST);
            assert!(pruned.winner_reproducible, "{} {objective:?}", workload.label());
            assert!(
                pruned.measured.len() < pruned.forecasts.len(),
                "{}: pruning must actually skip measurements ({} !< {})",
                workload.label(),
                pruned.measured.len(),
                pruned.forecasts.len()
            );
            let full = measure(&full_grid(base, &spec), &spec, &set, &params(), objective);
            let full_best =
                full.iter().min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap()).unwrap();
            assert_eq!(
                pruned.best,
                full_best.candidate,
                "{} {objective:?}: pruned winner differs from full grid search",
                workload.label()
            );
            assert_eq!(pruned.best_seconds, full_best.seconds);
        }
    }
}

#[test]
fn auto_resolved_job_is_content_identical_to_the_pinned_job() {
    // resolve --plan auto the way submit does, then run BOTH the resolved
    // spec and a hand-pinned twin: same canonical hash (one cache entry),
    // bit-exact final snapshot, provenance differs only in plan_source
    let dir = tmp("referential");
    let workload = WorkloadSpec::plummer(96, 5);
    let resolution = resolve_plan(
        &RealFs,
        &dir.join("tuning.json"),
        &workload,
        BackendKind::Auto,
        TuneObjective::TotalTime,
        DEFAULT_SHORTLIST,
    );
    assert!(resolution.db_error.is_none(), "{:?}", resolution.db_error);

    let mut auto_spec = JobSpec::new(workload, resolution.kind, 4);
    auto_spec.tile = Some(resolution.tile());
    auto_spec.plan_source = Some(resolution.plan_source_label());
    let pinned_spec =
        JobSpec { plan_source: None, ..JobSpec { tile: auto_spec.tile, ..auto_spec.clone() } };
    assert_eq!(
        auto_spec.canonical_hash(),
        pinned_spec.canonical_hash(),
        "plan_source is provenance, not identity"
    );

    let auto_result = match run_job(&auto_spec, &dir.join("auto"), &RunOptions::default()).unwrap()
    {
        RunStatus::Complete { result, .. } => *result,
        other => panic!("unexpected status {other:?}"),
    };
    let pinned_result =
        match run_job(&pinned_spec, &dir.join("pinned"), &RunOptions::default()).unwrap() {
            RunStatus::Complete { result, .. } => *result,
            other => panic!("unexpected status {other:?}"),
        };
    assert_eq!(auto_result.result_checksum, pinned_result.result_checksum);
    assert_eq!(auto_result.final_snapshot, pinned_result.final_snapshot, "tuning changed physics");
}

#[test]
fn resolution_chain_db_hit_then_corrupt_fallback_then_heal() {
    let dir = tmp("chain");
    let db = dir.join("tuning.json");
    let workload = WorkloadSpec::plummer(128, 9);
    let resolve = |top_k| {
        resolve_plan(&RealFs, &db, &workload, BackendKind::Sim, TuneObjective::TotalTime, top_k)
    };

    let first = resolve(DEFAULT_SHORTLIST);
    assert_ne!(first.source, PlanSource::DbHit);
    let hit = resolve(DEFAULT_SHORTLIST);
    assert_eq!(hit.source, PlanSource::DbHit);
    assert_eq!((hit.kind, hit.config), (first.kind, first.config));

    // a DB hit replays the persisted winner's forces bit-exactly
    let device = DeviceSpec::radeon_hd_5850();
    let mut set = workload.generate();
    set.recenter();
    let a = evaluate_forces(
        &Candidate { kind: hit.kind, config: hit.config },
        &device,
        &set,
        &params(),
    );
    let b = evaluate_forces(
        &Candidate { kind: first.kind, config: first.config },
        &device,
        &set,
        &params(),
    );
    assert_eq!(a, b);

    // corruption: typed error surfaced, fallback taken, file healed
    std::fs::write(&db, "{ truncated").unwrap();
    let fallback = resolve(DEFAULT_SHORTLIST);
    assert_ne!(fallback.source, PlanSource::DbHit);
    assert!(fallback.db_error.is_some());
    assert_eq!((fallback.kind, fallback.config), (first.kind, first.config), "determinism");
    let healed = resolve(DEFAULT_SHORTLIST);
    assert_eq!(healed.source, PlanSource::DbHit);
    assert!(healed.db_error.is_none());
}

#[test]
fn plan_source_flows_from_spec_to_artifact_through_the_server() {
    // the serve path must record which resolution path admitted the job
    let dir = tmp("artifact-flow");
    let (spool, recovery) = Spool::open(&dir).unwrap();
    let resolution = resolve_plan(
        spool.fs().as_ref(),
        &spool.root().join("tuning.json"),
        &WorkloadSpec::plummer(96, 2),
        BackendKind::Auto,
        TuneObjective::TotalTime,
        DEFAULT_SHORTLIST,
    );
    let mut spec = JobSpec::new(WorkloadSpec::plummer(96, 2), resolution.kind, 2);
    spec.tile = Some(resolution.tile());
    spec.plan_source = Some(resolution.plan_source_label());
    spool.submit(&spec).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert_eq!(summary.completed(), 1, "{:?}", summary.reports);
    let bench = spool.job_dir(&spec.hash_hex()).join("bench.json");
    let text = std::fs::read_to_string(&bench).unwrap();
    assert!(
        text.contains(&format!("\"plan_source\":\"auto:{}\"", resolution.source.id()))
            || text.contains(&format!("\"plan_source\": \"auto:{}\"", resolution.source.id())),
        "artifact must record the resolution path: {text}"
    );
}
