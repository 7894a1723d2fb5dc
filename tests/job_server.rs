//! End-to-end contracts of the crash-safe job server (`crates/jobs`).
//!
//! The scheduler inherits the determinism contract of the stack under it
//! (DESIGN.md §8) and must not weaken it: draining the same submitted batch
//! must produce the same job ordering, the same outcome for every job, the
//! same deadline-retry counts, and bit-exact cached results — at every host
//! thread count and under every transient-fault seed. On top of that sits
//! the crash-recovery gate: a server killed mid-job must, after restart,
//! finish the job bit-exactly and serve identical resubmissions from the
//! content-addressed cache.

mod common;

use common::ScratchDir;
use jobs::prelude::*;
use plans::prelude::PlanKind;
use workloads::spec::WorkloadSpec;

fn tmp(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("job-server-{name}"))
}

fn spec(n: usize, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, 4);
    s.checkpoint_every = 2;
    s
}

/// A mixed-tenant batch: priority classes, a deadline-sliced job, a
/// fault-injected job, and a tiled variant — every scheduler feature in one
/// queue.
fn batch(deadline_s: f64, fault_seed: u64) -> Vec<JobSpec> {
    let mut high = spec(48, 1);
    high.priority = Priority::High;
    let mut sliced = spec(48, 2);
    sliced.deadline_s = Some(deadline_s);
    let mut bulk = spec(64, 3);
    bulk.priority = Priority::Batch;
    let mut faulty = spec(48, 4);
    faulty.fault_seed = Some(fault_seed);
    faulty.fault_prob = Some(0.1);
    let mut tiled = spec(48, 5);
    tiled.tile = Some(128);
    vec![high, sliced, bulk, faulty, tiled]
}

/// One drain's observable behaviour, everything the determinism contract
/// covers: scheduling order, outcomes, retry counts, resume points, and the
/// bit pattern of every cached result.
#[derive(Debug, PartialEq)]
struct DrainFingerprint {
    reports: Vec<(String, String, u32, usize)>,
    checksums: Vec<(String, u64)>,
}

fn drain_batch(name: &str, specs: &[JobSpec], config: &ServerConfig) -> DrainFingerprint {
    let root = tmp(name);
    let (spool, recovery) = Spool::open(&root).unwrap();
    for s in specs {
        spool.submit(s).unwrap();
    }
    let summary = drain(&spool, recovery, config).unwrap();
    assert!(summary.ok(), "{name}: {}", summary.render());
    let reports = summary
        .reports
        .iter()
        .map(|r| (r.id.clone(), r.outcome.id().to_string(), r.retries, r.resumed_from))
        .collect();
    let cache = spool.cache();
    let mut checksums: Vec<(String, u64)> = specs
        .iter()
        .map(|s| {
            let hit = cache.lookup(&s.hash_hex()).unwrap().unwrap_or_else(|| {
                panic!("{name}: no cached result for {}", s.label());
            });
            (s.hash_hex(), hit.result_checksum)
        })
        .collect();
    checksums.dedup();
    DrainFingerprint { reports, checksums }
}

/// Simulated-seconds budget that slices `spec(48, _)` into several attempts:
/// 40% of an uninterrupted run's total.
fn slicing_deadline() -> f64 {
    let probe = spec(48, 2);
    let root = tmp("probe");
    let (spool, recovery) = Spool::open(&root).unwrap();
    spool.submit(&probe).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert!(summary.ok(), "{}", summary.render());
    let total = spool.cache().lookup(&probe.hash_hex()).unwrap().unwrap().simulated_total_s;
    total * 0.4
}

// par::set_threads is process-global, so the whole matrix lives in ONE test
// function and runs its configurations sequentially.
#[test]
fn drain_matrix_is_thread_and_fault_seed_invariant() {
    let deadline = slicing_deadline();

    // --- thread axis: identical batch at 1, 2, and 4 host threads ---
    par::set_threads(1);
    let base = drain_batch("threads-1", &batch(deadline, 7), &ServerConfig::default());
    assert!(
        base.reports.iter().any(|(_, _, retries, _)| *retries > 0),
        "the sliced job must consume deadline retries: {base:?}"
    );
    for t in [2usize, 4] {
        par::set_threads(t);
        let got =
            drain_batch(&format!("threads-{t}"), &batch(deadline, 7), &ServerConfig::default());
        assert_eq!(base, got, "drain behaviour diverged at {t} host threads");
    }

    // --- max_parallel axis: wave width changes wall-clock, never results ---
    par::set_threads(4);
    for width in [1usize, 4] {
        let config = ServerConfig { max_parallel: width, ..Default::default() };
        let got = drain_batch(&format!("width-{width}"), &batch(deadline, 7), &config);
        assert_eq!(base, got, "drain behaviour diverged at max_parallel={width}");
    }

    // --- fault axis: transient faults change clocks, never the physics ---
    par::set_threads(2);
    for fault_seed in [3u64, 11] {
        let got = drain_batch(
            &format!("faults-{fault_seed}"),
            &batch(deadline, fault_seed),
            &ServerConfig::default(),
        );
        assert_eq!(
            base.checksums, got.checksums,
            "cached forces diverged under fault seed {fault_seed}"
        );
        assert_eq!(
            base.reports.iter().map(|r| &r.1).collect::<Vec<_>>(),
            got.reports.iter().map(|r| &r.1).collect::<Vec<_>>(),
            "outcome sequence diverged under fault seed {fault_seed}"
        );
    }
    par::set_threads(1);
}

#[test]
fn killed_server_resumes_bit_exactly_and_resubmission_hits_cache() {
    let job = spec(64, 21);

    // uninterrupted reference drain
    let ref_root = tmp("crash-reference");
    let (spool, recovery) = Spool::open(&ref_root).unwrap();
    spool.submit(&job).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert!(summary.ok());
    let reference = spool.cache().lookup(&job.hash_hex()).unwrap().unwrap();

    // the same job, crashed after step 2 (what SIGKILL leaves behind)
    let root = tmp("crash-resume");
    let (spool, recovery) = Spool::open(&root).unwrap();
    spool.submit(&job).unwrap();
    let crash = ServerConfig {
        run: RunOptions { crash_after: Some(2), ..Default::default() },
        ..Default::default()
    };
    let summary = drain(&spool, recovery, &crash).unwrap();
    assert_eq!(summary.reports[0].outcome, JobOutcome::Crashed);
    assert_eq!(spool.count(JobState::Running), 1, "crash leaves the claim in running/");

    // restart: requeue, resume from the step-2 checkpoint, verify bit-exact
    let (spool, recovery) = Spool::open(&root).unwrap();
    assert_eq!(recovery.requeued, 1);
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert!(summary.ok(), "{}", summary.render());
    let report = &summary.reports[0];
    assert_eq!(report.outcome, JobOutcome::Computed);
    assert_eq!(report.resumed_from, 2);
    assert_eq!(report.verified, Some(true));
    let resumed = spool.cache().lookup(&job.hash_hex()).unwrap().unwrap();
    assert_eq!(
        resumed.result_checksum, reference.result_checksum,
        "resumed result must be bit-identical to the uninterrupted run"
    );
    assert_eq!(resumed.final_snapshot.set.pos(), reference.final_snapshot.set.pos());
    assert_eq!(resumed.final_snapshot.set.vel(), reference.final_snapshot.set.vel());

    // an identical resubmission never recomputes
    spool.submit(&job).unwrap();
    let (spool, recovery) = Spool::open(&root).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert_eq!(summary.reports.len(), 1);
    assert_eq!(summary.reports[0].outcome, JobOutcome::CacheHit);
    assert_eq!(spool.cache().len(), 1, "the cache holds exactly one entry per canonical hash");
}

#[test]
fn malformed_and_doomed_tenants_cannot_degrade_the_server() {
    let root = tmp("tenants");
    let (spool, recovery) = Spool::open(&root).unwrap();
    let mut rejected = spec(48, 31);
    rejected.checkpoint_every = 0; // fails admission with a typed error
    let mut doomed = spec(48, 32);
    doomed.fault_seed = Some(1);
    doomed.fault_loss_prob = Some(1.0); // permanent device loss mid-job
    let healthy = spec(48, 33);
    spool.submit(&rejected).unwrap();
    spool.submit(&doomed).unwrap();
    spool.submit(&healthy).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert!(summary.ok(), "typed failures are not degradation: {}", summary.render());
    assert_eq!(summary.completed(), 1, "{}", summary.render());
    assert_eq!(spool.count(JobState::Failed), 2);
    assert_eq!(spool.count(JobState::Done), 1);
    let errors: Vec<String> =
        spool.list(JobState::Failed).unwrap().iter().filter_map(|r| r.error.clone()).collect();
    assert!(errors.iter().any(|e| e.contains("zero-checkpoint-every")), "{errors:?}");
    assert!(errors.iter().any(|e| e.contains("unrecoverable")), "{errors:?}");
}

#[test]
fn artifacts_land_in_the_job_work_directory() {
    let root = tmp("artifacts");
    let (spool, recovery) = Spool::open(&root).unwrap();
    let job = spec(48, 41);
    spool.submit(&job).unwrap();
    let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
    assert!(summary.ok(), "{}", summary.render());
    let dir = spool.job_dir(&job.hash_hex());
    let bench = std::fs::read_to_string(dir.join("bench.json")).unwrap();
    assert!(bench.contains(&job.hash_hex()), "bench.json names the job");
    let trace = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
    assert!(trace.starts_with("event,id,name,start_us,dur_us,bytes"), "{trace}");
    assert!(trace.lines().count() > 1, "trace must contain events");
}
