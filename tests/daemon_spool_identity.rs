//! A scripted daemon's spool is a function of its script.
//!
//! The `jobs::daemon` module doc promises that a scripted run is
//! bit-reproducible: ticks are rounds, arrivals land only at tick start,
//! every spool transition happens on the scheduler thread in wave order,
//! and preemption is one read-only spool check at a checkpoint boundary.
//! This test holds the daemon to it. It runs one mixed script at 1 `par`
//! thread and again at 4, with supervision and batch preemption on, and
//! requires the two spool trees to match file for file and byte for byte:
//! records and `seq`, cache entries, work dirs (`bench.json`, `trace.csv`,
//! any `ckpt-*` left behind) and `daemon.json`.
//!
//! `par::set_threads` is process-global, so this file is its own test
//! binary and holds a single test.

mod common;

use common::ScratchDir;
use jobs::prelude::*;
use plans::prelude::{BackendKind, PlanKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use workloads::spec::WorkloadSpec;

fn spec(n: usize, seed: u64, plan: PlanKind, backend: BackendKind) -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), plan, 4);
    s.backend = Some(backend);
    s.checkpoint_every = 2;
    s
}

/// The service burst's mix at small N. Every tick-0 `normal` job computes
/// in rounds 0–4 (two distinct hashes per wave), the batch jobs queue
/// behind them, and a pair of identical `high` jobs lands at tick 5: the
/// first takes a wave slot beside a batch job, its twin waits in
/// `submitted/`, and the batch job yields at its first boundary.
fn script() -> Vec<(u64, JobSpec)> {
    let mut normal = Vec::new();
    for backend in [BackendKind::Sim, BackendKind::Host] {
        for (k, plan) in PlanKind::all().into_iter().enumerate() {
            normal.push(spec(48, 10 + k as u64, plan, backend));
        }
    }
    let mut faulted = spec(48, 20, PlanKind::JParallel, BackendKind::Sim);
    faulted.fault_seed = Some(7);
    faulted.fault_prob = Some(0.05);
    let mut sharded = spec(64, 21, PlanKind::JwParallel, BackendKind::Sim);
    sharded.shards = Some(3);
    normal.extend([faulted, sharded]);

    let mut script: Vec<(u64, JobSpec)> = Vec::new();
    for (i, s) in normal.iter().enumerate() {
        script.push((0, s.clone()));
        // exact resubmits: one while the original is queued, one after it
        // is cached
        if i % 4 == 0 {
            script.push((0, s.clone()));
            script.push((3, s.clone()));
        }
    }
    for (k, plan) in PlanKind::all().into_iter().enumerate() {
        // a boundary every step: a yield step that moved with timing
        // would show in the resumed job's bytes
        let mut b = spec(48, 30 + k as u64, plan, BackendKind::Sim);
        b.steps = 12;
        b.checkpoint_every = 1;
        b.priority = Priority::Batch;
        script.push((0, b));
    }
    let mut high = spec(48, 40, PlanKind::WParallel, BackendKind::Sim);
    high.priority = Priority::High;
    script.push((5, high.clone()));
    script.push((5, high));
    script
}

/// Every file under `root`, by path relative to it, with its bytes.
fn tree(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// Runs the script once at `threads` and returns the spool tree and the
/// number of preemptions.
fn scripted_run(threads: usize) -> (Vec<(PathBuf, Vec<u8>)>, usize) {
    par::set_threads(threads);
    let scratch = ScratchDir::new(&format!("spool-identity-{threads}"));
    let root = scratch.join("spool");
    let (spool, recovery) = Spool::open(&root).unwrap();
    let config = DaemonConfig {
        exit_when_idle: true,
        idle_sleep_ms: 0,
        arrivals: script(),
        ..DaemonConfig::default()
    };
    assert!(config.server.supervise && config.server.preempt_batch);
    let daemon = run_daemon(&spool, recovery, &config, &AtomicBool::new(false)).unwrap();
    assert!(daemon.ok(), "{threads} threads: {}", daemon.render());
    assert_eq!(daemon.exit, DaemonExit::Idle, "{threads} threads");
    assert_eq!(spool.count(JobState::Done), script().len(), "{}", daemon.render());
    let preempted =
        daemon.summary.reports.iter().filter(|r| r.outcome == JobOutcome::Preempted).count();
    (tree(&root), preempted)
}

#[test]
fn a_scripted_daemon_spool_is_identical_at_1_and_4_threads() {
    let (one, preempted) = scripted_run(1);
    assert!(preempted >= 1, "no batch job was preempted, so preemption went untested");
    let (four, preempted_four) = scripted_run(4);
    par::set_threads(1);
    assert_eq!(preempted, preempted_four, "preemptions differ between 1 and 4 threads");

    let names = |t: &[(PathBuf, Vec<u8>)]| t.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
    assert_eq!(names(&one), names(&four), "the two spools hold different file sets");
    for ((path, a), (_, b)) in one.iter().zip(&four) {
        assert!(
            a == b,
            "{} differs between 1 and 4 threads:\n--- 1 thread\n{}\n--- 4 threads\n{}",
            path.display(),
            String::from_utf8_lossy(a),
            String::from_utf8_lossy(b)
        );
    }
    // the mix reached every part of the tree the daemon writes
    let has = |f: &dyn Fn(&str) -> bool| one.iter().any(|(p, _)| f(&p.to_string_lossy()));
    assert!(has(&|p| p == "seq") && has(&|p| p == "daemon.json"));
    assert!(has(&|p| p.starts_with("done/")) && has(&|p| p.starts_with("cache/")));
    assert!(has(&|p| p.ends_with("bench.json")) && has(&|p| p.ends_with("trace.csv")));
}
