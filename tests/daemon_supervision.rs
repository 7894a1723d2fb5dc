//! Supervised-daemon contracts: priority inversion resolved by preemption,
//! deterministically across host thread counts and fault seeds.
//!
//! The scenario is the classic inversion: a full wave of long `batch` jobs
//! holds every execution slot when a `high` job arrives. The daemon must
//! preempt the batch wave at its next checkpoint boundary, run the high job
//! first, then resume every batch job bit-exactly from its preemption
//! checkpoint. Wall-clock racing decides *when* the preemption lands, so
//! the preemption step itself is not part of the determinism contract —
//! but the final state is: every job completes, resumed jobs verify
//! bit-exact, and the cached force checksums are identical at 1, 2, and 4
//! host threads and under different transient-fault seeds.

mod common;

use common::ScratchDir;
use jobs::prelude::*;
use plans::prelude::PlanKind;
use std::sync::atomic::AtomicBool;
use workloads::spec::WorkloadSpec;

fn tmp(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("daemon-{name}"))
}

fn spec(n: usize, seed: u64, steps: usize, priority: Priority) -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, steps);
    s.checkpoint_every = 1;
    s.priority = priority;
    s
}

/// The determinism-relevant residue of one inversion run: which job ended
/// how, and the exact bits of every cached result.
#[derive(Debug, PartialEq)]
struct InversionFingerprint {
    done: usize,
    checksums: Vec<(String, u64)>,
}

/// Runs the inversion scenario once: two slow batch jobs fill the
/// `max_parallel = 2` wave, a high job lands mid-wave from another thread.
fn inversion_run(name: &str, fault_seed: Option<u64>) -> InversionFingerprint {
    let root = tmp(name);
    let (spool, recovery) = Spool::open(&root).unwrap();
    let batch_a = spec(64, 31, 8, Priority::Batch);
    let mut batch_b = spec(64, 32, 8, Priority::Batch);
    if let Some(seed) = fault_seed {
        batch_b.fault_seed = Some(seed);
        batch_b.fault_prob = Some(0.1);
    }
    let high = spec(48, 33, 2, Priority::High);
    spool.submit(&batch_a).unwrap();
    spool.submit(&batch_b).unwrap();

    let mut config = DaemonConfig { exit_when_idle: true, idle_sleep_ms: 1, ..Default::default() };
    // throttle stretches each batch step to >= 12 ms wall clock so the high
    // job reliably arrives while the wave is mid-flight
    config.server.run.throttle_ms = 12;

    let stop = AtomicBool::new(false);
    let daemon = std::thread::scope(|scope| {
        let submit_spool = spool.clone();
        let high = high.clone();
        let submitter = scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            submit_spool.submit(&high).unwrap();
        });
        let daemon = run_daemon(&spool, recovery, &config, &stop).unwrap();
        submitter.join().unwrap();
        daemon
    });
    assert!(daemon.ok(), "{name}: {}", daemon.render());
    assert_eq!(spool.count(JobState::Done), 3, "{name}: {}", daemon.render());
    assert_eq!(spool.count(JobState::Poisoned), 0, "{name}");

    // the batch wave yielded at a checkpoint boundary
    let preempted =
        daemon.summary.reports.iter().filter(|r| r.outcome == JobOutcome::Preempted).count();
    assert!(preempted >= 1, "{name}: no preemption happened: {}", daemon.render());

    // the high job started within one preemption boundary: its completion
    // is finalized before either batch job's
    let completed_order: Vec<&str> = daemon
        .summary
        .reports
        .iter()
        .filter(|r| r.outcome == JobOutcome::Computed)
        .map(|r| r.hash_hex.as_str())
        .collect();
    assert_eq!(
        completed_order.first().copied(),
        Some(high.hash_hex().as_str()),
        "{name}: the high job must compute before the preempted batch jobs: {}",
        daemon.render()
    );

    // every resumed batch job verified bit-exact against its uninterrupted
    // reference (run_with_retry's verify gate)
    for r in &daemon.summary.reports {
        if r.outcome == JobOutcome::Computed && r.resumed_from > 0 {
            assert_eq!(r.verified, Some(true), "{name}: {:?}", r);
        }
    }

    // the heartbeat on disk is a complete JSON document with a drained queue
    let status: DaemonStatus =
        serde_json::from_str(&std::fs::read_to_string(spool.status_path()).unwrap()).unwrap();
    assert_eq!(status.queued_high + status.queued_normal + status.queued_batch, 0, "{name}");
    assert_eq!(status.in_flight, 0, "{name}");
    assert!(status.uptime_ticks >= 1, "{name}");

    let cache = spool.cache();
    let checksums = [&batch_a, &batch_b, &high]
        .iter()
        .map(|s| {
            let hit = cache.lookup(&s.hash_hex()).unwrap().unwrap();
            (s.hash_hex(), hit.result_checksum)
        })
        .collect();
    InversionFingerprint { done: 3, checksums }
}

// par::set_threads is process-global, so the whole matrix lives in ONE test
// function and runs its configurations sequentially.
#[test]
fn priority_inversion_matrix_is_thread_and_fault_seed_invariant() {
    par::set_threads(1);
    let base = inversion_run("threads-1", None);

    // thread axis: the wave genuinely overlaps at 2 and 4 host threads,
    // the final physics must not notice
    for t in [2usize, 4] {
        par::set_threads(t);
        let got = inversion_run(&format!("threads-{t}"), None);
        assert_eq!(base, got, "inversion outcome diverged at {t} host threads");
    }

    // fault axis: transient faults on a batch job change simulated clocks
    // and recovery work, never the cached forces
    par::set_threads(2);
    for seed in [3u64, 11] {
        let got = inversion_run(&format!("faults-{seed}"), Some(seed));
        assert_eq!(base.checksums, got.checksums, "cached forces diverged under fault seed {seed}");
    }
    par::set_threads(1);
}
