//! The crash-point fuzz gate: a `kill -9` after *any* durable mutation of a
//! full job lifecycle must be recoverable.
//!
//! `jobs::crashpoint::fuzz` scripts a submit → run → preempt → resume →
//! complete → cache-hit lifecycle (artifacts and daemon heartbeat
//! included) over the injectable filesystem seam, numbers its durable
//! mutations, and replays it once per prefix length with a filesystem that
//! dies after exactly that many operations. After every simulated crash,
//! recovery must reopen the spool with no job lost or duplicated, drain to
//! completion, and produce bit-exact physics. This test runs the full
//! stride-1 enumeration — every crash point, not a sample — and prints the
//! verdict line the CI `CRASHPOINT` stage greps.

mod common;

#[test]
fn every_crash_prefix_recovers_without_losing_or_duplicating_jobs() {
    let scratch = common::ScratchDir::new("crashpoint-fuzz");
    let report = jobs::crashpoint::fuzz(&scratch, 1).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        report.mutations >= 50,
        "the lifecycle must expose at least 50 distinct crash points, got {}",
        report.mutations
    );
    assert_eq!(report.prefixes.len() as u64, report.mutations, "stride 1 must cover every prefix");
    print!("{}", report.render());
}
