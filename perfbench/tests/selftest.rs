//! The benchmark's self-test.
//!
//! A tiny run of every workload must report exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit and either a
//! finite value or an explicit n/a; the untraced run must report every
//! end-to-end metric as a positive number. The output checks must count a
//! tampered result as a failed job instead of crashing the run.

use perfbench::check::check_spool;
use perfbench::drive::{closed_loop, WorkDir};
use perfbench::report::Outcome;
use perfbench::scenario::{closed_job, Rng};
use perfbench::{run, Options, Size, Workload};
use plans::prelude::{BackendKind, PlanKind};
use std::collections::BTreeSet;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn field(entry: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let at = entry.find(&tag).unwrap_or_else(|| panic!("{key} missing in {entry}")) + tag.len();
    entry[at..].split('"').next().unwrap_or_default().to_string()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let work = WorkDir::create(&format!("selftest-{}-{}", workload.name(), u8::from(trace)))
        .expect("work directory");
    let opts = Options { workload, seed: 7, seconds: 0.05, trace, size: Size::TINY };
    let out = run(&opts, &work).expect("tiny run completes");
    assert!(out.correct(), "{} failed its output checks: {:?}", workload.name(), out.failures);
    assert_eq!(out.failed, 0);
    out
}

/// Every declared metric, once, with its unit; values finite or n/a.
fn assert_declared(out: &Outcome, section: &str) {
    let mut expected = declared(section);
    let mut got: Vec<(String, String)> =
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    expected.sort();
    got.sort();
    assert_eq!(got, expected, "{section} metrics differ from BENCHMARK.json");
    for m in &out.metrics {
        match &m.value {
            Ok(v) => assert!(v.is_finite(), "{} = {v}", m.name),
            Err(why) => assert!(!why.is_empty(), "{} is n/a without a reason", m.name),
        }
    }
}

fn is_na(out: &Outcome, name: &str) -> bool {
    out.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} missing")).is_na()
}

fn check_workload(workload: Workload, idle: &[&str], busy: &[&str]) {
    let plain = tiny(workload, false);
    assert_declared(&plain, "end_to_end");
    for m in &plain.metrics {
        assert!(m.value.as_ref().is_ok_and(|&v| v > 0.0), "{}: {}", workload.name(), m.line());
    }

    let traced = tiny(workload, true);
    assert_declared(&traced, "per_layer");
    for name in ["trace.overhead_share", "trace.unattributed_share", "failed_share"] {
        assert!(!is_na(&traced, name), "{name} must be reported");
    }
    for prefix in idle {
        for m in traced.metrics.iter().filter(|m| m.name.starts_with(prefix)) {
            assert!(m.is_na(), "{} should be n/a on {}", m.name, workload.name());
        }
    }
    for prefix in busy {
        for m in traced.metrics.iter().filter(|m| m.name.starts_with(prefix)) {
            assert!(!m.is_na(), "{} should be measured on {}", m.line(), workload.name());
        }
    }
}

#[test]
fn sim_tree_reports_every_metric() {
    check_workload(
        Workload::SimTree16k,
        &["plans.host.", "jobs.daemon."],
        &["plans.sim.", "gpu_sim."],
    );
}

#[test]
fn host_tier_reports_every_metric() {
    check_workload(Workload::HostTier, &["plans.sim.", "gpu_sim."], &["plans.host.", "treecode."]);
}

#[test]
fn service_burst_reports_every_metric() {
    check_workload(
        Workload::ServiceBurst,
        &[],
        &["plans.", "gpu_sim.", "jobs.daemon.", "jobs.heartbeat.", "jobs.verify.", "latency_p90_s"],
    );
}

/// Runs a tiny closed loop, applies `tamper` to the cached result text and
/// returns what the output checks said about the job.
fn checked_after(name: &str, tamper: impl Fn(&str) -> String) -> Option<String> {
    let work = WorkDir::create(name).expect("work directory");
    let mut rng = Rng::new(11, 0);
    let seg = closed_loop(&work.join("spool"), false, 0.0, || {
        closed_job(PlanKind::JwParallel, BackendKind::Sim, 256, &mut rng)
    })
    .expect("closed loop runs");
    let (spool, jobs) = &seg.spools[0];
    assert!(check_spool(spool, jobs, &BTreeSet::new()).failed.is_empty(), "clean run must pass");

    let entry = spool.cache().dir().join(format!("{}.json", jobs[0].spec.hash_hex()));
    let text = std::fs::read_to_string(&entry).expect("cache entry");
    let tampered = tamper(&text);
    assert_ne!(tampered, text, "the tamper must change the entry");
    std::fs::write(&entry, tampered).expect("rewrite cache entry");
    check_spool(spool, jobs, &BTreeSet::new()).failed.remove(&jobs[0].id)
}

/// `text` with the first digit after `tag` replaced by another digit.
fn change_digit_after(text: &str, tag: &str) -> String {
    let from = text.find(tag).unwrap_or_else(|| panic!("{tag} missing")) + tag.len();
    let at = from + text[from..].find(|c: char| c.is_ascii_digit()).expect("a digit");
    let new = if &text[at..=at] == "1" { "2" } else { "1" };
    format!("{}{new}{}", &text[..at], &text[at + 1..])
}

#[test]
fn flipped_checksum_counts_as_failure() {
    let why =
        checked_after("selftest-flip", |text| change_digit_after(text, "\"result_checksum\":"));
    assert!(why.is_some_and(|w| w.contains("checksum")), "a flipped checksum must fail the job");
}

#[test]
fn tampered_particles_count_as_failure() {
    let why = checked_after("selftest-particles", |text| change_digit_after(text, "\"pos\":["));
    assert!(why.is_some_and(|w| w.contains("checksum")), "altered positions must fail the job");
}

#[test]
fn swapped_spec_counts_as_failure() {
    let why = checked_after("selftest-spec", |text| change_digit_after(text, "\"steps\":"));
    assert!(why.is_some_and(|w| w.contains("spec")), "a foreign embedded spec must fail the job");
}

#[test]
fn truncated_entry_counts_as_failure() {
    let why = checked_after("selftest-truncated", |text| text[..text.len() / 2].to_string());
    assert!(why.is_some(), "a truncated cache entry must fail the job");
}
