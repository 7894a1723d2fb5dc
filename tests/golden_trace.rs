//! Golden-trace regression: with a fixed workload seed, the execution
//! trace of every plan is fully deterministic — scheduling, per-phase
//! costs, transfer timings, down to the formatted byte stream. These tests
//! pin the CSV export against checked-in golden files and check the Chrome
//! trace export is stable and structurally valid, so any change to the
//! device model, the scheduler, or the exporters shows up as a diff here
//! rather than as a silent drift of every figure. N = 64 is one tile per
//! group; N = 1000 adds multi-tile loops, ragged tail tiles and ragged
//! walks.

use harness::trace_export::{capture_all, chrome_trace_json, csv, PlanTrace};
use harness::{ExperimentConfig, Runner};
use serde::Value;

const GOLDEN_N: usize = 64;

fn traces_at(n: usize) -> Vec<PlanTrace> {
    let mut runner = Runner::new(ExperimentConfig::quick());
    capture_all(&mut runner, n)
}

fn golden_traces() -> Vec<PlanTrace> {
    traces_at(GOLDEN_N)
}

/// Asserts the CSV trace at `n` equals the golden file's `golden` text.
fn assert_matches_golden(n: usize, golden: &str) {
    let text = csv(&traces_at(n));
    assert!(
        text == golden,
        "trace CSV drifted from tests/golden/trace_n{n}.csv.\n\
         If the change to the device model or exporters is intentional, \
         regenerate with:\n  cargo run -p harness --release --bin trace -- \
         --n {n} --plan all --out tests/golden/trace_n{n}.csv\n\n{}",
        first_diff(golden, &text)
    );
}

#[test]
fn trace_csv_matches_the_golden_file() {
    assert_matches_golden(GOLDEN_N, include_str!("golden/trace_n64.csv"));
}

#[test]
fn multi_tile_trace_csv_matches_the_golden_file() {
    assert_matches_golden(1000, include_str!("golden/trace_n1000.csv"));
}

/// The first differing line, for a readable failure.
fn first_diff(golden: &str, got: &str) -> String {
    for (i, (g, t)) in golden.lines().zip(got.lines()).enumerate() {
        if g != t {
            return format!("first difference at line {}:\n  golden: {g}\n  got:    {t}", i + 1);
        }
    }
    format!("line counts differ: golden {} vs got {}", golden.lines().count(), got.lines().count())
}

#[test]
fn csv_export_is_byte_stable_across_captures() {
    assert_eq!(csv(&golden_traces()), csv(&golden_traces()));
}

#[test]
fn golden_trace_is_byte_identical_with_threading_enabled() {
    // The parallel launch path re-serializes per-group events in fixed
    // group-index order, so the golden CSV must not move by a single byte
    // when worker threads execute the workgroups.
    par::set_threads(4);
    let text = csv(&golden_traces());
    par::set_threads(1);
    let golden = include_str!("golden/trace_n64.csv");
    assert!(
        text == golden,
        "threaded trace CSV drifted from tests/golden/trace_n64.csv:\n{}",
        first_diff(golden, &text)
    );
}

#[test]
fn per_cu_group_spans_stay_monotone_under_threading() {
    // Well-formedness of the simulated schedule: within one launch, the
    // groups a compute unit executes occupy increasing, non-overlapping
    // cycle spans regardless of the host thread count.
    for &threads in &[1usize, 4] {
        par::set_threads(threads);
        for plan in golden_traces() {
            for launch in &plan.trace.launches {
                let mut last_end: Vec<f64> = vec![f64::NEG_INFINITY; plan.trace.compute_units];
                for span in &launch.groups {
                    assert!(
                        span.end_cycle >= span.start_cycle,
                        "{}: launch {} group {} runs backwards",
                        plan.plan.id(),
                        launch.launch_id,
                        span.group
                    );
                    assert!(
                        span.start_cycle >= last_end[span.cu],
                        "{}: launch {} group {} overlaps CU {} at {} threads",
                        plan.plan.id(),
                        launch.launch_id,
                        span.group,
                        span.cu,
                        threads
                    );
                    last_end[span.cu] = span.end_cycle;
                }
            }
        }
    }
    par::set_threads(1);
}

#[test]
fn chrome_trace_is_byte_stable_and_structurally_valid() {
    let a = chrome_trace_json(&golden_traces());
    let b = chrome_trace_json(&golden_traces());
    assert_eq!(a, b);

    let doc = serde_json::parse_value(&a).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    // all four plans present as processes; every complete event well-formed
    let processes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
        .collect();
    assert_eq!(processes.len(), 4);
    for plan in ["i-parallel", "j-parallel", "w-parallel", "jw-parallel"] {
        assert!(processes.iter().any(|p| p.starts_with(plan)), "no process for {plan}");
    }
    for e in events {
        match e.get("ph").and_then(Value::as_str) {
            Some("X") => {
                assert!(e.get("ts").and_then(Value::as_f64).is_some_and(|t| t >= 0.0));
                assert!(e.get("dur").and_then(Value::as_f64).is_some_and(|d| d >= 0.0));
                assert!(e.get("pid").and_then(Value::as_u64).is_some());
                assert!(e.get("tid").and_then(Value::as_u64).is_some());
            }
            Some("i") | Some("M") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
}
