//! Submit simulation jobs to a spool directory.
//!
//! ```text
//! cargo run -p harness --release --bin submit -- --spool <dir> \
//!     [--workload plummer] [--n 384] [--seed 1] [--plan jw-parallel|auto] \
//!     [--steps 12] [--dt 1e-3] [--every 4] [--priority normal] \
//!     [--deadline-s 0.5] [--tile 128] [--job-threads 4] \
//!     [--backend auto|sim|host|f32] \
//!     [--fault-seed 7] [--fault-prob 0.1] [--fault-loss-prob 0.01] \
//!     [--shards 16] [--mem-budget 64M] [--device-tree] \
//!     [--count 1] [--wait] [--wait-timeout-s 120]
//! ```
//!
//! `--shards`, `--mem-budget` and `--device-tree` select out-of-core tree
//! execution (DESIGN.md §14) and parse exactly as on every other harness
//! binary; they are bit-exact, so they do not change the job's hash.
//!
//! `--plan auto` resolves the plan through the spool's persistent tuning
//! DB (`<spool>/tuning.json`): DB hit → PTPM forecast → measured fallback
//! (DESIGN.md §13). Resolution happens *before* hashing, so an
//! auto-resolved job is content-identical to the same job submitted with
//! the resolved plan and tile pinned explicitly; the resolution path is
//! recorded as provenance in the spec and the job's `bench.json` artifact.
//! `--tile` cannot be combined with `--plan auto` (the resolver owns the
//! tile choice).
//!
//! Each submission is admission-checked client-side (a malformed spec is
//! refused with a typed error before anything is submitted), then durably
//! written into `<spool>/submitted/`. `--count K` submits K copies of the
//! same spec — a cheap way to demonstrate the content-addressed cache: the
//! server computes the result once and serves the rest as cache hits.
//! Prints one `submitted: <job-id>` line per job.
//!
//! With `--wait`, blocks after submitting until every submitted job reaches
//! a terminal spool state (a running `serve --daemon` does the work), then
//! prints one `outcome: <job-id> <state>` line per job.
//!
//! Exit codes follow `serve`'s (DESIGN.md §12):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | submitted; with `--wait`, every job is `done`                |
//! | 1    | with `--wait`, a job failed or the timeout expired; or the   |
//! |      | spool could not be opened or written                         |
//! | 2    | usage error: no `--spool`, a bad flag, or a refused spec     |
//! | 3    | with `--wait`, a job was poisoned                            |
//!
//! Usage errors are found before the spool is touched; only a `--plan
//! auto` spec is admission-checked after its resolution, which reads (and
//! may extend) the spool's tuning DB.

use harness::error::HarnessError;
use jobs::prelude::*;
use plans::prelude::{PlanKind, TuneObjective, DEFAULT_SHORTLIST};
use workloads::spec::{WorkloadKind, WorkloadSpec};

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<Result<T, HarnessError>> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).cloned().unwrap_or_default();
    Some(
        value
            .parse()
            .map_err(|_| HarnessError::BadFlag { flag: flag.to_string(), value: value.clone() }),
    )
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|p| args.get(p + 1)).map(String::as_str)
}

/// A usage error exits 2, as in `serve`: distinct from a `--wait` outcome.
fn usage_error(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2);
}

fn or_usage<T>(result: Result<T, HarnessError>) -> T {
    result.unwrap_or_else(|e| usage_error(e))
}

fn bad_flag(flag: &str, value: &str) -> ! {
    usage_error(HarnessError::BadFlag { flag: flag.into(), value: value.into() })
}

fn admit_or_usage(spec: &JobSpec) {
    if let Err(err) = admit(spec, &AdmissionPolicy::default()) {
        usage_error(format!("admission refused the spec: {err}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(spool_dir) = flag_value(&args, "--spool") else {
        eprintln!("usage: submit --spool <dir> [--workload k] [--n N] [--seed S] [--plan p|auto]");
        eprintln!("              [--steps K] [--dt D] [--every E] [--priority c]");
        eprintln!("              [--deadline-s T] [--tile W] [--job-threads H] [--count C]");
        eprintln!("              [--backend auto|sim|host|f32]");
        eprintln!("              [--fault-seed F] [--fault-prob P] [--fault-loss-prob Q]");
        eprintln!("              [--shards S] [--mem-budget B] [--device-tree]");
        std::process::exit(2);
    };

    let kind = match flag_value(&args, "--workload") {
        None => WorkloadKind::Plummer,
        Some(id) => WorkloadKind::parse(id).unwrap_or_else(|| bad_flag("--workload", id)),
    };
    let plan_flag = flag_value(&args, "--plan");
    let auto_plan = plan_flag == Some("auto");
    let plan = match plan_flag {
        None => PlanKind::JwParallel,
        // placeholder until resolution below; never submitted as-is
        Some("auto") => PlanKind::JwParallel,
        Some(id) => PlanKind::parse(id).unwrap_or_else(|| bad_flag("--plan", id)),
    };
    let n = parsed(&args, "--n").map_or(384, or_usage);
    let seed = parsed(&args, "--seed").map_or(1, or_usage);
    let steps = parsed(&args, "--steps").map_or(12, or_usage);

    let mut spec = JobSpec::new(WorkloadSpec { kind, n, seed }, plan, steps);
    if let Some(dt) = parsed(&args, "--dt") {
        spec.dt = or_usage(dt);
    }
    if let Some(every) = parsed(&args, "--every") {
        spec.checkpoint_every = or_usage(every);
    }
    if let Some(id) = flag_value(&args, "--priority") {
        spec.priority = Priority::parse(id).unwrap_or_else(|| bad_flag("--priority", id));
    }
    if let Some(d) = parsed(&args, "--deadline-s") {
        spec.deadline_s = Some(or_usage(d));
    }
    if let Some(t) = parsed(&args, "--tile") {
        spec.tile = Some(or_usage(t));
    }
    if let Some(t) = parsed(&args, "--job-threads") {
        spec.threads = Some(or_usage(t));
    }
    if let Some(s) = parsed(&args, "--fault-seed") {
        spec.fault_seed = Some(or_usage(s));
    }
    if let Some(p) = parsed(&args, "--fault-prob") {
        spec.fault_prob = Some(or_usage(p));
    }
    if let Some(q) = parsed(&args, "--fault-loss-prob") {
        spec.fault_loss_prob = Some(or_usage(q));
    }
    // --backend and the out-of-core flags parse as on every harness binary
    let config = or_usage(harness::try_config_from_args(&args));
    spec.backend = config.backend;
    spec.shards = config.plan.shards;
    spec.mem_budget_bytes = config.plan.mem_budget_bytes;
    spec.device_tree = config.plan.device_tree;
    let count: usize = parsed(&args, "--count").map_or(1, or_usage);
    let timeout_s: f64 = parsed(&args, "--wait-timeout-s").map_or(120.0, or_usage);
    if auto_plan && spec.tile.is_some() {
        usage_error("--tile cannot be combined with --plan auto (the resolver owns it)");
    }
    // client-side admission: refuse malformed specs before spooling
    if !auto_plan {
        admit_or_usage(&spec);
    }

    // attaching runs no crash recovery, which belongs to the server (a live
    // daemon's running/ records and .tmp files are in flight)
    let spool = Spool::attach(spool_dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open spool {spool_dir}: {e}");
        std::process::exit(1);
    });

    if auto_plan {
        // the resolver needs the spool's fs seam and tuning.json
        let resolution = resolve_plan(
            spool.fs().as_ref(),
            &spool.root().join("tuning.json"),
            &spec.workload,
            spec.backend.unwrap_or_default(),
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        if let Some(err) = &resolution.db_error {
            eprintln!("warning: tuning db: {err}");
        }
        spec.plan = resolution.kind;
        spec.tile = Some(resolution.tile());
        spec.plan_source = Some(resolution.plan_source_label());
        println!(
            "plan auto: {} tile={} source={}",
            resolution.kind.id(),
            resolution.tile(),
            resolution.source.id()
        );
        admit_or_usage(&spec);
    }

    let mut ids = Vec::new();
    for _ in 0..count.max(1) {
        match spool.submit(&spec) {
            Ok(record) => {
                println!("submitted: {} ({})", record.id, spec.label());
                ids.push(record.id);
            }
            Err(e) => {
                eprintln!("error: submit failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.iter().any(|a| a == "--wait") {
        let started = std::time::Instant::now();
        let mut worst = 0i32;
        for id in &ids {
            let state = loop {
                match spool.job_state(id) {
                    Some(state) if state.is_terminal() => break state,
                    _ => {
                        if started.elapsed().as_secs_f64() > timeout_s {
                            eprintln!("error: timed out waiting for {id}");
                            std::process::exit(1);
                        }
                        std::thread::sleep(std::time::Duration::from_millis(25));
                    }
                }
            };
            println!("outcome: {id} {}", state.dir_name());
            worst = worst.max(match state {
                JobState::Done => 0,
                JobState::Poisoned => 3,
                _ => 1,
            });
        }
        std::process::exit(worst);
    }
}
