//! Submit simulation jobs to a spool directory.
//!
//! ```text
//! cargo run -p harness --release --bin submit -- --spool <dir> \
//!     [--workload plummer] [--n 384] [--seed 1] [--plan jw-parallel|auto] \
//!     [--steps 12] [--dt 1e-3] [--every 4] [--priority normal] \
//!     [--deadline-s 0.5] [--tile 128] [--job-threads 4] \
//!     [--backend auto|sim|host|f32] \
//!     [--fault-seed 7] [--fault-prob 0.1] [--fault-loss-prob 0.01] \
//!     [--count 1] [--wait] [--wait-timeout-s 120]
//! ```
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
//! refused with a typed error before touching the spool), then durably
//! written into `<spool>/submitted/`. `--count K` submits K copies of the
//! same spec — a cheap way to demonstrate the content-addressed cache: the
//! server computes the result once and serves the rest as cache hits.
//! Prints one `submitted: <job-id>` line per job.
//!
//! With `--wait`, blocks after submitting until every submitted job reaches
//! a terminal spool state (a running `serve --daemon` does the work), then
//! prints one `outcome: <job-id> <state>` line per job and mirrors the
//! outcome in the exit code: 0 when all are `done`, 3 if any was poisoned,
//! 1 if any failed (or the `--wait-timeout-s` wall-clock budget expired).

use harness::error::{exit_with, or_exit, HarnessError};
use jobs::prelude::*;
use plans::prelude::{BackendKind, PlanKind, TuneObjective, DEFAULT_SHORTLIST};
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(spool_dir) = flag_value(&args, "--spool") else {
        eprintln!("usage: submit --spool <dir> [--workload k] [--n N] [--seed S] [--plan p|auto]");
        eprintln!("              [--steps K] [--dt D] [--every E] [--priority c]");
        eprintln!("              [--deadline-s T] [--tile W] [--job-threads H] [--count C]");
        eprintln!("              [--backend auto|sim|host|f32]");
        eprintln!("              [--fault-seed F] [--fault-prob P] [--fault-loss-prob Q]");
        std::process::exit(2);
    };

    let kind = match flag_value(&args, "--workload") {
        None => WorkloadKind::Plummer,
        Some(id) => WorkloadKind::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--workload".into(), value: id.into() })
        }),
    };
    let plan_flag = flag_value(&args, "--plan");
    let auto_plan = plan_flag == Some("auto");
    let plan = match plan_flag {
        None => PlanKind::JwParallel,
        // placeholder until resolution below; never submitted as-is
        Some("auto") => PlanKind::JwParallel,
        Some(id) => PlanKind::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--plan".into(), value: id.into() })
        }),
    };
    let n = parsed(&args, "--n").map_or(384, or_exit);
    let seed = parsed(&args, "--seed").map_or(1, or_exit);
    let steps = parsed(&args, "--steps").map_or(12, or_exit);

    let mut spec = JobSpec::new(WorkloadSpec { kind, n, seed }, plan, steps);
    if let Some(dt) = parsed(&args, "--dt") {
        spec.dt = or_exit(dt);
    }
    if let Some(every) = parsed(&args, "--every") {
        spec.checkpoint_every = or_exit(every);
    }
    if let Some(id) = flag_value(&args, "--priority") {
        spec.priority = Priority::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--priority".into(), value: id.into() })
        });
    }
    if let Some(d) = parsed(&args, "--deadline-s") {
        spec.deadline_s = Some(or_exit(d));
    }
    if let Some(t) = parsed(&args, "--tile") {
        spec.tile = Some(or_exit(t));
    }
    if let Some(t) = parsed(&args, "--job-threads") {
        spec.threads = Some(or_exit(t));
    }
    if let Some(s) = parsed(&args, "--fault-seed") {
        spec.fault_seed = Some(or_exit(s));
    }
    if let Some(p) = parsed(&args, "--fault-prob") {
        spec.fault_prob = Some(or_exit(p));
    }
    if let Some(q) = parsed(&args, "--fault-loss-prob") {
        spec.fault_loss_prob = Some(or_exit(q));
    }
    if let Some(id) = flag_value(&args, "--backend") {
        spec.backend = Some(BackendKind::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--backend".into(), value: id.into() })
        }));
    }
    let count: usize = parsed(&args, "--count").map_or(1, or_exit);

    // the resolver needs the spool's fs seam and tuning.json, so attach
    // first; attaching runs no crash recovery, which belongs to the server
    // (a live daemon's running/ records and .tmp files are in flight)
    let spool = Spool::attach(spool_dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open spool {spool_dir}: {e}");
        std::process::exit(1);
    });

    if auto_plan {
        if spec.tile.is_some() {
            eprintln!("error: --tile cannot be combined with --plan auto (the resolver owns it)");
            std::process::exit(2);
        }
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
    }

    // client-side admission: refuse malformed specs before spooling
    if let Err(err) = admit(&spec, &AdmissionPolicy::default()) {
        eprintln!("error: admission refused the spec: {err}");
        std::process::exit(1);
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
        let timeout_s: f64 = parsed(&args, "--wait-timeout-s").map_or(120.0, or_exit);
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
