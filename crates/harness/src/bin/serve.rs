//! Serve a job spool: finite drain or supervised daemon.
//!
//! ```text
//! cargo run -p harness --release --bin serve -- --spool <dir> \
//!     [--daemon] [--threads N] [--max-parallel P] [--throttle-ms M] \
//!     [--crash-after K] [--shed-budget-s S] [--max-attempts A] \
//!     [--watchdog-s W] [--max-ticks T] [--exit-when-idle]
//! ```
//!
//! Without `--daemon`: opens the spool (recovering whatever a previous
//! `kill -9` left behind), drains every submitted job to a terminal state,
//! prints the report, and exits. With `--daemon`: runs the supervised
//! service loop — continuous intake polling, preemptive scheduling (an
//! arriving `high` job preempts running `batch` jobs at their next
//! checkpoint boundary), wall-clock watchdogs (`--watchdog-s`), attempt
//! budgets that quarantine repeat offenders into `poisoned/`
//! (`--max-attempts`), PTPM-forecast load shedding (`--shed-budget-s`),
//! and an atomic `daemon.json` heartbeat each tick. SIGTERM (or SIGINT)
//! drains gracefully: the current wave finishes or checkpoints, queued
//! work stays durably in `submitted/`, and the daemon exits 0.
//!
//! Exit codes are typed so supervisors can tell outcomes apart:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean (`JOBS OK`; for a daemon, includes SIGTERM drain)    |
//! | 1    | degraded: a resumed job diverged, or an untyped failure    |
//! | 2    | usage or configuration error (bad flag, missing `--spool`) |
//! | 3    | spool corruption: unreadable records, I/O, bad snapshots   |

use jobs::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        // async-signal-safe: a single atomic store
        TERM.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Parses `--flag value`, exiting 2 (configuration error) on a malformed
/// value — distinct from runtime failures.
fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).cloned().unwrap_or_default();
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: {flag} got malformed value `{value}`");
            std::process::exit(2);
        }
    }
}

/// Spool corruption (I/O, unparseable records, bad snapshots) exits 3;
/// everything else that reaches an error exit is degradation (1).
fn exit_code_for(err: &JobError) -> i32 {
    match err {
        JobError::Io { .. } | JobError::Parse { .. } | JobError::Snapshot { .. } => 3,
        _ => 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spool_dir = match args.iter().position(|a| a == "--spool") {
        Some(pos) => args.get(pos + 1).cloned().unwrap_or_default(),
        None => {
            eprintln!(
                "usage: serve --spool <dir> [--daemon] [--threads N] [--max-parallel P] \
                 [--throttle-ms M] [--crash-after K] [--shed-budget-s S] [--max-attempts A] \
                 [--watchdog-s W] [--max-ticks T] [--exit-when-idle]"
            );
            std::process::exit(2);
        }
    };
    harness::apply_threads_flag(&args);
    let daemon_mode = args.iter().any(|a| a == "--daemon");

    let mut config = ServerConfig::default();
    if let Some(p) = parsed(&args, "--max-parallel") {
        config.max_parallel = p;
    }
    if let Some(m) = parsed(&args, "--throttle-ms") {
        config.run.throttle_ms = m;
    }
    if let Some(k) = parsed(&args, "--crash-after") {
        config.run.crash_after = Some(k);
    }
    if let Some(w) = parsed(&args, "--watchdog-s") {
        config.run.watchdog_s = Some(w);
    }
    if let Some(s) = parsed(&args, "--shed-budget-s") {
        config.shed = Some(ShedPolicy { budget_s: s });
    }
    if let Some(a) = parsed(&args, "--max-attempts") {
        config.max_job_attempts = a;
    }

    let (spool, recovery) = Spool::open(spool_dir.as_str()).unwrap_or_else(|e| {
        eprintln!("error: cannot open spool {spool_dir}: {e}");
        std::process::exit(exit_code_for(&e));
    });

    if daemon_mode {
        install_signal_handlers();
        config.supervise = true;
        config.preempt_batch = true;
        let daemon_config = DaemonConfig {
            server: config,
            max_ticks: parsed(&args, "--max-ticks"),
            exit_when_idle: args.iter().any(|a| a == "--exit-when-idle"),
            ..DaemonConfig::default()
        };
        let summary = run_daemon(&spool, recovery, &daemon_config, &TERM).unwrap_or_else(|e| {
            eprintln!("error: daemon failed: {e}");
            std::process::exit(exit_code_for(&e));
        });
        print!("{}", summary.render());
        if !summary.ok() {
            std::process::exit(1);
        }
    } else {
        let summary = drain(&spool, recovery, &config).unwrap_or_else(|e| {
            eprintln!("error: drain failed: {e}");
            std::process::exit(exit_code_for(&e));
        });
        print!("{}", summary.render());
        if !summary.ok() {
            std::process::exit(1);
        }
    }
}
