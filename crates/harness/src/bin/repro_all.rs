//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro-all [flags]          the full suite, sharing one measurement cache
//! repro-all <name> [flags]   one table or figure
//! ```
//!
//! Without a subcommand every table and figure of the paper runs in one
//! pass, so all artifacts describe the same experiment. `--json <path>`
//! additionally writes the machine-readable results; `--faults <seed>`
//! reruns the whole suite under deterministic fault injection (results stay
//! bit-exact, simulated times absorb the recovery overhead) and finishes
//! with a checkpoint/restart smoke.
//!
//! The subcommands print one table each:
//!
//! | name | table | flags |
//! |------|-------|-------|
//! | `fig4`, `fig5` | Fig. 4 / Fig. 5 GFLOPS sweeps | config flags, `--trace <path>` |
//! | `table1` | Table 1, CPU vs GPU running time | config flags |
//! | `table2`, `table3` | Tables 2 and 3, total and kernel time | config flags, `--trace <path>` |
//! | `ptpm-report` | PTPM forecast vs simulator | config flags |
//! | `imbalance [N]` | load-imbalance ablation (N = 8192) | `--threads` |
//! | `drift [N]` | integrator energy-drift study (N = 256) | `--threads` |
//! | `whatif [N]` | what-if device comparison (N = 4096) | `--threads` |
//!
//! The config flags are those of [`harness::config_from_args`]: `--quick`,
//! `--max-n`, `--faults`, `--backend`, `--threads` and the out-of-core
//! trio.

use harness::error::or_exit;
use nbody_core::testutil::ScratchDir;

/// Seed of the three stand-alone studies.
const STUDY_SEED: u64 = 20110101;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first() {
        Some(name) if !name.starts_with('-') => subcommand(name, &args[1..]),
        _ => suite(&args),
    }
}

/// One table or figure.
fn subcommand(name: &str, args: &[String]) {
    harness::apply_threads_flag(args);
    let n = |default: usize| args.first().and_then(|a| a.parse().ok()).unwrap_or(default);
    let text = match name {
        "imbalance" => harness::imbalance::render(&harness::imbalance::imbalance_experiment(
            n(8192),
            STUDY_SEED,
        )),
        "drift" => {
            let (n, t_total) = (n(256), 1.0);
            let dts = [0.02, 0.01, 0.005, 0.0025];
            let rows = harness::drift::drift_study(n, t_total, &dts, STUDY_SEED);
            harness::drift::render(&rows, n, t_total)
        }
        "whatif" => harness::whatif::render(&harness::whatif::whatif(n(4096), STUDY_SEED)),
        "fig4" | "fig5" | "table1" | "table2" | "table3" | "ptpm-report" => {
            let cfg = harness::config_from_args(args);
            let steps = cfg.steps;
            let mut runner = harness::Runner::new(cfg);
            let text = match name {
                "fig4" => harness::fig4::render(&harness::fig4::fig4(&mut runner)),
                "fig5" => harness::fig5::render(&harness::fig5::fig5(&mut runner)),
                "table1" => harness::table1::render(&harness::table1::table1(&mut runner), steps),
                "table2" => harness::table2::render(&harness::table2::table2(&mut runner), steps),
                "table3" => harness::table3::render(&harness::table3::table3(&mut runner), steps),
                _ => harness::ptpm_report::render(&harness::ptpm_report::ptpm_report(&mut runner)),
            };
            print!("{text}");
            if !matches!(name, "table1" | "ptpm-report") {
                or_exit(harness::trace_export::run_trace_flag(args, &mut runner));
            }
            return;
        }
        _ => {
            eprintln!(
                "error: unknown subcommand `{name}`; expected one of fig4, fig5, table1, \
                 table2, table3, ptpm-report, imbalance, drift, whatif"
            );
            std::process::exit(2);
        }
    };
    print!("{text}");
}

/// The full suite from one measurement cache.
fn suite(args: &[String]) {
    let cfg = harness::config_from_args(args);
    let steps = cfg.steps;
    let json_path = args.iter().position(|a| a == "--json").and_then(|p| args.get(p + 1)).cloned();

    println!("== PTPM fast N-body reproduction: full experiment suite ==\n");
    if let Some(seed) = cfg.fault_seed {
        println!(
            "fault injection ON: seed {seed}, p = {} per device operation \
             (retry recovery keeps results bit-exact)\n",
            harness::config::FAULT_PROBABILITY
        );
    }
    let results = harness::export::SuiteResults::run(cfg);
    println!("{}", harness::fig4::render(&results.fig4));
    println!("{}", harness::fig5::render(&results.fig5));
    println!("{}", harness::table1::render(&results.table1, steps));
    println!("{}", harness::table2::render(&results.table2, steps));
    println!("{}", harness::table3::render(&results.table3, steps));

    if let Some(path) = json_path {
        or_exit(results.write_json(&path));
        println!("machine-readable results written to {path}");
    }

    let mut runner = harness::Runner::new(results.config.clone());
    or_exit(harness::trace_export::run_trace_flag(args, &mut runner));

    if let Some(seed) = results.config.fault_seed {
        println!("\n== fault-recovery smoke (seed {seed}) ==");
        let dir = ScratchDir::new("repro-faults");
        let text = or_exit(harness::faults::demo(&harness::faults::smoke(seed), &dir));
        print!("{text}");
    }
}
