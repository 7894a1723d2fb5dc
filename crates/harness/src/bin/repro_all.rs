//! Regenerates every table and figure of the paper in one run, sharing one
//! measurement cache so all artifacts describe the same experiment.
//! `--json <path>` additionally writes the machine-readable results;
//! `--faults <seed>` reruns the whole suite under deterministic fault
//! injection (results stay bit-exact, simulated times absorb the recovery
//! overhead) and finishes with a checkpoint/restart smoke.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = harness::config_from_args(&args);
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
        harness::error::or_exit(results.write_json(&path));
        println!("machine-readable results written to {path}");
    }

    let mut runner = harness::Runner::new(results.config.clone());
    harness::error::or_exit(harness::trace_export::run_trace_flag(&args, &mut runner));

    if let Some(seed) = results.config.fault_seed {
        println!("\n== fault-recovery smoke (seed {seed}) ==");
        let dir = std::env::temp_dir().join("nbody-ptpm-repro-faults");
        let text = harness::error::or_exit(harness::faults::demo(
            &harness::faults::FaultRun::smoke(seed),
            &dir,
        ));
        print!("{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
