//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Run it from the
//! repository root; it works in `./.perfbench_runs/` and removes it again.

use perfbench::drive::WorkDir;
use perfbench::{run, Options, Size, Workload};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::FULL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(opts.workload.name()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run(&opts, &work) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(work);
    println!(
        "workload {} seed {} seconds {} trace {} threads {} available_parallelism {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.workload.threads(),
        par::available_parallelism()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for metric in &outcome.metrics {
        println!("{}", metric.line());
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
