//! Resolve the best execution plan for a workload through the persistent
//! autotuning chain, and show the PTPM evidence.
//!
//! ```text
//! cargo run -p harness --release --bin autotune -- --spool <dir> \
//!     [--workload plummer] [--n 1024] [--seed 1] \
//!     [--objective total|kernel] [--top-k 8] [--backend auto|sim|host|f32]
//! ```
//!
//! Runs the same resolution `submit --plan auto` uses (DESIGN.md §13):
//! consult `<spool>/tuning.json`, else rank the expressible candidate grid
//! with the PTPM analytic model on the workload's real interaction-list
//! geometry, else measure the pruned shortlist on the simulated device —
//! then persist the winner. Prints the forecast ranking as evidence and a
//! final machine-readable line:
//!
//! ```text
//! AUTOTUNE OK plan=<id> tile=<t> source=<db-hit|forecast|measured>
//! ```
//!
//! Run it twice against the same spool to see the chain work: the first
//! resolution forecasts or measures, the second is a DB hit with the
//! identical choice.

use harness::error::{exit_with, or_exit, HarnessError};
use jobs::prelude::{db_key, expressible_grid, resolve_plan, PlanSource};
use plans::prelude::{
    forecast_grid_points, BackendKind, ForecastGeometry, PlanConfig, TuneObjective,
    DEFAULT_SHORTLIST,
};
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
        eprintln!("usage: autotune --spool <dir> [--workload k] [--n N] [--seed S]");
        eprintln!("                [--objective total|kernel] [--top-k K]");
        eprintln!("                [--backend auto|sim|host|f32]");
        std::process::exit(2);
    };
    let kind = match flag_value(&args, "--workload") {
        None => WorkloadKind::Plummer,
        Some(id) => WorkloadKind::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--workload".into(), value: id.into() })
        }),
    };
    let n = parsed(&args, "--n").map_or(1024, or_exit);
    let seed = parsed(&args, "--seed").map_or(1, or_exit);
    let objective = match flag_value(&args, "--objective") {
        None | Some("total") => TuneObjective::TotalTime,
        Some("kernel") => TuneObjective::KernelTime,
        Some(other) => {
            exit_with(HarnessError::BadFlag { flag: "--objective".into(), value: other.into() })
        }
    };
    let top_k = parsed(&args, "--top-k").map_or(DEFAULT_SHORTLIST, or_exit);
    let backend = match flag_value(&args, "--backend") {
        None => BackendKind::Auto,
        Some(id) => BackendKind::parse(id).unwrap_or_else(|| {
            exit_with(HarnessError::BadFlag { flag: "--backend".into(), value: id.into() })
        }),
    };

    let workload = WorkloadSpec { kind, n, seed };
    let device = gpu_sim::prelude::DeviceSpec::radeon_hd_5850();
    println!("workload: {}", workload.label());
    match db_key(&workload, &device, backend, objective) {
        Ok(key) => println!("db key:   {key}"),
        Err(e) => println!("db key:   unavailable ({e})"),
    }

    // evidence: the PTPM forecast ranking over the expressible grid
    let base = PlanConfig::default();
    let grid = expressible_grid(base);
    let mut set = workload.generate();
    set.recenter();
    let geom = ForecastGeometry::build(&set, base, &grid);
    let forecasts = forecast_grid_points(&grid, &geom, &device, objective);
    println!("forecast ranking ({} candidates):", forecasts.len());
    println!("  {:<12} {:>5} {:>14}", "plan", "tile", "forecast_s");
    for p in &forecasts {
        let tile = if p.candidate.kind.uses_tree() {
            p.candidate.config.walk_size
        } else {
            p.candidate.config.block_size
        };
        println!("  {:<12} {:>5} {:>14.6e}", p.candidate.kind.id(), tile, p.forecast_s);
    }

    let db_path = std::path::Path::new(spool_dir).join("tuning.json");
    let fs = jobs::prelude::real_fs();
    let resolution = resolve_plan(fs.as_ref(), &db_path, &workload, backend, objective, top_k);
    if let Some(err) = &resolution.db_error {
        eprintln!("warning: tuning db: {err}");
    }
    match resolution.source {
        PlanSource::DbHit => println!("resolved from persisted winner ({})", db_path.display()),
        PlanSource::Forecast => println!("forecast was decisive; winner persisted"),
        PlanSource::Measured => {
            println!("measured the pruned shortlist (top-{top_k} + per-kind champions); winner persisted")
        }
    }
    println!(
        "AUTOTUNE OK plan={} tile={} source={}",
        resolution.kind.id(),
        resolution.tile(),
        resolution.source.id()
    );
}
