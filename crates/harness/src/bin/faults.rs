//! Fault-injection and checkpoint/restart demonstration.
//!
//! ```text
//! cargo run -p harness --release --bin faults -- \
//!     [--seed 7] [--n 384] [--steps 12] [--every 4] [--dir <path>]
//! ```
//!
//! Runs a jw-parallel simulation under deterministic injected faults,
//! crashes it half-way (or at the first checkpoint, if that comes later),
//! resumes from the newest checkpoint, and verifies the completed
//! trajectory is bit-exact against a fault-free reference. A cadence that
//! lands no checkpoint before the last step is refused.
//! Prints `FAULTS OK` and exits 0 on success; any I/O failure, unusable
//! checkpoint, or divergence exits 1 with a typed error.

use harness::error::{or_exit, HarnessError};
use harness::faults::{demo, smoke};

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<Result<T, HarnessError>> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).cloned().unwrap_or_default();
    Some(
        value
            .parse()
            .map_err(|_| HarnessError::BadFlag { flag: flag.to_string(), value: value.clone() }),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    harness::apply_threads_flag(&args);
    let seed = parsed(&args, "--seed").map_or(7, or_exit);
    let mut spec = smoke(seed);
    if let Some(n) = parsed(&args, "--n") {
        spec.workload.n = or_exit(n);
    }
    if let Some(steps) = parsed(&args, "--steps") {
        spec.steps = or_exit(steps);
    }
    if let Some(every) = parsed(&args, "--every") {
        spec.checkpoint_every = or_exit(every);
    }
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|p| args.get(p + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("nbody-ptpm-faults"));

    println!(
        "fault-tolerant run: N={}, {} steps, checkpoint every {}, fault seed {}",
        spec.workload.n, spec.steps, spec.checkpoint_every, seed
    );
    let text = or_exit(demo(&spec, &dir));
    print!("{text}");
    std::fs::remove_dir_all(&dir).ok();
}
