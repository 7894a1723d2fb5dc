//! # harness
//!
//! The experiment harness: regenerates every table and figure of the PTPM
//! N-body paper's evaluation section on the simulated device.
//!
//! | module | paper artifact | command |
//! |--------|----------------|---------|
//! | [`fig4`] | Fig. 4 — jw-parallel GFLOPS vs N | `cargo run -p harness --release --bin repro-all -- fig4` |
//! | [`fig5`] | Fig. 5 — GFLOPS of all four plans vs N | `repro-all fig5` |
//! | [`table1`] | Table 1 — CPU vs GPU running time, 100 steps | `repro-all table1` |
//! | [`table2`] | Table 2 — total time of the four plans | `repro-all table2` |
//! | [`table3`] | Table 3 — kernel-only time of the four plans | `repro-all table3` |
//!
//! `repro-all` without a subcommand runs the full suite; its other
//! subcommands are `ptpm-report`, `imbalance`, `drift` and `whatif`. The
//! suite and the six sweep subcommands (`fig4` … `table3`, `ptpm-report`)
//! accept `--quick` for a reduced sweep, `--faults <seed>` for
//! deterministic fault injection (see [`faults`]), `--threads <N>` to pin
//! the host worker-thread count (results are bit-exact across thread
//! counts; the `NBODY_THREADS` environment variable is the flagless
//! equivalent), and the out-of-core trio `--shards <N>` /
//! `--mem-budget <bytes>` / `--device-tree` (Morton-sharded streaming and
//! the on-device tree pipeline — bit-exact vs the in-core host path, pinned
//! by `tests/shard_invariance.rs`); the suite and `fig4`, `fig5`, `table2`
//! and `table3` accept `--trace <path>` to also write an execution trace of
//! all four plans (Chrome trace JSON, or CSV when the path ends in `.csv` —
//! see [`trace_export`]). The `trace` binary captures traces without
//! running any experiment, and the `faults` binary demonstrates
//! checkpoint/restart fault tolerance end to end.
//!
//! Wall-clock performance is not measured here: the one benchmark is
//! `perfbench/` at the repository root, declared by `BENCHMARK.json` (see
//! `perfbench/README.md`).

#![warn(missing_docs)]

pub mod chart;
pub mod config;
pub mod cpu_baseline;
pub mod drift;
pub mod error;
pub mod export;
pub mod faults;
pub mod fig4;
pub mod fig5;
pub mod imbalance;
pub mod ptpm_report;
pub mod runner;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trace_export;
pub mod whatif;

pub use config::ExperimentConfig;
pub use runner::Runner;

/// Parses the common CLI convention of the harness binaries: `--quick`
/// selects the reduced sweep, `--max-n <N>` truncates the size sweep,
/// `--faults <seed>` enables deterministic fault injection,
/// `--backend auto|sim|host|f32` pins the execution backend (sim-only
/// features like `--faults` are rejected on other backends), and
/// `--threads <N>` pins the host worker-thread count (every result is
/// bit-exact across thread counts; absent the flag, the `NBODY_THREADS`
/// environment variable and then the machine's available parallelism
/// decide). Out-of-core execution is controlled by `--shards <N>` (split
/// tree-plan interaction lists into N Morton key-range shards streamed
/// through bounded scratch arenas), `--mem-budget <bytes>` (derive the
/// shard count from a device-memory budget; accepts `K`/`M`/`G`
/// suffixes), and `--device-tree` (build the octree with the on-device
/// pipeline) — all three are bit-exact with respect to the default
/// in-core host path. Malformed values are reported as
/// [`error::HarnessError::BadFlag`].
pub fn try_config_from_args(args: &[String]) -> Result<ExperimentConfig, error::HarnessError> {
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(pos) = args.iter().position(|a| a == "--max-n") {
        if let Some(max) = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
            cfg.sizes.retain(|&n| n <= max);
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        let value = args.get(pos + 1).cloned().unwrap_or_default();
        let seed = value.parse::<u64>().map_err(|_| error::HarnessError::BadFlag {
            flag: "--faults".into(),
            value: value.clone(),
        })?;
        cfg.fault_seed = Some(seed);
    }
    if let Some(pos) = args.iter().position(|a| a == "--backend") {
        let value = args.get(pos + 1).cloned().unwrap_or_default();
        let kind = plans::prelude::BackendKind::parse(&value).ok_or_else(|| {
            error::HarnessError::BadFlag { flag: "--backend".into(), value: value.clone() }
        })?;
        cfg.backend = Some(kind);
    }
    if let Some(pos) = args.iter().position(|a| a == "--shards") {
        let value = args.get(pos + 1).cloned().unwrap_or_default();
        let shards = value.parse::<usize>().ok().filter(|&s| s >= 1).ok_or_else(|| {
            error::HarnessError::BadFlag { flag: "--shards".into(), value: value.clone() }
        })?;
        cfg.plan.shards = Some(shards);
    }
    if let Some(pos) = args.iter().position(|a| a == "--mem-budget") {
        let value = args.get(pos + 1).cloned().unwrap_or_default();
        let bytes = parse_byte_size(&value).ok_or_else(|| error::HarnessError::BadFlag {
            flag: "--mem-budget".into(),
            value: value.clone(),
        })?;
        cfg.plan.mem_budget_bytes = Some(bytes);
    }
    if args.iter().any(|a| a == "--device-tree") {
        cfg.plan.device_tree = true;
    }
    if cfg.fault_seed.is_some() && cfg.backend_kind() != plans::prelude::BackendKind::Sim {
        // fault injection needs a simulated device
        return Err(error::HarnessError::BadFlag {
            flag: "--faults".into(),
            value: format!("unsupported on backend '{}'", cfg.backend_kind().id()),
        });
    }
    cfg.threads = try_threads_from_args(args)?;
    Ok(cfg)
}

/// Parses a byte-size value: a plain integer byte count, optionally
/// suffixed with `K`, `M`, or `G` (case-insensitive, binary multiples).
/// Returns `None` for malformed or zero values.
pub fn parse_byte_size(value: &str) -> Option<usize> {
    let trimmed = value.trim();
    let (digits, shift) = match trimmed.chars().last()? {
        'k' | 'K' => (&trimmed[..trimmed.len() - 1], 10u32),
        'm' | 'M' => (&trimmed[..trimmed.len() - 1], 20),
        'g' | 'G' => (&trimmed[..trimmed.len() - 1], 30),
        _ => (trimmed, 0),
    };
    let base = digits.parse::<usize>().ok()?;
    base.checked_mul(1usize << shift).filter(|&b| b > 0)
}

/// Parses just the `--threads <N>` flag (`Ok(None)` when absent). Split out
/// so commands with ad-hoc positional arguments can honor the flag without
/// adopting the full [`ExperimentConfig`] convention.
pub fn try_threads_from_args(args: &[String]) -> Result<Option<usize>, error::HarnessError> {
    let Some(pos) = args.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    let value = args.get(pos + 1).cloned().unwrap_or_default();
    let n = value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
        error::HarnessError::BadFlag { flag: "--threads".into(), value: value.clone() }
    })?;
    Ok(Some(n))
}

/// Applies `--threads` to the global `par` worker count for commands that
/// never build an [`ExperimentConfig`]; prints the error and exits 1 on a
/// malformed value.
pub fn apply_threads_flag(args: &[String]) {
    if let Some(n) = error::or_exit(try_threads_from_args(args)) {
        par::set_threads(n);
    }
}

/// [`try_config_from_args`] for binaries: prints the error and exits 1 on a
/// malformed flag. Applies the configured thread count to the global `par`
/// pool so every subsequent hot path honors `--threads`.
pub fn config_from_args(args: &[String]) -> ExperimentConfig {
    let cfg = error::or_exit(try_config_from_args(args));
    if let Some(n) = cfg.threads {
        par::set_threads(n);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_select_quick() {
        let cfg = config_from_args(&["--quick".to_string()]);
        assert_eq!(cfg.sizes, ExperimentConfig::quick().sizes);
        let cfg = config_from_args(&[]);
        assert_eq!(cfg.sizes, ExperimentConfig::paper().sizes);
    }

    #[test]
    fn max_n_truncates() {
        let cfg = config_from_args(&["--max-n".to_string(), "4096".to_string()]);
        assert_eq!(*cfg.sizes.last().unwrap(), 4096);
    }

    #[test]
    fn faults_flag_sets_seed_and_rejects_garbage() {
        let cfg = try_config_from_args(&["--faults".to_string(), "42".to_string()]).unwrap();
        assert_eq!(cfg.fault_seed, Some(42));
        let err = try_config_from_args(&["--faults".to_string(), "xyz".to_string()]).unwrap_err();
        assert!(err.to_string().contains("--faults"));
        let err = try_config_from_args(&["--faults".to_string()]).unwrap_err();
        assert!(matches!(err, error::HarnessError::BadFlag { .. }));
    }

    #[test]
    fn backend_flag_parses_and_guards_faults() {
        use plans::prelude::BackendKind;
        for (value, kind) in [
            ("auto", BackendKind::Auto),
            ("sim", BackendKind::Sim),
            ("host", BackendKind::Host),
            ("f32", BackendKind::F32),
        ] {
            let cfg = try_config_from_args(&["--backend".to_string(), value.to_string()]).unwrap();
            assert_eq!(cfg.backend, Some(kind));
        }
        assert_eq!(try_config_from_args(&[]).unwrap().backend, None);
        let err = try_config_from_args(&["--backend".to_string(), "cuda".to_string()]).unwrap_err();
        assert!(err.to_string().contains("--backend"), "{err}");
        // fault injection is sim-only
        let args: Vec<String> =
            ["--backend", "host", "--faults", "7"].iter().map(|s| s.to_string()).collect();
        let err = try_config_from_args(&args).unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
        let args: Vec<String> =
            ["--backend", "sim", "--faults", "7"].iter().map(|s| s.to_string()).collect();
        assert!(try_config_from_args(&args).is_ok());
    }

    #[test]
    fn out_of_core_flags_set_the_plan_and_reject_garbage() {
        let cfg = try_config_from_args(&["--shards".to_string(), "8".to_string()]).unwrap();
        assert_eq!(cfg.plan.shards, Some(8));
        let cfg = try_config_from_args(&["--mem-budget".to_string(), "256M".to_string()]).unwrap();
        assert_eq!(cfg.plan.mem_budget_bytes, Some(256 << 20));
        let cfg = try_config_from_args(&["--device-tree".to_string()]).unwrap();
        assert!(cfg.plan.device_tree);
        let cfg = try_config_from_args(&[]).unwrap();
        assert_eq!(cfg.plan.shards, None);
        assert_eq!(cfg.plan.mem_budget_bytes, None);
        assert!(!cfg.plan.device_tree);
        for (flag, bad) in [("--shards", "0"), ("--shards", "xyz"), ("--mem-budget", "1.5G")] {
            let err = try_config_from_args(&[flag.to_string(), bad.to_string()]).unwrap_err();
            assert!(err.to_string().contains(flag), "{err}");
        }
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("1024"), Some(1024));
        assert_eq!(parse_byte_size("64K"), Some(64 << 10));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        for bad in ["", "0", "0M", "-1", "xyz", "1T"] {
            assert_eq!(parse_byte_size(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn threads_flag_sets_count_and_rejects_garbage() {
        let cfg = try_config_from_args(&["--threads".to_string(), "4".to_string()]).unwrap();
        assert_eq!(cfg.threads, Some(4));
        let cfg = try_config_from_args(&[]).unwrap();
        assert_eq!(cfg.threads, None);
        for bad in ["0", "xyz"] {
            let err =
                try_config_from_args(&["--threads".to_string(), bad.to_string()]).unwrap_err();
            assert!(err.to_string().contains("--threads"), "{err}");
        }
        let err = try_config_from_args(&["--threads".to_string()]).unwrap_err();
        assert!(matches!(err, error::HarnessError::BadFlag { .. }));
    }
}
