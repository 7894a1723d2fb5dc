//! The `submit` binary carries the out-of-core flags into the spool
//! record: `--shards`, `--mem-budget` and `--device-tree` parse as on every
//! other harness binary and land in the submitted spec.

use jobs::prelude::*;
use nbody_core::testutil::ScratchDir;
use std::process::Command;

fn submit(spool: &std::path::Path, extra: &[&str]) -> JobRecord {
    let out = Command::new(env!("CARGO_BIN_EXE_submit"))
        .args(["--spool", spool.to_str().unwrap(), "--n", "256", "--steps", "1"])
        .args(extra)
        .output()
        .expect("run submit");
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let id = stdout
        .lines()
        .find_map(|l| l.strip_prefix("submitted: ")?.split_whitespace().next())
        .unwrap_or_else(|| panic!("no `submitted:` line in {stdout:?}"));
    let path = spool.join("submitted").join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    if extra.contains(&"--shards") {
        assert!(text.contains("\"shards\": 3"), "{text}");
    }
    serde_json::from_str(&text).unwrap()
}

#[test]
fn out_of_core_flags_reach_the_record() {
    let dir = ScratchDir::new("submit-cli");
    let sharded = submit(&dir, &["--shards", "3"]);
    assert_eq!(sharded.spec.shards, Some(3));
    assert_eq!((sharded.spec.mem_budget_bytes, sharded.spec.device_tree), (None, false));

    let budgeted = submit(&dir, &["--mem-budget", "64M", "--device-tree"]);
    assert_eq!(budgeted.spec.shards, None);
    assert_eq!(budgeted.spec.mem_budget_bytes, Some(64 << 20));
    assert!(budgeted.spec.device_tree);
    // bit-exact knobs: all three submissions share one content hash
    let plain = submit(&dir, &[]);
    assert_eq!(plain.spec.shards, None);
    assert_eq!(sharded.hash_hex, plain.hash_hex);
    assert_eq!(budgeted.hash_hex, plain.hash_hex);
}

#[test]
fn a_bad_shard_count_is_refused() {
    let dir = ScratchDir::new("submit-cli-bad");
    let out = Command::new(env!("CARGO_BIN_EXE_submit"))
        .args(["--spool", dir.to_str().unwrap(), "--shards", "0"])
        .output()
        .expect("run submit");
    assert_eq!(out.status.code(), Some(1), "the exit code of every bad submit flag");
    assert!(!dir.join("submitted").exists(), "refused before touching the spool");
}
