//! The `serve` binary refuses what it does not understand: an unknown
//! argument (a removed flag such as `--no-preempt` included), a flag left
//! without its value, or a malformed value is a usage error, exit 2, and
//! the spool is never opened. Known flags with their values still drain.

use nbody_core::testutil::ScratchDir;
use std::process::{Command, Output};

fn serve(spool: &std::path::Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--spool", spool.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run serve")
}

#[test]
fn unknown_flags_and_missing_values_exit_2() {
    for bad in [
        &["--bogus-flag"][..],
        &["--no-preempt"],
        &["--max-ticks", "5", "stray"],
        &["--exit-when-idle", "--max-ticks"],
        &["--threads", "0"],
        &["--max-parallel", "two"],
    ] {
        let dir = ScratchDir::new("serve-cli-bad");
        let out = serve(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: the exit code of a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: serve"), "{bad:?}");
        assert!(!dir.join("submitted").exists(), "{bad:?}: refused before opening the spool");
    }
}

#[test]
fn known_flags_with_values_drain() {
    let dir = ScratchDir::new("serve-cli-ok");
    let out = serve(&dir, &["--threads", "1", "--max-parallel", "2", "--throttle-ms", "0"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("JOBS OK"));
}
