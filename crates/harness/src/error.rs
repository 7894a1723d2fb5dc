//! Typed errors for the harness I/O paths.
//!
//! The repro binaries are driven from scripts (CI, golden-test refresh), so
//! a failed write must surface as a distinguishable error and a non-zero
//! process exit — not a panic backtrace. Library code returns
//! [`HarnessError`]; binaries funnel through [`exit_with`].

use workloads::snapshot::SnapshotError;

/// What can go wrong in harness I/O and checkpointing.
#[derive(Debug)]
pub enum HarnessError {
    /// A file read/write failed; carries the path for a usable message.
    Io {
        /// The file involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A checkpoint snapshot failed to load or validate.
    Snapshot {
        /// The snapshot file involved.
        path: String,
        /// The underlying snapshot error (version, checksum, parse, ...).
        source: SnapshotError,
    },
    /// A CLI flag had a malformed value.
    BadFlag {
        /// The flag (e.g. `--faults`).
        flag: String,
        /// The offending value.
        value: String,
    },
    /// JSON serialization of a result document failed.
    Json {
        /// What was being serialized (e.g. `suite results`).
        what: String,
        /// The underlying serializer error.
        source: serde_json::Error,
    },
    /// A fault-tolerance invariant did not hold (recovered run diverged).
    Verification(String),
    /// The crash/resume demo cannot run: with this cadence no checkpoint
    /// lands before the run ends, so there is nothing to resume from.
    NoCheckpointBeforeEnd {
        /// Steps in the run.
        steps: usize,
        /// The checkpoint cadence, in steps.
        checkpoint_every: usize,
    },
}

impl HarnessError {
    /// Wraps an I/O error with the path it occurred on.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        HarnessError::Io { path: path.into(), source }
    }

    /// Wraps a snapshot error with the checkpoint path.
    pub fn snapshot(path: impl Into<String>, source: SnapshotError) -> Self {
        HarnessError::Snapshot { path: path.into(), source }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io { path, source } => write!(f, "cannot access {path}: {source}"),
            HarnessError::Snapshot { path, source } => {
                write!(f, "checkpoint {path} unusable: {source}")
            }
            HarnessError::BadFlag { flag, value } => {
                write!(f, "{flag} got malformed value `{value}`")
            }
            HarnessError::Json { what, source } => {
                write!(f, "cannot serialize {what}: {source}")
            }
            HarnessError::Verification(msg) => {
                write!(f, "fault-tolerance verification failed: {msg}")
            }
            HarnessError::NoCheckpointBeforeEnd { steps, checkpoint_every } => write!(
                f,
                "checkpoint every {checkpoint_every} steps lands none before the end of a \
                 {steps}-step run: nothing to resume from"
            ),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            HarnessError::Snapshot { source, .. } => Some(source),
            HarnessError::Json { source, .. } => Some(source),
            HarnessError::BadFlag { .. }
            | HarnessError::Verification(_)
            | HarnessError::NoCheckpointBeforeEnd { .. } => None,
        }
    }
}

/// Binary-side error funnel: prints the error chain to stderr and exits 1.
pub fn exit_with(err: HarnessError) -> ! {
    eprintln!("error: {err}");
    let mut cause = std::error::Error::source(&err);
    while let Some(c) = cause {
        eprintln!("  caused by: {c}");
        cause = c.source();
    }
    std::process::exit(1);
}

/// `result.unwrap_or_else(exit_with)` for binaries.
pub fn or_exit<T>(result: Result<T, HarnessError>) -> T {
    result.unwrap_or_else(|e| exit_with(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_names_the_path() {
        let err = HarnessError::io("/tmp/x.json", std::io::Error::other("disk on fire"));
        let msg = err.to_string();
        assert!(msg.contains("/tmp/x.json"), "{msg}");
        assert!(msg.contains("disk on fire"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn snapshot_error_wraps_cause() {
        let err = HarnessError::snapshot("ckpt.json", SnapshotError::NonFinite);
        assert!(err.to_string().contains("ckpt.json"));
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn bad_flag_mentions_flag_and_value() {
        let err = HarnessError::BadFlag { flag: "--faults".into(), value: "abc".into() };
        assert!(err.to_string().contains("--faults"));
        assert!(err.to_string().contains("abc"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
