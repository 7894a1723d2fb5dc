//! Helpers shared by the root integration tests; a test file opts in with
//! `mod common;`.

// each test file is its own crate and uses only part of this module
#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, removed on drop.
///
/// Every directory is unique to one process and one call (process id plus a
/// process-wide counter), so tests running in parallel, or two concurrent
/// `cargo test` invocations, never share, delete or reuse each other's
/// directories. Derefs to its [`Path`], so it passes wherever a path does.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `nbody-ptpm-it-<tag>-<pid>-<counter>`; `tag` only makes
    /// leftovers of a crashed run easier to attribute.
    pub fn new(tag: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nbody-ptpm-it-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
