//! The injectable filesystem seam under every durable mutation.
//!
//! The spool's crash-consistency story rests on a short list of primitive
//! filesystem mutations — `create_dir_all`, `write`, `rename`,
//! `remove_file` — composed into atomic-rename transactions. [`SpoolFs`]
//! makes that list *explicit and injectable*: production code runs on
//! [`RealFs`] (plain `std::fs`), while the crash-point fuzzer
//! ([`crate::crashpoint`]) substitutes a [`CrashFs`] that performs the
//! first `k` mutations faithfully and then refuses every further one —
//! exactly the on-disk state a `kill -9` after the `k`-th syscall leaves
//! behind. Because every spool, cache, checkpoint, and artifact write goes
//! through this seam, enumerating `k` over a whole job lifecycle enumerates
//! every crash point the subsystem can experience.
//!
//! Reads are deliberately *not* virtualized: they cannot change the durable
//! state, so they are irrelevant to crash consistency and stay plain
//! `std::fs` at the call sites.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Message carried by the [`io::Error`] a [`CrashFs`] injects once its
/// budget is spent. [`is_crashpoint`] recognizes it anywhere in a
/// [`crate::error::JobError`] chain.
pub const CRASH_MARKER: &str = "crashpoint: simulated crash after mutation budget";

/// The primitive durable mutations the job subsystem performs.
///
/// Implementations must be thread-safe: the server runs jobs concurrently,
/// and each worker checkpoints through the same seam.
pub trait SpoolFs: Send + Sync + std::fmt::Debug {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// `std::fs::write`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `std::fs::rename`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// `std::fs::remove_file`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// The atomic-write transaction every durable file goes through:
    /// `.tmp` sibling first, then rename. Two mutations; a crash between
    /// them leaves only deletable litter.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        self.write(&tmp, bytes)?;
        self.rename(&tmp, path)
    }
}

/// The production filesystem: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

// the one production implementation of the seam clippy.toml enforces
#[allow(clippy::disallowed_methods)]
impl SpoolFs for RealFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The default seam: a shared [`RealFs`].
pub fn real_fs() -> Arc<dyn SpoolFs> {
    Arc::new(RealFs)
}

/// A filesystem that dies after a fixed number of mutations.
///
/// The first `budget` mutating operations are performed by the wrapped
/// [`RealFs`]; every later one returns an [`io::Error`] carrying
/// [`CRASH_MARKER`] *without touching the disk* — the durable state is
/// frozen at an exact prefix of the mutation sequence, which is what a
/// power cut after the `budget`-th syscall leaves. With
/// [`CrashFs::counting`] the budget is effectively infinite and the
/// instance doubles as the op counter that sizes the fuzz enumeration.
#[derive(Debug)]
pub struct CrashFs {
    remaining: AtomicI64,
    used: AtomicU64,
}

impl CrashFs {
    /// A seam that crashes after `budget` mutations.
    pub fn with_budget(budget: u64) -> Arc<Self> {
        Arc::new(CrashFs { remaining: AtomicI64::new(budget as i64), used: AtomicU64::new(0) })
    }

    /// A seam that never crashes but counts every mutation.
    pub fn counting() -> Arc<Self> {
        Arc::new(CrashFs { remaining: AtomicI64::new(i64::MAX), used: AtomicU64::new(0) })
    }

    /// Mutations performed so far (crash-refused ones excluded).
    pub fn ops_used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// True once the budget is spent and the simulated machine is "down".
    pub fn crashed(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) <= 0
    }

    fn spend(&self) -> io::Result<()> {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(io::Error::other(CRASH_MARKER));
        }
        self.used.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

impl SpoolFs for CrashFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // only charge a mutation when the directory is genuinely created:
        // the common re-assertion of an existing tree is a no-op on disk,
        // and charging it would make op numbering depend on call order
        // rather than durable effects
        if path.is_dir() {
            return Ok(());
        }
        self.spend()?;
        RealFs.create_dir_all(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.spend()?;
        RealFs.write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.spend()?;
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.spend()?;
        RealFs.remove_file(path)
    }
}

/// True when `err`'s chain bottoms out in a [`CrashFs`] injection — the
/// fuzz harness's signal to stop the lifecycle and run recovery.
pub fn is_crashpoint(err: &crate::error::JobError) -> bool {
    let mut source: Option<&(dyn std::error::Error + 'static)> = Some(err);
    while let Some(e) = source {
        if e.to_string().contains(CRASH_MARKER) {
            return true;
        }
        source = e.source();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::ScratchDir;
    use std::path::PathBuf;

    /// A fresh `name` directory inside the test's unique scratch dir.
    fn tmp(scratch: &ScratchDir, name: &str) -> PathBuf {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counting_fs_counts_every_mutation() {
        let scratch = ScratchDir::new("fsx");
        let dir = tmp(&scratch, "count");
        let fs = CrashFs::counting();
        fs.write(&dir.join("a"), b"1").unwrap();
        fs.write_atomic(&dir.join("b"), b"2").unwrap(); // write + rename
        fs.remove_file(&dir.join("a")).unwrap();
        assert_eq!(fs.ops_used(), 4);
        assert!(!fs.crashed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_budget_freezes_state_at_an_exact_prefix() {
        let scratch = ScratchDir::new("fsx");
        let dir = tmp(&scratch, "budget");
        let fs = CrashFs::with_budget(1);
        // op 1 lands: the .tmp write; op 2 (the rename) is refused, so the
        // durable name never appears — the classic mid-transaction crash
        let err = fs.write_atomic(&dir.join("x.json"), b"{}").unwrap_err();
        assert!(err.to_string().contains(CRASH_MARKER));
        assert!(dir.join("x.json.tmp").exists(), "first op was applied");
        assert!(!dir.join("x.json").exists(), "second op was refused");
        assert!(fs.crashed());
        // once down, everything is refused without touching disk
        assert!(fs.write(&dir.join("y"), b"z").is_err());
        assert!(!dir.join("y").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn existing_dirs_are_not_charged() {
        let scratch = ScratchDir::new("fsx");
        let dir = tmp(&scratch, "dirs");
        let fs = CrashFs::counting();
        fs.create_dir_all(&dir.join("sub")).unwrap();
        assert_eq!(fs.ops_used(), 1);
        fs.create_dir_all(&dir.join("sub")).unwrap();
        assert_eq!(fs.ops_used(), 1, "re-assertion is free");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashpoint_errors_are_recognizable_through_the_chain() {
        let io = std::io::Error::other(CRASH_MARKER);
        let err = crate::error::JobError::io("/spool/x", io);
        assert!(is_crashpoint(&err));
        let plain = crate::error::JobError::io("/spool/x", std::io::Error::other("disk full"));
        assert!(!is_crashpoint(&plain));
    }
}
