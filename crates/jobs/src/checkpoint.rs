//! Hardened checkpoint discovery and writing.
//!
//! A job's work directory accumulates `ckpt-<step>.snap` snapshots in the
//! binary v3 format ([`workloads::snapshot`]); [`scan`] also resumes from
//! legacy JSON `ckpt-<step>.json` files, for jobs in flight across the
//! format change. A crash can leave that directory arbitrarily messy:
//! zero-byte files from a crash before the first write hit disk, truncated
//! files from a crash mid-write (only possible for pre-atomic writers —
//! current writers go through a `.tmp` sibling plus rename), stale `.tmp`
//! siblings from a crash between write and rename, files from future
//! format versions after a downgrade, or checksum-corrupt payloads from bit
//! rot. [`scan`] must never resume from any of those: it returns the newest
//! checkpoint that loads *and* validates, reports everything it had to
//! skip, and deletes stale `.tmp` litter.
//!
//! This module is the single implementation for both the job server and the
//! `harness::faults` checkpoint/restart driver.

use crate::error::JobError;
use crate::fsx::{RealFs, SpoolFs};
use std::path::{Path, PathBuf};
use workloads::snapshot::Snapshot;

/// The checkpoint file name for `step`.
pub fn checkpoint_path(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("ckpt-{step:05}.snap"))
}

/// Writes the checkpoint for `step` atomically on the production
/// filesystem. See [`save_checkpoint_with`].
pub fn save_checkpoint(
    dir: &Path,
    label: &str,
    time: f64,
    step: usize,
    set: &nbody_core::body::ParticleSet,
) -> Result<PathBuf, JobError> {
    save_checkpoint_with(&RealFs, dir, label, time, step, set)
}

/// Writes the checkpoint for `step` through the `fs` seam: the same
/// `.tmp`-then-rename transaction as [`Snapshot::save`], byte-identical
/// binary v3 payload encoded straight from `set`, but interruptible by the
/// crash-point fuzzer.
pub fn save_checkpoint_with(
    fs: &dyn SpoolFs,
    dir: &Path,
    label: &str,
    time: f64,
    step: usize,
    set: &nbody_core::body::ParticleSet,
) -> Result<PathBuf, JobError> {
    fs.create_dir_all(dir).map_err(|e| JobError::io(dir.display().to_string(), e))?;
    let path = checkpoint_path(dir, step);
    fs.write_atomic(&path, &Snapshot::encode(label, time, set))
        .map_err(|e| JobError::io(path.display().to_string(), e))?;
    Ok(path)
}

/// A checkpoint file [`scan`] refused to resume from, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheckpoint {
    /// File name within the scanned directory.
    pub file: String,
    /// Why it was unusable.
    pub reason: String,
}

/// What [`scan`] found.
#[derive(Debug, Default)]
pub struct CheckpointScan {
    /// The newest checkpoint that loaded and validated, as `(step,
    /// snapshot)`.
    pub best: Option<(usize, Snapshot)>,
    /// Unusable `ckpt-*` entries, sorted by file name. Candidates older
    /// than the newest usable checkpoint are not validated (they are never
    /// resumed from), so only zero-byte files and failures at or above the
    /// resume point appear here.
    pub skipped: Vec<SkippedCheckpoint>,
    /// Stale `ckpt-*.tmp` files deleted (a crash between write and rename).
    pub tmp_cleaned: usize,
}

/// Scans `dir` for the newest usable checkpoint on the production
/// filesystem. See [`scan_with`].
pub fn scan(dir: &Path) -> Result<CheckpointScan, JobError> {
    scan_with(&RealFs, dir)
}

/// Scans `dir` for the newest usable checkpoint. A missing directory is an
/// empty scan, not an error; unusable files are skipped and reported, never
/// trusted. Stale `.tmp` litter is removed through the `fs` seam, so the
/// crash-point fuzzer counts and can interrupt that removal.
pub fn scan_with(fs: &dyn SpoolFs, dir: &Path) -> Result<CheckpointScan, JobError> {
    let mut out = CheckpointScan::default();
    if !dir.exists() {
        return Ok(out);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| JobError::io(dir.display().to_string(), e))?;
    let mut candidates: Vec<(usize, PathBuf, String)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| JobError::io(dir.display().to_string(), e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("ckpt-") {
            continue; // foreign files (artifacts, records) are none of ours
        }
        if name.ends_with(".tmp") {
            // crash between write and rename: the rename never happened, so
            // the durable file (if any) is intact and this litter is dead;
            // litter someone else removed first is no longer our concern
            match fs.remove_file(&entry.path()) {
                Ok(()) => out.tmp_cleaned += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(JobError::io(entry.path().display().to_string(), e)),
            }
            continue;
        }
        let Some(step) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(".snap").or_else(|| r.strip_suffix(".json")))
            .and_then(|d| d.parse::<usize>().ok())
        else {
            out.skipped.push(SkippedCheckpoint { file: name, reason: "unrecognized name".into() });
            continue;
        };
        let meta = match entry.metadata() {
            Ok(m) => m,
            Err(e) => {
                out.skipped.push(SkippedCheckpoint { file: name, reason: format!("stat: {e}") });
                continue;
            }
        };
        if !meta.is_file() {
            out.skipped.push(SkippedCheckpoint { file: name, reason: "not a regular file".into() });
            continue;
        }
        if meta.len() == 0 {
            out.skipped.push(SkippedCheckpoint {
                file: name,
                reason: "empty file (crash before write)".into(),
            });
            continue;
        }
        candidates.push((step, entry.path(), name));
    }
    // newest first: try to load until one validates; older files are not
    // resumed from, so they are not worth validating. Within a step the
    // name breaks the tie, so `.snap` is tried before legacy `.json`.
    candidates.sort_by(|a, b| (b.0, &b.2).cmp(&(a.0, &a.2)));
    for (step, path, name) in candidates {
        match Snapshot::load(&path) {
            Ok(snap) => {
                out.best = Some((step, snap));
                break;
            }
            Err(err) => out.skipped.push(SkippedCheckpoint { file: name, reason: err.to_string() }),
        }
    }
    out.skipped.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(out)
}

/// True for a checkpoint file name: `ckpt-<step>.snap`, a legacy
/// `ckpt-<step>.json`, or a `.tmp` sibling of either.
pub(crate) fn is_checkpoint_name(name: &str) -> bool {
    name.starts_with("ckpt-")
}

/// Deletes every checkpoint file directly inside `dir` through `fs`, in
/// name order. A finished job's checkpoints are dead weight: its result is
/// in the cache, which intake consults before any resume.
pub(crate) fn remove_checkpoints(fs: &dyn SpoolFs, dir: &Path) -> std::io::Result<()> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.file_name()))
        .collect::<Result<_, _>>()?;
    names.retain(|name| is_checkpoint_name(&name.to_string_lossy()));
    names.sort();
    names.iter().try_for_each(|name| fs.remove_file(&dir.join(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::ScratchDir;
    use nbody_core::testutil::XorShift64;
    use workloads::snapshot::SNAPSHOT_VERSION;
    use workloads::spec::WorkloadSpec;

    /// A fresh `name` directory inside the test's unique scratch dir.
    fn tmp(scratch: &ScratchDir, name: &str) -> PathBuf {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_valid(dir: &Path, step: usize) {
        let set = WorkloadSpec::plummer(16, 42).generate();
        save_checkpoint(dir, "test", step as f64 * 1e-3, step, &set).unwrap();
    }

    /// The name a checkpoint for `step` had before the binary format.
    fn legacy_path(dir: &Path, step: usize) -> PathBuf {
        dir.join(format!("ckpt-{step:05}.json"))
    }

    /// The JSON text a checkpoint for `step` had before the binary format
    /// (schema version 2).
    fn legacy_json(step: usize) -> String {
        let set = WorkloadSpec::plummer(16, 42).generate();
        let mut snap = Snapshot::new("test", step as f64 * 1e-3, set);
        snap.version = 2;
        snap.to_json()
    }

    #[test]
    fn missing_dir_is_empty_scan() {
        let scan = scan(Path::new("/definitely/not/here")).unwrap();
        assert!(scan.best.is_none());
        assert!(scan.skipped.is_empty());
    }

    #[test]
    fn newest_valid_checkpoint_wins() {
        let scratch = ScratchDir::new("ckpt");
        let dir = tmp(&scratch, "newest");
        for step in [3, 9, 6] {
            write_valid(&dir, step);
        }
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.best.as_ref().unwrap().0, 9);
        assert!(scan.skipped.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_byte_truncated_wrong_version_and_corrupt_all_skipped() {
        let scratch = ScratchDir::new("ckpt");
        let dir = tmp(&scratch, "garbage");
        write_valid(&dir, 4);

        // legacy JSON checkpoints, garbled as before the binary format
        // zero-byte file at the highest step: crash before the write hit disk
        std::fs::write(legacy_path(&dir, 99), b"").unwrap();
        // truncated header: valid prefix cut mid-token
        let full = legacy_json(4);
        std::fs::write(legacy_path(&dir, 90), &full[..20]).unwrap();
        // wrong schema version
        let versioned = full.replacen("\"version\":2", "\"version\":999", 1);
        assert_ne!(versioned, full, "version field must exist to corrupt");
        std::fs::write(legacy_path(&dir, 91), versioned).unwrap();
        // checksum-corrupt payload: flip a digit inside the data
        let corrupt = full.replacen("\"time\":0.004", "\"time\":0.005", 1);
        assert_ne!(corrupt, full, "time field must exist to corrupt");
        std::fs::write(legacy_path(&dir, 92), corrupt).unwrap();

        // the same garbage kinds in binary v3 form
        let bytes = std::fs::read(checkpoint_path(&dir, 4)).unwrap();
        std::fs::write(checkpoint_path(&dir, 89), b"").unwrap();
        std::fs::write(checkpoint_path(&dir, 80), &bytes[..20]).unwrap();
        let mut versioned = bytes.clone();
        versioned[8] = 9; // the header's format number
        std::fs::write(checkpoint_path(&dir, 81), versioned).unwrap();
        let mut flipped = bytes.clone();
        let last = flipped.len() - 9; // final payload byte, before the checksum
        flipped[last] ^= 0x40;
        std::fs::write(checkpoint_path(&dir, 82), flipped).unwrap();
        std::fs::write(checkpoint_path(&dir, 83), "not a snapshot at all").unwrap();

        let scan = scan(&dir).unwrap();
        assert_eq!(scan.best.as_ref().unwrap().0, 4, "only the valid one survives");
        let skipped: Vec<&str> = scan.skipped.iter().map(|s| s.file.as_str()).collect();
        assert_eq!(
            skipped,
            [
                "ckpt-00080.snap",
                "ckpt-00081.snap",
                "ckpt-00082.snap",
                "ckpt-00083.snap",
                "ckpt-00089.snap",
                "ckpt-00090.json",
                "ckpt-00091.json",
                "ckpt-00092.json",
                "ckpt-00099.json"
            ]
        );
        let reasons: Vec<&str> = scan.skipped.iter().map(|s| s.reason.as_str()).collect();
        assert!(reasons[0].contains("length mismatch"), "{}", reasons[0]);
        assert!(reasons[1].contains("unsupported snapshot version 9"), "{}", reasons[1]);
        assert!(reasons[2].contains("checksum mismatch"), "{}", reasons[2]);
        assert!(reasons[3].contains("parse error"), "{}", reasons[3]);
        assert!(reasons[4].contains("empty file"), "{}", reasons[4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_files_are_deleted_not_resumed() {
        let scratch = ScratchDir::new("ckpt");
        let dir = tmp(&scratch, "tmp-litter");
        write_valid(&dir, 2);
        std::fs::write(dir.join("ckpt-00008.json.tmp"), "{half a snapsho").unwrap();
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.best.as_ref().unwrap().0, 2);
        assert_eq!(scan.tmp_cleaned, 1);
        assert!(!dir.join("ckpt-00008.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_removal_goes_through_the_seam() {
        let scratch = ScratchDir::new("ckpt");
        let dir = tmp(&scratch, "tmp-seam");
        write_valid(&dir, 2);
        std::fs::write(dir.join("ckpt-00004.snap.tmp"), "half a snapshot").unwrap();
        let fs = crate::fsx::CrashFs::counting();
        let scan = scan_with(fs.as_ref(), &dir).unwrap();
        assert_eq!(scan.best.as_ref().unwrap().0, 2);
        assert_eq!(scan.tmp_cleaned, 1);
        assert_eq!(fs.ops_used(), 1, "the removal must be a seam mutation");
        assert!(!dir.join("ckpt-00004.snap.tmp").exists());
    }

    #[test]
    fn foreign_files_and_weird_names_do_not_confuse_the_scan() {
        let scratch = ScratchDir::new("ckpt");
        let dir = tmp(&scratch, "foreign");
        write_valid(&dir, 5);
        std::fs::write(dir.join("bench.json"), "{}").unwrap();
        std::fs::write(dir.join("trace.csv"), "event\n").unwrap();
        std::fs::write(dir.join("ckpt-abc.json"), "{}").unwrap();
        std::fs::create_dir(dir.join("ckpt-00042.json")).unwrap();
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.best.as_ref().unwrap().0, 5);
        let reasons: Vec<&str> = scan.skipped.iter().map(|s| s.reason.as_str()).collect();
        assert!(reasons.contains(&"unrecognized name"), "{reasons:?}");
        assert!(reasons.contains(&"not a regular file"), "{reasons:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Seeded property test: litter the directory with a random mix of
    /// garbage around one valid checkpoint; the scan must always pick the
    /// valid one, skip every piece of garbage newer than it, and never
    /// panic.
    #[test]
    fn property_scan_survives_random_garbage() {
        let mut rng = XorShift64::new(0x5eed_50c1_a100);
        for case in 0..25 {
            let scratch = ScratchDir::new("ckpt");
            let dir = tmp(&scratch, &format!("prop-{case}"));
            let valid_step = 1 + (rng.next_u64() % 50) as usize;
            write_valid(&dir, valid_step);
            let full = legacy_json(valid_step);
            let bytes = std::fs::read(checkpoint_path(&dir, valid_step)).unwrap();
            let mut expected_skips = 0usize;
            for g in 0..(1 + rng.next_u64() % 6) {
                // garbage strictly newer than the valid checkpoint, so every
                // piece is probed (and must be skipped) before the valid one
                let step = valid_step + 1 + (g as usize) * 7 + (rng.next_u64() % 7) as usize;
                let (json, snap) = (legacy_path(&dir, step), checkpoint_path(&dir, step));
                match rng.next_u64() % 10 {
                    // legacy JSON checkpoints
                    0 => std::fs::write(&json, b"").unwrap(),
                    1 => {
                        let cut = 1 + (rng.next_u64() as usize) % (full.len() - 1);
                        std::fs::write(&json, &full[..cut]).unwrap();
                    }
                    2 => {
                        let v = rng.next_u64() % 100;
                        let v = format!("\"version\":{}", u64::from(SNAPSHOT_VERSION) + 1 + v);
                        std::fs::write(&json, full.replacen("\"version\":2", &v, 1)).unwrap();
                    }
                    3 => {
                        // flip payload without touching the stored checksum
                        let broken = full.replacen("\"x\":", "\"x\":1e9,\"ignored\":", 1);
                        std::fs::write(&json, broken).unwrap();
                    }
                    4 => std::fs::write(&json, "not json at all").unwrap(),
                    // binary v3 checkpoints
                    5 => std::fs::write(&snap, b"").unwrap(),
                    6 => {
                        let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
                        std::fs::write(&snap, &bytes[..cut]).unwrap();
                    }
                    7 => {
                        let mut versioned = bytes.clone();
                        let v = 4 + (rng.next_u64() % 100) as u32;
                        versioned[8..12].copy_from_slice(&v.to_le_bytes());
                        std::fs::write(&snap, versioned).unwrap();
                    }
                    8 => {
                        // flip a payload bit, past the header and label and
                        // before the stored checksum
                        let mut flipped = bytes.clone();
                        let payload = 32 + "test".len()..bytes.len() - 8;
                        let at = payload.start + (rng.next_u64() as usize) % payload.len();
                        flipped[at] ^= 1 << (rng.next_u64() % 8);
                        std::fs::write(&snap, flipped).unwrap();
                    }
                    _ => std::fs::write(&snap, "not a snapshot at all").unwrap(),
                }
                expected_skips += 1;
            }
            if rng.next_u64().is_multiple_of(2) {
                std::fs::write(dir.join("ckpt-00000.snap.tmp"), "dead").unwrap();
            }
            let scan = scan(&dir).unwrap();
            let (best_step, snap) = scan.best.expect("valid checkpoint must be found");
            assert_eq!(best_step, valid_step, "case {case}");
            assert!(snap.set.all_finite());
            assert_eq!(scan.skipped.len(), expected_skips, "case {case}: {:?}", scan.skipped);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
