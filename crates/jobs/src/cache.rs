//! Content-addressed result cache.
//!
//! The determinism contract (DESIGN.md §8) makes a job's final state a pure
//! function of `(spec, seed, plan, threads, tile)` — exactly the fields the
//! canonical job hash covers. So a completed result can be stored under
//! `cache/<hash16>.json` and any later submission of an identical spec is a
//! *cache hit*: the server returns the stored result without recomputing.
//! Scheduling-only fields (priority, deadline, fault injection) are excluded
//! from the hash on purpose — a job that limped through retries and device
//! faults produces bit-identical physics, so it may serve a later fault-free
//! resubmission.
//!
//! An entry is the JSON of a [`JobResult`], whose final snapshot is JSON
//! snapshot v3: the time, `pos`, `vel` and `mass`, and their content
//! checksum. The final accelerations are not stored (no reader needs
//! them, and the checksum does not cover them), so a hit's snapshot has
//! zero `acc`; legacy v2 entries still load, their `acc` skipped.
//!
//! Lookups re-verify the snapshot content checksum before trusting an entry:
//! the cache entry embeds a [`Snapshot`] through derived deserialization,
//! which skips the validating [`Snapshot::from_json`] path, and a cache that
//! silently served bit-rotted physics would defeat its own purpose. Since
//! every stored float is covered, no unchecked number is ever served. An
//! entry that is corrupt, or that cannot describe a particle set (ragged
//! arrays, an invalid mass), is treated as a miss and deleted.

use crate::error::JobError;
use crate::fsx::{real_fs, SpoolFs};
use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workloads::snapshot::{content_checksum, Snapshot};

/// A completed job's durable result: the final particle state plus the
/// execution metadata worth reporting on a cache hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Canonical job hash (16 hex digits) — the cache key.
    pub hash_hex: String,
    /// The spec that produced this result.
    pub spec: JobSpec,
    /// Final particle state at `steps × dt`. Accelerations are not
    /// stored: a result read back from the cache has zero `acc`.
    pub final_snapshot: Snapshot,
    /// Copy of the snapshot's content checksum, re-verified on every lookup.
    pub result_checksum: u64,
    /// Steps integrated.
    pub steps: usize,
    /// Simulated device seconds for the whole job (all attempts).
    pub simulated_total_s: f64,
    /// Simulated kernel-only seconds.
    pub simulated_kernel_s: f64,
    /// Simulated seconds lost to fault recovery.
    pub recovery_s: f64,
    /// Total injected faults survived.
    pub fault_total: u64,
    /// Step the final attempt resumed from (0 = ran from scratch).
    pub resumed_from: usize,
    /// Deadline retries consumed across the job's lifetime.
    pub retries: u32,
}

/// Handle to a cache directory of `<hash16>.json` entries.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    fs: Arc<dyn SpoolFs>,
}

impl ResultCache {
    /// Wraps `dir` (created lazily on first store) on the production
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_fs(dir, real_fs())
    }

    /// Wraps `dir` with every mutation routed through `fs`.
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn SpoolFs>) -> Self {
        ResultCache { dir: dir.into(), fs }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, hash_hex: &str) -> PathBuf {
        self.dir.join(format!("{hash_hex}.json"))
    }

    /// True when an entry is filed under `hash_hex`. Unvalidated: a corrupt
    /// entry counts until [`ResultCache::lookup`] evicts it.
    pub(crate) fn contains(&self, hash_hex: &str) -> bool {
        self.entry_path(hash_hex).exists()
    }

    /// Looks up a result by canonical hash. Returns `Ok(None)` on a miss.
    /// An entry that is unparseable, mislabeled, or fails its content
    /// checksum is deleted and reported as a miss — the job simply
    /// recomputes.
    pub fn lookup(&self, hash_hex: &str) -> Result<Option<JobResult>, JobError> {
        let path = self.entry_path(hash_hex);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(JobError::io(path.display().to_string(), e)),
        };
        match Self::validate(hash_hex, &text) {
            Ok(result) => Ok(Some(result)),
            Err(reason) => {
                eprintln!("evicting corrupt cache entry {}: {reason}", path.display());
                self.fs.remove_file(&path).ok();
                Ok(None)
            }
        }
    }

    fn validate(hash_hex: &str, text: &str) -> Result<JobResult, String> {
        let result: JobResult = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if result.hash_hex != hash_hex {
            return Err(format!("entry labeled {} filed under {hash_hex}", result.hash_hex));
        }
        if result.spec.hash_hex() != hash_hex {
            return Err("embedded spec does not hash to the cache key".into());
        }
        let snap = &result.final_snapshot;
        let actual = content_checksum(snap.time, &snap.set);
        if Some(actual) != snap.checksum || actual != result.result_checksum {
            return Err(format!(
                "content checksum mismatch (stored {:?}/{:#018x}, computed {actual:#018x})",
                snap.checksum, result.result_checksum
            ));
        }
        if !snap.set.all_finite() {
            return Err("snapshot contains non-finite values".into());
        }
        Ok(result)
    }

    /// Stores a result under its canonical hash, atomically. Overwrites any
    /// existing entry (determinism makes them bit-identical anyway).
    pub fn store(&self, result: &JobResult) -> Result<(), JobError> {
        self.fs
            .create_dir_all(&self.dir)
            .map_err(|e| JobError::io(self.dir.display().to_string(), e))?;
        let path = self.entry_path(&result.hash_hex);
        let json = serde_json::to_string(result).map_err(|e| JobError::Parse {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        self.fs
            .write_atomic(&path, json.as_bytes())
            .map_err(|e| JobError::io(path.display().to_string(), e))
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::{stored_bits, ScratchDir};
    use nbody_core::vec3::Vec3;
    use plans::prelude::{BackendKind, PlanKind};
    use workloads::spec::WorkloadSpec;

    fn result(n: usize, seed: u64) -> JobResult {
        let spec = JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, 3);
        let set = spec.workload.generate();
        let snap = Snapshot::new(spec.label(), 3.0 * spec.dt, set);
        let checksum = snap.checksum.unwrap();
        JobResult {
            hash_hex: spec.hash_hex(),
            spec,
            final_snapshot: snap,
            result_checksum: checksum,
            steps: 3,
            simulated_total_s: 1.0,
            simulated_kernel_s: 0.8,
            recovery_s: 0.0,
            fault_total: 0,
            resumed_from: 0,
            retries: 0,
        }
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("roundtrip"));
        let mut r = result(16, 1);
        r.final_snapshot.set.acc_mut().fill(Vec3::new(1.0, -2.0, 0.5));
        assert!(cache.lookup(&r.hash_hex).unwrap().is_none(), "miss before store");
        cache.store(&r).unwrap();
        let text = std::fs::read_to_string(cache.dir().join(format!("{}.json", r.hash_hex)));
        assert!(!text.unwrap().contains("\"acc\""), "entries store no accelerations");
        let hit = cache.lookup(&r.hash_hex).unwrap().expect("hit after store");
        let (got, want) = (&hit.final_snapshot, &r.final_snapshot);
        assert_eq!(stored_bits(&got.set), stored_bits(&want.set));
        assert_eq!(got.set.acc(), vec![Vec3::ZERO; 16], "a hit has zero acc");
        assert_eq!((got.time.to_bits(), got.checksum), (want.time.to_bits(), want.checksum));
        let mut stored = r.clone();
        stored.final_snapshot.set.clear_acc();
        assert_eq!(hit, stored, "every other field round-trips");
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn a_flipped_digit_in_any_stored_array_is_evicted() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("digits"));
        let r = result(16, 7);
        let path = cache.dir().join(format!("{}.json", r.hash_hex));
        for array in ["\"pos\":[", "\"vel\":[", "\"mass\":["] {
            cache.store(&r).unwrap();
            let mut text = std::fs::read_to_string(&path).unwrap().into_bytes();
            let start = text.windows(array.len()).position(|w| w == array.as_bytes()).unwrap();
            let digit = start + text[start..].iter().position(u8::is_ascii_digit).unwrap();
            text[digit] = if text[digit] == b'9' { b'8' } else { text[digit] + 1 };
            std::fs::write(&path, text).unwrap();
            assert!(cache.lookup(&r.hash_hex).unwrap().is_none(), "{array} digit: a miss");
            assert!(!path.exists(), "{array} digit: the entry is deleted");
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn a_ragged_entry_is_evicted_not_a_panic() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("ragged"));
        let r = result(16, 8);
        cache.store(&r).unwrap();
        // drop the last velocity: still valid JSON, one element short
        let path = cache.dir().join(format!("{}.json", r.hash_hex));
        let text = std::fs::read_to_string(&path).unwrap();
        let vel_end = text.find("],\"mass\":").unwrap();
        let last = text[..vel_end].rfind(",{").unwrap();
        std::fs::write(&path, format!("{}{}", &text[..last], &text[vel_end..])).unwrap();
        assert!(cache.lookup(&r.hash_hex).unwrap().is_none(), "a ragged entry is a miss");
        assert!(!path.exists(), "a ragged entry is deleted");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn precision_tiers_never_share_cache_entries() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("tiers"));
        let r = result(16, 6); // computed on the default (sim, f32-tier) backend
        cache.store(&r).unwrap();

        // the same spec pinned to another tier hashes differently, so the
        // lookup is a miss — an f32 result can never serve an f64 request
        let mut host_spec = r.spec.clone();
        host_spec.backend = Some(BackendKind::Host);
        assert_ne!(host_spec.hash_hex(), r.hash_hex);
        assert!(cache.lookup(&host_spec.hash_hex()).unwrap().is_none());

        let mut f32_spec = r.spec.clone();
        f32_spec.backend = Some(BackendKind::F32);
        assert_ne!(f32_spec.hash_hex(), host_spec.hash_hex());
        assert_ne!(f32_spec.hash_hex(), r.hash_hex);
        assert!(cache.lookup(&f32_spec.hash_hex()).unwrap().is_none());

        // while an explicit `auto` or `sim` still hits the stored entry
        for same in [BackendKind::Auto, BackendKind::Sim] {
            let mut spec = r.spec.clone();
            spec.backend = Some(same);
            assert_eq!(spec.hash_hex(), r.hash_hex);
            assert!(cache.lookup(&spec.hash_hex()).unwrap().is_some());
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_entry_is_evicted_as_miss() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("corrupt"));
        let r = result(16, 2);
        cache.store(&r).unwrap();
        // flip a payload digit without touching the stored checksums, as
        // silent bit rot would
        let path = cache.dir().join(format!("{}.json", r.hash_hex));
        let text = std::fs::read_to_string(&path).unwrap();
        let broken = text.replacen("\"time\":", "\"time\":1e9,\"ignored\":", 1);
        assert_ne!(text, broken);
        std::fs::write(&path, broken).unwrap();
        assert!(cache.lookup(&r.hash_hex).unwrap().is_none(), "corrupt entry is a miss");
        assert!(!path.exists(), "corrupt entry is deleted");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn mislabeled_entry_is_evicted() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("mislabel"));
        let r = result(16, 3);
        let other = result(16, 4);
        // file r's payload under other's key
        std::fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.dir().join(format!("{}.json", other.hash_hex));
        std::fs::write(&path, serde_json::to_string(&r).unwrap()).unwrap();
        assert!(cache.lookup(&other.hash_hex).unwrap().is_none());
        assert!(!path.exists());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn unparseable_entry_is_evicted() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("garbage"));
        std::fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.dir().join("deadbeefdeadbeef.json");
        std::fs::write(&path, "{nope").unwrap();
        assert!(cache.lookup("deadbeefdeadbeef").unwrap().is_none());
        assert!(!path.exists());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn store_is_atomic_no_tmp_left() {
        let scratch = ScratchDir::new("cache");
        let cache = ResultCache::new(scratch.join("atomic"));
        let r = result(8, 5);
        cache.store(&r).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
