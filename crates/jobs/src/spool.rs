//! The durable on-disk job spool: a crash-safe five-state machine.
//!
//! ```text
//! spool/
//!   seq                      next submission sequence ticket
//!   submitted/<id>.json      waiting for the scheduler
//!   running/<id>.json        claimed by a serve process
//!   done/<id>.json           completed (result in cache/)
//!   failed/<id>.json         terminal failure (typed error recorded)
//!   poisoned/<id>.json       quarantined: exhausted its attempt budget
//!   jobs/<hash16>/           per-job work dir: checkpoints + artifacts
//!   cache/<hash16>.json      content-addressed results
//!   daemon.json              daemon heartbeat (written atomically per tick)
//! ```
//!
//! Every file write goes through a `.tmp` sibling plus atomic rename, and
//! every state transition is `write destination → remove source`, so a
//! `kill -9` at any instant leaves either the old state, the new state, or
//! both — never a torn file. [`Spool::open`] repairs the "both" case with a
//! fixed precedence (`done`/`failed`/`poisoned` over `running` over
//! `submitted`), deletes stale `.tmp` litter *recursively across the whole
//! spool tree* (state dirs, the cache, and every per-job work/artifact
//! directory — a kill-9 between an artifact's `.tmp` write and its rename
//! must not leave debris forever), and re-queues jobs a dead server left in
//! `running/` so they resume from their checkpoints.
//!
//! Every mutation goes through the [`crate::fsx::SpoolFs`] seam, which is
//! what lets the crash-point fuzzer ([`crate::crashpoint`]) enumerate and
//! interrupt each one.

use crate::error::JobError;
use crate::fsx::{real_fs, SpoolFs};
use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The five job states; each is a directory under the spool root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for the scheduler.
    Submitted,
    /// Claimed by a serve process.
    Running,
    /// Completed; the result is in the cache.
    Done,
    /// Terminal failure; the record carries the typed error.
    Failed,
    /// Quarantined: the job consumed its whole cross-restart attempt budget
    /// (watchdog kills, unrecoverable faults, crash loops) and will not be
    /// retried again. The record carries the typed reason.
    Poisoned,
}

impl JobState {
    /// Directory name under the spool root.
    pub fn dir_name(self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Poisoned => "poisoned",
        }
    }

    /// All states.
    pub fn all() -> [JobState; 5] {
        [
            JobState::Submitted,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Poisoned,
        ]
    }

    /// True for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Poisoned)
    }
}

/// One spooled job: the spec plus its submission identity and outcome
/// bookkeeping. This is the JSON document that moves between state dirs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Monotone submission sequence (scheduling tiebreaker within a
    /// priority class).
    pub seq: u64,
    /// Stable identity: `job-<seq:08>-<hash16>` (also the file stem).
    pub id: String,
    /// Canonical content hash of the spec, as 16 hex digits.
    pub hash_hex: String,
    /// The request itself.
    pub spec: JobSpec,
    /// Attempts started so far. Incremented durably at *claim* time
    /// ([`Spool::claim`]), so a job that crashes the server on every
    /// attempt still accumulates history and can be poisoned instead of
    /// requeued forever.
    pub attempts: u32,
    /// Typed error message for failed/poisoned jobs (`[id] detail` form).
    pub error: Option<String>,
}

impl JobRecord {
    /// The record's file name in any state directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.id)
    }
}

/// What [`Spool::open`] had to repair after a crash.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpoolRecovery {
    /// Jobs moved from `running/` back to `submitted/` (they resume from
    /// their newest checkpoint).
    pub requeued: usize,
    /// Stale `.tmp` files deleted across the whole spool tree.
    pub tmp_cleaned: usize,
    /// Duplicate records dropped (a crash between the two halves of a
    /// transition left the job in two state dirs).
    pub duplicates_dropped: usize,
}

/// Handle to a spool directory tree.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
    fs: Arc<dyn SpoolFs>,
}

impl Spool {
    /// Opens (creating if needed) the spool at `root` on the production
    /// filesystem. See [`Spool::open_with`].
    pub fn open(root: impl Into<PathBuf>) -> Result<(Self, SpoolRecovery), JobError> {
        Self::open_with(root, real_fs())
    }

    /// Attaches to the spool at `root` on the production filesystem without
    /// running crash recovery: creates any missing state directories and
    /// touches nothing else. The client entry point (`submit`): a live
    /// server may own `running/` records and `.tmp` files that are about to
    /// be renamed, which [`Spool::open`] would requeue and delete.
    pub fn attach(root: impl Into<PathBuf>) -> Result<Self, JobError> {
        Self::attach_with(root.into(), real_fs())
    }

    fn attach_with(root: PathBuf, fs: Arc<dyn SpoolFs>) -> Result<Self, JobError> {
        let spool = Spool { root, fs };
        let state_dirs = JobState::all().into_iter().map(|state| spool.dir(state));
        for dir in state_dirs.chain([spool.cache_dir(), spool.jobs_dir()]) {
            spool
                .fs
                .create_dir_all(&dir)
                .map_err(|e| JobError::io(dir.display().to_string(), e))?;
        }
        Ok(spool)
    }

    /// Opens the spool at `root` with every mutation routed through `fs`,
    /// and repairs any crash litter: stale `.tmp` files are deleted
    /// recursively across the whole tree (state dirs, cache, per-job
    /// work/artifact dirs), duplicate records are resolved by state
    /// precedence, and jobs a dead server left in `running/` are re-queued.
    /// Only a server may call it: see [`Spool::attach`].
    pub fn open_with(
        root: impl Into<PathBuf>,
        fs: Arc<dyn SpoolFs>,
    ) -> Result<(Self, SpoolRecovery), JobError> {
        let spool = Self::attach_with(root.into(), fs)?;
        let mut recovery = SpoolRecovery::default();
        // one recursive sweep covers everything: state dirs, the cache, and
        // every per-job work directory however deep its artifacts nest
        recovery.tmp_cleaned +=
            crate::checkpoint::clean_stale_tmp_recursive(&spool.root, spool.fs.as_ref())
                .map_err(|e| JobError::io(spool.root.display().to_string(), e))?;

        // duplicate resolution: a terminal record wins over running, which
        // wins over submitted; then requeue whatever genuinely runs nowhere
        let terminal: Vec<String> = [JobState::Done, JobState::Failed, JobState::Poisoned]
            .into_iter()
            .flat_map(|s| spool.file_names(s))
            .collect();
        for state in [JobState::Running, JobState::Submitted] {
            for name in spool.file_names(state) {
                if terminal.contains(&name) {
                    spool.fs.remove_file(&spool.dir(state).join(&name)).ok();
                    recovery.duplicates_dropped += 1;
                }
            }
        }
        let running: Vec<String> = spool.file_names(JobState::Running);
        for name in running {
            let dst = spool.dir(JobState::Submitted).join(&name);
            if dst.exists() {
                // crash between claim-write and submitted-remove: the
                // submitted copy is authoritative, drop the claim
                spool.fs.remove_file(&spool.dir(JobState::Running).join(&name)).ok();
                recovery.duplicates_dropped += 1;
            } else {
                spool
                    .fs
                    .rename(&spool.dir(JobState::Running).join(&name), &dst)
                    .map_err(|e| JobError::io(dst.display().to_string(), e))?;
                recovery.requeued += 1;
            }
        }
        Ok((spool, recovery))
    }

    /// The spool root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The filesystem seam all of this spool's mutations go through.
    pub fn fs(&self) -> Arc<dyn SpoolFs> {
        Arc::clone(&self.fs)
    }

    /// The directory for `state`.
    pub fn dir(&self, state: JobState) -> PathBuf {
        self.root.join(state.dir_name())
    }

    /// The content-addressed result cache directory.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// The parent of all per-job work directories.
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// The daemon heartbeat/status file.
    pub fn status_path(&self) -> PathBuf {
        self.root.join("daemon.json")
    }

    /// The work directory (checkpoints, artifacts) for a job hash. Shared
    /// by identical resubmissions — which is exactly what lets a re-queued
    /// job resume the checkpoints of its crashed predecessor.
    pub fn job_dir(&self, hash_hex: &str) -> PathBuf {
        self.jobs_dir().join(hash_hex)
    }

    /// The result cache over this spool's cache directory (sharing the
    /// spool's filesystem seam).
    pub fn cache(&self) -> crate::cache::ResultCache {
        crate::cache::ResultCache::with_fs(self.cache_dir(), Arc::clone(&self.fs))
    }

    fn file_names(&self, state: JobState) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(self.dir(state)) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".json") {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }

    /// Allocates the next submission sequence number (ticket file, written
    /// atomically). Single-writer per spool; concurrent submitters should
    /// serialize externally.
    fn next_seq(&self) -> Result<u64, JobError> {
        let path = self.root.join("seq");
        let next = match std::fs::read_to_string(&path) {
            Ok(text) => text.trim().parse::<u64>().unwrap_or(0) + 1,
            Err(_) => 1,
        };
        self.fs
            .write_atomic(&path, next.to_string().as_bytes())
            .map_err(|e| JobError::io(path.display().to_string(), e))?;
        Ok(next)
    }

    /// Submits a spec: allocates a sequence number and durably writes the
    /// record into `submitted/`. No admission check happens here — the
    /// server is the authority (use [`crate::spec::admit`] client-side for
    /// an early error).
    pub fn submit(&self, spec: &JobSpec) -> Result<JobRecord, JobError> {
        let seq = self.next_seq()?;
        let hash_hex = spec.hash_hex();
        let record = JobRecord {
            seq,
            id: format!("job-{seq:08}-{hash_hex}"),
            hash_hex,
            spec: spec.clone(),
            attempts: 0,
            error: None,
        };
        self.write_record(&record, JobState::Submitted)?;
        Ok(record)
    }

    pub(crate) fn write_record(&self, record: &JobRecord, state: JobState) -> Result<(), JobError> {
        let path = self.dir(state).join(record.file_name());
        let json = serde_json::to_string_pretty(record).map_err(|e| JobError::Parse {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        self.fs
            .write_atomic(&path, json.as_bytes())
            .map_err(|e| JobError::io(path.display().to_string(), e))
    }

    /// All records in `state`, in scheduling order: priority class rank,
    /// then submission sequence. Unparseable records are quarantined into
    /// `failed/` (renamed as-is) instead of wedging the queue.
    pub fn list(&self, state: JobState) -> Result<Vec<JobRecord>, JobError> {
        let mut records = Vec::new();
        for name in self.file_names(state) {
            let path = self.dir(state).join(&name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| JobError::io(path.display().to_string(), e))?;
            match serde_json::from_str::<JobRecord>(&text) {
                Ok(rec) => records.push(rec),
                Err(err) => {
                    eprintln!("quarantining malformed spool record {name}: {err}");
                    let dst = self.dir(JobState::Failed).join(&name);
                    self.fs
                        .rename(&path, &dst)
                        .map_err(|e| JobError::io(dst.display().to_string(), e))?;
                }
            }
        }
        records.sort_by_key(|r| (r.spec.priority.rank(), r.seq));
        Ok(records)
    }

    /// Counts records in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.file_names(state).len()
    }

    /// The state dir currently holding job `id`, if any. Linear scan over
    /// the five dirs — used by `submit --wait` to poll an outcome.
    pub fn job_state(&self, id: &str) -> Option<JobState> {
        let name = format!("{id}.json");
        JobState::all().into_iter().find(|s| self.dir(*s).join(&name).exists())
    }

    /// Moves `record` from `from` to `to`, persisting any field updates
    /// (attempts, error). Crash-safe: destination is written first, then
    /// the source is removed; [`Spool::open`] resolves the overlap window.
    pub fn transition(
        &self,
        record: &JobRecord,
        from: JobState,
        to: JobState,
    ) -> Result<(), JobError> {
        self.write_record(record, to)?;
        let src = self.dir(from).join(record.file_name());
        match self.fs.remove_file(&src) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(JobError::io(src.display().to_string(), e)),
        }
    }

    /// Claims a submitted job for execution: durably charges one attempt
    /// (`attempts + 1` is written into `running/` *before* the job starts),
    /// so even a server that dies mid-job leaves an accurate attempt count
    /// for the poisoning policy to read after requeue. Returns the claimed
    /// record.
    pub fn claim(&self, record: &JobRecord) -> Result<JobRecord, JobError> {
        let mut claimed = record.clone();
        claimed.attempts += 1;
        self.transition(&claimed, JobState::Submitted, JobState::Running)?;
        Ok(claimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, Priority};
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::PlanKind;
    use workloads::spec::WorkloadSpec;

    fn spec(n: usize, seed: u64) -> JobSpec {
        JobSpec::new(WorkloadSpec::plummer(n, seed), PlanKind::JwParallel, 4)
    }

    #[test]
    fn submit_list_transition_roundtrip() {
        let scratch = ScratchDir::new("spool");
        let (spool, rec) = Spool::open(scratch.join("roundtrip")).unwrap();
        assert_eq!(rec, SpoolRecovery::default());
        let a = spool.submit(&spec(32, 1)).unwrap();
        let b = spool.submit(&spec(32, 2)).unwrap();
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert!(a.id.starts_with("job-00000001-"));
        let listed = spool.list(JobState::Submitted).unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].id, a.id, "sequence order within a class");
        spool.transition(&a, JobState::Submitted, JobState::Running).unwrap();
        assert_eq!(spool.count(JobState::Submitted), 1);
        assert_eq!(spool.count(JobState::Running), 1);
        let mut done = a.clone();
        done.attempts = 1;
        spool.transition(&done, JobState::Running, JobState::Done).unwrap();
        let done_listed = spool.list(JobState::Done).unwrap();
        assert_eq!(done_listed[0].attempts, 1);
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn priority_classes_order_before_sequence() {
        let scratch = ScratchDir::new("spool");
        let (spool, _) = Spool::open(scratch.join("priority")).unwrap();
        let mut batch = spec(16, 1);
        batch.priority = Priority::Batch;
        let mut high = spec(16, 2);
        high.priority = Priority::High;
        let normal = spec(16, 3);
        spool.submit(&batch).unwrap();
        spool.submit(&normal).unwrap();
        spool.submit(&high).unwrap();
        let ids: Vec<u64> =
            spool.list(JobState::Submitted).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(ids, [3, 2, 1], "high, then normal, then batch");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn reopen_requeues_running_and_cleans_tmp() {
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("requeue");
        let (spool, _) = Spool::open(&root).unwrap();
        let a = spool.submit(&spec(32, 1)).unwrap();
        spool.transition(&a, JobState::Submitted, JobState::Running).unwrap();
        // crash litter: a half-written record and a half-written checkpoint
        std::fs::write(spool.dir(JobState::Submitted).join("x.json.tmp"), "{half").unwrap();
        let jd = spool.job_dir(&a.hash_hex);
        std::fs::create_dir_all(&jd).unwrap();
        std::fs::write(jd.join("ckpt-00004.json.tmp"), "{half").unwrap();

        let (spool2, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.requeued, 1);
        assert!(recovery.tmp_cleaned >= 2, "{recovery:?}");
        assert_eq!(spool2.count(JobState::Running), 0);
        let listed = spool2.list(JobState::Submitted).unwrap();
        assert_eq!(listed[0].id, a.id);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn attach_and_submit_leave_a_live_servers_state_alone() {
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("attach");
        let (server, _) = Spool::open(&root).unwrap();
        let claimed = server.submit(&spec(32, 1)).unwrap();
        server.transition(&claimed, JobState::Submitted, JobState::Running).unwrap();
        // a write the server has not renamed into place yet
        let tmp = server.job_dir(&claimed.hash_hex).join("ckpt-00002.snap.tmp");
        std::fs::create_dir_all(tmp.parent().unwrap()).unwrap();
        std::fs::write(&tmp, "in flight").unwrap();

        let client = Spool::attach(&root).unwrap();
        client.submit(&spec(32, 2)).unwrap();
        assert_eq!(client.count(JobState::Running), 1, "attach requeued a claimed job");
        assert!(tmp.exists(), "attach swept an in-flight .tmp file");
        assert_eq!(client.count(JobState::Submitted), 1);

        // a server restart is what recovers them
        let (_, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.requeued, 1);
        assert!(!tmp.exists());
    }

    #[test]
    fn reopen_sweeps_cache_and_artifact_tmp_debris() {
        // the found shape: kill-9 between an artifact's .tmp write and its
        // rename used to leave debris forever in cache/ and jobs/<hash>/
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("artifact-debris");
        let (spool, _) = Spool::open(&root).unwrap();
        let a = spool.submit(&spec(32, 9)).unwrap();
        std::fs::write(spool.cache_dir().join("deadbeef.json.tmp"), "{half").unwrap();
        let jd = spool.job_dir(&a.hash_hex);
        std::fs::create_dir_all(&jd).unwrap();
        std::fs::write(jd.join("bench.json.tmp"), "{half").unwrap();
        std::fs::write(jd.join("trace.csv.tmp"), "event,").unwrap();
        std::fs::write(spool.root().join("daemon.json.tmp"), "{half").unwrap();
        // and one nested a level deeper than any current writer produces —
        // the sweep is recursive, not a hand-kept directory list
        let deep = jd.join("extra");
        std::fs::create_dir_all(&deep).unwrap();
        std::fs::write(deep.join("x.tmp"), "junk").unwrap();

        let (spool2, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.tmp_cleaned, 5, "{recovery:?}");
        assert!(!spool2.cache_dir().join("deadbeef.json.tmp").exists());
        assert!(!jd.join("bench.json.tmp").exists());
        assert!(!jd.join("trace.csv.tmp").exists());
        assert!(!deep.join("x.tmp").exists());
        assert!(!spool2.root().join("daemon.json.tmp").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_resolves_duplicates_by_precedence() {
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("dupes");
        let (spool, _) = Spool::open(&root).unwrap();
        let a = spool.submit(&spec(32, 1)).unwrap();
        // simulate a crash between transition halves: record in both
        // running/ and done/
        spool.write_record(&a, JobState::Running).unwrap();
        spool.write_record(&a, JobState::Done).unwrap();
        std::fs::remove_file(spool.dir(JobState::Submitted).join(a.file_name())).unwrap();
        let (spool2, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.duplicates_dropped, 1);
        assert_eq!(recovery.requeued, 0);
        assert_eq!(spool2.count(JobState::Done), 1);
        assert_eq!(spool2.count(JobState::Running), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn poisoned_records_win_precedence_and_survive_reopen() {
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("poison-precedence");
        let (spool, _) = Spool::open(&root).unwrap();
        let a = spool.submit(&spec(32, 4)).unwrap();
        let mut poisoned = a.clone();
        poisoned.attempts = 3;
        poisoned.error = Some("[poisoned] attempts exhausted".into());
        // crash between the halves of a running → poisoned transition
        spool.write_record(&a, JobState::Running).unwrap();
        spool.write_record(&poisoned, JobState::Poisoned).unwrap();
        std::fs::remove_file(spool.dir(JobState::Submitted).join(a.file_name())).unwrap();
        let (spool2, recovery) = Spool::open(&root).unwrap();
        assert_eq!(recovery.duplicates_dropped, 1);
        assert_eq!(spool2.count(JobState::Poisoned), 1);
        assert_eq!(spool2.count(JobState::Running), 0);
        assert_eq!(spool2.job_state(&a.id), Some(JobState::Poisoned));
        let rec = &spool2.list(JobState::Poisoned).unwrap()[0];
        assert_eq!(rec.attempts, 3);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn claim_durably_charges_an_attempt() {
        let scratch = ScratchDir::new("spool");
        let (spool, _) = Spool::open(scratch.join("claim")).unwrap();
        let a = spool.submit(&spec(32, 5)).unwrap();
        assert_eq!(a.attempts, 0);
        let claimed = spool.claim(&a).unwrap();
        assert_eq!(claimed.attempts, 1);
        assert_eq!(spool.count(JobState::Submitted), 0);
        let on_disk = &spool.list(JobState::Running).unwrap()[0];
        assert_eq!(on_disk.attempts, 1, "the charge is durable before the job runs");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn malformed_record_is_quarantined_not_fatal() {
        let scratch = ScratchDir::new("spool");
        let (spool, _) = Spool::open(scratch.join("quarantine")).unwrap();
        let good = spool.submit(&spec(32, 1)).unwrap();
        let submitted = spool.dir(JobState::Submitted);
        let text = std::fs::read_to_string(submitted.join(good.file_name())).unwrap();
        // not JSON, a wrong-typed field, a truncated record, trailing text
        let bad = [
            "{nope".to_string(),
            text.replace("\"attempts\": 0", "\"attempts\": \"0\""),
            text[..text.len() / 2].to_string(),
            format!("{text}}}"),
        ];
        for (i, body) in bad.iter().enumerate() {
            std::fs::write(submitted.join(format!("job-zzz{i}.json")), body).unwrap();
        }
        let listed = spool.list(JobState::Submitted).unwrap();
        assert_eq!(listed.len(), 1, "the good record survives");
        assert_eq!(listed[0].id, good.id);
        assert_eq!(spool.count(JobState::Failed), bad.len(), "each bad one is quarantined");
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn write_atomic_leaves_no_tmp_sibling() {
        let scratch = ScratchDir::new("spool");
        let root = scratch.join("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("x.json");
        crate::fsx::RealFs.write_atomic(&path, b"{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        assert!(!root.join("x.json.tmp").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn identical_specs_share_hash_but_not_identity() {
        let scratch = ScratchDir::new("spool");
        let (spool, _) = Spool::open(scratch.join("identity")).unwrap();
        let a = spool.submit(&spec(32, 1)).unwrap();
        let b = spool.submit(&spec(32, 1)).unwrap();
        assert_eq!(a.hash_hex, b.hash_hex);
        assert_ne!(a.id, b.id);
        assert_eq!(spool.job_dir(&a.hash_hex), spool.job_dir(&b.hash_hex));
        std::fs::remove_dir_all(spool.root()).ok();
    }

    #[test]
    fn job_state_locates_records_across_dirs() {
        let scratch = ScratchDir::new("spool");
        let (spool, _) = Spool::open(scratch.join("locate")).unwrap();
        let a = spool.submit(&spec(32, 7)).unwrap();
        assert_eq!(spool.job_state(&a.id), Some(JobState::Submitted));
        let claimed = spool.claim(&a).unwrap();
        assert_eq!(spool.job_state(&a.id), Some(JobState::Running));
        spool.transition(&claimed, JobState::Running, JobState::Done).unwrap();
        assert_eq!(spool.job_state(&a.id), Some(JobState::Done));
        assert_eq!(spool.job_state("job-99999999-none"), None);
        std::fs::remove_dir_all(spool.root()).ok();
    }
}
