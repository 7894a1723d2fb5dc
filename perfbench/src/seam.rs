//! The benchmark's `SpoolFs`: every durable mutation of the job path
//! passes through it, so it sees the job lifecycle from outside.
//!
//! With tracing off it records only timestamps of three spool events per
//! job record (written into `submitted/`, renamed into `running/`, renamed
//! into `done/`), which is what the end-to-end latency needs. With tracing
//! on it also times every write and rename and classifies it by path into
//! record, seq, checkpoint, cache, artifact and heartbeat writes.

use jobs::fsx::{RealFs, SpoolFs};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// What a durable write was for, read off its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteClass {
    /// A job record in one of the state directories.
    Record,
    /// The submission sequence ticket.
    Seq,
    /// A `ckpt-*.json` snapshot in a job's work directory.
    Checkpoint,
    /// A result-cache entry.
    Cache,
    /// `bench.json` / `trace.csv` in a job's work directory.
    Artifact,
    /// The daemon's `daemon.json` heartbeat.
    Heartbeat,
}

impl WriteClass {
    /// All classes, in report order.
    pub const ALL: [WriteClass; 6] = [
        WriteClass::Record,
        WriteClass::Seq,
        WriteClass::Checkpoint,
        WriteClass::Cache,
        WriteClass::Artifact,
        WriteClass::Heartbeat,
    ];

    /// Metric-name component.
    pub fn id(self) -> &'static str {
        match self {
            WriteClass::Record => "record",
            WriteClass::Seq => "seq",
            WriteClass::Checkpoint => "checkpoint",
            WriteClass::Cache => "cache",
            WriteClass::Artifact => "artifact",
            WriteClass::Heartbeat => "heartbeat",
        }
    }

    /// Classifies a spool path (a `.tmp` sibling counts as its target).
    pub fn of(path: &Path) -> WriteClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let name = name.strip_suffix(".tmp").unwrap_or(name);
        let parent = parent_name(path);
        match name {
            "seq" => WriteClass::Seq,
            "daemon.json" => WriteClass::Heartbeat,
            "bench.json" | "trace.csv" => WriteClass::Artifact,
            _ if name.starts_with("ckpt-") => WriteClass::Checkpoint,
            _ if parent == "cache" => WriteClass::Cache,
            _ => WriteClass::Record,
        }
    }
}

fn parent_name(path: &Path) -> &str {
    path.parent().and_then(|p| p.file_name()).and_then(|n| n.to_str()).unwrap_or("")
}

/// A job-lifecycle moment seen at the seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moment {
    /// The record's first write into `submitted/` (a requeue is not a
    /// new submission).
    Submitted,
    /// The record renamed into `running/` (a claim).
    Claimed,
    /// The record renamed into `done/`.
    Done,
}

/// Per-class write tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// `write` calls.
    pub writes: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Wall seconds inside `write` and `rename` for this class.
    pub wall_s: f64,
}

#[derive(Debug, Default)]
struct State {
    events: Vec<(String, Moment, Instant)>,
    submitted_ids: HashSet<String>,
    classes: BTreeMap<WriteClass, ClassStats>,
    mutations: u64,
    backlog: i64,
    backlog_peak: i64,
}

/// The benchmark's filesystem seam over [`RealFs`].
#[derive(Debug)]
pub struct BenchFs {
    traced: bool,
    state: Mutex<State>,
}

impl BenchFs {
    /// A seam that only stamps lifecycle moments (`traced == false`) or
    /// also times and classifies every mutation (`traced == true`).
    pub fn new(traced: bool) -> Self {
        BenchFs { traced, state: Mutex::new(State::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("seam state lock poisoned by a panicking job thread")
    }

    /// Lifecycle moments in the order they happened, keyed by record id.
    pub fn events(&self) -> Vec<(String, Moment, Instant)> {
        self.lock().events.clone()
    }

    /// Per-class write tallies (traced seams only).
    pub fn classes(&self) -> BTreeMap<WriteClass, ClassStats> {
        self.lock().classes.clone()
    }

    /// All mutations seen (traced seams only).
    pub fn mutations(&self) -> u64 {
        self.lock().mutations
    }

    /// Most records ever waiting in `submitted/` at once.
    pub fn backlog_peak(&self) -> u64 {
        self.lock().backlog_peak.max(0) as u64
    }

    fn stamp(&self, path: &Path, moment: Moment) {
        let Some(id) = record_id(path) else { return };
        let now = Instant::now();
        let mut st = self.lock();
        if moment == Moment::Submitted {
            // a preempted or requeued job re-enters the backlog but keeps
            // the moment it was first submitted
            st.backlog += 1;
            st.backlog_peak = st.backlog_peak.max(st.backlog);
            if !st.submitted_ids.insert(id.clone()) {
                return;
            }
        }
        st.events.push((id, moment, now));
    }

    fn account(&self, class: WriteClass, bytes: Option<usize>, wall_s: f64) {
        let mut st = self.lock();
        st.mutations += 1;
        let c = st.classes.entry(class).or_default();
        if let Some(b) = bytes {
            c.writes += 1;
            c.bytes += b as u64;
        }
        c.wall_s += wall_s;
    }
}

/// `job-…` from `<state>/job-….json[.tmp]`.
fn record_id(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let name = name.strip_suffix(".tmp").unwrap_or(name);
    let id = name.strip_suffix(".json")?;
    id.starts_with("job-").then(|| id.to_string())
}

impl SpoolFs for BenchFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.traced {
            self.lock().mutations += 1;
        }
        RealFs.create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t0 = self.traced.then(Instant::now);
        let result = RealFs.write(path, bytes);
        if let Some(t0) = t0 {
            self.account(WriteClass::of(path), Some(bytes.len()), t0.elapsed().as_secs_f64());
        }
        if parent_name(path) == "submitted" {
            self.stamp(path, Moment::Submitted);
        }
        result
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let t0 = self.traced.then(Instant::now);
        let result = RealFs.rename(from, to);
        if let Some(t0) = t0 {
            self.account(WriteClass::of(to), None, t0.elapsed().as_secs_f64());
        }
        match parent_name(to) {
            "running" => self.stamp(to, Moment::Claimed),
            "done" => self.stamp(to, Moment::Done),
            _ => {}
        }
        result
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if parent_name(path) == "submitted" && record_id(path).is_some() {
            self.lock().backlog -= 1;
        }
        if self.traced {
            self.lock().mutations += 1;
        }
        RealFs.remove_file(path)
    }
}
