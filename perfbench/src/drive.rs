//! Drives the real job path in-process: a closed loop over
//! `Spool::submit` + `server::drain`, or scripted bursts through
//! `daemon::run_daemon`. Each segment gets a fresh spool.

use crate::check::Submitted;
use crate::seam::{BenchFs, Moment};
use jobs::daemon::{run_daemon, DaemonConfig};
use jobs::error::JobError;
use jobs::server::{drain, JobOutcome, JobReport, ServerConfig};
use jobs::spec::JobSpec;
use jobs::spool::{JobState, Spool};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// One measured stretch of the job path.
#[derive(Debug)]
pub struct Segment {
    /// Wall seconds of the stretch.
    pub wall_s: f64,
    /// One entry per spool used, with the jobs submitted to it.
    pub spools: Vec<(Spool, Vec<Submitted>)>,
    /// The seams, one per spool.
    pub seams: Vec<Arc<BenchFs>>,
    /// Daemon ticks (0 for the closed loop, which runs no daemon).
    pub ticks: u64,
    /// Preemptions the scheduler reported.
    pub preempted: u64,
    /// Submit → `done/` seconds per job that reached `done/`.
    pub latency: Vec<f64>,
    /// Submit → first claim seconds per computed job.
    pub queue_wait: Vec<f64>,
    /// Last claim → `done/` seconds per computed job.
    pub run: Vec<f64>,
    /// Peak resident MiB while each closed-loop job or burst pass ran.
    pub rss_mib: Vec<f64>,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            wall_s: 0.0,
            spools: Vec::new(),
            seams: Vec::new(),
            ticks: 0,
            preempted: 0,
            latency: Vec::new(),
            queue_wait: Vec::new(),
            run: Vec::new(),
            rss_mib: Vec::new(),
        }
    }

    /// Every job of the segment.
    pub fn jobs(&self) -> impl Iterator<Item = &Submitted> {
        self.spools.iter().flat_map(|(_, jobs)| jobs.iter())
    }

    /// Jobs that reached `done/`.
    pub fn done(&self) -> usize {
        self.spools.iter().map(|(s, _)| s.count(JobState::Done)).sum()
    }

    /// Σ N·steps over the jobs that reached `done/`.
    pub fn body_steps(&self) -> f64 {
        self.spools
            .iter()
            .flat_map(|(s, jobs)| {
                jobs.iter().filter(move |j| s.job_state(&j.id) == Some(JobState::Done))
            })
            .map(|j| (j.spec.workload.n * j.spec.steps) as f64)
            .sum()
    }

    /// Bytes under every spool root.
    pub fn disk_bytes(&self) -> u64 {
        self.spools.iter().map(|(s, _)| dir_bytes(s.root())).sum()
    }

    fn absorb_seam(&mut self, seam: &BenchFs) {
        let mut first_submit = BTreeMap::new();
        let mut claims: BTreeMap<String, (Instant, Instant)> = BTreeMap::new();
        for (id, moment, at) in seam.events() {
            match moment {
                Moment::Submitted => {
                    first_submit.insert(id, at);
                }
                Moment::Claimed => {
                    claims.entry(id).and_modify(|c| c.1 = at).or_insert((at, at));
                }
                Moment::Done => {
                    let Some(&sub) = first_submit.get(&id) else { continue };
                    self.latency.push((at - sub).as_secs_f64());
                    if let Some(&(first, last)) = claims.get(&id) {
                        self.queue_wait.push((first - sub).as_secs_f64());
                        self.run.push((at - last).as_secs_f64());
                    }
                }
            }
        }
    }
}

/// Restarts this process's resident high-water mark from its current
/// resident size (Linux `clear_refs`; a no-op elsewhere).
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// This process's resident high-water mark in MiB (NaN where unknown).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Bytes of every regular file under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

fn open(dir: &Path, seam: &Arc<BenchFs>) -> Result<(Spool, jobs::spool::SpoolRecovery), JobError> {
    std::fs::remove_dir_all(dir).ok();
    Spool::open_with(dir, Arc::clone(seam) as Arc<dyn jobs::fsx::SpoolFs>)
}

fn server_config(seam: &Arc<BenchFs>) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.run.fs = Arc::clone(seam) as Arc<dyn jobs::fsx::SpoolFs>;
    config
}

fn last_reports(reports: &[JobReport]) -> BTreeMap<String, JobReport> {
    reports.iter().map(|r| (r.id.clone(), r.clone())).collect()
}

/// A closed loop with one client: submit a job, drain the spool, repeat
/// until `seconds` have passed (at least one job). `next_spec` makes job
/// `i`.
pub fn closed_loop(
    dir: &Path,
    traced: bool,
    seconds: f64,
    mut next_spec: impl FnMut() -> JobSpec,
) -> Result<Segment, JobError> {
    let seam = Arc::new(BenchFs::new(traced));
    let (spool, mut recovery) = open(dir, &seam)?;
    let config = server_config(&seam);
    let mut jobs = Vec::new();
    let t0 = Instant::now();
    let mut rss_mib = Vec::new();
    loop {
        let spec = next_spec();
        reset_peak_rss();
        let record = spool.submit(&spec)?;
        let summary = drain(&spool, std::mem::take(&mut recovery), &config)?;
        rss_mib.push(peak_rss_mib());
        let report = last_reports(&summary.reports).remove(&record.id);
        jobs.push(Submitted { spec, id: record.id, report });
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut seg = Segment::new();
    seg.rss_mib = rss_mib;
    seg.wall_s = t0.elapsed().as_secs_f64();
    seg.absorb_seam(&seam);
    seg.spools.push((spool, jobs));
    seg.seams.push(seam);
    Ok(seg)
}

/// One scripted burst through an in-process daemon with its default
/// supervision and batch preemption, `max_parallel` 2, `exit_when_idle`,
/// and no idle sleep.
pub fn burst(dir: &Path, traced: bool, script: &[(u64, JobSpec)]) -> Result<Segment, JobError> {
    let seam = Arc::new(BenchFs::new(traced));
    let (spool, recovery) = open(dir, &seam)?;
    let mut config = DaemonConfig {
        exit_when_idle: true,
        idle_sleep_ms: 0,
        arrivals: script.to_vec(),
        ..DaemonConfig::default()
    };
    config.server = ServerConfig { max_parallel: 2, ..server_config(&seam) };
    config.server.supervise = true;
    config.server.preempt_batch = true;
    let stop = AtomicBool::new(false);
    reset_peak_rss();
    let t0 = Instant::now();
    let daemon = run_daemon(&spool, recovery, &config, &stop)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let rss_mib = peak_rss_mib();

    // arrival order is submission order, so record ids follow the sorted
    // script; read them back from the spool rather than assume
    let mut reports = last_reports(&daemon.summary.reports);
    let mut records: Vec<_> =
        JobState::all().into_iter().flat_map(|s| spool.list(s).unwrap_or_default()).collect();
    records.sort_by_key(|r| r.seq);
    let mut jobs: Vec<Submitted> = records
        .into_iter()
        .map(|r| Submitted { report: reports.remove(&r.id), spec: r.spec, id: r.id })
        .collect();
    // an arrival the daemon never submitted is a job that never finished
    for (i, (_, spec)) in script.iter().enumerate().skip(jobs.len()) {
        jobs.push(Submitted { spec: spec.clone(), id: format!("undelivered-{i}"), report: None });
    }

    let mut seg = Segment::new();
    seg.wall_s = wall_s;
    seg.rss_mib.push(rss_mib);
    seg.ticks = daemon.ticks;
    seg.preempted =
        daemon.summary.reports.iter().filter(|r| r.outcome == JobOutcome::Preempted).count() as u64;
    seg.absorb_seam(&seam);
    seg.spools.push((spool, jobs));
    seg.seams.push(seam);
    Ok(seg)
}

/// Appends `other` to `self` (a run's passes form one segment).
impl Segment {
    pub fn extend(&mut self, other: Segment) {
        self.wall_s += other.wall_s;
        self.ticks += other.ticks;
        self.preempted += other.preempted;
        self.spools.extend(other.spools);
        self.seams.extend(other.seams);
        self.latency.extend(other.latency);
        self.queue_wait.extend(other.queue_wait);
        self.run.extend(other.run);
        self.rss_mib.extend(other.rss_mib);
    }

    /// An empty segment to extend.
    pub fn empty() -> Segment {
        Segment::new()
    }
}

/// The scratch directory of one run, under the current directory; removed
/// when dropped.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `<cwd>/.perfbench_runs/<pid>-<name>`; `name` keeps work
    /// directories of one process apart.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let dir = std::env::current_dir()?
            .join(".perfbench_runs")
            .join(format!("{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the work directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        if let Some(parent) = self.0.parent() {
            // succeeds only when no other run is using it
            std::fs::remove_dir(parent).ok();
        }
    }
}
