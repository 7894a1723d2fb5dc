//! # perfbench
//!
//! One wall-clock benchmark of the nbody-ptpm job path, end to end and
//! layer by layer. See `README.md` in this directory for the workloads, the
//! metrics, and which end-to-end metric each layer metric should move.
//!
//! A run has three parts:
//!
//! 1. **set-up**, repeated a few times (see [`Size`]): a fresh spool plus
//!    the warm-up job(s), timed as `setup_s`;
//! 2. **the measured region**: the workload for `--seconds`, every job
//!    through the real spool, scheduler and runner, in one process;
//! 3. **checks**, after the clock stops: every job must be in `done/` with a
//!    correct, finite result (see [`check`]).
//!
//! With `--trace 1` the measured region is split into an untraced half and
//! a traced half (a timing `SpoolFs`), and each job the traced half
//! computed is replayed through the public calls of every layer
//! ([`replay`]). That run reports the per-layer metrics instead of the
//! end-to-end ones.

pub mod check;
pub mod drive;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod seam;
pub mod timed_backend;

use check::{check_spool, Verdict};
use drive::{Segment, WorkDir};
use jobs::error::JobError;
use jobs::server::JobOutcome;
use jobs::spec::JobSpec;
use jobs::spool::{JobState, Spool};
use plans::prelude::{BackendKind, PlanKind};
use replay::{eval_wall, replay_job, Layers};
use report::{Metric, Outcome, Tally};
pub use scenario::Size;
use scenario::{burst_script, burst_warmup, closed_job, Rng};
use seam::WriteClass;
use std::collections::BTreeSet;
use std::time::Instant;

/// Host threads of the closed-loop workloads, and the count the `par`
/// speedup replay compares one thread with (what `nproc` reports on the
/// two-core machine the bounds were set on).
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client, cold `jw-parallel` jobs on the `sim`
    /// backend.
    SimTree16k,
    /// Closed loop, one client, cold `w-parallel` jobs on the `host`
    /// backend.
    HostTier,
    /// A scripted burst through the in-process daemon.
    ServiceBurst,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::SimTree16k, Workload::HostTier, Workload::ServiceBurst];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimTree16k => "sim-tree-16k",
            Workload::HostTier => "host-tier",
            Workload::ServiceBurst => "service-burst",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the workload runs with. The burst runs one: its waves
    /// already hold two jobs, and two jobs of two `par` threads each keep
    /// four threads busy on two cores, so its wall time followed the host's
    /// scheduler more than the job path.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServiceBurst => 1,
            _ => THREADS,
        }
    }

    /// The job kind of a closed-loop workload.
    fn closed_kind(self) -> Option<(PlanKind, BackendKind)> {
        match self {
            Workload::SimTree16k => Some((PlanKind::JwParallel, BackendKind::Sim)),
            Workload::HostTier => Some((PlanKind::WParallel, BackendKind::Host)),
            Workload::ServiceBurst => None,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Problem sizes.
    pub size: Size,
}

/// Runs one invocation inside `work`.
pub fn run(opts: &Options, work: &WorkDir) -> Result<Outcome, JobError> {
    par::set_threads(opts.workload.threads());
    let mut rng = Rng::new(opts.seed, opts.workload as u64);

    let mut setup = Tally::default();
    let reps = match opts.workload {
        Workload::ServiceBurst => opts.size.burst_setup_reps,
        _ => opts.size.closed_setup_reps,
    };
    for rep in 0..reps {
        let dir = work.join(&format!("setup-{rep}"));
        let t0 = Instant::now();
        match opts.workload.closed_kind() {
            Some((plan, backend)) => {
                let n = opts.size.closed_n;
                drive::closed_loop(&dir, false, 0.0, || closed_job(plan, backend, n, &mut rng))?;
            }
            None => {
                drive::burst(&dir, false, &burst_warmup(opts.size, &mut rng))?;
            }
        }
        setup.add(t0.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir).ok();
    }

    if !opts.trace {
        let seg = measure(opts, work, "run", false, opts.seconds, &mut rng)?;
        let t0 = Instant::now();
        let verdict = check_segment(&seg, &mut rng);
        let check_s = t0.elapsed().as_secs_f64();
        let mut out = outcome(&[&verdict], &seg);
        out.notes.push(format!("checks took {check_s:.3} s wall (outside the measured region)"));
        out.metrics = end_to_end(&seg, &setup);
        return Ok(out);
    }

    let half = opts.seconds / 2.0;
    let untraced = measure(opts, work, "untraced", false, half, &mut rng)?;
    let traced = measure(opts, work, "traced", true, half, &mut rng)?;
    let v_untraced = check_segment(&untraced, &mut rng);
    let v_traced = check_segment(&traced, &mut rng);
    let mut out = outcome(&[&v_untraced, &v_traced], &traced);
    out.attempted += untraced.jobs().count() as u64;
    let layers = per_layer(opts.workload, &untraced, &traced, &v_traced, work, &mut out)?;
    out.metrics = layers;
    Ok(out)
}

/// The measured region: one closed loop, or whole burst passes (at least
/// one) for about `seconds`.
fn measure(
    opts: &Options,
    work: &WorkDir,
    name: &str,
    traced: bool,
    seconds: f64,
    rng: &mut Rng,
) -> Result<Segment, JobError> {
    match opts.workload.closed_kind() {
        Some((plan, backend)) => {
            let n = opts.size.closed_n;
            drive::closed_loop(&work.join(name), traced, seconds, || {
                closed_job(plan, backend, n, rng)
            })
        }
        None => {
            // the whole number of passes whose wall time comes closest to
            // `seconds`: stopping at the first pass to reach `seconds` would
            // run one pass or two as a pass took a little under or over it
            let mut seg = Segment::empty();
            let mut pass = 0;
            loop {
                let script = burst_script(opts.size, rng);
                seg.extend(drive::burst(&work.join(&format!("{name}-{pass}")), traced, &script)?);
                pass += 1;
                let per_pass = seg.wall_s / pass as f64;
                if seg.wall_s + per_pass / 2.0 >= seconds {
                    return Ok(seg);
                }
            }
        }
    }
}

/// Output checks over every spool of `seg`. The first spool also gets a
/// seeded reference subset beyond one job per plan × backend shape.
fn check_segment(seg: &Segment, rng: &mut Rng) -> Verdict {
    let mut total = Verdict::default();
    for (i, (spool, jobs)) in seg.spools.iter().enumerate() {
        let extra: BTreeSet<usize> = if i == 0 && jobs.len() > 8 {
            (0..2).map(|_| (rng.next_u64() % jobs.len() as u64) as usize).collect()
        } else {
            BTreeSet::new()
        };
        let v = check_spool(spool, jobs, &extra);
        total.checked += v.checked;
        total.reference_runs += v.reference_runs;
        total.checksums.extend(v.checksums);
        total.failed.extend(v.failed.into_iter().map(|(id, why)| (format!("{i}:{id}"), why)));
    }
    total
}

fn outcome(verdicts: &[&Verdict], seg: &Segment) -> Outcome {
    let mut out = Outcome {
        attempted: seg.jobs().count() as u64,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
        metrics: Vec::new(),
    };
    for v in verdicts {
        out.failed += v.failed.len() as u64;
        out.failures.extend(v.failed.iter().map(|(id, why)| format!("{id}: {why}")));
        out.notes.push(format!(
            "checks: {} jobs checked, {} compared bit for bit with reference_set, {} failed",
            v.checked,
            v.reference_runs,
            v.failed.len()
        ));
    }
    out
}

const MIB: f64 = 1024.0 * 1024.0;

fn end_to_end(seg: &Segment, setup: &Tally) -> Vec<Metric> {
    let done = seg.done();
    let latency = tally(&seg.latency);
    let rss = tally(&seg.rss_mib);
    vec![
        Metric::maybe("setup_s", "s", setup.median(), setup.count(), "no set-up ran"),
        Metric::new("jobs_per_s", "1/s", done as f64 / seg.wall_s, done),
        Metric::new("body_steps_per_s", "1/s", seg.body_steps() / seg.wall_s, done),
        Metric::maybe("latency_p50_s", "s", latency.median(), latency.count(), "no job finished"),
        Metric::maybe("peak_rss_mb", "MiB", rss.median(), rss.count(), "no peak read"),
        Metric::new("spool_disk_mb", "MiB/job", seg.disk_bytes() as f64 / MIB / done as f64, done),
    ]
}

fn tally(samples: &[f64]) -> Tally {
    let mut t = Tally::default();
    samples.iter().for_each(|&x| t.add(x));
    t
}

/// The traced run's per-layer metrics. Replays every job the traced half
/// computed and adds any replay/cache mismatch to `out`'s failures.
fn per_layer(
    workload: Workload,
    untraced: &Segment,
    traced: &Segment,
    verdict: &Verdict,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<Vec<Metric>, JobError> {
    let mut m = Vec::new();
    let scratch = work.join("replay");

    // the replay: every computed job, through every layer
    let mut layers = Layers::default();
    let mut hits = Vec::new();
    let mut resumed = 0u64;
    for (spool, jobs) in &traced.spools {
        for job in jobs {
            let Some(report) = &job.report else { continue };
            match report.outcome {
                JobOutcome::Computed => {
                    let was_resumed = report.resumed_from > 0;
                    resumed += u64::from(was_resumed);
                    let sum = replay_job(&job.spec, was_resumed, &scratch, &mut layers);
                    let hash = job.spec.hash_hex();
                    if verdict.checksums.get(&hash).is_some_and(|&c| c != sum) {
                        out.failed += 1;
                        out.failures
                            .push(format!("{}: replay checksum differs from cache", job.id));
                    }
                }
                JobOutcome::CacheHit => hits.push((spool.clone(), job.spec.hash_hex())),
                _ => {}
            }
        }
    }
    std::fs::remove_dir_all(&scratch).ok();

    // plans, per backend, through the decorator
    for (name, b) in [("sim", &layers.sim), ("host", &layers.host)] {
        let idle = format!("no {name}-backend job in this workload");
        let evals = b.busy.count();
        let busy = b.busy.sum();
        if evals == 0 {
            for (metric, unit) in
                [("evals", "count"), ("busy_wall_s", "s"), ("interactions_per_wall_s", "1/s")]
            {
                m.push(Metric::na(&format!("plans.{name}.{metric}"), unit, &idle));
            }
            if name == "sim" {
                m.push(Metric::na("plans.sim.prep_wall_s", "s", &idle));
            }
            continue;
        }
        m.push(Metric::new(&format!("plans.{name}.evals"), "count", evals as f64, evals));
        m.push(Metric::new(&format!("plans.{name}.busy_wall_s"), "s", busy, evals));
        m.push(Metric::new(
            &format!("plans.{name}.interactions_per_wall_s"),
            "1/s",
            b.interactions as f64 / busy,
            evals,
        ));
        if name == "sim" {
            m.push(Metric::new("plans.sim.prep_wall_s", "s", b.prep_wall_s, evals));
        }
    }

    // gpu-sim: simulated seconds next to the wall seconds that paid for them
    let sim = &layers.sim;
    let sim_evals = sim.busy.count();
    if sim_evals == 0 {
        let idle = "no sim-backend job in this workload";
        m.push(Metric::na("gpu_sim.launches", "count", idle));
        m.push(Metric::na("gpu_sim.kernel_sim_s", "s", idle));
        m.push(Metric::na("gpu_sim.transfer_sim_s", "s", idle));
        m.push(Metric::na("gpu_sim.wall_per_sim", "s/s", idle));
    } else {
        m.push(Metric::new("gpu_sim.launches", "count", sim.launches as f64, sim_evals));
        m.push(Metric::new("gpu_sim.kernel_sim_s", "s", sim.kernel_sim_s, sim_evals));
        m.push(Metric::new("gpu_sim.transfer_sim_s", "s", sim.transfer_sim_s, sim_evals));
        m.push(Metric::new(
            "gpu_sim.wall_per_sim",
            "s/s",
            sim.busy.sum() / sim.total_sim_s,
            sim_evals,
        ));
    }

    // ptpm: model seconds next to simulated seconds
    let jobs_replayed = layers.jobs as usize;
    m.push(Metric::new("ptpm.forecast_model_s", "s", layers.forecast_model_s, jobs_replayed));
    m.push(Metric::maybe(
        "ptpm.forecast_over_sim",
        "s/s",
        (layers.simulated_s > 0.0).then(|| layers.forecast_sim_model_s / layers.simulated_s),
        sim_evals,
        "no sim-backend job, so no simulated seconds",
    ));

    // treecode, timed directly on the sets the tree plans evaluated
    let mut build = layers.sim.tree_build.clone();
    build.merge(&layers.host.tree_build);
    let mut walks = layers.sim.tree_walks.clone();
    walks.merge(&layers.host.tree_walks);
    let tree_evals = build.count();
    if tree_evals == 0 {
        let idle = "no tree-plan job in this workload";
        m.push(Metric::na("treecode.build.busy_wall_s", "s", idle));
        m.push(Metric::na("treecode.walks.busy_wall_s", "s", idle));
        m.push(Metric::na("treecode.walks.entries", "count", idle));
        m.push(Metric::na("treecode.walks.list_len_cv", "ratio", idle));
    } else {
        let entries = layers.sim.walk_entries + layers.host.walk_entries;
        let cv = (layers.sim.list_len_cv_sum + layers.host.list_len_cv_sum) / tree_evals as f64;
        m.push(Metric::new("treecode.build.busy_wall_s", "s", build.sum(), tree_evals));
        m.push(Metric::new("treecode.walks.busy_wall_s", "s", walks.sum(), tree_evals));
        m.push(Metric::new("treecode.walks.entries", "count", entries as f64, tree_evals));
        m.push(Metric::new("treecode.walks.list_len_cv", "ratio", cv, tree_evals));
    }

    // nbody-core and workloads
    let n_int = layers.integrate.count();
    m.push(Metric::new("nbody_core.integrate.busy_wall_s", "s", layers.integrate.sum(), n_int));
    let n_gen = layers.generate.count();
    m.push(Metric::new("workloads.generate.busy_wall_s", "s", layers.generate.sum(), n_gen));

    // par: one evaluation of the largest computed job per backend, at 1 and
    // 2 host threads
    m.push(Metric::new("par.threads", "count", par::threads() as f64, 1));
    for (name, kind) in [("sim", BackendKind::Sim), ("host", BackendKind::Host)] {
        let metric = format!("par.{name}_eval_speedup");
        let spec = largest_computed(traced, kind);
        m.push(match spec {
            None => {
                Metric::na(&metric, "ratio", &format!("no {name}-backend job in this workload"))
            }
            Some(spec) => {
                eval_wall(&spec, THREADS, 1);
                let one = eval_wall(&spec, 1, 3);
                let two = eval_wall(&spec, THREADS, 3);
                par::set_threads(workload.threads());
                let speedup = one.median().zip(two.median()).map(|(a, b)| a / b);
                Metric::maybe(&metric, "ratio", speedup, one.count().min(two.count()), "no timing")
            }
        });
    }

    // jobs: the fs seam, by write class
    let mut classes = std::collections::BTreeMap::new();
    let mut mutations = 0;
    for seam in &traced.seams {
        for (class, stats) in seam.classes() {
            let c: &mut seam::ClassStats = classes.entry(class).or_default();
            c.writes += stats.writes;
            c.bytes += stats.bytes;
            c.wall_s += stats.wall_s;
        }
        mutations += seam.mutations();
    }
    for class in WriteClass::ALL {
        let c = classes.get(&class).copied().unwrap_or_default();
        let n = c.writes as usize;
        let id = class.id();
        if n == 0 {
            let idle = format!("no {id} writes in this workload");
            m.push(Metric::na(&format!("jobs.{id}.writes"), "count", &idle));
            m.push(Metric::na(&format!("jobs.{id}.bytes"), "B", &idle));
            m.push(Metric::na(&format!("jobs.{id}.write_wall_s"), "s", &idle));
        } else {
            m.push(Metric::new(&format!("jobs.{id}.writes"), "count", n as f64, n));
            m.push(Metric::new(&format!("jobs.{id}.bytes"), "B", c.bytes as f64, n));
            m.push(Metric::new(&format!("jobs.{id}.write_wall_s"), "s", c.wall_s, n));
        }
    }
    m.push(Metric::new("jobs.fs.mutations", "count", mutations as f64, mutations as usize));

    // jobs: the scheduler
    let queue_wait = tally(&traced.queue_wait);
    let run = tally(&traced.run);
    m.push(Metric::maybe(
        "jobs.queue_wait_p50_s",
        "s",
        queue_wait.median(),
        queue_wait.count(),
        "no job was claimed",
    ));
    m.push(Metric::maybe("jobs.run_p50_s", "s", run.median(), run.count(), "no job was claimed"));
    if traced.ticks == 0 {
        let idle = "closed loop: server::drain runs, no daemon";
        m.push(Metric::na("jobs.daemon.ticks", "count", idle));
        m.push(Metric::na("jobs.daemon.tick_wall_s", "s", idle));
    } else {
        let t = traced.ticks as usize;
        m.push(Metric::new("jobs.daemon.ticks", "count", t as f64, t));
        m.push(Metric::new("jobs.daemon.tick_wall_s", "s", traced.wall_s / t as f64, t));
    }
    let peak = traced.seams.iter().map(|s| s.backlog_peak()).max().unwrap_or(0) as usize;
    m.push(Metric::new("jobs.spool.backlog_peak", "count", peak as f64, traced.seams.len()));
    let list = list_wall(traced, peak.max(1), &work.join("list"))?;
    m.push(Metric::maybe(
        "jobs.spool.list_wall_s",
        "s",
        list.median(),
        list.count(),
        "no list timed",
    ));

    // jobs: the service path
    let done = traced.done();
    m.push(Metric::new("jobs.cache.hit_ratio", "ratio", hits.len() as f64 / done as f64, done));
    let mut lookup = Tally::default();
    for (spool, hash) in &hits {
        let t0 = Instant::now();
        let found = spool.cache().lookup(hash)?;
        lookup.add(t0.elapsed().as_secs_f64());
        if found.is_none() {
            out.failed += 1;
            out.failures.push(format!("cache entry {hash} vanished"));
        }
    }
    m.push(Metric::maybe(
        "jobs.cache.lookup_wall_s",
        "s",
        (lookup.count() > 0).then(|| lookup.sum()),
        lookup.count(),
        "no cache hits: every job is cold",
    ));
    m.push(Metric::new("jobs.preempted", "count", traced.preempted as f64, done));
    m.push(Metric::new("jobs.resumed", "count", resumed as f64, done));
    m.push(Metric::new("jobs.verify.reruns", "count", layers.verify.count() as f64, done));
    m.push(Metric::maybe(
        "jobs.verify.busy_wall_s",
        "s",
        (layers.verify.count() > 0).then(|| layers.verify.sum()),
        layers.verify.count(),
        "no job resumed, so nothing was re-verified",
    ));
    m.push(Metric::new(
        "jobs.artifact.busy_wall_s",
        "s",
        layers.artifact.sum(),
        layers.artifact.count(),
    ));
    m.push(Metric::new("jobs.admit.busy_wall_s", "s", layers.admit.sum(), layers.admit.count()));
    m.push(Metric::new(
        "jobs.checkpoint.save_wall_s",
        "s",
        layers.checkpoint.sum(),
        layers.checkpoint.count(),
    ));

    // end-to-end figures that are honest only as diagnostics
    let latency = tally(&traced.latency);
    m.push(Metric::maybe(
        "latency_p90_s",
        "s",
        latency.quantile(0.9),
        latency.count(),
        &format!("{} samples; a p90 needs 10 beyond it", latency.count()),
    ));
    let attempted = out.attempted.max(1);
    m.push(Metric::new(
        "failed_share",
        "fraction",
        out.failed as f64 / attempted as f64,
        attempted as usize,
    ));

    // the tracing itself
    let per_job = |s: &Segment| s.wall_s / s.done().max(1) as f64;
    m.push(Metric::new(
        "trace.overhead_share",
        "fraction",
        per_job(traced) / per_job(untraced) - 1.0,
        traced.done() + untraced.done(),
    ));
    m.push(Metric::new(
        "trace.unattributed_share",
        "fraction",
        1.0 - layers.attributed_s() / layers.replay_wall_s,
        jobs_replayed,
    ));
    out.notes.push(format!(
        "replay: {} jobs, {:.3} s wall, {:.3} s in layer spans",
        layers.jobs,
        layers.replay_wall_s,
        layers.attributed_s()
    ));
    Ok(m)
}

/// The largest-N computed job of the traced half on `kind`.
fn largest_computed(seg: &Segment, kind: BackendKind) -> Option<JobSpec> {
    seg.jobs()
        .filter(|j| j.report.as_ref().is_some_and(|r| r.outcome == JobOutcome::Computed))
        .filter(|j| j.spec.backend_kind() == kind && j.spec.fault_seed.is_none())
        .max_by_key(|j| j.spec.workload.n)
        .map(|j| j.spec.clone())
}

/// One `Spool::list` of `submitted/` holding `backlog` records (the
/// traced half's peak), timed three times.
fn list_wall(seg: &Segment, backlog: usize, dir: &std::path::Path) -> Result<Tally, JobError> {
    std::fs::remove_dir_all(dir).ok();
    let (spool, _) = Spool::open(dir)?;
    let specs: Vec<&JobSpec> = seg.jobs().map(|j| &j.spec).collect();
    for spec in specs.iter().cycle().take(backlog) {
        spool.submit(spec)?;
    }
    let mut t = Tally::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(spool.list(JobState::Submitted)?);
        t.add(t0.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(dir).ok();
    Ok(t)
}
