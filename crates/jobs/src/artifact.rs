//! Per-job observability artifacts.
//!
//! Every *computed* job leaves two files in its spool work directory, both
//! written atomically and both deterministic for a fixed spec:
//!
//! * `bench.json` — the job's execution summary (simulated clock split,
//!   fault tally, resume/retry provenance), the job-server analogue of the
//!   repro binaries' bench tables;
//! * `trace.csv` — a compact event table (launches, PCIe transfers, host
//!   markers, injected faults) of the job's own priming evaluation, which
//!   [`crate::runner::run_job`] traces and hands back beside the result.
//!
//! No evaluation happens here: the writer only renders what the run
//! recorded. Cache hits do not rewrite artifacts: the files describe the
//! run that actually computed the result, and they are already in the
//! shared per-hash work directory.

use crate::cache::JobResult;
use crate::error::JobError;
use crate::fsx::SpoolFs;
use gpu_sim::trace::Trace;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Paths of the artifacts one job emitted.
#[derive(Debug, Clone)]
pub struct ArtifactSet {
    /// The execution-summary JSON.
    pub bench_json: PathBuf,
    /// The compact event table.
    pub trace_csv: PathBuf,
}

/// The `bench.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Canonical job hash.
    pub job: String,
    /// Human-readable spec label.
    pub label: String,
    /// Execution plan id.
    pub plan: String,
    /// Body count.
    pub n: usize,
    /// Steps integrated.
    pub steps: usize,
    /// Simulated end-to-end device seconds.
    pub simulated_total_s: f64,
    /// Simulated kernel-only seconds.
    pub simulated_kernel_s: f64,
    /// Simulated seconds lost to fault recovery.
    pub recovery_s: f64,
    /// Injected faults survived.
    pub fault_total: u64,
    /// Step the final attempt resumed from (0 = from scratch).
    pub resumed_from: usize,
    /// Deadline retries consumed.
    pub retries: u32,
    /// Kernel launches in the job's priming evaluation.
    pub trace_launches: usize,
    /// PCIe transfers in the job's priming evaluation.
    pub trace_transfers: usize,
    /// How `--plan auto` resolved the plan (`"auto:db-hit"` /
    /// `"auto:forecast"` / `"auto:measured"`); `None` when the plan was
    /// pinned explicitly.
    pub plan_source: Option<String>,
}

/// Compact CSV header: one row per event, empty cells where a column does
/// not apply.
pub const TRACE_CSV_HEADER: &str = "event,id,name,start_us,dur_us,bytes";

fn us(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

/// Renders a [`Trace`] as the compact per-job CSV.
pub fn trace_csv(trace: &Trace) -> String {
    let mut out = String::from(TRACE_CSV_HEADER);
    out.push('\n');
    let mut row = |cells: [String; 6]| {
        out.push_str(&cells.join(","));
        out.push('\n');
    };
    for lt in &trace.launches {
        row([
            "launch".into(),
            lt.launch_id.to_string(),
            lt.kernel.clone(),
            us(lt.start_s),
            us(lt.timing.seconds),
            String::new(),
        ]);
    }
    for tr in &trace.transfers {
        row([
            "transfer".into(),
            tr.transfer_id.to_string(),
            if tr.to_device { "h2d".into() } else { "d2h".into() },
            us(tr.start_s),
            us(tr.seconds),
            tr.bytes.to_string(),
        ]);
    }
    for m in &trace.markers {
        row([
            "marker".into(),
            String::new(),
            m.label.clone(),
            us(m.at_s),
            String::new(),
            String::new(),
        ]);
    }
    for ft in &trace.faults {
        row([
            "fault".into(),
            ft.fault_id.to_string(),
            format!("{} {}", ft.kind.id(), ft.op),
            us(ft.at_s),
            us(ft.charged_s),
            String::new(),
        ]);
    }
    out
}

/// Writes `bench.json` and `trace.csv` for a computed result into its work
/// directory, atomically, through the `fs` seam. `trace` is the run's own
/// priming evaluation ([`crate::runner::RunStatus::Complete`]); the trace
/// contract of DESIGN.md §11 says what it covers for fresh and resumed
/// attempts and why it is empty off the sim backend.
pub fn write_run_artifacts(
    result: &JobResult,
    trace: &Trace,
    dir: &Path,
    fs: &dyn SpoolFs,
) -> Result<ArtifactSet, JobError> {
    fs.create_dir_all(dir).map_err(|e| JobError::io(dir.display().to_string(), e))?;

    let record = BenchRecord {
        job: result.hash_hex.clone(),
        label: result.spec.label(),
        plan: result.spec.plan.id().to_string(),
        n: result.spec.workload.n,
        steps: result.steps,
        simulated_total_s: result.simulated_total_s,
        simulated_kernel_s: result.simulated_kernel_s,
        recovery_s: result.recovery_s,
        fault_total: result.fault_total,
        resumed_from: result.resumed_from,
        retries: result.retries,
        trace_launches: trace.launches.len(),
        trace_transfers: trace.transfers.len(),
        plan_source: result.spec.plan_source.clone(),
    };
    let bench_json = dir.join("bench.json");
    let json = serde_json::to_string_pretty(&record).map_err(|e| JobError::Parse {
        path: bench_json.display().to_string(),
        msg: e.to_string(),
    })?;
    fs.write_atomic(&bench_json, json.as_bytes())
        .map_err(|e| JobError::io(bench_json.display().to_string(), e))?;

    let trace_path = dir.join("trace.csv");
    fs.write_atomic(&trace_path, trace_csv(trace).as_bytes())
        .map_err(|e| JobError::io(trace_path.display().to_string(), e))?;
    Ok(ArtifactSet { bench_json, trace_csv: trace_path })
}

/// [`write_run_artifacts`] with an empty trace; evaluates nothing. Exists
/// only for the `perfbench` replay, which builds its [`JobResult`] without
/// a trace, and goes away with that replay (ROADMAP item 2).
pub fn write_artifacts(
    result: &JobResult,
    dir: &Path,
    fs: &dyn SpoolFs,
) -> Result<ArtifactSet, JobError> {
    write_run_artifacts(result, &Trace::default(), dir, fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::scan;
    use crate::runner::{initial_set, run_job, RunOptions, RunStatus};
    use crate::server::{drain, JobOutcome, ServerConfig};
    use crate::spec::JobSpec;
    use crate::spool::Spool;
    use gpu_sim::trace::MemoryTraceSink;
    use nbody_core::body::ParticleSet;
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::{BackendKind, PlanKind};
    use workloads::spec::WorkloadSpec;

    /// The oracle: a second engine, built like the job's (fault plan in its
    /// fresh state, device clock at 0), primes `set` once under a
    /// [`MemoryTraceSink`]. The job path must record exactly this trace
    /// without evaluating twice.
    fn oracle(spec: &JobSpec, mut set: ParticleSet) -> Trace {
        let mut engine = crate::runner::engine(spec, true);
        let Some(device) = engine.device_mut() else {
            return Trace::default();
        };
        let sink = MemoryTraceSink::new();
        device.set_trace_sink(Box::new(sink.clone()));
        nbody_core::integrator::prime(&mut set, &mut engine);
        sink.snapshot()
    }

    fn complete(spec: &JobSpec, dir: &Path) -> (JobResult, Trace) {
        match run_job(spec, dir, &RunOptions::default()).unwrap() {
            RunStatus::Complete { result, trace } => (*result, trace),
            other => panic!("unexpected status {other:?}"),
        }
    }

    fn bench_record(dir: &Path) -> BenchRecord {
        serde_json::from_str(&std::fs::read_to_string(dir.join("bench.json")).unwrap()).unwrap()
    }

    #[test]
    fn artifacts_are_written_parseable_and_deterministic() {
        let spec = JobSpec::new(WorkloadSpec::plummer(96, 7), PlanKind::JwParallel, 2);
        let scratch = ScratchDir::new("artifact-emit");
        let dir: &Path = &scratch;
        let (result, trace) = complete(&spec, dir);
        let set = write_run_artifacts(&result, &trace, dir, &crate::fsx::RealFs).unwrap();
        let bench: BenchRecord =
            serde_json::from_str(&std::fs::read_to_string(&set.bench_json).unwrap()).unwrap();
        assert_eq!(bench.job, result.hash_hex);
        assert_eq!(bench.steps, 2);
        assert_eq!(bench.plan_source, None, "pinned plan has no auto provenance");
        assert!(bench.trace_launches > 0);
        assert!(bench.simulated_total_s > 0.0);

        let csv = std::fs::read_to_string(&set.trace_csv).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), TRACE_CSV_HEADER);
        let width = TRACE_CSV_HEADER.split(',').count();
        let mut kinds = std::collections::HashSet::new();
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
            kinds.insert(line.split(',').next().unwrap().to_string());
        }
        assert!(kinds.contains("launch"));
        assert!(kinds.contains("transfer"));

        // a second run of the same spec emits byte-identical artifacts
        let dir2 = ScratchDir::new("artifact-emit-again");
        let (result2, trace2) = complete(&spec, &dir2);
        let set2 = write_run_artifacts(&result2, &trace2, &dir2, &crate::fsx::RealFs).unwrap();
        assert_eq!(csv, std::fs::read_to_string(&set2.trace_csv).unwrap());
        assert_eq!(
            std::fs::read(&set.bench_json).unwrap(),
            std::fs::read(&set2.bench_json).unwrap()
        );
    }

    #[test]
    fn sharded_spec_runs_the_shard_loop_bit_exactly() {
        let mut spec = JobSpec::new(WorkloadSpec::plummer(1024, 11), PlanKind::JwParallel, 2);
        spec.shards = Some(3);
        let scratch = ScratchDir::new("artifact-sharded");
        let dir: &Path = &scratch;
        let (result, trace) = complete(&spec, dir);
        let set = write_run_artifacts(&result, &trace, dir, &crate::fsx::RealFs).unwrap();
        // two steps ran after the priming evaluation, yet only its three
        // shard evaluations were traced: the stepping loop runs untraced
        let csv = std::fs::read_to_string(&set.trace_csv).unwrap();
        let evals = csv.lines().filter(|l| l.starts_with("marker,,jw-parallel: force-eval,"));
        assert_eq!(evals.count(), 3, "one force-eval marker per shard:\n{csv}");

        let unsharded = JobSpec { shards: None, ..spec.clone() };
        assert_eq!(spec.hash_hex(), unsharded.hash_hex(), "shards are not hashed");
        let reference = crate::runner::reference_set(&unsharded);
        assert_eq!(result.final_snapshot.set.pos(), reference.pos());
        assert_eq!(result.final_snapshot.set.vel(), reference.vel());
    }

    #[test]
    fn plan_source_provenance_reaches_the_artifact() {
        let mut spec = JobSpec::new(WorkloadSpec::plummer(64, 9), PlanKind::IParallel, 1);
        spec.plan_source = Some("auto:db-hit".to_string());
        let scratch = ScratchDir::new("artifact-provenance");
        let dir: &Path = &scratch;
        let (result, trace) = complete(&spec, dir);
        write_run_artifacts(&result, &trace, dir, &crate::fsx::RealFs).unwrap();
        assert_eq!(bench_record(dir).plan_source.as_deref(), Some("auto:db-hit"));
    }

    #[test]
    fn non_sim_backends_emit_empty_traces() {
        for backend in [BackendKind::Host, BackendKind::F32] {
            let mut spec = JobSpec::new(WorkloadSpec::plummer(64, 5), PlanKind::IParallel, 1);
            spec.backend = Some(backend);
            let scratch = ScratchDir::new("artifact-non-sim");
            let dir: &Path = &scratch;
            let (result, trace) = complete(&spec, dir);
            assert!(trace.is_empty(), "{backend:?} must not trace");
            let set = write_run_artifacts(&result, &trace, dir, &crate::fsx::RealFs).unwrap();
            let csv = std::fs::read_to_string(&set.trace_csv).unwrap();
            assert_eq!(csv.trim_end(), TRACE_CSV_HEADER);
        }
    }

    #[test]
    fn faulty_spec_produces_fault_rows() {
        let mut spec = JobSpec::new(WorkloadSpec::plummer(128, 3), PlanKind::IParallel, 1);
        spec.fault_seed = Some(3);
        spec.fault_prob = Some(0.5);
        let scratch = ScratchDir::new("artifact-faulty");
        let (_, trace) = complete(&spec, &scratch);
        assert!(!trace.faults.is_empty(), "p=0.5 must hit the priming evaluation");
        let csv = trace_csv(&trace);
        assert!(csv.lines().any(|l| l.starts_with("fault,")), "{csv}");
    }

    #[test]
    fn drained_fresh_jobs_write_the_oracle_trace() {
        let plain = |seed, plan| JobSpec::new(WorkloadSpec::plummer(96, seed), plan, 1);
        let mut specs: Vec<JobSpec> =
            [PlanKind::IParallel, PlanKind::JParallel, PlanKind::WParallel, PlanKind::JwParallel]
                .into_iter()
                .zip(1..)
                .map(|(plan, seed)| plain(seed, plan))
                .collect();
        let mut sharded = JobSpec::new(WorkloadSpec::plummer(1024, 5), PlanKind::JwParallel, 1);
        sharded.shards = Some(3);
        let mut faulty = plain(6, PlanKind::IParallel);
        faulty.fault_seed = Some(3);
        faulty.fault_prob = Some(0.5);
        let mut host = plain(7, PlanKind::WParallel);
        host.backend = Some(BackendKind::Host);
        let mut f32_tier = plain(8, PlanKind::JParallel);
        f32_tier.backend = Some(BackendKind::F32);
        specs.extend([sharded, faulty, host, f32_tier]);

        let scratch = ScratchDir::new("artifact-oracle");
        let (spool, recovery) = Spool::open(scratch.join("spool")).unwrap();
        for spec in &specs {
            spool.submit(spec).unwrap();
        }
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert!(summary.reports.iter().all(|r| r.outcome == JobOutcome::Computed));
        assert_eq!(summary.reports.len(), specs.len(), "{}", summary.render());

        for spec in &specs {
            let want = oracle(spec, initial_set(spec));
            let dir = spool.job_dir(&spec.hash_hex());
            let label = spec.label();
            let csv = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
            assert_eq!(csv, trace_csv(&want), "{label}: trace.csv differs from the oracle");
            let bench = bench_record(&dir);
            assert_eq!(bench.resumed_from, 0, "{label}");
            assert_eq!(bench.trace_launches, want.launches.len(), "{label}");
            assert_eq!(bench.trace_transfers, want.transfers.len(), "{label}");
        }
    }

    #[test]
    fn resumed_job_traces_the_priming_of_its_restored_set() {
        // long steps move the bodies far enough by the checkpoint that the
        // restored set's tree, and so its walk costs, differ from the
        // initial set's
        let mut spec = JobSpec::new(WorkloadSpec::plummer(1024, 12), PlanKind::JwParallel, 4);
        spec.checkpoint_every = 2;
        spec.dt = 0.05;
        let scratch = ScratchDir::new("artifact-resumed");
        let root = scratch.join("spool");
        let (spool, recovery) = Spool::open(&root).unwrap();
        spool.submit(&spec).unwrap();
        let crash = ServerConfig {
            run: RunOptions { crash_after: Some(3), ..Default::default() },
            ..Default::default()
        };
        let summary = drain(&spool, recovery, &crash).unwrap();
        assert_eq!(summary.reports[0].outcome, JobOutcome::Crashed);
        let dir = spool.job_dir(&spec.hash_hex());
        let (step, restored) = scan(&dir).unwrap().best.unwrap();
        assert_eq!(step, 2);

        let (spool, recovery) = Spool::open(&root).unwrap();
        let summary = drain(&spool, recovery, &ServerConfig::default()).unwrap();
        assert_eq!(summary.reports[0].outcome, JobOutcome::Computed, "{}", summary.render());
        assert!(bench_record(&dir).resumed_from > 0);
        let want = trace_csv(&oracle(&spec, restored.set));
        assert_ne!(
            want,
            trace_csv(&oracle(&spec, initial_set(&spec))),
            "the restored set's tree must trace differently from the initial set's"
        );
        assert_eq!(std::fs::read_to_string(dir.join("trace.csv")).unwrap(), want);
    }
}
