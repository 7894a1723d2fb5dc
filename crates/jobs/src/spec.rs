//! Job specifications, canonical content hashing, and admission control.
//!
//! A [`JobSpec`] pins down everything that determines a simulation result:
//! the workload (kind, N, seed), the execution plan, step count and
//! time-step. The determinism contract (DESIGN.md §8) guarantees the result
//! is *also* invariant in host thread count and tile size, so those fields
//! are recorded (and hashed, when pinned) purely as provenance — the
//! canonical hash over the result-determining fields is what makes completed
//! results content-addressable.
//!
//! Admission control ([`admit`]) rejects malformed and over-budget specs
//! with typed [`AdmissionError`]s before any compute is spent — the server
//! applies it at intake, and `submit` applies it client-side for an early
//! error.

use gpu_sim::prelude::FaultConfig;
use plans::prelude::{BackendKind, PlanKind};
use serde::{Deserialize, Serialize};
use workloads::spec::WorkloadSpec;

/// Scheduling priority class, highest first. Within a class, jobs run in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive: always scheduled before the other classes.
    High,
    /// The default class.
    Normal,
    /// Bulk/background work: scheduled only after the other classes.
    Batch,
}

impl Priority {
    /// Stable identifier used in spool records and CLI flags.
    pub fn id(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Scheduling rank: lower runs first.
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Parses the [`Priority::id`] form.
    pub fn parse(s: &str) -> Option<Self> {
        Priority::all().into_iter().find(|p| p.id() == s)
    }

    /// All classes, highest first.
    pub fn all() -> [Priority; 3] {
        [Priority::High, Priority::Normal, Priority::Batch]
    }
}

/// A fully reproducible simulation job request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The initial condition (kind, N, seed).
    pub workload: WorkloadSpec,
    /// The execution plan to run on the simulated device.
    pub plan: PlanKind,
    /// Leapfrog steps to integrate.
    pub steps: usize,
    /// Time-step size.
    pub dt: f64,
    /// Checkpoint cadence in steps (also the resume granularity).
    pub checkpoint_every: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Cooperative deadline in *simulated device seconds per attempt*; when
    /// the attempt's simulated clock exceeds it between steps, the runner
    /// checkpoints and yields, and the server retries with bounded backoff —
    /// a deadline therefore acts as a deterministic time slice.
    pub deadline_s: Option<f64>,
    /// Requested host thread count (provenance; results are bit-exact across
    /// thread counts, so this is hashed but never changes the answer).
    pub threads: Option<usize>,
    /// Requested host tile size (provenance, as with `threads`).
    pub tile: Option<usize>,
    /// Seed for deterministic fault injection on this job's device.
    pub fault_seed: Option<u64>,
    /// Transient-fault probability used with `fault_seed` (default 0.05).
    pub fault_prob: Option<f64>,
    /// Per-operation device-loss probability (chaos testing: an
    /// unrecoverable device surfaces as a typed job failure, never as a
    /// server crash).
    pub fault_loss_prob: Option<f64>,
    /// Execution backend / precision tier (`None` = auto = sim). Hashed by
    /// its *resolved* kind: an f32-tier result can never be served for an
    /// f64-tier request, while `auto` and an explicit `sim` share one cache
    /// entry.
    pub backend: Option<BackendKind>,
    /// How the plan was chosen when the submitter used `--plan auto`
    /// (`"auto:db-hit"` / `"auto:forecast"` / `"auto:measured"`; `None` for
    /// an explicitly pinned plan). Pure provenance: resolution happens
    /// *before* hashing, so by the time a spec is hashed its plan and tile
    /// are concrete — an auto-resolved job and the identical pinned job
    /// share one cache entry, which is exactly the §13 invariant.
    pub plan_source: Option<String>,
    /// Morton shard count for out-of-core tree execution; the runner passes
    /// it on as [`plans::common::PlanConfig::shards`]. Sharding is
    /// bit-exact at any count (DESIGN.md §14), so this is a scheduling
    /// knob, *not* hashed — a sharded and an unsharded submission of the
    /// same job share one cached result.
    #[serde(default)]
    pub shards: Option<usize>,
    /// Device-memory budget in bytes for out-of-core tree execution; the
    /// runner passes it on as [`plans::common::PlanConfig::mem_budget_bytes`],
    /// from which the shard policy derives the count. Bit-exact like
    /// `shards`, therefore also excluded from the canonical hash.
    #[serde(default)]
    pub mem_budget_bytes: Option<usize>,
    /// Build the octree and interaction lists on the device (the tree
    /// pipeline; the runner passes it on as
    /// [`plans::common::PlanConfig::device_tree`]). The device tree is
    /// byte-identical to the host build and its forces bitwise-equal, so
    /// this too is excluded from the hash.
    #[serde(default)]
    pub device_tree: bool,
}

impl JobSpec {
    /// A spec with the default knobs: `dt = 1e-3`, checkpoint every 8
    /// steps, [`Priority::Normal`], no deadline, no fault injection.
    pub fn new(workload: WorkloadSpec, plan: PlanKind, steps: usize) -> Self {
        Self {
            workload,
            plan,
            steps,
            dt: 1e-3,
            checkpoint_every: 8,
            priority: Priority::Normal,
            deadline_s: None,
            threads: None,
            tile: None,
            fault_seed: None,
            fault_prob: None,
            fault_loss_prob: None,
            backend: None,
            plan_source: None,
            shards: None,
            mem_budget_bytes: None,
            device_tree: false,
        }
    }

    /// True when this job asked for out-of-core (Morton-sharded) tree
    /// execution — the case where admission budgets device *memory* instead
    /// of applying the flat N cap.
    pub fn is_sharded_tree(&self) -> bool {
        self.plan.uses_tree() && (self.shards.is_some() || self.mem_budget_bytes.is_some())
    }

    /// Admission-grade peak-device-bytes estimate for this job: the fixed
    /// per-body residency (float4 bodies + accelerations, plus the tree
    /// pipeline's key/index and f64 bit-pattern buffers when `device_tree`)
    /// plus one shard's packed interaction-list arena, sized from the same
    /// synthetic list fit as [`ptpm::jobcost`]'s time forecasts. Like those,
    /// this is the right order of magnitude, not a promise — the runner's
    /// `peak_device_bytes` is the measured truth.
    pub fn estimated_device_bytes(&self) -> u64 {
        let n = self.workload.n as u64;
        if !self.plan.uses_tree() {
            // PP plans: padded float4 bodies up, float4 accelerations down
            return 32 * n;
        }
        let walk = self.tile.unwrap_or(ptpm::jobcost::DEFAULT_WALK).max(1);
        let entries = ptpm::jobcost::proxy_entries(self.workload.n, walk) as u64;
        // packed float4 list entries + one target lane per walk body
        let streamed = 16 * entries + 4 * n;
        let fixed = if self.device_tree { 96 * n } else { 32 * n };
        let per_shard = match (self.mem_budget_bytes, self.shards) {
            // a budget caps the arena directly (never below the fixed set)
            (Some(b), _) => (fixed + streamed).min((b as u64).max(fixed)) - fixed,
            (None, Some(s)) => streamed.div_ceil(s.max(1) as u64),
            (None, None) => streamed,
        };
        fixed + per_shard
    }

    /// The resolved backend this job runs on (`None`/`auto` → sim).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.unwrap_or_default().resolve()
    }

    /// FNV-1a content hash over exactly the result-determining fields:
    /// `(workload kind, n, seed, plan, steps, dt, threads, tile, backend)` —
    /// the `(spec, seed, plan, threads, tile)` key of the determinism
    /// contract plus the backend/precision tier, which changes delivered
    /// bits between tiers.
    ///
    /// Priority, deadline, fault injection, and `plan_source` are
    /// deliberately *excluded*: the first three change scheduling and
    /// simulated clocks but never the trajectory (fault recovery is
    /// bit-exact), and `plan_source` is pure provenance over an
    /// already-resolved plan — so two submissions differing only in those
    /// fields share one cached result.
    pub fn canonical_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix_bytes = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix_bytes(self.workload.kind.id().as_bytes());
        mix_bytes(&(self.workload.n as u64).to_le_bytes());
        mix_bytes(&self.workload.seed.to_le_bytes());
        mix_bytes(self.plan.id().as_bytes());
        mix_bytes(&(self.steps as u64).to_le_bytes());
        mix_bytes(&self.dt.to_bits().to_le_bytes());
        mix_bytes(&(self.threads.unwrap_or(0) as u64).to_le_bytes());
        mix_bytes(&(self.tile.unwrap_or(0) as u64).to_le_bytes());
        mix_bytes(self.backend_kind().id().as_bytes());
        hash
    }

    /// The canonical hash as 16 lowercase hex digits — the job's cache key
    /// and work-directory name.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.canonical_hash())
    }

    /// PTPM-forecast simulated seconds for the whole job (`steps` force
    /// evaluations plus priming) on the reference device — the number
    /// admission-time load shedding budgets against. Deterministic for a
    /// fixed spec.
    pub fn forecast_seconds(&self) -> f64 {
        ptpm::jobcost::forecast_job_seconds_with(
            self.plan.id(),
            self.workload.n,
            self.steps,
            self.tile,
            self.device_tree,
        )
    }

    /// The fault plan seed and configuration this spec asks for, if any.
    /// Built field-by-field (not via the asserting constructors) so a
    /// malformed probability reaches [`admit`]'s validation as a typed
    /// rejection instead of a panic.
    pub fn fault_config(&self) -> Option<(u64, FaultConfig)> {
        let seed = self.fault_seed?;
        let p = self.fault_prob.unwrap_or(0.05);
        let mut cfg = FaultConfig {
            launch_fail_prob: p,
            launch_corrupt_prob: p,
            transfer_error_prob: p,
            transfer_timeout_prob: p,
            ..FaultConfig::default()
        };
        if let Some(loss) = self.fault_loss_prob {
            cfg.device_loss_prob = loss;
        }
        Some((seed, cfg))
    }

    /// Human-readable one-liner for logs. The backend is mentioned only
    /// when explicitly pinned off the default.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{} plan={} steps={} prio={}",
            self.workload.label(),
            self.plan.id(),
            self.steps,
            self.priority.id()
        );
        if let Some(backend) = self.backend {
            label.push_str(&format!(" backend={}", backend.id()));
        }
        label
    }
}

/// Resource budgets a job must fit inside to be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Largest admissible body count. **Not applied** to sharded tree jobs
    /// ([`JobSpec::is_sharded_tree`]): those stream their interaction lists
    /// through bounded arenas, so the binding resource is device memory
    /// (`max_mem_bytes`), not N.
    pub max_n: usize,
    /// Largest admissible step count.
    pub max_steps: usize,
    /// Cap on `n² × (steps + 1)` — the pairwise-interaction budget of the
    /// whole job (the `+ 1` charges the priming force evaluation).
    pub max_interactions: u64,
    /// Cap on [`JobSpec::estimated_device_bytes`] for sharded tree jobs —
    /// the memory-budget rule that replaces the flat N cap for them.
    /// Defaults to the reference device's 1 GiB of global memory.
    #[serde(default = "default_max_mem_bytes")]
    pub max_mem_bytes: u64,
}

fn default_max_mem_bytes() -> u64 {
    1 << 30
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_n: 65_536,
            max_steps: 100_000,
            max_interactions: u64::MAX,
            max_mem_bytes: default_max_mem_bytes(),
        }
    }
}

/// Why a spec was refused at admission. [`AdmissionError::id`] is the
/// machine-readable form recorded in the spool.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// `n == 0`: nothing to simulate.
    ZeroBodies,
    /// `n` exceeds the policy's cap.
    TooManyBodies {
        /// Requested body count.
        n: usize,
        /// The policy cap it exceeded.
        max: usize,
    },
    /// `steps == 0`: nothing to do (a zero-step job would cache vacuously).
    ZeroSteps,
    /// `steps` exceeds the policy's cap.
    TooManySteps {
        /// Requested step count.
        steps: usize,
        /// The policy cap it exceeded.
        max: usize,
    },
    /// Total interaction budget `n² × (steps + 1)` exceeds the policy cap.
    OverBudget {
        /// The job's interaction count.
        interactions: u64,
        /// The policy cap it exceeded.
        max: u64,
    },
    /// `dt` is NaN, infinite, or not strictly positive.
    BadDt(f64),
    /// Deadline is NaN, infinite, or not strictly positive.
    BadDeadline(f64),
    /// `checkpoint_every == 0` would divide by zero at the cadence check.
    ZeroCheckpointEvery,
    /// A pinned thread count of zero is meaningless.
    ZeroThreads,
    /// A pinned tile size of zero is meaningless.
    ZeroTile,
    /// A shard count of zero is meaningless.
    ZeroShards,
    /// A memory budget of zero bytes admits nothing.
    ZeroMemBudget,
    /// Sharding requested for a plan without a tree to shard.
    ShardsRequireTreePlan(&'static str),
    /// A sharded tree job's estimated peak device bytes exceed the policy's
    /// memory budget (the rule that replaces the flat N cap for them).
    OverMemoryBudget {
        /// The job's estimated peak device bytes.
        bytes: u64,
        /// The policy cap it exceeded.
        max: u64,
    },
    /// The fault configuration is invalid (probability outside `[0, 1]` or
    /// a non-finite penalty).
    BadFaultConfig(String),
    /// Fault injection requested on a backend without a simulated device.
    FaultsUnsupportedBackend(&'static str),
    /// A simulated-clock deadline requested on a backend without a
    /// simulated clock.
    DeadlineUnsupportedBackend(&'static str),
}

impl AdmissionError {
    /// Stable machine-readable identifier (recorded in failed job records).
    pub fn id(&self) -> &'static str {
        match self {
            AdmissionError::ZeroBodies => "zero-bodies",
            AdmissionError::TooManyBodies { .. } => "too-many-bodies",
            AdmissionError::ZeroSteps => "zero-steps",
            AdmissionError::TooManySteps { .. } => "too-many-steps",
            AdmissionError::OverBudget { .. } => "over-budget",
            AdmissionError::BadDt(_) => "bad-dt",
            AdmissionError::BadDeadline(_) => "bad-deadline",
            AdmissionError::ZeroCheckpointEvery => "zero-checkpoint-every",
            AdmissionError::ZeroThreads => "zero-threads",
            AdmissionError::ZeroTile => "zero-tile",
            AdmissionError::ZeroShards => "zero-shards",
            AdmissionError::ZeroMemBudget => "zero-mem-budget",
            AdmissionError::ShardsRequireTreePlan(_) => "shards-require-tree-plan",
            AdmissionError::OverMemoryBudget { .. } => "over-memory-budget",
            AdmissionError::BadFaultConfig(_) => "bad-fault-config",
            AdmissionError::FaultsUnsupportedBackend(_) => "faults-unsupported-backend",
            AdmissionError::DeadlineUnsupportedBackend(_) => "deadline-unsupported-backend",
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.id())?;
        match self {
            AdmissionError::ZeroBodies => write!(f, "workload has zero bodies"),
            AdmissionError::TooManyBodies { n, max } => {
                write!(f, "n={n} exceeds the admission cap of {max}")
            }
            AdmissionError::ZeroSteps => write!(f, "job has zero integration steps"),
            AdmissionError::TooManySteps { steps, max } => {
                write!(f, "steps={steps} exceeds the admission cap of {max}")
            }
            AdmissionError::OverBudget { interactions, max } => {
                write!(f, "interaction budget {interactions} exceeds the cap of {max}")
            }
            AdmissionError::BadDt(dt) => write!(f, "dt={dt} is not a positive finite number"),
            AdmissionError::BadDeadline(d) => {
                write!(f, "deadline_s={d} is not a positive finite number")
            }
            AdmissionError::ZeroCheckpointEvery => write!(f, "checkpoint_every must be >= 1"),
            AdmissionError::ZeroThreads => write!(f, "a pinned thread count must be >= 1"),
            AdmissionError::ZeroTile => write!(f, "a pinned tile size must be >= 1"),
            AdmissionError::ZeroShards => write!(f, "a pinned shard count must be >= 1"),
            AdmissionError::ZeroMemBudget => write!(f, "a memory budget must be >= 1 byte"),
            AdmissionError::ShardsRequireTreePlan(p) => {
                write!(f, "plan '{p}' has no tree to shard or build on the device")
            }
            AdmissionError::OverMemoryBudget { bytes, max } => {
                write!(f, "estimated peak device bytes {bytes} exceed the memory budget of {max}")
            }
            AdmissionError::BadFaultConfig(msg) => write!(f, "fault config invalid: {msg}"),
            AdmissionError::FaultsUnsupportedBackend(b) => {
                write!(f, "backend '{b}' has no simulated device to inject faults into")
            }
            AdmissionError::DeadlineUnsupportedBackend(b) => {
                write!(f, "backend '{b}' has no simulated clock for deadline_s to slice")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Validates `spec` against `policy`; `Err` is the first violated rule.
pub fn admit(spec: &JobSpec, policy: &AdmissionPolicy) -> Result<(), AdmissionError> {
    if spec.workload.n == 0 {
        return Err(AdmissionError::ZeroBodies);
    }
    if spec.shards == Some(0) {
        return Err(AdmissionError::ZeroShards);
    }
    if spec.mem_budget_bytes == Some(0) {
        return Err(AdmissionError::ZeroMemBudget);
    }
    if (spec.shards.is_some() || spec.mem_budget_bytes.is_some() || spec.device_tree)
        && !spec.plan.uses_tree()
    {
        return Err(AdmissionError::ShardsRequireTreePlan(spec.plan.id()));
    }
    if spec.is_sharded_tree() {
        // out-of-core tree jobs stream bounded arenas: the flat N cap is
        // replaced by the device-memory budget
        let bytes = spec.estimated_device_bytes();
        if bytes > policy.max_mem_bytes {
            return Err(AdmissionError::OverMemoryBudget { bytes, max: policy.max_mem_bytes });
        }
    } else if spec.workload.n > policy.max_n {
        return Err(AdmissionError::TooManyBodies { n: spec.workload.n, max: policy.max_n });
    }
    if spec.steps == 0 {
        return Err(AdmissionError::ZeroSteps);
    }
    if spec.steps > policy.max_steps {
        return Err(AdmissionError::TooManySteps { steps: spec.steps, max: policy.max_steps });
    }
    let interactions = (spec.workload.n as u64)
        .saturating_mul(spec.workload.n as u64)
        .saturating_mul(spec.steps as u64 + 1);
    if interactions > policy.max_interactions {
        return Err(AdmissionError::OverBudget { interactions, max: policy.max_interactions });
    }
    if !spec.dt.is_finite() || spec.dt <= 0.0 {
        return Err(AdmissionError::BadDt(spec.dt));
    }
    if let Some(d) = spec.deadline_s {
        if !d.is_finite() || d <= 0.0 {
            return Err(AdmissionError::BadDeadline(d));
        }
    }
    if spec.checkpoint_every == 0 {
        return Err(AdmissionError::ZeroCheckpointEvery);
    }
    if spec.threads == Some(0) {
        return Err(AdmissionError::ZeroThreads);
    }
    if spec.tile == Some(0) {
        return Err(AdmissionError::ZeroTile);
    }
    if let Some((_, cfg)) = spec.fault_config() {
        cfg.validate().map_err(AdmissionError::BadFaultConfig)?;
    }
    let backend = spec.backend_kind();
    if backend != BackendKind::Sim {
        if spec.fault_seed.is_some() {
            return Err(AdmissionError::FaultsUnsupportedBackend(backend.id()));
        }
        if spec.deadline_s.is_some() {
            return Err(AdmissionError::DeadlineUnsupportedBackend(backend.id()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new(WorkloadSpec::plummer(128, 1), PlanKind::JwParallel, 10)
    }

    #[test]
    fn default_spec_admits() {
        admit(&spec(), &AdmissionPolicy::default()).unwrap();
    }

    #[test]
    fn hash_is_stable_and_sensitive_to_result_fields() {
        let base = spec();
        assert_eq!(base.canonical_hash(), spec().canonical_hash());
        assert_eq!(base.hash_hex().len(), 16);
        for mutated in [
            JobSpec { workload: WorkloadSpec::plummer(129, 1), ..base.clone() },
            JobSpec { workload: WorkloadSpec::plummer(128, 2), ..base.clone() },
            JobSpec { plan: PlanKind::IParallel, ..base.clone() },
            JobSpec { steps: 11, ..base.clone() },
            JobSpec { dt: 2e-3, ..base.clone() },
            JobSpec { threads: Some(4), ..base.clone() },
            JobSpec { tile: Some(8), ..base.clone() },
            JobSpec { backend: Some(BackendKind::Host), ..base.clone() },
            JobSpec { backend: Some(BackendKind::F32), ..base.clone() },
        ] {
            assert_ne!(base.canonical_hash(), mutated.canonical_hash(), "{mutated:?}");
        }
    }

    #[test]
    fn hash_distinguishes_precision_tiers_but_not_auto_from_sim() {
        let base = spec();
        // auto, an explicit auto, and an explicit sim all share one entry…
        for same in [
            JobSpec { backend: Some(BackendKind::Auto), ..base.clone() },
            JobSpec { backend: Some(BackendKind::Sim), ..base.clone() },
        ] {
            assert_eq!(base.canonical_hash(), same.canonical_hash());
        }
        // …while the three substrates are pairwise distinct: an f32-tier
        // result can never be served for an f64-tier request
        let host = JobSpec { backend: Some(BackendKind::Host), ..base.clone() };
        let f32b = JobSpec { backend: Some(BackendKind::F32), ..base.clone() };
        assert_ne!(host.canonical_hash(), f32b.canonical_hash());
        assert_ne!(host.canonical_hash(), base.canonical_hash());
        assert_ne!(f32b.canonical_hash(), base.canonical_hash());
    }

    #[test]
    fn hash_ignores_scheduling_only_fields() {
        let base = spec();
        for same in [
            JobSpec { priority: Priority::High, ..base.clone() },
            JobSpec { deadline_s: Some(1.0), ..base.clone() },
            JobSpec { fault_seed: Some(7), ..base.clone() },
            JobSpec { checkpoint_every: 3, ..base.clone() },
            JobSpec { plan_source: Some("auto:db-hit".into()), ..base.clone() },
            // out-of-core execution is bit-exact, so these share the
            // unsharded job's cache entry
            JobSpec { shards: Some(4), ..base.clone() },
            JobSpec { mem_budget_bytes: Some(1 << 24), ..base.clone() },
            JobSpec { device_tree: true, ..base.clone() },
        ] {
            assert_eq!(base.canonical_hash(), same.canonical_hash());
        }
    }

    #[test]
    fn admission_rejects_each_malformation_with_its_id() {
        let policy = AdmissionPolicy {
            max_n: 1024,
            max_steps: 100,
            max_interactions: 1 << 20,
            ..AdmissionPolicy::default()
        };
        let cases: Vec<(JobSpec, &str)> = vec![
            (
                JobSpec {
                    workload: WorkloadSpec::plummer(0, 1),
                    ..JobSpec::new(WorkloadSpec::plummer(0, 1), PlanKind::JwParallel, 5)
                },
                "zero-bodies",
            ),
            (
                JobSpec::new(WorkloadSpec::plummer(2048, 1), PlanKind::JwParallel, 5),
                "too-many-bodies",
            ),
            (JobSpec { steps: 0, ..spec() }, "zero-steps"),
            (JobSpec { steps: 101, ..spec() }, "too-many-steps"),
            (
                JobSpec::new(WorkloadSpec::plummer(1024, 1), PlanKind::JwParallel, 100),
                "over-budget",
            ),
            (JobSpec { dt: 0.0, ..spec() }, "bad-dt"),
            (JobSpec { dt: f64::NAN, ..spec() }, "bad-dt"),
            (JobSpec { deadline_s: Some(-1.0), ..spec() }, "bad-deadline"),
            (JobSpec { checkpoint_every: 0, ..spec() }, "zero-checkpoint-every"),
            (JobSpec { threads: Some(0), ..spec() }, "zero-threads"),
            (JobSpec { tile: Some(0), ..spec() }, "zero-tile"),
            (JobSpec { fault_seed: Some(1), fault_prob: Some(1.5), ..spec() }, "bad-fault-config"),
            (
                JobSpec { backend: Some(BackendKind::Host), fault_seed: Some(1), ..spec() },
                "faults-unsupported-backend",
            ),
            (
                JobSpec { backend: Some(BackendKind::F32), deadline_s: Some(1.0), ..spec() },
                "deadline-unsupported-backend",
            ),
        ];
        for (bad, id) in cases {
            let err = admit(&bad, &policy).unwrap_err();
            assert_eq!(err.id(), id, "{bad:?} -> {err}");
            assert!(err.to_string().contains(id), "{err}");
        }
    }

    #[test]
    fn sharded_tree_jobs_swap_the_n_cap_for_a_memory_budget() {
        let policy = AdmissionPolicy { max_n: 1024, ..AdmissionPolicy::default() };
        // over the N cap, unsharded: rejected on N
        let big = JobSpec::new(WorkloadSpec::plummer(1_000_000, 1), PlanKind::WParallel, 2);
        assert_eq!(admit(&big, &policy).unwrap_err().id(), "too-many-bodies");
        // the same N with a shard count: admitted under the memory budget
        let sharded = JobSpec { shards: Some(64), ..big.clone() };
        assert!(sharded.is_sharded_tree());
        admit(&sharded, &policy).unwrap();
        // and with an explicit budget: also admitted
        let budgeted = JobSpec { mem_budget_bytes: Some(256 << 20), ..big.clone() };
        admit(&budgeted, &policy).unwrap();
        // but a starvation-level policy budget still rejects
        let tight = AdmissionPolicy { max_mem_bytes: 1 << 20, ..policy };
        let err = admit(&sharded, &tight).unwrap_err();
        assert_eq!(err.id(), "over-memory-budget");
        assert!(err.to_string().contains("memory budget"), "{err}");
    }

    #[test]
    fn out_of_core_malformations_get_typed_rejections() {
        let policy = AdmissionPolicy::default();
        let cases: Vec<(JobSpec, &str)> = vec![
            (JobSpec { shards: Some(0), ..spec() }, "zero-shards"),
            (JobSpec { mem_budget_bytes: Some(0), ..spec() }, "zero-mem-budget"),
            (
                JobSpec { shards: Some(2), plan: PlanKind::IParallel, ..spec() },
                "shards-require-tree-plan",
            ),
            (
                JobSpec { device_tree: true, plan: PlanKind::JParallel, ..spec() },
                "shards-require-tree-plan",
            ),
        ];
        for (bad, id) in cases {
            let err = admit(&bad, &policy).unwrap_err();
            assert_eq!(err.id(), id, "{bad:?} -> {err}");
        }
    }

    #[test]
    fn estimated_bytes_shrink_with_shards_and_respect_budgets() {
        let big = JobSpec::new(WorkloadSpec::plummer(1_000_000, 1), PlanKind::WParallel, 2);
        let unsharded = big.estimated_device_bytes();
        let sharded = JobSpec { shards: Some(64), ..big.clone() }.estimated_device_bytes();
        assert!(sharded < unsharded, "{sharded} !< {unsharded}");
        let budget = 200u64 << 20;
        let budgeted = JobSpec { mem_budget_bytes: Some(budget as usize), ..big.clone() }
            .estimated_device_bytes();
        assert!(budgeted <= budget, "{budgeted} > {budget}");
        // device-tree jobs carry the pipeline's extra fixed buffers
        let dt =
            JobSpec { device_tree: true, shards: Some(64), ..big.clone() }.estimated_device_bytes();
        assert!(dt > sharded);
    }

    #[test]
    fn device_tree_forecast_differs_from_host_tree_forecast() {
        let host = JobSpec::new(WorkloadSpec::plummer(65_536, 1), PlanKind::WParallel, 4);
        let dev = JobSpec { device_tree: true, ..host.clone() };
        let a = host.forecast_seconds();
        let b = dev.forecast_seconds();
        assert!(a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0);
        assert_ne!(a, b, "the pipeline phases must be priced differently");
    }

    #[test]
    fn legacy_json_without_out_of_core_fields_still_parses() {
        // specs spooled before PR 10 must keep loading with the defaults
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let legacy = json
            .replace("\"shards\":null,", "")
            .replace("\"mem_budget_bytes\":null,", "")
            .replace("\"device_tree\":false,", "")
            .replace(",\"shards\":null", "")
            .replace(",\"mem_budget_bytes\":null", "")
            .replace(",\"device_tree\":false", "");
        assert!(!legacy.contains("shards"), "{legacy}");
        assert!(!legacy.contains("device_tree"), "{legacy}");
        let back: JobSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.shards, None);
        assert!(!back.device_tree);
    }

    #[test]
    fn priority_parse_roundtrips_and_orders() {
        for p in Priority::all() {
            assert_eq!(Priority::parse(p.id()), Some(p));
        }
        assert_eq!(Priority::parse("nope"), None);
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Batch.rank());
    }

    #[test]
    fn fault_config_built_from_spec() {
        let mut s = spec();
        assert!(s.fault_config().is_none());
        s.fault_seed = Some(9);
        s.fault_prob = Some(0.2);
        s.fault_loss_prob = Some(0.5);
        let (seed, cfg) = s.fault_config().unwrap();
        assert_eq!(seed, 9);
        assert_eq!(cfg.launch_fail_prob, 0.2);
        assert_eq!(cfg.device_loss_prob, 0.5);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let mut s = spec();
        s.deadline_s = Some(0.25);
        s.fault_seed = Some(3);
        s.backend = Some(BackendKind::Host);
        let json = serde_json::to_string(&s).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert!(s.label().contains("backend=host"), "{}", s.label());
    }

    #[test]
    fn legacy_json_without_backend_field_still_parses() {
        // specs spooled before the backend field existed must keep loading
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"backend\""));
        let legacy = json.replace("\"backend\":null,", "").replace(",\"backend\":null", "");
        assert!(!legacy.contains("\"backend\""), "{legacy}");
        let back: JobSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.backend_kind(), BackendKind::Sim);
    }

    #[test]
    fn legacy_json_without_plan_source_field_still_parses() {
        // specs spooled before `--plan auto` existed must keep loading
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"plan_source\""));
        let legacy = json.replace("\"plan_source\":null,", "").replace(",\"plan_source\":null", "");
        assert!(!legacy.contains("\"plan_source\""), "{legacy}");
        let back: JobSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.plan_source, None);
    }
}
