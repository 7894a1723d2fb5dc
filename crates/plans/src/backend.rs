//! The [`Backend`] trait: execution substrates a plan can run on.
//!
//! A backend is *where* a force evaluation executes, a [`PlanKind`] is
//! *which* decomposition it uses. Three substrates ship today:
//!
//! | kind | substrate | precision | clocks | faults/traces |
//! |------|-----------|-----------|--------|---------------|
//! | [`BackendKind::Sim`]  | simulated HD 5850 ([`SimBackend`]) | f32 kernels | simulated | yes |
//! | [`BackendKind::Host`] | host SoA/treecode ([`HostBackend`]) | f64 | wall only | no |
//! | [`BackendKind::F32`]  | the sim kernels, wall clock only ([`DeviceF32Backend`]) | f32 | wall only | no |
//!
//! `auto` resolves to `sim`, which stays the deterministic oracle for PTPM
//! forecasts and golden traces.
//!
//! **The differential contract** (enforced by `plans::conformance` and
//! `tests/backend_conformance.rs`, documented in DESIGN.md §11):
//!
//! * every backend is bit-exact across host thread counts;
//! * [`DeviceF32Backend`] returns [`SimBackend`]'s accelerations **to the
//!   bit**, because it runs the same kernels; `tests/sim_lane_exactness.rs`
//!   checks those kernels against an independent scalar replay of each
//!   plan's f32 reduction order;
//! * [`HostBackend`]'s PP plans are bit-exact against the scalar f64
//!   reference, and its tree plans bit-exact against
//!   [`treecode::interaction_list::evaluate_walks_cpu`];
//! * the f32 tier agrees with the f64 tier within the
//!   [`crate::conformance::f32_l2_bound`] error-model band.

use crate::common::{PlanConfig, PlanKind, PlanOutcome};
use crate::tree_pipeline::shard_decomposition;
use gpu_sim::device::Device;
use gpu_sim::prelude::{DeviceSpec, TransferModel};
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use nbody_core::soa::{accelerations_pp_tiled_parallel, accelerations_pp_tiled_with, SoaBodies};
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use treecode::interaction_list::{build_walks, evaluate_walk_lanes};
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};

/// Which execution substrate to run plans on (`--backend` CLI values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BackendKind {
    /// Pick the default substrate ([`BackendKind::Sim`] today).
    #[default]
    Auto,
    /// The simulated device — deterministic oracle with simulated clocks,
    /// fault injection, and execution traces.
    Sim,
    /// The host f64 path: SoA tiled PP and the CPU treecode evaluator.
    Host,
    /// The device-f32 tier: the sim kernels' f32 forces with a wall clock
    /// only (no simulated clocks, faults or traces).
    F32,
}

impl BackendKind {
    /// Stable identifier used in CLI flags, job specs, and cache hashes.
    pub fn id(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Sim => "sim",
            BackendKind::Host => "host",
            BackendKind::F32 => "f32",
        }
    }

    /// Parses the [`BackendKind::id`] form.
    pub fn parse(s: &str) -> Option<Self> {
        BackendKind::all().into_iter().find(|k| k.id() == s)
    }

    /// All kinds, `auto` first.
    pub fn all() -> [BackendKind; 4] {
        [BackendKind::Auto, BackendKind::Sim, BackendKind::Host, BackendKind::F32]
    }

    /// The concrete substrate this kind selects (`auto` → `sim`). Cache
    /// hashes and admission rules key on the resolved kind so `auto` and an
    /// explicit `sim` share one cache entry.
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendKind::Auto => BackendKind::Sim,
            other => other,
        }
    }

    /// The arithmetic tier the resolved substrate computes forces in.
    pub fn tier(self) -> PrecisionTier {
        match self.resolve() {
            BackendKind::Host => PrecisionTier::F64,
            _ => PrecisionTier::F32,
        }
    }
}

/// Arithmetic precision a backend accumulates forces in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrecisionTier {
    /// Single precision (the device kernels).
    F32,
    /// Double precision (the host reference paths).
    F64,
}

impl PrecisionTier {
    /// Stable identifier.
    pub fn id(self) -> &'static str {
        match self {
            PrecisionTier::F32 => "f32",
            PrecisionTier::F64 => "f64",
        }
    }
}

/// An execution substrate for the four plans.
///
/// The plan is chosen per call (a backend is a *place*, not a strategy), so
/// one backend instance can serve a whole experiment grid — and, on the sim
/// backend, a shared device's fault stream position carries across
/// evaluations exactly as before.
pub trait Backend {
    /// The resolved kind of this backend (never [`BackendKind::Auto`]).
    fn kind(&self) -> BackendKind;

    /// Display name (the kind id unless specialized).
    fn name(&self) -> &'static str {
        self.kind().id()
    }

    /// The precision tier forces are accumulated in.
    fn precision(&self) -> PrecisionTier {
        self.kind().tier()
    }

    /// Evaluates accelerations for `set` under `plan`.
    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome;

    /// The underlying simulated device, if this backend has one.
    fn device(&self) -> Option<&Device> {
        None
    }

    /// Mutable access to the simulated device, if any (e.g. to install a
    /// fault plan or trace sink).
    fn device_mut(&mut self) -> Option<&mut Device> {
        None
    }

    /// True when deterministic fault injection is available.
    fn supports_fault_injection(&self) -> bool {
        self.device().is_some()
    }

    /// True when the backend reports *simulated* clocks (kernel, transfer,
    /// recovery seconds). Backends without one report wall time only, in
    /// `host_measured_s`.
    fn has_simulated_clock(&self) -> bool {
        self.device().is_some()
    }
}

/// Builds a backend of the given (possibly `auto`) kind. The sim variant
/// gets the paper's HD 5850 behind PCIe 2.0 x16; callers that need a custom
/// device (fault plans, trace sinks) construct [`SimBackend`] directly.
pub fn make_backend(kind: BackendKind, config: PlanConfig) -> Box<dyn Backend> {
    match kind.resolve() {
        BackendKind::Host => Box::new(HostBackend::new(config)),
        BackendKind::F32 => Box::new(DeviceF32Backend::new(config)),
        _ => Box::new(SimBackend::new(default_device(), config)),
    }
}

/// The default simulated device: the paper's Radeon HD 5850 behind
/// PCIe 2.0 x16.
pub fn default_device() -> Device {
    Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::pcie2_x16())
}

// ---------------------------------------------------------------------------
// Sim
// ---------------------------------------------------------------------------

/// The simulated-device backend: runs each evaluation through
/// [`crate::evaluate`] on its device.
pub struct SimBackend {
    device: Device,
    config: PlanConfig,
}

impl SimBackend {
    /// Wraps a device (which may carry a fault plan or trace sink) and the
    /// plan tunables.
    pub fn new(device: Device, config: PlanConfig) -> Self {
        Self { device, config }
    }
}

impl Backend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        crate::evaluate(plan, &self.config, &mut self.device, set, params)
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.device)
    }

    fn device_mut(&mut self) -> Option<&mut Device> {
        Some(&mut self.device)
    }
}

// ---------------------------------------------------------------------------
// Host (f64)
// ---------------------------------------------------------------------------

/// The host f64 backend, and the workspace's one production host force
/// path per algorithm: PP plans run the SoA tiled kernel (bit-exact
/// against the scalar reference [`nbody_core::gravity::accelerations_pp`]
/// at every tile size and thread count), tree plans run the walk lane
/// kernel
/// [`treecode::interaction_list::evaluate_walk_lanes`] parallelized over
/// walk groups (groups own disjoint bodies, so the scatter is
/// deterministic). The lane kernel makes each walk's targets SIMD lanes
/// over one sweep of its list, with the PP tiles' lane arithmetic and one
/// summation chain per target in list order, so it is bit-identical to the
/// scalar [`treecode::interaction_list::evaluate_walks_cpu`].
///
/// No simulated clocks: `kernel_s`/`transfer_s`/`recovery_s` are zero and
/// `launches` is zero; only the informational wall-clock `host_measured_s`
/// is reported.
pub struct HostBackend {
    config: PlanConfig,
    soa: SoaBodies,
}

impl HostBackend {
    /// Creates the backend; `config.block_size` doubles as the SoA tile
    /// size, the only source of the host PP tile (results are
    /// tile-invariant, the knob only moves wall time).
    pub fn new(config: PlanConfig) -> Self {
        Self { config, soa: SoaBodies::new() }
    }

    fn evaluate_pp(&mut self, set: &ParticleSet, params: &GravityParams, acc: &mut [Vec3]) {
        self.soa.fill_from(set);
        let view = self.soa.view();
        let tile = self.config.block_size.min(nbody_core::soa::MAX_TILE);
        let threads = par::threads();
        if threads <= 1 {
            accelerations_pp_tiled_with(view, params, tile, acc);
        } else {
            accelerations_pp_tiled_parallel(view, params, tile, threads, acc);
        }
    }

    /// Returns `(interactions, shards used)`.
    fn evaluate_tree(
        &self,
        set: &ParticleSet,
        params: &GravityParams,
        acc: &mut [Vec3],
    ) -> (u64, usize) {
        let tree = Octree::build(set, TreeParams { leaf_capacity: self.config.leaf_capacity });
        let walks =
            build_walks(&tree, set, OpeningAngle::new(self.config.theta), self.config.walk_size);
        // the sim path's shard policy; the host has no device arenas, so a
        // budget is read against the packed-list bytes the device arenas
        // would hold (16 bytes per entry + the target lane)
        let ws = self.config.walk_size;
        let walk_bytes = walks.groups.iter().map(|g| 16 * g.list_len() + 4 * ws);
        let decomp = shard_decomposition(&self.config, set, &tree, walk_bytes, 0);
        // one pass per shard (a single pass when unsharded) — walks own
        // disjoint bodies, so any shard cut is bit-invariant
        for shard in decomp.shards() {
            let groups = &walks.groups[shard.walk_start..shard.walk_end.min(walks.groups.len())];
            scatter_walks(acc, groups.len(), |w, out| {
                evaluate_walk_lanes(&groups[w], &tree, set, params, |i, a| out.push((i, a)));
            });
        }
        (walks.total_interactions(), decomp.len())
    }
}

impl Backend for HostBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Host
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        let n = set.len();
        let t0 = Instant::now();
        let mut acc = vec![Vec3::ZERO; n];
        let (interactions, shards) = if plan.uses_tree() {
            self.evaluate_tree(set, params, &mut acc)
        } else {
            self.evaluate_pp(set, params, &mut acc);
            ((n as u64) * (n as u64), 1)
        };
        PlanOutcome {
            acc,
            interactions,
            host_measured_s: t0.elapsed().as_secs_f64(),
            shards_used: shards,
            ..PlanOutcome::empty()
        }
    }
}

// ---------------------------------------------------------------------------
// Device f32
// ---------------------------------------------------------------------------

/// The device-f32 backend: the f32 tier as a wall-clock-only view of the
/// sim kernels. Every evaluation runs on a private [`SimBackend`] over
/// [`default_device`], so each plan's f32 reduction order exists once, in
/// the kernels, and the forces are the sim's bit for bit.
///
/// It reports the sim's `acc`, `interactions`, `launches`, `shards_used` and
/// `peak_device_bytes`, and the wall time of the call in `host_measured_s`.
/// Every simulated or modelled field (`kernel_s`, `transfer_s`,
/// `recovery_s`, `pipeline_s`, `host_tree_s`, `host_walk_s`) is zero, and
/// [`Backend::device`] is `None`: the tier admits no fault plan, records no
/// trace and has no simulated clock.
pub struct DeviceF32Backend {
    sim: SimBackend,
}

impl DeviceF32Backend {
    /// Creates the backend with the paper's HD 5850 geometry.
    pub fn new(config: PlanConfig) -> Self {
        Self { sim: SimBackend::new(default_device(), config) }
    }
}

impl Backend for DeviceF32Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::F32
    }

    fn evaluate(
        &mut self,
        plan: PlanKind,
        set: &ParticleSet,
        params: &GravityParams,
    ) -> PlanOutcome {
        let t0 = Instant::now();
        let sim = self.sim.evaluate(plan, set, params);
        PlanOutcome {
            acc: sim.acc,
            interactions: sim.interactions,
            host_measured_s: t0.elapsed().as_secs_f64(),
            launches: sim.launches,
            shards_used: sim.shards_used,
            peak_device_bytes: sim.peak_device_bytes,
            ..PlanOutcome::empty()
        }
    }
}

// ---------------------------------------------------------------------------
// host plumbing
// ---------------------------------------------------------------------------

/// Evaluates `eval(walk, &mut out)` for every walk (chunked over threads)
/// and scatters the `(target, acc)` pairs. Walks own disjoint targets, so
/// the scatter is deterministic at any thread count.
fn scatter_walks(
    acc: &mut [Vec3],
    num_walks: usize,
    eval: impl Fn(usize, &mut Vec<(u32, Vec3)>) + Sync,
) {
    let threads = par::threads().max(1).min(num_walks.max(1));
    if threads <= 1 {
        let mut out = Vec::new();
        for w in 0..num_walks {
            eval(w, &mut out);
        }
        for (t, a) in out {
            acc[t as usize] = a;
        }
        return;
    }
    let ranges = par::chunk_ranges(num_walks, threads);
    let eval = &eval;
    let results = par::run_tasks(
        ranges
            .into_iter()
            .map(|range| {
                move || {
                    let mut out = Vec::new();
                    for w in range {
                        eval(w, &mut out);
                    }
                    out
                }
            })
            .collect(),
    );
    for out in results {
        for (t, a) in out {
            acc[t as usize] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::gravity::{accelerations_pp, max_relative_error};
    use nbody_core::testutil::random_set;

    fn params() -> GravityParams {
        GravityParams { g: 1.0, softening: 0.05 }
    }

    fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter().map(|a| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]).collect()
    }

    #[test]
    fn kind_parse_roundtrips_and_resolves() {
        for k in BackendKind::all() {
            assert_eq!(BackendKind::parse(k.id()), Some(k));
            assert_ne!(k.resolve(), BackendKind::Auto);
        }
        assert_eq!(BackendKind::parse("gpu"), None);
        assert_eq!(BackendKind::Auto.resolve(), BackendKind::Sim);
        assert_eq!(BackendKind::default(), BackendKind::Auto);
        assert_eq!(BackendKind::Host.tier(), PrecisionTier::F64);
        assert_eq!(BackendKind::Auto.tier(), PrecisionTier::F32);
        assert_eq!(BackendKind::F32.tier().id(), "f32");
    }

    #[test]
    fn make_backend_resolves_auto_to_sim() {
        let b = make_backend(BackendKind::Auto, PlanConfig::default());
        assert_eq!(b.kind(), BackendKind::Sim);
        assert!(b.supports_fault_injection());
        assert!(b.has_simulated_clock());
        for kind in [BackendKind::Host, BackendKind::F32] {
            let b = make_backend(kind, PlanConfig::default());
            assert_eq!(b.kind(), kind);
            assert!(b.device().is_none());
            assert!(!b.supports_fault_injection());
            assert!(!b.has_simulated_clock());
        }
    }

    #[test]
    fn f32_backend_is_bit_exact_vs_sim_for_every_plan() {
        let set = random_set(400, 11);
        for plan in PlanKind::all() {
            let mut sim = make_backend(BackendKind::Sim, PlanConfig::default());
            let mut f32b = make_backend(BackendKind::F32, PlanConfig::default());
            let a = sim.evaluate(plan, &set, &params());
            let b = f32b.evaluate(plan, &set, &params());
            assert_eq!(a.acc, b.acc, "{plan:?}: f32 backend diverged from sim");
            assert_eq!(a.interactions, b.interactions, "{plan:?}");
            assert_eq!(a.launches, b.launches, "{plan:?}: pass count");
            assert_eq!(a.shards_used, b.shards_used, "{plan:?}");
            assert_eq!(a.peak_device_bytes, b.peak_device_bytes, "{plan:?}");
            // wall clock only: every simulated or modelled field is zero
            let simulated = [
                b.kernel_s,
                b.transfer_s,
                b.recovery_s,
                b.pipeline_s,
                b.host_tree_s,
                b.host_walk_s,
            ];
            assert_eq!(simulated, [0.0; 6], "{plan:?}: f32 outcome carries a simulated clock");
            assert_eq!(b.total_seconds(), 0.0, "{plan:?}");
            assert!(b.host_measured_s > 0.0, "{plan:?}: wall time not measured");
        }
    }

    #[test]
    fn host_pp_is_bit_exact_vs_scalar_reference() {
        let set = random_set(333, 12);
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params(), &mut exact);
        for plan in [PlanKind::IParallel, PlanKind::JParallel] {
            let mut host = make_backend(BackendKind::Host, PlanConfig::default());
            let got = host.evaluate(plan, &set, &params());
            assert_eq!(got.acc, exact, "{plan:?}: host PP diverged from scalar f64");
            assert_eq!(got.launches, 0);
            assert_eq!(got.kernel_s, 0.0);
        }
    }

    #[test]
    fn host_tree_matches_evaluate_walks_cpu() {
        let set = random_set(500, 13);
        let config = PlanConfig::default();
        let tree = Octree::build(&set, TreeParams { leaf_capacity: config.leaf_capacity });
        let walks = build_walks(&tree, &set, OpeningAngle::new(config.theta), config.walk_size);
        let mut exact = vec![Vec3::ZERO; set.len()];
        treecode::interaction_list::evaluate_walks_cpu(&walks, &tree, &set, &params(), &mut exact);
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut host = make_backend(BackendKind::Host, config);
            let got = host.evaluate(plan, &set, &params());
            // bitwise: `Vec3` equality would let -0.0 pass for 0.0
            assert_eq!(
                bits(&got.acc),
                bits(&exact),
                "{plan:?}: host tree diverged from evaluate_walks_cpu"
            );
            assert_eq!(got.interactions, walks.total_interactions());
        }
    }

    #[test]
    fn host_tree_sharding_is_bit_invariant_and_reported() {
        let set = random_set(600, 15);
        let base = PlanConfig::default();
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut host = make_backend(BackendKind::Host, base);
            let reference = host.evaluate(plan, &set, &params());
            assert_eq!(reference.shards_used, 1);
            for shards in [2, 5] {
                let mut sharded =
                    make_backend(BackendKind::Host, PlanConfig { shards: Some(shards), ..base });
                let got = sharded.evaluate(plan, &set, &params());
                assert_eq!(got.acc, reference.acc, "{plan:?}: {shards} shards diverged");
                // eligible Morton splits may cap the realized count below
                // the request, but never above it
                assert!(
                    got.shards_used > 1 && got.shards_used <= shards,
                    "{plan:?}: asked {shards}, used {}",
                    got.shards_used
                );
            }
            let mut budgeted = make_backend(
                BackendKind::Host,
                PlanConfig { mem_budget_bytes: Some(64 * 1024), ..base },
            );
            let got = budgeted.evaluate(plan, &set, &params());
            assert_eq!(got.acc, reference.acc, "{plan:?}: budget sharding diverged");
            assert!(got.shards_used >= 1, "{plan:?}");
        }
    }

    #[test]
    fn sim_backend_out_of_core_configs_match_unsharded_bit_exactly() {
        // sharded and device-tree configs on the sim backend must reproduce
        // the unsharded host-tree forces
        let set = random_set(500, 16);
        let base = PlanConfig::default();
        for plan in [PlanKind::WParallel, PlanKind::JwParallel] {
            let mut unsharded = make_backend(BackendKind::Sim, base);
            let reference = unsharded.evaluate(plan, &set, &params());
            for config in
                [PlanConfig { shards: Some(3), ..base }, PlanConfig { device_tree: true, ..base }]
            {
                let mut sim = make_backend(BackendKind::Sim, config);
                let got = sim.evaluate(plan, &set, &params());
                assert_eq!(got.acc, reference.acc, "{plan:?}: {config:?} diverged on sim");
                // and the f32 tier, which runs the same kernels, follows
                let mut f32b = make_backend(BackendKind::F32, config);
                let host_got = f32b.evaluate(plan, &set, &params());
                assert_eq!(host_got.acc, reference.acc, "{plan:?}: f32 backend diverged");
            }
        }
    }

    #[test]
    fn repeated_evaluations_on_one_device_repeat_memory_and_shards() {
        // every evaluation starts from an empty device: nothing the last
        // one allocated counts against the next one's peak or budget
        let set = random_set(1024, 17);
        for plan in PlanKind::all() {
            let mut sim = make_backend(BackendKind::Sim, PlanConfig::default());
            let first = sim.evaluate(plan, &set, &params());
            let budget = PlanConfig {
                mem_budget_bytes: Some(first.peak_device_bytes * 3 / 4),
                ..PlanConfig::default()
            };
            let mut budgeted = make_backend(BackendKind::Sim, budget);
            let first_budgeted = budgeted.evaluate(plan, &set, &params());
            if plan.uses_tree() {
                assert!(first_budgeted.shards_used > 1, "{plan:?}: the budget did not shard");
            }
            for k in 1..4 {
                for (again, want, backend) in [
                    (sim.evaluate(plan, &set, &params()), &first, "unbudgeted"),
                    (budgeted.evaluate(plan, &set, &params()), &first_budgeted, "budgeted"),
                ] {
                    let what = format!("{plan:?} {backend} evaluation {k}");
                    assert_eq!(again.peak_device_bytes, want.peak_device_bytes, "{what}");
                    assert_eq!(again.shards_used, want.shards_used, "{what}");
                    assert_eq!(again.launches, want.launches, "{what}");
                    assert_eq!(again.acc, want.acc, "{what}");
                }
            }
        }
    }

    #[test]
    fn f32_tier_tracks_the_f64_tier() {
        let set = random_set(256, 14);
        for plan in PlanKind::all() {
            let mut host = make_backend(BackendKind::Host, PlanConfig::default());
            let mut f32b = make_backend(BackendKind::F32, PlanConfig::default());
            let a = host.evaluate(plan, &set, &params());
            let b = f32b.evaluate(plan, &set, &params());
            let err = max_relative_error(&a.acc, &b.acc);
            assert!(err < 1e-3, "{plan:?}: f32 vs f64 relative error {err}");
        }
    }
}
