//! The persistent autotuning database behind `--plan auto`.
//!
//! [`resolve_plan`] turns "auto" into a concrete `(plan kind, config)` by
//! the three-stage chain the DESIGN.md §13 contract specifies:
//!
//! 1. **DB hit** — a versioned `tuning.json` keyed by
//!    `(workload kind, N-bucket, device spec hash, backend tier, objective)`
//!    already knows the winner for this situation: reuse it verbatim.
//! 2. **PTPM forecast** — on a miss, the analytic model ranks the
//!    *expressible* candidate grid on the workload's real interaction-list
//!    geometry; when the forecast separates the best candidate decisively
//!    from every other plan kind, trust it without measuring.
//! 3. **Measured fallback** — otherwise measure the PTPM-pruned shortlist
//!    on the simulated device (deterministic simulated seconds) and take
//!    the winner.
//!
//! Whatever path resolved the plan, the winner is persisted back through
//! the [`crate::fsx`] seam with the same atomic-rename transaction every
//! other durable file uses, so a crash mid-store leaves either the old DB
//! or the new one — never a torn file. A *corrupt* DB (truncated by an
//! ancient crash, hand-edited, version-skewed) surfaces as a typed
//! [`JobError::Parse`] that resolution records and routes around: the
//! resolver falls back to the measured path and heals the file by
//! rewriting it. Resolution never panics and never blocks admission.
//!
//! Tuning *selects*; it never changes physics. The resolved `(kind, tile)`
//! is pinned into the job spec before hashing, so a tuned job is the same
//! job as an explicitly-pinned one — bit-exact, cache-shared, and replayed
//! identically from a DB hit (the round-trip tests hold this).

use crate::error::JobError;
use crate::fsx::SpoolFs;
use gpu_sim::prelude::DeviceSpec;
use nbody_core::gravity::GravityParams;
use plans::prelude::{
    forecast_grid_points, measure, prune, BackendKind, Candidate, ForecastGeometry, PlanConfig,
    PlanKind, TuneObjective,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use workloads::spec::WorkloadSpec;

/// Schema version of `tuning.json`. A mismatch is a parse error (the DB is
/// a cache: healing by re-measurement is always safe, guessing is not).
pub const DB_VERSION: u32 = 1;

/// When the forecast-best candidate undercuts the best forecast of every
/// *other* plan kind by at least this factor, resolution trusts the model
/// without measuring. Within one kind the forecast ordering is sharp; the
/// margin guards the cross-kind comparisons where the ALU-only model is
/// optimistic.
pub const FORECAST_MARGIN: f64 = 0.85;

/// Tile sizes `--plan auto` considers: the values a [`crate::spec::JobSpec`]
/// can express through its single `tile` knob (the runner pins both block
/// and walk geometry from it).
pub const AUTO_TILES: [usize; 3] = [64, 128, 256];

/// One persisted winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningEntry {
    /// The [`db_key`] this winner answers.
    pub key: String,
    /// Winning plan kind id ([`PlanKind::id`]).
    pub plan: String,
    /// The winning configuration, replayable bit-exactly.
    pub config: PlanConfig,
    /// Which resolution path produced it ([`PlanSource::id`]).
    pub source: String,
    /// The PTPM forecast of the winner, seconds.
    pub forecast_s: f64,
    /// Measured simulated seconds, when the measured path ran.
    pub measured_s: Option<f64>,
}

/// The on-disk autotuning database: a versioned, key-sorted list of
/// winners. Entries are a sorted `Vec`, not a map, so the JSON is stable
/// and diffs cleanly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningDb {
    /// Schema version ([`DB_VERSION`]).
    pub version: u32,
    /// Winners, ascending by key.
    pub entries: Vec<TuningEntry>,
}

impl Default for TuningDb {
    fn default() -> Self {
        TuningDb { version: DB_VERSION, entries: Vec::new() }
    }
}

impl TuningDb {
    /// Loads the DB at `path`. Missing file → `Ok(None)` (a fresh spool);
    /// unreadable, unparseable, or version-skewed → a typed error, never a
    /// panic — callers fall back to measurement and heal the file.
    pub fn load(path: &Path) -> Result<Option<TuningDb>, JobError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(JobError::io(path.display().to_string(), e)),
        };
        let db: TuningDb = serde_json::from_str(&text).map_err(|e| JobError::Parse {
            path: path.display().to_string(),
            msg: format!("tuning db: {e}"),
        })?;
        if db.version != DB_VERSION {
            return Err(JobError::Parse {
                path: path.display().to_string(),
                msg: format!("tuning db version {} (expected {})", db.version, DB_VERSION),
            });
        }
        Ok(Some(db))
    }

    /// Persists the DB through the crash-safe seam: parent directory
    /// asserted, then the usual `.tmp` + rename transaction. A crash at any
    /// point leaves the previous DB (or none) intact.
    pub fn store(&self, fs: &dyn SpoolFs, path: &Path) -> Result<(), JobError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs.create_dir_all(parent)
                    .map_err(|e| JobError::io(parent.display().to_string(), e))?;
            }
        }
        let json = serde_json::to_string(self).map_err(|e| JobError::Parse {
            path: path.display().to_string(),
            msg: format!("tuning db serialize: {e}"),
        })?;
        fs.write_atomic(path, json.as_bytes())
            .map_err(|e| JobError::io(path.display().to_string(), e))
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&TuningEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Inserts or replaces the entry for its key, keeping the list sorted.
    pub fn put(&mut self, entry: TuningEntry) {
        self.entries.retain(|e| e.key != entry.key);
        let at = self.entries.partition_point(|e| e.key < entry.key);
        self.entries.insert(at, entry);
    }
}

/// FNV-1a hash of the device spec's canonical JSON, 16 hex digits — the
/// DB key component that keeps winners from one simulated device from
/// being served on another.
pub fn device_spec_hash(spec: &DeviceSpec) -> Result<String, JobError> {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let json = serde_json::to_string(spec).map_err(|e| JobError::Parse {
        path: format!("device spec {}", spec.name),
        msg: format!("serialize: {e}"),
    })?;
    let mut hash = OFFSET;
    for &b in json.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    Ok(format!("{hash:016x}"))
}

fn objective_id(objective: TuneObjective) -> &'static str {
    match objective {
        TuneObjective::KernelTime => "kernel",
        TuneObjective::TotalTime => "total",
    }
}

/// The DB key for a situation: workload kind, N bucketed to the next power
/// of two (tuning winners are stable within a bucket; exact N would make
/// the DB useless), device spec hash, resolved backend tier, objective.
pub fn db_key(
    workload: &WorkloadSpec,
    device: &DeviceSpec,
    backend: BackendKind,
    objective: TuneObjective,
) -> Result<String, JobError> {
    Ok(format!(
        "{}/n{}/{}/{}/{}",
        workload.kind.id(),
        workload.n.next_power_of_two(),
        device_spec_hash(device)?,
        backend.resolve().id(),
        objective_id(objective)
    ))
}

/// Which stage of the resolution chain produced the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Reused a persisted winner.
    DbHit,
    /// Trusted a decisive PTPM forecast without measuring.
    Forecast,
    /// Measured the pruned shortlist on the simulated device.
    Measured,
}

impl PlanSource {
    /// Stable identifier recorded in job artifacts.
    pub fn id(self) -> &'static str {
        match self {
            PlanSource::DbHit => "db-hit",
            PlanSource::Forecast => "forecast",
            PlanSource::Measured => "measured",
        }
    }
}

/// The outcome of `--plan auto` resolution.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The resolved plan kind.
    pub kind: PlanKind,
    /// Its winning configuration.
    pub config: PlanConfig,
    /// Which chain stage answered.
    pub source: PlanSource,
    /// A DB problem resolution routed around (corrupt file, failed store),
    /// surfaced for logging; never fatal.
    pub db_error: Option<String>,
}

impl Resolution {
    /// The job-spec `tile` expressing this configuration (the runner pins
    /// both block and walk geometry from it; the expressible grid keeps
    /// them equal by construction).
    pub fn tile(&self) -> usize {
        if self.kind.uses_tree() {
            self.config.walk_size
        } else {
            self.config.block_size
        }
    }

    /// The provenance string recorded in the job spec and artifact,
    /// e.g. `auto:db-hit`.
    pub fn plan_source_label(&self) -> String {
        format!("auto:{}", self.source.id())
    }
}

/// The candidate grid a [`crate::spec::JobSpec`] can express: every plan
/// kind crossed with [`AUTO_TILES`], block and walk geometry pinned to the
/// same tile, slice counts left on their auto rules (a spec has no slice
/// knob).
pub fn expressible_grid(base: PlanConfig) -> Vec<Candidate> {
    let mut grid = Vec::new();
    for kind in PlanKind::all() {
        for tile in AUTO_TILES {
            let config = PlanConfig {
                block_size: tile,
                walk_size: tile,
                j_slices: None,
                jw_slice_len: None,
                ..base
            };
            grid.push(Candidate { kind, config });
        }
    }
    grid
}

/// Resolves `--plan auto` for a workload: DB hit → PTPM forecast →
/// measured fallback, persisting the winner back through `fs`. Infallible
/// by contract — DB corruption and store failures are recorded in
/// [`Resolution::db_error`] and routed around, never propagated, so a bad
/// cache file can delay admission by one measurement but never block it.
pub fn resolve_plan(
    fs: &dyn SpoolFs,
    db_path: &Path,
    workload: &WorkloadSpec,
    backend: BackendKind,
    objective: TuneObjective,
    top_k: usize,
) -> Resolution {
    let device = DeviceSpec::radeon_hd_5850();
    let (mut db, mut db_error) = match TuningDb::load(db_path) {
        Ok(Some(db)) => (db, None),
        Ok(None) => (TuningDb::default(), None),
        Err(e) => (TuningDb::default(), Some(e.to_string())),
    };
    // a key that cannot be formed routes around the DB like a corrupt file
    let key = db_key(workload, &device, backend, objective)
        .map_err(|e| note_db_error(&mut db_error, e.to_string()))
        .ok();
    if let Some(entry) = key.as_deref().and_then(|k| db.get(k)) {
        // an unknown plan id means a foreign or future entry: treat as a
        // miss and heal it below rather than guessing
        if let Some(kind) = PlanKind::parse(&entry.plan) {
            return Resolution { kind, config: entry.config, source: PlanSource::DbHit, db_error };
        }
    }

    let base = PlanConfig::default();
    let grid = expressible_grid(base);
    let mut set = workload.generate();
    set.recenter();
    let geom = ForecastGeometry::build(&set, base, &grid);
    let forecasts = forecast_grid_points(&grid, &geom, &device, objective);
    let best = forecasts[0];
    let best_other_kind =
        forecasts.iter().find(|p| p.candidate.kind != best.candidate.kind).map(|p| p.forecast_s);
    let decisive = best_other_kind.is_none_or(|other| best.forecast_s <= FORECAST_MARGIN * other);

    let params = GravityParams { g: 1.0, softening: 0.05 };
    let (winner, source, forecast_s, measured_s) = if decisive {
        (best.candidate, PlanSource::Forecast, best.forecast_s, None)
    } else {
        let shortlist = prune(&forecasts, top_k);
        let measured = measure(&shortlist, &device, &set, &params, objective);
        // the shortlist is drawn from the forecast grid; should nothing come
        // back measured, the forecast winner stands
        let fastest = measured.iter().min_by(|a, b| a.seconds.total_cmp(&b.seconds));
        match fastest.and_then(|m| {
            forecasts.iter().find(|p| p.candidate == m.candidate).map(|f| (m, f.forecast_s))
        }) {
            Some((m, f)) => (m.candidate, PlanSource::Measured, f, Some(m.seconds)),
            None => (best.candidate, PlanSource::Forecast, best.forecast_s, None),
        }
    };

    if let Some(key) = key {
        db.put(TuningEntry {
            key,
            plan: winner.kind.id().to_string(),
            config: winner.config,
            source: source.id().to_string(),
            forecast_s,
            measured_s,
        });
        if let Err(e) = db.store(fs, db_path) {
            note_db_error(&mut db_error, format!("tuning db store failed: {e}"));
        }
    }
    Resolution { kind: winner.kind, config: winner.config, source, db_error }
}

/// Appends `msg` to the DB problems a resolution routed around.
fn note_db_error(db_error: &mut Option<String>, msg: String) {
    *db_error = Some(match db_error.take() {
        Some(prev) => format!("{prev}; {msg}"),
        None => msg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsx::{CrashFs, RealFs};
    use nbody_core::testutil::ScratchDir;
    use plans::prelude::{autotune, evaluate_forces, DEFAULT_SHORTLIST};
    use std::path::PathBuf;

    /// A fresh `name` directory inside the test's unique scratch dir.
    fn tmp(scratch: &ScratchDir, name: &str) -> PathBuf {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entry(key: &str) -> TuningEntry {
        TuningEntry {
            key: key.to_string(),
            plan: PlanKind::JwParallel.id().to_string(),
            config: PlanConfig::default(),
            source: PlanSource::Measured.id().to_string(),
            forecast_s: 1.5e-3,
            measured_s: Some(2.0e-3),
        }
    }

    #[test]
    fn db_round_trips_and_missing_is_none() {
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "roundtrip");
        let path = dir.join("tuning.json");
        assert!(TuningDb::load(&path).unwrap().is_none());
        let mut db = TuningDb::default();
        db.put(sample_entry("b"));
        db.put(sample_entry("a"));
        db.store(&RealFs, &path).unwrap();
        let back = TuningDb::load(&path).unwrap().unwrap();
        assert_eq!(back, db);
        assert_eq!(back.entries[0].key, "a", "entries stay key-sorted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_replaces_existing_key() {
        let mut db = TuningDb::default();
        db.put(sample_entry("k"));
        let mut updated = sample_entry("k");
        updated.plan = PlanKind::IParallel.id().to_string();
        db.put(updated);
        assert_eq!(db.entries.len(), 1);
        assert_eq!(db.entries[0].plan, "i-parallel");
    }

    #[test]
    fn corrupt_and_version_skewed_dbs_are_typed_errors_not_panics() {
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "corrupt");
        let path = dir.join("tuning.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = TuningDb::load(&path).unwrap_err();
        assert_eq!(err.id(), "parse", "{err}");
        std::fs::write(&path, "{\"version\":99,\"entries\":[]}").unwrap();
        let err = TuningDb::load(&path).unwrap_err();
        assert_eq!(err.id(), "parse", "{err}");
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn db_key_buckets_n_and_separates_tiers() {
        let device = DeviceSpec::radeon_hd_5850();
        let w = |n| WorkloadSpec::plummer(n, 1);
        let k = |n, b, o| db_key(&w(n), &device, b, o).unwrap();
        // one bucket per power-of-two range
        assert_eq!(
            k(600, BackendKind::Sim, TuneObjective::TotalTime),
            k(1024, BackendKind::Sim, TuneObjective::TotalTime)
        );
        assert_ne!(
            k(1024, BackendKind::Sim, TuneObjective::TotalTime),
            k(1025, BackendKind::Sim, TuneObjective::TotalTime)
        );
        // auto resolves to sim: shared entry
        assert_eq!(
            k(512, BackendKind::Auto, TuneObjective::TotalTime),
            k(512, BackendKind::Sim, TuneObjective::TotalTime)
        );
        // tiers and objectives are distinct
        assert_ne!(
            k(512, BackendKind::Host, TuneObjective::TotalTime),
            k(512, BackendKind::Sim, TuneObjective::TotalTime)
        );
        assert_ne!(
            k(512, BackendKind::Sim, TuneObjective::KernelTime),
            k(512, BackendKind::Sim, TuneObjective::TotalTime)
        );
        // a different device spec keys differently
        assert_ne!(
            db_key(
                &w(512),
                &DeviceSpec::radeon_hd_5870(),
                BackendKind::Sim,
                TuneObjective::TotalTime
            )
            .unwrap(),
            k(512, BackendKind::Sim, TuneObjective::TotalTime)
        );
    }

    #[test]
    fn resolution_chain_misses_then_hits_with_identical_choice() {
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "chain");
        let path = dir.join("tuning.json");
        let workload = WorkloadSpec::plummer(128, 7);
        let first = resolve_plan(
            &RealFs,
            &path,
            &workload,
            BackendKind::Sim,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_ne!(first.source, PlanSource::DbHit, "fresh dir cannot hit");
        assert!(first.db_error.is_none(), "{:?}", first.db_error);
        assert!(path.exists(), "winner was persisted");
        let second = resolve_plan(
            &RealFs,
            &path,
            &workload,
            BackendKind::Sim,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_eq!(second.source, PlanSource::DbHit);
        assert_eq!(second.kind, first.kind);
        assert_eq!(second.config, first.config);
        assert_eq!(second.tile(), first.tile());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_db_falls_back_and_heals() {
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "heal");
        let path = dir.join("tuning.json");
        std::fs::write(&path, "garbage").unwrap();
        let workload = WorkloadSpec::plummer(96, 3);
        let r = resolve_plan(
            &RealFs,
            &path,
            &workload,
            BackendKind::Sim,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_ne!(r.source, PlanSource::DbHit);
        assert!(r.db_error.as_deref().unwrap_or("").contains("parse"), "{:?}", r.db_error);
        // the rewrite healed the file: next resolution is a clean hit
        let again = resolve_plan(
            &RealFs,
            &path,
            &workload,
            BackendKind::Sim,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_eq!(again.source, PlanSource::DbHit);
        assert!(again.db_error.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn db_hit_replays_the_autotune_winner_bit_exactly() {
        // persist the *full* autotuner's measured winner, then check a DB
        // hit reproduces exactly that candidate and that replaying it gives
        // bit-identical forces — the invariant that makes persistence safe
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "replay");
        let path = dir.join("tuning.json");
        let device = DeviceSpec::radeon_hd_5850();
        let workload = WorkloadSpec::plummer(128, 11);
        let mut set = workload.generate();
        set.recenter();
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let result = autotune(
            PlanConfig::default(),
            &device,
            &set,
            &params,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert!(result.winner_reproducible);
        let key = db_key(&workload, &device, BackendKind::Sim, TuneObjective::TotalTime).unwrap();
        let mut db = TuningDb::default();
        db.put(TuningEntry {
            key,
            plan: result.best.kind.id().to_string(),
            config: result.best.config,
            source: PlanSource::Measured.id().to_string(),
            forecast_s: 0.0,
            measured_s: Some(result.best_seconds),
        });
        db.store(&RealFs, &path).unwrap();
        let r = resolve_plan(
            &RealFs,
            &path,
            &workload,
            BackendKind::Sim,
            TuneObjective::TotalTime,
            DEFAULT_SHORTLIST,
        );
        assert_eq!(r.source, PlanSource::DbHit);
        assert_eq!(r.kind, result.best.kind);
        assert_eq!(r.config, result.best.config);
        let replayed =
            evaluate_forces(&Candidate { kind: r.kind, config: r.config }, &device, &set, &params);
        let original = evaluate_forces(&result.best, &device, &set, &params);
        assert_eq!(replayed, original, "DB hit must replay the winner bit-exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_crash_points_leave_old_db_or_new_db_never_torn() {
        let scratch = ScratchDir::new("tuning");
        let dir = tmp(&scratch, "crashfuzz");
        let path = dir.join("tuning.json");
        // establish an old generation on disk
        let mut old = TuningDb::default();
        old.put(sample_entry("old"));
        old.store(&RealFs, &path).unwrap();
        // count the mutations a store takes from this state
        let counter = CrashFs::counting();
        let mut new = old.clone();
        new.put(sample_entry("new"));
        new.store(counter.as_ref(), &path).unwrap();
        let ops = counter.ops_used();
        assert!(ops >= 2, "write_atomic is at least write + rename");
        // crash after every prefix; the DB must load as exactly old or new
        for budget in 0..ops {
            old.store(&RealFs, &path).unwrap();
            std::fs::remove_file(dir.join("tuning.json.tmp")).ok();
            let fs = CrashFs::with_budget(budget);
            let _ = new.store(fs.as_ref(), &path);
            let loaded = TuningDb::load(&path)
                .expect("a crashed store must never leave a torn DB")
                .expect("the old generation must survive an incomplete store");
            assert!(
                loaded == old || loaded == new,
                "budget {budget}: loaded neither generation: {loaded:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
