//! The on-disk formats the job path writes, pinned byte for byte.
//!
//! * Binary v3 snapshots (checkpoints): every f64 bit pattern survives a
//!   round trip, and no truncation or single-byte corruption of a file
//!   decodes, or panics.
//! * JSON snapshots are v3 (`pos`, `vel`, `mass`, no `acc`); legacy v1 and
//!   v2 files still load with their `acc` skipped, and checkpoint discovery
//!   resumes from the newest valid file across `.snap` and `.json` names.
//! * Result-cache entries are JSON and must stay byte-identical:
//!   `tests/golden/cache_entry_n8_v3.json` is the entry of a tiny job, and
//!   a crash-resumed run of that job (through v3 checkpoints) reproduces
//!   the fresh run's final state bit for bit, accelerations included. The
//!   v2 entry of the same job, `tests/golden/cache_entry_n8.json`, still
//!   loads through `ResultCache::lookup` to the same bits.

mod common;

use common::ScratchDir;
use jobs::checkpoint::{checkpoint_path, save_checkpoint, scan};
use jobs::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::testutil::stored_bits as bits;
use nbody_core::vec3::Vec3;
use plans::prelude::PlanKind;
use workloads::snapshot::{content_checksum, Snapshot, SnapshotError, BINARY_MAGIC};
use workloads::spec::WorkloadSpec;

/// Values whose bit patterns a decimal or lossy encoding could change.
const HARD: [f64; 4] = [-0.0, 5e-324, f64::MAX, 1.0 / 3.0];

const LABEL: &str = "θ = 0.5 → ε² \u{1f680}";

/// A set of `n` bodies cycling every component through [`HARD`] (masses
/// are absolute values, except that `-0.0` is kept), with nonzero
/// accelerations.
fn hard_set(n: usize) -> ParticleSet {
    let h = |i: usize| HARD[i % HARD.len()];
    let pos = (0..n).map(|i| Vec3::new(h(i), h(i + 1), h(i + 2))).collect();
    let vel = (0..n).map(|i| Vec3::new(-h(i + 3), h(i + 1), -h(i))).collect();
    let mass = (0..n).map(|i| if i % 4 == 0 { -0.0 } else { h(i).abs() }).collect();
    let mut set = ParticleSet::from_parts(pos, vel, mass);
    for a in set.acc_mut() {
        *a = Vec3::new(1.0, 2.0, 3.0);
    }
    set
}

#[test]
fn binary_roundtrip_is_bit_exact() {
    for n in [0, 1, 4, 1000] {
        for time in HARD {
            let set = hard_set(n);
            let snap = Snapshot::new(LABEL, time, set.clone());
            let bytes = snap.to_bytes();
            assert!(bytes.starts_with(&BINARY_MAGIC));
            assert_eq!(bytes.len(), 32 + LABEL.len() + 56 * n + 8, "n={n}");
            let back = Snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(bits(&back.set), bits(&set), "n={n} time={time:e}");
            assert_eq!(back.time.to_bits(), time.to_bits());
            assert_eq!(back.label, LABEL);
            assert_eq!(back.checksum, Some(content_checksum(time, &set)));
            assert!(back.set.acc().iter().all(|a| *a == Vec3::ZERO), "acc is not stored");
            assert_eq!(back.to_bytes(), bytes, "re-encoding is byte-identical");
        }
    }
}

#[test]
fn every_truncation_and_byte_flip_is_an_error() {
    let bytes = Snapshot::new(LABEL, 1.0 / 3.0, hard_set(4)).to_bytes();
    for cut in 0..bytes.len() {
        assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(matches!(Snapshot::from_bytes(&extended), Err(SnapshotError::Length { .. })));
    let mut flipped = bytes.clone();
    for at in 0..bytes.len() {
        for mask in 1..=u8::MAX {
            flipped[at] ^= mask;
            assert!(Snapshot::from_bytes(&flipped).is_err(), "byte {at} ^ {mask:#04x} decoded");
            flipped[at] ^= mask;
        }
    }
    assert_eq!(flipped, bytes);
}

#[test]
fn legacy_json_snapshots_still_load() {
    let dir = ScratchDir::new("snapshot-format-legacy");
    let set = hard_set(8);
    let v2 = Snapshot::new("legacy v2", 0.5, set.clone());
    let mut v1 = v2.clone();
    v1.version = 1;
    v1.checksum = None;
    for (name, snap) in [("v1.json", &v1), ("v2.json", &v2)] {
        let path = dir.join(name);
        std::fs::write(&path, snap.to_json()).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!((back.version, back.checksum), (snap.version, snap.checksum), "{name}");
        assert_eq!((back.label.as_str(), back.time.to_bits()), ("legacy v2", 0.5f64.to_bits()));
        assert_eq!(bits(&back.set), bits(&set), "{name}");
        assert_eq!(back.set.acc(), vec![Vec3::ZERO; 8], "{name}: acc is not stored");
    }

    // hand-written text, independent of the writer: integers where floats
    // go, exponent forms, a v1 file without a checksum key, and the `acc`
    // array that v1 and v2 writers stored, which is skipped
    let set = ParticleSet::from_parts(
        vec![Vec3::new(1.0, -0.5, 2.5e-8), Vec3::new(0.0, 3.0, -1.0)],
        vec![Vec3::new(0.25, 0.0, 0.0), Vec3::new(-0.25, 1e300, 0.0)],
        vec![1.0, 0.5],
    );
    let body = r#""set":{"pos":[{"x":1,"y":-0.5,"z":2.5e-8},{"x":0.0,"y":3,"z":-1}],
        "vel":[{"x":0.25,"y":0,"z":0},{"x":-0.25,"y":1e300,"z":0}],
        "acc":[{"x":9,"y":-9,"z":1e9},{"x":0,"y":0,"z":0}],"mass":[1,0.5]}"#;
    let v1 = format!(r#"{{"version":1,"label":"v1","time":0.5,{body}}}"#);
    let snap = Snapshot::from_json(&v1).unwrap();
    assert_eq!((snap.version, snap.checksum, snap.time), (1, None, 0.5));
    assert_eq!(snap.set, set);
    let sum = content_checksum(0.5, &set);
    let v2 = format!(r#"{{"version":2,"label":"v2","time":0.5,{body},"checksum":{sum}}}"#);
    let snap = Snapshot::from_json(&v2).unwrap();
    assert_eq!((snap.version, snap.checksum), (2, Some(sum)));
    assert_eq!(snap.set, set);
    let bad = v2.replace(&format!("{sum}"), &format!("{}", sum ^ 1));
    assert!(Snapshot::from_json(&bad).is_err(), "a v2 checksum is still checked");
}

#[test]
fn scan_resumes_from_the_newest_valid_file_across_formats() {
    let dir = ScratchDir::new("snapshot-format-scan");
    let set = WorkloadSpec::plummer(16, 3).generate();
    let legacy = |step: usize, label: &str| {
        let json = Snapshot::new(label, step as f64, set.clone()).to_json();
        std::fs::write(dir.join(format!("ckpt-{step:05}.json")), json).unwrap();
    };
    save_checkpoint(&dir, "snap", 2.0, 2, &set).unwrap();
    legacy(4, "json");
    save_checkpoint(&dir, "snap", 6.0, 6, &set).unwrap();
    legacy(8, "json");
    let mut corrupt = std::fs::read(checkpoint_path(&dir, 6)).unwrap();
    corrupt[40] ^= 1;
    std::fs::write(checkpoint_path(&dir, 10), corrupt).unwrap();
    std::fs::write(dir.join("ckpt-00012.json"), "{\"version\":2,").unwrap();

    let found = scan(&dir).unwrap();
    let (step, snap) = found.best.unwrap();
    assert_eq!((step, snap.label.as_str()), (8, "json"), "legacy file newer than any .snap");
    let skipped: Vec<&str> = found.skipped.iter().map(|s| s.file.as_str()).collect();
    assert_eq!(skipped, ["ckpt-00010.snap", "ckpt-00012.json"]);

    save_checkpoint(&dir, "snap", 14.0, 14, &set).unwrap();
    legacy(14, "json");
    let (step, snap) = scan(&dir).unwrap().best.unwrap();
    assert_eq!((step, snap.label.as_str()), (14, "snap"), ".snap wins a tie with .json");
    assert_eq!(bits(&snap.set), bits(&set));
}

fn golden_spec() -> JobSpec {
    let mut spec = JobSpec::new(WorkloadSpec::plummer(8, 1), PlanKind::JwParallel, 4);
    spec.checkpoint_every = 2;
    spec
}

fn complete(status: RunStatus) -> JobResult {
    match status {
        RunStatus::Complete { result, .. } => *result,
        other => panic!("expected a complete run, got {other:?}"),
    }
}

/// The cache entry of [`golden_spec`]'s run: v3, and the legacy v2 form
/// that carried the final accelerations.
const GOLDEN: &str = include_str!("golden/cache_entry_n8_v3.json");
const GOLDEN_V2: &str = include_str!("golden/cache_entry_n8.json");

#[test]
fn cache_entry_is_byte_identical_to_golden() {
    let dir = ScratchDir::new("snapshot-format-golden");
    let spec = golden_spec();
    let result = complete(run_job(&spec, &dir.join("plain"), &RunOptions::default()).unwrap());
    assert_eq!(serde_json::to_string(&result).unwrap(), GOLDEN);
    // v3 is v2 without the `acc` member
    let acc = GOLDEN_V2.find("\"acc\":[").unwrap();
    let acc_end = acc + GOLDEN_V2[acc..].find("],").unwrap() + 2;
    let v2_minus_acc = format!("{}{}", &GOLDEN_V2[..acc], &GOLDEN_V2[acc_end..]);
    assert_eq!(v2_minus_acc.replacen("\"version\":2,", "\"version\":3,", 1), GOLDEN);

    // crash after the first checkpoint, resume from the v3 file: the final
    // state, re-primed accelerations included, is the fresh run's bit for bit
    let crash = RunOptions { crash_after: Some(2), ..Default::default() };
    let resumed_dir = dir.join("resumed");
    match run_job(&spec, &resumed_dir, &crash).unwrap() {
        RunStatus::Crashed { at_step: 2 } => {}
        other => panic!("expected a crash at step 2, got {other:?}"),
    }
    let resumed = complete(run_job(&spec, &resumed_dir, &RunOptions::default()).unwrap());
    assert_eq!(resumed.resumed_from, 2);
    let (fresh, resumed) = (&result.final_snapshot.set, &resumed.final_snapshot.set);
    assert_eq!(bits(resumed), bits(fresh));
    let acc_bits = |set: &ParticleSet| {
        set.acc().iter().flat_map(|a| [a.x, a.y, a.z].map(f64::to_bits)).collect::<Vec<_>>()
    };
    assert!(fresh.acc().iter().all(|a| *a != Vec3::ZERO), "the run ends with primed forces");
    assert_eq!(acc_bits(resumed), acc_bits(fresh));
}

#[test]
fn a_legacy_v2_cache_entry_loads_to_the_same_bits() {
    let dir = ScratchDir::new("snapshot-format-legacy-entry");
    let spec = golden_spec();
    let cache = ResultCache::new(dir.join("cache"));
    std::fs::create_dir_all(cache.dir()).unwrap();
    let path = cache.dir().join(format!("{}.json", spec.hash_hex()));
    let current: JobResult = serde_json::from_str(GOLDEN).unwrap();
    // the v2 `acc` digits are not covered by the checksum: altered, they
    // still load, as zeros, so no unchecked number is ever served
    let acc = GOLDEN_V2.find("\"acc\":[").unwrap();
    let digit = acc + GOLDEN_V2[acc..].find(|c: char| c.is_ascii_digit()).unwrap();
    let mut altered = GOLDEN_V2.as_bytes().to_vec();
    altered[digit] = if altered[digit] == b'9' { b'8' } else { altered[digit] + 1 };
    let altered = String::from_utf8(altered).unwrap();
    for text in [GOLDEN_V2, &altered] {
        std::fs::write(&path, text).unwrap();
        let legacy = cache.lookup(&spec.hash_hex()).unwrap().expect("a v2 entry is a hit");
        let (got, want) = (&legacy.final_snapshot, &current.final_snapshot);
        assert_eq!(got.version, 2);
        assert_eq!(bits(&got.set), bits(&want.set));
        assert_eq!(got.set.acc(), vec![Vec3::ZERO; 8], "a v2 entry's acc is skipped");
        assert_eq!((got.time.to_bits(), got.checksum), (want.time.to_bits(), want.checksum));
        assert_eq!(legacy.result_checksum, current.result_checksum);
    }
}
