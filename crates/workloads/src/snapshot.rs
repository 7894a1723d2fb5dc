//! Snapshot I/O: serialize particle sets with their provenance so an
//! initial condition or a simulation state can be saved, shared, and
//! reloaded bit-exactly.
//!
//! Two encodings share one [`content_checksum`] (FNV-1a over the
//! simulation time, the body count, and every particle's position,
//! velocity and mass bit patterns):
//!
//! * **JSON**, schema version 2 ([`Snapshot::to_json`]). Result-cache
//!   entries embed snapshots this way. Version 2 added the checksum, so
//!   silent corruption is caught at load time instead of propagating
//!   NaN-free-but-wrong state into a resumed run; version-1 files (no
//!   checksum) still load.
//! * **Binary v3** ([`Snapshot::to_bytes`]), what [`Snapshot::save`] and
//!   checkpoints write. A fixed little-endian layout:
//!
//!   | bytes | field |
//!   |---|---|
//!   | 8 | [`BINARY_MAGIC`] |
//!   | 4 | `u32` format number, [`BINARY_VERSION`] |
//!   | 8 | `u64` body count N |
//!   | 8 | `f64` time bits |
//!   | 4 | `u32` label length L |
//!   | L | UTF-8 label |
//!   | 56·N | per body `pos.xyz`, `vel.xyz`, `mass` as `f64` bits |
//!   | 8 | `u64` checksum |
//!
//!   The body records are in the order [`content_checksum`] hashes them,
//!   so the checksum is computed straight over the stored bytes. The
//!   trailing checksum is [`content_checksum`] continued over the label
//!   length and label bytes, so every byte of the file is covered by some
//!   check: the magic and format number by value, N and L by the file
//!   length, everything else by the checksum. Accelerations are not
//!   stored: the checksum never covered them, and every resumer re-primes
//!   forces from the restored positions, so a decoded set has zero `acc`.
//!
//! [`Snapshot::from_bytes`] (and [`Snapshot::load`]) read both encodings:
//! anything that does not open with the magic is parsed as JSON.

use nbody_core::body::ParticleSet;
use nbody_core::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A particle set plus the metadata needed to interpret it later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// JSON schema version for forward compatibility. A snapshot decoded
    /// from binary v3 reports [`SNAPSHOT_VERSION`]: the binary format
    /// number lives only in the file header.
    pub version: u32,
    /// Free-form label (workload spec string, experiment id, ...).
    pub label: String,
    /// Simulation time the snapshot was taken at.
    pub time: f64,
    /// The particles.
    pub set: ParticleSet,
    /// FNV-1a content checksum (version ≥ 2; absent in v1 files).
    pub checksum: Option<u64>,
}

/// Current JSON snapshot schema version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Oldest JSON schema version this crate still reads.
pub const SNAPSHOT_MIN_VERSION: u32 = 1;

/// First eight bytes of every binary snapshot. As in PNG, the high-bit
/// first byte and the trailing newline expose 7-bit and newline-mangling
/// transfers, and no JSON text can start this way.
pub const BINARY_MAGIC: [u8; 8] = *b"\x89NBSNAP\n";

/// Format number in the binary header.
pub const BINARY_VERSION: u32 = 3;

/// Byte offsets of the header fields after the magic; the label follows
/// the header.
const VERSION_AT: usize = 8;
const N_AT: usize = 12;
const TIME_AT: usize = 20;
const LABEL_LEN_AT: usize = 28;
const HEADER_LEN: usize = 32;
/// Seven `f64` components per body.
const BODY_LEN: usize = 7 * 8;
/// The trailing checksum.
const TRAILER_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over the simulation time and every particle component's f64
/// bit pattern, in storage order. Bit patterns (not values) make the
/// checksum as strict as the bit-exact reload guarantee it protects.
pub fn content_checksum(time: f64, set: &ParticleSet) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &time.to_bits().to_le_bytes());
    hash = fnv1a(hash, &(set.len() as u64).to_le_bytes());
    for i in 0..set.len() {
        let (p, v, m) = (set.pos()[i], set.vel()[i], set.mass()[i]);
        for c in [p.x, p.y, p.z, v.x, v.y, v.z, m] {
            hash = fnv1a(hash, &c.to_bits().to_le_bytes());
        }
    }
    hash
}

/// `bytes` as an array; callers slice exactly `W` bytes.
fn word<const W: usize>(bytes: &[u8]) -> [u8; W] {
    let mut word = [0u8; W];
    word.copy_from_slice(bytes);
    word
}

impl Snapshot {
    /// Wraps a particle set at time `time`.
    pub fn new(label: impl Into<String>, time: f64, set: ParticleSet) -> Self {
        let checksum = Some(content_checksum(time, &set));
        Self { version: SNAPSHOT_VERSION, label: label.into(), time, set, checksum }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parses from JSON, validating the schema version and (for v2 files)
    /// the content checksum.
    pub fn from_json(s: &str) -> Result<Self, SnapshotError> {
        let snap: Snapshot = serde_json::from_str(s).map_err(SnapshotError::Parse)?;
        if snap.version < SNAPSHOT_MIN_VERSION || snap.version > SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(snap.version));
        }
        if !snap.set.all_finite() {
            return Err(SnapshotError::NonFinite);
        }
        if snap.version >= 2 {
            let actual = content_checksum(snap.time, &snap.set);
            let expected =
                snap.checksum.ok_or(SnapshotError::Checksum { expected: 0, found: actual })?;
            if actual != expected {
                return Err(SnapshotError::Checksum { expected, found: actual });
            }
        }
        Ok(snap)
    }

    /// Serializes to binary v3 (layout in the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::encode(&self.label, self.time, &self.set)
    }

    /// The binary v3 encoding of `set` at `time` under `label`, straight
    /// from the borrowed set: no [`Snapshot`] (and no copy of the set) is
    /// built.
    ///
    /// # Panics
    /// Panics if the label is 4 GiB or longer.
    pub fn encode(label: &str, time: f64, set: &ParticleSet) -> Vec<u8> {
        let n = set.len();
        let label_len = u32::try_from(label.len()).expect("snapshot label under 4 GiB");
        let mut out = Vec::with_capacity(HEADER_LEN + label.len() + n * BODY_LEN + TRAILER_LEN);
        out.extend_from_slice(&BINARY_MAGIC);
        out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&time.to_bits().to_le_bytes());
        out.extend_from_slice(&label_len.to_le_bytes());
        out.extend_from_slice(label.as_bytes());
        let body = out.len();
        for i in 0..n {
            let (p, v, m) = (set.pos()[i], set.vel()[i], set.mass()[i]);
            for c in [p.x, p.y, p.z, v.x, v.y, v.z, m] {
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        let checksum = Self::binary_checksum(&out, body).1;
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// `(content, trailer)` checksums of a binary snapshot whose header and
    /// label end at `body` and whose body records run to the end of
    /// `bytes` (trailer excluded).
    fn binary_checksum(bytes: &[u8], body: usize) -> (u64, u64) {
        let time = &bytes[TIME_AT..TIME_AT + 8];
        let n = &bytes[N_AT..N_AT + 8];
        let content = fnv1a(fnv1a(fnv1a(FNV_OFFSET, time), n), &bytes[body..]);
        (content, fnv1a(content, &bytes[LABEL_LEN_AT..body]))
    }

    /// Parses either encoding: binary v3 when `bytes` opens with
    /// [`BINARY_MAGIC`], JSON (v1/v2, through [`Snapshot::from_json`])
    /// otherwise. Never panics, whatever the input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if !bytes.starts_with(&BINARY_MAGIC) {
            let text = std::str::from_utf8(bytes).map_err(|e| {
                SnapshotError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            })?;
            return Self::from_json(text);
        }
        let found = bytes.len() as u64;
        let header = bytes
            .get(..HEADER_LEN)
            .ok_or(SnapshotError::Length { expected: HEADER_LEN as u64, found })?;
        let version = u32::from_le_bytes(word(&header[VERSION_AT..N_AT]));
        if version != BINARY_VERSION {
            return Err(SnapshotError::Version(version));
        }
        let n = u64::from_le_bytes(word(&header[N_AT..TIME_AT]));
        let time = f64::from_le_bytes(word(&header[TIME_AT..LABEL_LEN_AT]));
        let label_len = u32::from_le_bytes(word(&header[LABEL_LEN_AT..]));
        // u128: a corrupt N must not overflow the expected length
        let expected = (HEADER_LEN + TRAILER_LEN) as u128
            + u128::from(label_len)
            + u128::from(n) * BODY_LEN as u128;
        if expected != u128::from(found) {
            let expected = u64::try_from(expected).unwrap_or(u64::MAX);
            return Err(SnapshotError::Length { expected, found });
        }

        let body = HEADER_LEN + label_len as usize;
        let (data, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
        let (content, actual) = Self::binary_checksum(data, body);
        let stored = u64::from_le_bytes(word(trailer));
        if actual != stored {
            return Err(SnapshotError::Checksum { expected: stored, found: actual });
        }

        let label = std::str::from_utf8(&bytes[HEADER_LEN..body])
            .map_err(|_| SnapshotError::Invalid("label is not UTF-8"))?;
        let records = data[body..].chunks_exact(BODY_LEN);
        let n = records.len();
        let (mut pos, mut vel, mut mass) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        for r in records {
            let c = |k: usize| f64::from_le_bytes(word(&r[8 * k..8 * k + 8]));
            pos.push(Vec3::new(c(0), c(1), c(2)));
            vel.push(Vec3::new(c(3), c(4), c(5)));
            mass.push(c(6));
        }
        if !time.is_finite() || !mass.iter().all(|m| m.is_finite()) {
            return Err(SnapshotError::NonFinite);
        }
        if mass.iter().any(|&m| m < 0.0) {
            return Err(SnapshotError::Invalid("negative mass"));
        }
        let set = ParticleSet::from_parts(pos, vel, mass);
        if !set.all_finite() {
            return Err(SnapshotError::NonFinite);
        }
        Ok(Snapshot {
            version: SNAPSHOT_VERSION,
            label: label.to_owned(),
            time,
            set,
            checksum: Some(content),
        })
    }

    /// Writes binary v3 to a file atomically: the bytes land in a `.tmp`
    /// sibling first and are renamed into place, so a crash mid-write can
    /// never leave a truncated snapshot under the final name — at worst it
    /// leaves `.tmp` litter for startup cleanup to delete.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a file in either encoding (see [`Snapshot::from_bytes`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Self::from_bytes(&bytes)
    }
}

/// What can go wrong loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// File could not be read, or JSON input was not UTF-8.
    Io(std::io::Error),
    /// JSON was malformed.
    Parse(serde_json::Error),
    /// Unsupported JSON schema version or binary format number.
    Version(u32),
    /// A binary snapshot whose size is not the one its header implies
    /// (truncated, extended, or a corrupt N or label length).
    Length {
        /// Bytes the header implies (the bare header size when even the
        /// header is incomplete).
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// Data contained NaN/∞.
    NonFinite,
    /// A checksum-valid binary snapshot that still cannot describe a
    /// particle set (non-UTF-8 label, negative mass).
    Invalid(&'static str),
    /// Content checksum did not match the stored one (corrupt file).
    Checksum {
        /// Checksum recorded in the file (0 when the field was missing).
        expected: u64,
        /// Checksum recomputed from the loaded data.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Parse(e) => write!(f, "snapshot parse error: {e}"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Length { expected, found } => write!(
                f,
                "snapshot length mismatch (header implies {expected} bytes, file has {found}): \
                 file is truncated or corrupt"
            ),
            SnapshotError::NonFinite => write!(f, "snapshot contains non-finite values"),
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot: {what}"),
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (stored {expected:#018x}, computed {found:#018x}): \
                 file is corrupt"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::{plummer, PlummerParams};
    use nbody_core::testutil::ScratchDir;

    #[test]
    fn roundtrip_exact() {
        let set = plummer(64, PlummerParams::default(), 9);
        let snap = Snapshot::new("test", 1.25, set.clone());
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.set, set);
        assert_eq!(back.time, 1.25);
        assert_eq!(back.label, "test");
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert!(back.checksum.is_some());
    }

    #[test]
    fn file_roundtrip() {
        let set = plummer(16, PlummerParams::default(), 10);
        let snap = Snapshot::new("file-test", 0.0, set);
        let dir = ScratchDir::new("file");
        let path = dir.join("snap.snap");
        snap.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(&BINARY_MAGIC), "save writes v3");
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn save_is_atomic_leaving_no_tmp_sibling() {
        let set = plummer(8, PlummerParams::default(), 21);
        let snap = Snapshot::new("atomic", 0.25, set);
        let dir = ScratchDir::new("atomic");
        let path = dir.join("snap.snap");
        // a stale tmp from a previous crash must not confuse the write
        std::fs::write(dir.join("snap.snap.tmp"), "{half-written").unwrap();
        snap.save(&path).unwrap();
        assert!(!dir.join("snap.snap.tmp").exists(), "tmp renamed away");
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
    }

    #[test]
    fn version_mismatch_rejected() {
        let set = plummer(4, PlummerParams::default(), 11);
        let mut snap = Snapshot::new("v", 0.0, set);
        snap.version = 999;
        let err = Snapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(matches!(err, SnapshotError::Version(999)));
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(Snapshot::from_json("{oops"), Err(SnapshotError::Parse(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Snapshot::load("/definitely/not/here.json").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn v1_snapshot_without_checksum_still_loads() {
        let set = plummer(8, PlummerParams::default(), 12);
        let mut snap = Snapshot::new("legacy", 0.5, set.clone());
        snap.version = 1;
        snap.checksum = None;
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.set, set);
        assert_eq!(back.checksum, None);
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let set = plummer(8, PlummerParams::default(), 13);
        let mut snap = Snapshot::new("c", 0.5, set);
        // flip one particle coordinate without touching the stored checksum,
        // as silent bit rot in the file would
        snap.set.pos_mut()[3].x += 0.125;
        let err = Snapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(matches!(err, SnapshotError::Checksum { .. }), "got {err}");
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn v2_snapshot_missing_checksum_rejected() {
        let set = plummer(4, PlummerParams::default(), 14);
        let mut snap = Snapshot::new("m", 0.0, set);
        snap.checksum = None;
        let err = Snapshot::from_json(&snap.to_json()).unwrap_err();
        // `expected` is the stored value (0: missing), `found` the recomputed
        let recomputed = content_checksum(snap.time, &snap.set);
        assert!(
            matches!(err, SnapshotError::Checksum { expected: 0, found } if found == recomputed),
            "got {err:?}"
        );
        assert!(err.to_string().contains("stored 0x0000000000000000"), "{err}");
    }

    #[test]
    fn binary_roundtrip_drops_only_acc() {
        let mut set = plummer(32, PlummerParams::default(), 16);
        for (i, a) in set.acc_mut().iter_mut().enumerate() {
            *a = Vec3::new(i as f64, -1.5, 0.25);
        }
        let snap = Snapshot::new("bin", 0.375, set.clone());
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(
            (back.set.pos(), back.set.vel(), back.set.mass()),
            (set.pos(), set.vel(), set.mass())
        );
        assert_eq!((back.label.as_str(), back.time.to_bits()), ("bin", 0.375f64.to_bits()));
        assert_eq!((back.version, back.checksum), (SNAPSHOT_VERSION, snap.checksum));
        assert!(back.set.acc().iter().all(|a| *a == Vec3::ZERO), "acc is not stored");
        assert_eq!(snap.to_bytes(), Snapshot::encode("bin", 0.375, &set));
    }

    #[test]
    fn binary_wrong_version_and_length_are_typed() {
        let snap = Snapshot::new("t", 0.0, plummer(4, PlummerParams::default(), 17));
        let bytes = snap.to_bytes();
        let mut versioned = bytes.clone();
        versioned[8] = 4;
        assert!(matches!(Snapshot::from_bytes(&versioned), Err(SnapshotError::Version(4))));
        let err = Snapshot::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        let (expected, found) = (bytes.len() as u64, bytes.len() as u64 - 1);
        assert!(
            matches!(err, SnapshotError::Length { expected: e, found: f } if (e, f) == (expected, found)),
            "got {err:?}"
        );
    }

    #[test]
    fn checksum_depends_on_time_and_every_component() {
        let set = plummer(4, PlummerParams::default(), 15);
        let base = content_checksum(1.0, &set);
        assert_ne!(base, content_checksum(2.0, &set));
        let mut moved = set.clone();
        moved.pos_mut()[2].y += 1e-12;
        assert_ne!(base, content_checksum(1.0, &moved));
        let mut kicked = set.clone();
        kicked.vel_mut()[0].z = -kicked.vel_mut()[0].z;
        assert_ne!(base, content_checksum(1.0, &kicked));
    }
}
