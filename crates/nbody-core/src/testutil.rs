//! Deterministic helpers for tests and examples.
//!
//! Uses a small embedded xorshift generator instead of the `rand` crate so
//! that downstream crates can build fixtures without extra dependencies and
//! with bit-identical results everywhere. Real workload generation (Plummer
//! spheres etc.) lives in the `workloads` crate. [`ScratchDir`] is the one
//! per-test scratch directory of the workspace.

use crate::body::{Body, ParticleSet};
use crate::vec3::Vec3;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A tiny xorshift64* PRNG: deterministic, seedable, dependency-free.
///
/// Not cryptographic; adequate for scattering test particles.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        Self { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // take the top 53 bits for a uniform double
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform vector in the cube `[lo, hi)³`.
    pub fn uniform_vec3(&mut self, lo: f64, hi: f64) -> Vec3 {
        Vec3::new(self.uniform(lo, hi), self.uniform(lo, hi), self.uniform(lo, hi))
    }
}

/// A deterministic cloud of `n` particles in the unit cube with masses in
/// `[0.5, 1.5)` and small random velocities. Fully determined by `seed`.
pub fn random_set(n: usize, seed: u64) -> ParticleSet {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| {
            Body::new(
                rng.uniform_vec3(-0.5, 0.5),
                rng.uniform_vec3(-0.05, 0.05),
                rng.uniform(0.5, 1.5),
            )
        })
        .collect()
}

/// A deterministic equal-mass cloud; total mass is exactly `n as f64`.
pub fn equal_mass_set(n: usize, seed: u64) -> ParticleSet {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| Body::new(rng.uniform_vec3(-0.5, 0.5), Vec3::ZERO, 1.0)).collect()
}

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, removed on drop.
///
/// Every directory is unique to one process and one call (process id plus a
/// process-wide counter), so tests running in parallel, or two concurrent
/// `cargo test` invocations, never share, delete or reuse each other's
/// directories. Derefs to its [`Path`], so it passes wherever a path does.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `nbody-ptpm-<tag>-<pid>-<counter>`; `tag` only makes
    /// leftovers of a crashed run easier to attribute.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nbody-ptpm-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(&*a, &*b);
        assert!(a.is_dir() && b.is_dir());
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.is_dir());
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = XorShift64::new(99);
        let mut b = XorShift64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_zero_seed_ok() {
        let mut r = XorShift64::new(0);
        // must not get stuck at zero
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = XorShift64::new(5);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn random_set_shape() {
        let s = random_set(17, 1);
        assert_eq!(s.len(), 17);
        assert!(s.all_finite());
        assert!(s.mass().iter().all(|&m| (0.5..1.5).contains(&m)));
        // determinism
        assert_eq!(random_set(17, 1), s);
        assert_ne!(random_set(17, 2), s);
    }

    #[test]
    fn equal_mass_total() {
        let s = equal_mass_set(32, 4);
        assert!((s.total_mass() - 32.0).abs() < 1e-12);
    }
}
