//! Morton (Z-order) codes.
//!
//! The multiple-walk method needs spatially coherent groups of bodies. The
//! default grouping uses octree order (each node owns a contiguous range of
//! the permutation), which is itself a Morton order induced by the tree.
//! This module provides explicit 63-bit Morton codes (21 bits per axis) as
//! an alternative: they allow grouping *without* building the tree first
//! (useful when the tree and the walks are produced by different pipeline
//! stages) and are the standard tool for linearizing octrees in GPU tree
//! builds (future-work direction of the paper's lineage).

use nbody_core::body::ParticleSet;
use nbody_core::vec3::Vec3;

/// Bits per axis in a Morton code.
pub const BITS_PER_AXIS: u32 = 21;

/// Spreads the low 21 bits of `v` so consecutive bits land 3 apart — the
/// classic magic-constant cascade.
#[inline]
fn spread(v: u64) -> u64 {
    let mut y = v & 0x1F_FFFF; // 21 bits
    y = (y | (y << 32)) & 0x001F_0000_0000_FFFF;
    y = (y | (y << 16)) & 0x001F_0000_FF00_00FF;
    y = (y | (y << 8)) & 0x100F_00F0_0F00_F00F;
    y = (y | (y << 4)) & 0x10C3_0C30_C30C_30C3;
    y = (y | (y << 2)) & 0x1249_2492_4924_9249;
    y
}

/// Interleaves three 21-bit coordinates into a 63-bit Morton code
/// (x in the lowest interleaved position).
#[inline]
pub fn morton3(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << BITS_PER_AXIS));
    debug_assert!(y < (1 << BITS_PER_AXIS));
    debug_assert!(z < (1 << BITS_PER_AXIS));
    spread(u64::from(x)) | (spread(u64::from(y)) << 1) | (spread(u64::from(z)) << 2)
}

/// Inverse of [`spread`].
#[inline]
fn compact(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x1F_FFFF;
    x as u32
}

/// Decodes a Morton code back to its three 21-bit coordinates.
#[inline]
pub fn demorton3(code: u64) -> (u32, u32, u32) {
    (compact(code), compact(code >> 1), compact(code >> 2))
}

/// Quantizes a position inside `(lo, hi)` to the 21-bit grid of each axis.
/// Positions outside the box are clamped.
pub fn quantize(p: Vec3, lo: Vec3, hi: Vec3) -> (u32, u32, u32) {
    let scale = (1_u64 << BITS_PER_AXIS) as f64 - 1.0;
    let q = |v: f64, l: f64, h: f64| -> u32 {
        if h <= l {
            return 0;
        }
        let t = ((v - l) / (h - l)).clamp(0.0, 1.0);
        (t * scale) as u32
    };
    (q(p.x, lo.x, hi.x), q(p.y, lo.y, hi.y), q(p.z, lo.z, hi.z))
}

/// Morton code of a position within a bounding box.
pub fn morton_of(p: Vec3, lo: Vec3, hi: Vec3) -> u64 {
    let (x, y, z) = quantize(p, lo, hi);
    morton3(x, y, z)
}

/// Particle indices sorted by Morton code over the set's bounding box.
/// Stable for equal codes (original index breaks ties), hence fully
/// deterministic — and thread-count invariant: `(code, index)` pairs are
/// unique, so sorted chunks merged by that total order reproduce the serial
/// full sort exactly, no matter how the chunks were cut.
pub fn morton_order(set: &ParticleSet) -> Vec<u32> {
    let n = set.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let Some((lo, hi)) = set.bounding_box() else {
        return order;
    };
    let pos = set.pos();
    let mut runs: Vec<Vec<(u64, u32)>> = par::map_chunks(n, |range| {
        let mut keyed: Vec<(u64, u32)> =
            range.map(|i| (morton_of(pos[i], lo, hi), i as u32)).collect();
        keyed.sort_unstable();
        keyed
    });
    while runs.len() > 1 {
        let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            let b = it.next();
            pairs.push((a, b));
        }
        runs = par::run_tasks(
            pairs
                .into_iter()
                .map(|(a, b)| move || if let Some(b) = b { merge_runs(a, b) } else { a })
                .collect(),
        );
    }
    if let Some(keyed) = runs.pop() {
        for (slot, (_, i)) in keyed.into_iter().enumerate() {
            order[slot] = i;
        }
    }
    order
}

/// Incrementally re-sorts a Morton order **in place**, reusing the previous
/// step's permutation and pooled key buffers from `scratch`.
///
/// Bodies barely move between integrator steps, so keying the *previous*
/// order leaves a near-sorted sequence — a handful of long ascending runs.
/// An adaptive natural merge sort (`natural_merge_sort`) then costs
/// `O(n log r)` for `r` runs (one verification pass when the order is still
/// sorted) instead of a full `O(n log n)` sort, and no heap allocation once
/// the buffers are warm.
///
/// The `(code, index)` keys are unique, so any correct sort yields the same
/// permutation: the result is always identical to a fresh
/// [`morton_order`]. If `order` does not match the set's population (first
/// call, or bodies added/removed), it is reset to the identity before
/// keying, which degenerates to a full sort.
pub fn morton_order_incremental(
    set: &ParticleSet,
    order: &mut Vec<u32>,
    scratch: &mut par::arena::Scratch,
) {
    let n = set.len();
    if order.len() != n {
        order.clear();
        order.extend(0..n as u32);
    }
    let Some((lo, hi)) = set.bounding_box() else {
        return;
    };
    let pos = set.pos();
    let mut keyed: Vec<(u64, u32)> = scratch.take("morton-keyed");
    let mut tmp: Vec<(u64, u32)> = scratch.take("morton-tmp");
    keyed.extend(order.iter().map(|&i| (morton_of(pos[i as usize], lo, hi), i)));
    natural_merge_sort(&mut keyed, &mut tmp);
    for (slot, &(_, i)) in keyed.iter().enumerate() {
        order[slot] = i;
    }
    scratch.put("morton-keyed", keyed);
    scratch.put("morton-tmp", tmp);
}

/// Bottom-up natural merge sort: detects the existing ascending runs and
/// merges adjacent pairs until one run remains. Already-sorted input costs a
/// single scan; `k` runs cost `⌈log₂ k⌉` passes. `tmp` is resized (not
/// reallocated, once warm) to serve as the ping-pong buffer.
fn natural_merge_sort(keys: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) {
    let n = keys.len();
    if n < 2 {
        return;
    }
    tmp.clear();
    tmp.resize(n, (0, 0));
    while !keys.windows(2).all(|w| w[0] <= w[1]) {
        // one pass: merge adjacent runs of `keys` into `tmp`
        let mut out = 0;
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && keys[j - 1] <= keys[j] {
                j += 1;
            }
            if j == n {
                // trailing lone run: copy through
                tmp[out..out + (n - i)].copy_from_slice(&keys[i..n]);
                break;
            }
            let mut k = j + 1;
            while k < n && keys[k - 1] <= keys[k] {
                k += 1;
            }
            let (mut a, mut b) = (i, j);
            while a < j && b < k {
                if keys[a] <= keys[b] {
                    tmp[out] = keys[a];
                    a += 1;
                } else {
                    tmp[out] = keys[b];
                    b += 1;
                }
                out += 1;
            }
            tmp[out..out + (j - a)].copy_from_slice(&keys[a..j]);
            out += j - a;
            tmp[out..out + (k - b)].copy_from_slice(&keys[b..k]);
            out += k - b;
            i = k;
        }
        std::mem::swap(keys, tmp);
    }
}

/// Morton keys of the bodies of `set` listed in `order` (typically a tree
/// order or a [`morton_order`]), over the set's bounding box. Duplicate and
/// clamped positions produce *equal* keys — the shard decomposition treats
/// equal-key runs as atomic (see [`eligible_walk_splits`]).
pub fn keys_in_order(set: &ParticleSet, order: &[u32]) -> Vec<u64> {
    let Some((lo, hi)) = set.bounding_box() else {
        return vec![0; order.len()];
    };
    let pos = set.pos();
    order.iter().map(|&i| morton_of(pos[i as usize], lo, hi)).collect()
}

/// Walk-grid positions where a shard boundary may be cut.
///
/// A split at walk boundary `w` (body position `w * walk_size`) is eligible
/// only when the Morton keys on either side differ: bodies with identical
/// (duplicate or clamped) keys must land in one shard, so an equal-key run
/// is never divided. Within such a run the ordering is already deterministic
/// — both [`morton_order`] and the octree's stable bucketing tie-break on
/// the original body index — so shard contents are a pure function of the
/// key sequence. The degenerate all-same-position workload has no eligible
/// split at all and collapses to a single shard regardless of the requested
/// shard count.
///
/// Returns eligible split positions in *walk indices* (exclusive prefix
/// ends), strictly between `0` and `num_walks`.
pub fn eligible_walk_splits(keys: &[u64], walk_size: usize) -> Vec<usize> {
    assert!(walk_size > 0, "walk_size must be positive");
    let num_walks = keys.len().div_ceil(walk_size);
    (1..num_walks)
        .filter(|&w| {
            let p = w * walk_size;
            keys[p - 1] != keys[p]
        })
        .collect()
}

/// Merges two sorted runs of unique `(code, index)` pairs.
fn merge_runs(a: Vec<(u64, u32)>, b: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        if a[ia] <= b[ib] {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::testutil::random_set;

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y, z) in &[
            (0_u32, 0, 0),
            (1, 2, 3),
            (0x1F_FFFF, 0x1F_FFFF, 0x1F_FFFF),
            (0x15_5555, 0x0A_AAAA, 0x10_0001),
        ] {
            let code = morton3(x, y, z);
            assert_eq!(demorton3(code), (x, y, z), "({x},{y},{z})");
        }
    }

    #[test]
    fn roundtrip_many_random_codes() {
        let mut rng = nbody_core::testutil::XorShift64::new(7);
        for _ in 0..10_000 {
            let x = (rng.next_u64() as u32) & 0x1F_FFFF;
            let y = (rng.next_u64() as u32) & 0x1F_FFFF;
            let z = (rng.next_u64() as u32) & 0x1F_FFFF;
            assert_eq!(demorton3(morton3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn morton_orders_by_top_octant_first() {
        // the most significant interleaved bits are the root octant: all
        // codes of the low half of z sort before the high half
        let lo = morton3(0x1F_FFFF, 0x1F_FFFF, 0x0F_FFFF); // z high bit 0
        let hi = morton3(0, 0, 0x10_0000); // z high bit 1
        assert!(lo < hi);
    }

    #[test]
    fn quantization_clamps_and_scales() {
        let lo = Vec3::ZERO;
        let hi = Vec3::ONE;
        assert_eq!(quantize(Vec3::ZERO, lo, hi).0, 0);
        let (qx, _, _) = quantize(Vec3::ONE, lo, hi);
        assert_eq!(qx, (1 << BITS_PER_AXIS) - 1);
        // out-of-box clamps
        assert_eq!(quantize(Vec3::splat(-5.0), lo, hi), (0, 0, 0));
        // degenerate box is safe
        assert_eq!(quantize(Vec3::X, Vec3::ZERO, Vec3::ZERO), (0, 0, 0));
    }

    #[test]
    fn morton_order_is_a_permutation() {
        let set = random_set(500, 3);
        let order = morton_order(&set);
        let mut seen = vec![false; 500];
        for &i in &order {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn morton_order_groups_are_spatially_tight() {
        // chunks of the Morton order must be much tighter than random chunks
        let set = random_set(4096, 9);
        let order = morton_order(&set);
        let pos = set.pos();
        let chunk_extent = |ids: &[u32]| -> f64 {
            let mut lo = pos[ids[0] as usize];
            let mut hi = lo;
            for &i in ids {
                lo = lo.min(pos[i as usize]);
                hi = hi.max(pos[i as usize]);
            }
            (hi - lo).max_component()
        };
        let morton_avg: f64 =
            order.chunks(64).map(chunk_extent).sum::<f64>() / order.chunks(64).count() as f64;
        let naive: Vec<u32> = (0..4096).collect();
        let naive_avg: f64 =
            naive.chunks(64).map(chunk_extent).sum::<f64>() / naive.chunks(64).count() as f64;
        assert!(
            morton_avg < naive_avg * 0.5,
            "morton chunks {morton_avg} should be much tighter than naive {naive_avg}"
        );
    }

    #[test]
    fn empty_set_orders_trivially() {
        let set = ParticleSet::new();
        assert!(morton_order(&set).is_empty());
        let mut order = Vec::new();
        let mut scratch = par::arena::Scratch::new();
        morton_order_incremental(&set, &mut order, &mut scratch);
        assert!(order.is_empty());
    }

    #[test]
    fn incremental_matches_full_sort_from_cold_start() {
        let set = random_set(777, 21);
        let mut order = Vec::new();
        let mut scratch = par::arena::Scratch::new();
        morton_order_incremental(&set, &mut order, &mut scratch);
        assert_eq!(order, morton_order(&set));
    }

    #[test]
    fn incremental_matches_full_sort_after_drift() {
        let mut set = random_set(1000, 22);
        let mut order = Vec::new();
        let mut scratch = par::arena::Scratch::new();
        morton_order_incremental(&set, &mut order, &mut scratch);
        let mut rng = nbody_core::testutil::XorShift64::new(23);
        for _ in 0..5 {
            for p in set.pos_mut() {
                *p += rng.uniform_vec3(-1e-3, 1e-3);
            }
            morton_order_incremental(&set, &mut order, &mut scratch);
            assert_eq!(order, morton_order(&set), "incremental re-sort diverged from full sort");
        }
    }

    #[test]
    fn natural_merge_sorts_adversarial_inputs() {
        let mut rng = nbody_core::testutil::XorShift64::new(24);
        for n in [0_usize, 1, 2, 3, 17, 256, 1000] {
            // reverse-sorted (maximal run count) and random
            for reverse in [true, false] {
                let mut keys: Vec<(u64, u32)> = (0..n)
                    .map(|i| {
                        if reverse {
                            ((n - i) as u64, i as u32)
                        } else {
                            (rng.next_u64() % 64, i as u32) // many duplicate codes
                        }
                    })
                    .collect();
                let mut expected = keys.clone();
                expected.sort_unstable();
                let mut tmp = Vec::new();
                natural_merge_sort(&mut keys, &mut tmp);
                assert_eq!(keys, expected, "n={n} reverse={reverse}");
            }
        }
    }

    #[test]
    fn eligible_splits_skip_equal_key_runs() {
        // keys: [1,1,1,1, 2,2,2,2, 2,2,3,3] with walk_size 4:
        // boundary 1 (pos 4): 1 != 2 eligible; boundary 2 (pos 8): 2 == 2 not
        let keys = vec![1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3];
        assert_eq!(eligible_walk_splits(&keys, 4), vec![1]);
        // walk_size 2: boundaries at 2,4,6,8,10 → eligible at 4 (1|2), 10 (2|3)
        assert_eq!(eligible_walk_splits(&keys, 2), vec![2, 5]);
    }

    #[test]
    fn all_same_position_has_no_eligible_split() {
        let bodies: Vec<nbody_core::body::Body> =
            (0..64).map(|_| nbody_core::body::Body::at_rest(Vec3::ONE, 1.0)).collect();
        let set = ParticleSet::from_bodies(&bodies);
        let order: Vec<u32> = (0..64).collect();
        let keys = keys_in_order(&set, &order);
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "coincident points share a key");
        assert!(eligible_walk_splits(&keys, 8).is_empty());
    }

    #[test]
    fn keys_in_order_follow_the_permutation() {
        let set = random_set(128, 30);
        let order = morton_order(&set);
        let keys = keys_in_order(&set, &order);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "morton order sorts keys");
        // equal keys keep ascending body index: (key, index) pairs are sorted
        let pairs: Vec<(u64, u32)> = keys.iter().copied().zip(order.iter().copied()).collect();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "tie-break on body index");
        // empty set degenerates safely
        assert!(keys_in_order(&ParticleSet::new(), &[]).is_empty());
    }

    use nbody_core::body::ParticleSet;
}
