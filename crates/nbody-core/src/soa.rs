//! Packed SoA views and the cache-blocked tiled PP kernel.
//!
//! [`ParticleSet`] already stores components in parallel vectors, but its
//! positions are `Vec<Vec3>` — an array of 24-byte structs. The O(N²) force
//! loop wants *flat* `f64` lanes (`xs/ys/zs/ms`) so the compiler can keep
//! one SIMD stream per component, exactly like the float4 buffers the
//! paper's kernels stage through GPU local memory. [`SoaBodies`] is that
//! packed copy, derived once per step and reused across steps without
//! reallocating.
//!
//! ## Tiling and the bit-exactness contract
//!
//! [`pp_rows_tiled`] processes a block of `tile` consecutive rows (the
//! *i*-tile) against the full body list, sweeping `j` in ascending order and
//! accumulating into one scalar chain per row — the same `j`-ascending
//! summation order as [`crate::gravity::accelerations_pp`], with the same
//! per-interaction expression tree. IEEE-754 ops are deterministic and Rust
//! never contracts `a*b + c` into an FMA on its own, so the tiled kernel is
//! **bit-identical** to the scalar reference for every tile size and thread
//! count; tiles change only the order rows are *visited*, never the order
//! any row's contributions are *summed* (see DESIGN.md §9). The payoff is
//! that the inner loop runs across the rows of the tile — independent
//! accumulator lanes — so the sqrt/div pipeline vectorizes while each row's
//! chain stays sequential.
//!
//! The tile size is a pure performance knob passed in by the caller; the
//! host backend (`plans::backend::HostBackend`) takes it from its plan
//! config's `block_size`.

use crate::body::ParticleSet;
use crate::gravity::GravityParams;
use crate::vec3::Vec3;
use std::ops::Range;

/// Largest permitted tile (bounds the stack accumulators of the kernel).
pub const MAX_TILE: usize = 512;

/// Packed struct-of-arrays body storage: flat `x/y/z/mass` lanes.
///
/// Owns its buffers; [`SoaBodies::fill_from`] repacks a [`ParticleSet`]
/// reusing capacity, so after the first call a steady-state refill performs
/// no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SoaBodies {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    ms: Vec<f64>,
}

impl SoaBodies {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Repacks `set` into the flat lanes, reusing existing capacity.
    pub fn fill_from(&mut self, set: &ParticleSet) {
        let pos = set.pos();
        self.xs.clear();
        self.xs.extend(pos.iter().map(|p| p.x));
        self.ys.clear();
        self.ys.extend(pos.iter().map(|p| p.y));
        self.zs.clear();
        self.zs.extend(pos.iter().map(|p| p.z));
        self.ms.clear();
        self.ms.extend_from_slice(set.mass());
    }

    /// Number of packed bodies.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if no bodies are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Borrowed view of the lanes.
    #[inline]
    pub fn view(&self) -> SoaView<'_> {
        SoaView { xs: &self.xs, ys: &self.ys, zs: &self.zs, ms: &self.ms }
    }
}

/// Borrowed SoA view: one flat slice per component, all the same length.
#[derive(Debug, Clone, Copy)]
pub struct SoaView<'a> {
    /// x positions.
    pub xs: &'a [f64],
    /// y positions.
    pub ys: &'a [f64],
    /// z positions.
    pub zs: &'a [f64],
    /// masses.
    pub ms: &'a [f64],
}

impl<'a> SoaView<'a> {
    /// Builds a view from component slices.
    ///
    /// # Panics
    /// Panics if the slices disagree in length.
    #[inline]
    pub fn new(xs: &'a [f64], ys: &'a [f64], zs: &'a [f64], ms: &'a [f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "SoA lane length mismatch");
        assert_eq!(xs.len(), zs.len(), "SoA lane length mismatch");
        assert_eq!(xs.len(), ms.len(), "SoA lane length mismatch");
        Self { xs, ys, zs, ms }
    }

    /// Number of bodies in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Accumulates the contributions of sources `0..n` (skipping `j == i`) onto
/// the rows `row0..row0 + rb`, in ascending-`j` order per row.
///
/// The inner loop runs over the rows of the tile — independent accumulator
/// lanes, so it vectorizes — while each row keeps one sequential summation
/// chain across the whole `j` sweep, which is what makes the result
/// bit-identical to the scalar reference. The `i == j` self-interaction is
/// excluded by [`lanes_accumulate_except`], which leaves that row's
/// accumulator as it is (at zero softening the self-pair is a NaN; it is
/// never merged).
///
/// `inline(never)`: inlined into the caller's tile loop LLVM stops
/// auto-vectorizing the lane sweeps (verified on the emitted asm — scalar
/// `sqrtsd` only); as a standalone function the pure ranges compile to
/// packed `sqrtpd`/`divpd`. One call per tile block is noise next to the
/// `rb * n` interactions inside.
#[inline(never)]
fn pp_tile_block(
    view: SoaView<'_>,
    row0: usize,
    eps_sq: f64,
    axs: &mut [f64],
    ays: &mut [f64],
    azs: &mut [f64],
) {
    let rb = axs.len();
    let n = view.len();
    let xs = &view.xs[..n];
    let ys = &view.ys[..n];
    let zs = &view.zs[..n];
    let ms = &view.ms[..n];
    let ix = &xs[row0..row0 + rb];
    let iy = &ys[row0..row0 + rb];
    let iz = &zs[row0..row0 + rb];
    // The j sweep splits at the diagonal: sources j ∈ [row0, row0+rb) are
    // the only ones that can coincide with a tile row, so only that narrow
    // middle range skips a self lane. Every lane loop is branch-free and
    // vectorizes (sqrt/div across independent rows). Each row still
    // accumulates its sources in one strictly j-ascending chain across all
    // three ranges — the order that makes the result bit-identical to the
    // scalar kernel.
    let mid0 = row0.min(n);
    let mid1 = (row0 + rb).min(n);
    for j in 0..mid0 {
        lanes_accumulate(ix, iy, iz, axs, ays, azs, [xs[j], ys[j], zs[j], ms[j]], eps_sq);
    }
    for j in mid0..mid1 {
        lanes_accumulate_except(
            ix,
            iy,
            iz,
            axs,
            ays,
            azs,
            [xs[j], ys[j], zs[j], ms[j]],
            eps_sq,
            j - row0,
        );
    }
    for j in mid1..n {
        lanes_accumulate(ix, iy, iz, axs, ays, azs, [xs[j], ys[j], zs[j], ms[j]], eps_sq);
    }
}

/// One branch-free sweep of source `src = [x, y, z, m]` over a block of
/// target lanes: `ix/iy/iz` are the lane positions and `axs/ays/azs` their
/// accumulators (the block length is `axs.len()`). Every index is provably
/// in bounds and there is no select, so the loop auto-vectorizes. Callers
/// guarantee the source is none of the lanes' own body, else they use
/// [`lanes_accumulate_except`].
///
/// This is the one copy of the f64 lane arithmetic, shared by the tiled PP
/// kernel and the treecode walk lane kernel. Called once per source in the
/// reference's source order, it keeps one sequential summation chain per
/// lane with the expression tree of [`crate::gravity::pair_acceleration`],
/// which is what makes both kernels bit-identical to their scalar
/// references.
///
/// It compiles at the baseline width only (SSE2 `sqrtpd`/`divpd`), with no
/// AVX2 build picked at run time as the f32 device sweep has: the loop is
/// bound by the f64 divider, not by register width. An AVX2 build took 256
/// lanes from 0.44 to 0.48 G interactions/s on a 2-vCPU Xeon, and
/// `perfbench` `host-tier` `jobs_per_s` stayed flat over three pairs
/// (0.797/0.805, 0.934/0.770, 0.806/0.808 baseline/AVX2).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lanes_accumulate(
    ix: &[f64],
    iy: &[f64],
    iz: &[f64],
    axs: &mut [f64],
    ays: &mut [f64],
    azs: &mut [f64],
    src: [f64; 4],
    eps_sq: f64,
) {
    let rb = axs.len();
    let ix = &ix[..rb];
    let iy = &iy[..rb];
    let iz = &iz[..rb];
    let ays = &mut ays[..rb];
    let azs = &mut azs[..rb];
    let [xj, yj, zj, mj] = src;
    for k in 0..rb {
        // identical expression tree to gravity::pair_acceleration
        let dx = xj - ix[k];
        let dy = yj - iy[k];
        let dz = zj - iz[k];
        let r2 = ((dx * dx + dy * dy) + dz * dz) + eps_sq;
        let inv_r = 1.0 / r2.sqrt();
        let inv_r3 = (inv_r * inv_r) * inv_r;
        let s = mj * inv_r3;
        axs[k] += dx * s;
        ays[k] += dy * s;
        azs[k] += dz * s;
    }
}

/// [`lanes_accumulate`] for a source that is lane `skip`'s own body. The
/// self-pair is excluded by a select on the accumulator: lane `skip` keeps
/// its value, taken as the two branch-free lane ranges either side of it,
/// so both still vectorize. It is never a masked `0.0` added in: `-0.0 +
/// 0.0` would flip the sign, and at `eps = 0` the self-pair is a NaN that
/// must never reach the sum.
///
/// # Panics
/// Panics if `skip >= axs.len()`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn lanes_accumulate_except(
    ix: &[f64],
    iy: &[f64],
    iz: &[f64],
    axs: &mut [f64],
    ays: &mut [f64],
    azs: &mut [f64],
    src: [f64; 4],
    eps_sq: f64,
    skip: usize,
) {
    let (axs_lo, axs_hi) = axs.split_at_mut(skip);
    let (ays_lo, ays_hi) = ays.split_at_mut(skip);
    let (azs_lo, azs_hi) = azs.split_at_mut(skip);
    lanes_accumulate(ix, iy, iz, axs_lo, ays_lo, azs_lo, src, eps_sq);
    let hi = skip + 1;
    lanes_accumulate(
        &ix[hi..],
        &iy[hi..],
        &iz[hi..],
        &mut axs_hi[1..],
        &mut ays_hi[1..],
        &mut azs_hi[1..],
        src,
        eps_sq,
    );
}

/// Fills `out` with the accelerations of rows `rows` using `tile`-row
/// blocks. Bit-identical to [`crate::gravity::accelerations_pp`] restricted
/// to those rows, for any tile size.
///
/// # Panics
/// Panics if `out.len() != rows.len()`, if `rows` exceeds the view, or if
/// `tile` is 0 or above [`MAX_TILE`].
pub fn pp_rows_tiled(
    view: SoaView<'_>,
    rows: Range<usize>,
    params: &GravityParams,
    tile: usize,
    out: &mut [Vec3],
) {
    assert_eq!(out.len(), rows.len(), "output buffer length mismatch");
    assert!(rows.end <= view.len(), "row range exceeds view");
    assert!((1..=MAX_TILE).contains(&tile), "tile size must be in 1..={MAX_TILE}, got {tile}");
    let eps_sq = params.eps_sq();
    let g = params.g;
    let mut axs = [0.0_f64; MAX_TILE];
    let mut ays = [0.0_f64; MAX_TILE];
    let mut azs = [0.0_f64; MAX_TILE];
    let mut row = rows.start;
    let mut written = 0;
    while row < rows.end {
        let rb = tile.min(rows.end - row);
        axs[..rb].fill(0.0);
        ays[..rb].fill(0.0);
        azs[..rb].fill(0.0);
        pp_tile_block(view, row, eps_sq, &mut axs[..rb], &mut ays[..rb], &mut azs[..rb]);
        for k in 0..rb {
            out[written + k] = Vec3::new(axs[k] * g, ays[k] * g, azs[k] * g);
        }
        row += rb;
        written += rb;
    }
}

/// Tiled PP over all rows with an explicit tile size.
pub fn accelerations_pp_tiled_with(
    view: SoaView<'_>,
    params: &GravityParams,
    tile: usize,
    acc: &mut [Vec3],
) {
    assert_eq!(acc.len(), view.len(), "acceleration buffer length mismatch");
    pp_rows_tiled(view, 0..view.len(), params, tile, acc);
}

/// Multithreaded tiled PP: the rows are cut into `threads` fixed row
/// blocks (`par::chunk_ranges`) and the blocks run as `par` tasks.
/// Per-row summation order is unchanged, so results are bit-identical to
/// the serial tiled kernel — and hence to the scalar reference — at any
/// block count and any `par` thread count.
pub fn accelerations_pp_tiled_parallel(
    view: SoaView<'_>,
    params: &GravityParams,
    tile: usize,
    threads: usize,
    acc: &mut [Vec3],
) {
    assert_eq!(acc.len(), view.len(), "acceleration buffer length mismatch");
    let n = view.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < 64 {
        pp_rows_tiled(view, 0..n, params, tile, acc);
        return;
    }
    let mut blocks = Vec::with_capacity(threads);
    let mut rest = acc;
    for range in par::chunk_ranges(n, threads) {
        let (rows, tail) = rest.split_at_mut(range.len());
        rest = tail;
        blocks.push(move || pp_rows_tiled(view, range, params, tile, rows));
    }
    par::run_tasks(blocks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::accelerations_pp;
    use crate::testutil::random_set;

    #[test]
    fn fill_from_packs_lanes() {
        let set = random_set(17, 1);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        assert_eq!(soa.len(), 17);
        let v = soa.view();
        for i in 0..set.len() {
            assert_eq!(v.xs[i], set.pos()[i].x);
            assert_eq!(v.ys[i], set.pos()[i].y);
            assert_eq!(v.zs[i], set.pos()[i].z);
            assert_eq!(v.ms[i], set.mass()[i]);
        }
    }

    #[test]
    fn refill_reuses_capacity() {
        let set = random_set(100, 2);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let cap = soa.xs.capacity();
        soa.fill_from(&set);
        assert_eq!(soa.xs.capacity(), cap);
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_tile_sizes() {
        let set = random_set(130, 3);
        let params = GravityParams::default();
        let mut reference = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut reference);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        for t in [1, 2, 7, 64, 130, MAX_TILE] {
            let mut acc = vec![Vec3::ZERO; set.len()];
            accelerations_pp_tiled_with(soa.view(), &params, t, &mut acc);
            assert_eq!(acc, reference, "tile {t} diverged from scalar reference");
        }
    }

    #[test]
    fn tiled_exact_at_zero_softening() {
        // the self-interaction lane computes NaN at eps = 0; the select must
        // discard it
        let set = random_set(33, 4);
        let params = GravityParams { g: 1.0, softening: 0.0 };
        let mut reference = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut reference);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let mut acc = vec![Vec3::ZERO; set.len()];
        accelerations_pp_tiled_with(soa.view(), &params, 8, &mut acc);
        assert_eq!(acc, reference);
        assert!(acc.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn parallel_tiled_matches_serial_bitwise() {
        let set = random_set(257, 5);
        let params = GravityParams::default();
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let mut serial = vec![Vec3::ZERO; set.len()];
        accelerations_pp_tiled_with(soa.view(), &params, 64, &mut serial);
        for threads in [2, 3, 8] {
            let mut acc = vec![Vec3::ZERO; set.len()];
            accelerations_pp_tiled_parallel(soa.view(), &params, 64, threads, &mut acc);
            assert_eq!(acc, serial, "threads {threads} diverged");
        }
    }

    #[test]
    fn empty_and_single_body() {
        let params = GravityParams::default();
        let empty = SoaBodies::new();
        let mut none: Vec<Vec3> = Vec::new();
        accelerations_pp_tiled_with(empty.view(), &params, 8, &mut none);
        let one = random_set(1, 7);
        let mut soa = SoaBodies::new();
        soa.fill_from(&one);
        let mut acc = vec![Vec3::ONE; 1];
        accelerations_pp_tiled_with(soa.view(), &params, 8, &mut acc);
        assert_eq!(acc[0], Vec3::ZERO, "lone body feels no force");
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_rejected() {
        let set = random_set(4, 8);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        let mut acc = vec![Vec3::ZERO; set.len()];
        pp_rows_tiled(soa.view(), 0..set.len(), &GravityParams::default(), 0, &mut acc);
    }
}
