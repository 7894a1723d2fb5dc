//! Bit-exactness of the lane-vectorized force-eval phase.
//!
//! The sim plan kernels run their force-eval phase for a whole work-group
//! at once: the group's targets become f32 SIMD lanes over one sweep of the
//! LDS tile (`plans::common::force_eval_lanes`). These tests pin that the
//! lanes change nothing observable:
//!
//! * the lane helper equals an independent scalar chain written here, bit
//!   for bit, at every sweep width the host runs (the baseline build always,
//!   the AVX2 build when the CPU has it), including NaN from coincident
//!   bodies at `eps_sq = 0`, `-0.0` sums, tile lengths 0, 1 and ragged, and
//!   lane counts on and off the register-block width;
//! * a lane kernel and the same kernel run item by item leave identical
//!   memory, identical per-group costs and identical race reports, and
//!   inactive lanes keep their registers untouched;
//! * sim forces equal an independent f32 oracle written here, which replays
//!   each plan's slicing and reduction order with the scalar chain, for
//!   every plan, size, block and thread count in the matrix.
//!
//! The lanes only vectorize in optimized builds, so CI also runs this file
//! with `--release`.

use gpu_sim::exec::{execute_launch, ExecOutcome};
use gpu_sim::prelude::*;
use nbody_core::body::ParticleSet;
use nbody_core::gravity::GravityParams;
use plans::common::{
    force_eval_lanes, lanes_interact_tile_f32, sweep_lanes_avx2, sweep_lanes_baseline, ForceLane,
    LANE_BLOCK,
};
use plans::prelude::*;
use treecode::interaction_list::build_walks;
use treecode::mac::OpeningAngle;
use treecode::tree::{Octree, TreeParams};
use workloads::spec::WorkloadSpec;

/// The OpenCL kernel's per-item loop, written out independently of
/// `plans::common`: one sequential chain in tile order.
fn scalar_chain(xi: [f32; 3], tile: &[f32], eps_sq: f32, acc: [f32; 3]) -> [f32; 3] {
    let [mut ax, mut ay, mut az] = acc;
    for s in tile.chunks_exact(4) {
        let dx = s[0] - xi[0];
        let dy = s[1] - xi[1];
        let dz = s[2] - xi[2];
        let r2 = dx * dx + dy * dy + dz * dz + eps_sq;
        let inv_r = 1.0 / r2.sqrt();
        let inv_r3 = inv_r * inv_r * inv_r;
        let f = s[3] * inv_r3;
        ax += dx * f;
        ay += dy * f;
        az += dz * f;
    }
    [ax, ay, az]
}

/// Deterministic values in [-1, 1).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }
}

fn bits(v: [f32; 3]) -> [u32; 3] {
    v.map(f32::to_bits)
}

/// One build of the f32 tile sweep.
type Sweep = fn([&[f32]; 3], [&mut [f32]; 3], &[f32], f32);

fn avx2_sweep(xi: [&[f32]; 3], acc: [&mut [f32]; 3], tile: &[f32], eps_sq: f32) {
    assert!(sweep_lanes_avx2(xi, acc, tile, eps_sq), "AVX2 went missing");
}

/// Every sweep build this host runs: the inline lane helper, its baseline
/// out-of-line build, and the AVX2 build when the CPU has AVX2 (a skip is
/// printed otherwise).
fn sweeps() -> Vec<(&'static str, Sweep)> {
    let mut sweeps: Vec<(&'static str, Sweep)> =
        vec![("inline", lanes_interact_tile_f32), ("baseline", sweep_lanes_baseline)];
    if sweep_lanes_avx2([&[], &[], &[]], [&mut [], &mut [], &mut []], &[], 0.0) {
        sweeps.push(("avx2", avx2_sweep));
    } else {
        eprintln!("skipping the AVX2 sweep: the host CPU has no AVX2");
    }
    sweeps
}

/// Runs `sweep` over `targets` with starting accumulators `acc` and returns
/// the lanes' results.
fn run_lanes_with(
    sweep: Sweep,
    targets: &[[f32; 3]],
    acc: &[[f32; 3]],
    tile: &[f32],
    eps_sq: f32,
) -> Vec<[f32; 3]> {
    let axis = |v: &[[f32; 3]], a: usize| v.iter().map(|p| p[a]).collect::<Vec<_>>();
    let (xs, ys, zs) = (axis(targets, 0), axis(targets, 1), axis(targets, 2));
    let (mut ax, mut ay, mut az) = (axis(acc, 0), axis(acc, 1), axis(acc, 2));
    sweep([&xs, &ys, &zs], [&mut ax, &mut ay, &mut az], tile, eps_sq);
    (0..targets.len()).map(|k| [ax[k], ay[k], az[k]]).collect()
}

/// [`run_lanes_with`] the inline lane helper.
fn run_lanes(targets: &[[f32; 3]], acc: &[[f32; 3]], tile: &[f32], eps_sq: f32) -> Vec<[f32; 3]> {
    run_lanes_with(lanes_interact_tile_f32, targets, acc, tile, eps_sq)
}

/// Asserts every lane of every sweep build equals its scalar chain bit for
/// bit.
fn assert_lanes_match(targets: &[[f32; 3]], acc: &[[f32; 3]], tile: &[f32], eps_sq: f32) {
    for (width, sweep) in sweeps() {
        let lanes = run_lanes_with(sweep, targets, acc, tile, eps_sq);
        for (k, got) in lanes.iter().enumerate() {
            let want = scalar_chain(targets[k], tile, eps_sq, acc[k]);
            assert_eq!(
                bits(*got),
                bits(want),
                "{width}: lane {k} of {}, tile {} sources, eps_sq {eps_sq}: {got:?} vs {want:?}",
                targets.len(),
                tile.len() / 4
            );
        }
    }
}

#[test]
fn lane_helper_matches_scalar_chains_bitwise() {
    let mut rng = Lcg(11);
    let lane_counts = [0, 1, 2, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1, 31, 256, 259];
    for &lanes in &lane_counts {
        for &sources in &[0usize, 1, 5, 37, 256] {
            for &eps_sq in &[1e-4_f32, 0.0] {
                let targets: Vec<[f32; 3]> =
                    (0..lanes).map(|_| [rng.next(), rng.next(), rng.next()]).collect();
                let acc: Vec<[f32; 3]> =
                    (0..lanes).map(|_| [rng.next(), rng.next(), rng.next()]).collect();
                let tile: Vec<f32> = (0..4 * sources)
                    .map(|w| if w % 4 == 3 { rng.next().abs() } else { rng.next() })
                    .collect();
                assert_lanes_match(&targets, &acc, &tile, eps_sq);
            }
        }
    }
}

#[test]
fn coincident_bodies_at_zero_softening_give_the_same_nan() {
    // lane 3 sits exactly on the second source: r2 = 0, inv_r = inf and
    // dx * s = 0 * inf = NaN, which must propagate with the same bits
    let tile = [0.5, 0.25, -0.5, 2.0, 0.125, -0.75, 0.375, 1.5, -0.5, 0.5, 0.5, 1.0];
    let mut targets: Vec<[f32; 3]> =
        (0..2 * LANE_BLOCK + 3).map(|k| [k as f32 * 0.01, 0.3, -0.2]).collect();
    targets[3] = [0.125, -0.75, 0.375];
    let acc = vec![[0.0; 3]; targets.len()];
    let lanes = run_lanes(&targets, &acc, &tile, 0.0);
    assert!(lanes[3].iter().all(|v| v.is_nan()), "coincident lane must be NaN: {:?}", lanes[3]);
    assert!(lanes[4].iter().all(|v| v.is_finite()), "a NaN lane must not leak into its neighbour");
    assert_lanes_match(&targets, &acc, &tile, 0.0);
    // the one-lane form agrees too
    let one = run_lanes(&targets[3..4], &acc[3..4], &tile, 0.0);
    assert_eq!(bits(one[0]), bits(lanes[3]));
}

#[test]
fn negative_zero_sums_keep_their_sign() {
    // zero-mass sources add dx * 0, which is -0.0 where the source lies on
    // the lane's negative side: -0.0 + -0.0 stays -0.0, -0.0 + 0.0 is +0.0
    let behind = [-1.0_f32, -1.0, -1.0, 0.0];
    let ahead = [1.0_f32, 1.0, 1.0, 0.0];
    let targets: Vec<[f32; 3]> = (0..LANE_BLOCK + 2).map(|_| [0.0; 3]).collect();
    let acc = vec![[-0.0_f32; 3]; targets.len()];
    let lanes = run_lanes(&targets, &acc, &behind, 1e-4);
    assert!(lanes.iter().flatten().all(|v| v.to_bits() == (-0.0_f32).to_bits()));
    assert_lanes_match(&targets, &acc, &behind, 1e-4);
    let both = [behind, ahead].concat();
    let lanes = run_lanes(&targets, &acc, &both, 1e-4);
    assert!(lanes.iter().flatten().all(|v| v.to_bits() == 0.0_f32.to_bits()));
    assert_lanes_match(&targets, &acc, &both, 1e-4);
}

#[test]
fn one_lane_forms_are_the_scalar_chain() {
    let mut rng = Lcg(5);
    let tile: Vec<f32> = (0..4 * 19).map(|_| rng.next()).collect();
    let xi = [rng.next(), rng.next(), rng.next()];
    let start = [0.25, -0.0, 1.0];
    let a = run_lanes(&[xi], &[start], &tile, 1e-3)[0];
    assert_eq!(bits(a), bits(scalar_chain(xi, &tile, 1e-3, start)));
    // one source at a time continues the same chain
    let b = tile.chunks_exact(4).fold(start, |b, s| run_lanes(&[xi], &[b], s, 1e-3)[0]);
    assert_eq!(bits(b), bits(a));
}

// ---------------------------------------------------------------------------
// A tiled kernel run as lanes and item by item
// ---------------------------------------------------------------------------

/// Sentinel accumulator of inactive items: anything the force-eval phase
/// wrote to it would show.
const SENTINEL: [f32; 3] = [1.5, -0.0, -3.25];

/// One target per item, sources tiled through LDS, results written per
/// item. `lanes` picks the force-eval path; `racy` makes item 0 write LDS
/// word 0 inside the force-eval phase, which every other item reads.
struct TileKernel {
    targets: BufF32,
    sources: BufF32,
    out: BufF32,
    sources_len: usize,
    local: usize,
    eps_sq: f32,
    lanes: bool,
    racy: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Regs {
    xi: [f32; 3],
    acc: [f32; 3],
    active: bool,
}

impl ForceLane for Regs {
    fn lane(&mut self) -> Option<([f32; 3], &mut [f32; 3])> {
        self.active.then_some((self.xi, &mut self.acc))
    }
}

#[derive(Debug, Default)]
struct Cursor {
    at: usize,
}

impl TileKernel {
    fn tile_len(&self, cursor: usize) -> usize {
        self.local.min(self.sources_len - cursor)
    }
}

impl Kernel for TileKernel {
    type ItemRegs = Regs;
    type GroupRegs = Cursor;

    fn name(&self) -> &str {
        "lane-test"
    }

    fn lds_words(&self) -> usize {
        4 * self.local
    }

    fn phase(&self, phase: usize, ctx: &mut ItemCtx<'_>, regs: &mut Regs, group: &Cursor) {
        match phase {
            0 => {
                let v = ctx.read_f32_vec_coalesced::<4>(self.targets, 4 * ctx.global_id);
                regs.xi = [v[0], v[1], v[2]];
                // w component flags the item active
                regs.active = v[3] != 0.0;
                regs.acc = if regs.active { [0.0; 3] } else { SENTINEL };
            }
            1 => {
                if ctx.local_id < self.tile_len(group.at) {
                    let j = group.at + ctx.local_id;
                    let v = ctx.read_f32_vec_coalesced::<4>(self.sources, 4 * j);
                    ctx.lds_write_slice(4 * ctx.local_id, &v);
                }
            }
            2 => {
                if self.racy && ctx.local_id == 0 {
                    ctx.lds_write(0, 0.5);
                }
                let tile = self.tile_len(group.at);
                ctx.charge_flops((FLOPS_PER_INTERACTION * tile as u64) as f64);
                let lds = ctx.lds_read_slice(0, 4 * tile);
                if regs.active {
                    regs.acc = scalar_chain(regs.xi, lds, self.eps_sq, regs.acc);
                }
            }
            _ => {
                let [x, y, z] = regs.acc;
                ctx.write_f32_vec_coalesced::<4>(self.out, 4 * ctx.global_id, [x, y, z, 0.0]);
            }
        }
    }

    fn phase_group(
        &self,
        phase: usize,
        ctx: &mut GroupCtx<'_>,
        items: &mut [Regs],
        group: &Cursor,
    ) {
        if phase == 2 && self.lanes {
            if self.racy {
                ctx.item(0).lds_write(0, 0.5);
            }
            force_eval_lanes(ctx, items, self.tile_len(group.at), self.eps_sq);
        } else {
            ctx.for_each_item(items, |item, regs| self.phase(phase, item, regs, group));
        }
    }

    fn control(&self, phase: usize, group: &mut Cursor, _info: &GroupInfo) -> Control {
        match phase {
            0 | 1 => Control::Next,
            2 => {
                group.at += self.tile_len(group.at);
                if group.at < self.sources_len {
                    Control::Jump(1)
                } else {
                    Control::Next
                }
            }
            _ => Control::Done,
        }
    }
}

/// What one launch left behind: output bits, costs, races.
#[derive(Debug, PartialEq)]
struct Run {
    out: Vec<u32>,
    costs: Vec<GroupCost>,
    phases: Vec<u64>,
    races: Vec<String>,
}

fn launch(
    local: usize,
    groups: usize,
    sources_len: usize,
    lanes: bool,
    racy: bool,
    checked: bool,
) -> Run {
    let spec = DeviceSpec::radeon_hd_5850();
    let mut rng = Lcg((local * 1000 + sources_len) as u64);
    let items = local * groups;
    let mut pool = BufferPool::new();
    let targets = pool.alloc_f32(4 * items);
    let sources = pool.alloc_f32(4 * sources_len.max(1));
    let out = pool.alloc_f32(4 * items);
    for k in 0..items {
        // every third item is inactive; some actives sit on a source
        let active = if k % 3 == 2 { 0.0 } else { 1.0 };
        let p = [rng.next(), rng.next(), rng.next(), active];
        pool.f32_mut(targets)[4 * k..4 * k + 4].copy_from_slice(&p);
    }
    for j in 0..sources_len {
        let s = [rng.next(), rng.next(), rng.next(), rng.next().abs()];
        pool.f32_mut(sources)[4 * j..4 * j + 4].copy_from_slice(&s);
    }
    if sources_len > 0 && items > 0 {
        let on = pool.f32(sources)[..3].to_vec();
        pool.f32_mut(targets)[..3].copy_from_slice(&on);
    }
    let kernel =
        TileKernel { targets, sources, out, sources_len, local, eps_sq: 1e-4, lanes, racy };
    let grid = NdRange { global: items, local };
    let (outcome, races): (ExecOutcome, Vec<Race>) =
        execute_launch(&kernel, grid, &spec, &mut pool, checked, false);
    Run {
        out: pool.f32(out).iter().map(|v| v.to_bits()).collect(),
        costs: outcome.group_costs,
        phases: outcome.group_phases,
        races: races.iter().map(ToString::to_string).collect(),
    }
}

#[test]
fn lane_kernel_equals_item_kernel_in_memory_costs_and_races() {
    for &local in &[1usize, 7, 8, 64, 256] {
        for &sources_len in &[0usize, 1, 37, 300] {
            for &checked in &[false, true] {
                let items = launch(local, 3, sources_len, false, false, checked);
                let lanes = launch(local, 3, sources_len, true, false, checked);
                assert_eq!(lanes, items, "local {local}, {sources_len} sources, checked {checked}");
                assert!(lanes.races.is_empty());
                // inactive items kept their sentinel through every tile
                for k in (2..local * 3).step_by(3) {
                    let got = &lanes.out[4 * k..4 * k + 3];
                    assert_eq!(got, bits(SENTINEL), "inactive item {k} was written");
                }
            }
        }
    }
}

#[test]
fn lane_reads_are_race_tracked_like_item_reads() {
    for &local in &[2usize, 8, 64] {
        let items = launch(local, 2, 37, false, true, true);
        let lanes = launch(local, 2, 37, true, true, true);
        assert!(!items.races.is_empty(), "the racy kernel must be caught");
        assert_eq!(lanes, items, "local {local}: the race report must be the same");
    }
}

// ---------------------------------------------------------------------------
// Sim forces against an independent per-plan f32 oracle
// ---------------------------------------------------------------------------

/// Forces as exact bits, one `[x, y, z]` per body.
fn force_bits(outcome: &PlanOutcome) -> Vec<[u64; 3]> {
    outcome.acc.iter().map(|a| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()]).collect()
}

/// An f32 accumulator widened and scaled the way the device download is.
fn widen_bits(a: [f32; 3], g: f64) -> [u64; 3] {
    a.map(|v| (f64::from(v) * g).to_bits())
}

fn add3(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// Each plan's f32 reduction order replayed per target with
/// [`scalar_chain`] and the public geometry helpers only:
///
/// * i: one j-ascending pass over the padded buffer;
/// * j: per-slice partials, added in slice order;
/// * w: one pass over the walk's list per walk lane;
/// * jw: per-(walk, slice) partials, added in slot order.
fn oracle_bits(
    kind: PlanKind,
    set: &ParticleSet,
    config: &PlanConfig,
    params: &GravityParams,
) -> Vec<[u64; 3]> {
    let spec = DeviceSpec::radeon_hd_5850();
    let eps_sq = params.eps_sq() as f32;
    let n = set.len();
    let mut acc = vec![[0.0_f32; 3]; n];
    let target = |packed: &[f32], t: usize| [packed[4 * t], packed[4 * t + 1], packed[4 * t + 2]];
    if !kind.uses_tree() {
        let p = config.block_size;
        let n_padded = n.div_ceil(p).max(1) * p;
        let mut packed = set.pack_pos_mass_f32();
        packed.resize(4 * n_padded, 0.0);
        let slices = config.j_slices.unwrap_or_else(|| auto_j_slices(n_padded, p, &spec));
        let slice_len = n_padded.div_ceil(slices);
        for (i, a) in acc.iter_mut().enumerate() {
            let xi = target(&packed, i);
            *a = if kind == PlanKind::IParallel {
                scalar_chain(xi, &packed, eps_sq, [0.0; 3])
            } else {
                (0..slices).fold([0.0; 3], |sum, s| {
                    let start = (s * slice_len).min(n_padded);
                    let end = (start + slice_len).min(n_padded);
                    add3(sum, scalar_chain(xi, &packed[4 * start..4 * end], eps_sq, [0.0; 3]))
                })
            };
        }
    } else {
        let ws = config.walk_size;
        let tree = Octree::build(set, TreeParams { leaf_capacity: config.leaf_capacity });
        let walks = build_walks(&tree, set, OpeningAngle::new(config.theta), ws);
        let packed = pack_walks(&walks, &tree, set, ws);
        let pos_mass = set.pack_pos_mass_f32();
        let entries = |start: u32, len: u32| {
            &packed.list_data[4 * start as usize..4 * (start + len) as usize]
        };
        let total_entries = packed.list_data.len() / 4;
        let slice_len = config.jw_slice_len_for(total_entries, &spec);
        let (blocks, slot_ranges) = slice_walks(&packed.walk_desc, slice_len);
        for (w, &(start, len)) in packed.walk_desc.iter().enumerate() {
            for &t in packed.targets[w * ws..(w + 1) * ws].iter().filter(|&&t| t != NO_TARGET) {
                let xi = target(&pos_mass, t as usize);
                acc[t as usize] = if kind == PlanKind::WParallel {
                    scalar_chain(xi, entries(start, len), eps_sq, [0.0; 3])
                } else {
                    let (first, count) = slot_ranges[w];
                    blocks[first as usize..(first + count) as usize].iter().fold(
                        [0.0; 3],
                        |sum, b| {
                            add3(sum, scalar_chain(xi, entries(b.start, b.len), eps_sq, [0.0; 3]))
                        },
                    )
                };
            }
        }
    }
    acc.into_iter().map(|a| widen_bits(a, params.g)).collect()
}

// par::set_threads is process-global, so the whole matrix lives in one test.
#[test]
fn sim_forces_equal_the_f32_oracle_bitwise() {
    let params = GravityParams { g: 1.0, softening: 0.05 };
    for &n in &[1usize, 100, 257, 1000, 2048] {
        let mut set = WorkloadSpec::plummer(n, 17).generate();
        set.recenter();
        for &block in &[32usize, 64, 256] {
            let config = PlanConfig { block_size: block, walk_size: block, ..Default::default() };
            for kind in PlanKind::all() {
                let want = oracle_bits(kind, &set, &config, &params);
                for &threads in &[1usize, 2] {
                    par::set_threads(threads);
                    let sim = make_backend(BackendKind::Sim, config).evaluate(kind, &set, &params);
                    assert!(
                        force_bits(&sim) == want,
                        "{} N={n} block={block} threads={threads}: sim diverged from the oracle",
                        kind.id()
                    );
                }
            }
        }
    }
    par::set_threads(1);
}
