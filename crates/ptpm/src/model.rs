//! Analytic PTPM forecasts per execution plan.
//!
//! Given only the launch *shape* — how many blocks, how much arithmetic per
//! block — the model predicts kernel time and space utilization without
//! running anything. The paper uses this reasoning to argue jw-parallel's
//! superiority before measuring it; we implement the argument and test that
//! the forecast ranking matches the simulator's measured ranking (see the
//! workspace integration tests).
//!
//! The model deliberately ignores memory traffic: on interaction-bound
//! N-body kernels the ALU term dominates, and keeping one term makes the
//! closed forms legible. The simulator keeps the full cost model; the gap
//! between the two is itself reported by the harness.

use crate::grid::TimeSpaceGrid;
use gpu_sim::spec::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Flops the forecast charges per pairwise interaction (GRAPE convention,
/// matching the device kernels).
pub const FLOPS_PER_INTERACTION: f64 = 38.0;

/// An analytic forecast for one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forecast {
    /// Work-groups in the launch.
    pub blocks: usize,
    /// Total convention flops.
    pub total_flops: f64,
    /// Predicted kernel seconds.
    pub seconds: f64,
    /// Predicted space utilization in the time-space grid.
    pub space_utilization: f64,
    /// Predicted balance (min/max CU busy time).
    pub balance: f64,
}

impl Forecast {
    /// Predicted GFLOPS.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.total_flops / self.seconds / 1e9
    }
}

/// The time-space grid a launch of the given per-block flop counts is
/// forecast to occupy: blocks placed by the same greedy least-loaded
/// discipline the simulator's scheduler uses, with per-block cycles from the
/// ALU term alone. This *is* the forecast's internal geometry — exposed so
/// it can be diffed cell-by-cell against a grid observed from an execution
/// trace (see [`crate::observed`]).
pub fn forecast_grid(block_flops: &[f64], spec: &DeviceSpec) -> TimeSpaceGrid {
    let per_cu_rate = spec.charged_flops_per_cycle_per_cu;
    let cycles: Vec<f64> = block_flops.iter().map(|f| f / per_cu_rate).collect();
    TimeSpaceGrid::place(&cycles, spec.compute_units as usize)
}

/// Forecasts a launch from per-block flop counts: places blocks on the
/// time-space grid and converts the makespan to seconds.
pub fn forecast_blocks(block_flops: &[f64], spec: &DeviceSpec) -> Forecast {
    let grid = forecast_grid(block_flops, spec);
    let total_flops: f64 = block_flops.iter().sum();
    Forecast {
        blocks: block_flops.len(),
        total_flops,
        seconds: grid.makespan / spec.clock_hz,
        space_utilization: grid.space_utilization(),
        balance: grid.balance(),
    }
}

/// Per-block flop counts of an i-parallel launch: ⌈N/p⌉ equal blocks, each
/// evaluating `p × N_pad` interactions.
pub fn i_parallel_block_flops(n: usize, block_size: usize) -> Vec<f64> {
    let n_pad = n.div_ceil(block_size).max(1) * block_size;
    let blocks = n_pad / block_size;
    vec![(block_size * n_pad) as f64 * FLOPS_PER_INTERACTION; blocks]
}

/// i-parallel: ⌈N/p⌉ blocks, each evaluating `p × N_pad` interactions.
pub fn forecast_i_parallel(n: usize, block_size: usize, spec: &DeviceSpec) -> Forecast {
    forecast_blocks(&i_parallel_block_flops(n, block_size), spec)
}

/// Per-block flop counts of a j-parallel launch: ⌈N/p⌉ × S equal blocks.
///
/// # Panics
/// Panics if `slices == 0`.
pub fn j_parallel_block_flops(n: usize, block_size: usize, slices: usize) -> Vec<f64> {
    assert!(slices > 0, "slices must be positive");
    let n_pad = n.div_ceil(block_size).max(1) * block_size;
    let base = n_pad / block_size;
    let slice_len = n_pad.div_ceil(slices);
    vec![(block_size * slice_len) as f64 * FLOPS_PER_INTERACTION; base * slices]
}

/// j-parallel: ⌈N/p⌉ × S blocks, each evaluating `p × (N_pad / S)`
/// interactions, plus the (ALU-negligible) reduction.
pub fn forecast_j_parallel(
    n: usize,
    block_size: usize,
    slices: usize,
    spec: &DeviceSpec,
) -> Forecast {
    forecast_blocks(&j_parallel_block_flops(n, block_size, slices), spec)
}

/// Per-block flop counts of a w-parallel launch: one block per walk, cost
/// following the (ragged) list lengths.
pub fn w_parallel_block_flops(list_lens: &[usize], walk_size: usize) -> Vec<f64> {
    list_lens.iter().map(|&len| (walk_size * len) as f64 * FLOPS_PER_INTERACTION).collect()
}

/// w-parallel: one block per walk; block cost follows the (ragged) list
/// lengths.
pub fn forecast_w_parallel(list_lens: &[usize], walk_size: usize, spec: &DeviceSpec) -> Forecast {
    forecast_blocks(&w_parallel_block_flops(list_lens, walk_size), spec)
}

/// Per-block flop counts of a jw-parallel launch: every list cut into slices
/// of at most `slice_len` entries, one block per slice (empty walks still
/// get one block — they need their reduction slot zeroed).
///
/// # Panics
/// Panics if `slice_len == 0`.
pub fn jw_parallel_block_flops(
    list_lens: &[usize],
    walk_size: usize,
    slice_len: usize,
) -> Vec<f64> {
    assert!(slice_len > 0, "slice_len must be positive");
    let mut block_flops = Vec::new();
    for &len in list_lens {
        let mut remaining = len.max(1); // empty walks still occupy a block
        while remaining > 0 {
            let this = remaining.min(slice_len);
            block_flops.push((walk_size * this) as f64 * FLOPS_PER_INTERACTION);
            remaining -= this;
        }
    }
    block_flops
}

/// jw-parallel: lists sliced to at most `slice_len` entries; each slice is a
/// block of bounded cost.
pub fn forecast_jw_parallel(
    list_lens: &[usize],
    walk_size: usize,
    slice_len: usize,
    spec: &DeviceSpec,
) -> Forecast {
    forecast_blocks(&jw_parallel_block_flops(list_lens, walk_size, slice_len), spec)
}

// ---------------------------------------------------------------------------
// On-device tree pipeline (Morton keys → sort → level link → walk emit)
// ---------------------------------------------------------------------------
//
// The pipeline's kernels in `plans::tree_pipeline` charge their events from
// the constants below, and [`forecast_pipeline`] re-derives the same charges
// from a measured [`PipelineShape`] and feeds them through the *actual*
// simulator scheduler (`gpu_sim::sched::schedule_launch`) with uniform
// per-group costs. Forecast and measurement therefore share one cost
// vocabulary; the residual error is purely the per-group raggedness the
// uniform approximation ignores.

use gpu_sim::cost::GroupCost;
use gpu_sim::pcie::TransferModel;
use gpu_sim::sched::schedule_launch;

/// Levels of the geometric key / linked build (21 octant choices fit a
/// 63-bit key).
pub const PIPELINE_LEVELS: usize = 21;
/// LSD radix passes over the 64-bit keys (one byte per pass).
pub const SORT_PASSES: usize = 8;
/// Work-group size of the per-item pipeline kernels.
pub const PIPELINE_LOCAL: usize = 256;
/// Work-group size of the per-walk / per-range pipeline kernels.
pub const PIPELINE_GROUP_LOCAL: usize = 64;
/// LDS words the radix kernel stages (histogram + scan scratch).
pub const SORT_LDS_WORDS: usize = 512;
/// Flops per body per key level (octant compares + center update).
pub const KEY_FLOPS_PER_LEVEL: f64 = 8.0;
/// Flops per item per radix pass (digit extract + bucket bookkeeping).
pub const SORT_FLOPS_PER_ITEM: f64 = 4.0;
/// LDS words per item per radix pass (histogram traffic).
pub const SORT_LDS_PER_ITEM: f64 = 2.0;
/// Flops per key scanned by the level-link run detector.
pub const LINK_FLOPS_PER_KEY: f64 = 2.0;
/// Flops per body of the leaf canonicalization sort (~n log n amortized).
pub const LEAF_SORT_FLOPS_PER_BODY: f64 = 8.0;
/// Flops per body of the multipole gather (mass add + weighted position).
pub const MULTIPOLE_FLOPS_PER_BODY: f64 = 7.0;
/// Flops per node of the multipole combine (children sum + division).
pub const MULTIPOLE_FLOPS_PER_NODE: f64 = 24.0;
/// Flops per body of a walk bounding-box reduction.
pub const BBOX_FLOPS_PER_BODY: f64 = 6.0;
/// Flops per tree node visited by a walk traversal (MAC evaluation).
pub const SCAN_FLOPS_PER_VISIT: f64 = 12.0;
/// Flops per interaction-list entry packed by the emit kernel.
pub const EMIT_FLOPS_PER_ENTRY: f64 = 4.0;
/// Flops per body of the f64→f32 position/mass conversion.
pub const CONVERT_FLOPS_PER_BODY: f64 = 4.0;
/// `u32` words per node of the uploaded tree metadata
/// (start, count, leaf flag, 8 children).
pub const META_U32_PER_NODE: usize = 11;
/// `u64` words per node of the uploaded tree geometry
/// (center ×3, half, com ×3, mass — f64 bit patterns).
pub const GEOM_U64_PER_NODE: usize = 8;

/// Measured geometry of one on-device tree-pipeline run — everything the
/// forecast needs, nothing it could not know on a real device (counts come
/// from descriptor readbacks the pipeline performs anyway).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineShape {
    /// Bodies.
    pub n: usize,
    /// Per linked level: `(open ranges, keys scanned)`.
    pub levels: Vec<(usize, usize)>,
    /// Tree nodes built.
    pub nodes: usize,
    /// Leaf ranges canonicalized (leaves holding ≥ 2 bodies).
    pub leaf_ranges: usize,
    /// Bodies covered by those leaf ranges.
    pub leaf_bodies: usize,
    /// Walk groups of the global walk grid.
    pub walks: usize,
    /// Bodies per walk group (threads per emit/scan block).
    pub walk_size: usize,
    /// Interaction-list entries over all walks (cells + bodies).
    pub entries: usize,
    /// Direct-body entries among `entries`.
    pub body_entries: usize,
    /// Tree nodes visited across all walk traversals.
    pub visited: usize,
    /// True when the level build hit the key-depth floor and the tree came
    /// from the host fallback (keys/sort/link launches still ran; leaf-sort
    /// and multipole kernels did not).
    pub fallback_host_build: bool,
}

/// Forecast of one pipeline run, split the way the device clocks split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineForecast {
    /// Predicted seconds inside pipeline kernels.
    pub kernel_s: f64,
    /// Predicted seconds of pipeline transfers (uploads + descriptor
    /// readbacks).
    pub transfer_s: f64,
    /// Per-phase second breakdown, in pipeline order.
    pub phases: Vec<(String, f64)>,
}

impl PipelineForecast {
    /// Total predicted pipeline seconds (kernels + transfers).
    pub fn seconds(&self) -> f64 {
        self.kernel_s + self.transfer_s
    }
}

/// Times one launch of `groups` equal work-groups through the simulator's
/// scheduler — the uniform-cost core of the pipeline forecast.
fn uniform_launch_s(
    spec: &DeviceSpec,
    local: usize,
    lds_words: usize,
    groups: usize,
    per_group: GroupCost,
) -> f64 {
    if groups == 0 {
        return 0.0;
    }
    schedule_launch(spec, local, lds_words, &vec![per_group; groups], None).0.seconds
}

/// Forecasts the on-device tree pipeline from its measured shape: every
/// kernel's charges are re-derived from the shared constants and scheduled
/// exactly as the simulator schedules them (uniform per-group costs), and
/// every transfer is priced by the same PCIe model the device charges.
pub fn forecast_pipeline(
    shape: &PipelineShape,
    spec: &DeviceSpec,
    xfer: &TransferModel,
) -> PipelineForecast {
    let n = shape.n as f64;
    let cts = |bytes: f64| bytes / f64::from(spec.transaction_bytes);
    let mut phases: Vec<(String, f64)> = Vec::new();
    let mut kernel_s = 0.0;
    let mut transfer_s = 0.0;
    let mut kernel = |phases: &mut Vec<(String, f64)>, name: &str, s: f64| {
        phases.push((name.to_string(), s));
        kernel_s += s;
    };

    // Upload of f64 position/mass bit patterns (3n + n u64).
    let up = xfer.seconds(24 * shape.n) + xfer.seconds(8 * shape.n);
    phases.push(("upload-bits".into(), up));
    transfer_s += up;

    // Morton keys: per-item kernel over n items.
    let key_groups = shape.n.div_ceil(PIPELINE_LOCAL).max(1);
    let ipg = n / key_groups as f64;
    kernel(
        &mut phases,
        "morton-keys",
        uniform_launch_s(
            spec,
            PIPELINE_LOCAL,
            0,
            key_groups,
            GroupCost {
                flops: KEY_FLOPS_PER_LEVEL * PIPELINE_LEVELS as f64 * ipg,
                read_bytes: 24.0 * ipg,
                read_transactions: cts(24.0 * ipg),
                write_bytes: 12.0 * ipg,
                write_transactions: cts(12.0 * ipg),
                barriers: 1,
                ..Default::default()
            },
        ),
    );

    // Radix sort: SORT_PASSES identical launches.
    let pass_s = uniform_launch_s(
        spec,
        PIPELINE_LOCAL,
        SORT_LDS_WORDS,
        key_groups,
        GroupCost {
            flops: SORT_FLOPS_PER_ITEM * ipg,
            lds_accesses: SORT_LDS_PER_ITEM * ipg,
            read_bytes: 12.0 * ipg,
            read_transactions: cts(12.0 * ipg),
            write_bytes: 12.0 * ipg,
            write_transactions: 2.0 * cts(12.0 * ipg),
            barriers: 1,
            ..Default::default()
        },
    );
    kernel(&mut phases, "radix-sort", SORT_PASSES as f64 * pass_s);

    // Level linking: one launch per level, one group per open range, with a
    // per-level counts readback (each level's descriptors come back before
    // the next level launches).
    let mut link_s = 0.0;
    let mut desc_s = 0.0;
    for &(ranges, keys) in &shape.levels {
        let kpg = keys as f64 / ranges.max(1) as f64;
        link_s += uniform_launch_s(
            spec,
            PIPELINE_GROUP_LOCAL,
            0,
            ranges,
            GroupCost {
                flops: LINK_FLOPS_PER_KEY * kpg,
                read_bytes: 8.0 * kpg,
                read_transactions: cts(8.0 * kpg),
                write_bytes: 32.0,
                write_transactions: cts(32.0),
                barriers: 1,
                ..Default::default()
            },
        );
        desc_s += xfer.seconds(32 * ranges);
    }
    kernel(&mut phases, "level-link", link_s);
    phases.push(("desc-readback".into(), desc_s));
    transfer_s += desc_s;

    if !shape.fallback_host_build {
        // Leaf canonicalization.
        let bpg = shape.leaf_bodies as f64 / shape.leaf_ranges.max(1) as f64;
        kernel(
            &mut phases,
            "leaf-sort",
            uniform_launch_s(
                spec,
                PIPELINE_GROUP_LOCAL,
                0,
                shape.leaf_ranges,
                GroupCost {
                    flops: LEAF_SORT_FLOPS_PER_BODY * bpg,
                    read_bytes: 4.0 * bpg,
                    read_transactions: cts(4.0 * bpg),
                    write_bytes: 4.0 * bpg,
                    write_transactions: cts(4.0 * bpg),
                    barriers: 1,
                    ..Default::default()
                },
            ),
        );
        // Multipoles: per-item body gather plus amortized node combine.
        let nodes = shape.nodes as f64;
        let node_read = (META_U32_PER_NODE * 4) as f64 * nodes + 32.0 * (nodes - 1.0).max(0.0);
        kernel(
            &mut phases,
            "multipoles",
            uniform_launch_s(
                spec,
                PIPELINE_LOCAL,
                0,
                key_groups,
                GroupCost {
                    flops: (MULTIPOLE_FLOPS_PER_BODY * n + MULTIPOLE_FLOPS_PER_NODE * nodes)
                        / key_groups as f64,
                    read_bytes: (36.0 * n + node_read) / key_groups as f64,
                    read_transactions: (4.0 * n + n * cts(4.0) + cts(node_read))
                        / key_groups as f64,
                    write_bytes: 32.0 * nodes / key_groups as f64,
                    write_transactions: cts(32.0 * nodes) / key_groups as f64,
                    barriers: 1,
                    ..Default::default()
                },
            ),
        );
        // Tree meta/geometry round trip + permutation readback.
        let meta_up = xfer.seconds(META_U32_PER_NODE * 4 * shape.nodes)
            + xfer.seconds(GEOM_U64_PER_NODE * 8 * shape.nodes);
        let geom_down = xfer.seconds(GEOM_U64_PER_NODE * 8 * shape.nodes);
        let idx_down = xfer.seconds(4 * shape.n);
        phases.push(("tree-roundtrip".into(), meta_up + geom_down + idx_down));
        transfer_s += meta_up + geom_down + idx_down;
    } else {
        // Host fallback: the permutation is uploaded instead of downloaded.
        let idx_up = xfer.seconds(4 * shape.n);
        phases.push(("fallback-idx-upload".into(), idx_up));
        transfer_s += idx_up;
    }

    // f64 → f32 conversion.
    kernel(
        &mut phases,
        "convert-f32",
        uniform_launch_s(
            spec,
            PIPELINE_LOCAL,
            0,
            key_groups,
            GroupCost {
                flops: CONVERT_FLOPS_PER_BODY * ipg,
                read_bytes: 32.0 * ipg,
                read_transactions: cts(32.0 * ipg),
                write_bytes: 16.0 * ipg,
                write_transactions: cts(16.0 * ipg),
                barriers: 1,
                ..Default::default()
            },
        ),
    );

    // Walk scan + emit: one group per walk each; the emit kernel re-traverses
    // and additionally gathers/writes the packed entries.
    let walks = shape.walks.max(1) as f64;
    let cpw = n / walks;
    let vpw = shape.visited as f64 / walks;
    let bepw = shape.body_entries as f64 / walks;
    let cepw = (shape.entries - shape.body_entries) as f64 / walks;
    let epw = shape.entries as f64 / walks;
    kernel(
        &mut phases,
        "walk-scan",
        uniform_launch_s(
            spec,
            PIPELINE_GROUP_LOCAL,
            0,
            shape.walks,
            GroupCost {
                flops: BBOX_FLOPS_PER_BODY * cpw + SCAN_FLOPS_PER_VISIT * vpw,
                read_bytes: 24.0 * cpw + 48.0 * vpw + 4.0 * bepw,
                read_transactions: 3.0 * cpw + 2.0 * vpw + cts(4.0 * bepw),
                write_bytes: 12.0,
                write_transactions: cts(12.0),
                barriers: 1,
                ..Default::default()
            },
        ),
    );
    let lens_down = xfer.seconds(12 * shape.walks.max(1));
    phases.push(("lens-readback".into(), lens_down));
    transfer_s += lens_down;
    let ws = shape.walk_size as f64;
    kernel(
        &mut phases,
        "walk-emit",
        uniform_launch_s(
            spec,
            PIPELINE_GROUP_LOCAL,
            0,
            shape.walks,
            GroupCost {
                flops: BBOX_FLOPS_PER_BODY * cpw
                    + SCAN_FLOPS_PER_VISIT * vpw
                    + EMIT_FLOPS_PER_ENTRY * epw,
                read_bytes: 24.0 * cpw + 48.0 * vpw + 4.0 * bepw + 32.0 * bepw + 32.0 * cepw,
                read_transactions: 3.0 * cpw
                    + 2.0 * vpw
                    + cts(4.0 * bepw)
                    + 4.0 * bepw
                    + 2.0 * cepw,
                write_bytes: 16.0 * epw + 4.0 * ws,
                write_transactions: cts(16.0 * epw) + cts(4.0 * ws),
                barriers: 1,
                ..Default::default()
            },
        ),
    );

    PipelineForecast { kernel_s, transfer_s, phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::radeon_hd_5850()
    }

    #[test]
    fn i_parallel_small_n_starves_space() {
        let f = forecast_i_parallel(1024, 256, &spec());
        assert_eq!(f.blocks, 4);
        assert!(f.space_utilization < 0.25);
    }

    #[test]
    fn i_parallel_large_n_fills_space() {
        let f = forecast_i_parallel(65536, 256, &spec());
        assert_eq!(f.blocks, 256);
        assert!(f.space_utilization > 0.9);
    }

    #[test]
    fn j_parallel_beats_i_parallel_at_small_n() {
        let i = forecast_i_parallel(1024, 256, &spec());
        let j = forecast_j_parallel(1024, 256, 54, &spec());
        assert!(j.seconds < i.seconds, "j {} vs i {}", j.seconds, i.seconds);
        assert!(j.space_utilization > i.space_utilization);
    }

    #[test]
    fn j_parallel_with_one_slice_is_i_parallel() {
        let i = forecast_i_parallel(8192, 256, &spec());
        let j = forecast_j_parallel(8192, 256, 1, &spec());
        assert_eq!(i.blocks, j.blocks);
        assert!((i.seconds - j.seconds).abs() < 1e-12);
    }

    #[test]
    fn jw_fixes_w_imbalance() {
        // one monster walk among small ones
        let lists = [5000_usize, 100, 100, 100, 100, 100, 100, 100];
        let w = forecast_w_parallel(&lists, 64, &spec());
        let jw = forecast_jw_parallel(&lists, 64, 256, &spec());
        assert!(jw.seconds < w.seconds, "jw {} vs w {}", jw.seconds, w.seconds);
        assert!(jw.balance > w.balance);
        assert!(jw.blocks > w.blocks);
    }

    #[test]
    fn jw_multiplies_blocks_at_small_walk_counts() {
        let lists = vec![1000_usize; 8];
        let w = forecast_w_parallel(&lists, 64, &spec());
        let jw = forecast_jw_parallel(&lists, 64, 128, &spec());
        assert_eq!(w.blocks, 8);
        assert_eq!(jw.blocks, 8 * 8); // ceil(1000/128) = 8 slices each
        assert!(jw.space_utilization > w.space_utilization);
    }

    #[test]
    fn forecast_flops_conserved_by_slicing() {
        let lists = [777_usize, 123, 456];
        let w = forecast_w_parallel(&lists, 64, &spec());
        let jw = forecast_jw_parallel(&lists, 64, 100, &spec());
        assert!((w.total_flops - jw.total_flops).abs() < 1e-6);
    }

    #[test]
    fn gflops_bounded_by_calibrated_peak() {
        let f = forecast_i_parallel(65536, 256, &spec());
        assert!(f.gflops() <= spec().peak_charged_gflops() * 1.0001);
        assert!(f.gflops() > 0.5 * spec().peak_charged_gflops());
    }

    #[test]
    fn empty_walk_list_forecast_is_zero_time() {
        let f = forecast_w_parallel(&[], 64, &spec());
        assert_eq!(f.blocks, 0);
        assert_eq!(f.seconds, 0.0);
        assert_eq!(f.gflops(), 0.0);
    }

    #[test]
    #[should_panic(expected = "slices must be positive")]
    fn zero_slices_rejected() {
        forecast_j_parallel(1024, 256, 0, &spec());
    }
}
