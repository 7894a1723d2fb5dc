//! Zero-allocation steady-state gate.
//!
//! This binary installs [`par::arena::CountingAlloc`] as the global
//! allocator and asserts that, after a warmup step has populated the SoA
//! buffers, scratch arenas, and pooled tree storage, the serial hot paths
//! perform **zero** heap allocations per step:
//!
//! * the leapfrog integrator stepping the direct-PP oracle engine,
//! * the SoA refill plus tiled PP sweep that the host backend's PP plans
//!   run, into a caller-owned buffer,
//! * the in-place octree rebuild,
//! * interaction-list generation plus CPU walk evaluation,
//! * the walk lane kernel that the host backend's tree plans run,
//! * the incremental Morton re-sort.
//!
//! Zero allocation is a *serial* invariant (`par` pinned to one thread):
//! the parallel paths spawn scoped workers with per-chunk buffers by
//! design. The file holds exactly one `#[test]` so no concurrent test can
//! pollute the process-wide allocation counter.

#[global_allocator]
static ALLOC: par::arena::CountingAlloc = par::arena::CountingAlloc;

use nbody_core::prelude::*;
use treecode::prelude::*;

/// Runs `step` once more after `warmup` iterations and returns the
/// allocation events that single steady-state step performed.
fn allocs_of_step<F: FnMut()>(warmup: usize, mut step: F) -> u64 {
    for _ in 0..warmup {
        step();
    }
    par::arena::reset_alloc_count();
    step();
    par::arena::alloc_count()
}

#[test]
fn steady_state_steps_perform_zero_heap_allocations() {
    assert!(par::arena::counting_active(), "counting allocator must be installed");
    par::set_threads(1);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let n = 512;

    // --- PP path: a full leapfrog step on the direct-PP oracle engine ---
    let mut set = nbody_core::testutil::random_set(n, 21);
    let mut engine = DirectPp::new(params);
    prime(&mut set, &mut engine);
    let pp = allocs_of_step(3, || LeapfrogKdk.step(&mut set, &mut engine, 1e-4));
    assert_eq!(pp, 0, "direct-PP integrator step allocated {pp} times");

    // --- the host backend's PP core: refill warm SoA lanes, tiled sweep ---
    let mut soa = SoaBodies::new();
    let mut acc = vec![Vec3::ZERO; set.len()];
    let tiled = allocs_of_step(2, || {
        soa.fill_from(&set);
        accelerations_pp_tiled_with(soa.view(), &params, 64, &mut acc);
    });
    assert_eq!(tiled, 0, "SoA refill + tiled PP allocated {tiled} times");

    // --- treecode: rebuild in place into a warm tree ---
    let mut tree = Octree::build(&set, TreeParams::default());
    let mut scratch = par::arena::Scratch::new();
    let rebuild = allocs_of_step(2, || tree.rebuild(&set, &mut scratch));
    assert_eq!(rebuild, 0, "octree rebuild allocated {rebuild} times");

    // --- interaction lists: capacity-reusing walk build + CPU evaluation ---
    let theta = OpeningAngle::new(0.5);
    let mut walks = build_walks(&tree, &set, theta, 64);
    let walk = allocs_of_step(2, || {
        build_walks_into(&mut walks, &tree, &set, theta, 64, &mut scratch);
        evaluate_walks_cpu(&walks, &tree, &set, &params, &mut acc);
    });
    assert_eq!(walk, 0, "walk build + evaluation allocated {walk} times");

    // --- walk lane kernel (the host tree force): lanes, accumulators and
    // the membership index live on the stack, never in per-group Vecs ---
    let lanes = allocs_of_step(2, || {
        for group in &walks.groups {
            evaluate_walk_lanes(group, &tree, &set, &params, |i, a| acc[i as usize] = a);
        }
    });
    assert_eq!(lanes, 0, "walk lane kernel allocated {lanes} times");

    // --- Morton path: incremental re-sort of a perturbed previous order ---
    let mut order = morton_order(&set);
    let mut i = 0usize;
    let morton = allocs_of_step(3, || {
        // in-place perturbation: forces real merge passes, not just the
        // sortedness verification scan
        let len = order.len();
        order.swap(i % len, (i * 7 + 13) % len);
        i += 1;
        morton_order_incremental(&set, &mut order, &mut scratch);
    });
    assert_eq!(morton, 0, "incremental Morton re-sort allocated {morton} times");

    // sanity: the counter is actually live in this binary
    let probe = vec![0u8; 1];
    std::hint::black_box(&probe);
    assert!(par::arena::alloc_count() > 0);
}
