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
//! It also gates the JSON layer that writes and reads cache entries: the
//! writer and reader stream, so a `JobResult` at N = 4096 costs only the
//! output string's and the particle vectors' doublings more than one at
//! N = 256, never an allocation per body.
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

    // --- JSON cache entries: no per-body allocation either way ---
    let json_allocs = |n: usize| {
        let set = nbody_core::testutil::random_set(n, 5);
        let spec = jobs::spec::JobSpec::new(
            workloads::spec::WorkloadSpec::plummer(n, 5),
            plans::prelude::PlanKind::JwParallel,
            4,
        );
        let final_snapshot = workloads::snapshot::Snapshot::new(spec.label(), 0.5, set);
        let result = jobs::cache::JobResult {
            hash_hex: spec.hash_hex(),
            result_checksum: final_snapshot.checksum.unwrap(),
            spec,
            final_snapshot,
            steps: 4,
            simulated_total_s: 0.25,
            simulated_kernel_s: 0.125,
            recovery_s: 0.0,
            fault_total: 0,
            resumed_from: 0,
            retries: 0,
        };
        let mut text = String::new();
        let encode = allocs_of_step(0, || text = serde_json::to_string(&result).unwrap());
        let mut back = None;
        let decode = allocs_of_step(0, || {
            back = Some(serde_json::from_str::<jobs::cache::JobResult>(&text).unwrap())
        });
        assert_eq!(back.as_ref(), Some(&result), "N = {n}: the entry round-trips");
        (encode, decode)
    };
    let (encode_small, decode_small) = json_allocs(256);
    let (encode_large, decode_large) = json_allocs(4096);
    // 16x the bodies: the output string doubles about four more times
    assert!(
        encode_large <= encode_small + 6,
        "encoding N = 4096 allocated {encode_large} times, N = 256 {encode_small}"
    );
    // ... and each of the four particle vectors doubles four more times
    assert!(
        decode_large <= decode_small + 4 * 4 + 2,
        "decoding N = 4096 allocated {decode_large} times, N = 256 {decode_small}"
    );

    // sanity: the counter is actually live in this binary
    let probe = vec![0u8; 1];
    std::hint::black_box(&probe);
    assert!(par::arena::alloc_count() > 0);
}
