//! Property matrix for the cache-blocked SoA PP kernel: every tile size,
//! every population (including empty, singleton, and a non-power-of-two),
//! and both serial and parallel execution must reproduce the scalar
//! reference `accelerations_pp` bit-for-bit.
//!
//! The kernel earns this by construction — each row's acceleration is one
//! sequential j-ascending accumulation chain regardless of how rows are
//! grouped into tiles or chunked over threads — and this test pins the
//! property against refactors.

use nbody_core::prelude::*;
use plans::prelude::{Backend, HostBackend, PlanConfig, PlanKind};

const TILE_SIZES: [usize; 4] = [1, 3, 8, 64];
const POPULATIONS: [usize; 4] = [0, 1, 5, 257];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn params_grid() -> [GravityParams; 2] {
    [
        GravityParams { g: 1.0, softening: 0.05 },
        // eps = 0 exercises the self-interaction skip (the 1/r³ singularity
        // must be excluded, not masked into the sum)
        GravityParams { g: 2.5, softening: 0.0 },
    ]
}

#[test]
fn tiled_kernel_is_bitwise_identical_to_naive_for_all_tiles_and_sizes() {
    for n in POPULATIONS {
        let set = nbody_core::testutil::random_set(n, 42 + n as u64);
        let mut soa = SoaBodies::new();
        soa.fill_from(&set);
        for params in params_grid() {
            let mut naive = vec![Vec3::ZERO; n];
            accelerations_pp(&set, &params, &mut naive);
            // tile sizes: the fixed grid plus N itself (one block spans
            // every row) — skip 0, tiles must be positive
            let mut tiles: Vec<usize> = TILE_SIZES.to_vec();
            if n > 0 {
                tiles.push(n);
            }
            for tile in tiles {
                let mut serial = vec![Vec3::ZERO; n];
                accelerations_pp_tiled_with(soa.view(), &params, tile, &mut serial);
                assert_eq!(
                    serial, naive,
                    "serial tiled diverged: n={n}, tile={tile}, params={params:?}"
                );
                for threads in THREAD_COUNTS {
                    let mut parallel = vec![Vec3::ZERO; n];
                    accelerations_pp_tiled_parallel(
                        soa.view(),
                        &params,
                        tile,
                        threads,
                        &mut parallel,
                    );
                    assert_eq!(
                        parallel, naive,
                        "parallel tiled diverged: n={n}, tile={tile}, threads={threads}, \
                         params={params:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn soa_engine_matches_reference_engine_across_thread_counts() {
    // the host backend's PP plans are the production user of the kernel:
    // its SoA lanes stay warm across evaluations, its tile comes from the
    // plan config's block size
    let set = nbody_core::testutil::random_set(257, 7);
    let params = GravityParams { g: 1.0, softening: 0.05 };
    let mut reference = vec![Vec3::ZERO; set.len()];
    accelerations_pp(&set, &params, &mut reference);
    for threads in THREAD_COUNTS {
        par::set_threads(threads);
        let mut backend = HostBackend::new(PlanConfig::default());
        let acc = backend.evaluate(PlanKind::IParallel, &set, &params).acc;
        // second evaluation reuses the warm SoA buffers — still exact
        let again = backend.evaluate(PlanKind::IParallel, &set, &params).acc;
        assert_eq!(acc, reference, "host PP diverged at {threads} threads");
        assert_eq!(again, reference, "warm host PP diverged at {threads} threads");
    }
    par::set_threads(1);
}
