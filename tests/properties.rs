//! Property-based tests over the core invariants: octree structure, MAC
//! geometry, walk coverage, plan-vs-reference force agreement, scheduler
//! sanity under arbitrary group cost vectors, time-space grid metric
//! bounds, and execution-trace well-formedness.
//!
//! The cases are driven by the dependency-free `XorShift64` generator from
//! `nbody_core::testutil` (the build environment has no crates registry,
//! so proptest is unavailable); each test runs a fixed number of seeded
//! random cases, which keeps failures exactly reproducible by seed.

use gpu_sim::cost::GroupCost;
use gpu_sim::prelude::{schedule_launch, Device, DeviceSpec, MemoryTraceSink, TransferModel};
use nbody_core::prelude::*;
use nbody_core::testutil::XorShift64;
use plans::prelude::*;
use ptpm::prelude::TimeSpaceGrid;
use treecode::prelude::*;

/// 1..=max_n bodies at rest, positions in [-10, 10)³, masses in [0.01, 5).
fn arb_bodies(rng: &mut XorShift64, max_n: usize) -> Vec<Body> {
    let n = 1 + (rng.next_u64() as usize) % max_n;
    (0..n).map(|_| Body::at_rest(rng.uniform_vec3(-10.0, 10.0), rng.uniform(0.01, 5.0))).collect()
}

#[test]
fn octree_invariants_hold_for_arbitrary_clouds() {
    let mut rng = XorShift64::new(0xA1);
    for _ in 0..64 {
        let bodies = arb_bodies(&mut rng, 200);
        let leaf = 1 + (rng.next_u64() as usize) % 31;
        let set = ParticleSet::from_bodies(&bodies);
        let tree = Octree::build(&set, TreeParams { leaf_capacity: leaf });
        assert!(tree.check_invariants(&set).is_ok());
        // total mass conserved by the multipole sweep
        assert!((tree.root().mass - set.total_mass()).abs() < 1e-9 * set.total_mass().max(1.0));
    }
}

#[test]
fn walks_cover_every_body_exactly_once() {
    let mut rng = XorShift64::new(0xA2);
    for _ in 0..64 {
        let bodies = arb_bodies(&mut rng, 150);
        let ws = 1 + (rng.next_u64() as usize) % 63;
        let set = ParticleSet::from_bodies(&bodies);
        let tree = Octree::build(&set, TreeParams::default());
        let walks = build_walks(&tree, &set, OpeningAngle::new(0.5), ws);
        let mut seen = vec![0_u32; set.len()];
        for g in &walks.groups {
            for &b in &g.bodies {
                seen[b as usize] += 1;
            }
            assert!(g.bodies.len() <= ws);
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}

#[test]
fn aabb_distance_is_a_lower_bound() {
    let mut rng = XorShift64::new(0xA3);
    for _ in 0..64 {
        let n = 1 + (rng.next_u64() as usize) % 19;
        let pts: Vec<Vec3> = (0..n).map(|_| rng.uniform_vec3(-5.0, 5.0)).collect();
        let q = rng.uniform_vec3(-20.0, 20.0);
        let bbox = Aabb::from_points(pts.iter().copied());
        let d = bbox.distance_to_point(q);
        for p in &pts {
            assert!(d <= q.distance(*p) + 1e-12);
        }
    }
}

#[test]
fn bh_walk_error_bounded_for_arbitrary_clouds() {
    let mut rng = XorShift64::new(0xA4);
    for _ in 0..64 {
        let bodies = arb_bodies(&mut rng, 120);
        let set = ParticleSet::from_bodies(&bodies);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let tree = Octree::build(&set, TreeParams::default());
        let mut exact = vec![Vec3::ZERO; set.len()];
        let mut approx = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        accelerations_bh(&tree, &set, OpeningAngle::new(0.4), &params, &mut approx);
        let err = nbody_core::gravity::max_relative_error(&exact, &approx);
        assert!(err < 0.05, "error {err}");
    }
}

#[test]
fn scheduler_makespan_bounds() {
    let mut rng = XorShift64::new(0xA5);
    let spec = DeviceSpec::radeon_hd_5850();
    for _ in 0..64 {
        let n = (rng.next_u64() as usize) % 64;
        let costs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1e6)).collect();
        let group_costs: Vec<GroupCost> =
            costs.iter().map(|&f| GroupCost { flops: f, ..Default::default() }).collect();
        let t = schedule_launch(&spec, 64, 0, &group_costs, None).0;
        let per_group: Vec<f64> =
            costs.iter().map(|&f| f / spec.charged_flops_per_cycle_per_cu).collect();
        let total: f64 = per_group.iter().sum();
        let longest = per_group.iter().copied().fold(0.0, f64::max);
        // classic list-scheduling bounds: max(avg, longest) <= makespan <= total
        assert!(t.compute_cycles <= total + 1e-9);
        assert!(t.compute_cycles + 1e-9 >= longest);
        assert!(t.compute_cycles + 1e-9 >= total / f64::from(spec.compute_units));
        assert!(t.utilization <= 1.0 + 1e-12);
    }
}

#[test]
fn grid_placement_is_conservative() {
    let mut rng = XorShift64::new(0xA6);
    for _ in 0..64 {
        let n = 1 + (rng.next_u64() as usize) % 39;
        let cus = 1 + (rng.next_u64() as usize) % 31;
        let costs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1e5)).collect();
        let grid = TimeSpaceGrid::place(&costs, cus);
        // every group placed exactly once, never overlapping on its CU
        assert_eq!(grid.placements.len(), costs.len());
        for (i, a) in grid.placements.iter().enumerate() {
            assert!((a.end - a.start - costs[i]).abs() < 1e-9);
            for b in &grid.placements[i + 1..] {
                if a.cu == b.cu {
                    let overlap = a.end.min(b.end) - a.start.max(b.start);
                    assert!(overlap <= 1e-9, "groups overlap on cu {}", a.cu);
                }
            }
        }
        assert!(grid.space_utilization() <= 1.0 + 1e-12);
    }
}

#[test]
fn grid_metrics_stay_in_unit_range() {
    let mut rng = XorShift64::new(0xA7);
    for _ in 0..64 {
        let n = 1 + (rng.next_u64() as usize) % 50;
        let cus = 1 + (rng.next_u64() as usize) % 24;
        let costs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 2e4)).collect();
        let grid = TimeSpaceGrid::place(&costs, cus);
        let u = grid.space_utilization();
        let b = grid.balance();
        assert!((0.0..=1.0 + 1e-12).contains(&u), "space_utilization {u}");
        assert!((0.0..=1.0 + 1e-12).contains(&b), "balance {b}");
    }
}

#[test]
fn occupancy_timeline_is_sum_consistent_with_placements() {
    let mut rng = XorShift64::new(0xA8);
    for _ in 0..64 {
        let n = 1 + (rng.next_u64() as usize) % 40;
        let cus = 1 + (rng.next_u64() as usize) % 16;
        let buckets = 1 + (rng.next_u64() as usize) % 40;
        let costs: Vec<f64> = (0..n).map(|_| rng.uniform(1.0, 1e4)).collect();
        let grid = TimeSpaceGrid::place(&costs, cus);
        // integrating busy CU-time over the buckets must reproduce the
        // total busy area, i.e. the summed placement durations
        let areas = grid.busy_area_timeline(buckets);
        assert_eq!(areas.len(), buckets);
        let busy_area: f64 = areas.iter().sum();
        let total_cost: f64 = costs.iter().sum();
        assert!(
            (busy_area - total_cost).abs() <= 1e-6 * total_cost.max(1.0),
            "timeline area {busy_area} vs placed cost {total_cost}"
        );
        // the point-sampled occupancy can never exceed the CU count
        let timeline = grid.occupancy_timeline(buckets);
        assert_eq!(timeline.len(), buckets);
        assert!(timeline.iter().all(|&c| c <= cus));
        // and every utilization cell is a fraction
        for row in grid.utilization_cells(buckets) {
            for cell in row {
                assert!((0.0..=1.0).contains(&cell), "cell {cell}");
            }
        }
    }
}

// Device evaluations are costly: fewer cases.

#[test]
fn i_parallel_matches_reference_for_arbitrary_clouds() {
    let mut rng = XorShift64::new(0xB1);
    for _ in 0..12 {
        let bodies = arb_bodies(&mut rng, 100);
        let set = ParticleSet::from_bodies(&bodies);
        let params = GravityParams { g: 1.0, softening: 0.1 };
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        let mut dev =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
        let o =
            plans::evaluate(PlanKind::IParallel, &PlanConfig::default(), &mut dev, &set, &params);
        let err = nbody_core::gravity::max_relative_error(&exact, &o.acc);
        assert!(err < 2e-3, "error {err}");
    }
}

#[test]
fn traces_are_well_formed_for_arbitrary_clouds() {
    let mut rng = XorShift64::new(0xB3);
    for case in 0..12 {
        let bodies = arb_bodies(&mut rng, 150);
        let set = ParticleSet::from_bodies(&bodies);
        let params = GravityParams { g: 1.0, softening: 0.1 };
        let spec = DeviceSpec::radeon_hd_5850();
        let cus = spec.compute_units as usize;
        let mut dev = Device::with_transfer_model(spec, TransferModel::pcie2_x16());
        let sink = MemoryTraceSink::new();
        dev.set_trace_sink(Box::new(sink.clone()));
        let kind = PlanKind::all()[case % 4];
        plans::evaluate(kind, &PlanConfig::default(), &mut dev, &set, &params);
        let trace = sink.snapshot();

        assert_eq!(trace.compute_units, cus);
        assert!(trace.clock_hz > 0.0);
        assert!(!trace.launches.is_empty() && !trace.transfers.is_empty());

        let mut prev_start = 0.0_f64;
        for (i, lt) in trace.launches.iter().enumerate() {
            assert_eq!(lt.launch_id, i);
            assert!(lt.start_s >= prev_start, "launch timeline goes backwards");
            prev_start = lt.start_s;
            assert_eq!(lt.groups.len(), lt.timing.num_groups);
            assert!((0.0..=1.0).contains(&lt.wavefront_occupancy));
            // phase summaries: sorted, labelled, and accounting for every
            // group-level phase execution
            assert!(!lt.phases.is_empty());
            assert!(lt.phases.windows(2).all(|w| w[0].phase < w[1].phase));
            assert!(lt.phases.iter().all(|p| !p.label.is_empty()));
            for summary in &lt.phases {
                let execs: u64 = lt
                    .groups
                    .iter()
                    .flat_map(|g| &g.phases)
                    .filter(|p| p.phase == summary.phase)
                    .map(|p| p.executions)
                    .sum();
                assert_eq!(execs, summary.executions);
            }
            for (gi, g) in lt.groups.iter().enumerate() {
                assert_eq!(g.group, gi);
                assert!(g.cu < cus, "group on nonexistent CU {}", g.cu);
                assert!(
                    0.0 <= g.start_cycle
                        && g.start_cycle <= g.end_cycle
                        && g.end_cycle <= lt.timing.compute_cycles * (1.0 + 1e-9),
                    "span [{}, {}] outside makespan {}",
                    g.start_cycle,
                    g.end_cycle,
                    lt.timing.compute_cycles
                );
                // the phase deltas recompose the group's total cost
                let flops: f64 = g.phases.iter().map(|p| p.cost.flops).sum();
                let barriers: u64 = g.phases.iter().map(|p| p.cost.barriers).sum();
                assert!((flops - g.cost.flops).abs() <= 1e-6 * g.cost.flops.max(1.0));
                assert_eq!(barriers, g.cost.barriers);
                // no two groups overlap on one CU
                for other in &lt.groups[gi + 1..] {
                    if other.cu == g.cu {
                        let overlap =
                            g.end_cycle.min(other.end_cycle) - g.start_cycle.max(other.start_cycle);
                        assert!(overlap <= 1e-9, "groups overlap on cu {}", g.cu);
                    }
                }
            }
        }
        // the PCIe lane is serial: transfers never overlap
        for w in trace.transfers.windows(2) {
            assert!(w[1].start_s + 1e-12 >= w[0].start_s + w[0].seconds);
        }
    }
}

#[test]
fn tuner_winner_always_comes_from_the_candidate_grid() {
    // the autotuner is an argmin over a shortlist of its candidate grid:
    // whatever the workload, the forecast must rank the whole grid, every
    // measured point and the winner must be grid members, and the reported
    // optimum must really be the minimum of what was measured
    let mut rng = XorShift64::new(0xC1);
    let spec = DeviceSpec::radeon_hd_5850();
    let base = PlanConfig::default();
    let grid = full_grid(base, &spec);
    for case in 0..8 {
        let bodies = arb_bodies(&mut rng, 300);
        let set = ParticleSet::from_bodies(&bodies);
        let params = GravityParams { g: 1.0, softening: 0.05 };
        let objective =
            if case % 2 == 0 { TuneObjective::KernelTime } else { TuneObjective::TotalTime };
        let k = 1 + case;
        let result = autotune(base, &spec, &set, &params, objective, k);
        assert!(
            grid.contains(&result.best),
            "case {case}: winner {:?} not in the grid",
            result.best
        );
        assert_eq!(result.forecasts.len(), grid.len(), "case {case}: forecast must rank the grid");
        assert!(result.measured.iter().any(|p| p.candidate == result.best));
        for point in &result.measured {
            assert!(grid.contains(&point.candidate), "case {case}: stray candidate");
            assert!(point.seconds.is_finite() && point.seconds >= 0.0);
            assert!(result.best_seconds <= point.seconds, "case {case}: argmin violated");
        }
    }
}

#[test]
fn jw_parallel_matches_reference_for_arbitrary_clouds() {
    let mut rng = XorShift64::new(0xB2);
    for _ in 0..12 {
        let bodies = arb_bodies(&mut rng, 100);
        let set = ParticleSet::from_bodies(&bodies);
        let params = GravityParams { g: 1.0, softening: 0.1 };
        let mut exact = vec![Vec3::ZERO; set.len()];
        accelerations_pp(&set, &params, &mut exact);
        let mut dev =
            Device::with_transfer_model(DeviceSpec::radeon_hd_5850(), TransferModel::free());
        let o =
            plans::evaluate(PlanKind::JwParallel, &PlanConfig::default(), &mut dev, &set, &params);
        let err = nbody_core::gravity::max_relative_error(&exact, &o.acc);
        assert!(err < 0.05, "error {err}");
    }
}
