//! The timing model: from per-group event counts to simulated seconds.
//!
//! The model is deliberately simple, deterministic, and documented — it is a
//! first-order performance model of an AMD Evergreen-class GPU, capturing
//! exactly the effects the paper's Parallel Time-Space Processing Model
//! reasons about:
//!
//! 1. **Space**: work-groups are placed on compute units by greedy
//!    list scheduling — earliest finish, which on a healthy device is the
//!    least-loaded CU (see [`schedule_launch`]). With fewer groups than CUs,
//!    the spare CUs idle — this is what starves i-parallel at small N.
//! 2. **Occupancy / latency hiding**: a CU can host `k` resident groups
//!    (limited by LDS and wavefront slots). Global memory latency is divided
//!    by `k`: more resident waves hide more latency.
//! 3. **Per-group cost**: a group occupies its CU for
//!    `max(alu_cycles, lds_cycles, mem_latency_cycles / k) + barrier cost`.
//! 4. **Device-level bandwidth floor**: no launch can finish faster than
//!    `total_bytes / bandwidth`.
//! 5. **Launch overhead**: a fixed host-side cost per kernel launch; this is
//!    what makes many tiny launches (the naive multi-kernel reduction of
//!    j-parallel) expensive at small N.

use crate::cost::GroupCost;
use crate::fault::CuHealth;
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Cycles charged per barrier per group (wavefront re-convergence cost).
pub const BARRIER_CYCLES: f64 = 16.0;

/// Timing of one kernel launch under the device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchTiming {
    /// End-to-end simulated seconds including launch overhead.
    pub seconds: f64,
    /// Compute-side makespan in core cycles (excludes overhead).
    pub compute_cycles: f64,
    /// Seconds implied by the bandwidth floor.
    pub bandwidth_floor_s: f64,
    /// True if the launch was limited by bandwidth rather than compute.
    pub bandwidth_bound: bool,
    /// Resident groups per CU used for latency hiding.
    pub occupancy_groups_per_cu: usize,
    /// Busy cycles accumulated per compute unit.
    pub cu_busy_cycles: Vec<f64>,
    /// Mean CU busy time divided by makespan — 1.0 is perfect balance.
    pub utilization: f64,
    /// Sum of all group costs.
    pub total_cost: GroupCost,
    /// Number of work-groups scheduled.
    pub num_groups: usize,
}

impl LaunchTiming {
    /// GFLOPS achieved by this launch under the charged-flop convention.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.total_cost.flops / self.seconds / 1e9
    }
}

/// Cycles a single group occupies its CU, given `k` resident groups for
/// latency hiding.
///
/// The memory term charges one full DRAM latency per group (the first
/// access of a dependent chain) plus a pipelined per-transaction issue cost:
/// within a wavefront, outstanding transactions overlap (memory-level
/// parallelism), so latency is not paid per transaction. Both components are
/// divided by the resident-group count `k` — co-resident groups hide each
/// other's stalls.
fn group_cycles(cost: &GroupCost, spec: &DeviceSpec, k: f64) -> f64 {
    let alu = cost.flops / spec.charged_flops_per_cycle_per_cu;
    let lds = cost.lds_accesses / spec.lds_words_per_cycle_per_cu;
    let mem_work = if cost.total_transactions() > 0.0 {
        spec.mem_latency_cycles
            + cost.total_transactions() * spec.mem_throughput_cycles_per_transaction
    } else {
        0.0
    };
    let mem = mem_work / k;
    alu.max(lds).max(mem) + cost.barriers as f64 * BARRIER_CYCLES
}

/// Where the scheduler put one work-group: compute unit and busy interval in
/// core cycles from launch start. The raw material of execution traces and
/// observed time-space grids.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupPlacement {
    /// Work-group index (launch order).
    pub group: usize,
    /// Compute unit it ran on.
    pub cu: usize,
    /// Cycle at which the group started.
    pub start_cycle: f64,
    /// Cycle at which the group retired.
    pub end_cycle: f64,
}

/// Times a launch whose groups produced `group_costs`, for work-groups of
/// `local_size` items using `lds_words` words of LDS each, and returns the
/// CU placement of every group beside the timing.
///
/// `health` describes each CU (see [`CuHealth`], rolled by an installed
/// fault plan); `None` means every CU is nominal. Each group goes to the
/// alive CU with the earliest finish `busy + cycles / speed`; ties go to the
/// lower `busy`, then to the lower index. Offline CUs receive no work and a
/// degraded CU stretches every group it hosts by `1 / speed`. A nominal
/// speed is exactly 1.0, so on a healthy device the earliest finish is the
/// least-loaded CU and the rule is greedy least-loaded list scheduling.
///
/// Degradation affects timing only, never results: the functional execution
/// has already happened by the time the scheduler runs.
///
/// # Panics
/// Panics if `health` does not cover every CU or no CU is alive.
pub fn schedule_launch(
    spec: &DeviceSpec,
    local_size: usize,
    lds_words: usize,
    group_costs: &[GroupCost],
    health: Option<&[CuHealth]>,
) -> (LaunchTiming, Vec<GroupPlacement>) {
    let cus = spec.compute_units as usize;
    if let Some(health) = health {
        assert_eq!(health.len(), cus, "health must describe every CU");
        assert!(health.iter().any(|c| c.alive), "no CU alive — the device is lost, not degraded");
    }
    let alive = |i: usize| health.is_none_or(|h| h[i].alive);
    let speed = |i: usize| health.map_or(1.0, |h| h[i].speed);
    // Latency hiding needs groups actually resident, not just capacity for
    // them: a launch with one group per CU exposes full memory latency no
    // matter how much LDS is free. Effective occupancy is therefore the
    // capacity limit clamped by the groups the launch can actually co-locate.
    let capacity = spec.groups_per_cu(local_size, lds_words).max(1);
    let resident = group_costs.len().div_ceil(cus).max(1);
    let k = capacity.min(resident);
    let mut cu_busy = vec![0.0_f64; cus];
    let mut placements = Vec::with_capacity(group_costs.len());

    for (group, cost) in group_costs.iter().enumerate() {
        let cycles = group_cycles(cost, spec, k as f64);
        // earliest finish, then least loaded, then lowest index: deterministic
        let (idx, _, _) = cu_busy
            .iter()
            .enumerate()
            .filter(|&(i, _)| alive(i))
            .map(|(i, &busy)| (i, busy, busy + cycles / speed(i)))
            .min_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .unwrap()
                    .then(a.1.partial_cmp(&b.1).unwrap())
                    .then(a.0.cmp(&b.0))
            })
            .expect("at least one alive CU");
        let start_cycle = cu_busy[idx];
        cu_busy[idx] += cycles / speed(idx);
        placements.push(GroupPlacement { group, cu: idx, start_cycle, end_cycle: cu_busy[idx] });
    }

    let compute_cycles = cu_busy.iter().copied().fold(0.0, f64::max);
    let total_cost: GroupCost = group_costs.iter().copied().sum();
    let compute_s = compute_cycles / spec.clock_hz;
    let bandwidth_floor_s = total_cost.total_bytes() / spec.global_bandwidth_bytes_per_sec;
    let body_s = compute_s.max(bandwidth_floor_s);
    let seconds = body_s + spec.launch_overhead_s;
    let mean_busy = cu_busy.iter().sum::<f64>() / cus as f64;
    let utilization = if compute_cycles > 0.0 { mean_busy / compute_cycles } else { 0.0 };

    (
        LaunchTiming {
            seconds,
            compute_cycles,
            bandwidth_floor_s,
            bandwidth_bound: bandwidth_floor_s > compute_s,
            occupancy_groups_per_cu: k,
            cu_busy_cycles: cu_busy,
            utilization,
            total_cost,
            num_groups: group_costs.len(),
        },
        placements,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::tiny_test_device() // 2 CUs, 1 flop/cycle/CU, 1 MHz clock
    }

    fn flops_group(flops: f64) -> GroupCost {
        GroupCost { flops, ..Default::default() }
    }

    #[test]
    fn single_group_uses_one_cu() {
        let t = schedule_launch(&spec(), 4, 0, &[flops_group(1000.0)], None).0;
        assert_eq!(t.compute_cycles, 1000.0);
        assert_eq!(t.cu_busy_cycles, vec![1000.0, 0.0]);
        // one of two CUs busy -> utilization 0.5
        assert!((t.utilization - 0.5).abs() < 1e-12);
        assert_eq!(t.num_groups, 1);
    }

    #[test]
    fn two_equal_groups_balance_perfectly() {
        let t = schedule_launch(&spec(), 4, 0, &[flops_group(1000.0), flops_group(1000.0)], None).0;
        assert_eq!(t.compute_cycles, 1000.0);
        assert!((t.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_groups_set_makespan() {
        // 3 groups: 1000, 10, 10 -> CU0 gets 1000, CU1 gets 20
        let t = schedule_launch(
            &spec(),
            4,
            0,
            &[flops_group(1000.0), flops_group(10.0), flops_group(10.0)],
            None,
        )
        .0;
        assert_eq!(t.compute_cycles, 1000.0);
        assert!(t.utilization < 0.52);
    }

    #[test]
    fn seconds_from_cycles_and_clock() {
        // 1000 cycles at 1 MHz = 1 ms; no overhead on the tiny device
        let t = schedule_launch(&spec(), 4, 0, &[flops_group(1000.0)], None).0;
        assert!((t.seconds - 1e-3).abs() < 1e-12);
        assert!(!t.bandwidth_bound);
    }

    #[test]
    fn bandwidth_floor_applies() {
        // huge byte traffic, negligible flops: bandwidth-bound
        let cost = GroupCost { read_bytes: 1e9, ..Default::default() }; // 1 GB at 1 GB/s = 1 s
        let t = schedule_launch(&spec(), 4, 0, &[cost], None).0;
        assert!(t.bandwidth_bound);
        assert!((t.seconds - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_hiding_scales_with_occupancy() {
        // memory-dominated groups; 4 groups on 2 CUs -> 2 resident.
        // Tiny device: latency 10, throughput 1 cycle/transaction.
        let cost = GroupCost { read_transactions: 100.0, ..Default::default() };
        // lds_words=0 -> capacity = max_groups_per_cu = 2 on the tiny device
        let t = schedule_launch(&spec(), 4, 0, &[cost; 4], None).0;
        assert_eq!(t.occupancy_groups_per_cu, 2);
        // per group: (10 + 100×1) / 2 = 55; two per CU -> 110
        assert_eq!(t.compute_cycles, 110.0);
        // big LDS use -> capacity 1 -> memory cost fully exposed
        let t1 = schedule_launch(&spec(), 4, 200, &[cost; 4], None).0;
        assert_eq!(t1.occupancy_groups_per_cu, 1);
        assert_eq!(t1.compute_cycles, 220.0);
    }

    #[test]
    fn sparse_launches_get_no_latency_hiding_credit() {
        // one group on a device with plenty of capacity: memory cost is
        // fully exposed because nothing co-resides to hide it
        let cost = GroupCost { read_transactions: 100.0, ..Default::default() };
        let t = schedule_launch(&spec(), 4, 0, &[cost], None).0;
        assert_eq!(t.occupancy_groups_per_cu, 1);
        assert_eq!(t.compute_cycles, 110.0);
    }

    #[test]
    fn groups_without_memory_traffic_pay_no_latency() {
        let t = schedule_launch(&spec(), 4, 0, &[flops_group(100.0)], None).0;
        assert_eq!(t.compute_cycles, 100.0);
    }

    #[test]
    fn barrier_cost_charged() {
        let cost = GroupCost { barriers: 10, ..Default::default() };
        let t = schedule_launch(&spec(), 4, 0, &[cost], None).0;
        assert_eq!(t.compute_cycles, 10.0 * BARRIER_CYCLES);
    }

    #[test]
    fn lds_bound_group() {
        // tiny device serves 1 LDS word/cycle: 500 accesses = 500 cycles > flops
        let cost = GroupCost { flops: 100.0, lds_accesses: 500.0, ..Default::default() };
        let t = schedule_launch(&spec(), 4, 0, &[cost], None).0;
        assert_eq!(t.compute_cycles, 500.0);
    }

    #[test]
    fn launch_overhead_added() {
        let mut s = spec();
        s.launch_overhead_s = 0.25;
        let t = schedule_launch(&s, 4, 0, &[flops_group(1000.0)], None).0;
        assert!((t.seconds - (1e-3 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn gflops_reported() {
        // 1e6 flops in 1 ms (1000 cycles @ 1 MHz * 1 flop/cycle... here
        // flops=1000 -> 1000 cycles -> 1 ms -> 1000 flops / 1e-3 s = 1 Mflops
        let t = schedule_launch(&spec(), 4, 0, &[flops_group(1000.0)], None).0;
        assert!((t.gflops() - 1e6 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn empty_launch_is_free_apart_from_overhead() {
        let t = schedule_launch(&spec(), 4, 0, &[], None).0;
        assert_eq!(t.compute_cycles, 0.0);
        assert_eq!(t.seconds, 0.0);
        assert_eq!(t.utilization, 0.0);
    }

    #[test]
    fn hd5850_saturates_near_calibrated_peak() {
        // many equal ALU-bound groups on the full device should sustain
        // close to the calibrated 430 GFLOPS
        let s = DeviceSpec::radeon_hd_5850();
        let groups = vec![flops_group(1e7); 18 * 8];
        let t = schedule_launch(&s, 256, 1024, &groups, None).0;
        let g = t.gflops();
        assert!(g > 0.9 * s.peak_charged_gflops(), "gflops {g}");
        assert!(g <= s.peak_charged_gflops() * 1.001);
    }

    /// The healthy rule as a plain loop: least-loaded CU, lowest index on
    /// ties, busy grows by the group's cycles.
    fn least_loaded_reference(
        spec: &DeviceSpec,
        local_size: usize,
        lds_words: usize,
        costs: &[GroupCost],
    ) -> (Vec<f64>, Vec<GroupPlacement>) {
        let cus = spec.compute_units as usize;
        let capacity = spec.groups_per_cu(local_size, lds_words).max(1);
        let k = capacity.min(costs.len().div_ceil(cus).max(1));
        let mut busy = vec![0.0_f64; cus];
        let mut placements = Vec::new();
        for (group, cost) in costs.iter().enumerate() {
            let mut cu = 0;
            for i in 1..cus {
                if busy[i] < busy[cu] {
                    cu = i;
                }
            }
            let start_cycle = busy[cu];
            busy[cu] += group_cycles(cost, spec, k as f64);
            placements.push(GroupPlacement { group, cu, start_cycle, end_cycle: busy[cu] });
        }
        (busy, placements)
    }

    #[test]
    fn nominal_health_matches_the_least_loaded_reference_bitexactly() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for spec in [spec(), DeviceSpec::radeon_hd_5850()] {
            let cus = spec.compute_units as usize;
            let nominal = vec![CuHealth::nominal(); cus];
            for _ in 0..200 {
                let groups = next(3 * cus as u64 + 4) as usize;
                // half the vectors draw from a few values, so exact busy
                // ties (and the index tie-break) come up often
                let coarse = next(2) == 0;
                let costs: Vec<GroupCost> = (0..groups)
                    .map(|_| GroupCost {
                        flops: if coarse {
                            100.0 * next(4) as f64
                        } else {
                            next(1 << 20) as f64 / 7.0
                        },
                        read_transactions: next(3) as f64 * 0.375,
                        barriers: next(2),
                        ..Default::default()
                    })
                    .collect();
                let lds_words = [0, 64, 200][next(3) as usize];
                let none = schedule_launch(&spec, 64, lds_words, &costs, None);
                let all_nominal = schedule_launch(&spec, 64, lds_words, &costs, Some(&nominal));
                let (busy, placements) = least_loaded_reference(&spec, 64, lds_words, &costs);
                assert_eq!(none.0, all_nominal.0);
                assert_eq!(none.1, all_nominal.1);
                assert_eq!(none.1, placements);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&none.0.cu_busy_cycles), bits(&busy));
            }
        }
    }

    #[test]
    fn lost_cu_receives_no_work() {
        let health = vec![CuHealth { alive: false, speed: 0.0 }, CuHealth::nominal()];
        let costs = vec![flops_group(100.0); 4];
        let (t, placements) = schedule_launch(&spec(), 4, 0, &costs, Some(&health));
        assert!(placements.iter().all(|p| p.cu == 1));
        // all four groups serialized on the one surviving CU
        assert_eq!(t.compute_cycles, 400.0);
        assert_eq!(t.cu_busy_cycles[0], 0.0);
    }

    #[test]
    fn degraded_cu_stretches_its_groups() {
        let health = vec![CuHealth { alive: true, speed: 0.5 }, CuHealth::nominal()];
        let costs = vec![flops_group(100.0), flops_group(100.0)];
        let (t, placements) = schedule_launch(&spec(), 4, 0, &costs, Some(&health));
        // first group goes to the fast CU (earliest finish), second to the
        // slow one, which then sets the makespan at 100 / 0.5 = 200
        assert_eq!(placements[0].cu, 1);
        assert_eq!(placements[1].cu, 0);
        assert_eq!(t.compute_cycles, 200.0);
    }

    #[test]
    #[should_panic(expected = "no CU alive")]
    fn all_dead_cus_rejected() {
        let health = vec![CuHealth { alive: false, speed: 0.0 }; 2];
        let _ = schedule_launch(&spec(), 4, 0, &[flops_group(1.0)], Some(&health));
    }

    #[test]
    fn fewer_groups_than_cus_underutilize_hd5850() {
        let s = DeviceSpec::radeon_hd_5850();
        let groups = vec![flops_group(1e7); 4]; // 4 groups on 18 CUs
        let t = schedule_launch(&s, 256, 1024, &groups, None).0;
        assert!(t.gflops() < 0.25 * s.peak_charged_gflops());
    }
}
