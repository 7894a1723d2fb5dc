//! The inputs each workload submits, made from the run's seed.
//!
//! The seed picks Plummer and fault seeds only. What a workload submits —
//! how many jobs of which size, plan and backend, how many exact resubmits,
//! in which order — is fixed, so runs with different seeds do the same
//! amount of work in the same order.

use jobs::spec::{JobSpec, Priority};
use plans::prelude::{BackendKind, PlanKind};
use workloads::spec::WorkloadSpec;

/// Problem sizes; the self-test shrinks them.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// N of every closed-loop job.
    pub closed_n: usize,
    /// The three N of the service burst.
    pub burst_ns: [usize; 3],
    /// Set-ups per closed-loop run (the reported set-up time is their
    /// median).
    pub closed_setup_reps: usize,
    /// Set-ups per service-burst run; its set-up is short, so it takes
    /// more of them for an equally steady median.
    pub burst_setup_reps: usize,
}

impl Size {
    /// The sizes the benchmark reports.
    pub const FULL: Size = Size {
        closed_n: 16_384,
        burst_ns: [512, 1024, 2048],
        closed_setup_reps: 3,
        burst_setup_reps: 7,
    };

    /// Sizes small enough for a unit test.
    pub const TINY: Size =
        Size { closed_n: 1024, burst_ns: [64, 96, 128], closed_setup_reps: 2, burst_setup_reps: 2 };
}

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn spec(n: usize, seed: u64, plan: PlanKind, backend: BackendKind, steps: usize) -> JobSpec {
    let mut s = JobSpec::new(WorkloadSpec::plummer(n, seed), plan, steps);
    s.backend = Some(backend);
    s
}

/// The `i`-th closed-loop job: a cold Plummer job of one fixed kind.
pub fn closed_job(plan: PlanKind, backend: BackendKind, n: usize, rng: &mut Rng) -> JobSpec {
    spec(n, rng.next_u64(), plan, backend, 4)
}

/// One job per plan × backend shape at the middle burst size: the
/// service burst's warm-up.
pub fn burst_warmup(size: Size, rng: &mut Rng) -> Vec<(u64, JobSpec)> {
    let mut out = Vec::new();
    for backend in [BackendKind::Sim, BackendKind::Host] {
        for plan in PlanKind::all() {
            let mut s = spec(size.burst_ns[1], rng.next_u64(), plan, backend, 4);
            s.checkpoint_every = 2;
            out.push((0, s));
        }
    }
    out
}

/// The service-burst arrival script: 158 jobs, nearly all due at tick 0.
///
/// * 96 distinct `normal` jobs: per plan and N, 7 on `sim` and 1 on
///   `host`. One `sim` job per plan injects transient faults, and the
///   tree plans each get sharded jobs.
/// * 44 exact resubmits of those (cache hits once the original is done).
/// * 12 distinct `batch` jobs at the largest N.
/// * Three late pairs of identical `high` jobs, due once the scheduler has
///   reached the batch jobs: the first of a pair is claimed next to a batch
///   job, its twin waits in `submitted/` (an identical hash is deferred),
///   and the waiting `high` job preempts that batch job at its first
///   checkpoint.
///
/// The tick-0 queue is a fixed sequence of rounds, each holding one job of
/// every plan × N (plus the resubmits of the round before). In a deep queue
/// a job's latency is the work queued ahead of it, so a seeded shuffle
/// would move the median latency with the seed; a fixed interleaving keeps
/// the work ahead of every position the same in every run.
pub fn burst_script(size: Size, rng: &mut Rng) -> Vec<(u64, JobSpec)> {
    let [n0, n1, n2] = size.burst_ns;
    let mut rounds: Vec<Vec<JobSpec>> = vec![Vec::new(); 9];
    let mut computed_normal: usize = 0;
    for k in 0..8 {
        for plan in PlanKind::all() {
            for n in [n0, n1, n2] {
                let backend = if k == 7 { BackendKind::Host } else { BackendKind::Sim };
                let mut s = spec(n, rng.next_u64(), plan, backend, 4);
                s.checkpoint_every = 2;
                if backend == BackendKind::Sim && k == 0 && n == n1 {
                    s.fault_seed = Some(rng.next_u64());
                    s.fault_prob = Some(0.05);
                }
                if plan.uses_tree() && k == 1 && n != n0 {
                    s.shards = Some(4);
                }
                // three sim copies per plan and N, and the host job of the
                // two smaller sizes
                let copies = usize::from((1..=3).contains(&k)) + usize::from(k == 7 && n != n2);
                for _ in 0..copies {
                    rounds[k + 1].push(s.clone());
                }
                rounds[k].push(s);
                computed_normal += 1;
            }
        }
    }
    // batch jobs queue behind every normal job whatever their position
    for plan in PlanKind::all().into_iter().cycle().take(12) {
        let mut s = spec(n2, rng.next_u64(), plan, BackendKind::Sim, 4);
        s.checkpoint_every = 2;
        s.priority = Priority::Batch;
        rounds[8].push(s);
    }
    let mut script: Vec<(u64, JobSpec)> = rounds.into_iter().flatten().map(|s| (0, s)).collect();

    // every round computes two distinct jobs while normal work remains, so
    // the batch jobs start at round ceil(computed_normal / 2)
    let batch_start = computed_normal.div_ceil(2) as u64;
    for (i, plan) in
        [PlanKind::JwParallel, PlanKind::WParallel, PlanKind::IParallel].into_iter().enumerate()
    {
        let mut s = spec(n1, rng.next_u64(), plan, BackendKind::Sim, 4);
        s.checkpoint_every = 2;
        s.priority = Priority::High;
        let tick = batch_start + 1 + 2 * i as u64;
        script.push((tick, s.clone()));
        script.push((tick, s));
    }
    script
}
