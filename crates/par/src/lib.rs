//! # par
//!
//! Deterministic host parallelism for the workspace, built on
//! [`std::thread::scope`] only — the build environment has no reachable
//! crates registry, so no external thread-pool dependency is possible.
//!
//! ## The determinism contract
//!
//! Every helper here cuts its work into **items with fixed boundaries** — a
//! task, a walk, or a contiguous index chunk from [`chunk_ranges`] — and
//! returns the per-item results **in item order**. Up to [`threads`]
//! workers (the calling thread is one of them) claim items one at a time
//! from one shared cursor, in index order, so a worker that stalls simply
//! claims fewer items while the others keep going. Which worker ran an item
//! is never observable: a caller that combines the results in the order
//! they are returned sees a fixed merge order regardless of who finished
//! first. Callers must uphold one rule for results to be bit-exact across
//! thread counts: the value computed for an item must depend only on the
//! item (and shared read-only state), never on which worker claimed it or
//! which items it claimed before. All hot paths in this workspace satisfy
//! that rule — work-groups of a GPU launch are independent by the
//! programming model, tree walks are independent per walk, and per-body
//! forces are independent per body — which is why `--threads 1` and
//! `--threads k` produce identical forces, energies, and simulated clocks.
//!
//! The global thread count is process-wide: [`set_threads`] overrides it,
//! otherwise the `NBODY_THREADS` environment variable applies, otherwise
//! [`std::thread::available_parallelism`]. With a count of 1 every helper
//! degenerates to a plain in-order loop on the calling thread — byte-for-
//! byte the pre-existing serial behavior.

pub mod arena;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 = not yet resolved; anything else is the configured thread count.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide thread count used by all helpers.
///
/// # Panics
/// Panics if `n == 0`.
pub fn set_threads(n: usize) {
    assert!(n >= 1, "thread count must be >= 1");
    THREADS.store(n, Ordering::Relaxed);
}

/// The thread count in effect: the last [`set_threads`] value, else
/// `NBODY_THREADS`, else the machine's available parallelism (at least 1).
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = resolve_default();
    // first caller wins; any later set_threads still overrides
    let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Cores the OS reports, independent of the configured count — what speedup
/// gates should consult before asserting wall-clock improvements.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn resolve_default() -> usize {
    if let Ok(v) = std::env::var("NBODY_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_parallelism()
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges. Deterministic in `(len, parts)`; the concatenation of the ranges
/// is exactly `0..len`.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts; // first `extra` chunks get one more item
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Applies `f` to every index of `0..len` and returns the results **in
/// index order**. Up to [`threads`] workers, the caller among them, claim
/// the next unclaimed index from a shared cursor, one index at a time. With
/// one thread or one item, `f` runs inline on the caller in index order.
pub fn map_items<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads().min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    // Relaxed suffices: the cursor only hands out indices, and the results
    // reach the caller through the scope's joins
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut per_worker = vec![claim()];
        per_worker.extend(helpers.into_iter().map(join_propagating));
        per_worker
    });
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots.into_iter().map(|v| v.expect("every index claimed once")).collect()
}

/// Applies `f` to contiguous chunks of `0..len` (at most [`threads`] of
/// them, cut by [`chunk_ranges`]) and returns the results **in chunk
/// order**. The chunks are claimed as [`map_items`] claims indices. With
/// one thread or one chunk, `f` runs inline on the caller.
pub fn map_chunks<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(len, threads());
    map_items(ranges.len(), |c| f(ranges[c].clone()))
}

/// Runs independent tasks and returns their results **in task order**. The
/// tasks are claimed one at a time, in task order, as [`map_items`] claims
/// indices. With one thread the tasks simply run in order on the caller.
pub fn run_tasks<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads() <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    // each slot is taken exactly once, by the worker that claimed its index
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    map_items(slots.len(), |i| {
        let task = slots[i].lock().expect("no task runs under its slot lock").take();
        task.expect("task claimed once")()
    })
}

fn join_propagating<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Tests that read results dependent on the *current* global thread
    /// count must not interleave with tests that change it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn chunk_ranges_partition_exactly() {
        for len in [0_usize, 1, 2, 7, 8, 100, 1023] {
            for parts in [1_usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty(), "empty chunk for len={len} parts={parts}");
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn chunk_sizes_are_near_equal() {
        let ranges = chunk_ranges(10, 3);
        let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn map_chunks_results_arrive_in_chunk_order() {
        let _guard = LOCK.lock().unwrap();
        set_threads(3);
        let out = map_chunks(11, |r| r.clone());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..11).collect::<Vec<_>>());
        set_threads(1);
        let serial = map_chunks(11, |r| r.clone());
        assert_eq!(serial.len(), 1);
        assert_eq!(serial[0], 0..11);
    }

    #[test]
    fn map_chunks_is_thread_count_invariant_for_item_maps() {
        let _guard = LOCK.lock().unwrap();
        let work = |r: Range<usize>| -> Vec<u64> { r.map(|i| (i as u64) * 7 + 1).collect() };
        let mut flats = Vec::new();
        for t in [1_usize, 2, 3, 8] {
            set_threads(t);
            flats.push(map_chunks(100, work).into_iter().flatten().collect::<Vec<u64>>());
        }
        set_threads(1);
        assert!(flats.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn run_tasks_preserves_task_order() {
        let _guard = LOCK.lock().unwrap();
        for t in [1_usize, 2, 5] {
            set_threads(t);
            let tasks: Vec<_> = (0..9).map(|i| move || i * i).collect();
            assert_eq!(run_tasks(tasks), (0..9).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(1);
    }

    #[test]
    fn a_stalled_task_does_not_hold_back_the_tasks_after_it() {
        let _guard = LOCK.lock().unwrap();
        set_threads(2);
        let finished = &AtomicUsize::new(0);
        let tasks: Vec<_> = (0..9)
            .map(|i| {
                move || {
                    if i > 0 {
                        finished.fetch_add(1, Ordering::SeqCst);
                        return true;
                    }
                    // done only once another worker has run tasks 1..=8; a
                    // worker that owned a fixed slice holding task 0 would
                    // also own some of them, and time out instead
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while finished.load(Ordering::SeqCst) < 8 {
                        if Instant::now() > deadline {
                            return false;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    true
                }
            })
            .collect();
        let out = run_tasks(tasks);
        set_threads(1);
        assert_eq!(out, vec![true; 9], "task 0 timed out: tasks 1..=8 were not claimed");
    }

    #[test]
    fn results_keep_task_order_under_skewed_costs() {
        let _guard = LOCK.lock().unwrap();
        // the early items sleep up to 0.8 ms and the rest not at all, so
        // later items finish first
        let cost = |i: u64| Duration::from_micros(200 * (i % 5) * u64::from(i < 10));
        for t in [1_usize, 2, 3, 8] {
            set_threads(t);
            let tasks: Vec<_> = (0..23_u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(cost(i));
                        i * i
                    }
                })
                .collect();
            assert_eq!(run_tasks(tasks), (0..23).map(|i| i * i).collect::<Vec<_>>(), "{t}");
            let items = map_items(23, |i| {
                std::thread::sleep(cost(i as u64));
                i
            });
            assert_eq!(items, (0..23).collect::<Vec<_>>(), "{t} threads");
        }
        set_threads(1);
    }

    #[test]
    fn zero_len_is_fine() {
        assert!(map_chunks(0, |_| ()).is_empty());
        assert!(map_items(0, |_| ()).is_empty());
        assert!(run_tasks(Vec::<fn() -> ()>::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_rejected() {
        set_threads(0);
    }
}
