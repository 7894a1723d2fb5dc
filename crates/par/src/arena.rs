//! Persistent scratch memory for zero-allocation steady states.
//!
//! Hot per-step paths (PP force tiles, Morton sorting, octree bucketing,
//! tree traversal, interaction lists) all need temporary buffers. Allocating
//! them fresh every step is the dominant serial cost once the thread pool is
//! in place, so this module provides:
//!
//! * [`Scratch`] — a keyed arena of reusable `Vec<T>` buffers. A caller
//!   [`Scratch::take`]s a buffer, uses it, and [`Scratch::put`]s it back;
//!   after a warmup step every take returns a buffer whose capacity already
//!   fits, so steady-state steps perform **zero heap allocations**.
//! * [`CountingAlloc`] — a global-allocator wrapper over [`std::alloc::System`]
//!   that counts allocations. It is never installed by library code; test
//!   binaries opt in with `#[global_allocator]` to *gate* the
//!   zero-allocation invariant (see `tests/alloc_steady_state.rs`).
//!
//! Buffers are typed by element: the slot key is `(TypeId of T, name)`, so
//! the same name can safely hold a `Vec<u32>` in one subsystem and a
//! `Vec<f64>` in another without aliasing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A keyed arena of reusable scratch buffers.
///
/// Not a pool with reference counting — ownership is explicit: [`take`]
/// moves the buffer out (leaving an empty placeholder), [`put`] moves it
/// back, cleared but with capacity intact. Taking the same key twice without
/// an intervening put simply yields a fresh empty `Vec` for the second call,
/// which is correct but allocates once it grows; structure callers so each
/// buffer has one taker at a time.
///
/// [`take`]: Scratch::take
/// [`put`]: Scratch::put
#[derive(Default)]
pub struct Scratch {
    slots: HashMap<(TypeId, &'static str), Box<dyn Any + Send>>,
}

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the buffer registered under `key`, or an empty `Vec` if none
    /// exists yet. The returned buffer is always empty; its capacity is
    /// whatever the last [`Scratch::put`] left behind.
    pub fn take<T: Send + 'static>(&mut self, key: &'static str) -> Vec<T> {
        match self.slots.get_mut(&(TypeId::of::<Vec<T>>(), key)) {
            Some(slot) => {
                std::mem::take(slot.downcast_mut::<Vec<T>>().expect("slot type fixed by TypeId"))
            }
            None => {
                // register the slot now so the steady state only ever hits
                // the Some arm (no HashMap insert after warmup)
                self.slots.insert((TypeId::of::<Vec<T>>(), key), Box::new(Vec::<T>::new()));
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the arena, clearing its contents but keeping its
    /// capacity for the next [`Scratch::take`].
    pub fn put<T: Send + 'static>(&mut self, key: &'static str, mut buf: Vec<T>) {
        buf.clear();
        match self.slots.get_mut(&(TypeId::of::<Vec<T>>(), key)) {
            Some(slot) => *slot.downcast_mut::<Vec<T>>().expect("slot type fixed by TypeId") = buf,
            None => {
                self.slots.insert((TypeId::of::<Vec<T>>(), key), Box::new(buf));
            }
        }
    }

    /// Number of registered slots (for diagnostics).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// Cloning an arena yields a fresh empty one: scratch capacity is an
/// optimization, never state, so a cloned owner (e.g. a cloned force engine)
/// simply re-warms its own buffers.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").field("slots", &self.slots.len()).finish()
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
///
/// Library code never installs this; binaries that gate the zero-allocation
/// invariant do, via:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: par::arena::CountingAlloc = par::arena::CountingAlloc;
/// ```
///
/// Only allocation *events* are counted (alloc, alloc_zeroed, and growth
/// reallocs); deallocation is free and untracked because the invariant under
/// test is "no new heap memory is requested per steady-state step".
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter has no safety impact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events observed so far by [`CountingAlloc`] (0 forever unless
/// a binary installed it as the global allocator).
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Resets the allocation counter to zero.
pub fn reset_alloc_count() {
    ALLOCATIONS.store(0, Ordering::Relaxed);
}

/// True if [`CountingAlloc`] is actually installed in this process, probed
/// by performing one heap allocation and checking the counter moved. Lets
/// shared report code emit `None` instead of a bogus zero when counting is
/// unavailable.
pub fn counting_active() -> bool {
    let before = alloc_count();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    alloc_count() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_preserves_capacity() {
        let mut s = Scratch::new();
        let mut v: Vec<u32> = s.take("keys");
        assert!(v.is_empty());
        v.extend(0..1000);
        let cap = v.capacity();
        s.put("keys", v);
        let v2: Vec<u32> = s.take("keys");
        assert!(v2.is_empty(), "put clears contents");
        assert_eq!(v2.capacity(), cap, "put keeps capacity");
    }

    #[test]
    fn same_name_different_types_do_not_alias() {
        let mut s = Scratch::new();
        let mut a: Vec<u32> = s.take("buf");
        a.push(7);
        s.put("buf", a);
        let b: Vec<f64> = s.take("buf");
        assert!(b.is_empty());
        assert_eq!(s.slots(), 2);
    }

    #[test]
    fn double_take_yields_fresh_empty() {
        let mut s = Scratch::new();
        let mut a: Vec<u8> = s.take("x");
        a.reserve(64);
        let b: Vec<u8> = s.take("x");
        assert_eq!(b.capacity(), 0);
        s.put("x", a);
        s.put("x", b); // last put wins; still consistent
        let _ = s.take::<u8>("x");
    }

    #[test]
    fn clone_is_fresh() {
        let mut s = Scratch::new();
        let mut v: Vec<u64> = s.take("k");
        v.reserve(128);
        s.put("k", v);
        let c = s.clone();
        assert_eq!(c.slots(), 0);
    }

    #[test]
    fn counter_api_is_monotone_and_resettable() {
        reset_alloc_count();
        // counting_active() may be false (allocator not installed in unit
        // tests) but the API must not panic and the counter stays coherent.
        let _ = counting_active();
        let c = alloc_count();
        reset_alloc_count();
        assert!(alloc_count() <= c);
    }
}
