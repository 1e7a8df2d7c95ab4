//! The counting global allocator behind `allocs_per_interest`.
//!
//! Counting is switched on only around the warm-up repetition, so a timed
//! repetition pays one relaxed load per allocation and nothing else. The
//! only `unsafe` in the benchmark lives here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], counting calls while enabled.
pub struct Counting;

// Statistics only: neither value publishes other data, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on; returns its result and the number of
/// `alloc` + `alloc_zeroed` + `realloc` calls made meanwhile by every
/// thread of the process. Not re-entrant (the benchmark counts one
/// repetition at a time).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, CALLS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counter is process-global and `cargo test` runs tests on
    // parallel threads, so this only bounds the count from below.
    #[test]
    fn counts_only_while_enabled() {
        let (v, n) = counted(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4); // alloc
            v.extend(0..1024); // at least one realloc
            vec![0u8; 64].len() + v.len() // alloc_zeroed
        });
        assert_eq!(v, 64 + 1024);
        assert!(n >= 3, "saw {n} allocations");
        assert!(!ENABLED.load(Ordering::Relaxed), "counting is off again");
    }
}
