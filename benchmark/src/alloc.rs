//! A pass-through allocator that counts allocation calls, so the traced
//! run can report heap allocations per operation for every rung.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator installed as this crate's global allocator.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made by the process
/// so far, on every thread.
pub fn calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// An empty vector of capacity `n` whose pages are already mapped: a
/// buffer filled inside a measured loop must not take its page faults
/// there. (`with_capacity`, and `vec![0; n]` too, leave the pages to
/// the first write; in a VM that write can cost tens of microseconds.)
pub fn prefaulted<T: Clone>(n: usize, filler: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, filler);
    v.clear();
    v
}
