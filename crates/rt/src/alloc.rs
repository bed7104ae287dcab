//! A counting `#[global_allocator]` for allocation-freedom proofs and
//! the microbenchmark's `allocs_per_op` column.
//!
//! A binary opts in with
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: pmck_rt::alloc::CountingAlloc = pmck_rt::alloc::CountingAlloc;
//! ```
//!
//! and brackets the code under test with [`count`]. The counter is
//! process-global: a test binary that asserts on it holds a single
//! `#[test]`, or a parallel test thread pollutes the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts allocation calls.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns the allocation calls (alloc, alloc_zeroed,
/// realloc) the process made meanwhile, on every thread. Always 0
/// unless [`CountingAlloc`] is the binary's global allocator.
pub fn count(f: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::SeqCst);
    f();
    CALLS.load(Ordering::SeqCst) - before
}
