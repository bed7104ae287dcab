//! Proves the steady-state flushed-write path performs zero heap
//! allocations after warm-up, using a counting `#[global_allocator]`.
//!
//! "Steady state" is the persistence domain's common case: the
//! application rewrites data that is already durable, then flushes. The
//! engine's EUR drain finds nothing to apply, the compare-skip staging
//! copies nothing, and the fence is empty — so the whole
//! write-flush-fence round trip must stay off the heap.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counter is process-global, so a second test running in a parallel
//! thread would pollute the measurement window.

use pmck_core::{ChipkillConfig, PmemConfig, StackBuilder};
use pmck_rt::alloc::{count, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn flushed_write_steady_state_is_allocation_free_after_warmup() {
    let blocks = 64u64;
    let mut stack = StackBuilder::proposal(blocks, ChipkillConfig::default())
        .persistent(PmemConfig::default())
        .seed(7)
        .build();
    for a in 0..blocks {
        stack.write(a, &[a as u8; 64]).unwrap();
    }
    stack.flush().unwrap();

    // Warm-up rounds: the EUR and the intent-log scratch buffer reach
    // their final capacities here.
    for _ in 0..2 {
        for a in 0..blocks {
            stack.write(a, &[a as u8; 64]).unwrap();
        }
        stack.flush().unwrap();
    }

    let rounds = 4u64;
    let allocs = count(|| {
        for _ in 0..rounds {
            for a in 0..blocks {
                stack.write(a, &[a as u8; 64]).unwrap();
            }
            let lines = stack.flush().unwrap();
            // Identical data: the compare-skip staging fences nothing.
            assert_eq!(lines, 0, "re-staging an unchanged image must be empty");
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state write+flush round trip must not allocate after \
         warm-up (counted {allocs} allocations over {} write+flush rounds)",
        rounds
    );
}
