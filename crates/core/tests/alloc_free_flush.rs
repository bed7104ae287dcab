//! Proves the steady-state flushed-write path performs zero heap
//! allocations after warm-up, using a counting `#[global_allocator]`.
//!
//! Two steady states are measured. The persistence domain's idle case:
//! the application rewrites data that is already durable, then flushes —
//! the engine's EUR drain finds nothing to apply, the staging walk finds
//! its dirty stripes unchanged, and the fence is empty. And its working
//! case: every write carries fresh bytes, so every flush drains the EUR,
//! stages changed lines and seals a non-empty intent-log record. Both
//! round trips must stay off the heap.
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
            // Identical data: compare-skip finds the dirty stripes
            // unchanged and the flush fences nothing.
            assert_eq!(lines, 0, "re-staging an unchanged image must be empty");
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state write+flush round trip must not allocate after \
         warm-up (counted {allocs} allocations over {} write+flush rounds)",
        rounds
    );

    // Data-changing rounds: fresh bytes per write, a non-empty fence
    // every eight writes.
    let allocs = count(|| {
        for round in 0..rounds {
            for a in 0..blocks {
                let fresh = [(a + 64 * (round + 1)) as u8 ^ 0x5A; 64];
                stack.write(a, &fresh).unwrap();
                if a % 8 == 7 {
                    let lines = stack.flush().unwrap();
                    // Eight adjacent 72 B bursts are nine lines.
                    assert!(lines >= 9, "every changed burst must reach the fence");
                }
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "data-changing write+flush rounds must not allocate after warm-up \
         (counted {allocs} allocations over {rounds} rounds)"
    );
}
