//! Proves the data-changing write paths perform zero heap allocations
//! after warm-up, using a counting `#[global_allocator]`.
//!
//! Every write here changes the stored block, so each one runs the whole
//! §V-D path: RS parity, nine sparse VLEW delta encodes, and the EUR
//! accumulate (or, at a row close, its drain). The conventional `Write`
//! and the bitwise-sum `WriteSum` are both covered, engine-direct and
//! through the full middleware stack.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counter is process-global, so a second test running in a parallel
//! thread would pollute the measurement window.

use pmck_core::{ChipkillConfig, ChipkillMemory, StackBuilder};
use pmck_rt::alloc::{count, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A payload that differs between laps and between blocks, so no write
/// degenerates into the zero-delta no-op.
fn payload(addr: u64, lap: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    for (i, x) in b.iter_mut().enumerate() {
        *x = (addr as u8)
            .wrapping_mul(31)
            .wrapping_add((lap as u8).wrapping_mul(97))
            .wrapping_add(i as u8);
    }
    b
}

fn xor(a: &[u8; 64], b: &[u8; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x ^ y;
    }
    out
}

#[test]
fn data_changing_writes_are_allocation_free_after_warmup() {
    let blocks = 64u64;
    let laps = 4u64;

    // --- Engine-direct, both write forms, with row closes and a full
    // EUR flush inside the window. ---
    let mut mem = ChipkillMemory::new(blocks, ChipkillConfig::default());
    for a in 0..blocks {
        mem.write_block(a, &payload(a, 0)).unwrap();
    }
    let engine_allocs = count(|| {
        for lap in 1..=laps {
            for a in 0..blocks {
                let (old, new) = (payload(a, lap - 1), payload(a, lap));
                if a % 2 == 0 {
                    mem.write_block(a, &new).unwrap();
                } else {
                    mem.write_block_sum(a, &xor(&old, &new)).unwrap();
                }
            }
            mem.close_stripe(0);
            mem.flush_eur();
        }
    });
    assert_eq!(
        engine_allocs,
        0,
        "data-changing ChipkillMemory writes must not allocate \
         (counted {engine_allocs} allocations over {} writes)",
        laps * blocks
    );
    for a in 0..blocks {
        assert_eq!(mem.read_block(a).unwrap().data, payload(a, laps));
    }
    assert!(mem.verify_consistent());

    // --- Full pipeline: a `StackBuilder::proposal` stack with
    // wear-levelling (remapping inside the window: a gap move is a read
    // plus a write) and patrol scrub on top of the engine. ---
    let mut stack = StackBuilder::proposal(blocks, ChipkillConfig::default())
        .wear_levelled(16)
        .patrolled(4, 16)
        .seed(7)
        .build();
    let n = stack.num_blocks();
    // Warm-up: two laps fill every lazily-grown context buffer and run
    // the gap once round.
    for lap in 0..2 {
        for a in 0..n {
            stack.write(a, &payload(a, lap)).unwrap();
        }
    }
    let stack_allocs = count(|| {
        for lap in 2..2 + laps {
            for a in 0..n {
                let (old, new) = (payload(a, lap - 1), payload(a, lap));
                if a % 2 == 0 {
                    stack.write(a, &new).unwrap();
                } else {
                    stack.write_sum(a, &xor(&old, &new)).unwrap();
                }
            }
        }
    });
    assert_eq!(
        stack_allocs,
        0,
        "data-changing Write and WriteSum through the wear-levelled + \
         patrolled stack must not allocate after warm-up (counted \
         {stack_allocs} allocations over {} writes)",
        laps * n
    );
    for a in 0..n {
        assert_eq!(stack.read(a).unwrap().data, payload(a, 1 + laps));
    }
}
