//! Proves the ring-based service's steady-state submission path performs
//! zero heap allocations after warm-up, extending the
//! `alloc_free_read` pattern from `pmck-core` across the whole
//! transport: routing, ticket issue, SPSC push, completion drain,
//! latency telemetry, and response collection.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counter is process-global. The shard workers run concurrently inside
//! the measurement window, so the property proven here is stronger than
//! the single-threaded one — neither the client path *nor* the worker
//! path (clean reads through the stack) may allocate.

use pmck_core::{ChipkillConfig, Request, Response, StackBuilder, Submitter};
use pmck_rt::alloc::{count, CountingAlloc};
use pmck_service::ShardedService;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_submission_is_allocation_free_after_warmup() {
    let shards = 4usize;
    let mut svc = ShardedService::with_clients(shards, 1, 13, |_, s| {
        StackBuilder::proposal(32, ChipkillConfig::default())
            .seed(s)
            .build()
    });
    let total = svc.num_blocks();

    // Populate every block, then warm the service's own lane: the first
    // laps build each shard's lazily-built engine scratch.
    for a in 0..total {
        let written = svc.submit(&Request::Write {
            addr: a,
            data: [a as u8; 64],
        });
        assert_eq!(written, Ok(Response::Written));
    }
    for _ in 0..4 {
        for a in 0..total {
            svc.submit(&Request::Read(a)).unwrap();
        }
    }

    // --- `Submitter::submit` on the service: submit + wait per request. ---
    let submit_allocs = count(|| {
        for _ in 0..4 {
            for a in 0..total {
                let data = svc.submit(&Request::Read(a)).unwrap().read().unwrap().data;
                assert_eq!(data[0], a as u8);
            }
        }
    });
    assert_eq!(
        submit_allocs,
        0,
        "steady-state Submitter::submit must not allocate after warm-up \
         (counted {submit_allocs} allocations over {} requests)",
        4 * total
    );

    // --- A client lane: ticket issue + redemption, windowed. ---
    let mut client = svc.take_client().expect("one spare lane");
    // Warm the client's own lane (slots, parker).
    for a in 0..total {
        let t = client.try_submit(&Request::Read(a)).unwrap();
        client.wait(t).unwrap();
    }
    let stream_allocs = count(|| {
        for _ in 0..4 {
            // Keep a small window in flight to exercise out-of-order
            // completion drains, not just ping-pong.
            let mut pending = [None; 8];
            for a in 0..total {
                let i = (a % 8) as usize;
                if let Some(t) = pending[i].take() {
                    client.wait(t).unwrap().read().unwrap();
                }
                pending[i] = Some(client.try_submit(&Request::Read(a)).unwrap());
            }
            for t in pending.into_iter().flatten() {
                client.wait(t).unwrap().read().unwrap();
            }
        }
    });
    assert_eq!(
        stream_allocs,
        0,
        "steady-state try_submit/wait must not allocate after warm-up \
         (counted {stream_allocs} allocations over {} tickets)",
        4 * total
    );

    svc.shutdown();
}
