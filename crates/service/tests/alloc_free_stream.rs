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

use pmck_core::{ChipkillConfig, Request, Response, StackBuilder};
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

    // Populate every block, then warm both planes: the first batches
    // grow the reusable response Vec, the client's batch FIFO, and each
    // shard's lazily-built engine scratch.
    let writes: Vec<Request> = (0..total)
        .map(|a| Request::Write {
            addr: a,
            data: [a as u8; 64],
        })
        .collect();
    let mut out = Vec::new();
    svc.submit_batch_into(&writes, &mut out);
    assert!(out.iter().all(|r| *r == Ok(Response::Written)));

    let reads: Vec<Request> = (0..total).map(Request::Read).collect();
    for _ in 0..4 {
        svc.submit_batch_into(&reads, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
    }

    // --- Batched plane: clean reads through reused buffers. ---
    let batch_allocs = count(|| {
        for _ in 0..4 {
            svc.submit_batch_into(&reads, &mut out);
            for (a, r) in out.iter().enumerate() {
                let data = r.as_ref().unwrap().read().unwrap().data;
                assert_eq!(data[0], a as u8);
            }
        }
    });
    assert_eq!(
        batch_allocs,
        0,
        "steady-state submit_batch_into must not allocate after warm-up \
         (counted {batch_allocs} allocations over {} requests)",
        4 * total
    );

    // --- Streaming plane: ticket issue + redemption, windowed. ---
    let mut client = svc.take_client().expect("one spare lane");
    // Warm the client's own lane (slots, FIFO capacity, parker).
    for a in 0..total {
        let t = client.try_submit(&Request::Read(a)).unwrap();
        client.wait_response(t).unwrap();
    }
    let stream_allocs = count(|| {
        for _ in 0..4 {
            // Keep a small window in flight to exercise out-of-order
            // completion drains, not just ping-pong.
            let mut pending = [None; 8];
            for a in 0..total {
                let i = (a % 8) as usize;
                if let Some(t) = pending[i].take() {
                    let r: Result<Response, _> = client.wait_response(t);
                    r.unwrap().read().unwrap();
                }
                pending[i] = Some(client.try_submit(&Request::Read(a)).unwrap());
            }
            for t in pending.into_iter().flatten() {
                client.wait_response(t).unwrap().read().unwrap();
            }
        }
    });
    assert_eq!(
        stream_allocs,
        0,
        "steady-state try_submit/wait_response must not allocate after \
         warm-up (counted {stream_allocs} allocations over {} tickets)",
        4 * total
    );

    svc.shutdown();
}
