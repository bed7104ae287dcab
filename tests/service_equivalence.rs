//! Determinism/equivalence: a 4-shard [`ShardedService`] is bit-for-bit
//! a deterministic function of its seed and request stream, independent
//! of thread scheduling.
//!
//! For several seeds, the same benign campaign (writes, reads, scrubs,
//! low-rate injection, patrol steps, verifies) is driven twice:
//!
//! 1. through the sharded service's `Submitter` surface in batches, and
//! 2. through four standalone [`Stack`]s — one per shard, seeded with
//!    the same derived stream seeds ([`stream_seed`]) — replaying each
//!    shard's share of the stream sequentially in batch order.
//!
//! The two executions must agree on every addressed response, on every
//! merged broadcast response, on the summed [`CoreStats`], and on the
//! final contents of every block.

use pmck::chipkill::{
    ChipkillConfig, CoreError, CoreStats, PmemConfig, Request, Response, Stack, StackBuilder,
    SubmitTicket, Submitter,
};
use pmck::rt::rng::{stream_seed, Rng, StdRng};
use pmck::service::ShardedService;

const SHARDS: usize = 4;
const BLOCKS_PER_SHARD: u64 = 32;
const ROUNDS: usize = 60;
const BATCH: usize = 24;

fn build_stack(blocks: u64, seed: u64) -> Stack {
    StackBuilder::proposal(blocks, ChipkillConfig::default())
        .patrolled(8, 0)
        .wear_levelled(4)
        .seed(seed)
        .build()
}

/// One benign batch of requests over the interleaved address space.
fn gen_batch(rng: &mut StdRng, total: u64, round: usize) -> Vec<Request> {
    let mut batch = Vec::with_capacity(BATCH + 1);
    for _ in 0..BATCH {
        let addr = rng.gen_range(0..total);
        let req = match rng.gen_range(0u32..8) {
            0..=2 => {
                let mut data = [0u8; 64];
                rng.fill_bytes(&mut data[..]);
                Request::Write { addr, data }
            }
            3..=5 => Request::Read(addr),
            6 => Request::Scrub(addr),
            _ => Request::PatrolStep,
        };
        batch.push(req);
    }
    // A sprinkle of whole-device traffic: low-rate injection (well
    // inside the RS threshold) and a consistency check.
    if round % 10 == 3 {
        batch.push(Request::InjectRber(2e-6));
    }
    if round % 10 == 7 {
        batch.push(Request::Verify);
    }
    batch
}

/// Streams `batch` through the service: every ticket is issued before
/// the first is redeemed (a batch fits the window and every ring), so
/// the shards run it in parallel; responses come back in request order.
fn run_batch(svc: &mut ShardedService, batch: &[Request]) -> Vec<Result<Response, CoreError>> {
    let tickets: Vec<SubmitTicket> = batch
        .iter()
        .map(|req| svc.try_submit(req).expect("a batch fits the ticket window"))
        .collect();
    tickets.into_iter().map(|t| svc.wait(t)).collect()
}

/// Replays `batch` against the standalone per-shard stacks in batch
/// order, producing the response the service should give each request:
/// addressed requests run on the owning shard; broadcasts run on every
/// shard in index order with their responses merged the way the service
/// merges them.
fn replay_batch(stacks: &mut [Stack], batch: &[Request]) -> Vec<Result<Response, CoreError>> {
    let n = stacks.len() as u64;
    batch
        .iter()
        .map(|req| match req.addr() {
            Some(addr) => {
                let shard = (addr % n) as usize;
                stacks[shard].submit(&req.with_addr(addr / n))
            }
            None => {
                let mut merged = None;
                for stack in stacks.iter_mut() {
                    let res = stack.submit(req);
                    merged = Some(match (merged, res) {
                        (None, r) => r,
                        (Some(Err(e)), _) => Err(e),
                        (Some(Ok(_)), Err(e)) => Err(e),
                        (Some(Ok(a)), Ok(b)) => Ok(merge(a, b)),
                    });
                }
                merged.expect("at least one shard")
            }
        })
        .collect()
}

/// The service's broadcast merge, restated for the benign request mix
/// this campaign uses.
fn merge(a: Response, b: Response) -> Response {
    match (a, b) {
        (Response::Patrolled(mut x), Response::Patrolled(y)) => {
            x.blocks_scrubbed += y.blocks_scrubbed;
            x.blocks_skipped += y.blocks_skipped;
            x.completed_pass &= y.completed_pass;
            Response::Patrolled(x)
        }
        (Response::Injected { bits: x }, Response::Injected { bits: y }) => {
            Response::Injected { bits: x + y }
        }
        (Response::Verified(x), Response::Verified(y)) => Response::Verified(x & y),
        (Response::Flushed { lines: x }, Response::Flushed { lines: y }) => {
            Response::Flushed { lines: x + y }
        }
        (Response::PowerLost { lost_lines: x }, Response::PowerLost { lost_lines: y }) => {
            Response::PowerLost { lost_lines: x + y }
        }
        (Response::Recovered(mut x), Response::Recovered(y)) => {
            x.merge(&y);
            Response::Recovered(x)
        }
        (first, _) => first,
    }
}

#[test]
fn four_shard_service_matches_sequential_replay() {
    for seed in [11u64, 42, 9001] {
        // The service and the standalone stacks derive per-shard seeds
        // the same way, so shard s behaves identically in both worlds.
        let mut svc = ShardedService::new(SHARDS, seed, |_, shard_seed| {
            build_stack(BLOCKS_PER_SHARD, shard_seed)
        });
        let mut stacks: Vec<Stack> = (0..SHARDS)
            .map(|s| build_stack(BLOCKS_PER_SHARD, stream_seed(seed, s as u64)))
            .collect();
        let total = svc.num_blocks();
        assert_eq!(total, SHARDS as u64 * BLOCKS_PER_SHARD);

        // The campaign stream itself comes from one workload RNG and is
        // fed verbatim to both executions.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE0_0111);
        for round in 0..ROUNDS {
            let batch = gen_batch(&mut rng, total, round);
            let got = run_batch(&mut svc, &batch);
            let want = replay_batch(&mut stacks, &batch);
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    g, w,
                    "seed {seed} round {round} request {i}: {:?}",
                    batch[i]
                );
            }
        }

        // Summed engine counters agree exactly...
        let svc_stats = svc.core_stats().expect("chipkill base");
        let mut seq_stats = CoreStats::default();
        for stack in &stacks {
            seq_stats.merge(&stack.core_stats().expect("chipkill base"));
        }
        assert_eq!(
            svc_stats, seq_stats,
            "seed {seed}: summed CoreStats diverged"
        );

        // ...and so does every block's final content (compared after
        // the stats, since reads bump counters on both sides alike).
        for (shard, seq_stack) in stacks.iter_mut().enumerate() {
            for local in 0..seq_stack.num_blocks() {
                let svc_data = svc.with_shard(shard, |stack| stack.read(local).map(|o| o.data));
                let seq_data = seq_stack.read(local).map(|o| o.data);
                assert_eq!(
                    svc_data, seq_data,
                    "seed {seed}: shard {shard} block {local} contents diverged"
                );
            }
        }
        svc.shutdown();
    }
}

/// The persistent variant: a 4-shard service over `StackBuilder::persistent`
/// stacks, with `Flush`/`PowerCut`/`Recover` broadcasts mixed into the
/// campaign, stays bit-identical to sequential per-shard replay. Power
/// cuts roll unflushed writes back to the last fence on both sides, so
/// the merged broadcast responses, the summed counters, and the final
/// block contents must all agree exactly.
#[test]
fn persistent_shard_broadcasts_match_sequential_replay() {
    for seed in [5u64, 77] {
        let build = |blocks: u64, s: u64| -> Stack {
            StackBuilder::proposal(blocks, ChipkillConfig::default())
                .persistent(PmemConfig::default())
                .seed(s)
                .build()
        };
        let mut svc = ShardedService::new(SHARDS, seed, |_, s| build(BLOCKS_PER_SHARD, s));
        let mut stacks: Vec<Stack> = (0..SHARDS)
            .map(|s| build(BLOCKS_PER_SHARD, stream_seed(seed, s as u64)))
            .collect();
        let total = svc.num_blocks();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1_0E5);
        for round in 0..30 {
            let mut batch = Vec::with_capacity(BATCH + 2);
            for _ in 0..BATCH {
                let addr = rng.gen_range(0..total);
                batch.push(match rng.gen_range(0u32..6) {
                    0..=2 => {
                        let mut data = [0u8; 64];
                        rng.fill_bytes(&mut data[..]);
                        Request::Write { addr, data }
                    }
                    3..=4 => Request::Read(addr),
                    _ => Request::Scrub(addr),
                });
            }
            if round % 3 == 1 {
                batch.push(Request::Flush);
            }
            if round % 7 == 5 {
                // Cut power and immediately recover: writes since the
                // last flush are rolled back identically on both sides.
                batch.push(Request::PowerCut);
                batch.push(Request::Recover);
            }
            let got = run_batch(&mut svc, &batch);
            let want = replay_batch(&mut stacks, &batch);
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    g, w,
                    "seed {seed} round {round} request {i}: {:?}",
                    batch[i]
                );
            }
        }

        let svc_stats = svc.core_stats().expect("chipkill base");
        let mut seq_stats = CoreStats::default();
        for stack in &stacks {
            seq_stats.merge(&stack.core_stats().expect("chipkill base"));
        }
        assert_eq!(
            svc_stats, seq_stats,
            "seed {seed}: summed CoreStats diverged"
        );

        for (shard, seq_stack) in stacks.iter_mut().enumerate() {
            for local in 0..seq_stack.num_blocks() {
                let svc_data = svc.with_shard(shard, |stack| stack.read(local).map(|o| o.data));
                let seq_data = seq_stack.read(local).map(|o| o.data);
                assert_eq!(
                    svc_data, seq_data,
                    "seed {seed}: shard {shard} block {local} contents diverged"
                );
            }
        }
        svc.shutdown();
    }
}

/// The streaming plane under backpressure: an 8-shard service driven
/// through a `ServiceClient`'s tickets — deliberately overrunning the
/// ticket window every round so admission control must push back — stays
/// bit-identical to sequential per-shard replay.
///
/// Requests are streamed with `try_submit`; every
/// [`ServiceFailure::Backpressure`] rejection redeems the oldest
/// outstanding ticket and retries, so the window recycles under
/// pressure exactly as a real producer would drive it. Per-shard ring
/// FIFO plus shard-index-ordered broadcast merging is what makes this
/// equal to sequential replay — this test is the proof.
#[test]
fn eight_shard_streaming_under_backpressure_matches_sequential_replay() {
    use pmck::chipkill::ServiceFailure;
    use std::collections::VecDeque;

    const STREAM_SHARDS: usize = 8;
    const STREAM_ROUNDS: usize = 12;
    // More in-flight candidates than the ticket window, so every round
    // is guaranteed to hit window backpressure at least once.
    const STREAM_BATCH: usize = 300;

    for seed in [3u64, 19, 4242] {
        let mut svc = ShardedService::with_clients(STREAM_SHARDS, 1, seed, |_, shard_seed| {
            build_stack(BLOCKS_PER_SHARD, shard_seed)
        });
        let mut client = svc.take_client().expect("one spare lane");
        let mut stacks: Vec<Stack> = (0..STREAM_SHARDS)
            .map(|s| build_stack(BLOCKS_PER_SHARD, stream_seed(seed, s as u64)))
            .collect();
        let total = svc.num_blocks();
        let window = client.window();
        assert!(STREAM_BATCH > window, "batch must overrun the window");

        let mut rng = StdRng::seed_from_u64(seed ^ 0x57_12EA);
        let mut backpressured = 0u64;
        for round in 0..STREAM_ROUNDS {
            let mut batch = Vec::with_capacity(STREAM_BATCH);
            for i in 0..STREAM_BATCH {
                // Every third round skews hard onto one shard so the
                // per-shard submission ring (much smaller than the
                // window) fills too, not just the ticket window.
                let addr = if round % 3 == 2 {
                    let hot = (round / 3) % STREAM_SHARDS;
                    let local = rng.gen_range(0..BLOCKS_PER_SHARD);
                    local * STREAM_SHARDS as u64 + hot as u64
                } else {
                    rng.gen_range(0..total)
                };
                let req = match rng.gen_range(0u32..8) {
                    0..=2 => {
                        let mut data = [0u8; 64];
                        rng.fill_bytes(&mut data[..]);
                        Request::Write { addr, data }
                    }
                    3..=5 => Request::Read(addr),
                    6 => Request::Scrub(addr),
                    _ => Request::PatrolStep,
                };
                batch.push(req);
                if i == STREAM_BATCH / 2 && round % 4 == 1 {
                    batch.push(Request::Verify);
                }
            }

            // Stream the whole batch through the ticket API, redeeming
            // the oldest ticket whenever admission control pushes back.
            let mut out = vec![None; batch.len()];
            let mut fifo: VecDeque<(usize, SubmitTicket)> = VecDeque::new();
            for (i, req) in batch.iter().enumerate() {
                loop {
                    match client.try_submit(req) {
                        Ok(t) => {
                            fifo.push_back((i, t));
                            break;
                        }
                        Err(CoreError::Service(se))
                            if se.kind() == ServiceFailure::Backpressure =>
                        {
                            backpressured += 1;
                            let (j, t) = fifo.pop_front().expect("backpressure with no tickets");
                            out[j] = Some(client.wait(t));
                        }
                        Err(other) => panic!("seed {seed} round {round}: {other:?}"),
                    }
                }
            }
            for (j, t) in fifo.drain(..) {
                out[j] = Some(client.wait(t));
            }
            assert_eq!(client.in_flight(), 0);

            let want = replay_batch(&mut stacks, &batch);
            for (i, (g, w)) in out.iter().zip(want.iter()).enumerate() {
                let g = g.as_ref().expect("every request resolved");
                assert_eq!(
                    g, w,
                    "seed {seed} round {round} request {i}: {:?}",
                    batch[i]
                );
            }
        }
        assert!(
            backpressured > 0,
            "seed {seed}: the campaign never hit backpressure — the test \
             no longer exercises admission control"
        );

        let svc_stats = svc.core_stats().expect("chipkill base");
        let mut seq_stats = CoreStats::default();
        for stack in &stacks {
            seq_stats.merge(&stack.core_stats().expect("chipkill base"));
        }
        assert_eq!(
            svc_stats, seq_stats,
            "seed {seed}: summed CoreStats diverged"
        );

        for (shard, seq_stack) in stacks.iter_mut().enumerate() {
            for local in 0..seq_stack.num_blocks() {
                let svc_data = svc.with_shard(shard, |stack| stack.read(local).map(|o| o.data));
                let seq_data = seq_stack.read(local).map(|o| o.data);
                assert_eq!(
                    svc_data, seq_data,
                    "seed {seed}: shard {shard} block {local} contents diverged"
                );
            }
        }
        svc.shutdown();
    }
}
