//! Multi-producer ticket and broadcast traffic on one service: two
//! producer threads, each with its own `ServiceClient`, drive a 4-shard
//! persistent service over disjoint halves of the address space. Each
//! stream mixes writes, reads and `Flush` broadcasts, and never redeems
//! a ticket until admission control pushes back, so it overruns the
//! ticket window again and again while the other producer's requests
//! and flushes interleave on the same shard workers.
//!
//! Every read must return that producer's last write, every `Flush`
//! must answer `Flushed`, the final contents must equal the union of the
//! two producers' mirrors, and the service's latency report must hold
//! one sample for every redeemed ticket, none dropped.

use std::collections::VecDeque;

use pmck_core::{
    ChipkillConfig, CoreError, PmemConfig, Request, Response, ServiceFailure, StackBuilder,
    SubmitTicket, Submitter,
};
use pmck_rt::rng::{stream_seed, Rng, StdRng};
use pmck_service::{ServiceClient, ShardedService};

const SHARDS: usize = 4;
const BLOCKS_PER_SHARD: u64 = 32;
const PRODUCERS: usize = 2;
/// Requests per producer: several ticket windows' worth.
const OPS: usize = 1500;
const SEED: u64 = 0x3A7;

fn prefill(addr: u64) -> [u8; 64] {
    [addr as u8 ^ 0xA5; 64]
}

/// What a redeemed ticket must answer.
enum Expect {
    Read { addr: u64, data: [u8; 64] },
    Written,
    Flushed,
}

fn check(p: usize, res: Result<Response, CoreError>, expect: Expect) {
    match expect {
        Expect::Read { addr, data } => {
            let got = res.unwrap_or_else(|e| panic!("producer {p}: read {addr}: {e:?}"));
            let got = got.read().expect("a read answers Read").data;
            assert_eq!(
                got, data,
                "producer {p}: block {addr} is not its last write"
            );
        }
        Expect::Written => assert_eq!(res, Ok(Response::Written), "producer {p}: write"),
        Expect::Flushed => assert!(
            matches!(res, Ok(Response::Flushed { .. })),
            "producer {p}: flush answered {res:?}"
        ),
    }
}

/// What one producer did: tickets redeemed, times the window was full
/// when admission control pushed back, flushes sent, and its mirror of
/// the blocks it owns (`lo..lo + mirror.len()`).
struct Tally {
    redeemed: u64,
    window_full: u64,
    flushes: u64,
    lo: u64,
    mirror: Vec<[u8; 64]>,
}

fn produce(p: usize, mut client: ServiceClient, lo: u64, blocks: u64) -> Tally {
    let mut rng = StdRng::seed_from_u64(stream_seed(SEED, p as u64));
    let mut tally = Tally {
        redeemed: 0,
        window_full: 0,
        flushes: 0,
        lo,
        mirror: (lo..lo + blocks).map(prefill).collect(),
    };
    let mut fifo: VecDeque<(SubmitTicket, Expect)> = VecDeque::new();
    for _ in 0..OPS {
        let addr = lo + rng.gen_range(0..blocks);
        let (req, expect) = match rng.gen_range(0u32..16) {
            0 => {
                tally.flushes += 1;
                (Request::Flush, Expect::Flushed)
            }
            1..=6 => {
                let mut data = [0u8; 64];
                rng.fill_bytes(&mut data[..]);
                // Ring FIFO: every later read of `addr` runs after this.
                tally.mirror[(addr - lo) as usize] = data;
                (Request::Write { addr, data }, Expect::Written)
            }
            _ => {
                let data = tally.mirror[(addr - lo) as usize];
                (Request::Read(addr), Expect::Read { addr, data })
            }
        };
        let ticket = loop {
            match client.try_submit(&req) {
                Ok(t) => break t,
                Err(CoreError::Service(se)) if se.kind() == ServiceFailure::Backpressure => {
                    if client.in_flight() == client.window() {
                        tally.window_full += 1;
                    }
                    let (t, old) = fifo.pop_front().expect("backpressure with no tickets");
                    check(p, client.wait(t), old);
                    tally.redeemed += 1;
                }
                Err(other) => panic!("producer {p}: {other:?}"),
            }
        };
        fifo.push_back((ticket, expect));
    }
    for (t, expect) in fifo.drain(..) {
        check(p, client.wait(t), expect);
        tally.redeemed += 1;
    }
    assert_eq!(client.in_flight(), 0);
    tally
}

#[test]
fn two_producers_stream_writes_reads_and_flushes_through_one_service() {
    let mut svc = ShardedService::with_clients(SHARDS, PRODUCERS, SEED, |_, seed| {
        StackBuilder::proposal(BLOCKS_PER_SHARD, ChipkillConfig::default())
            .persistent(PmemConfig::default())
            .seed(seed)
            .build()
    });
    let total = svc.num_blocks();
    let mut redeemed = 0u64;
    for a in 0..total {
        let res = svc.submit(&Request::Write {
            addr: a,
            data: prefill(a),
        });
        assert_eq!(res, Ok(Response::Written));
        redeemed += 1;
    }

    let half = total / PRODUCERS as u64;
    let clients: Vec<ServiceClient> = (0..PRODUCERS)
        .map(|_| svc.take_client().expect("one lane per producer"))
        .collect();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(p, client)| s.spawn(move || produce(p, client, p as u64 * half, half)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });

    let mut union = vec![[0u8; 64]; total as usize];
    for (p, t) in tallies.iter().enumerate() {
        assert!(t.window_full > 0, "producer {p} never overran its window");
        assert!(t.flushes > 0, "producer {p} sent no flush");
        redeemed += t.redeemed;
        union[t.lo as usize..][..t.mirror.len()].copy_from_slice(&t.mirror);
    }
    for (a, want) in union.iter().enumerate() {
        let got = svc.submit(&Request::Read(a as u64)).unwrap();
        assert_eq!(&got.read().unwrap().data, want, "block {a}");
        redeemed += 1;
    }

    // Nothing read the latency while the producers ran, so no sample
    // met a held lock: every redeemed ticket is one sample.
    let (per_shard, broadcast) = svc.latency_report();
    let sampled = per_shard.iter().map(|h| h.count()).sum::<u64>() + broadcast.count();
    assert_eq!(
        sampled, redeemed,
        "every redeemed ticket is one latency sample"
    );
    assert_eq!(svc.dropped_samples(), 0);
    svc.shutdown();
}
