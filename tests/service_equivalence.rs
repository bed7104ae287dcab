//! Determinism/equivalence: a sharded service is bit-for-bit a
//! deterministic function of its seed and request stream, independent
//! of thread scheduling.
//!
//! Each test hands seeded streams to the request-stream oracle
//! (`pmck_bench::campaign::check`). It runs every service leg's stream
//! again, shard by shard, on standalone stacks seeded the same way, and
//! requires the same answer to every request and merged broadcast, the
//! same summed `CoreStats` and the same final contents. Besides that,
//! every leg, a bare `Stack` included, must agree with the one mirror.

use pmck_bench::campaign::{check, Leg};
use pmck_harness::{ClusterScenario, StreamPlan};

fn plan(seed: u64, cycles: u64, persistent: bool) -> StreamPlan {
    StreamPlan {
        scenario: ClusterScenario::Clean,
        seed,
        cycles,
        persistent,
    }
}

#[test]
fn four_shard_service_matches_sequential_replay() {
    for seed in [11, 42, 9001] {
        let legs = [Leg::Stack, Leg::Service(1), Leg::Service(4)];
        check(&plan(seed, 1_500, false), &legs).unwrap();
    }
}

/// Power cuts roll unflushed writes back to the last fence on the
/// service, on its replay and in the mirror alike.
#[test]
fn persistent_shard_broadcasts_match_sequential_replay() {
    for seed in [5, 77] {
        let legs = [Leg::Stack, Leg::Service(1), Leg::Service(4)];
        check(&plan(seed, 800, true), &legs).unwrap();
    }
}

/// The streaming plane under backpressure: an 8-shard service behind a
/// `ServiceClient` that redeems only when admission control refuses,
/// with stretches of the stream pinned to one shard so its submission
/// ring fills as well as the ticket window. Per-shard ring FIFO plus
/// shard-ordered broadcast merging is what makes this equal to
/// sequential replay.
#[test]
fn eight_shard_streaming_under_backpressure_matches_sequential_replay() {
    for seed in [3, 19, 4242] {
        let [window, ring] = check(&plan(seed, 1_200, false), &[Leg::Service(8)]).unwrap();
        assert!(
            window > 0,
            "seed {seed}: the ticket window never pushed back"
        );
        assert!(
            ring > 0,
            "seed {seed}: no pinned stretch filled its shard's ring"
        );
    }
}
