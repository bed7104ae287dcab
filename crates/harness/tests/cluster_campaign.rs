//! The replicated tier answers to the request-stream oracle
//! (`pmck_bench::campaign::check`) like every other transport.
//!
//! Each case replays one seeded stream through every transport at once,
//! from a bare `Stack` to a 3-node cluster of 2-shard services (two
//! replicas per block). Each must agree with the one mirror at every
//! read and at the closing read-back. After settling, every replica of
//! every block must decode to the mirror, directly off its node. The
//! scenario disturbs only the cluster's topology or one node's media:
//!
//! * **clean**: no disturbance.
//! * **node-loss**: a node dies at 35% of the span, is revived and
//!   rebuilt at 70%.
//! * **slow-replica**: a node is suspended at 30% and resumed at 60%.
//! * **fault-mix**: on one node only, a row fault past the RS threshold,
//!   then the same chip dies, then the node's boot scrub rebuilds it.
//!
//! Failures shrink toward shorter streams and persist into
//! `tests/corpus/`. The checked-in crafted entry pins node loss on
//! seed 0.

use pmck_bench::campaign::{check, Leg};
use pmck_harness::{ClusterScenario, Runner, StreamPlan};

const SEEDS: usize = 3;
/// Every transport; the service legs also answer to per-shard replay.
const LEGS: [Leg; 6] = [
    Leg::Stack,
    Leg::Service(1),
    Leg::Service(4),
    Leg::Service(8),
    Leg::Cluster(1),
    Leg::Cluster(3),
];
const CASES: usize = ClusterScenario::ALL.len() * SEEDS;

/// 3 seeds × {clean, node-loss, slow-replica, fault-mix}, plus the
/// crafted node-loss corpus entry, each through every transport.
#[test]
fn cluster_matches_single_node_replay_across_scenarios() {
    let mut grid = (0..CASES).map(|i| StreamPlan {
        scenario: ClusterScenario::ALL[i % ClusterScenario::ALL.len()],
        seed: (i / ClusterScenario::ALL.len()) as u64,
        cycles: 200,
        persistent: false,
    });
    let report = Runner::new("cluster:differential")
        .seed(0xC1)
        .cases(CASES)
        .run(
            |_| grid.next().expect("one case per grid point"),
            |plan| check(plan, &LEGS).map(drop),
        );
    assert_eq!(report.generated, CASES);
    assert!(
        report.corpus_replayed >= 1,
        "the crafted node-loss corpus entry did not replay"
    );
}
