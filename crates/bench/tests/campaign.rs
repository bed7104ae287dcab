//! The soak campaign (`pmck_bench::campaign::run`), pinned on all three
//! systems: the same plan gives the same counts on a `Stack` and on a
//! 1-shard service over an identically built stack, a transport that
//! loses one write fails the verdict, and the 3-node cluster plan
//! settles with no stale or different replica.

use pmck_bench::campaign::{self, built_in_schedule, Plan, Sut};
use pmck_cluster::{Cluster, ClusterConfig};
use pmck_core::{
    ChipkillConfig, CoreError, Request, Response, Stack, StackBuilder, SubmitTicket, Submitter,
};
use pmck_service::ShardedService;

const CYCLES: u64 = 3_000;
const SEED: u64 = 0x50AC;

fn plan(crash: bool) -> Plan {
    Plan {
        cycles: CYCLES,
        seed: SEED,
        schedule: built_in_schedule(CYCLES, false),
        crash,
        tier: false,
        restripe: true,
    }
}

fn stack(crash: bool) -> Stack {
    let base = StackBuilder::proposal(64, ChipkillConfig::default()).restripeable();
    campaign::stack(base, SEED ^ 0x5011_D1E5, crash)
}

#[test]
fn stack_and_one_shard_service_run_the_same_campaign() {
    for crash in [false, true] {
        let on_stack = campaign::run(&mut stack(crash), &plan(crash));
        let mut svc = ShardedService::from_stacks(vec![stack(crash)]);
        let on_service = campaign::run(&mut svc, &plan(crash));
        assert!(on_stack.passed(), "crash={crash}: {:?}", on_stack.counts);
        assert!(
            on_service.passed(),
            "crash={crash}: {:?}",
            on_service.counts
        );
        // Op counts, read-path split, repairs, flushes and cuts alike.
        assert_eq!(on_stack.counts, on_service.counts, "crash={crash}");
        assert!(on_stack.counts.chip_repairs > 0 && on_stack.counts.chipkill_erasure > 0);
        assert_eq!(on_stack.counts.power_cuts > 0, crash);
    }
}

/// Forwards to `inner`, except that the `drop_at`-th `Write` it sees is
/// acknowledged without being applied.
struct LosesOneWrite<S> {
    inner: S,
    writes_seen: u64,
    drop_at: u64,
}

impl<S: Submitter> Submitter for LosesOneWrite<S> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        if matches!(req, Request::Write { .. }) {
            self.writes_seen += 1;
            if self.writes_seen == self.drop_at {
                return Ok(Response::Written);
            }
        }
        self.inner.submit(req)
    }
    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        self.inner.try_submit(req)
    }
    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.inner.poll(ticket)
    }
    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        self.inner.wait(ticket)
    }
}

impl<S: Submitter> Sut for LosesOneWrite<S> {}

#[test]
fn a_lost_write_fails_the_verdict() {
    let mut plan = plan(false);
    plan.restripe = false;
    let mut honest = LosesOneWrite {
        inner: stack(false),
        writes_seen: 0,
        drop_at: u64::MAX,
    };
    assert!(campaign::run(&mut honest, &plan).passed());
    // Lose the campaign's last write: nothing overwrites it afterwards,
    // so the closing read-back has to see the stale block.
    let mut lossy = LosesOneWrite {
        inner: stack(false),
        writes_seen: 0,
        drop_at: honest.writes_seen,
    };
    let report = campaign::run(&mut lossy, &plan);
    assert!(!report.passed(), "the mirror oracle missed a lost write");
    assert!(report.counts.readback_mismatches >= 1);
}

#[test]
fn three_node_cluster_settles_with_no_stale_or_different_replica() {
    let plan = Plan {
        cycles: CYCLES,
        seed: SEED,
        ..Plan::default()
    };
    let mut cluster = Cluster::sharded(3, 2, 64, SEED, ClusterConfig::default());
    let report = campaign::run(&mut cluster, &plan);
    assert!(report.passed(), "{:?} {:?}", report.counts, report.topology);
    assert_eq!(
        report.topology,
        [
            ("sweep_unreadable", 0),
            ("replica_mismatches", 0),
            ("stale_after_sweep", 0)
        ]
    );
    // The node really died and came back: its missed writes were healed.
    assert!(cluster.stats().rebuilt_blocks > 0);
    assert!(report.counts.reads > 0 && report.counts.writes > 0);
}
