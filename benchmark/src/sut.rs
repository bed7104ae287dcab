//! The systems under test: the three public `Submitter` surfaces, built
//! and prefilled the way a user of the library would.

use std::collections::VecDeque;

use pmck_cluster::{Cluster, ClusterConfig};
use pmck_core::{
    BusFault, ChipkillConfig, CoreError, PmemConfig, Request, Response, ServiceFailure, Stack,
    StackBuilder, SubmitTicket, Submitter,
};
use pmck_service::{ServiceClient, ShardedService};

use crate::oracle::{Mirror, Tally};
use crate::spec::{Params, Transport};
use crate::stream::Block;

/// Gap-move interval of the Start-Gap layer.
pub const WEAR_INTERVAL: u64 = 64;
/// Blocks the patrol scrubber visits per increment.
pub const PATROL_BLOCKS: u64 = 4;
/// Demand accesses between patrol increments.
pub const PATROL_EVERY: u64 = 1024;
/// Retry budget of the Write-CRC link.
pub const LINK_RETRIES: u32 = 3;
/// Nodes of the cluster workload.
pub const CLUSTER_NODES: usize = 3;

/// The engine configuration of every stack: the paper's design point,
/// which is also what `Cluster::local` builds its nodes with.
pub fn engine_config() -> ChipkillConfig {
    ChipkillConfig::default()
}

/// The common stack of every workload but `cluster_read` (whose nodes
/// `Cluster::local` builds itself).
pub fn stack_builder(blocks: u64, persistent: bool) -> StackBuilder {
    let b = StackBuilder::proposal(blocks, engine_config())
        .wear_levelled(WEAR_INTERVAL)
        .patrolled(PATROL_BLOCKS, PATROL_EVERY)
        .link_protected(BusFault::none(), LINK_RETRIES);
    if persistent {
        b.persistent(PmemConfig::default())
    } else {
        b
    }
}

/// One built system.
// One system lives at a time; boxing the service would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Sut {
    /// A bare-transport stack.
    Stack(Stack),
    /// A one-shard service and the producer lane that drives it.
    Service {
        /// Owns the shard worker; kept for its telemetry and shutdown.
        svc: ShardedService,
        /// The streaming lane the benchmark submits through.
        client: ServiceClient,
    },
    /// A three-node local cluster.
    Cluster(Cluster<Stack>),
}

impl Sut {
    /// Builds the system `p` describes, empty.
    fn build(p: &Params, seed: u64) -> Sut {
        match p.transport {
            Transport::Stack => {
                Sut::Stack(stack_builder(p.blocks, p.persistent).seed(seed).build())
            }
            Transport::Service => {
                let mut svc = ShardedService::with_clients(1, 1, seed, |_, shard_seed| {
                    stack_builder(p.blocks, p.persistent)
                        .seed(shard_seed)
                        .build()
                });
                let client = svc.take_client().expect("one lane was provisioned");
                Sut::Service { svc, client }
            }
            Transport::Cluster => Sut::Cluster(Cluster::local(
                CLUSTER_NODES,
                p.blocks,
                seed,
                ClusterConfig::default(),
            )),
        }
    }

    /// Builds the system and writes `prefill` into every block (then
    /// flushes, when persistent): the whole of what `setup_s` times. A
    /// service's shard is loaded in place through `with_shard`, which
    /// keeps the set-up out of the lane's latency telemetry.
    ///
    /// # Errors
    ///
    /// The first error a set-up request returned.
    pub fn set_up(p: &Params, seed: u64, prefill: &[Block]) -> Result<Sut, CoreError> {
        let mut sut = Sut::build(p, seed);
        let load = |port: &mut dyn Submitter| -> Result<(), CoreError> {
            for (addr, data) in prefill.iter().enumerate() {
                port.submit(&Request::Write {
                    addr: addr as u64,
                    data: *data,
                })?;
            }
            if p.persistent {
                port.submit(&Request::Flush)?;
            }
            Ok(())
        };
        match &mut sut {
            Sut::Service { svc, .. } => svc.with_shard(0, |stack| load(stack))?,
            other => load(other.port())?,
        }
        Ok(sut)
    }

    /// Stored bits beyond the user's, per user bit, of the system as
    /// built: the check bits of each stack (its tier census where it
    /// keeps one; a single-tier stack publishes none, and then the cost
    /// of the configuration it was built from) and, on the cluster,
    /// every replica after the first with its check bits.
    pub fn storage_overhead_ratio(&mut self) -> f64 {
        let of = |stack: &Stack| {
            let census = stack.tier_report();
            census.map_or(engine_config().total_storage_cost(), |r| r.blended_cost())
        };
        match self {
            Sut::Stack(stack) => of(stack),
            Sut::Service { svc, .. } => svc.with_shard(0, |stack| of(stack)),
            Sut::Cluster(c) => {
                let check = (0..c.nodes()).map(|n| of(c.node_mut(n))).sum::<f64>();
                c.replicas() as f64 * (1.0 + check / c.nodes() as f64) - 1.0
            }
        }
    }

    /// The surface requests go through.
    pub fn port(&mut self) -> &mut dyn Submitter {
        match self {
            Sut::Stack(s) => s,
            Sut::Service { client, .. } => client,
            Sut::Cluster(c) => c,
        }
    }
}

fn is_backpressure(e: &CoreError) -> bool {
    matches!(e, CoreError::Service(se) if se.kind() == ServiceFailure::Backpressure)
}

/// Polls of a ticket before the client starts yielding between them.
const SPINS: u32 = 2000;

/// Polls for `ticket`'s response without ever sleeping. A response that
/// is late by more than a few microseconds is a long operation, or the
/// worker is waiting for the very processor this loop spins on (the
/// kernel may wake it there, and would leave it there until the next
/// tick): from then on the client yields between polls.
pub fn redeem(port: &mut dyn Submitter, ticket: SubmitTicket) -> Result<Response, CoreError> {
    let mut polls = 0u32;
    loop {
        if let Some(resp) = port.poll(ticket) {
            return resp;
        }
        if polls < SPINS {
            polls += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Receives every response, with its request, in submission order.
pub type Done<'a> = &'a mut dyn FnMut(&Request, Result<Response, CoreError>);

/// The closed loop of the one client: at most `depth` requests
/// outstanding, redeemed in submission order.
///
/// On the service the client holds tickets and never sleeps: it polls
/// for the oldest response. With one producer and one worker on two
/// hardware threads neither side then parks, and a latency is the
/// library's, not the scheduler's wake-up time. On the eager transports
/// (`Stack`, `Cluster`) a request is done when `submit` returns and the
/// depth does not matter.
pub struct Window {
    depth: usize,
    ticketed: bool,
    inflight: VecDeque<(SubmitTicket, Request)>,
    /// `try_submit` calls refused with backpressure.
    pub refused: u64,
}

impl Window {
    /// A window of `depth` outstanding requests on `transport`.
    pub fn new(transport: Transport, depth: usize) -> Self {
        Window {
            depth: depth.max(1),
            ticketed: transport == Transport::Service,
            inflight: VecDeque::with_capacity(depth),
            refused: 0,
        }
    }

    fn redeem_oldest(&mut self, port: &mut dyn Submitter, done: Done) {
        if let Some((ticket, req)) = self.inflight.pop_front() {
            done(&req, redeem(port, ticket));
        }
    }

    /// Submits `req`, first redeeming the oldest outstanding request if
    /// the window is full. A refused submission is retried until it is
    /// accepted, so no request goes unserved.
    pub fn submit(&mut self, port: &mut dyn Submitter, req: &Request, done: Done) {
        if !self.ticketed {
            return done(req, port.submit(req));
        }
        if self.inflight.len() == self.depth {
            self.redeem_oldest(port, done);
        }
        loop {
            match port.try_submit(req) {
                Ok(ticket) => return self.inflight.push_back((ticket, *req)),
                Err(e) if is_backpressure(&e) => {
                    self.refused += 1;
                    self.redeem_oldest(port, done);
                }
                Err(e) => return done(req, Err(e)),
            }
        }
    }

    /// Redeems everything outstanding.
    pub fn drain(&mut self, port: &mut dyn Submitter, done: Done) {
        while !self.inflight.is_empty() {
            self.redeem_oldest(port, done);
        }
    }
}

/// Runs `reqs` through `window`, judging every response against the
/// mirror. The caller times it; nothing here reads a clock.
pub fn run_checked(
    port: &mut dyn Submitter,
    window: &mut Window,
    reqs: &[Request],
    mirror: &mut Mirror,
    tally: &mut Tally,
) {
    let mut judge = |req: &Request, resp: Result<Response, CoreError>| {
        tally.record(mirror.judge(req, &resp));
    };
    for req in reqs {
        window.submit(port, req, &mut judge);
    }
    window.drain(port, &mut judge);
    tally.backpressure_retries += std::mem::take(&mut window.refused);
}
