//! `pmck-service` — a sharded, multi-threaded memory service over the
//! chipkill protection stack.
//!
//! The paper's runtime path (per-block RS threshold decode with VLEW
//! fallback) is embarrassingly parallel across independent 64 B blocks.
//! [`ShardedService`] exploits that: it owns N independent
//! [`pmck_core::Stack`]s, partitions the block address space across them
//! by interleave (global address `a` lives on shard `a % N` at local
//! address `a / N`), and drives them with `pmck-rt`'s lock-free
//! [`ShardPool`] — one persistent worker thread per shard fed through
//! per-client SPSC rings, so each shard keeps its engine-lifetime
//! scratch buffers and the zero-allocation read fast path while
//! different shards decode in parallel and different producers never
//! contend.
//!
//! There is one way in, [`pmck_core::Submitter`]: a [`ServiceClient`]
//! (from [`ShardedService::take_client`]) owns a private lane of rings,
//! so N producer threads drive the shards with zero shared locks, and
//! the service itself submits through its own primary lane. Addressed
//! requests run on their owning shard; whole-device requests (patrol
//! step, fault injection, verify, flush, …) are broadcast to every
//! shard and their responses merged. `try_submit` → [`SubmitTicket`] →
//! `poll`/`wait` streams with explicit
//! [`pmck_core::ServiceFailure::Backpressure`] admission control, and
//! `submit` is that plus the wait.
//!
//! Each lane records every redeemed ticket's submit-to-redeem latency
//! into its own per-shard and broadcast HDR histograms, behind a lock
//! only that lane and a report ever take;
//! [`ShardedService::latency_report`] and
//! [`ShardedService::publish_metrics`] merge every lane's (p50/p99/p999).
//!
//! # Determinism
//!
//! Results are independent of thread scheduling: shard `s` is seeded
//! from stream `s` of the service seed ([`pmck_rt::rng::stream_seed`]),
//! each `(client, shard)` ring is FIFO so a shard executes one client's
//! requests in submission order, and broadcast responses are buffered
//! per shard and merged in shard index order once complete. Replaying
//! the same per-shard request streams sequentially against
//! identically-seeded single `Stack`s therefore produces bit-identical
//! block contents and stats — the equivalence the top-level
//! `service_equivalence` test checks, including under backpressure.
//!
//! # Examples
//!
//! ```
//! use pmck_core::{ChipkillConfig, Request, Response, StackBuilder, Submitter};
//! use pmck_service::ShardedService;
//!
//! let mut svc = ShardedService::new(4, 7, |_, seed| {
//!     StackBuilder::proposal(64, ChipkillConfig::default())
//!         .seed(seed)
//!         .build()
//! });
//! assert_eq!(svc.num_blocks(), 256);
//! let written = svc.submit(&Request::Write { addr: 5, data: [0xAB; 64] });
//! assert_eq!(written, Ok(Response::Written));
//! // Tickets stream ahead of their redemption, on any shard.
//! let t = svc.try_submit(&Request::Read(5)).unwrap();
//! assert_eq!(svc.wait(t).unwrap().read().unwrap().data, [0xAB; 64]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pmck_core::{
    CoreError, CoreStats, LayerId, LayerStats, ProtectionTier, Request, Response, Stack,
    SubmitTicket, Submitter, TierReport,
};
use pmck_rt::metrics::{Histogram, MetricsRegistry};
use pmck_rt::pool::ShardPool;
use pmck_rt::rng::stream_seed;

mod client;

pub use client::ServiceClient;

use client::{Comp, Job, LaneLatency, SUBMIT_DEPTH, TICKET_WINDOW};

/// The shard and local address owning global `addr` under block
/// interleave, or `None` when `addr` is beyond the address space.
pub(crate) fn route_addr(shard_blocks: &[u64], addr: u64) -> Option<(usize, u64)> {
    let n = shard_blocks.len() as u64;
    let shard = (addr % n) as usize;
    let local = addr / n;
    (local < shard_blocks[shard]).then_some((shard, local))
}

/// A sharded, multi-threaded front end over N independent [`Stack`]s.
///
/// See the crate docs for the sharding, streaming, and determinism
/// model.
pub struct ShardedService {
    pool: ShardPool<Stack>,
    /// The service's own lane, backing its [`Submitter`] surface.
    primary: ServiceClient,
    /// Extra lanes created up front, claimable via `take_client`.
    spare: Vec<ServiceClient>,
    shard_blocks: Arc<[u64]>,
    /// Every lane's latency record, shared with the lane: a client that
    /// was taken and then dropped still counts.
    latency: Vec<Arc<Mutex<LaneLatency>>>,
    dropped_samples: Arc<AtomicU64>,
}

impl ShardedService {
    /// Builds `shards` stacks with `make(shard, shard_seed)` and spawns
    /// one pinned worker per shard. `shard_seed` is stream `shard` of
    /// `seed` ([`stream_seed`]), so a shard's behavior is reproducible
    /// by seeding a standalone `Stack` the same way.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, seed: u64, make: impl FnMut(usize, u64) -> Stack) -> Self {
        Self::with_clients(shards, 0, seed, make)
    }

    /// As [`ShardedService::new`], but also provisions `clients` extra
    /// streaming lanes claimable with [`ShardedService::take_client`] —
    /// one per producer thread.
    pub fn with_clients(
        shards: usize,
        clients: usize,
        seed: u64,
        mut make: impl FnMut(usize, u64) -> Stack,
    ) -> Self {
        assert!(shards > 0, "service needs at least one shard");
        let stacks: Vec<Stack> = (0..shards)
            .map(|s| make(s, stream_seed(seed, s as u64)))
            .collect();
        Self::from_stacks_with_clients(stacks, clients)
    }

    /// Wraps pre-built stacks directly (one shard per stack).
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is empty.
    pub fn from_stacks(stacks: Vec<Stack>) -> Self {
        Self::from_stacks_with_clients(stacks, 0)
    }

    /// [`ShardedService::from_stacks`] plus `clients` extra streaming
    /// lanes.
    pub fn from_stacks_with_clients(stacks: Vec<Stack>, clients: usize) -> Self {
        let shard_blocks: Arc<[u64]> = stacks.iter().map(Stack::num_blocks).collect();
        let shards = shard_blocks.len();
        let (pool, raw_clients) = ShardPool::with_clients(
            stacks,
            1 + clients,
            SUBMIT_DEPTH,
            TICKET_WINDOW,
            |_, stack: &mut Stack, (slot, req): Job| -> Comp { (slot, stack.submit(&req)) },
        );
        let dropped_samples = Arc::new(AtomicU64::new(0));
        let latency: Vec<_> = raw_clients
            .iter()
            .map(|_| Arc::new(Mutex::new(LaneLatency::new(shards))))
            .collect();
        let mut lanes = raw_clients.into_iter().zip(&latency).map(|(raw, lane)| {
            ServiceClient::new(
                raw,
                Arc::clone(&shard_blocks),
                Arc::clone(lane),
                Arc::clone(&dropped_samples),
            )
        });
        let primary = lanes.next().expect("at least one lane");
        let spare: Vec<ServiceClient> = lanes.collect();
        ShardedService {
            pool,
            primary,
            spare,
            shard_blocks,
            latency,
            dropped_samples,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_blocks.len()
    }

    /// Claims one of the streaming lanes provisioned at construction
    /// (`None` once all are taken). The returned client is `Send`:
    /// move it to its producer thread and drive the shards directly,
    /// concurrently with this service's own lane.
    pub fn take_client(&mut self) -> Option<ServiceClient> {
        self.spare.pop()
    }

    /// Runs `f` against one shard's stack (blocks while that shard is
    /// mid-burst). For maintenance that needs a concrete shard — e.g.
    /// repairing a chip failure localized to it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&mut Stack) -> T) -> T {
        self.pool.with_state(shard, f)
    }

    /// Engine counters summed across shards (`None` if no shard has a
    /// chipkill engine).
    pub fn core_stats(&self) -> Option<CoreStats> {
        let mut total: Option<CoreStats> = None;
        for s in 0..self.shards() {
            if let Some(st) = self.pool.with_state(s, |stack| stack.core_stats()) {
                total.get_or_insert_with(CoreStats::default).merge(&st);
            }
        }
        total
    }

    /// Per-layer stats summed across shards, in each layer's first-seen
    /// order on the lowest shard that saw it.
    pub fn layers(&self) -> Vec<(LayerId, LayerStats)> {
        let mut merged: Vec<(LayerId, LayerStats)> = Vec::new();
        for s in 0..self.shards() {
            self.pool.with_state(s, |stack| {
                for &(id, st) in stack.layers() {
                    match merged.iter_mut().find(|(mid, _)| *mid == id) {
                        Some((_, acc)) => acc.merge(&st),
                        None => merged.push((id, st)),
                    }
                }
            });
        }
        merged
    }

    /// Fleet-wide tier census merged across shards (`None` if no shard
    /// runs a tiered base). The blended storage cost is region-weighted,
    /// so it matches what a single tiered rank of the same composition
    /// would report.
    pub fn tier_report(&self) -> Option<TierReport> {
        let mut total: Option<TierReport> = None;
        for s in 0..self.shards() {
            if let Some(r) = self.pool.with_state(s, |stack| stack.tier_report()) {
                match total.as_mut() {
                    Some(acc) => acc.merge(&r),
                    None => total = Some(r),
                }
            }
        }
        total
    }

    /// Submit-to-redeem latency of every ticket redeemed on any lane —
    /// the service's own and every client's, dropped clients included:
    /// `(per_shard, broadcast)`, in nanoseconds.
    pub fn latency_report(&self) -> (Vec<Histogram>, Histogram) {
        let mut total = LaneLatency::new(self.shards());
        for lane in &self.latency {
            total.merge(&lane.lock().unwrap_or_else(|e| e.into_inner()));
        }
        (total.per_shard, total.broadcast)
    }

    /// Latency samples not recorded because a report was merging their
    /// lane at that moment (the data path never waits for a report).
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples.load(Ordering::Relaxed)
    }

    /// Publishes the aggregated cross-shard view — per-layer counters
    /// under `<prefix>.layer.<label>.*`, engine counters under
    /// `<prefix>.engine.*` (same keys as [`Stack::publish_metrics`]) —
    /// plus the shard count under `<prefix>.shards`, the completion
    /// latency histograms under `<prefix>.latency.*` (per shard,
    /// broadcast, and merged `all`, each with p50/p99/p999), and, for
    /// tiered fleets, the per-tier and blended storage costs.
    pub fn publish_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        for (id, stats) in self.layers() {
            stats.publish_metrics(reg, &format!("{prefix}.layer.{id}"));
        }
        if let Some(core) = self.core_stats() {
            core.publish_metrics(reg, &format!("{prefix}.engine"));
        }
        reg.set_counter(&format!("{prefix}.shards"), self.shards() as u64);
        let (per_shard, broadcast) = self.latency_report();
        let mut all = Histogram::new();
        for (s, hist) in per_shard.iter().enumerate() {
            all.merge(hist);
            reg.set_histogram(&format!("{prefix}.latency.shard{s}"), hist);
        }
        all.merge(&broadcast);
        reg.set_histogram(&format!("{prefix}.latency.broadcast"), &broadcast);
        reg.set_histogram(&format!("{prefix}.latency.all"), &all);
        reg.set_counter(
            &format!("{prefix}.latency.dropped_samples"),
            self.dropped_samples(),
        );
        if let Some(report) = self.tier_report() {
            for tier in ProtectionTier::ALL {
                reg.set_gauge(
                    &format!("{prefix}.tier_cost.{}", tier.as_str()),
                    tier.total_storage_cost(),
                );
            }
            reg.set_gauge(
                &format!("{prefix}.total_storage_cost"),
                report.blended_cost(),
            );
        }
    }

    /// Stops accepting new work, **drains** queued requests (their
    /// tickets stay redeemable), and joins the shard workers.
    /// Subsequent submissions fail with
    /// [`pmck_core::ServiceFailure::QueueClosed`]; per-shard state stays
    /// readable through [`ShardedService::with_shard`] and the stats
    /// accessors.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }
}

/// The service's primary lane: `try_submit`/`poll`/`wait` stream through
/// it, and `submit` is its submit-and-wait.
impl Submitter for ShardedService {
    fn num_blocks(&self) -> u64 {
        self.shard_blocks.iter().sum()
    }

    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.primary.submit(req)
    }

    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        self.primary.try_submit(req)
    }

    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.primary.poll(ticket)
    }

    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        self.primary.wait(ticket)
    }
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards())
            .field("num_blocks", &self.num_blocks())
            .field("spare_clients", &self.spare.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_core::{ChipkillConfig, ReadPath, ServiceFailure, StackBuilder};
    use std::error::Error as _;

    /// Submits every request in order and collects the responses.
    fn run(svc: &mut ShardedService, reqs: &[Request]) -> Vec<Result<Response, CoreError>> {
        reqs.iter().map(|req| svc.submit(req)).collect()
    }

    fn svc(shards: usize, blocks_per_shard: u64, seed: u64) -> ShardedService {
        ShardedService::new(shards, seed, |_, s| {
            StackBuilder::proposal(blocks_per_shard, ChipkillConfig::default())
                .seed(s)
                .build()
        })
    }

    /// A rate outside `[0, 1)` is refused with a typed error by a bare
    /// stack and by every shard alike, and neither loses a later read.
    #[test]
    fn out_of_range_rber_is_refused_and_the_worker_survives() {
        use pmck_nvram::{FaultEvent, FaultKind};
        let mut stack = StackBuilder::proposal(32, ChipkillConfig::default()).build();
        let mut sharded = svc(2, 32, 3);
        for p in [-1.0, f64::NAN, 1.0, f64::INFINITY] {
            let kind = FaultKind::RowFault {
                chip: 2,
                stripe: 0,
                rber: p,
            };
            for req in [
                Request::InjectRber(p),
                Request::Fault(FaultEvent { at_cycle: 0, kind }),
            ] {
                for sut in [&mut stack as &mut dyn Submitter, &mut sharded] {
                    assert_eq!(sut.submit(&req), Err(CoreError::InvalidRber), "{req:?}");
                    let read = sut.submit(&Request::Read(1)).unwrap().read().unwrap();
                    assert_eq!((read.data, read.path), ([0; 64], ReadPath::Clean));
                }
            }
        }
    }

    #[test]
    fn interleaved_round_trip_across_shards() {
        let mut svc = svc(4, 32, 1);
        assert_eq!(svc.num_blocks(), 128);
        let writes: Vec<Request> = (0..128u64)
            .map(|a| Request::Write {
                addr: a,
                data: [a as u8; 64],
            })
            .collect();
        for r in run(&mut svc, &writes) {
            assert_eq!(r, Ok(Response::Written));
        }
        let reads: Vec<Request> = (0..128u64).map(Request::Read).collect();
        for (a, r) in run(&mut svc, &reads).into_iter().enumerate() {
            let out = r.unwrap().read().unwrap();
            assert_eq!(out.data, [a as u8; 64], "block {a}");
            assert_eq!(out.path, ReadPath::Clean);
        }
        let stats = svc.core_stats().unwrap();
        assert_eq!(stats.reads, 128);
        assert_eq!(stats.writes, 128);
    }

    #[test]
    fn out_of_range_is_answered_inline() {
        let mut svc = svc(2, 32, 2);
        let out = run(
            &mut svc,
            &[Request::Read(3), Request::Read(64), Request::Read(999)],
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(CoreError::OutOfRange(64)));
        assert_eq!(out[2], Err(CoreError::OutOfRange(999)));
    }

    #[test]
    fn broadcasts_merge_across_shards() {
        let mut svc = svc(4, 32, 3);
        let fills: Vec<Request> = (0..128u64)
            .map(|a| Request::Write {
                addr: a,
                data: [0x5A; 64],
            })
            .collect();
        run(&mut svc, &fills);
        // Verify is AND across shards.
        assert_eq!(svc.submit(&Request::Verify), Ok(Response::Verified(true)));
        // Injection sums the per-shard flips (4 shards at a rate that
        // flips a fair number of bits each).
        let bits = svc
            .submit(&Request::InjectRber(1e-3))
            .unwrap()
            .injected_bits()
            .unwrap();
        assert!(bits > 100, "4 shards x 32 blocks at 1e-3: got {bits}");
        // Boot scrub sums its counters.
        let report = svc
            .submit(&Request::BootScrub)
            .unwrap()
            .boot_scrubbed()
            .unwrap();
        assert!(report.bits_corrected > 0);
        // A patrol step sums scrubbed blocks; every shard's 16-block
        // increment wraps its 16-block device, so the pass completes.
        let p = svc
            .submit(&Request::PatrolStep)
            .map(|r| r.patrolled())
            .unwrap_err();
        // No patrol layer in this stack: the first shard's error wins.
        assert_eq!(p, CoreError::Unsupported("patrol_step"));
    }

    #[test]
    fn boot_scrub_broadcast_merges_reports() {
        use pmck_core::{AccessContext, ChipkillMemory};
        // Shard s carries one chip word with t − s bit errors (22, 21).
        // The broadcast scrub must decode each shard and sum the counts.
        let stacks = (0..2u64)
            .map(|shard| {
                let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
                for a in 0..mem.num_blocks() {
                    mem.write_block(a, &[shard as u8; 64]).unwrap();
                }
                for i in 0..22 - shard {
                    mem.corrupt_chip_byte(0, i, 0, 1);
                }
                Stack::from_parts(Box::new(mem), AccessContext::new(shard))
            })
            .collect();
        let mut svc = ShardedService::from_stacks(stacks);
        let report = svc
            .submit(&Request::BootScrub)
            .unwrap()
            .boot_scrubbed()
            .unwrap();
        assert_eq!(report.stripes_scrubbed, 2);
        assert_eq!(report.words_with_errors, 2);
        assert_eq!(report.bits_corrected, 43);
        assert_eq!(report.chip_rebuilt, None);
        assert_eq!(svc.submit(&Request::Verify), Ok(Response::Verified(true)));
    }

    #[test]
    fn patrol_step_broadcast_sums_increments() {
        let mut svc = ShardedService::new(2, 9, |_, s| {
            StackBuilder::proposal(32, ChipkillConfig::default())
                .patrolled(32, 0)
                .seed(s)
                .build()
        });
        let r = svc
            .submit(&Request::PatrolStep)
            .unwrap()
            .patrolled()
            .unwrap();
        assert_eq!(r.blocks_scrubbed, 64);
        assert!(r.completed_pass);
    }

    #[test]
    fn flush_cut_recover_broadcasts_sum_across_persistent_shards() {
        let mut svc = ShardedService::new(4, 11, |_, s| {
            StackBuilder::proposal(16, ChipkillConfig::default())
                .persistent(pmck_core::PmemConfig::default())
                .seed(s)
                .build()
        });
        let writes: Vec<Request> = (0..64u64)
            .map(|a| Request::Write {
                addr: a,
                data: [a as u8 ^ 0x5a; 64],
            })
            .collect();
        for r in run(&mut svc, &writes) {
            assert_eq!(r, Ok(Response::Written));
        }
        let flushed = svc
            .submit(&Request::Flush)
            .unwrap()
            .flushed_lines()
            .unwrap();
        assert!(flushed > 0, "dirty writes must flush lines");
        // Everything is fenced, so a power cut loses nothing...
        let lost = match svc.submit(&Request::PowerCut).unwrap() {
            Response::PowerLost { lost_lines } => lost_lines,
            other => panic!("expected PowerLost, got {other:?}"),
        };
        assert_eq!(lost, 0);
        let rec = svc.submit(&Request::Recover).unwrap().recovered().unwrap();
        assert!(!rec.restriped);
        // ...and every block reads back clean after recovery.
        let reads: Vec<Request> = (0..64u64).map(Request::Read).collect();
        for (a, r) in run(&mut svc, &reads).into_iter().enumerate() {
            let out = r.unwrap().read().unwrap();
            assert_eq!(out.data, [a as u8 ^ 0x5a; 64], "block {a}");
        }
    }

    #[test]
    fn shutdown_fails_submissions_with_full_error_chain() {
        let mut svc = svc(2, 8, 4);
        svc.shutdown();
        let err = svc.submit(&Request::Read(0)).unwrap_err();
        let CoreError::Service(ref se) = err else {
            panic!("expected service error, got {err:?}");
        };
        assert_eq!(se.kind(), ServiceFailure::QueueClosed);
        // Display stays stable for corpus replay...
        assert_eq!(
            err.to_string(),
            "memory service unavailable: shard request queue is closed"
        );
        // ...while source() exposes the transport chain.
        let source = err.source().expect("service error has a source");
        let transport = source.source().expect("chain reaches the pool error");
        assert_eq!(
            transport.to_string(),
            pmck_rt::pool::PoolError::Closed.to_string()
        );
        // Shard state is still reachable for post-mortem stats.
        assert_eq!(svc.core_stats().unwrap().reads, 0);
    }

    #[test]
    fn aggregated_metrics_match_summed_layers() {
        let mut svc = svc(2, 8, 5);
        let reqs: Vec<Request> = (0..16u64)
            .map(|a| Request::Write {
                addr: a,
                data: [1; 64],
            })
            .chain((0..16u64).map(Request::Read))
            .collect();
        run(&mut svc, &reqs);
        let reg = MetricsRegistry::new();
        svc.publish_metrics(&reg, "svc");
        assert_eq!(reg.counter("svc.layer.chipkill.reads"), 16);
        assert_eq!(reg.counter("svc.engine.writes"), 16);
        assert_eq!(reg.counter("svc.shards"), 2);
        let chipkill = svc
            .layers()
            .into_iter()
            .find(|(id, _)| *id == LayerId::Chipkill)
            .unwrap()
            .1;
        assert_eq!(chipkill.reads, 16);
        assert_eq!(chipkill.writes, 16);
    }

    #[test]
    fn tiered_fleet_merges_census_and_publishes_blended_cost() {
        use pmck_core::TierPolicy;
        let mut svc = ShardedService::new(2, 12, |_, s| {
            StackBuilder::proposal(64, ChipkillConfig::default())
                .tiered(2, TierPolicy::default())
                .seed(s)
                .build()
        });
        // Before any step, every region boots at the paper tier.
        let boot = svc.tier_report().unwrap();
        assert_eq!(boot.regions, 4);
        assert_eq!(boot.paper_regions, 4);
        // A broadcast tier step sums census and migrations across the
        // fleet: pristine regions (measured RBER 0) all step down to
        // the RS-only tier.
        let report = svc.submit(&Request::TierStep).unwrap().tiered().unwrap();
        assert_eq!(report.regions, 4);
        assert_eq!(report.rs_only_regions, 4);
        assert_eq!(report.migrations, 4);
        let reg = MetricsRegistry::new();
        svc.publish_metrics(&reg, "svc");
        let paper = ProtectionTier::Paper.total_storage_cost();
        let rs_only = ProtectionTier::RsOnly.total_storage_cost();
        let blended = reg.gauge("svc.total_storage_cost").unwrap();
        assert!(
            (blended - rs_only).abs() < 1e-4,
            "all-rs_only fleet: {blended}"
        );
        assert_eq!(reg.gauge("svc.tier_cost.paper"), Some(paper));
        assert_eq!(reg.gauge("svc.tier_cost.rs_only"), Some(rs_only));
        assert!(reg.gauge("svc.tier_cost.dense").unwrap() > paper);
    }

    #[test]
    fn streaming_tickets_redeem_in_any_order() {
        let mut svc = ShardedService::with_clients(2, 1, 21, |_, s| {
            StackBuilder::proposal(16, ChipkillConfig::default())
                .seed(s)
                .build()
        });
        let mut client = svc.take_client().expect("one spare lane");
        assert!(svc.take_client().is_none());
        let t0 = client
            .try_submit(&Request::Write {
                addr: 0,
                data: [7; 64],
            })
            .unwrap();
        let t1 = client
            .try_submit(&Request::Write {
                addr: 1,
                data: [8; 64],
            })
            .unwrap();
        let t2 = client.try_submit(&Request::Read(0)).unwrap();
        assert_eq!(client.in_flight(), 3);
        // Redeem newest-first: order must not matter.
        let r2 = client.wait(t2);
        assert_eq!(r2.unwrap().read().unwrap().data, [7; 64]);
        assert_eq!(client.wait(t1), Ok(Response::Written));
        assert_eq!(client.wait(t0), Ok(Response::Written));
        assert_eq!(client.in_flight(), 0);
        // An out-of-range submit still yields a (failing) ticket.
        let t = client.try_submit(&Request::Read(1 << 40)).unwrap();
        assert_eq!(client.wait(t), Err(CoreError::OutOfRange(1 << 40)));
        // Broadcasts stream too.
        let tv = client.try_submit(&Request::Verify).unwrap();
        assert_eq!(client.wait(tv), Ok(Response::Verified(true)));
    }

    #[test]
    #[should_panic(expected = "is not held by this ServiceClient")]
    fn waiting_on_a_redeemed_ticket_panics_instead_of_parking() {
        let mut svc = svc(2, 8, 25);
        let t = svc.try_submit(&Request::Read(0)).unwrap();
        svc.wait(t).unwrap();
        assert_eq!(svc.poll(t), None);
        let _ = svc.wait(t);
    }

    #[test]
    fn streaming_window_reports_backpressure() {
        let mut svc = ShardedService::with_clients(1, 1, 22, |_, s| {
            StackBuilder::proposal(8, ChipkillConfig::default())
                .seed(s)
                .build()
        });
        let mut client = svc.take_client().unwrap();
        let mut tickets = Vec::new();
        // Fill the whole ticket window without redeeming: at some point
        // admission control must push back (window or ring, whichever
        // first), and the error must be retryable Backpressure.
        let err = loop {
            match client.try_submit(&Request::Read(0)) {
                Ok(t) => tickets.push(t),
                Err(e) => break e,
            }
            assert!(tickets.len() <= client.window(), "window overran");
        };
        let CoreError::Service(se) = &err else {
            panic!("expected service error, got {err:?}");
        };
        assert_eq!(se.kind(), ServiceFailure::Backpressure);
        // Redeeming the backlog clears the pressure.
        for t in tickets.drain(..) {
            client.wait(t).unwrap();
        }
        assert_eq!(client.in_flight(), 0);
        let t = client.try_submit(&Request::Read(0)).unwrap();
        client.wait(t).unwrap();
    }

    #[test]
    fn worker_panic_fails_every_outstanding_ticket() {
        use pmck_core::{AccessContext, BlockDevice};
        // A device that panics when block 3 is read: shard 1 dies mid
        // stream while earlier requests are still in flight.
        struct Grenade {
            blocks: u64,
        }
        impl BlockDevice for Grenade {
            fn id(&self) -> LayerId {
                LayerId::Chipkill
            }
            fn num_blocks(&self) -> u64 {
                self.blocks
            }
            fn access(
                &mut self,
                req: Request,
                _ctx: &mut AccessContext,
            ) -> Result<Response, CoreError> {
                if let Request::Read(addr) = req {
                    assert!(addr != 3, "boom");
                }
                Ok(Response::Written)
            }
        }
        let stacks: Vec<Stack> = (0..2)
            .map(|s| {
                Stack::from_parts(
                    Box::new(Grenade { blocks: 8 }),
                    pmck_core::AccessContext::new(s),
                )
            })
            .collect();
        let mut svc = ShardedService::from_stacks_with_clients(stacks, 1);
        let mut client = svc.take_client().unwrap();
        // Request stream: a few benign ops, the grenade, more ops.
        let mut tickets = Vec::new();
        for addr in [0u64, 1, 2, 7, 6] {
            tickets.push(client.try_submit(&Request::Read(addr)).unwrap());
        }
        let mut outcomes = Vec::new();
        for t in tickets {
            outcomes.push(client.wait(t));
        }
        // Global address 7 routes to shard 1 local 3 -> panic. Every
        // ticket resolves: benign ones may have completed, but at least
        // the post-panic ones surface WorkerLost instead of hanging.
        let lost = outcomes
            .iter()
            .filter(|r| {
                matches!(r, Err(CoreError::Service(se)) if se.kind() == ServiceFailure::WorkerLost)
            })
            .count();
        assert!(lost >= 1, "no ticket surfaced WorkerLost: {outcomes:?}");
        // The service's own lane reports the poisoned pool too.
        let out = svc.submit(&Request::Read(0));
        assert!(
            matches!(&out, Err(CoreError::Service(se)) if se.kind() == ServiceFailure::WorkerLost),
            "primary lane after panic: {out:?}"
        );
    }

    #[test]
    fn shutdown_drains_submitted_requests() {
        let mut svc = ShardedService::with_clients(2, 1, 23, |_, s| {
            StackBuilder::proposal(16, ChipkillConfig::default())
                .seed(s)
                .build()
        });
        let mut client = svc.take_client().unwrap();
        let mut tickets = Vec::new();
        for a in 0..16u64 {
            tickets.push(
                client
                    .try_submit(&Request::Write {
                        addr: a,
                        data: [a as u8; 64],
                    })
                    .unwrap(),
            );
        }
        // Shut down while the writes may still be queued: the drain
        // contract says every accepted request completes.
        svc.shutdown();
        for t in tickets {
            assert_eq!(client.wait(t), Ok(Response::Written));
        }
        // New submissions are refused.
        let err = client.try_submit(&Request::Read(0)).unwrap_err();
        let CoreError::Service(se) = &err else {
            panic!("expected service error, got {err:?}");
        };
        assert_eq!(se.kind(), ServiceFailure::QueueClosed);
        // The drained writes really landed in the shard state.
        assert_eq!(svc.core_stats().unwrap().writes, 16);
    }

    #[test]
    fn latency_histograms_are_published() {
        let mut svc = svc(2, 16, 24);
        let reqs: Vec<Request> = (0..32u64)
            .map(|a| Request::Write {
                addr: a,
                data: [3; 64],
            })
            .chain((0..32u64).map(Request::Read))
            .collect();
        run(&mut svc, &reqs);
        svc.submit(&Request::Verify).unwrap();
        let reg = MetricsRegistry::new();
        svc.publish_metrics(&reg, "svc");
        let all = reg.histogram("svc.latency.all").expect("latency.all");
        assert_eq!(all.count(), 65, "64 addressed + 1 broadcast");
        let p50 = all.quantile(0.50);
        let p99 = all.quantile(0.99);
        let p999 = all.quantile(0.999);
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        let bcast = reg.histogram("svc.latency.broadcast").unwrap();
        assert_eq!(bcast.count(), 1);
        assert_eq!(reg.counter("svc.latency.dropped_samples"), 0);
        let (per_shard, _) = svc.latency_report();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard[0].count() + per_shard[1].count(), 64);
    }

    /// Every ticket a client redeemed is in the report, however many,
    /// and after the client itself is gone.
    #[test]
    fn latency_report_counts_every_ticket_of_a_dropped_client() {
        const TICKETS: u64 = 5_000;
        let mut svc = ShardedService::with_clients(2, 1, 26, |_, s| {
            StackBuilder::proposal(16, ChipkillConfig::default())
                .seed(s)
                .build()
        });
        let mut client = svc.take_client().unwrap();
        for i in 0..TICKETS {
            let t = client.try_submit(&Request::Read(i % 32)).unwrap();
            client.wait(t).unwrap();
        }
        drop(client);
        let (per_shard, broadcast) = svc.latency_report();
        let counts: Vec<u64> = per_shard.iter().map(Histogram::count).collect();
        assert_eq!(counts, [TICKETS / 2, TICKETS / 2]);
        assert_eq!(broadcast.count(), 0);
        assert_eq!(svc.dropped_samples(), 0);
    }
}
