//! The streaming submission client: tickets, backpressure, out-of-band
//! completion.
//!
//! A [`ServiceClient`] owns one private lane of SPSC rings to every
//! shard worker ([`pmck_rt::pool::ShardPool`]), and its API is
//! [`Submitter`]. Submission is a single ring push; the response comes
//! back later through the completion ring and is claimed with the
//! [`SubmitTicket`] (`tag` = window slot, `seq` = ticket generation):
//!
//! * `try_submit` never blocks — a full submission ring or an exhausted
//!   ticket window reports [`ServiceFailure::Backpressure`] and the
//!   caller retries after redeeming tickets;
//! * `submit` parks on *ring* backpressure (spin, yield, park), then
//!   waits for the response; window exhaustion still errors, since only
//!   the caller can redeem tickets;
//! * `poll` / `wait` claim a ticket's response; tickets may be redeemed
//!   in any order, and `wait` panics on a ticket this client does not
//!   hold.
//!
//! # Determinism
//!
//! Each `(client, shard)` pair is one FIFO ring, so a shard executes one
//! client's requests exactly in submission order — the same order a
//! sequential replay uses. Completion *claiming* is out of band, but a
//! response is computed entirely by its shard's deterministic stack, and
//! broadcast responses are buffered per shard and merged in shard index
//! order once complete, so the merged value never depends on arrival
//! timing. That is the whole determinism argument: scheduling decides
//! *when* a response is claimed, never *what* it contains.
//!
//! # The ticket window
//!
//! A client holds at most [`ServiceClient::window`] unredeemed tickets.
//! Each shard's completion ring is sized to that window, so a worker's
//! completion push always finds room (a ticket occupies at most one
//! completion slot per shard); workers therefore never block on a slow
//! client, which is what keeps one stalled producer from convoying the
//! whole service.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmck_core::{
    merge_broadcast, CoreError, Request, Response, ServiceError, ServiceFailure, SubmitTicket,
    Submitter,
};
use pmck_rt::metrics::Histogram;
use pmck_rt::pool::{PoolClient, PoolError, TrySendError};

use crate::route_addr;

/// One request tagged with the client-side slot that will absorb its
/// completion.
pub(crate) type Job = (u32, Request);
/// A shard's answer, tagged with that slot.
pub(crate) type Comp = (u32, Result<Response, CoreError>);

/// Shard tag used for broadcast latency samples.
const BROADCAST_SHARD: u32 = u32::MAX;

/// Submit-to-redeem latency one lane has recorded, in nanoseconds: one
/// histogram per owning shard, one for broadcasts.
#[derive(Debug, Clone)]
pub(crate) struct LaneLatency {
    pub(crate) per_shard: Vec<Histogram>,
    pub(crate) broadcast: Histogram,
}

impl LaneLatency {
    pub(crate) fn new(shards: usize) -> Self {
        LaneLatency {
            per_shard: (0..shards).map(|_| Histogram::new()).collect(),
            broadcast: Histogram::new(),
        }
    }

    fn record(&mut self, shard: u32, ns: u64) {
        match shard {
            BROADCAST_SHARD => self.broadcast.record(ns),
            s => self.per_shard[s as usize].record(ns),
        }
    }

    pub(crate) fn merge(&mut self, other: &LaneLatency) {
        for (acc, h) in self.per_shard.iter_mut().zip(&other.per_shard) {
            acc.merge(h);
        }
        self.broadcast.merge(&other.broadcast);
    }
}

/// Unredeemed tickets a client may hold (and the per-shard completion
/// ring capacity backing them).
pub(crate) const TICKET_WINDOW: usize = 256;
/// Per-`(client, shard)` submission ring depth — the backpressure knob.
pub(crate) const SUBMIT_DEPTH: usize = 64;
/// Broadcast responses that may be in flight per client at once (each
/// needs a per-shard reassembly buffer).
const BCAST_SLOTS: usize = 16;

const NO_BCAST: u32 = u32::MAX;

/// One ticket-window slot: where an in-flight request's completion(s)
/// land until the ticket is redeemed.
struct Slot {
    /// Which ticket generation occupies this slot (stale-ticket guard).
    seq: u64,
    busy: bool,
    /// Per-shard completions still expected before the response is
    /// ready (1 for addressed requests, `shards` for broadcasts).
    remaining: u32,
    /// Reassembly buffer index for broadcasts, else [`NO_BCAST`].
    bcast: u32,
    /// Owning shard (latency attribution); [`BROADCAST_SHARD`] for
    /// broadcasts and out-of-range rejections.
    shard: u32,
    /// Failure that pre-empts the merged response (partial broadcast
    /// submission after the pool closed mid-loop).
    fail: Option<CoreError>,
    /// Submission time; `None` for immediately-answered requests.
    started: Option<Instant>,
    ready: Option<Result<Response, CoreError>>,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            seq: 0,
            busy: false,
            remaining: 0,
            bcast: NO_BCAST,
            shard: BROADCAST_SHARD,
            fail: None,
            started: None,
            ready: None,
        }
    }
}

/// Per-shard reassembly buffer for one in-flight broadcast: responses
/// park here until every shard reported, then merge in shard index
/// order (several merge rules are order-sensitive — first error wins,
/// first rebuilt chip wins, the tier census rounds per fold).
struct BcastBuf {
    parts: Vec<Option<Result<Response, CoreError>>>,
}

/// A streaming submission endpoint, driven through [`Submitter`].
/// `Send` — move it to the producer thread that owns it; clients never
/// contend with each other.
pub struct ServiceClient {
    client: PoolClient<Job, Comp>,
    shard_blocks: Arc<[u64]>,
    next_seq: u64,
    outstanding: usize,
    slots: Box<[Slot]>,
    free_slots: Vec<u32>,
    bufs: Vec<BcastBuf>,
    free_bufs: Vec<u32>,
    /// Shared with the service, which merges it into its reports.
    latency: Arc<Mutex<LaneLatency>>,
    dropped_samples: Arc<AtomicU64>,
}

impl ServiceClient {
    pub(crate) fn new(
        client: PoolClient<Job, Comp>,
        shard_blocks: Arc<[u64]>,
        latency: Arc<Mutex<LaneLatency>>,
        dropped_samples: Arc<AtomicU64>,
    ) -> Self {
        let shards = shard_blocks.len();
        ServiceClient {
            client,
            shard_blocks,
            next_seq: 0,
            outstanding: 0,
            slots: (0..TICKET_WINDOW).map(|_| Slot::vacant()).collect(),
            free_slots: (0..TICKET_WINDOW as u32).rev().collect(),
            bufs: (0..BCAST_SLOTS)
                .map(|_| BcastBuf {
                    parts: vec![None; shards],
                })
                .collect(),
            free_bufs: (0..BCAST_SLOTS as u32).rev().collect(),
            latency,
            dropped_samples,
        }
    }

    /// Number of shards this client can reach.
    pub fn shards(&self) -> usize {
        self.shard_blocks.len()
    }

    /// Unredeemed tickets currently held.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Maximum unredeemed tickets this client may hold.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    // --- internals -------------------------------------------------

    /// Whether `ticket` names one of this client's unredeemed requests.
    fn holds(&self, ticket: SubmitTicket) -> bool {
        self.slots
            .get(ticket.tag() as usize)
            .is_some_and(|slot| slot.busy && slot.seq == ticket.seq())
    }

    fn issue(&mut self, shard: u32, bcast: u32, remaining: u32) -> SubmitTicket {
        let idx = self.free_slots.pop().expect("window checked by caller") as usize;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding += 1;
        let slot = &mut self.slots[idx];
        slot.seq = seq;
        slot.busy = true;
        slot.remaining = remaining;
        slot.bcast = bcast;
        slot.shard = shard;
        slot.fail = None;
        slot.started = Some(Instant::now());
        slot.ready = None;
        SubmitTicket::from_parts(idx as u32, seq)
    }

    fn issue_immediate(&mut self, res: Result<Response, CoreError>) -> SubmitTicket {
        let t = self.issue(BROADCAST_SHARD, NO_BCAST, 0);
        let slot = &mut self.slots[t.tag() as usize];
        slot.started = None; // never reached a shard: no latency sample
        slot.ready = Some(res);
        t
    }

    fn try_submit_broadcast(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        let shards = self.shards();
        if self.free_bufs.is_empty() {
            return Err(backpressure());
        }
        // Reserve a slot in every shard's ring up front so a broadcast
        // is all-or-nothing under backpressure. The client is the only
        // producer on its rings, so reserved space cannot vanish.
        for s in 0..shards {
            if self.client.free_slots(s) == 0 {
                return Err(backpressure());
            }
        }
        if let Some(pe) = self.client.pool_error() {
            return Err(service_error(pe));
        }
        let buf = self.free_bufs.pop().expect("checked non-empty");
        let ticket = self.issue(BROADCAST_SHARD, buf, shards as u32);
        let slot_idx = ticket.tag();
        let mut sent = 0u32;
        let mut fail: Option<CoreError> = None;
        for s in 0..shards {
            match self.client.try_send_quiet(s, (slot_idx, *req)) {
                Ok(()) => sent += 1,
                Err(e @ (TrySendError::Closed(_) | TrySendError::WorkerLost(_))) => {
                    // The pool closed between the check above and this
                    // push: the ticket absorbs the copies already sent
                    // and resolves to the failure.
                    fail = Some(send_error(&e));
                    break;
                }
                Err(TrySendError::Full(_)) => {
                    unreachable!("broadcast ring overflow despite reservation")
                }
            }
        }
        for s in 0..sent as usize {
            self.client.signal(s);
        }
        let slot = &mut self.slots[slot_idx as usize];
        slot.remaining = sent;
        slot.fail = fail.clone();
        if sent == 0 {
            if let Some(err) = fail {
                slot.ready = Some(Err(err));
                slot.started = None;
            }
        }
        Ok(ticket)
    }

    /// Pops every claimable completion into its window slot; finished
    /// broadcasts merge in shard index order.
    fn drain_completions(&mut self) {
        while let Some((shard, (slot_idx, res))) = self.client.try_recv() {
            let idx = slot_idx as usize;
            let slot = &mut self.slots[idx];
            debug_assert!(slot.busy, "completion for a vacant slot");
            if slot.bcast == NO_BCAST {
                slot.remaining = 0;
                slot.ready = Some(res);
                continue;
            }
            self.bufs[slot.bcast as usize].parts[shard] = Some(res);
            slot.remaining -= 1;
            if slot.remaining == 0 {
                self.finish_broadcast(idx);
            }
        }
    }

    /// Merges a completed broadcast's per-shard parts in shard index
    /// order and releases the reassembly buffer.
    fn finish_broadcast(&mut self, idx: usize) {
        let buf = self.slots[idx].bcast as usize;
        let mut acc: Option<Result<Response, CoreError>> = None;
        for part in self.bufs[buf].parts.iter_mut() {
            if let Some(res) = part.take() {
                match acc.as_mut() {
                    None => acc = Some(res),
                    Some(a) => merge_broadcast(a, res),
                }
            }
        }
        let slot = &mut self.slots[idx];
        slot.ready = Some(match (slot.fail.take(), acc) {
            // A partial submission pre-empts whatever did complete.
            (Some(err), _) => Err(err),
            (None, Some(res)) => res,
            (None, None) => Err(CoreError::service(ServiceFailure::QueueClosed)),
        });
        slot.bcast = NO_BCAST;
        self.free_bufs.push(buf as u32);
    }

    /// Releases a dead ticket's reassembly buffer without merging.
    fn release_buf(&mut self, idx: usize) {
        let buf = self.slots[idx].bcast;
        if buf != NO_BCAST {
            for part in self.bufs[buf as usize].parts.iter_mut() {
                *part = None;
            }
            self.slots[idx].bcast = NO_BCAST;
            self.free_bufs.push(buf);
        }
    }

    /// Hands the ready response out and recycles the slot.
    fn redeem(&mut self, idx: usize) -> Option<Result<Response, CoreError>> {
        let slot = &mut self.slots[idx];
        let res = slot.ready.take()?;
        let shard = slot.shard;
        let started = slot.started.take();
        slot.busy = false;
        slot.seq = 0;
        self.outstanding -= 1;
        self.free_slots.push(idx as u32);
        if let Some(t0) = started {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // The lock is only ever held by this lane and, for a moment,
            // by a report merging it: skip and count the sample rather
            // than stall the data path behind the report.
            match self.latency.try_lock() {
                Ok(mut lane) => lane.record(shard, ns),
                Err(_) => {
                    self.dropped_samples.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Some(res)
    }
}

impl Submitter for ServiceClient {
    fn num_blocks(&self) -> u64 {
        self.shard_blocks.iter().sum()
    }

    /// [`Submitter::try_submit`] that blocks (spin, yield, park) on
    /// *ring* backpressure, then waits for the response. Window or
    /// broadcast-buffer exhaustion still returns
    /// [`ServiceFailure::Backpressure`]: only redemption can free those,
    /// and only the caller holds the tickets.
    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        loop {
            let self_inflicted =
                self.free_slots.is_empty() || (req.addr().is_none() && self.free_bufs.is_empty());
            match self.try_submit(req) {
                Ok(t) => return self.wait(t),
                Err(e) if is_backpressure(&e) && !self_inflicted => {
                    let watch = req
                        .addr()
                        .and_then(|a| route_addr(&self.shard_blocks, a))
                        .map(|(s, _)| s);
                    self.client.wait_progress(watch);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits one request without blocking. Out-of-range addresses
    /// still yield a ticket (redeeming it reports
    /// [`CoreError::OutOfRange`]), so bookkeeping stays uniform.
    ///
    /// # Errors
    ///
    /// [`ServiceFailure::Backpressure`] when the destination ring, the
    /// ticket window, or (for broadcasts) a reassembly buffer is
    /// exhausted — nothing was enqueued, retry after redeeming;
    /// [`ServiceFailure::QueueClosed`] / [`ServiceFailure::WorkerLost`]
    /// once the service is shut down or poisoned.
    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        if self.free_slots.is_empty() {
            return Err(backpressure());
        }
        match req.addr() {
            Some(addr) => match route_addr(&self.shard_blocks, addr) {
                None => Ok(self.issue_immediate(Err(CoreError::OutOfRange(addr)))),
                Some((shard, local)) => {
                    let slot = *self.free_slots.last().expect("checked non-empty");
                    match self.client.try_send(shard, (slot, req.with_addr(local))) {
                        Ok(()) => Ok(self.issue(shard as u32, NO_BCAST, 1)),
                        Err(e) => Err(send_error(&e)),
                    }
                }
            },
            None => self.try_submit_broadcast(req),
        }
    }

    /// Claims `ticket`'s response if it is ready, without blocking.
    /// Once the service is shut down or a worker died and no completion
    /// can arrive any more, outstanding tickets resolve to the
    /// corresponding [`CoreError::Service`] instead of pending forever.
    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.drain_completions();
        if !self.holds(ticket) {
            return None;
        }
        let idx = ticket.tag() as usize;
        if self.slots[idx].ready.is_none() {
            // Still waiting on completions; if the workers are gone the
            // wait would be forever — surface the pool failure on this
            // (and by induction every) outstanding ticket.
            let pool_err = self.client.pool_error()?;
            if !self.client.workers_gone() {
                return None; // completions may still drain
            }
            self.drain_completions();
            let slot = &mut self.slots[idx];
            if slot.ready.is_none() {
                slot.ready = Some(Err(service_error(pool_err)));
                self.release_buf(idx);
            }
        }
        self.redeem(idx)
    }

    /// Claims `ticket`'s response, blocking (spin, yield, park) until it
    /// is ready or the service fails.
    ///
    /// # Panics
    ///
    /// If this client does not hold `ticket`: stale, already redeemed,
    /// or issued by another transport.
    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        assert!(
            self.holds(ticket),
            "{ticket:?} is not held by this ServiceClient (stale, already redeemed, or foreign)"
        );
        loop {
            if let Some(res) = self.poll(ticket) {
                return res;
            }
            self.client.wait_progress(None);
        }
    }
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("shards", &self.shards())
            .field("in_flight", &self.outstanding)
            .field("window", &self.slots.len())
            .finish()
    }
}

fn backpressure() -> CoreError {
    CoreError::service(ServiceFailure::Backpressure)
}

/// Whether an error is retryable admission-control backpressure.
fn is_backpressure(e: &CoreError) -> bool {
    matches!(e, CoreError::Service(se) if se.kind() == ServiceFailure::Backpressure)
}

fn service_error(pool_err: PoolError) -> CoreError {
    CoreError::Service(ServiceError::with_source(
        match pool_err {
            PoolError::Closed => ServiceFailure::QueueClosed,
            PoolError::WorkerPanicked => ServiceFailure::WorkerLost,
        },
        Arc::new(pool_err),
    ))
}

fn send_error<J>(e: &TrySendError<J>) -> CoreError {
    match e.pool_error() {
        Some(pe) => service_error(pe),
        None => backpressure(),
    }
}
