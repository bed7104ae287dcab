//! The streaming submission client: tickets, backpressure, out-of-band
//! completion.
//!
//! A [`ServiceClient`] owns one private lane of SPSC rings to every
//! shard worker ([`pmck_rt::pool::ShardPool`]). Submission is a single
//! ring push; the response comes back later through the completion ring
//! and is claimed with a [`Ticket`]:
//!
//! * [`ServiceClient::try_submit`] never blocks — a full submission ring
//!   or an exhausted ticket window reports
//!   [`ServiceFailure::Backpressure`] and the caller retries after
//!   redeeming tickets;
//! * [`ServiceClient::submit`] blocks on *ring* backpressure with the
//!   spin-then-park admission control (window exhaustion still errors:
//!   only the caller can redeem tickets);
//! * [`ServiceClient::poll_response`] / [`ServiceClient::wait_response`]
//!   claim a ticket's response; tickets may be redeemed in any order.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pmck_core::{merge_broadcast, CoreError, Request, Response, ServiceError, ServiceFailure};
use pmck_rt::pool::{PoolClient, PoolError, TrySendError};
use pmck_rt::ring::MpscProducer;

use crate::route_addr;

/// One request tagged with the client-side slot that will absorb its
/// completion.
pub(crate) type Job = (u32, Request);
/// A shard's answer, tagged with that slot.
pub(crate) type Comp = (u32, Result<Response, CoreError>);

/// One latency sample recorded when a ticket is redeemed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencySample {
    /// Owning shard for addressed requests; [`BROADCAST_SHARD`] for
    /// whole-device requests.
    pub shard: u32,
    /// Submit-to-redeem latency in nanoseconds.
    pub ns: u64,
}

/// Shard tag used for broadcast latency samples.
pub(crate) const BROADCAST_SHARD: u32 = u32::MAX;

/// Unredeemed tickets a client may hold (and the per-shard completion
/// ring capacity backing them).
pub(crate) const TICKET_WINDOW: usize = 256;
/// Per-`(client, shard)` submission ring depth — the backpressure knob.
pub(crate) const SUBMIT_DEPTH: usize = 64;
/// Broadcast responses that may be in flight per client at once (each
/// needs a per-shard reassembly buffer).
const BCAST_SLOTS: usize = 16;

const NO_BCAST: u32 = u32::MAX;

/// A claim on one in-flight request's response. Redeem with
/// [`ServiceClient::poll_response`] or [`ServiceClient::wait_response`];
/// tickets from one client may be redeemed in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    slot: u32,
    seq: u64,
}

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

/// A streaming submission endpoint. `Send` — move it to the producer
/// thread that owns it; clients never contend with each other.
pub struct ServiceClient {
    client: PoolClient<Job, Comp>,
    shard_blocks: Arc<[u64]>,
    next_seq: u64,
    outstanding: usize,
    slots: Box<[Slot]>,
    free_slots: Vec<u32>,
    bufs: Vec<BcastBuf>,
    free_bufs: Vec<u32>,
    /// Ticket FIFO scratch for [`ServiceClient::submit_batch_into`]
    /// (kept on self so the steady state is allocation-free).
    batch_fifo: VecDeque<Ticket>,
    telemetry: MpscProducer<LatencySample>,
    dropped_samples: Arc<AtomicU64>,
}

impl ServiceClient {
    pub(crate) fn new(
        client: PoolClient<Job, Comp>,
        shard_blocks: Arc<[u64]>,
        telemetry: MpscProducer<LatencySample>,
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
            batch_fifo: VecDeque::new(),
            telemetry,
            dropped_samples,
        }
    }

    /// Number of shards this client can reach.
    pub fn shards(&self) -> usize {
        self.shard_blocks.len()
    }

    /// Total capacity in blocks across all shards.
    pub fn num_blocks(&self) -> u64 {
        self.shard_blocks.iter().sum()
    }

    /// The shard and local address owning global address `addr`.
    pub fn route(&self, addr: u64) -> Option<(usize, u64)> {
        route_addr(&self.shard_blocks, addr)
    }

    /// Unredeemed tickets currently held.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Maximum unredeemed tickets this client may hold.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// Submits one request without blocking and returns a [`Ticket`]
    /// for its eventual response. Out-of-range addresses still yield a
    /// ticket (redeeming it reports [`CoreError::OutOfRange`]), so batch
    /// bookkeeping stays uniform.
    ///
    /// # Errors
    ///
    /// [`ServiceFailure::Backpressure`] when the destination ring, the
    /// ticket window, or (for broadcasts) a reassembly buffer is
    /// exhausted — nothing was enqueued, retry after redeeming;
    /// [`ServiceFailure::QueueClosed`] / [`ServiceFailure::WorkerLost`]
    /// once the service is shut down or poisoned.
    pub fn try_submit(&mut self, req: &Request) -> Result<Ticket, CoreError> {
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

    /// [`ServiceClient::try_submit`] that blocks (spin, yield, park) on
    /// *ring* backpressure. Window or broadcast-buffer exhaustion still
    /// returns [`ServiceFailure::Backpressure`]: only redemption can
    /// free those, and only the caller holds the tickets.
    pub fn submit(&mut self, req: &Request) -> Result<Ticket, CoreError> {
        loop {
            let self_inflicted =
                self.free_slots.is_empty() || (req.addr().is_none() && self.free_bufs.is_empty());
            match self.try_submit(req) {
                Ok(t) => return Ok(t),
                Err(e) if is_backpressure(&e) => {
                    if self_inflicted {
                        return Err(e);
                    }
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

    /// Claims `ticket`'s response if it is ready, without blocking.
    /// Returns `None` while the request is still in flight (or if the
    /// ticket was already redeemed). Once the service is shut down or a
    /// worker died and no completion can arrive any more, outstanding
    /// tickets resolve to the corresponding [`CoreError::Service`]
    /// instead of pending forever.
    pub fn poll_response(&mut self, ticket: Ticket) -> Option<Result<Response, CoreError>> {
        self.drain_completions();
        let idx = ticket.slot as usize;
        let slot = &mut self.slots[idx];
        if !slot.busy || slot.seq != ticket.seq {
            return None; // stale or double-redeemed ticket
        }
        if slot.ready.is_none() {
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
                if slot.bcast != NO_BCAST {
                    self.release_buf(idx);
                }
            }
        }
        self.redeem(idx)
    }

    /// Claims `ticket`'s response, blocking (spin, yield, park) until it
    /// is ready or the service fails.
    pub fn wait_response(&mut self, ticket: Ticket) -> Result<Response, CoreError> {
        loop {
            if let Some(res) = self.poll_response(ticket) {
                return res;
            }
            self.client.wait_progress(None);
        }
    }

    /// Streams a whole batch: submits ahead up to the window, redeems in
    /// request order, and fills `out` with one result per request.
    /// Clearing and refilling the same `out` keeps the steady state
    /// allocation-free. On a service failure (shutdown, worker lost) the
    /// batch is indivisible: every slot reports the failure.
    pub fn submit_batch_into(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Response, CoreError>>,
    ) {
        out.clear();
        let mut next = 0usize;
        let mut fatal: Option<CoreError> = None;
        while out.len() < reqs.len() {
            // Redeem the oldest ticket first so `out` stays in request
            // order and window slots recycle as fast as possible.
            if let Some(&front) = self.batch_fifo.front() {
                if let Some(res) = self.poll_response(front) {
                    self.batch_fifo.pop_front();
                    out.push(res);
                    continue;
                }
            }
            if next < reqs.len() {
                match self.try_submit(&reqs[next]) {
                    Ok(t) => {
                        self.batch_fifo.push_back(t);
                        next += 1;
                        continue;
                    }
                    Err(e) if is_backpressure(&e) => {}
                    Err(e) => {
                        fatal = Some(e);
                        break;
                    }
                }
            }
            // No progress possible right now: the front ticket is in
            // flight and submission is backpressured.
            assert!(
                !self.batch_fifo.is_empty() || !self.free_slots.is_empty(),
                "ticket window exhausted by tickets not owned by this batch"
            );
            self.client.wait_progress(None);
        }
        if let Some(err) = fatal {
            // Drain the tickets already issued (they resolve — workers
            // drain on shutdown, die on panic) so the window recycles,
            // then report the indivisible failure on every slot.
            while let Some(t) = self.batch_fifo.pop_front() {
                let _ = self.wait_response(t);
            }
            out.clear();
            out.resize(reqs.len(), Err(err));
        }
    }

    /// [`ServiceClient::submit_batch_into`] returning a fresh `Vec`.
    pub fn submit_batch(&mut self, reqs: &[Request]) -> Vec<Result<Response, CoreError>> {
        let mut out = Vec::new();
        self.submit_batch_into(reqs, &mut out);
        out
    }

    // --- internals -------------------------------------------------

    fn issue(&mut self, shard: u32, bcast: u32, remaining: u32) -> Ticket {
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
        Ticket {
            slot: idx as u32,
            seq,
        }
    }

    fn issue_immediate(&mut self, res: Result<Response, CoreError>) -> Ticket {
        let t = self.issue(BROADCAST_SHARD, NO_BCAST, 0);
        let slot = &mut self.slots[t.slot as usize];
        slot.started = None; // never reached a shard: no latency sample
        slot.ready = Some(res);
        t
    }

    fn try_submit_broadcast(&mut self, req: &Request) -> Result<Ticket, CoreError> {
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
        let slot_idx = ticket.slot;
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
            let sample = LatencySample { shard, ns };
            if self.telemetry.try_push(sample).is_err() {
                // Telemetry is lossy by design: dropping a sample must
                // never stall the data path, only be counted.
                self.dropped_samples.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(res)
    }
}

/// The streaming side of the unified submission surface. The inherent
/// methods of the same names keep winning method resolution, so
/// existing `client.submit(..) -> Ticket` call sites are untouched; the
/// trait maps [`Ticket`] to the transport-generic
/// [`pmck_core::SubmitTicket`] (`tag` = window slot, `seq` = ticket
/// generation) and back.
impl pmck_core::Submitter for ServiceClient {
    fn num_blocks(&self) -> u64 {
        ServiceClient::num_blocks(self)
    }

    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        let ticket = ServiceClient::submit(self, req)?;
        self.wait_response(ticket)
    }

    fn try_submit(&mut self, req: &Request) -> Result<pmck_core::SubmitTicket, CoreError> {
        ServiceClient::try_submit(self, req)
            .map(|t| pmck_core::SubmitTicket::from_parts(t.slot, t.seq))
    }

    fn poll(&mut self, ticket: pmck_core::SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.poll_response(Ticket {
            slot: ticket.tag(),
            seq: ticket.seq(),
        })
    }

    fn wait(&mut self, ticket: pmck_core::SubmitTicket) -> Result<Response, CoreError> {
        self.wait_response(Ticket {
            slot: ticket.tag(),
            seq: ticket.seq(),
        })
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
