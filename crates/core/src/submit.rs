//! The transport-generic submission surface.
//!
//! [`Submitter`] is how a [`Request`] is carried: one trait with a
//! synchronous `submit` and a `try_submit`/`poll` ticket surface,
//! implemented by every transport — [`crate::Stack`], `pmck-service`'s
//! `ShardedService` and streaming `ServiceClient`, and `pmck-cluster`'s
//! `Cluster` — so layered code (the cluster tier, the soak campaign in
//! `pmck-bench`) is written once against the trait instead of once per
//! transport. It is the service's only client surface: there is no
//! batch call and no transport-specific ticket type.
//!
//! Transports fall in two camps:
//!
//! * **Streaming** (`ServiceClient`, and `ShardedService` through its
//!   primary lane): `try_submit` enqueues onto a shard ring and may
//!   report retryable [`crate::ServiceFailure::Backpressure`]; `poll`
//!   claims the response once the worker finished it, and `submit`
//!   parks on ring backpressure before it waits.
//! * **Eager** (`Stack`, `Cluster`): the request executes
//!   inside `try_submit` and the ticket is immediately redeemable. The
//!   shared [`EagerTickets`] helper provides the bookkeeping, so eager
//!   transports get the full ticket surface for free and generic callers
//!   never need to know which camp they are talking to.

use std::collections::VecDeque;

use crate::error::CoreError;
use crate::request::{Request, Response};

/// A claim on one in-flight request's response, transport-generic.
///
/// The payload is an opaque `(tag, seq)` pair whose meaning belongs to
/// the issuing transport (the streaming client maps `tag` to a window
/// slot; eager transports use a completion-queue sequence number). A
/// ticket is only meaningful on the transport that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitTicket {
    tag: u32,
    seq: u64,
}

impl SubmitTicket {
    /// Builds a ticket from its transport-internal parts.
    pub fn from_parts(tag: u32, seq: u64) -> Self {
        SubmitTicket { tag, seq }
    }

    /// The transport-internal tag (window slot, queue id, …).
    pub fn tag(self) -> u32 {
        self.tag
    }

    /// The transport-internal sequence number.
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// One vocabulary for submitting [`Request`]s to any transport.
///
/// See the module docs for the streaming-vs-eager split. Every
/// implementation preserves the shared error surface: admission-control
/// pushback is always retryable
/// [`crate::ServiceFailure::Backpressure`], fatal transport loss is
/// [`CoreError::Service`], and replica/quorum failures from the cluster
/// tier are [`CoreError::Cluster`] — each with `source()` chains
/// reaching the layer that actually failed.
pub trait Submitter {
    /// Total capacity in blocks across the transport's address space.
    fn num_blocks(&self) -> u64;

    /// Executes one request synchronously and returns its response.
    ///
    /// # Errors
    ///
    /// As the underlying device, plus the transport's own failure
    /// vocabulary ([`CoreError::Service`] / [`CoreError::Cluster`]).
    fn submit(&mut self, req: &Request) -> Result<Response, CoreError>;

    /// Submits one request for later redemption. Streaming transports
    /// may refuse with retryable
    /// [`crate::ServiceFailure::Backpressure`]; eager transports execute
    /// the request on the spot and the ticket is immediately ready.
    ///
    /// # Errors
    ///
    /// Backpressure (retry after redeeming tickets) or the transport's
    /// fatal failures. Device-level errors surface when the ticket is
    /// redeemed, not here.
    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError>;

    /// Claims `ticket`'s response if it is ready, without blocking.
    /// Returns `None` while the request is still in flight or if the
    /// ticket was already redeemed.
    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>>;

    /// Claims `ticket`'s response, blocking until it is ready.
    ///
    /// # Panics
    ///
    /// If the transport does not hold `ticket` — stale, already
    /// redeemed, or issued by another transport — since no response
    /// could ever arrive for it.
    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError>;
}

/// Ticket bookkeeping for eager [`Submitter`]s: the request already
/// executed inside `try_submit`, so issuing a ticket is pushing the
/// finished result onto a completion queue and redeeming is popping it
/// by sequence number. The queue reuses its allocation, so the steady
/// state is allocation-free once the outstanding-ticket high-water mark
/// is reached.
#[derive(Debug, Default)]
pub struct EagerTickets {
    next_seq: u64,
    done: VecDeque<(u64, Result<Response, CoreError>)>,
}

impl EagerTickets {
    /// Empty bookkeeping (no tickets outstanding).
    pub fn new() -> Self {
        EagerTickets::default()
    }

    /// Issues a ticket for an already-computed result.
    pub fn issue(&mut self, res: Result<Response, CoreError>) -> SubmitTicket {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.done.push_back((seq, res));
        SubmitTicket::from_parts(0, seq)
    }

    /// Redeems `ticket`, returning `None` for unknown (stale or
    /// double-redeemed) tickets.
    pub fn claim(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        let at = self.done.iter().position(|(seq, _)| *seq == ticket.seq())?;
        self.done.remove(at).map(|(_, res)| res)
    }

    /// [`EagerTickets::claim`] for [`Submitter::wait`]: an eager
    /// transport's ticket is ready as soon as it is issued.
    ///
    /// # Panics
    ///
    /// If `ticket` is not outstanding here.
    pub fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        self.claim(ticket).unwrap_or_else(|| {
            panic!("{ticket:?} is not held by this transport (stale, already redeemed, or foreign)")
        })
    }

    /// Tickets issued but not yet redeemed.
    pub fn in_flight(&self) -> usize {
        self.done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_tickets_redeem_in_any_order_and_only_once() {
        let mut t = EagerTickets::new();
        let a = t.issue(Ok(Response::Written));
        let b = t.issue(Err(CoreError::OutOfRange(9)));
        assert_eq!(t.in_flight(), 2);
        assert_eq!(t.claim(b), Some(Err(CoreError::OutOfRange(9))));
        assert_eq!(t.claim(b), None, "double redemption");
        assert_eq!(t.claim(a), Some(Ok(Response::Written)));
        assert_eq!(t.in_flight(), 0);
        let stale = SubmitTicket::from_parts(0, 99);
        assert_eq!(t.claim(stale), None);
    }

    #[test]
    fn ticket_parts_round_trip() {
        let t = SubmitTicket::from_parts(7, 41);
        assert_eq!(t.tag(), 7);
        assert_eq!(t.seq(), 41);
    }
}
