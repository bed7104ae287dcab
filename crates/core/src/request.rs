//! The one request vocabulary.
//!
//! [`Request`]/[`Response`] are how a request is spelled everywhere: a
//! client hands one to a [`crate::Submitter`] ([`crate::Stack::submit`]
//! runs it against a composed stack, `pmck-service` routes it to a
//! shard, `pmck-cluster` to a replica set), and inside the stack every
//! layer passes the same value down through
//! [`crate::BlockDevice::access`] — there is no second, internal enum
//! and no conversion on the way. The `Stack` convenience methods
//! (`read`, `write`, `scrub`, …) are thin wrappers over `submit`.
//!
//! A request either targets one block ([`Request::addr`] returns
//! `Some`) or the whole device (`None`); a sharded front end routes the
//! former to the owning shard and broadcasts the latter to every shard.

use pmck_nvram::FaultEvent;

use crate::engine::ReadOutcome;
use crate::patrol::PatrolReport;
use crate::scrub::ScrubReport;

/// One client request against a protection stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Demand read of one 64 B block.
    Read(u64),
    /// Conventional write of one 64 B block.
    Write {
        /// Block address.
        addr: u64,
        /// New block contents.
        data: [u8; 64],
    },
    /// Bitwise-sum write (§V-D): `data` carries `old ⊕ new`.
    WriteSum {
        /// Block address.
        addr: u64,
        /// The bitwise sum delivered to the chips.
        data: [u8; 64],
    },
    /// Correct one block and rewrite it in place.
    Scrub(u64),
    /// Advance the patrol scrubber by one increment.
    PatrolStep,
    /// Fault-injection hook: i.i.d. bit flips at the given RBER.
    InjectRber(f64),
    /// Fault-injection hook: one scheduled campaign event.
    Fault(FaultEvent),
    /// Full boot-time scrub.
    BootScrub,
    /// Check stored code bits against stored data.
    Verify,
    /// Rebuild the detected failed chip, if any.
    Repair,
    /// Reconfigure into the §V-E re-striped layout.
    Restripe,
    /// Flush and fence every dirty line into the persistence domain.
    Flush,
    /// Simulate a power cut: whatever was not flushed is lost.
    PowerCut,
    /// Replay the intent log and rebuild runtime state from media.
    Recover,
    /// Run one tier-policy pass: re-evaluate every region's measured
    /// RBER and migrate regions whose protection tier changed.
    TierStep,
}

impl Request {
    /// Short, stable name of the request kind (used in
    /// [`crate::CoreError::Unsupported`] errors and trace lines).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Read(_) => "read",
            Request::Write { .. } => "write",
            Request::WriteSum { .. } => "write_sum",
            Request::Scrub(_) => "scrub",
            Request::PatrolStep => "patrol_step",
            Request::InjectRber(_) => "inject_rber",
            Request::Fault(_) => "fault",
            Request::BootScrub => "boot_scrub",
            Request::Verify => "verify",
            Request::Repair => "repair",
            Request::Restripe => "restripe",
            Request::Flush => "flush",
            Request::PowerCut => "power_cut",
            Request::Recover => "recover",
            Request::TierStep => "tier_step",
        }
    }

    /// The block address the request targets, if it has one. Requests
    /// without an address apply to the whole device (and are broadcast
    /// to every shard by a sharded front end).
    pub fn addr(&self) -> Option<u64> {
        match self {
            Request::Read(a) | Request::Scrub(a) => Some(*a),
            Request::Write { addr, .. } | Request::WriteSum { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// The same request retargeted at `addr`. Returns the request
    /// unchanged when it carries no address.
    pub fn with_addr(self, addr: u64) -> Request {
        match self {
            Request::Read(_) => Request::Read(addr),
            Request::Scrub(_) => Request::Scrub(addr),
            Request::Write { data, .. } => Request::Write { addr, data },
            Request::WriteSum { data, .. } => Request::WriteSum { addr, data },
            other => other,
        }
    }
}

/// The successful result of a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Data plus the decode path that produced it.
    Read(ReadOutcome),
    /// The write (conventional or sum) committed.
    Written,
    /// The block was corrected and rewritten.
    Scrubbed,
    /// One patrol increment ran.
    Patrolled(PatrolReport),
    /// Fault injection disturbed `bits` stored bits.
    Injected {
        /// Bits (or cells) disturbed.
        bits: usize,
    },
    /// The boot scrub completed.
    BootScrubbed(ScrubReport),
    /// Result of the consistency check.
    Verified(bool),
    /// The failed chip (if any) was rebuilt.
    Repaired {
        /// The chip that was rebuilt, or `None` if none was detected.
        chip: Option<usize>,
    },
    /// The device reconfigured into the re-striped layout.
    Restriped,
    /// The flush/fence drained into the persistence domain.
    Flushed {
        /// Dirty lines made durable by the fence.
        lines: u64,
    },
    /// The power cut discarded the listed volatile lines.
    PowerLost {
        /// Dirty lines that were lost with the power.
        lost_lines: u64,
    },
    /// Recovery replayed the intent log and rebuilt runtime state.
    Recovered(crate::device::RecoveryReport),
    /// One tier-policy pass ran over the regions.
    Tiered(crate::tier::TierReport),
}

impl Response {
    /// The read outcome, when this answers a [`Request::Read`].
    pub fn read(self) -> Option<ReadOutcome> {
        match self {
            Response::Read(out) => Some(out),
            _ => None,
        }
    }

    /// The patrol report, when this answers a [`Request::PatrolStep`].
    pub fn patrolled(self) -> Option<PatrolReport> {
        match self {
            Response::Patrolled(r) => Some(r),
            _ => None,
        }
    }

    /// Disturbed bits, when this answers a fault-injection request.
    pub fn injected_bits(self) -> Option<usize> {
        match self {
            Response::Injected { bits } => Some(bits),
            _ => None,
        }
    }

    /// The scrub report, when this answers a [`Request::BootScrub`].
    pub fn boot_scrubbed(self) -> Option<ScrubReport> {
        match self {
            Response::BootScrubbed(r) => Some(r),
            _ => None,
        }
    }

    /// The verdict, when this answers a [`Request::Verify`].
    pub fn verified(self) -> Option<bool> {
        match self {
            Response::Verified(ok) => Some(ok),
            _ => None,
        }
    }

    /// Lines made durable, when this answers a [`Request::Flush`].
    pub fn flushed_lines(self) -> Option<u64> {
        match self {
            Response::Flushed { lines } => Some(lines),
            _ => None,
        }
    }

    /// The recovery report, when this answers a [`Request::Recover`].
    pub fn recovered(self) -> Option<crate::device::RecoveryReport> {
        match self {
            Response::Recovered(r) => Some(r),
            _ => None,
        }
    }

    /// The tier report, when this answers a [`Request::TierStep`].
    pub fn tiered(self) -> Option<crate::tier::TierReport> {
        match self {
            Response::Tiered(r) => Some(r),
            _ => None,
        }
    }
}

/// Folds one more device's answer to a broadcast (whole-device) request
/// into the accumulated response. **Callers must fold in device index
/// order** — several rules are order-sensitive (first error wins, first
/// rebuilt chip wins, the tier census rounds per fold); `pmck-service`'s
/// streaming client guarantees this by buffering per-shard parts and
/// merging once all arrived, and `pmck-cluster` folds its nodes in node
/// index order.
pub fn merge_broadcast(
    acc: &mut Result<Response, crate::CoreError>,
    next: Result<Response, crate::CoreError>,
) {
    match (&mut *acc, next) {
        // The first error (in device order) wins and sticks.
        (Err(_), _) => {}
        (Ok(_), Err(e)) => *acc = Err(e),
        (Ok(have), Ok(got)) => match (have, got) {
            (Response::Patrolled(a), Response::Patrolled(b)) => {
                a.blocks_scrubbed += b.blocks_scrubbed;
                a.blocks_skipped += b.blocks_skipped;
                // The merged pass completes when every device's
                // scrubber wrapped.
                a.completed_pass &= b.completed_pass;
            }
            (Response::Injected { bits: a }, Response::Injected { bits: b }) => *a += b,
            (Response::BootScrubbed(a), Response::BootScrubbed(b)) => {
                a.stripes_scrubbed += b.stripes_scrubbed;
                a.bits_corrected += b.bits_corrected;
                a.words_with_errors += b.words_with_errors;
                if a.chip_rebuilt.is_none() {
                    a.chip_rebuilt = b.chip_rebuilt;
                }
            }
            (Response::Verified(a), Response::Verified(b)) => *a &= b,
            (Response::Repaired { chip: a }, Response::Repaired { chip: b }) if a.is_none() => {
                *a = b;
            }
            (Response::Flushed { lines: a }, Response::Flushed { lines: b }) => *a += b,
            (Response::PowerLost { lost_lines: a }, Response::PowerLost { lost_lines: b }) => {
                *a += b;
            }
            (Response::Recovered(a), Response::Recovered(b)) => a.merge(&b),
            (Response::Tiered(a), Response::Tiered(b)) => a.merge(&b),
            // Identical unit responses (Written/Scrubbed/Restriped):
            // the first one already says it all.
            _ => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_and_retarget_round_trip() {
        let w = Request::Write {
            addr: 5,
            data: [1; 64],
        };
        assert_eq!(w.addr(), Some(5));
        assert_eq!(w.with_addr(9).addr(), Some(9));
        assert_eq!(Request::Read(3).with_addr(0), Request::Read(0));
        assert_eq!(Request::Verify.addr(), None);
        assert_eq!(Request::Verify.with_addr(7), Request::Verify);
    }

    #[test]
    fn kind_strings_are_pinned_for_every_variant() {
        let data = [0u8; 64];
        let fault = FaultEvent {
            at_cycle: 0,
            kind: pmck_nvram::FaultKind::Rber { rber: 0.0 },
        };
        let all = [
            (Request::Read(0), "read"),
            (Request::Write { addr: 0, data }, "write"),
            (Request::WriteSum { addr: 0, data }, "write_sum"),
            (Request::Scrub(0), "scrub"),
            (Request::PatrolStep, "patrol_step"),
            (Request::InjectRber(0.0), "inject_rber"),
            (Request::Fault(fault), "fault"),
            (Request::BootScrub, "boot_scrub"),
            (Request::Verify, "verify"),
            (Request::Repair, "repair"),
            (Request::Restripe, "restripe"),
            (Request::Flush, "flush"),
            (Request::PowerCut, "power_cut"),
            (Request::Recover, "recover"),
            (Request::TierStep, "tier_step"),
        ];
        for (req, kind) in all {
            assert_eq!(req.kind(), kind);
        }
        // A sixteenth variant must extend the table above: this match
        // stops compiling until it is listed.
        match all[0].0 {
            Request::Read(_)
            | Request::Write { .. }
            | Request::WriteSum { .. }
            | Request::Scrub(_)
            | Request::PatrolStep
            | Request::InjectRber(_)
            | Request::Fault(_)
            | Request::BootScrub
            | Request::Verify
            | Request::Repair
            | Request::Restripe
            | Request::Flush
            | Request::PowerCut
            | Request::Recover
            | Request::TierStep => {}
        }
    }

    #[test]
    fn unsupported_restripe_keeps_its_error_text() {
        let mut stack = crate::StackBuilder::proposal(32, crate::ChipkillConfig::default()).build();
        let err = stack.submit(&Request::Restripe).unwrap_err();
        assert_eq!(err, crate::CoreError::Unsupported("restripe"));
        assert_eq!(
            err.to_string(),
            "no layer in the stack handles `restripe` accesses"
        );
    }
}
