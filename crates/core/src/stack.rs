//! Stack composition: building any protection configuration of the
//! paper — baseline, proposal, proposal+restripe, +wear-level, +patrol,
//! +Write-CRC — from the same middleware layers.
//!
//! [`StackBuilder`] assembles the layers bottom-up (`chipkill` or
//! `baseline`, optionally [`crate::Restripeable`], then
//! [`crate::Patrolled`] walking physical addresses, then
//! [`crate::WearLevelled`] translating logical ones, then
//! [`crate::LinkProtected`] on top) and [`Stack`] bundles the boxed
//! device with its [`AccessContext`], exposing typed convenience
//! wrappers over [`BlockDevice::access`].

use pmck_nvram::FaultEvent;
use pmck_rt::metrics::MetricsRegistry;

use crate::baseline::BaselineMemory;
use crate::config::ChipkillConfig;
use crate::device::{AccessContext, BlockDevice, LayerId, LayerStats};
use crate::engine::{ChipkillMemory, ReadOutcome};
use crate::error::CoreError;
use crate::iocrc::{BusFault, LinkProtected};
use crate::layout::ProtectionTier;
use crate::patrol::{PatrolReport, Patrolled};
use crate::request::{Request, Response};
use crate::restripe::Restripeable;
use crate::scrub::ScrubReport;
use crate::stats::CoreStats;
use crate::submit::{EagerTickets, SubmitTicket, Submitter};
use crate::tier::{TierPolicy, TierReport, TieredMemory};
use crate::wearlevel::WearLevelled;

/// A composed protection stack: a boxed [`BlockDevice`] pipeline plus
/// the [`AccessContext`] threaded through every access.
pub struct Stack {
    dev: Box<dyn BlockDevice>,
    ctx: AccessContext,
    /// Ticket bookkeeping for the eager [`Submitter`] surface.
    tickets: EagerTickets,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("top", &self.dev.label())
            .field("num_blocks", &self.dev.num_blocks())
            .finish()
    }
}

impl Stack {
    /// Bundles an already-composed device with a context.
    pub fn from_parts(dev: Box<dyn BlockDevice>, ctx: AccessContext) -> Self {
        Stack {
            dev,
            ctx,
            tickets: EagerTickets::new(),
        }
    }

    /// Executes one client [`Request`]. This is the primary entry point;
    /// every typed convenience method below is a thin wrapper over it,
    /// and `pmck-service` batches it across shards.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        self.dev.access(*req, &mut self.ctx)
    }

    /// Submits `req` and takes the payload out of the response variant
    /// that kind of request is answered with.
    fn typed<T>(
        &mut self,
        req: Request,
        payload: fn(Response) -> Option<T>,
    ) -> Result<T, CoreError> {
        let resp = self.submit(&req)?;
        Ok(payload(resp).unwrap_or_else(|| unreachable!("{} answered {resp:?}", req.kind())))
    }

    /// Capacity (in blocks) as seen at the top of the stack.
    pub fn num_blocks(&self) -> u64 {
        self.dev.num_blocks()
    }

    /// Reads one block.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn read(&mut self, addr: u64) -> Result<ReadOutcome, CoreError> {
        self.typed(Request::Read(addr), Response::read)
    }

    /// Writes one block (conventional path).
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), CoreError> {
        self.submit(&Request::Write { addr, data: *data })
            .map(|_| ())
    }

    /// Writes one block via the bitwise-sum path (`data` = old ⊕ new).
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn write_sum(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), CoreError> {
        self.submit(&Request::WriteSum { addr, data: *data })
            .map(|_| ())
    }

    /// Runs one patrol increment (requires a patrol layer).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] without a patrol layer.
    pub fn patrol_step(&mut self) -> Result<PatrolReport, CoreError> {
        self.typed(Request::PatrolStep, Response::patrolled)
    }

    /// Injects i.i.d. bit errors at `rber`; returns flipped bits.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn inject_bit_errors(&mut self, rber: f64) -> Result<usize, CoreError> {
        self.typed(Request::InjectRber(rber), Response::injected_bits)
    }

    /// Applies one fault-campaign event; returns disturbed bits/cells.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn apply_fault(&mut self, event: &FaultEvent) -> Result<usize, CoreError> {
        self.typed(Request::Fault(*event), Response::injected_bits)
    }

    /// Full boot-time scrub.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn boot_scrub(&mut self) -> Result<ScrubReport, CoreError> {
        self.typed(Request::BootScrub, Response::boot_scrubbed)
    }

    /// Whether stored code bits are consistent with stored data.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn verify_consistent(&mut self) -> Result<bool, CoreError> {
        self.typed(Request::Verify, Response::verified)
    }

    /// Reconfigures into the §V-E re-striped layout in place (requires a
    /// [`crate::Restripeable`] base).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] without a restripeable base.
    pub fn restripe(&mut self) -> Result<(), CoreError> {
        self.submit(&Request::Restripe).map(|_| ())
    }

    /// Flushes and fences every dirty line into the persistence domain;
    /// returns the lines made durable (0 on a volatile stack).
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn flush(&mut self) -> Result<u64, CoreError> {
        self.typed(Request::Flush, Response::flushed_lines)
    }

    /// Simulates a power cut; returns the volatile lines lost with the
    /// power (0 on a volatile stack).
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::access`].
    pub fn power_cut(&mut self) -> Result<u64, CoreError> {
        self.typed(Request::PowerCut, |resp| match resp {
            Response::PowerLost { lost_lines } => Some(lost_lines),
            _ => None,
        })
    }

    /// Replays the intent log and rebuilds runtime state from the
    /// durable image (a no-op report on a volatile stack).
    ///
    /// # Errors
    ///
    /// [`CoreError::Recovery`] when the durable state is unrecoverable.
    pub fn recover(&mut self) -> Result<crate::device::RecoveryReport, CoreError> {
        self.typed(Request::Recover, Response::recovered)
    }

    /// Runs one tier-policy pass over the regions (requires a
    /// [`crate::TieredMemory`] base); returns the post-pass census.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] without a tiered base.
    pub fn tier_step(&mut self) -> Result<TierReport, CoreError> {
        self.typed(Request::TierStep, Response::tiered)
    }

    /// The current tier census, when a tiered base anchors the stack.
    pub fn tier_report(&self) -> Option<TierReport> {
        self.dev.tier_report()
    }

    /// The persistence domain, when the stack was built with one.
    pub fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.dev.pmem_domain()
    }

    /// Arms the power-cut fuse `steps` durable chunk writes into the
    /// future; returns whether the stack has a domain to arm.
    pub fn arm_fuse(&mut self, steps: u64) -> bool {
        match self.dev.pmem_domain() {
            Some(d) => {
                d.arm_fuse(steps);
                true
            }
            None => false,
        }
    }

    /// Durable chunk writes attempted so far, when persistent.
    pub fn pmem_steps(&mut self) -> Option<u64> {
        self.dev.pmem_domain().map(|d| d.steps_taken())
    }

    /// Whether the staged image equals the live arrays, when persistent
    /// (see [`BlockDevice::staging_matches_live`]): `Some(true)` after
    /// every flush, or a mutation site forgot to mark its stripe dirty.
    pub fn staging_matches_live(&self) -> Option<bool> {
        self.dev.staging_matches_live()
    }

    /// The chip failure detected by decode logic, if any.
    pub fn detected_failed_chip(&self) -> Option<usize> {
        self.dev.detected_failed_chip()
    }

    /// The chipkill engine's counters, when one anchors the stack.
    pub fn core_stats(&self) -> Option<CoreStats> {
        self.dev.core_stats()
    }

    /// Stats recorded under `id`, if that layer has seen traffic.
    pub fn layer(&self, id: LayerId) -> Option<LayerStats> {
        self.ctx.layer(id)
    }

    /// All per-layer stats in first-access order.
    pub fn layers(&self) -> &[(LayerId, LayerStats)] {
        self.ctx.layers()
    }

    /// Publishes per-layer counters (`<prefix>.layer.<label>.*`), the
    /// engine stats (`<prefix>.engine.*`) if present, and — on a tiered
    /// base — the storage-cost gauges: each tier's constant cost under
    /// `<prefix>.tier_cost.<tier>` and the region-weighted blend under
    /// `<prefix>.total_storage_cost`.
    pub fn publish_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        for (label, stats) in self.ctx.layers() {
            stats.publish_metrics(reg, &format!("{prefix}.layer.{label}"));
        }
        if let Some(core) = self.core_stats() {
            core.publish_metrics(reg, &format!("{prefix}.engine"));
        }
        if let Some(report) = self.dev.tier_report() {
            for tier in ProtectionTier::ALL {
                reg.set_gauge(
                    &format!("{prefix}.tier_cost.{tier}"),
                    tier.total_storage_cost(),
                );
            }
            reg.set_gauge(
                &format!("{prefix}.total_storage_cost"),
                report.blended_cost(),
            );
        }
    }
}

/// The eager side of the unified submission surface: `try_submit`
/// executes the request on the spot, so tickets are immediately
/// redeemable and backpressure never occurs; `wait` on a ticket the
/// stack does not hold panics. Existing call sites keep resolving to the
/// inherent methods of the same names.
impl Submitter for Stack {
    fn num_blocks(&self) -> u64 {
        Stack::num_blocks(self)
    }

    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        Stack::submit(self, req)
    }

    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        let res = Stack::submit(self, req);
        Ok(self.tickets.issue(res))
    }

    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.tickets.claim(ticket)
    }

    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        self.tickets.wait(ticket)
    }
}

enum BaseKind {
    Proposal {
        cfg: ChipkillConfig,
    },
    Baseline,
    Tiered {
        cfg: ChipkillConfig,
        regions: usize,
        policy: TierPolicy,
    },
}

/// Builder assembling any permutation of the paper's protection layers.
///
/// # Examples
///
/// ```
/// use pmck_core::StackBuilder;
///
/// let mut stack = StackBuilder::proposal(96, Default::default())
///     .wear_levelled(8)
///     .patrolled(4, 0)
///     .seed(7)
///     .build();
/// stack.write(5, &[0xAB; 64]).unwrap();
/// assert_eq!(stack.read(5).unwrap().data, [0xAB; 64]);
/// assert!(stack.layer(pmck_core::LayerId::Chipkill).is_some());
/// ```
pub struct StackBuilder {
    blocks: u64,
    base: BaseKind,
    restripeable: bool,
    wear_level: Option<u64>,
    patrol: Option<(u64, u64)>,
    link: Option<(BusFault, u32)>,
    persistent: Option<pmck_pmem::PmemConfig>,
    seed: u64,
}

impl StackBuilder {
    /// A proposal (chipkill) stack with `blocks` usable blocks.
    pub fn proposal(blocks: u64, cfg: ChipkillConfig) -> Self {
        StackBuilder {
            blocks,
            base: BaseKind::Proposal { cfg },
            restripeable: false,
            wear_level: None,
            patrol: None,
            link: None,
            persistent: None,
            seed: 0,
        }
    }

    /// A §III-A baseline stack with `blocks` usable blocks.
    pub fn baseline(blocks: u64) -> Self {
        StackBuilder {
            blocks,
            base: BaseKind::Baseline,
            restripeable: false,
            wear_level: None,
            patrol: None,
            link: None,
            persistent: None,
            seed: 0,
        }
    }

    /// Allows the §V-E in-place re-stripe transition ([`Stack::restripe`]).
    ///
    /// # Panics
    ///
    /// [`StackBuilder::build`] panics if combined with a baseline base.
    pub fn restripeable(mut self) -> Self {
        self.restripeable = true;
        self
    }

    /// Switches a proposal base to adaptive per-region tiering
    /// ([`crate::TieredMemory`]): the rank splits into `regions` regions,
    /// each starting at the configured tier, with `policy` migrating
    /// them as their measured RBER moves ([`Stack::tier_step`]).
    ///
    /// # Panics
    ///
    /// [`StackBuilder::build`] panics if combined with a baseline base
    /// or with [`StackBuilder::restripeable`].
    pub fn tiered(mut self, regions: usize, policy: TierPolicy) -> Self {
        self.base = match self.base {
            BaseKind::Proposal { cfg } | BaseKind::Tiered { cfg, .. } => BaseKind::Tiered {
                cfg,
                regions,
                policy,
            },
            BaseKind::Baseline => panic!("tiering is a proposal-only mechanism"),
        };
        self
    }

    /// Adds Start-Gap wear leveling with a gap move every `interval`
    /// demand writes.
    pub fn wear_levelled(mut self, interval: u64) -> Self {
        self.wear_level = Some(interval);
        self
    }

    /// Adds patrol scrubbing: `blocks_per_step` blocks per increment,
    /// automatically every `every` demand accesses (0 = only on
    /// [`Stack::patrol_step`]).
    pub fn patrolled(mut self, blocks_per_step: u64, every: u64) -> Self {
        self.patrol = Some((blocks_per_step, every));
        self
    }

    /// Adds Write-CRC link protection on top of the stack.
    pub fn link_protected(mut self, fault: BusFault, max_retries: u32) -> Self {
        self.link = Some((fault, max_retries));
        self
    }

    /// Gives the stack a persistence domain: writes become durable only
    /// at [`Stack::flush`], a [`Stack::power_cut`] discards everything
    /// since the last flush, and [`Stack::recover`] replays the intent
    /// log. The build itself issues one initial flush so the first
    /// recovery has a sealed epoch to return to.
    ///
    /// # Panics
    ///
    /// [`StackBuilder::build`] panics if combined with a baseline base.
    pub fn persistent(mut self, cfg: pmck_pmem::PmemConfig) -> Self {
        self.persistent = Some(cfg);
        self
    }

    /// Seeds the context's fault-injection RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the composed stack, bottom-up.
    ///
    /// # Panics
    ///
    /// Panics if `restripeable` was requested on a baseline base, or on
    /// the layers' own invalid-parameter conditions.
    pub fn build(self) -> Stack {
        // Wear leveling needs one spare physical block for the gap.
        let physical = if self.wear_level.is_some() {
            self.blocks + 1
        } else {
            self.blocks
        };
        let mut dev: Box<dyn BlockDevice> = match self.base {
            BaseKind::Proposal { cfg } => {
                cfg.layout
                    .validate()
                    .expect("chipkill layout violates a geometry invariant");
                let mut rank = ChipkillMemory::new(physical, cfg);
                if let Some(pcfg) = self.persistent {
                    rank.set_domain(crate::pmem::PmemDomain::for_rank(
                        rank.layout(),
                        rank.stripes(),
                        rank.num_blocks(),
                        pcfg,
                    ));
                }
                if self.restripeable {
                    Box::new(Restripeable::new(rank))
                } else {
                    Box::new(rank)
                }
            }
            BaseKind::Tiered {
                cfg,
                regions,
                policy,
            } => {
                assert!(
                    !self.restripeable,
                    "re-striping and tiering both own the base layout; pick one"
                );
                cfg.layout
                    .validate()
                    .expect("chipkill layout violates a geometry invariant");
                let mut mem = TieredMemory::new(physical, regions, cfg, policy);
                if let Some(pcfg) = self.persistent {
                    mem.set_persistent(pcfg);
                }
                Box::new(mem)
            }
            BaseKind::Baseline => {
                assert!(
                    !self.restripeable,
                    "re-striping is a proposal-only mechanism"
                );
                assert!(
                    self.persistent.is_none(),
                    "persistence is a proposal-only mechanism"
                );
                Box::new(BaselineMemory::new(physical))
            }
        };
        // Patrol sits below wear leveling: it walks physical addresses,
        // oblivious to the logical remap above it.
        if let Some((per_step, every)) = self.patrol {
            dev = Box::new(Patrolled::over(dev, per_step, every));
        }
        if let Some(interval) = self.wear_level {
            dev = Box::new(WearLevelled::over(dev, self.blocks, interval));
        }
        if let Some((fault, max_retries)) = self.link {
            dev = Box::new(LinkProtected::over(dev, fault, max_retries));
        }
        let mut stack = Stack::from_parts(dev, AccessContext::new(self.seed));
        if self.persistent.is_some() {
            // Seal the initial (all-zero) image so the first recovery
            // has a durable epoch to return to.
            stack.flush().expect("initial flush cannot fail");
        }
        stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_nvram::{ChipFailureKind, FaultKind};

    fn fill(stack: &mut Stack) -> Vec<[u8; 64]> {
        (0..stack.num_blocks())
            .map(|a| {
                let mut b = [0u8; 64];
                for (i, x) in b.iter_mut().enumerate() {
                    *x = (a as u8).wrapping_mul(29) ^ (i as u8);
                }
                stack.write(a, &b).unwrap();
                b
            })
            .collect()
    }

    #[test]
    fn full_proposal_stack_round_trips() {
        let mut stack = StackBuilder::proposal(96, ChipkillConfig::default())
            .restripeable()
            .wear_levelled(8)
            .patrolled(4, 16)
            .link_protected(BusFault { ber: 1e-4 }, 8)
            .seed(21)
            .build();
        assert_eq!(stack.num_blocks(), 96);
        let truth = fill(&mut stack);
        stack.inject_bit_errors(1e-5).unwrap();
        for (a, b) in truth.iter().enumerate() {
            assert_eq!(&stack.read(a as u64).unwrap().data, b, "block {a}");
        }
        // Every configured layer saw traffic.
        for id in [
            LayerId::Link,
            LayerId::Wearlevel,
            LayerId::Patrol,
            LayerId::Chipkill,
        ] {
            assert!(stack.layer(id).is_some(), "layer {id} silent");
        }
        assert!(stack.core_stats().unwrap().reads > 0);
    }

    #[test]
    fn restripe_transitions_in_place_and_preserves_data() {
        let mut stack = StackBuilder::proposal(64, ChipkillConfig::default())
            .restripeable()
            .seed(22)
            .build();
        let truth = fill(&mut stack);
        stack
            .apply_fault(&FaultEvent {
                at_cycle: 0,
                kind: FaultKind::ChipKill {
                    chip: 2,
                    kind: ChipFailureKind::RandomGarbage,
                },
            })
            .unwrap();
        // A demand read detects the failure via erasure decode.
        let _ = stack.read(0).unwrap();
        let demand_reads = stack.core_stats().unwrap().reads;
        stack.restripe().unwrap();
        // The snapshot excludes the rebuild's own reads.
        assert_eq!(stack.core_stats().unwrap().reads, demand_reads);
        for (a, b) in truth.iter().enumerate() {
            assert_eq!(&stack.read(a as u64).unwrap().data, b, "block {a}");
        }
        assert!(stack.verify_consistent().unwrap());
        // A second restripe is a routing miss.
        assert_eq!(stack.restripe(), Err(CoreError::Unsupported("restripe")));
    }

    #[test]
    fn baseline_stack_supports_wearlevel_but_not_restripe() {
        let mut stack = StackBuilder::baseline(48).wear_levelled(4).seed(23).build();
        let truth = fill(&mut stack);
        for (a, b) in truth.iter().enumerate() {
            assert_eq!(&stack.read(a as u64).unwrap().data, b);
        }
        assert!(stack.layer(LayerId::Wearlevel).unwrap().gap_moves > 0);
        assert_eq!(stack.restripe(), Err(CoreError::Unsupported("restripe")));
        assert_eq!(stack.core_stats(), None);
    }

    #[test]
    #[should_panic(expected = "proposal-only")]
    fn baseline_cannot_be_restripeable() {
        let _ = StackBuilder::baseline(32).restripeable().build();
    }

    #[test]
    fn metrics_publish_layers_and_engine() {
        let mut stack = StackBuilder::proposal(32, ChipkillConfig::default())
            .patrolled(8, 0)
            .build();
        stack.write(1, &[9; 64]).unwrap();
        stack.read(1).unwrap();
        stack.patrol_step().unwrap();
        let reg = MetricsRegistry::new();
        stack.publish_metrics(&reg, "stack");
        assert_eq!(reg.counter("stack.layer.chipkill.reads"), 1);
        assert_eq!(reg.counter("stack.layer.patrol.patrol_steps"), 1);
        assert_eq!(reg.counter("stack.engine.writes"), 1);
    }

    #[test]
    #[should_panic(expected = "is not held by this transport")]
    fn waiting_on_a_redeemed_ticket_panics_instead_of_spinning() {
        let mut stack = StackBuilder::proposal(32, ChipkillConfig::default()).build();
        let t = Submitter::try_submit(&mut stack, &Request::Read(0)).unwrap();
        assert!(Submitter::wait(&mut stack, t).is_ok());
        assert_eq!(Submitter::poll(&mut stack, t), None);
        let _ = Submitter::wait(&mut stack, t);
    }
}
