//! The composable block-device pipeline (the functional stack's spine).
//!
//! Every functional layer of the reproduction — the chipkill rank, the
//! §III-A baseline, the re-striped post-failure layout, Start-Gap wear
//! leveling, patrol scrubbing, and the Write-CRC link — speaks one
//! uniform interface: [`BlockDevice`]. An access is a [`Request`] — the
//! same value a client hands to [`crate::Submitter::submit`] — the
//! result a [`Response`], and every call threads an [`AccessContext`]
//! that carries the fault-injection RNG and per-layer [`LayerStats`].
//!
//! Middleware layers ([`crate::WearLevelled`], [`crate::Patrolled`],
//! [`crate::LinkProtected`], [`crate::Restripeable`]) wrap any inner
//! `BlockDevice`, so a full protection stack is built by composition —
//! see [`crate::StackBuilder`] — instead of bespoke wrapper plumbing.
//! Layers that do not implement an access kind return
//! [`CoreError::Unsupported`] rather than silently no-opping.

use pmck_nvram::{FaultEvent, FaultKind};
use pmck_rt::json::Json;
use pmck_rt::metrics::MetricsRegistry;
use pmck_rt::rng::StdRng;

use crate::baseline::BaselineMemory;
use crate::engine::{ChipkillMemory, ReadOutcome, ReadPath};
use crate::error::CoreError;
use crate::pmem::{self, Slot};
use crate::request::{Request, Response};
use crate::restripe::{RestripedMemory, BLOCKS_PER_GROUP};
use crate::scrub::ScrubReport;
use crate::stats::CoreStats;

/// What a [`Request::Recover`] pass did (summed across shards by the
/// service's broadcast merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sealed intent-log records replayed (0 or 1 per domain).
    pub records_replayed: u64,
    /// Lines rewritten from the log onto the durable image.
    pub lines_redone: u64,
    /// Whether the durable metadata selected the re-striped layout.
    pub restriped: bool,
}

impl RecoveryReport {
    /// Folds another shard's report into this one.
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.records_replayed += other.records_replayed;
        self.lines_redone += other.lines_redone;
        self.restriped |= other.restriped;
    }
}

/// Identifies one layer of a composed stack.
///
/// Stats lookups and layer addressing use this enum; the string form
/// (via [`std::fmt::Display`] / [`std::str::FromStr`]) is kept for JSON
/// reports and metric names, which embed the same labels as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerId {
    /// The chipkill rank ([`ChipkillMemory`]).
    Chipkill,
    /// The §III-A baseline rank ([`BaselineMemory`]).
    Baseline,
    /// The §V-E re-striped layout ([`RestripedMemory`]).
    Restriped,
    /// The in-place re-stripe switch ([`crate::Restripeable`]).
    Restripeable,
    /// Start-Gap wear leveling ([`crate::WearLevelled`]).
    Wearlevel,
    /// Patrol scrubbing ([`crate::Patrolled`]).
    Patrol,
    /// Write-CRC link protection ([`crate::LinkProtected`]).
    Link,
    /// The persistence domain (flush/fence epochs and the intent log).
    Pmem,
    /// The adaptive per-region tiering base ([`crate::TieredMemory`]).
    Tiered,
}

impl LayerId {
    /// Every layer, in stack order (base layouts first).
    pub const ALL: [LayerId; 9] = [
        LayerId::Chipkill,
        LayerId::Baseline,
        LayerId::Restriped,
        LayerId::Tiered,
        LayerId::Restripeable,
        LayerId::Wearlevel,
        LayerId::Patrol,
        LayerId::Link,
        LayerId::Pmem,
    ];

    /// The stable string form used in JSON reports and metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            LayerId::Chipkill => "chipkill",
            LayerId::Baseline => "baseline",
            LayerId::Restriped => "restriped",
            LayerId::Restripeable => "restripeable",
            LayerId::Wearlevel => "wearlevel",
            LayerId::Patrol => "patrol",
            LayerId::Link => "link",
            LayerId::Pmem => "pmem",
            LayerId::Tiered => "tiered",
        }
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing a [`LayerId`] string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayerIdError(String);

impl std::fmt::Display for ParseLayerIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown layer `{}`", self.0)
    }
}

impl std::error::Error for ParseLayerIdError {}

impl std::str::FromStr for LayerId {
    type Err = ParseLayerIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LayerId::ALL
            .into_iter()
            .find(|id| id.as_str() == s)
            .ok_or_else(|| ParseLayerIdError(s.to_string()))
    }
}

/// Per-layer access counters, keyed by [`BlockDevice::id`] inside an
/// [`AccessContext`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Demand reads routed through the layer.
    pub reads: u64,
    /// Demand writes (conventional and sum) routed through the layer.
    pub writes: u64,
    /// Scrub accesses routed through the layer.
    pub scrubs: u64,
    /// Accesses that returned an error (excluding `Unsupported`).
    pub errors: u64,
    /// Reads whose RS word was already clean.
    pub clean_reads: u64,
    /// Reads corrected by the RS tier.
    pub rs_corrected: u64,
    /// Reads that fell back to VLEW decoding.
    pub vlew_fallbacks: u64,
    /// Reads served through chip-failure erasure correction.
    pub erasure_reads: u64,
    /// Reads corrected by a single-tier BCH (baseline / re-striped).
    pub bit_corrected_reads: u64,
    /// Bit errors corrected across all read paths.
    pub bits_corrected: u64,
    /// Bits disturbed by fault injection at this layer.
    pub injected_bits: u64,
    /// Start-Gap remaps performed.
    pub gap_moves: u64,
    /// Patrol increments executed.
    pub patrol_steps: u64,
    /// Full patrol passes completed.
    pub patrol_passes: u64,
    /// Write-CRC retransmissions performed.
    pub retransmissions: u64,
    /// Writes whose link retry budget was exhausted.
    pub link_failures: u64,
    /// Persistence-domain flush commands executed.
    pub flushes: u64,
    /// Persistence-domain fences executed.
    pub fences: u64,
    /// Dirty lines made durable by flushes.
    pub lines_flushed: u64,
    /// Intent-log records written.
    pub log_records: u64,
    /// Intent-log bytes written.
    pub log_bytes: u64,
    /// Lines left partially persisted by a power cut.
    pub torn_lines: u64,
    /// Recovery passes completed.
    pub recoveries: u64,
    /// Lines redone from the intent log during recovery.
    pub lines_redone: u64,
    /// Regions currently at the RS-only tier (absolute count, refreshed
    /// on every tier step so shard merges sum to fleet totals).
    pub rs_only_regions: u64,
    /// Regions currently at the paper's RS+VLEW tier (absolute count).
    pub paper_regions: u64,
    /// Regions currently at the dense high-protection tier (absolute
    /// count).
    pub dense_regions: u64,
    /// Tier migrations completed (monotonic counter).
    pub tier_migrations: u64,
}

impl LayerStats {
    /// Folds `other` into `self` (cross-shard aggregation).
    pub fn merge(&mut self, other: &LayerStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.scrubs += other.scrubs;
        self.errors += other.errors;
        self.clean_reads += other.clean_reads;
        self.rs_corrected += other.rs_corrected;
        self.vlew_fallbacks += other.vlew_fallbacks;
        self.erasure_reads += other.erasure_reads;
        self.bit_corrected_reads += other.bit_corrected_reads;
        self.bits_corrected += other.bits_corrected;
        self.injected_bits += other.injected_bits;
        self.gap_moves += other.gap_moves;
        self.patrol_steps += other.patrol_steps;
        self.patrol_passes += other.patrol_passes;
        self.retransmissions += other.retransmissions;
        self.link_failures += other.link_failures;
        self.flushes += other.flushes;
        self.fences += other.fences;
        self.lines_flushed += other.lines_flushed;
        self.log_records += other.log_records;
        self.log_bytes += other.log_bytes;
        self.torn_lines += other.torn_lines;
        self.recoveries += other.recoveries;
        self.lines_redone += other.lines_redone;
        self.rs_only_regions += other.rs_only_regions;
        self.paper_regions += other.paper_regions;
        self.dense_regions += other.dense_regions;
        self.tier_migrations += other.tier_migrations;
    }

    /// Publishes every counter into `reg` under `<prefix>.<name>`.
    pub fn publish_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        let c = |name: &str, v: u64| reg.set_counter(&format!("{prefix}.{name}"), v);
        c("reads", self.reads);
        c("writes", self.writes);
        c("scrubs", self.scrubs);
        c("errors", self.errors);
        c("clean_reads", self.clean_reads);
        c("rs_corrected", self.rs_corrected);
        c("vlew_fallbacks", self.vlew_fallbacks);
        c("erasure_reads", self.erasure_reads);
        c("bit_corrected_reads", self.bit_corrected_reads);
        c("bits_corrected", self.bits_corrected);
        c("injected_bits", self.injected_bits);
        c("gap_moves", self.gap_moves);
        c("patrol_steps", self.patrol_steps);
        c("patrol_passes", self.patrol_passes);
        c("retransmissions", self.retransmissions);
        c("link_failures", self.link_failures);
        c("flushes", self.flushes);
        c("fences", self.fences);
        c("lines_flushed", self.lines_flushed);
        c("log_records", self.log_records);
        c("log_bytes", self.log_bytes);
        c("torn_lines", self.torn_lines);
        c("recoveries", self.recoveries);
        c("lines_redone", self.lines_redone);
        c("rs_only_regions", self.rs_only_regions);
        c("paper_regions", self.paper_regions);
        c("dense_regions", self.dense_regions);
        c("tier_migrations", self.tier_migrations);
    }

    /// The counters as a JSON object (stable key order).
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("reads", self.reads)
            .with("writes", self.writes)
            .with("scrubs", self.scrubs)
            .with("errors", self.errors)
            .with("clean_reads", self.clean_reads)
            .with("rs_corrected", self.rs_corrected)
            .with("vlew_fallbacks", self.vlew_fallbacks)
            .with("erasure_reads", self.erasure_reads)
            .with("bit_corrected_reads", self.bit_corrected_reads)
            .with("bits_corrected", self.bits_corrected)
            .with("injected_bits", self.injected_bits)
            .with("gap_moves", self.gap_moves)
            .with("patrol_steps", self.patrol_steps)
            .with("patrol_passes", self.patrol_passes)
            .with("retransmissions", self.retransmissions)
            .with("link_failures", self.link_failures)
            .with("flushes", self.flushes)
            .with("fences", self.fences)
            .with("lines_flushed", self.lines_flushed)
            .with("log_records", self.log_records)
            .with("log_bytes", self.log_bytes)
            .with("torn_lines", self.torn_lines)
            .with("recoveries", self.recoveries)
            .with("lines_redone", self.lines_redone)
            .with("rs_only_regions", self.rs_only_regions)
            .with("paper_regions", self.paper_regions)
            .with("dense_regions", self.dense_regions)
            .with("tier_migrations", self.tier_migrations)
    }
}

/// Shared state threaded through every access of a composed stack: the
/// fault-injection RNG and per-layer statistics.
#[derive(Debug, Clone)]
pub struct AccessContext {
    rng: StdRng,
    layers: Vec<(LayerId, LayerStats)>,
}

impl AccessContext {
    /// A context with a deterministic fault-injection RNG.
    pub fn new(seed: u64) -> Self {
        AccessContext {
            rng: StdRng::seed_from_u64(seed),
            layers: Vec::new(),
        }
    }

    /// A throwaway context for convenience call paths that do not need
    /// stats.
    pub fn scratch() -> Self {
        Self::new(0)
    }

    /// The fault-injection RNG (consumed by `InjectRber` / `Fault`
    /// accesses and the Write-CRC bus model).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Mutable stats slot for `id`, created on first use. Layers
    /// appear in first-access order.
    pub fn layer_mut(&mut self, id: LayerId) -> &mut LayerStats {
        if let Some(i) = self.layers.iter().position(|(l, _)| *l == id) {
            return &mut self.layers[i].1;
        }
        self.layers.push((id, LayerStats::default()));
        &mut self.layers.last_mut().expect("just pushed").1
    }

    /// Stats for `id`, if that layer has recorded anything.
    pub fn layer(&self, id: LayerId) -> Option<LayerStats> {
        self.layers.iter().find(|(l, _)| *l == id).map(|(_, s)| *s)
    }

    /// All per-layer stats in first-access order.
    pub fn layers(&self) -> &[(LayerId, LayerStats)] {
        &self.layers
    }
}

/// A functional memory layer addressable in 64 B blocks.
///
/// Implemented by the concrete ranks ([`ChipkillMemory`],
/// [`BaselineMemory`], [`RestripedMemory`]) and by every middleware
/// layer; `Box<dyn BlockDevice>` composes them into arbitrary stacks.
/// Devices are `Send` so composed stacks can be owned by shard worker
/// threads (`pmck-service`).
pub trait BlockDevice: Send {
    /// Identifies the layer in stats.
    fn id(&self) -> LayerId;

    /// The layer's stable string label (the [`LayerId`] string form).
    fn label(&self) -> &'static str {
        self.id().as_str()
    }

    /// Capacity in blocks as seen *above* this layer.
    fn num_blocks(&self) -> u64;

    /// Executes one request at this layer.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] when the stack has no layer handling
    /// this access kind, plus whatever the underlying operation surfaces.
    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError>;

    /// The chip failure detected by decode logic, if any.
    fn detected_failed_chip(&self) -> Option<usize> {
        None
    }

    /// The chipkill engine counters, when a chipkill rank is (or was)
    /// at the bottom of the stack.
    fn core_stats(&self) -> Option<CoreStats> {
        None
    }

    /// The persistence domain at the bottom of the stack, when the base
    /// was built with one. Mid-stack layers forward; volatile stacks
    /// return `None`.
    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        None
    }

    /// The tier census, when a [`crate::TieredMemory`] anchors the
    /// stack. Mid-stack layers forward; single-tier bases return `None`.
    fn tier_report(&self) -> Option<crate::tier::TierReport> {
        None
    }

    /// Whether the persistence domain's staged image equals the base
    /// layer's live arrays byte for byte — what every
    /// [`Request::Flush`] must leave behind, since a flush stages only
    /// the stripes marked dirty. Mid-stack layers forward; volatile
    /// stacks return `None`. Linear in capacity: a hook for tests and
    /// campaigns, not a runtime query.
    fn staging_matches_live(&self) -> Option<bool> {
        None
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn id(&self) -> LayerId {
        (**self).id()
    }
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        (**self).access(req, ctx)
    }
    fn detected_failed_chip(&self) -> Option<usize> {
        (**self).detected_failed_chip()
    }
    fn core_stats(&self) -> Option<CoreStats> {
        (**self).core_stats()
    }
    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        (**self).pmem_domain()
    }
    fn tier_report(&self) -> Option<crate::tier::TierReport> {
        (**self).tier_report()
    }
    fn staging_matches_live(&self) -> Option<bool> {
        (**self).staging_matches_live()
    }
}

/// Folds one access result into the layer's stats. Every
/// `BlockDevice` impl calls this exactly once per access it handles.
pub(crate) fn record_access(
    ctx: &mut AccessContext,
    id: LayerId,
    req: &Request,
    result: &Result<Response, CoreError>,
) {
    let st = ctx.layer_mut(id);
    match req {
        Request::Read(_) => st.reads += 1,
        Request::Write { .. } | Request::WriteSum { .. } => st.writes += 1,
        Request::Scrub(_) => st.scrubs += 1,
        _ => {}
    }
    match result {
        Ok(Response::Read(out)) => match out.path {
            ReadPath::Clean => st.clean_reads += 1,
            ReadPath::RsCorrected { .. } => st.rs_corrected += 1,
            ReadPath::VlewFallback { bits_corrected } => {
                st.vlew_fallbacks += 1;
                st.bits_corrected += bits_corrected as u64;
            }
            ReadPath::ChipkillErasure { .. } => st.erasure_reads += 1,
            ReadPath::BitCorrected { bits_corrected } => {
                st.bit_corrected_reads += 1;
                st.bits_corrected += bits_corrected as u64;
            }
        },
        Ok(Response::Injected { bits }) => st.injected_bits += *bits as u64,
        Ok(_) => {}
        // An unsupported access is a routing miss, not a device fault.
        Err(CoreError::Unsupported(_)) => {}
        Err(_) => st.errors += 1,
    }
}

impl BlockDevice for ChipkillMemory {
    fn id(&self) -> LayerId {
        LayerId::Chipkill
    }

    fn num_blocks(&self) -> u64 {
        ChipkillMemory::num_blocks(self)
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        ChipkillMemory::detected_failed_chip(self)
    }

    fn core_stats(&self) -> Option<CoreStats> {
        Some(*self.stats())
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req {
            Request::Read(addr) => self.read_block(addr).map(Response::Read),
            Request::Write { addr, data } => {
                self.write_block(addr, &data).map(|_| Response::Written)
            }
            Request::WriteSum { addr, data } => {
                self.write_block_sum(addr, &data).map(|_| Response::Written)
            }
            Request::Scrub(addr) => self.scrub_block(addr).map(|_| Response::Scrubbed),
            Request::InjectRber(rber) => check_injection(&req).map(|()| Response::Injected {
                bits: self.inject_bit_errors(rber, ctx.rng()),
            }),
            Request::Fault(ev) => check_injection(&req).map(|()| Response::Injected {
                bits: self.apply_fault_event(&ev, ctx.rng()),
            }),
            Request::BootScrub => self.boot_scrub().map(Response::BootScrubbed),
            Request::Verify => Ok(Response::Verified(self.verify_consistent())),
            Request::Repair => match ChipkillMemory::detected_failed_chip(self) {
                Some(chip) => self
                    .repair_chip(chip)
                    .map(|_| Response::Repaired { chip: Some(chip) }),
                None => Ok(Response::Repaired { chip: None }),
            },
            // No-ops without a persistence domain; see `crate::pmem`.
            Request::Flush => Ok(Response::Flushed {
                lines: pmem::flush(self, ctx),
            }),
            Request::PowerCut => Ok(Response::PowerLost {
                lost_lines: pmem::power_cut(self),
            }),
            Request::Recover => {
                let cfg = *self.config();
                pmem::recover([Slot::Rank(self)], &cfg, ctx)
                    .map(|(report, _)| Response::Recovered(report))
            }
            Request::PatrolStep | Request::Restripe | Request::TierStep => {
                Err(CoreError::Unsupported(req.kind()))
            }
        };
        record_access(ctx, LayerId::Chipkill, &req, &result);
        result
    }

    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.domain.as_mut()
    }

    fn staging_matches_live(&self) -> Option<bool> {
        ChipkillMemory::staging_matches_live(self)
    }
}

/// Rejects an injection rate outside the injector's `[0, 1)` (NaN
/// included), whether an [`Request::InjectRber`] or a row fault carries
/// it; a base device calls it before it injects anything.
pub(crate) fn check_injection(req: &Request) -> Result<(), CoreError> {
    match *req {
        Request::InjectRber(p)
        | Request::Fault(FaultEvent {
            kind: FaultKind::RowFault { rber: p, .. },
            ..
        }) if !(0.0..1.0).contains(&p) => Err(CoreError::InvalidRber),
        _ => Ok(()),
    }
}

impl BlockDevice for BaselineMemory {
    fn id(&self) -> LayerId {
        LayerId::Baseline
    }

    fn num_blocks(&self) -> u64 {
        BaselineMemory::num_blocks(self)
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req {
            Request::Read(addr) => self.read_block(addr).map(|out| {
                Response::Read(ReadOutcome {
                    data: out.data,
                    path: if out.bits_corrected == 0 {
                        ReadPath::Clean
                    } else {
                        ReadPath::BitCorrected {
                            bits_corrected: out.bits_corrected,
                        }
                    },
                })
            }),
            Request::Write { addr, data } => {
                self.write_block(addr, &data).map(|_| Response::Written)
            }
            // Scrub-by-rewrite: decode, then store the corrected block
            // (and a freshly encoded code word) back.
            Request::Scrub(addr) => self.read_block(addr).and_then(|out| {
                self.write_block(addr, &out.data)
                    .map(|_| Response::Scrubbed)
            }),
            Request::InjectRber(rber) => check_injection(&req).map(|()| Response::Injected {
                bits: self.inject_bit_errors(rber, ctx.rng()),
            }),
            Request::Fault(ev) => match ev.kind {
                // Background-rate events carry no instantaneous action.
                FaultKind::Rber { .. } | FaultKind::RberRamp { .. } => {
                    Ok(Response::Injected { bits: 0 })
                }
                FaultKind::ChipKill { chip, kind } => {
                    self.fail_chip(chip % 8, kind, ctx.rng());
                    Ok(Response::Injected {
                        bits: BaselineMemory::num_blocks(self) as usize * 64,
                    })
                }
                _ => Err(CoreError::Unsupported("fault")),
            },
            Request::BootScrub => {
                let mut report = ScrubReport::default();
                for addr in 0..BaselineMemory::num_blocks(self) {
                    let out = self.read_block(addr)?;
                    report.bits_corrected += out.bits_corrected;
                    if out.bits_corrected > 0 {
                        report.words_with_errors += 1;
                    }
                    self.write_block(addr, &out.data)?;
                    report.stripes_scrubbed += 1;
                }
                Ok(Response::BootScrubbed(report))
            }
            Request::Verify => {
                let mut clean = true;
                for addr in 0..BaselineMemory::num_blocks(self) {
                    match self.read_block(addr) {
                        Ok(out) if out.bits_corrected == 0 => {}
                        _ => {
                            clean = false;
                            break;
                        }
                    }
                }
                Ok(Response::Verified(clean))
            }
            Request::WriteSum { .. }
            | Request::PatrolStep
            | Request::Repair
            | Request::Restripe
            | Request::Flush
            | Request::PowerCut
            | Request::Recover
            | Request::TierStep => Err(CoreError::Unsupported(req.kind())),
        };
        record_access(ctx, LayerId::Baseline, &req, &result);
        result
    }
}

impl BlockDevice for RestripedMemory {
    fn id(&self) -> LayerId {
        LayerId::Restriped
    }

    fn num_blocks(&self) -> u64 {
        RestripedMemory::num_blocks(self)
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req {
            Request::Read(addr) => {
                let before = self.bits_corrected();
                self.read_block(addr).map(|data| {
                    let n = (self.bits_corrected() - before) as usize;
                    Response::Read(ReadOutcome {
                        data,
                        path: if n == 0 {
                            ReadPath::Clean
                        } else {
                            ReadPath::BitCorrected { bits_corrected: n }
                        },
                    })
                })
            }
            Request::Write { addr, data } => {
                self.write_block(addr, &data).map(|_| Response::Written)
            }
            // A group read corrects and writes back the whole group.
            Request::Scrub(addr) => self.read_block(addr).map(|_| Response::Scrubbed),
            Request::InjectRber(rber) => check_injection(&req).map(|()| Response::Injected {
                bits: self.inject_bit_errors(rber, ctx.rng()),
            }),
            Request::Fault(ev) => match ev.kind {
                FaultKind::Rber { .. } | FaultKind::RberRamp { .. } => {
                    Ok(Response::Injected { bits: 0 })
                }
                // The re-striped layout has already absorbed its one
                // permitted chip failure; chip-structured faults no
                // longer apply.
                _ => Err(CoreError::Unsupported("fault")),
            },
            Request::BootScrub => {
                let before = self.bits_corrected();
                let groups = RestripedMemory::num_blocks(self) as usize / BLOCKS_PER_GROUP;
                for g in 0..groups {
                    self.read_block((g * BLOCKS_PER_GROUP) as u64)?;
                }
                Ok(Response::BootScrubbed(ScrubReport {
                    stripes_scrubbed: groups,
                    bits_corrected: (self.bits_corrected() - before) as usize,
                    words_with_errors: 0,
                    chip_rebuilt: None,
                }))
            }
            Request::Verify => Ok(Response::Verified(self.verify_consistent())),
            // No-ops without a persistence domain; see `crate::pmem`.
            Request::Flush => Ok(Response::Flushed {
                lines: pmem::flush(self, ctx),
            }),
            Request::PowerCut => Ok(Response::PowerLost {
                lost_lines: pmem::power_cut(self),
            }),
            // A re-striped layout holds a domain only inside
            // `Restripeable`, which answers `Recover` itself.
            Request::Recover => Ok(Response::Recovered(RecoveryReport::default())),
            Request::WriteSum { .. }
            | Request::PatrolStep
            | Request::Repair
            | Request::Restripe
            | Request::TierStep => Err(CoreError::Unsupported(req.kind())),
        };
        record_access(ctx, LayerId::Restriped, &req, &result);
        result
    }

    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.domain.as_mut()
    }

    fn staging_matches_live(&self) -> Option<bool> {
        RestripedMemory::staging_matches_live(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipkillConfig;

    #[test]
    fn chipkill_round_trip_through_the_trait() {
        let mut dev = ChipkillMemory::new(32, ChipkillConfig::default());
        let mut ctx = AccessContext::new(1);
        let data = [0x5Au8; 64];
        dev.access(Request::Write { addr: 3, data }, &mut ctx)
            .unwrap();
        match dev.access(Request::Read(3), &mut ctx).unwrap() {
            Response::Read(out) => {
                assert_eq!(out.data, data);
                assert_eq!(out.path, ReadPath::Clean);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let st = ctx.layer(LayerId::Chipkill).unwrap();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.clean_reads, 1);
    }

    #[test]
    fn unsupported_accesses_are_routing_misses_not_errors() {
        let mut dev = ChipkillMemory::new(32, ChipkillConfig::default());
        let mut ctx = AccessContext::scratch();
        assert_eq!(
            dev.access(Request::Restripe, &mut ctx),
            Err(CoreError::Unsupported("restripe"))
        );
        assert_eq!(ctx.layer(LayerId::Chipkill).unwrap().errors, 0);
    }

    #[test]
    fn baseline_reports_bit_corrected_reads() {
        let mut dev = BaselineMemory::new(64);
        let mut ctx = AccessContext::new(7);
        for a in 0..64 {
            dev.access(
                Request::Write {
                    addr: a,
                    data: [a as u8; 64],
                },
                &mut ctx,
            )
            .unwrap();
        }
        dev.access(Request::InjectRber(1e-3), &mut ctx).unwrap();
        for a in 0..64 {
            match dev.access(Request::Read(a), &mut ctx).unwrap() {
                Response::Read(out) => assert_eq!(out.data, [a as u8; 64]),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let st = ctx.layer(LayerId::Baseline).unwrap();
        assert!(st.bit_corrected_reads > 0);
        assert!(st.injected_bits > 0);
        // Scrub-by-rewrite then verify clean.
        for a in 0..64 {
            dev.access(Request::Scrub(a), &mut ctx).unwrap();
        }
        assert_eq!(
            dev.access(Request::Verify, &mut ctx).unwrap(),
            Response::Verified(true)
        );
    }

    #[test]
    fn fault_hook_drives_detection_through_the_trait() {
        use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind};
        let mut dev = ChipkillMemory::new(32, ChipkillConfig::default());
        let mut ctx = AccessContext::new(3);
        let data = [0x11u8; 64];
        dev.access(Request::Write { addr: 9, data }, &mut ctx)
            .unwrap();
        dev.access(
            Request::Fault(FaultEvent {
                at_cycle: 0,
                kind: FaultKind::ChipKill {
                    chip: 4,
                    kind: ChipFailureKind::RandomGarbage,
                },
            }),
            &mut ctx,
        )
        .unwrap();
        match dev.access(Request::Read(9), &mut ctx).unwrap() {
            Response::Read(out) => {
                assert_eq!(out.data, data);
                assert_eq!(out.path, ReadPath::ChipkillErasure { chip: 4 });
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(BlockDevice::detected_failed_chip(&dev), Some(4));
        dev.access(Request::Repair, &mut ctx).unwrap();
        assert_eq!(BlockDevice::detected_failed_chip(&dev), None);
    }
}
