//! The chipkill-correct engine: runtime read/write paths over the
//! nine-chip functional rank.

use std::collections::HashSet;
use std::fmt;

use pmck_bch::{BatchOutcome, BchCode, BchScratch, BitPoly, DecodePolicy};
use pmck_nvram::{BitErrorInjector, ChipFailureKind, FailedChip, FaultEvent, FaultKind};
use pmck_rs::{RsCode, RsScratch, ThresholdOutcome};
use pmck_rt::rng::Rng;

use crate::config::ChipkillConfig;
use crate::layout::ChipkillLayout;
use crate::rank::{apply_code_delta, store_code, ChipStore, EurModel, CODE_LIMBS};
use crate::stats::CoreStats;

/// Errors surfaced by the engine.
///
/// Display strings of the device-level variants are stable — the
/// fault-campaign corpus records them verbatim — and service failures
/// keep their cause reachable through [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Block address beyond the configured capacity.
    OutOfRange(u64),
    /// The block was disabled (worn out) and must not be accessed.
    Disabled(u64),
    /// The error pattern exceeds the scheme's combined correction
    /// capability (a detected uncorrectable error — a crash, not SDC).
    Uncorrectable,
    /// More than one chip appears failed; the rank is lost.
    MultiChipFailure,
    /// No layer in the composed stack handles this access kind. The
    /// payload is the access kind name (`"restripe"`, `"patrol_step"`,
    /// ...). A routing miss, not a device fault.
    Unsupported(&'static str),
    /// A Write-CRC protected transfer exhausted its retry budget.
    LinkFailed,
    /// The request never reached the memory pipeline: a service-layer
    /// queue or worker failure. The wrapped [`ServiceError`] is also
    /// reachable through [`std::error::Error::source`].
    Service(ServiceError),
    /// Crash recovery could not reconstruct the durable image (corrupt
    /// intent log or metadata). The wrapped [`RecoveryError`] is also
    /// reachable through [`std::error::Error::source`].
    Recovery(RecoveryError),
    /// A replicated-tier failure: the cluster could not assemble a
    /// quorum or ran out of replicas. The wrapped [`ClusterError`] is
    /// also reachable through [`std::error::Error::source`], and its own
    /// source (when present) is the per-node [`CoreError`] that sank the
    /// last replica — so the chain reaches the transport layer.
    Cluster(ClusterError),
}

impl CoreError {
    /// A service-layer failure with no underlying cause.
    pub fn service(kind: ServiceFailure) -> Self {
        CoreError::Service(ServiceError::new(kind))
    }

    /// A recovery failure with no underlying cause.
    pub fn recovery(kind: RecoveryFailure) -> Self {
        CoreError::Recovery(RecoveryError::new(kind))
    }

    /// A cluster-tier failure with no underlying cause.
    pub fn cluster(kind: ClusterFailure) -> Self {
        CoreError::Cluster(ClusterError::new(kind))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::OutOfRange(a) => write!(f, "block address {a} out of range"),
            CoreError::Disabled(a) => write!(f, "block {a} is disabled"),
            CoreError::Uncorrectable => write!(f, "uncorrectable error"),
            CoreError::MultiChipFailure => write!(f, "multiple chip failures in one rank"),
            CoreError::Unsupported(kind) => {
                write!(f, "no layer in the stack handles `{kind}` accesses")
            }
            CoreError::LinkFailed => write!(f, "write link exhausted its retry budget"),
            CoreError::Service(e) => write!(f, "{e}"),
            CoreError::Recovery(e) => write!(f, "{e}"),
            CoreError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Service(e) => Some(e),
            CoreError::Recovery(e) => Some(e),
            CoreError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

/// How a service-layer request was lost (see [`CoreError::Service`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFailure {
    /// The shard's request queue is closed (service shut down).
    QueueClosed,
    /// A shard worker terminated abnormally (panicked or died).
    WorkerLost,
    /// The shard's bounded submission queue is full right now; the
    /// request was not enqueued and can be retried after draining
    /// completions (streaming admission control, never fatal).
    Backpressure,
}

impl fmt::Display for ServiceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceFailure::QueueClosed => write!(f, "shard request queue is closed"),
            ServiceFailure::WorkerLost => write!(f, "shard worker terminated abnormally"),
            ServiceFailure::Backpressure => write!(f, "shard submission queue is full"),
        }
    }
}

/// A service-layer failure: the request was dropped before any device
/// saw it. Wraps the transport-level cause (when one exists) so the
/// full chain is inspectable via [`std::error::Error::source`].
#[derive(Debug, Clone)]
pub struct ServiceError {
    kind: ServiceFailure,
    source: Option<std::sync::Arc<dyn std::error::Error + Send + Sync + 'static>>,
}

impl ServiceError {
    /// A failure with no underlying cause.
    pub fn new(kind: ServiceFailure) -> Self {
        ServiceError { kind, source: None }
    }

    /// A failure wrapping its transport-level cause.
    pub fn with_source(
        kind: ServiceFailure,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        ServiceError {
            kind,
            source: Some(std::sync::Arc::new(source)),
        }
    }

    /// What went wrong.
    pub fn kind(&self) -> ServiceFailure {
        self.kind
    }
}

// Equality ignores the attached cause: two queue-closed errors are the
// same failure for retry/assertion purposes regardless of provenance.
impl PartialEq for ServiceError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Eq for ServiceError {}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory service unavailable: {}", self.kind)
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// How crash recovery failed (see [`CoreError::Recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFailure {
    /// An intent-log record claims content no seal could cover.
    UnsealedRecord,
    /// Durable metadata failed its CRC check.
    CrcMismatch,
    /// A sealed log entry targets a block outside the durable image —
    /// the torn state cannot be redone.
    TornBlock,
}

impl fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryFailure::UnsealedRecord => write!(f, "unsealed intent-log record"),
            RecoveryFailure::CrcMismatch => write!(f, "metadata CRC mismatch"),
            RecoveryFailure::TornBlock => write!(f, "unrecoverable torn block"),
        }
    }
}

/// A crash-recovery failure: the durable image cannot be reconstructed
/// into a decodable state. Wraps the media-level cause (when one
/// exists) so the full chain is inspectable via
/// [`std::error::Error::source`].
#[derive(Debug, Clone)]
pub struct RecoveryError {
    kind: RecoveryFailure,
    source: Option<std::sync::Arc<dyn std::error::Error + Send + Sync + 'static>>,
}

impl RecoveryError {
    /// A failure with no underlying cause.
    pub fn new(kind: RecoveryFailure) -> Self {
        RecoveryError { kind, source: None }
    }

    /// A failure wrapping its media-level cause.
    pub fn with_source(
        kind: RecoveryFailure,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        RecoveryError {
            kind,
            source: Some(std::sync::Arc::new(source)),
        }
    }

    /// What went wrong.
    pub fn kind(&self) -> RecoveryFailure {
        self.kind
    }
}

// Equality ignores the attached cause, matching the ServiceError
// convention: two CRC mismatches are the same failure for assertion
// purposes regardless of provenance.
impl PartialEq for RecoveryError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Eq for RecoveryError {}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recovery failed: {}", self.kind)
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// How a replicated-tier request failed (see [`CoreError::Cluster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFailure {
    /// The addressed node is administratively down.
    NodeDown(usize),
    /// Too few replicas acknowledged a write.
    QuorumLost {
        /// Acknowledgements the quorum required.
        needed: usize,
        /// Acknowledgements actually collected.
        got: usize,
    },
    /// Every replica placement failed to serve the block (down,
    /// stale, or erroring).
    ReplicasExhausted,
}

impl fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterFailure::NodeDown(n) => write!(f, "cluster node {n} is down"),
            ClusterFailure::QuorumLost { needed, got } => {
                write!(f, "quorum not reached ({got} of {needed} replicas)")
            }
            ClusterFailure::ReplicasExhausted => {
                write!(f, "every replica failed to serve the block")
            }
        }
    }
}

/// A replicated-tier failure: the cluster exhausted its placement or
/// quorum options. Wraps the per-node cause (when one exists) — itself
/// usually a [`CoreError::Service`] whose chain continues into the
/// transport — so the full path from cluster verdict to shard-pool
/// fault is inspectable via [`std::error::Error::source`].
#[derive(Debug, Clone)]
pub struct ClusterError {
    kind: ClusterFailure,
    source: Option<std::sync::Arc<dyn std::error::Error + Send + Sync + 'static>>,
}

impl ClusterError {
    /// A failure with no underlying cause.
    pub fn new(kind: ClusterFailure) -> Self {
        ClusterError { kind, source: None }
    }

    /// A failure wrapping its per-node cause.
    pub fn with_source(
        kind: ClusterFailure,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        ClusterError {
            kind,
            source: Some(std::sync::Arc::new(source)),
        }
    }

    /// What went wrong.
    pub fn kind(&self) -> ClusterFailure {
        self.kind
    }
}

// Equality ignores the attached cause, matching the ServiceError
// convention: two exhausted-replica verdicts are the same failure for
// assertion purposes regardless of which node sank last.
impl PartialEq for ClusterError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Eq for ClusterError {}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster request failed: {}", self.kind)
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// How a read was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// The per-block RS word was already a valid codeword.
    Clean,
    /// The RS tier corrected `corrections` symbols (≤ threshold).
    RsCorrected {
        /// Symbols corrected.
        corrections: usize,
    },
    /// The RS result was distrusted; VLEW decoding corrected the stripe.
    VlewFallback {
        /// Bit errors corrected across the stripe's VLEWs.
        bits_corrected: usize,
    },
    /// A failed chip was reconstructed through RS erasure correction.
    ChipkillErasure {
        /// The failed chip index (0..8; 8 is the parity chip).
        chip: usize,
    },
    /// A single-tier BCH device (baseline or re-striped layout)
    /// corrected scattered bit errors in place.
    BitCorrected {
        /// Bit errors corrected while serving the read.
        bits_corrected: usize,
    },
    /// The VLEW fallback needed the unraveling list decoder for at least
    /// one chip word: some VLEW carried `t + 1` errors and was rescued
    /// beyond the Berlekamp–Massey bound
    /// ([`pmck_bch::DecodePolicy::BeyondBound`]).
    VlewListDecoded {
        /// Bit errors corrected across the stripe's VLEWs.
        bits_corrected: usize,
    },
}

/// A successful block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The 64 B block contents.
    pub data: [u8; 64],
    /// The path that produced them.
    pub path: ReadPath,
}

/// The proposal's persistent-memory rank: eight data chips plus one parity
/// chip, VLEW-protected per chip and RS-protected per block.
///
/// See the crate-level docs for the scheme; see [`ChipkillMemory::new`]
/// for construction.
#[derive(Debug, Clone)]
pub struct ChipkillMemory {
    cfg: ChipkillConfig,
    layout: ChipkillLayout,
    num_blocks: u64,
    stripes: usize,
    /// Whether the configured tier runs the VLEW boot tier (cached from
    /// the tier's [`crate::Layout`]).
    vlew_enabled: bool,
    /// Bonus blocks per stripe reclaimed from the code area (RS-only
    /// tier; 0 otherwise).
    bonus_per_stripe: usize,
    pub(crate) chips: Vec<ChipStore>,
    pub(crate) vlew: BchCode,
    pub(crate) rs: RsCode,
    /// Reusable RS decoder working memory: the runtime read path decodes
    /// into this instead of allocating per access.
    rs_scratch: RsScratch,
    /// Reusable BCH decoder working memory shared by every VLEW decode
    /// (runtime fallback, scrubs, repair) — one syndrome/BM/Chien scratch
    /// per rank instead of per decode.
    bch_scratch: BchScratch,
    /// Reusable VLEW codeword buffer for single-word decodes.
    vlew_cw: BitPoly,
    /// Reusable per-stripe batch of VLEW codewords (one per chip) for the
    /// batched boot-scrub decode path. Lazily sized on first use.
    vlew_batch: Vec<BitPoly>,
    pub(crate) eur: EurModel,
    /// Ground-truth injected failure (set by [`ChipkillMemory::fail_chip`]).
    failed_chip: Option<FailedChip>,
    /// Failure detected by decode logic (drives erasure reads).
    pub(crate) known_failed: Option<usize>,
    disabled: HashSet<u64>,
    stats: CoreStats,
    /// Persistence domain, when the rank backs a persistent stack.
    /// `None` keeps the whole flush vocabulary a no-op.
    pub(crate) domain: Option<crate::pmem::PmemDomain>,
}

impl ChipkillMemory {
    /// Creates a zero-initialized rank holding `num_blocks` 64 B blocks.
    /// `num_blocks` is rounded up to a whole number of 32-block stripes.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0`.
    pub fn new(num_blocks: u64, cfg: ChipkillConfig) -> Self {
        assert!(num_blocks > 0, "capacity must be nonzero");
        let layout = cfg.layout;
        let bpv = layout.blocks_per_vlew() as u64;
        let stripes = num_blocks.div_ceil(bpv) as usize;
        let num_blocks = stripes as u64 * bpv;
        assert_eq!(
            layout.rs_codeword_bytes(),
            72,
            "engine read/write scratch buffers assume the RS(72, 64) layout"
        );
        let chips = (0..layout.total_chips())
            .map(|_| ChipStore::new(stripes, &layout))
            .collect();
        let rs = RsCode::per_block();
        let rs_scratch = RsScratch::new(&rs);
        // The VLEW geometry comes from the layout: the BCH generator
        // depends only on (m, t), so every tier shares the 33 B code
        // region while protecting a tier-specific data span.
        let vlew = BchCode::new(12, 22, layout.vlew_data_bytes * 8)
            .expect("validated layouts yield constructible VLEW parameters");
        debug_assert_eq!(vlew.parity_bits() / 8, layout.vlew_code_bytes);
        assert_eq!(
            vlew.parity_limbs(),
            CODE_LIMBS,
            "VLEW code deltas are fixed-size"
        );
        let bch_scratch = BchScratch::new(&vlew);
        let vlew_cw = BitPoly::zero(vlew.len());
        ChipkillMemory {
            vlew_enabled: cfg.vlew_enabled(),
            bonus_per_stripe: cfg.bonus_blocks_per_stripe(),
            cfg,
            layout,
            num_blocks,
            stripes,
            chips,
            vlew,
            rs,
            rs_scratch,
            bch_scratch,
            vlew_cw,
            vlew_batch: Vec::new(),
            eur: EurModel::new(stripes, layout.total_chips()),
            failed_chip: None,
            known_failed: None,
            disabled: HashSet::new(),
            stats: CoreStats::default(),
            domain: None,
        }
    }

    /// The configuration the rank was built with.
    pub fn config(&self) -> &ChipkillConfig {
        &self.cfg
    }

    /// Installs a persistence domain. The caller is responsible for
    /// issuing the initial [`crate::Request::Flush`] that seals the
    /// first durable epoch.
    pub fn set_domain(&mut self, domain: crate::pmem::PmemDomain) {
        self.domain = Some(domain);
    }

    /// Removes and returns the persistence domain, if any.
    pub fn take_domain(&mut self) -> Option<crate::pmem::PmemDomain> {
        self.domain.take()
    }

    /// Capacity in blocks (rounded up to whole stripes).
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Number of 32-block stripes (VLEW groups).
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Engine statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The configured layout.
    pub fn layout(&self) -> &ChipkillLayout {
        &self.layout
    }

    /// The protection tier the rank runs at.
    pub fn tier(&self) -> crate::layout::ProtectionTier {
        self.cfg.tier
    }

    /// Total storage cost of the configured tier (check bits per user
    /// bit).
    pub fn storage_cost(&self) -> f64 {
        self.cfg.total_storage_cost()
    }

    /// Bonus blocks reclaimed from the VLEW code area (RS-only tier;
    /// 0 for VLEW-bearing tiers). Addressed separately from the primary
    /// space via [`ChipkillMemory::read_bonus_block`] /
    /// [`ChipkillMemory::write_bonus_block`].
    pub fn bonus_blocks(&self) -> u64 {
        (self.stripes * self.bonus_per_stripe) as u64
    }

    /// The chip failure detected so far, if any.
    pub fn detected_failed_chip(&self) -> Option<usize> {
        self.known_failed
    }

    /// The functional C factor measured by the EUR model (drains per
    /// write); call [`ChipkillMemory::flush_eur`] first for an exact
    /// value.
    pub fn c_factor(&self) -> f64 {
        self.eur.c_factor()
    }

    /// Number of dirty EUR registers (pending coalesced code updates).
    pub fn eur_occupancy(&self) -> usize {
        self.eur.occupancy()
    }

    fn check_addr(&self, addr: u64) -> Result<(), CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        if self.disabled.contains(&addr) {
            return Err(CoreError::Disabled(addr));
        }
        Ok(())
    }

    /// Gathers the physical 72-byte RS word of a block into the
    /// caller-provided buffer: check bytes from the parity chip at
    /// positions `0..8`, then each data chip's 8 bytes. Allocation-free.
    pub(crate) fn gather_block_into(&self, addr: u64, word: &mut [u8; 72]) {
        let stripe = self.layout.stripe_of(addr);
        let off = self.layout.offset_in_stripe(addr);
        let parity_idx = self.layout.data_chips;
        word[..self.layout.rs_check_bytes].copy_from_slice(self.chips[parity_idx].block_slice(
            stripe,
            off,
            &self.layout,
        ));
        for c in 0..self.layout.data_chips {
            let (s, e) = self.layout.rs_positions_of_data_chip(c);
            word[s..e].copy_from_slice(self.chips[c].block_slice(stripe, off, &self.layout));
        }
    }

    fn scatter_block(&mut self, addr: u64, word: &[u8]) {
        let stripe = self.layout.stripe_of(addr);
        let off = self.layout.offset_in_stripe(addr);
        let parity_idx = self.layout.data_chips;
        self.chips[parity_idx]
            .block_slice_mut(stripe, off, &self.layout)
            .copy_from_slice(&word[..self.layout.rs_check_bytes]);
        for c in 0..self.layout.data_chips {
            let (s, e) = self.layout.rs_positions_of_data_chip(c);
            self.chips[c]
                .block_slice_mut(stripe, off, &self.layout)
                .copy_from_slice(&word[s..e]);
        }
    }

    /// Applies chip `chip`'s VLEW code-bit update for the 8-byte data
    /// change `delta8` at stripe offset `off`: `f(sum)` of §V-D through
    /// the encoder's sparse entry, coalesced in the EUR when enabled. A
    /// zero delta changes no code bit and is skipped. Allocation-free.
    fn apply_chip_code_update(&mut self, chip: usize, stripe: usize, off: usize, delta8: &[u8]) {
        if delta8.iter().all(|&d| d == 0) {
            return;
        }
        let mut delta = [0u64; CODE_LIMBS];
        self.vlew
            .parity_delta_into(off * self.layout.chip_bytes * 8, delta8, &mut delta);
        if self.cfg.eur_enabled {
            self.eur.accumulate(chip, stripe, &delta);
        } else {
            apply_code_delta(self.chips[chip].vlew_code_mut(stripe, &self.layout), &delta);
            self.eur.drains += 1;
        }
    }

    /// Drains every pending EUR register into the code arrays (a full
    /// "row close"; also required before scrubbing or measuring C).
    pub fn flush_eur(&mut self) {
        if self.eur.occupancy() == 0 {
            return;
        }
        for stripe in 0..self.stripes {
            self.close_stripe(stripe);
        }
    }

    /// Drains pending EUR registers touching `stripe` (a row close of
    /// that row).
    pub fn close_stripe(&mut self, stripe: usize) {
        if !self.eur.stripe_dirty(stripe) {
            return;
        }
        for (c, chip) in self.chips.iter_mut().enumerate() {
            self.eur
                .drain_into(c, stripe, chip.vlew_code_mut(stripe, &self.layout));
        }
    }

    /// Writes a block conventionally (raw data sent to the chips): the
    /// stored old value is first corrected so the VLEW code update is
    /// computed from a trusted `x'` (§IV-B/§V-E). Used at initialization
    /// and after VLEW-corrected writebacks.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] / [`CoreError::Disabled`]; correction
    /// failures of the old value surface as [`CoreError::Uncorrectable`].
    pub fn write_block(&mut self, addr: u64, new: &[u8; 64]) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        let mut old72 = [0u8; 72];
        self.corrected_word_into(addr, &mut old72)?;
        let mut new72 = [0u8; 72];
        new72[8..].copy_from_slice(new);
        self.rs.parity_into(new, &mut new72[..8]);
        self.commit_write(addr, &old72, &new72);
        self.eur.writes_seen += 1;
        self.stats.writes += 1;
        Ok(())
    }

    /// Writes a block through the proposal's bitwise-sum path (§V-D):
    /// `sum = new ⊕ old_corrected` arrives at the chips, each of which
    /// derives its new data by XORing the sum into its *stored* bytes and
    /// derives its VLEW code update as `f(sum)`. Pre-existing cell errors
    /// propagate one-to-one (they remain correctable); they are not
    /// amplified.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] / [`CoreError::Disabled`].
    pub fn write_block_sum(&mut self, addr: u64, sum: &[u8; 64]) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        let stripe = self.layout.stripe_of(addr);
        let off = self.layout.offset_in_stripe(addr);
        // The controller computes the check-byte sum once; each chip then
        // updates independently.
        let mut check_sum = [0u8; 8];
        self.rs.parity_into(sum, &mut check_sum);
        let parity_idx = self.layout.data_chips;
        for c in 0..self.layout.data_chips {
            let mut delta8 = [0u8; 8];
            delta8.copy_from_slice(&sum[c * 8..(c + 1) * 8]);
            let layout = self.layout;
            {
                let slice = self.chips[c].block_slice_mut(stripe, off, &layout);
                for (b, d) in slice.iter_mut().zip(&delta8) {
                    *b ^= d;
                }
            }
            if self.vlew_enabled {
                self.apply_chip_code_update(c, stripe, off, &delta8);
            }
        }
        {
            let layout = self.layout;
            let slice = self.chips[parity_idx].block_slice_mut(stripe, off, &layout);
            for (b, d) in slice.iter_mut().zip(&check_sum) {
                *b ^= d;
            }
        }
        if self.vlew_enabled {
            self.apply_chip_code_update(parity_idx, stripe, off, &check_sum);
        }
        self.eur.writes_seen += 1;
        self.stats.writes += 1;
        Ok(())
    }

    fn commit_write(&mut self, addr: u64, old72: &[u8], new72: &[u8]) {
        let stripe = self.layout.stripe_of(addr);
        let off = self.layout.offset_in_stripe(addr);
        let parity_idx = self.layout.data_chips;
        // VLEW code updates from the corrected delta (VLEW-bearing tiers
        // only; the RS-only tier keeps no code to maintain).
        if self.vlew_enabled {
            let mut delta8 = [0u8; 8];
            for c in 0..self.layout.data_chips {
                let (s, e) = self.layout.rs_positions_of_data_chip(c);
                for (d, i) in delta8.iter_mut().zip(s..e) {
                    *d = old72[i] ^ new72[i];
                }
                self.apply_chip_code_update(c, stripe, off, &delta8);
            }
            for (d, i) in delta8.iter_mut().zip(0..8) {
                *d = old72[i] ^ new72[i];
            }
            self.apply_chip_code_update(parity_idx, stripe, off, &delta8);
        }
        self.scatter_block(addr, new72);
    }

    /// Reads a block through the runtime path (§V-C, Figure 9): RS with
    /// the acceptance threshold, VLEW fallback, chip-failure erasure
    /// correction.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`], [`CoreError::Disabled`],
    /// [`CoreError::Uncorrectable`], [`CoreError::MultiChipFailure`].
    pub fn read_block(&mut self, addr: u64) -> Result<ReadOutcome, CoreError> {
        let mut data = [0u8; 64];
        let path = self.read_block_into(addr, &mut data)?;
        Ok(ReadOutcome { data, path })
    }

    /// [`ChipkillMemory::read_block`] decoding directly into the
    /// caller's buffer: the hot-path form, skipping the outcome copy.
    /// On error the buffer contents are unspecified.
    ///
    /// # Errors
    ///
    /// As [`ChipkillMemory::read_block`].
    pub fn read_block_into(
        &mut self,
        addr: u64,
        data: &mut [u8; 64],
    ) -> Result<ReadPath, CoreError> {
        self.check_addr(addr)?;
        self.stats.reads += 1;

        // With a known-failed chip, go straight to erasure correction.
        if let Some(chip) = self.known_failed {
            *data = self.read_via_erasure(addr, chip)?;
            self.stats.erasure_reads += 1;
            return Ok(ReadPath::ChipkillErasure { chip });
        }

        let mut word = [0u8; 72];
        self.gather_block_into(addr, &mut word);
        match self
            .rs
            .decode_with_threshold_scratch(&mut word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("word length is correct")
        {
            ThresholdOutcome::Clean => {
                self.stats.clean_reads += 1;
                data.copy_from_slice(&word[8..]);
                Ok(ReadPath::Clean)
            }
            ThresholdOutcome::Accepted { corrections } => {
                self.stats.rs_accepted += 1;
                self.stats.rs_corrections += corrections as u64;
                data.copy_from_slice(&word[8..]);
                Ok(ReadPath::RsCorrected { corrections })
            }
            ThresholdOutcome::Rejected(_) => {
                if !self.vlew_enabled {
                    // RS-only tier: the full RS radius was already spent
                    // (threshold = rs_check_bytes / 2); there is no
                    // deeper tier to fall back to.
                    self.stats.due_events += 1;
                    return Err(CoreError::Uncorrectable);
                }
                self.stats.fallbacks += 1;
                let out = self.vlew_fallback_read(addr)?;
                *data = out.data;
                Ok(out.path)
            }
        }
    }

    /// The VLEW fallback: decode every chip's VLEW for the stripe; if one
    /// chip is uncorrectable, treat it as failed and erasure-correct.
    fn vlew_fallback_read(&mut self, addr: u64) -> Result<ReadOutcome, CoreError> {
        let stripe = self.layout.stripe_of(addr);
        self.close_stripe(stripe);
        let mut corrected: Vec<Option<Vec<u8>>> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        let mut bits = 0usize;
        let mut rescued_any = false;
        for c in 0..self.layout.total_chips() {
            match self.decode_vlew(c, stripe) {
                Ok((data, _code, n, rescued)) => {
                    bits += n;
                    rescued_any |= rescued;
                    corrected.push(Some(data));
                }
                Err(()) => {
                    failed.push(c);
                    corrected.push(None);
                }
            }
        }
        match failed.len() {
            0 => {
                self.stats.vlew_bits_corrected += bits as u64;
                let off = self.layout.offset_in_stripe(addr);
                let mut data = [0u8; 64];
                for c in 0..self.layout.data_chips {
                    let region = corrected[c].as_ref().expect("no failure");
                    data[c * 8..(c + 1) * 8].copy_from_slice(&region[off * 8..(off + 1) * 8]);
                }
                let path = if rescued_any {
                    ReadPath::VlewListDecoded {
                        bits_corrected: bits,
                    }
                } else {
                    ReadPath::VlewFallback {
                        bits_corrected: bits,
                    }
                };
                Ok(ReadOutcome { data, path })
            }
            1 => {
                let chip = failed[0];
                self.known_failed = Some(chip);
                self.stats.chip_failures_detected += 1;
                let data = self.read_via_erasure_with(addr, chip, &corrected)?;
                Ok(ReadOutcome {
                    data,
                    path: ReadPath::ChipkillErasure { chip },
                })
            }
            _ => {
                self.stats.due_events += 1;
                Err(CoreError::MultiChipFailure)
            }
        }
    }

    /// Erasure-corrects a block given a known-failed chip, decoding the
    /// surviving chips' VLEWs first so the RS erasure input is clean.
    /// The RS-only tier has no VLEWs to pre-correct with and erasure-
    /// decodes the raw gathered word instead.
    fn read_via_erasure(&mut self, addr: u64, chip: usize) -> Result<[u8; 64], CoreError> {
        if !self.vlew_enabled {
            self.stats.erasure_reads += 1;
            let mut word = [0u8; 72];
            self.gather_block_into(addr, &mut word);
            return self.erasure_decode_word(&mut word, chip);
        }
        let stripe = self.layout.stripe_of(addr);
        self.close_stripe(stripe);
        let mut corrected: Vec<Option<Vec<u8>>> = Vec::new();
        for c in 0..self.layout.total_chips() {
            if c == chip {
                corrected.push(None);
                continue;
            }
            match self.decode_vlew(c, stripe) {
                Ok((data, _, _, _)) => corrected.push(Some(data)),
                Err(()) => {
                    self.stats.due_events += 1;
                    return Err(CoreError::MultiChipFailure);
                }
            }
        }
        self.read_via_erasure_with(addr, chip, &corrected)
    }

    fn read_via_erasure_with(
        &mut self,
        addr: u64,
        chip: usize,
        corrected: &[Option<Vec<u8>>],
    ) -> Result<[u8; 64], CoreError> {
        self.stats.erasure_reads += 1;
        let off = self.layout.offset_in_stripe(addr);
        let parity_idx = self.layout.data_chips;
        if chip == parity_idx {
            // Parity chip failed: the data chips alone carry the block.
            let mut data = [0u8; 64];
            for (c, region) in corrected.iter().take(self.layout.data_chips).enumerate() {
                let region = region.as_ref().expect("data chips survived");
                data[c * 8..(c + 1) * 8].copy_from_slice(&region[off * 8..(off + 1) * 8]);
            }
            return Ok(data);
        }
        // Build the 72-byte word from corrected survivors; the failed
        // chip's positions are erasures.
        let mut word = [0u8; 72];
        let parity_region = corrected[parity_idx].as_ref().expect("parity survived");
        word[..8].copy_from_slice(&parity_region[off * 8..(off + 1) * 8]);
        for (c, region) in corrected.iter().take(self.layout.data_chips).enumerate() {
            if c == chip {
                continue;
            }
            let (s, e) = self.layout.rs_positions_of_data_chip(c);
            let region = region.as_ref().expect("survivor");
            word[s..e].copy_from_slice(&region[off * 8..(off + 1) * 8]);
        }
        let (es, ee) = self.layout.rs_positions_of_data_chip(chip);
        let mut erasures = [0usize; 8];
        for (slot, p) in erasures.iter_mut().zip(es..ee) {
            *slot = p;
        }
        self.rs
            .decode_with_erasures_scratch(&mut word, &erasures, &mut self.rs_scratch)
            .map_err(|_| CoreError::Uncorrectable)?;
        Ok(word[8..].try_into().expect("64 data bytes"))
    }

    /// Erasure-decodes a gathered 72-byte word in place with `chip`'s
    /// positions as erasures, returning the 64 data bytes. With the
    /// parity chip failed the data chips alone carry the block.
    fn erasure_decode_word(
        &mut self,
        word: &mut [u8; 72],
        chip: usize,
    ) -> Result<[u8; 64], CoreError> {
        let parity_idx = self.layout.data_chips;
        if chip == parity_idx {
            return Ok(word[8..].try_into().expect("64 data bytes"));
        }
        let (es, ee) = self.layout.rs_positions_of_data_chip(chip);
        let mut erasures = [0usize; 8];
        for (slot, p) in erasures.iter_mut().zip(es..ee) {
            *slot = p;
        }
        self.rs
            .decode_with_erasures_scratch(word, &erasures, &mut self.rs_scratch)
            .map_err(|_| CoreError::Uncorrectable)?;
        Ok(word[8..].try_into().expect("64 data bytes"))
    }

    /// RS-scrubs one primary block (RS-only tier's boot scrub unit):
    /// threshold-decodes the word and rewrites it if corrections were
    /// made. Returns the number of symbols corrected.
    pub(crate) fn rs_scrub_block(&mut self, addr: u64) -> Result<usize, CoreError> {
        let mut word = [0u8; 72];
        self.gather_block_into(addr, &mut word);
        match self
            .rs
            .decode_with_threshold_scratch(&mut word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("word length is correct")
        {
            ThresholdOutcome::Clean => Ok(0),
            ThresholdOutcome::Accepted { corrections } => {
                self.scatter_block(addr, &word);
                Ok(corrections)
            }
            ThresholdOutcome::Rejected(_) => Err(CoreError::Uncorrectable),
        }
    }

    /// [`ChipkillMemory::rs_scrub_block`] for a bonus block.
    pub(crate) fn rs_scrub_bonus(&mut self, idx: u64) -> Result<usize, CoreError> {
        let mut word = [0u8; 72];
        self.gather_bonus_into(idx, &mut word);
        match self
            .rs
            .decode_with_threshold_scratch(&mut word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("word length is correct")
        {
            ThresholdOutcome::Clean => Ok(0),
            ThresholdOutcome::Accepted { corrections } => {
                self.scatter_bonus(idx, &word);
                Ok(corrections)
            }
            ThresholdOutcome::Rejected(_) => Err(CoreError::Uncorrectable),
        }
    }

    /// Gathers bonus block `idx`'s 72-byte RS word from the chips' code
    /// regions: check bytes from the parity chip's slice, then each data
    /// chip's 8 bytes, mirroring [`ChipkillMemory::gather_block_into`].
    pub(crate) fn gather_bonus_into(&self, idx: u64, word: &mut [u8; 72]) {
        let stripe = idx as usize / self.bonus_per_stripe;
        let base = (idx as usize % self.bonus_per_stripe) * self.layout.chip_bytes;
        let cb = self.layout.chip_bytes;
        let parity_idx = self.layout.data_chips;
        word[..self.layout.rs_check_bytes].copy_from_slice(
            &self.chips[parity_idx].vlew_code(stripe, &self.layout)[base..base + cb],
        );
        for c in 0..self.layout.data_chips {
            let (s, e) = self.layout.rs_positions_of_data_chip(c);
            word[s..e]
                .copy_from_slice(&self.chips[c].vlew_code(stripe, &self.layout)[base..base + cb]);
        }
    }

    fn scatter_bonus(&mut self, idx: u64, word: &[u8; 72]) {
        let stripe = idx as usize / self.bonus_per_stripe;
        let base = (idx as usize % self.bonus_per_stripe) * self.layout.chip_bytes;
        let cb = self.layout.chip_bytes;
        let parity_idx = self.layout.data_chips;
        let layout = self.layout;
        self.chips[parity_idx].vlew_code_mut(stripe, &layout)[base..base + cb]
            .copy_from_slice(&word[..layout.rs_check_bytes]);
        for c in 0..layout.data_chips {
            let (s, e) = layout.rs_positions_of_data_chip(c);
            self.chips[c].vlew_code_mut(stripe, &layout)[base..base + cb]
                .copy_from_slice(&word[s..e]);
        }
    }

    /// Reads a bonus block (RS-only tier): RS threshold decode over the
    /// reclaimed code-area word, erasure correction with a known-failed
    /// chip. There is no VLEW behind these blocks, so a rejected word is
    /// a detected uncorrectable error.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] on VLEW-bearing tiers (no reclaimed
    /// capacity), [`CoreError::OutOfRange`], [`CoreError::Uncorrectable`].
    pub fn read_bonus_block(&mut self, idx: u64) -> Result<ReadOutcome, CoreError> {
        if self.bonus_per_stripe == 0 {
            return Err(CoreError::Unsupported("bonus_read"));
        }
        if idx >= self.bonus_blocks() {
            return Err(CoreError::OutOfRange(idx));
        }
        self.stats.reads += 1;
        let mut word = [0u8; 72];
        self.gather_bonus_into(idx, &mut word);
        if let Some(chip) = self.known_failed {
            let data = self.erasure_decode_word(&mut word, chip)?;
            self.stats.erasure_reads += 1;
            return Ok(ReadOutcome {
                data,
                path: ReadPath::ChipkillErasure { chip },
            });
        }
        match self
            .rs
            .decode_with_threshold_scratch(&mut word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("word length is correct")
        {
            ThresholdOutcome::Clean => {
                self.stats.clean_reads += 1;
                Ok(ReadOutcome {
                    data: word[8..].try_into().expect("64 data bytes"),
                    path: ReadPath::Clean,
                })
            }
            ThresholdOutcome::Accepted { corrections } => {
                self.stats.rs_accepted += 1;
                self.stats.rs_corrections += corrections as u64;
                Ok(ReadOutcome {
                    data: word[8..].try_into().expect("64 data bytes"),
                    path: ReadPath::RsCorrected { corrections },
                })
            }
            ThresholdOutcome::Rejected(_) => {
                self.stats.due_events += 1;
                Err(CoreError::Uncorrectable)
            }
        }
    }

    /// Writes a bonus block (RS-only tier). Bonus blocks carry no VLEW,
    /// so the write is a plain encode-and-scatter — no old value needed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] on VLEW-bearing tiers,
    /// [`CoreError::OutOfRange`].
    pub fn write_bonus_block(&mut self, idx: u64, new: &[u8; 64]) -> Result<(), CoreError> {
        if self.bonus_per_stripe == 0 {
            return Err(CoreError::Unsupported("bonus_write"));
        }
        if idx >= self.bonus_blocks() {
            return Err(CoreError::OutOfRange(idx));
        }
        let mut word = [0u8; 72];
        word[8..].copy_from_slice(new);
        self.rs.parity_into(new, &mut word[..8]);
        self.scatter_bonus(idx, &word);
        self.stats.writes += 1;
        Ok(())
    }

    /// Assembles chip `chip`'s VLEW codeword for `stripe` into `dst`
    /// without allocating. The VLEW parity region (264 bits = 33 B) is
    /// byte-aligned, so both regions drop in via byte splices.
    fn load_vlew_word(
        chips: &[ChipStore],
        layout: &ChipkillLayout,
        vlew: &BchCode,
        chip: usize,
        stripe: usize,
        dst: &mut BitPoly,
    ) {
        debug_assert_eq!(vlew.parity_bits() % 8, 0, "VLEW parity is byte-aligned");
        dst.splice_bytes(
            0,
            &chips[chip].vlew_code(stripe, layout)[..vlew.parity_bits() / 8],
        );
        dst.splice_bytes(vlew.parity_bits(), chips[chip].vlew_data(stripe, layout));
    }

    /// Decodes one chip's VLEW for `stripe` through the shared scratch,
    /// returning the corrected 256 B data region, 33 B code region, the
    /// number of bit errors corrected, and whether the unraveling list
    /// decoder (not plain bounded-distance decoding) produced the result.
    /// The stored arrays are *not* modified.
    ///
    /// The reach is set by [`ChipkillConfig::decode_policy`]; list-decoder
    /// rescues are counted in [`CoreStats::list_rescues`].
    pub(crate) fn decode_vlew(
        &mut self,
        chip: usize,
        stripe: usize,
    ) -> Result<(Vec<u8>, Vec<u8>, usize, bool), ()> {
        Self::load_vlew_word(
            &self.chips,
            &self.layout,
            &self.vlew,
            chip,
            stripe,
            &mut self.vlew_cw,
        );
        let res = match self.cfg.decode_policy {
            DecodePolicy::Bounded => self
                .vlew
                .decode_scratch(&mut self.vlew_cw, &mut self.bch_scratch),
            DecodePolicy::BeyondBound => self
                .vlew
                .decode_beyond_bound_scratch(&mut self.vlew_cw, &mut self.bch_scratch),
        };
        match res {
            Ok(view) => {
                let n = view.num_corrected();
                let rescued = view.beyond_bound();
                if rescued {
                    self.stats.list_rescues += 1;
                }
                let mut data = vec![0u8; self.vlew.data_bits() / 8];
                let mut code = vec![0u8; self.vlew.parity_bits() / 8];
                self.vlew_cw
                    .extract_bytes(self.vlew.parity_bits(), &mut data);
                self.vlew_cw.extract_bytes(0, &mut code);
                Ok((data, code, n, rescued))
            }
            Err(_) => Err(()),
        }
    }

    /// Boot-scrub support: decodes every chip's VLEW of `stripe` as one
    /// batch through the shared scratch, leaving per-chip outcomes in
    /// `outcomes` (cleared first). Corrected words stay in the internal
    /// batch buffer for write-back via
    /// [`ChipkillMemory::write_back_vlew`]; storage is untouched here.
    /// List-decoder rescues are counted in [`CoreStats::list_rescues`].
    pub(crate) fn decode_vlew_stripe_into(
        &mut self,
        stripe: usize,
        outcomes: &mut Vec<BatchOutcome>,
    ) {
        let chips = self.layout.total_chips();
        if self.vlew_batch.len() != chips {
            self.vlew_batch = (0..chips).map(|_| BitPoly::zero(self.vlew.len())).collect();
        }
        for (chip, w) in self.vlew_batch.iter_mut().enumerate() {
            Self::load_vlew_word(&self.chips, &self.layout, &self.vlew, chip, stripe, w);
        }
        let res = self.vlew.decode_batch_policy(
            &mut self.vlew_batch,
            self.cfg.decode_policy,
            &mut self.bch_scratch,
        );
        outcomes.clear();
        outcomes.extend_from_slice(res);
        for o in outcomes.iter() {
            if let BatchOutcome::Corrected {
                beyond_bound: true, ..
            } = o
            {
                self.stats.list_rescues += 1;
            }
        }
    }

    /// Writes the batch-corrected word for `chip` (left in the batch
    /// buffer by [`ChipkillMemory::decode_vlew_stripe_into`]) back into
    /// that chip's stored data and code regions.
    pub(crate) fn write_back_vlew(&mut self, chip: usize, stripe: usize) {
        let layout = self.layout;
        let r = self.vlew.parity_bits();
        let w = &self.vlew_batch[chip];
        let chips = &mut self.chips;
        w.extract_bytes(0, &mut chips[chip].vlew_code_mut(stripe, &layout)[..r / 8]);
        w.extract_bytes(r, chips[chip].vlew_data_mut(stripe, &layout));
    }

    /// Corrects the full 72-byte word of a block into `word` (RS first,
    /// VLEW fallback), without mutating stored state. Allocation-free on
    /// the RS-trusted path.
    pub(crate) fn corrected_word_into(
        &mut self,
        addr: u64,
        word: &mut [u8; 72],
    ) -> Result<(), CoreError> {
        self.gather_block_into(addr, word);
        match self
            .rs
            .decode_with_threshold_scratch(word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("length correct")
        {
            ThresholdOutcome::Clean | ThresholdOutcome::Accepted { .. } => Ok(()),
            ThresholdOutcome::Rejected(_) => {
                if !self.vlew_enabled {
                    return Err(CoreError::Uncorrectable);
                }
                let stripe = self.layout.stripe_of(addr);
                self.close_stripe(stripe);
                let off = self.layout.offset_in_stripe(addr);
                let parity_idx = self.layout.data_chips;
                let (pd, _, _, _) = self
                    .decode_vlew(parity_idx, stripe)
                    .map_err(|_| CoreError::Uncorrectable)?;
                word[..8].copy_from_slice(&pd[off * 8..(off + 1) * 8]);
                for c in 0..self.layout.data_chips {
                    let (cd, _, _, _) = self
                        .decode_vlew(c, stripe)
                        .map_err(|_| CoreError::Uncorrectable)?;
                    let (s, e) = self.layout.rs_positions_of_data_chip(c);
                    word[s..e].copy_from_slice(&cd[off * 8..(off + 1) * 8]);
                }
                Ok(())
            }
        }
    }

    /// Scrubs one block: corrects it (RS or VLEW) and physically rewrites
    /// the corrected bytes, clearing accumulated cell errors in the
    /// block's data and check bytes. The VLEW code needs no update — it
    /// was already consistent with the corrected value (the errors lived
    /// in the cells, not the code's reference point).
    ///
    /// # Errors
    ///
    /// As [`ChipkillMemory::read_block`].
    pub fn scrub_block(&mut self, addr: u64) -> Result<(), CoreError> {
        self.check_addr(addr)?;
        let mut word = [0u8; 72];
        self.corrected_word_into(addr, &mut word)?;
        self.scatter_block(addr, &word);
        Ok(())
    }

    /// Injects i.i.d. random bit flips at `rber` across every stored cell
    /// (data, VLEW code, and check bytes alike). Returns the number of
    /// flipped bits.
    pub fn inject_bit_errors<R: Rng + ?Sized>(&mut self, rber: f64, rng: &mut R) -> usize {
        let inj = BitErrorInjector::new(rber);
        let mut n = 0;
        for chip in &mut self.chips {
            n += inj.corrupt(&mut chip.data, rng).len();
            n += inj.corrupt(&mut chip.code, rng).len();
        }
        n
    }

    /// Injects i.i.d. bit flips at `rber` into one chip's slice of one
    /// stripe (data and VLEW code cells alike) — a spatially-correlated
    /// row fault. Returns the number of flipped bits.
    ///
    /// # Panics
    ///
    /// Panics if `chip` or `stripe` is out of range.
    pub fn inject_row_fault<R: Rng + ?Sized>(
        &mut self,
        chip: usize,
        stripe: usize,
        rber: f64,
        rng: &mut R,
    ) -> usize {
        assert!(chip < self.layout.total_chips(), "chip {chip} out of range");
        assert!(stripe < self.stripes, "stripe {stripe} out of range");
        let inj = BitErrorInjector::new(rber);
        let layout = self.layout;
        let store = &mut self.chips[chip];
        inj.corrupt(store.vlew_data_mut(stripe, &layout), rng).len()
            + inj.corrupt(store.vlew_code_mut(stripe, &layout), rng).len()
    }

    /// Flips `bits` random bits confined to a window of `width_bits`
    /// consecutive stored data bits of `chip` — a burst error. Returns
    /// the flipped global bit positions within the chip's data array.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn inject_burst<R: Rng + ?Sized>(
        &mut self,
        chip: usize,
        bits: u32,
        width_bits: u32,
        rng: &mut R,
    ) -> Vec<usize> {
        assert!(chip < self.layout.total_chips(), "chip {chip} out of range");
        let store = &mut self.chips[chip];
        let total_bits = store.data.len() * 8;
        let width = (width_bits.max(1) as usize).min(total_bits);
        let start = rng.gen_range(0..=(total_bits - width));
        let mut flipped = Vec::new();
        for _ in 0..bits {
            let p = start + rng.gen_range(0..width);
            store.data[p / 8] ^= 1 << (p % 8);
            flipped.push(p);
        }
        flipped.sort_unstable();
        flipped
    }

    /// XORs `mask` into one stored byte of `chip`'s 8 B contribution to
    /// block `addr` (`byte` indexes within that contribution). A
    /// deterministic single-symbol fault hook for crafted corpus cases:
    /// unlike [`ChipkillMemory::inject_burst`] it consumes no RNG, so
    /// the disturbed symbol is exactly where the case says it is.
    ///
    /// # Panics
    ///
    /// Panics if `chip` or `byte` is out of range.
    pub fn corrupt_chip_byte(&mut self, chip: usize, addr: u64, byte: usize, mask: u8) {
        assert!(chip < self.layout.total_chips(), "chip {chip} out of range");
        assert!(byte < self.layout.chip_bytes, "byte {byte} out of range");
        let stripe = self.layout.stripe_of(addr);
        let off = self.layout.offset_in_stripe(addr);
        let layout = self.layout;
        self.chips[chip].block_slice_mut(stripe, off, &layout)[byte] ^= mask;
    }

    /// Applies one scheduled [`FaultEvent`] from a fault campaign to the
    /// stored arrays. Background-rate events ([`FaultKind::Rber`],
    /// [`FaultKind::RberRamp`]) carry no instantaneous action — the
    /// campaign driver samples [`FaultSchedule::rber_at`] and calls
    /// [`ChipkillMemory::inject_bit_errors`] itself — so they return 0.
    /// Returns the number of bits (or cells) disturbed.
    ///
    /// [`FaultSchedule::rber_at`]: pmck_nvram::FaultSchedule::rber_at
    pub fn apply_fault_event<R: Rng + ?Sized>(&mut self, event: &FaultEvent, rng: &mut R) -> usize {
        match event.kind {
            FaultKind::Rber { .. } | FaultKind::RberRamp { .. } => 0,
            FaultKind::Burst {
                bits,
                width_bits,
                chip,
            } => {
                let chip = chip.unwrap_or_else(|| rng.gen_range(0..self.layout.total_chips()));
                self.inject_burst(chip % self.layout.total_chips(), bits, width_bits, rng)
                    .len()
            }
            FaultKind::RowFault { chip, stripe, rber } => self.inject_row_fault(
                chip % self.layout.total_chips(),
                stripe % self.stripes,
                rber,
                rng,
            ),
            FaultKind::ChipKill { chip, kind } => {
                let chip = chip % self.layout.total_chips();
                self.fail_chip(chip, kind, rng);
                self.chips[chip].data.len() * 8
            }
        }
    }

    /// Fails a chip: corrupts its stored arrays per `kind` and records the
    /// ground truth. Detection still happens through the decode paths.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn fail_chip<R: Rng + ?Sized>(&mut self, chip: usize, kind: ChipFailureKind, rng: &mut R) {
        assert!(chip < self.layout.total_chips(), "chip {chip} out of range");
        let failure = FailedChip::new(chip, kind);
        {
            let store = &mut self.chips[chip];
            failure.corrupt_output(&mut store.data, rng);
            failure.corrupt_output(&mut store.code, rng);
        }
        self.failed_chip = Some(failure);
    }

    /// The injected ground-truth failure, if any.
    pub fn injected_failure(&self) -> Option<FailedChip> {
        self.failed_chip
    }

    /// Rebuilds a failed chip in place (erasure-correct every block, then
    /// re-encode the chip's VLEWs) and clears the failure marks. The §V-E
    /// "correct the faulty chip, then retire/migrate" flow uses this
    /// before retirement.
    ///
    /// # Errors
    ///
    /// [`CoreError::Uncorrectable`] if some block cannot be rebuilt.
    pub fn repair_chip(&mut self, chip: usize) -> Result<(), CoreError> {
        if !self.vlew_enabled {
            return self.repair_chip_rs_only(chip);
        }
        let parity_idx = self.layout.data_chips;
        self.flush_eur();
        for stripe in 0..self.stripes {
            // Correct the survivors once per stripe.
            let mut corrected: Vec<Option<Vec<u8>>> = Vec::new();
            for c in 0..self.layout.total_chips() {
                if c == chip {
                    corrected.push(None);
                } else {
                    let (d, code, _, _) = self
                        .decode_vlew(c, stripe)
                        .map_err(|_| CoreError::Uncorrectable)?;
                    // Write back the corrected survivor regions.
                    let layout = self.layout;
                    self.chips[c]
                        .vlew_data_mut(stripe, &layout)
                        .copy_from_slice(&d);
                    self.chips[c]
                        .vlew_code_mut(stripe, &layout)
                        .copy_from_slice(&code);
                    corrected.push(Some(d));
                }
            }
            let bpv = self.layout.blocks_per_vlew();
            for off in 0..bpv {
                let addr = (stripe * bpv + off) as u64;
                if chip == parity_idx {
                    // Recompute check bytes from the data chips.
                    let mut data = [0u8; 64];
                    for c in 0..self.layout.data_chips {
                        let region = corrected[c].as_ref().expect("survivor");
                        data[c * 8..(c + 1) * 8].copy_from_slice(&region[off * 8..(off + 1) * 8]);
                    }
                    let mut check = [0u8; 8];
                    self.rs.parity_into(&data, &mut check);
                    let layout = self.layout;
                    self.chips[parity_idx]
                        .block_slice_mut(stripe, off, &layout)
                        .copy_from_slice(&check);
                } else {
                    let data = self.read_via_erasure_with(addr, chip, &corrected)?;
                    let layout = self.layout;
                    self.chips[chip]
                        .block_slice_mut(stripe, off, &layout)
                        .copy_from_slice(&data[chip * 8..(chip + 1) * 8]);
                }
            }
            // Re-encode the rebuilt chip's VLEW code for this stripe.
            let layout = self.layout;
            let mut code = [0u64; CODE_LIMBS];
            self.vlew
                .parity_bytes_into(self.chips[chip].vlew_data(stripe, &layout), &mut code);
            store_code(self.chips[chip].vlew_code_mut(stripe, &layout), &code);
        }
        self.failed_chip = None;
        self.known_failed = None;
        Ok(())
    }

    /// RS-only repair: every primary and bonus word is erasure-rebuilt
    /// (or, for the parity chip, its check bytes recomputed from the
    /// stored data). Without VLEWs the survivors cannot be pre-corrected,
    /// so residual random bit errors on them survive the rebuild — the
    /// tier's documented trade-off.
    fn repair_chip_rs_only(&mut self, chip: usize) -> Result<(), CoreError> {
        let parity_idx = self.layout.data_chips;
        for addr in 0..self.num_blocks {
            let stripe = self.layout.stripe_of(addr);
            let off = self.layout.offset_in_stripe(addr);
            let mut word = [0u8; 72];
            self.gather_block_into(addr, &mut word);
            let layout = self.layout;
            if chip == parity_idx {
                let data: [u8; 64] = word[8..].try_into().expect("64 data bytes");
                let mut check = [0u8; 8];
                self.rs.parity_into(&data, &mut check);
                self.chips[parity_idx]
                    .block_slice_mut(stripe, off, &layout)
                    .copy_from_slice(&check);
            } else {
                let data = self.erasure_decode_word(&mut word, chip)?;
                self.chips[chip]
                    .block_slice_mut(stripe, off, &layout)
                    .copy_from_slice(&data[chip * 8..(chip + 1) * 8]);
            }
        }
        for idx in 0..self.bonus_blocks() {
            let mut word = [0u8; 72];
            self.gather_bonus_into(idx, &mut word);
            if chip == parity_idx {
                let data: [u8; 64] = word[8..].try_into().expect("64 data bytes");
                let mut check = [0u8; 8];
                self.rs.parity_into(&data, &mut check);
                word[..8].copy_from_slice(&check);
            } else {
                self.erasure_decode_word(&mut word, chip)?;
            }
            self.scatter_bonus(idx, &word);
        }
        self.failed_chip = None;
        self.known_failed = None;
        Ok(())
    }

    /// Disables a worn-out block (§V-E): the VLEW code is updated as if
    /// the block's physical bits were zero, the bits are zeroed, and
    /// further accesses fail with [`CoreError::Disabled`].
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`]; disabling twice is a no-op.
    pub fn disable_block(&mut self, addr: u64) -> Result<(), CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        // The code update must be computed from the *corrected* old value
        // so the VLEW ends up consistent with zeros at the block's
        // positions; a worn block that defeats correction falls back to
        // the raw bits (its residual errors stay within the VLEW budget).
        let mut old = [0u8; 72];
        if self.corrected_word_into(addr, &mut old).is_err() {
            self.gather_block_into(addr, &mut old);
        }
        if !self.disabled.insert(addr) {
            return Ok(());
        }
        let zero72 = [0u8; 72];
        self.commit_write(addr, &old, &zero72);
        Ok(())
    }

    /// Whether `addr` has been disabled.
    pub fn is_disabled(&self, addr: u64) -> bool {
        self.disabled.contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ProtectionTier;
    use pmck_rt::rng::StdRng;

    /// 2000 seeded writes on a 256-block rank, half conventional and
    /// half bitwise-sum, half of them changing one chip's 8 B only,
    /// three quarters landing in a 48-block hot window (so the EUR
    /// coalesces), with an occasional row close. Returns the rank and
    /// the expected contents.
    fn mixed_writes(cfg: ChipkillConfig, seed: u64) -> (ChipkillMemory, Vec<[u8; 64]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = ChipkillMemory::new(256, cfg);
        let blocks = mem.num_blocks();
        let mut mirror = vec![[0u8; 64]; blocks as usize];
        for _ in 0..2000 {
            let addr = if rng.gen_bool(0.75) {
                rng.gen_range(0..48u64)
            } else {
                rng.gen_range(0..blocks)
            };
            let mut new = mirror[addr as usize];
            if rng.gen_bool(0.5) {
                rng.fill_bytes(&mut new[..]);
            } else {
                let chip = rng.gen_range(0..8usize);
                rng.fill_bytes(&mut new[chip * 8..chip * 8 + 8]);
            }
            if rng.gen_bool(0.5) {
                mem.write_block(addr, &new).unwrap();
            } else {
                let mut sum = [0u8; 64];
                for (s, (o, n)) in sum.iter_mut().zip(mirror[addr as usize].iter().zip(&new)) {
                    *s = o ^ n;
                }
                mem.write_block_sum(addr, &sum).unwrap();
            }
            mirror[addr as usize] = new;
            if rng.gen_bool(0.02) {
                mem.close_stripe(rng.gen_range(0..mem.stripes()));
            }
        }
        (mem, mirror)
    }

    #[test]
    fn delta_maintained_codes_equal_a_full_reencode() {
        // (config, seed, EUR occupancy before the flush, drains after
        // it). The counts are pinned from the commit before the
        // table-driven encoder and the register-file EUR (PR 11,
        // 9842f7b) on the same seeds: the drain policy did not move.
        let no_eur = ChipkillConfig {
            eur_enabled: false,
            ..ChipkillConfig::default()
        };
        for (cfg, seed, occupancy, drains) in [
            (ChipkillConfig::default(), 0xE014, 63, 398),
            (
                ChipkillConfig::for_tier(ProtectionTier::Dense),
                0xE015,
                119,
                383,
            ),
            (no_eur, 0xE016, 0, 10972),
        ] {
            let (mut mem, mirror) = mixed_writes(cfg, seed);
            assert_eq!(mem.eur_occupancy(), occupancy, "{cfg:?}");
            mem.flush_eur();
            assert_eq!(mem.eur_occupancy(), 0);
            assert_eq!(mem.eur.drains, drains, "{cfg:?}");
            assert_eq!(mem.c_factor(), drains as f64 / 2000.0);

            // Every stored code region against a whole-word encode of
            // the data beside it.
            let layout = mem.layout;
            for stripe in 0..mem.stripes {
                for (c, chip) in mem.chips.iter().enumerate() {
                    let mut code = [0u64; CODE_LIMBS];
                    mem.vlew
                        .parity_bytes_into(chip.vlew_data(stripe, &layout), &mut code);
                    let mut want = [0u8; 33];
                    store_code(&mut want, &code);
                    assert_eq!(
                        chip.vlew_code(stripe, &layout),
                        want,
                        "chip {c} stripe {stripe} under {cfg:?}"
                    );
                }
            }
            // And against the division-based codeword check.
            assert!(mem.verify_consistent());
            for (a, want) in mirror.iter().enumerate() {
                assert_eq!(&mem.read_block(a as u64).unwrap().data, want);
            }
        }
    }
}
