//! The chipkill-correct engine: runtime read/write paths over the
//! nine-chip functional rank.

use std::collections::HashSet;

use pmck_bch::{BchCode, BchScratch, BitPoly, WordVerdict};
use pmck_nvram::{BitErrorInjector, ChipFailureKind, FailedChip, FaultEvent, FaultKind};
use pmck_rs::{RsCode, RsScratch, ThresholdOutcome};
use pmck_rt::rng::Rng;

use crate::config::ChipkillConfig;
use crate::error::CoreError;
use crate::layout::ChipkillLayout;
use crate::rank::{store_code, ChipStore, EurModel, CODE_LIMBS};
use crate::stats::CoreStats;

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
}

/// A successful block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The 64 B block contents.
    pub data: [u8; 64],
    /// The path that produced them.
    pub path: ReadPath,
}

/// Chips in the functional rank: eight data chips plus the parity chip.
const CHIPS: usize = 9;

/// Per-chip verdicts of one [`ChipkillMemory::decode_stripe`] call. A
/// skipped (known-failed) chip reads [`WordVerdict::Uncorrectable`]:
/// decoded and rejected or not decoded at all, its bytes are erasures.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StripeVerdict(pub(crate) [WordVerdict; CHIPS]);

impl StripeVerdict {
    /// The chips whose VLEW cannot be trusted, ascending.
    pub(crate) fn failed(&self) -> impl Iterator<Item = usize> + '_ {
        (0..CHIPS).filter(|&c| self.0[c].is_uncorrectable())
    }
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
    /// Reusable VLEW codeword buffers, one per chip: the stripe
    /// [`ChipkillMemory::decode_stripe`] last filled, corrected where
    /// its verdict says so. Working memory only — the next call
    /// refills it.
    pub(crate) vlew_batch: Vec<BitPoly>,
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
    /// Panics if `num_blocks == 0`, or if `cfg.layout` is not the
    /// geometry of `cfg.tier` (the rank would run one tier's geometry
    /// while reporting another's storage cost).
    pub fn new(num_blocks: u64, cfg: ChipkillConfig) -> Self {
        assert!(num_blocks > 0, "capacity must be nonzero");
        let layout = cfg.layout;
        assert_eq!(
            layout,
            cfg.tier.geometry(),
            "layout must be the {} tier's geometry (see ChipkillConfig::for_tier)",
            cfg.tier
        );
        let bpv = layout.blocks_per_vlew() as u64;
        let stripes = num_blocks.div_ceil(bpv) as usize;
        let num_blocks = stripes as u64 * bpv;
        assert_eq!(
            (layout.rs_codeword_bytes(), layout.total_chips()),
            (72, CHIPS),
            "engine read/write scratch buffers assume the nine-chip RS(72, 64) layout"
        );
        // The VLEW geometry comes from the layout: the BCH generator
        // depends only on (m, t), so every tier shares the 33 B code
        // region while protecting a tier-specific data span. Built
        // before the rank's arrays: the first code of a geometry
        // allocates its 320 KiB table, and an allocation of that size
        // between the nine data arrays and the register file moves
        // their relative placement — measured at +4–10% on a clean
        // read's latency through the service with no instruction of the
        // read changed (DESIGN.md §9.5).
        let vlew = BchCode::new(12, 22, layout.vlew_data_bytes * 8)
            .expect("validated layouts yield constructible VLEW parameters");
        debug_assert_eq!(vlew.parity_bits() / 8, layout.vlew_code_bytes);
        assert_eq!(
            vlew.parity_limbs(),
            CODE_LIMBS,
            "VLEW code deltas are fixed-size"
        );
        let chips = (0..layout.total_chips())
            .map(|_| ChipStore::new(stripes, &layout))
            .collect();
        let rs = RsCode::per_block();
        let rs_scratch = RsScratch::new(&rs);
        let bch_scratch = BchScratch::new(&vlew);
        let vlew_batch = vec![BitPoly::zero(vlew.len()); CHIPS];
        ChipkillMemory {
            cfg,
            layout,
            num_blocks,
            stripes,
            chips,
            vlew,
            rs,
            rs_scratch,
            bch_scratch,
            vlew_batch,
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
    /// first durable epoch. Whatever the domain has staged is not known
    /// to be this rank's image, so every stripe becomes dirty: the next
    /// flush compares the whole image.
    pub fn set_domain(&mut self, domain: crate::pmem::PmemDomain) {
        for chip in &mut self.chips {
            chip.mark_all_dirty();
        }
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
    /// the encoder's sparse entry, coalesced in the EUR. A zero delta
    /// changes no code bit and is skipped. Allocation-free.
    fn apply_chip_code_update(&mut self, chip: usize, stripe: usize, off: usize, delta8: &[u8]) {
        if delta8.iter().all(|&d| d == 0) {
            return;
        }
        let mut delta = [0u64; CODE_LIMBS];
        self.vlew
            .parity_delta_into(off * self.layout.chip_bytes * 8, delta8, &mut delta);
        self.eur.accumulate(chip, stripe, &delta);
    }

    /// Drains every pending EUR register into the code arrays (a full
    /// "row close"; also required before scrubbing or measuring C).
    pub fn flush_eur(&mut self) {
        self.eur.drain_all(&mut self.chips, &self.layout);
    }

    /// Drains pending EUR registers touching `stripe` (a row close of
    /// that row).
    pub fn close_stripe(&mut self, stripe: usize) {
        self.eur.drain_stripe(stripe, &mut self.chips, &self.layout);
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
            if self.cfg.vlew_enabled() {
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
        if self.cfg.vlew_enabled() {
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
        if self.cfg.vlew_enabled() {
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
    /// caller's buffer, skipping the outcome copy. On error the buffer
    /// contents are unspecified.
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
        let undetected = self.known_failed.is_none();
        let mut word = [0u8; 72];
        let path = match self.correct_word(addr, &mut word) {
            Ok(path) => path,
            Err(e) => {
                // A VLEW tier with no known-failed chip only fails past
                // an RS rejection: that read fell back too.
                self.stats.fallbacks += u64::from(undetected && self.cfg.vlew_enabled());
                self.stats.due_events += 1;
                return Err(e);
            }
        };
        match path {
            ReadPath::Clean => self.stats.clean_reads += 1,
            ReadPath::RsCorrected { corrections } => {
                self.stats.rs_accepted += 1;
                self.stats.rs_corrections += corrections as u64;
            }
            ReadPath::VlewFallback { bits_corrected } => {
                self.stats.fallbacks += 1;
                self.stats.vlew_bits_corrected += bits_corrected as u64;
            }
            ReadPath::ChipkillErasure { chip } => {
                // Exactly one untrusted chip is a chip failure, recorded
                // on first sight; detection is the demand read's alone.
                if undetected {
                    self.stats.fallbacks += 1;
                    self.known_failed = Some(chip);
                    self.stats.chip_failures_detected += 1;
                }
                self.stats.erasure_reads += 1;
            }
            ReadPath::BitCorrected { .. } => unreachable!("single-tier devices' path"),
        }
        data.copy_from_slice(&word[8..]);
        Ok(path)
    }

    /// Corrects the full 72-byte word of a block into `word` and says
    /// which decoder produced it — the one dispatch under every demand
    /// read, write read-modify, scrub and block retirement (§V-C,
    /// Figure 9). Under a known-failed chip: the stripe's surviving
    /// VLEWs (the raw word on the RS-only tier), then erasure
    /// correction. Otherwise RS with the acceptance threshold, and past
    /// a rejection the VLEW path, which heals the stripe it had to
    /// decode (see [`ChipkillMemory::stripe_word_into`]); one untrusted
    /// chip there is erasure-corrected and reported, not recorded.
    /// Counts nothing but what the stripe decode counts. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`CoreError::Uncorrectable`], [`CoreError::MultiChipFailure`].
    fn correct_word(&mut self, addr: u64, word: &mut [u8; 72]) -> Result<ReadPath, CoreError> {
        if let Some(chip) = self.known_failed {
            if self.cfg.vlew_enabled() {
                self.stripe_word_into(addr, word)?;
            } else {
                // No VLEWs to pre-correct the survivors with: the raw
                // gathered word is the erasure input.
                self.gather_block_into(addr, word);
            }
            self.erasure_decode_word(word, chip)?;
            return Ok(ReadPath::ChipkillErasure { chip });
        }
        self.gather_block_into(addr, word);
        match self
            .rs
            .decode_with_threshold_scratch(word, self.cfg.threshold, &mut self.rs_scratch)
            .expect("word length is correct")
        {
            ThresholdOutcome::Clean => Ok(ReadPath::Clean),
            ThresholdOutcome::Accepted { corrections } => Ok(ReadPath::RsCorrected { corrections }),
            // RS-only tier: the full RS radius was already spent
            // (threshold = rs_check_bytes / 2); there is no deeper tier
            // to fall back to.
            ThresholdOutcome::Rejected(_) if !self.cfg.vlew_enabled() => {
                Err(CoreError::Uncorrectable)
            }
            ThresholdOutcome::Rejected(_) => {
                let (verdict, untrusted) = self.stripe_word_into(addr, word)?;
                if let Some(chip) = untrusted {
                    self.erasure_decode_word(word, chip)?;
                    return Ok(ReadPath::ChipkillErasure { chip });
                }
                let bits_corrected = verdict.0.iter().map(WordVerdict::bits_corrected).sum();
                Ok(ReadPath::VlewFallback { bits_corrected })
            }
        }
    }

    /// Erasure-decodes a 72-byte word in place with `chip`'s positions
    /// as erasures. With the parity chip failed the data chips alone
    /// carry the block, and the check bytes are recomputed from them.
    fn erasure_decode_word(&mut self, word: &mut [u8; 72], chip: usize) -> Result<(), CoreError> {
        if chip == self.layout.data_chips {
            let (check, data) = word.split_at_mut(self.layout.rs_check_bytes);
            self.rs.parity_into(data, check);
            return Ok(());
        }
        let (first, _) = self.layout.rs_positions_of_data_chip(chip);
        let erasures: [usize; 8] = std::array::from_fn(|i| first + i);
        self.rs
            .decode_with_erasures_scratch(word, &erasures, &mut self.rs_scratch)
            .map(|_| ())
            .map_err(|_| CoreError::Uncorrectable)
    }

    /// RS-scrubs one block (RS-only tier's boot scrub unit):
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

    /// Assembles chip `chip`'s VLEW codeword for `stripe` into `dst`
    /// without allocating. The VLEW parity region (264 bits = 33 B) is
    /// byte-aligned, so both regions drop in via byte splices.
    pub(crate) fn load_vlew_word(
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

    /// The engine's only VLEW decode. Closes `stripe`'s row, then loads
    /// each chip's VLEW of it into the reusable batch and decodes it in
    /// place — except `skip`, a known-failed chip, which is not decoded
    /// at all. Corrected words stay in the batch for
    /// [`ChipkillMemory::stripe_word_into`] and
    /// [`ChipkillMemory::write_back_vlew`] until the next call refills
    /// it; storage is untouched.
    pub(crate) fn decode_stripe(&mut self, stripe: usize, skip: Option<usize>) -> StripeVerdict {
        self.close_stripe(stripe);
        let mut verdict = StripeVerdict([WordVerdict::Uncorrectable; CHIPS]);
        for (chip, word) in self.vlew_batch.iter_mut().enumerate() {
            if skip == Some(chip) {
                continue;
            }
            Self::load_vlew_word(&self.chips, &self.layout, &self.vlew, chip, stripe, word);
            verdict.0[chip] = self.vlew.decode_word(word, &mut self.bch_scratch);
        }
        verdict
    }

    /// Writes the corrected word [`ChipkillMemory::decode_stripe`] left
    /// in the batch for `chip` back into that chip's stored data and
    /// code cells — the engine's only VLEW write-back.
    pub(crate) fn write_back_vlew(&mut self, chip: usize, stripe: usize) {
        let layout = self.layout;
        let r = self.vlew.parity_bits();
        let w = &self.vlew_batch[chip];
        let chips = &mut self.chips;
        w.extract_bytes(0, &mut chips[chip].vlew_code_mut(stripe, &layout)[..r / 8]);
        w.extract_bytes(r, chips[chip].vlew_data_mut(stripe, &layout));
    }

    /// Writes back every chip of `stripe` that `verdict` says was
    /// corrected. Returns how many chips that was and how many cells
    /// had been wrong across them.
    pub(crate) fn write_back_corrected(
        &mut self,
        stripe: usize,
        verdict: &StripeVerdict,
    ) -> (usize, usize) {
        let (mut chips, mut bits) = (0, 0);
        for (chip, outcome) in verdict.0.iter().enumerate() {
            if let WordVerdict::Corrected { bits: n } = outcome {
                self.write_back_vlew(chip, stripe);
                chips += 1;
                bits += n;
            }
        }
        (chips, bits)
    }

    /// The VLEW path of every word correction (§V-B, §V-C): decodes
    /// `addr`'s stripe and assembles the block's 72-byte RS word from
    /// the corrected VLEWs. A stripe with at most one untrusted chip is
    /// readable, and is healed on the spot: every corrected chip is
    /// written back, data and code cells alike (the untrusted chip's
    /// cells are [`ChipkillMemory::repair_chip`]'s business), so the
    /// stripe's other blocks — and this one, next time — are back on
    /// the clean path, and the stripe is dirty for the next flush. It
    /// costs the cells that were wrong, on the 0.02% of reads that get
    /// here at the paper's runtime RBER; RS-corrected reads are *not*
    /// written back (11% of reads would become NVRAM writes, what §V-D
    /// avoids).
    ///
    /// Returns the verdict and the untrusted chip, whose bytes in
    /// `word` are erasures for the caller to correct.
    ///
    /// # Errors
    ///
    /// [`CoreError::MultiChipFailure`] with two or more untrusted
    /// chips; nothing is written then.
    fn stripe_word_into(
        &mut self,
        addr: u64,
        word: &mut [u8; 72],
    ) -> Result<(StripeVerdict, Option<usize>), CoreError> {
        let stripe = self.layout.stripe_of(addr);
        let verdict = self.decode_stripe(stripe, self.known_failed);
        let mut failed = verdict.failed();
        let (untrusted, None) = (failed.next(), failed.next()) else {
            return Err(CoreError::MultiChipFailure);
        };
        let (chips, _) = self.write_back_corrected(stripe, &verdict);
        if chips > 0 {
            self.stats.stripe_writebacks += 1;
        }
        let off = self.layout.offset_in_stripe(addr);
        let at = self.vlew.parity_bits() + off * self.layout.chip_bytes * 8;
        let (data_words, parity_word) = self.vlew_batch.split_at(self.layout.data_chips);
        parity_word[0].extract_bytes(at, &mut word[..self.layout.rs_check_bytes]);
        for (c, chip_word) in data_words.iter().enumerate() {
            let (s, e) = self.layout.rs_positions_of_data_chip(c);
            chip_word.extract_bytes(at, &mut word[s..e]);
        }
        Ok((verdict, untrusted))
    }

    /// [`ChipkillMemory::correct_word`] for the callers that are not
    /// demand reads (`Write`'s read-modify, `Scrub`, patrol, block
    /// retirement). What it leaves to the demand read is *detection*:
    /// a dead chip nobody has recorded yet is
    /// [`CoreError::Uncorrectable`] here, a recorded one is
    /// erasure-corrected around.
    pub(crate) fn corrected_word_into(
        &mut self,
        addr: u64,
        word: &mut [u8; 72],
    ) -> Result<(), CoreError> {
        let known = self.known_failed;
        match self.correct_word(addr, word) {
            Ok(ReadPath::ChipkillErasure { chip }) if known != Some(chip) => {
                Err(CoreError::Uncorrectable)
            }
            Ok(_) => Ok(()),
            Err(_) => Err(CoreError::Uncorrectable),
        }
    }

    /// Scrubs one block: corrects it (RS, VLEW, erasure under a
    /// known-failed chip) and physically rewrites the corrected bytes,
    /// clearing accumulated cell errors in the block's data and check
    /// bytes. An RS-corrected block's VLEW code needs no update — it was
    /// already consistent with the corrected value (the errors lived in
    /// the cells, not the code's reference point); a block that needed
    /// the VLEW path has had its whole stripe, code cells included,
    /// written back by then.
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
            let (data, code) = chip.arrays_mut();
            n += inj.corrupt(data, rng).len();
            n += inj.corrupt(code, rng).len();
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
        let (data, _) = self.chips[chip].arrays_mut();
        let total_bits = data.len() * 8;
        let width = (width_bits.max(1) as usize).min(total_bits);
        let start = rng.gen_range(0..=(total_bits - width));
        let mut flipped = Vec::new();
        for _ in 0..bits {
            let p = start + rng.gen_range(0..width);
            data[p / 8] ^= 1 << (p % 8);
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
                self.chips[chip].data().len() * 8
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
        let (data, code) = self.chips[chip].arrays_mut();
        failure.corrupt_output(data, rng);
        failure.corrupt_output(code, rng);
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
        let layout = self.layout;
        let bpv = layout.blocks_per_vlew();
        // The rebuilt chip's positions in a block's RS word.
        let (s, e) = if chip == layout.data_chips {
            (0, layout.rs_check_bytes)
        } else {
            layout.rs_positions_of_data_chip(chip)
        };
        for stripe in 0..self.stripes {
            // Correct the survivors once per stripe and write them back.
            // Without VLEWs (RS-only tier) they cannot be pre-corrected,
            // so residual bit errors on them survive the rebuild — that
            // tier's documented trade-off.
            if self.cfg.vlew_enabled() {
                let verdict = self.decode_stripe(stripe, Some(chip));
                if !verdict.failed().eq([chip]) {
                    return Err(CoreError::Uncorrectable);
                }
                self.write_back_corrected(stripe, &verdict);
            }
            for off in 0..bpv {
                let addr = (stripe * bpv + off) as u64;
                let mut word = [0u8; 72];
                self.gather_block_into(addr, &mut word);
                self.erasure_decode_word(&mut word, chip)?;
                self.chips[chip]
                    .block_slice_mut(stripe, off, &layout)
                    .copy_from_slice(&word[s..e]);
            }
            if self.cfg.vlew_enabled() {
                // Re-encode the rebuilt chip's VLEW code for this stripe.
                let mut code = [0u64; CODE_LIMBS];
                self.vlew
                    .parity_bytes_into(self.chips[chip].vlew_data(stripe, &layout), &mut code);
                store_code(self.chips[chip].vlew_code_mut(stripe, &layout), &code);
            }
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

    /// Every stored byte of the rank, chip by chip.
    fn cells(mem: &ChipkillMemory) -> Vec<(&[u8], &[u8])> {
        mem.chips.iter().map(|c| (c.data(), c.code())).collect()
    }

    #[test]
    fn a_lost_stripe_is_left_as_found() {
        // Aged survivors (so some chips decode `Corrected`) and two
        // dead chips: the stripe is not readable, and what cannot be
        // trusted as a whole is not written in part.
        let (mut mem, _) = mixed_writes(ChipkillConfig::default(), 0xE020);
        let mut rng = StdRng::seed_from_u64(0xE021);
        mem.flush_eur();
        mem.inject_bit_errors(1e-3, &mut rng);
        mem.fail_chip(1, ChipFailureKind::RandomGarbage, &mut rng);
        mem.fail_chip(6, ChipFailureKind::RandomGarbage, &mut rng);
        let before = mem.clone();
        for addr in 0..mem.num_blocks() {
            assert_eq!(mem.read_block(addr), Err(CoreError::MultiChipFailure));
            assert_eq!(
                mem.write_block(addr, &[0x3C; 64]),
                Err(CoreError::Uncorrectable)
            );
            assert_eq!(mem.scrub_block(addr), Err(CoreError::Uncorrectable));
        }
        assert_eq!(cells(&mem), cells(&before));
        assert_eq!(mem.stats().stripe_writebacks, 0);
        assert_eq!(mem.detected_failed_chip(), None);
        assert_eq!(mem.stats().due_events, mem.num_blocks());
    }

    #[test]
    #[should_panic(expected = "dense tier's geometry")]
    fn tier_and_geometry_must_agree() {
        // Used to build a paper-geometry rank reporting the dense
        // tier's 41.5% storage cost.
        let cfg = ChipkillConfig {
            tier: ProtectionTier::Dense,
            ..ChipkillConfig::default()
        };
        let _ = ChipkillMemory::new(64, cfg);
    }

    #[test]
    fn delta_maintained_codes_equal_a_full_reencode() {
        // (config, seed, EUR occupancy before the flush, drains after
        // it). The counts are pinned from the commit before the
        // table-driven encoder and the register-file EUR (PR 11,
        // 9842f7b) on the same seeds: the drain policy did not move.
        for (cfg, seed, occupancy, drains) in [
            (ChipkillConfig::default(), 0xE014, 63, 398),
            (
                ChipkillConfig::for_tier(ProtectionTier::Dense),
                0xE015,
                119,
                383,
            ),
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
