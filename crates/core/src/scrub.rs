//! Boot-time scrubbing (§V-B): VLEW-decode everything, rebuild failed
//! chips, and report what happened.

use crate::engine::ChipkillMemory;
use crate::error::CoreError;

/// The result of a completed boot scrub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes processed (each spans 32 blocks × 9 chips).
    pub stripes_scrubbed: usize,
    /// Total bit errors corrected by VLEW decoding.
    pub bits_corrected: usize,
    /// VLEW words that needed at least one correction.
    pub words_with_errors: usize,
    /// Chip rebuilt through erasure correction, if a failure was found.
    pub chip_rebuilt: Option<usize>,
}

impl ChipkillMemory {
    /// Scrubs the whole rank at boot: every chip's every VLEW is decoded
    /// and corrected in place. A chip with an uncorrectable VLEW is
    /// treated as failed and rebuilt via RS erasure correction (or, for
    /// the parity chip, recomputed from the data chips).
    ///
    /// # Errors
    ///
    /// [`CoreError::MultiChipFailure`] if two or more chips have
    /// uncorrectable VLEWs; [`CoreError::Uncorrectable`] if the rebuild
    /// itself fails. In both cases data may be partially scrubbed but no
    /// wrong data is silently accepted.
    pub fn boot_scrub(&mut self) -> Result<ScrubReport, CoreError> {
        if !self.config().vlew_enabled() {
            return self.boot_scrub_rs_only();
        }
        let mut report = ScrubReport::default();
        let mut failed_chips: Vec<usize> = Vec::new();
        for stripe in 0..self.stripes() {
            let verdict = self.decode_stripe(stripe, None);
            let (words, bits) = self.write_back_corrected(stripe, &verdict);
            report.words_with_errors += words;
            report.bits_corrected += bits;
            for chip in verdict.failed() {
                if !failed_chips.contains(&chip) {
                    failed_chips.push(chip);
                }
            }
            report.stripes_scrubbed += 1;
        }
        match failed_chips.len() {
            0 => Ok(report),
            1 => {
                let chip = failed_chips[0];
                self.repair_chip(chip)?;
                report.chip_rebuilt = Some(chip);
                Ok(report)
            }
            _ => Err(CoreError::MultiChipFailure),
        }
    }

    /// The RS-only tier's boot scrub: no VLEWs exist, so every block's
    /// word is RS-threshold-scrubbed instead. `bits_corrected` counts
    /// corrected RS *symbols* on this tier (the finest unit the code
    /// sees); a rejected word is a detected uncorrectable error.
    fn boot_scrub_rs_only(&mut self) -> Result<ScrubReport, CoreError> {
        let mut report = ScrubReport::default();
        for addr in 0..self.num_blocks() {
            if self.is_disabled(addr) {
                continue;
            }
            let n = self.rs_scrub_block(addr)?;
            if n > 0 {
                report.words_with_errors += 1;
                report.bits_corrected += n;
            }
        }
        report.stripes_scrubbed = self.stripes();
        Ok(report)
    }

    /// Verifies rank-wide ECC consistency: every chip's VLEW must be a
    /// valid codeword (VLEW-bearing tiers) and every block's RS word
    /// must be clean. Pending EUR registers are drained first (their
    /// updates are part of the consistent state). Intended for tests and
    /// post-scrub assertions; cost is linear in capacity.
    pub fn verify_consistent(&mut self) -> bool {
        self.flush_eur();
        if self.config().vlew_enabled() {
            let layout = *self.layout();
            for stripe in 0..self.stripes() {
                for chip in 0..layout.total_chips() {
                    let word = &mut self.vlew_batch[chip];
                    Self::load_vlew_word(&self.chips, &layout, &self.vlew, chip, stripe, word);
                    if !self.vlew.is_codeword(word) {
                        return false;
                    }
                }
            }
        }
        for addr in 0..self.num_blocks() {
            if self.is_disabled(addr) {
                continue;
            }
            let mut word = [0u8; 72];
            self.gather_block_into(addr, &mut word);
            if !self.rs.is_codeword(&word) {
                return false;
            }
        }
        true
    }
}
