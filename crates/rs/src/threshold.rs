//! Threshold-limited decoding (§V-C of the paper).
//!
//! A miscorrection is more likely to masquerade as a *large* number of
//! corrections than a small one, so the memory controller accepts the RS
//! result only when the decoder touched at most `threshold` symbols
//! (threshold = 2 in the paper); otherwise it distrusts the correction and
//! falls back to VLEW decoding.

use crate::code::RsCode;
use crate::decode::RsScratch;
use crate::error::RsError;

/// Why a threshold decode refused to accept the RS correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The decoder corrected more symbols than the acceptance threshold;
    /// the corrections were rolled back.
    TooManyCorrections(usize),
    /// The decoder flagged the pattern uncorrectable outright.
    Uncorrectable,
}

/// The outcome of [`RsCode::decode_with_threshold_scratch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdOutcome {
    /// The word was already a valid codeword; nothing changed.
    Clean,
    /// The correction was accepted; `corrections` symbols were fixed
    /// (`1..=threshold`).
    Accepted {
        /// Number of symbols corrected.
        corrections: usize,
    },
    /// The correction was rejected; the word is unmodified and the caller
    /// must fall back to VLEW correction.
    Rejected(RejectReason),
}

impl RsCode {
    /// Decodes `word` in the caller's `scratch`, accepting the result
    /// only when the number of corrected symbols is at most `threshold`;
    /// otherwise all corrections are rolled back and
    /// [`ThresholdOutcome::Rejected`] is returned, signalling the caller
    /// to fall back to VLEW correction. The runtime read path calls this
    /// with the engine-owned scratch, making the clean-read common case
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// [`RsError::LengthMismatch`] if `word.len() != n`. (Correction
    /// failures are not errors here — they are the
    /// [`ThresholdOutcome::Rejected`] variant, because rejection is an
    /// expected, handled outcome of the runtime read path.)
    pub fn decode_with_threshold_scratch(
        &self,
        word: &mut [u8],
        threshold: usize,
        scratch: &mut RsScratch,
    ) -> Result<ThresholdOutcome, RsError> {
        match self.decode_scratch(word, scratch) {
            Ok(view) if view.was_clean() => Ok(ThresholdOutcome::Clean),
            Ok(view) => {
                let n = view.num_corrections();
                if n <= threshold {
                    Ok(ThresholdOutcome::Accepted { corrections: n })
                } else {
                    // Roll back: the correction is distrusted.
                    for &(p, m) in view.corrections() {
                        word[p] ^= m;
                    }
                    Ok(ThresholdOutcome::Rejected(
                        RejectReason::TooManyCorrections(n),
                    ))
                }
            }
            Err(RsError::Uncorrectable) => {
                Ok(ThresholdOutcome::Rejected(RejectReason::Uncorrectable))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The seeded randomized properties (historical seeds 5, 13) live in
    // `tests/props.rs` on the harness runner.

    #[test]
    fn clean_block_is_clean() {
        let code = RsCode::per_block();
        let mut scratch = RsScratch::new(&code);
        let mut cw = code.encode(&[7u8; 64]);
        assert_eq!(
            code.decode_with_threshold_scratch(&mut cw, 2, &mut scratch)
                .unwrap(),
            ThresholdOutcome::Clean
        );
    }

    #[test]
    fn one_and_two_errors_accepted() {
        let code = RsCode::per_block();
        let mut scratch = RsScratch::new(&code);
        let clean = code.encode(&[0xABu8; 64]);
        for nerr in 1..=2 {
            let mut cw = clean.clone();
            for i in 0..nerr {
                cw[i * 30] ^= 0x11;
            }
            match code
                .decode_with_threshold_scratch(&mut cw, 2, &mut scratch)
                .unwrap()
            {
                ThresholdOutcome::Accepted { corrections } => assert_eq!(corrections, nerr),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn three_and_four_errors_rejected_and_rolled_back() {
        let code = RsCode::per_block();
        let mut scratch = RsScratch::new(&code);
        let clean = code.encode(&[0x5Au8; 64]);
        for nerr in 3..=4 {
            let mut cw = clean.clone();
            for i in 0..nerr {
                cw[i * 15 + 2] ^= 0x77;
            }
            let before = cw.clone();
            match code
                .decode_with_threshold_scratch(&mut cw, 2, &mut scratch)
                .unwrap()
            {
                ThresholdOutcome::Rejected(RejectReason::TooManyCorrections(n)) => {
                    assert_eq!(n, nerr)
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(cw, before, "rejected corrections must be rolled back");
        }
    }
}
