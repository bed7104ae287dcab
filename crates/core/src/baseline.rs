//! The §III-A comparison baseline: per-block 14-bit-EC BCH, bit-error
//! protection only.
//!
//! Every 64 B block carries its own 140-bit BCH code (~28% storage, same
//! as the proposal's 27%), correcting up to 14 random bit errors — enough
//! for RBER 10⁻³ — but a failed chip contributes up to 64 erroneous bits
//! per block, far beyond the code, so chip failures are fatal. The
//! proposal's headline claim is adding chip failure protection over this
//! baseline at no storage cost and ~2% performance cost.

use pmck_bch::{BchCode, BchScratch, BitPoly};
use pmck_nvram::{BitErrorInjector, ChipFailureKind, FailedChip};
use pmck_rt::rng::Rng;

use crate::error::CoreError;
use crate::rank::store_code;

/// How a baseline read was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineReadOutcome {
    /// The block contents.
    pub data: [u8; 64],
    /// Bit errors corrected by the per-block BCH.
    pub bits_corrected: usize,
}

/// A rank protected only by per-block 14-bit-EC BCH (no parity chip).
#[derive(Debug, Clone)]
pub struct BaselineMemory {
    data: Vec<u8>,  // 64 B per block
    codes: Vec<u8>, // 18 B (140 bits rounded up) per block
    num_blocks: u64,
    bch: BchCode,
    code_bytes: usize,
    /// Reusable decode working memory: one block's data as a bit
    /// vector, the codeword assembled around it, the decoder scratch.
    data_word: BitPoly,
    cw: BitPoly,
    scratch: BchScratch,
    failed_chip: Option<FailedChip>,
}

impl BaselineMemory {
    /// A zero-initialized baseline rank of `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0`.
    pub fn new(num_blocks: u64) -> Self {
        assert!(num_blocks > 0, "capacity must be nonzero");
        let bch = BchCode::per_block_baseline();
        let code_bytes = bch.parity_bits().div_ceil(8);
        BaselineMemory {
            data: vec![0; num_blocks as usize * 64],
            codes: vec![0; num_blocks as usize * code_bytes],
            num_blocks,
            data_word: BitPoly::zero(bch.data_bits()),
            cw: BitPoly::zero(bch.len()),
            scratch: BchScratch::new(&bch),
            bch,
            code_bytes,
            failed_chip: None,
        }
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Storage overhead of the code bits (140/512 ≈ 27.3%).
    pub fn storage_overhead(&self) -> f64 {
        self.bch.storage_overhead()
    }

    /// Writes a block and its code.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`].
    pub fn write_block(&mut self, addr: u64, new: &[u8; 64]) -> Result<(), CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let a = addr as usize;
        self.data[a * 64..(a + 1) * 64].copy_from_slice(new);
        // 140 parity bits: three limbs.
        let mut code = [0u64; 3];
        self.bch.parity_bytes_into(new, &mut code);
        store_code(
            &mut self.codes[a * self.code_bytes..(a + 1) * self.code_bytes],
            &code,
        );
        Ok(())
    }

    /// Reads a block, correcting up to 14 bit errors.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] / [`CoreError::Uncorrectable`].
    pub fn read_block(&mut self, addr: u64) -> Result<BaselineReadOutcome, CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let a = addr as usize;
        let stored = &self.data[a * 64..(a + 1) * 64];
        // The 140 parity bits end mid-byte: the code bytes go in whole
        // and the data word then overwrites the padding behind them.
        let r = self.bch.parity_bits();
        self.cw.splice_bytes(
            0,
            &self.codes[a * self.code_bytes..(a + 1) * self.code_bytes],
        );
        self.data_word.splice_bytes(0, stored);
        self.cw.splice(r, &self.data_word);
        let view = self
            .bch
            .decode_scratch(&mut self.cw, &mut self.scratch)
            .map_err(|_| CoreError::Uncorrectable)?;
        let mut data: [u8; 64] = stored.try_into().expect("64 bytes");
        for &p in view.corrected_bits().iter().filter(|&&p| p >= r) {
            data[(p - r) / 8] ^= 1 << ((p - r) % 8);
        }
        Ok(BaselineReadOutcome {
            data,
            bits_corrected: view.num_corrected(),
        })
    }

    /// Injects random bit flips across data and code; returns the count.
    pub fn inject_bit_errors<R: Rng + ?Sized>(&mut self, rber: f64, rng: &mut R) -> usize {
        let inj = BitErrorInjector::new(rber);
        inj.corrupt(&mut self.data, rng).len() + inj.corrupt(&mut self.codes, rng).len()
    }

    /// Fails a chip. The baseline has the same 8-chip data layout, so a
    /// failed chip corrupts bytes `[chip·8, chip·8+8)` of every block —
    /// beyond any per-block BCH.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 8`.
    pub fn fail_chip<R: Rng + ?Sized>(&mut self, chip: usize, kind: ChipFailureKind, rng: &mut R) {
        assert!(chip < 8, "baseline has 8 data chips");
        let failure = FailedChip::new(chip, kind);
        for a in 0..self.num_blocks as usize {
            let s = a * 64 + chip * 8;
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&self.data[s..s + 8]);
            failure.corrupt_output(&mut bytes, rng);
            self.data[s..s + 8].copy_from_slice(&bytes);
        }
        self.failed_chip = Some(failure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_rt::rng::StdRng;

    #[test]
    fn round_trip_and_overhead() {
        let mut m = BaselineMemory::new(16);
        let b = [0x42u8; 64];
        m.write_block(7, &b).unwrap();
        let out = m.read_block(7).unwrap();
        assert_eq!(out.data, b);
        assert_eq!(out.bits_corrected, 0);
        assert!((m.storage_overhead() - 140.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn corrects_random_errors_at_boot_rber() {
        let mut m = BaselineMemory::new(128);
        let mut rng = StdRng::seed_from_u64(2);
        let blocks: Vec<[u8; 64]> = (0..128u64)
            .map(|a| {
                let mut b = [0u8; 64];
                for (i, x) in b.iter_mut().enumerate() {
                    *x = (a as u8) ^ (i as u8).wrapping_mul(3);
                }
                m.write_block(a, &b).unwrap();
                b
            })
            .collect();
        m.inject_bit_errors(1e-3, &mut rng);
        let mut corrected = 0;
        for (a, b) in blocks.iter().enumerate() {
            let out = m.read_block(a as u64).unwrap();
            assert_eq!(&out.data, b, "block {a}");
            corrected += out.bits_corrected;
        }
        assert!(corrected > 0, "1e-3 across 128 blocks must hit something");
    }

    #[test]
    fn chip_failure_is_fatal_for_baseline() {
        let mut m = BaselineMemory::new(64);
        let mut rng = StdRng::seed_from_u64(3);
        for a in 0..64u64 {
            m.write_block(a, &[a as u8; 64]).unwrap();
        }
        m.fail_chip(2, ChipFailureKind::RandomGarbage, &mut rng);
        let failures = (0..64u64)
            .filter(|&a| {
                match m.read_block(a) {
                    // Miscorrection would be SDC; count only honest reads.
                    Ok(out) => out.data != [a as u8; 64],
                    Err(_) => true,
                }
            })
            .count();
        assert!(failures > 56, "nearly all blocks lost, got {failures}/64");
    }

    #[test]
    fn out_of_range() {
        let mut m = BaselineMemory::new(4);
        assert!(matches!(m.read_block(4), Err(CoreError::OutOfRange(4))));
        assert!(matches!(
            m.write_block(9, &[0; 64]),
            Err(CoreError::OutOfRange(9))
        ));
    }
}
