//! Systematic BCH encoding: one position table, one kernel.
//!
//! Encoding is linear over GF(2), so the parity of a word is the XOR of
//! the parities of its set bits. [`ParityTable`] holds the parity of
//! every unit vector — row `i` is `x^(r+i) mod g(x)` — and every encode
//! entry point XORs the rows its input selects. The cost is proportional
//! to the input's popcount, which is exactly the sparsity the paper's
//! §V-D write path relies on: a 64 B block write changes 8 B of each
//! chip's 256 B VLEW, so its code-bit update touches at most 64 rows.

use pmck_gf::BitPoly;

use crate::code::BchCode;

/// The encoder's position table: for every data bit `i`, the `r` parity
/// bits of the unit vector `e_i`, i.e. `x^(r+i) mod g(x)`, packed into
/// `⌈r/64⌉` little-endian `u64` limbs (VLEW: 2048 rows × 5 limbs =
/// 80 KiB).
#[derive(Debug, Clone)]
pub(crate) struct ParityTable {
    limbs: usize,
    rows: Vec<u64>,
}

impl ParityTable {
    /// Builds the `k` rows with one multiply-by-`x` LFSR step per row:
    /// row 0 is `x^r mod g` — `g` without its leading term — and row
    /// `i + 1` is row `i` shifted up one bit, reduced by `g` when the
    /// shift carries out of bit `r − 1`.
    pub(crate) fn new(generator: &BitPoly, r: usize, k: usize) -> Self {
        debug_assert_eq!(generator.degree(), Some(r));
        let limbs = r.div_ceil(64);
        let top = (r - 1) / 64;
        let top_bit = 1u64 << ((r - 1) % 64);
        // g(x) − x^r: what a carry out of the register folds back in.
        let mut g_low = generator.limbs()[..limbs].to_vec();
        g_low[top] &= (top_bit << 1).wrapping_sub(1);
        let mut rows = Vec::with_capacity(k * limbs);
        let mut reg = g_low.clone();
        for _ in 0..k {
            rows.extend_from_slice(&reg);
            let carry_out = reg[top] & top_bit != 0;
            reg[top] &= !top_bit;
            let mut carry = 0;
            for limb in reg.iter_mut() {
                let next = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            if carry_out {
                for (limb, g) in reg.iter_mut().zip(&g_low) {
                    *limb ^= g;
                }
            }
        }
        ParityTable { limbs, rows }
    }

    /// XORs into `acc` the row of every set bit of `word`, whose bit 0
    /// is data bit `base`.
    #[inline]
    fn fold_word(&self, base: usize, mut word: u64, acc: &mut [u64]) {
        // The VLEW's five-limb rows take the fixed-width instance of
        // this loop: with the width a constant the row XOR unrolls and
        // the accumulator stays in registers, which halves the cost per
        // set bit (98 → 54 ns on a 64-bit delta).
        if let Ok(acc) = <&mut [u64; 5]>::try_from(&mut *acc) {
            return self.fold_word_fixed(base, word, acc);
        }
        while word != 0 {
            let at = (base + word.trailing_zeros() as usize) * self.limbs;
            for (a, r) in acc.iter_mut().zip(&self.rows[at..at + self.limbs]) {
                *a ^= r;
            }
            word &= word - 1;
        }
    }

    /// [`ParityTable::fold_word`] for rows of exactly `N` limbs.
    #[inline]
    fn fold_word_fixed<const N: usize>(&self, base: usize, mut word: u64, acc: &mut [u64; N]) {
        debug_assert_eq!(self.limbs, N);
        while word != 0 {
            let at = (base + word.trailing_zeros() as usize) * N;
            let row: &[u64; N] = self.rows[at..at + N].try_into().expect("N limbs");
            // Indexed on purpose: the zipped-iterator form of this XOR
            // measures at the generic loop's speed.
            #[allow(clippy::needless_range_loop)]
            for i in 0..N {
                acc[i] ^= row[i];
            }
            word &= word - 1;
        }
    }
}

impl BchCode {
    /// Number of `u64` limbs the allocation-free encode entries write:
    /// `⌈parity_bits / 64⌉` (5 for the VLEW's 264 code bits).
    pub fn parity_limbs(&self) -> usize {
        self.parity_table.limbs
    }

    /// The sparse encode entry — the paper's `f(sum)` (§V-D): writes to
    /// `out` the parity of the data word that is zero but for
    /// `delta_bytes`, laid at data bit `bit_offset` in little-endian bit
    /// order (as [`BitPoly::from_bytes`]). By linearity that is the
    /// code-bit update of a write whose `old ⊕ new` is `delta_bytes`.
    /// Allocation-free; cost is proportional to the delta's popcount.
    ///
    /// `out` receives the parity bits as little-endian limbs (bit `i` of
    /// the parity is bit `i % 64` of `out[i / 64]`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.parity_limbs()` or the delta runs
    /// past [`BchCode::data_bits`].
    pub fn parity_delta_into(&self, bit_offset: usize, delta_bytes: &[u8], out: &mut [u64]) {
        assert_eq!(out.len(), self.parity_limbs(), "parity limb count");
        assert!(
            bit_offset + delta_bytes.len() * 8 <= self.k,
            "delta runs past the {} data bits",
            self.k
        );
        out.fill(0);
        for (i, chunk) in delta_bytes.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.parity_table
                .fold_word(bit_offset + i * 64, u64::from_le_bytes(word), out);
        }
    }

    /// The whole-word encode entry on bytes: writes to `out` the parity
    /// of `data` (exactly `data_bits / 8` bytes), in the limb format of
    /// [`BchCode::parity_delta_into`]. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is not byte-aligned or either length does
    /// not match.
    pub fn parity_bytes_into(&self, data: &[u8], out: &mut [u64]) {
        assert_eq!(self.k % 8, 0, "data_bits must be byte-aligned");
        assert_eq!(data.len() * 8, self.k, "need {} data bytes", self.k / 8);
        self.parity_delta_into(0, data, out);
    }

    /// Encodes `data` (exactly [`BchCode::data_bits`] bits) into a fresh
    /// codeword of [`BchCode::len`] bits: parity in `[0, r)`, data in
    /// `[r, r+k)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_bits()`.
    pub fn encode(&self, data: &BitPoly) -> BitPoly {
        let parity = self.parity(data);
        let mut cw = BitPoly::zero(self.len());
        cw.splice(self.r, data);
        cw.splice(0, &parity);
        cw
    }

    /// Encodes a byte slice of exactly `data_bits / 8` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is not byte-aligned or the slice length does
    /// not match.
    pub fn encode_bytes(&self, data: &[u8]) -> BitPoly {
        assert_eq!(self.k % 8, 0, "data_bits must be byte-aligned");
        assert_eq!(data.len() * 8, self.k, "need {} data bytes", self.k / 8);
        self.encode(&BitPoly::from_bytes(data))
    }

    /// Computes the `r` parity bits for `data`: `(data(x) · x^r) mod g(x)`.
    ///
    /// Encoding is linear over GF(2), so `parity(a ⊕ b) = parity(a) ⊕
    /// parity(b)`; the paper's in-chip ECC-update path (§V-D) feeds the
    /// bitwise sum of old and new data through this function to obtain the
    /// code-bit update directly. Hot paths use the allocation-free
    /// [`BchCode::parity_delta_into`] / [`BchCode::parity_bytes_into`];
    /// all three run on the same position table.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_bits()`.
    pub fn parity(&self, data: &BitPoly) -> BitPoly {
        assert_eq!(data.len(), self.k, "data must have exactly {} bits", self.k);
        let mut acc = vec![0u64; self.parity_limbs()];
        for (i, &limb) in data.limbs().iter().enumerate() {
            self.parity_table.fold_word(i * 64, limb, &mut acc);
        }
        BitPoly::from_limbs(acc, self.r)
    }

    /// Whether `cw` is a valid codeword (i.e. divisible by the generator).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.len()`.
    pub fn is_codeword(&self, cw: &BitPoly) -> bool {
        assert_eq!(cw.len(), self.len(), "codeword length mismatch");
        cw.rem(&self.generator).is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder this crate shipped before the table: bit-serial
    /// division of `data(x) · x^r` by `g(x)`. Kept as the reference the
    /// table is proved against.
    fn parity_by_division(code: &BchCode, data: &BitPoly) -> BitPoly {
        let mut shifted = BitPoly::zero(code.len());
        shifted.splice(code.parity_bits(), data);
        let rem = shifted.rem(code.generator());
        let mut parity = BitPoly::zero(code.parity_bits());
        for i in rem.iter_ones() {
            parity.set(i, true);
        }
        parity
    }

    /// The first data bit whose unit vector the table encodes
    /// differently from the division reference. Encoding is linear, so
    /// `None` proves the two encoders agree on every input.
    fn first_divergent_unit_vector(code: &BchCode) -> Option<usize> {
        let mut e = BitPoly::zero(code.data_bits());
        (0..code.data_bits()).find(|&i| {
            e.set(i, true);
            let diverges = code.parity(&e) != parity_by_division(code, &e);
            e.set(i, false);
            diverges
        })
    }

    /// Every code the workspace constructs.
    fn workspace_codes() -> Vec<(&'static str, BchCode)> {
        let mut codes = vec![
            ("vlew", BchCode::vlew()),
            ("dense-tier vlew", BchCode::new(12, 22, 1024).unwrap()),
            ("per-block baseline", BchCode::per_block_baseline()),
            ("flash512 t=12", BchCode::flash512(12).unwrap()),
            ("flash512 t=24", BchCode::flash512(24).unwrap()),
            ("flash512 t=41", BchCode::flash512(41).unwrap()),
        ];
        // The small codes of the unit, property and differential tests,
        // then three the workspace does not construct, for the widths it
        // leaves out: r = 64 (a register that ends on a limb boundary),
        // r = 68 (two limbs) and k = 1.
        for (m, t, k) in [
            (4, 2, 7),
            (4, 3, 5),
            (5, 2, 10),
            (5, 2, 21),
            (6, 2, 16),
            (6, 2, 20),
            (6, 3, 20),
            (6, 3, 24),
            (6, 13, 10),
            (7, 2, 64),
            (8, 3, 64),
            (8, 3, 96),
            (8, 4, 64),
            (8, 8, 64),
            (8, 9, 64),
            (4, 4, 1),
        ] {
            codes.push(("small", BchCode::new(m, t, k).unwrap()));
        }
        codes
    }

    #[test]
    fn table_equals_division_on_every_unit_vector_of_every_code() {
        for (name, code) in workspace_codes() {
            assert_eq!(
                first_divergent_unit_vector(&code),
                None,
                "{name}: t={} k={} r={}",
                code.t(),
                code.data_bits(),
                code.parity_bits()
            );
        }
    }

    #[test]
    fn corrupted_table_row_is_caught() {
        // Mutation check on the proof above: one flipped bit in one row
        // must surface as exactly that row's unit vector.
        for (row, limb, bit) in [(0usize, 0usize, 0u32), (1031, 4, 7), (2047, 2, 63)] {
            let mut code = BchCode::vlew();
            let limbs = code.parity_limbs();
            code.parity_table.rows[row * limbs + limb] ^= 1 << bit;
            assert_eq!(first_divergent_unit_vector(&code), Some(row));
        }
    }

    #[test]
    fn byte_entries_agree_with_parity() {
        let code = BchCode::vlew();
        let data: Vec<u8> = (0..256).map(|i| (i * 89 + 3) as u8).collect();
        let want = code.parity(&BitPoly::from_bytes(&data));
        let mut got = vec![0u64; code.parity_limbs()];
        code.parity_bytes_into(&data, &mut got);
        assert_eq!(got, want.limbs());
        assert_eq!(want, parity_by_division(&code, &BitPoly::from_bytes(&data)));

        // The sparse entry at every 8 B offset, and at an odd bit
        // offset with a ragged length, against the same delta spliced
        // into a zero word. `got` is deliberately left dirty between
        // calls: the entry overwrites, it does not accumulate.
        let delta = [
            0x80u8, 0x01, 0xFF, 0x00, 0x5A, 0xC3, 0x10, 0x08, 0x77, 0x01, 0xFE,
        ];
        for (bit_offset, len) in (0..32).map(|off| (off * 64, 8)).chain([(1957, 11), (3, 1)]) {
            let mut word = BitPoly::zero(code.data_bits());
            word.splice(bit_offset, &BitPoly::from_bytes(&delta[..len]));
            code.parity_delta_into(bit_offset, &delta[..len], &mut got);
            assert_eq!(got, code.parity(&word).limbs(), "offset {bit_offset}");
        }
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn delta_past_the_data_bits_panics() {
        let code = BchCode::vlew();
        let mut out = vec![0u64; code.parity_limbs()];
        code.parity_delta_into(2048 - 56, &[1; 8], &mut out);
    }

    #[test]
    fn encode_produces_valid_codeword() {
        let code = BchCode::new(6, 3, 24).unwrap();
        let data = BitPoly::from_bytes(&[0x12, 0x34, 0x56]);
        let cw = code.encode(&data);
        assert_eq!(cw.len(), code.len());
        assert!(code.is_codeword(&cw));
        assert_eq!(cw.slice(code.parity_bits(), code.data_bits()), data);
    }

    #[test]
    fn zero_data_encodes_to_zero_word() {
        let code = BchCode::new(5, 2, 10).unwrap();
        let cw = code.encode(&BitPoly::zero(10));
        assert!(cw.is_zero());
        assert!(code.is_codeword(&cw));
    }

    #[test]
    fn parity_is_linear() {
        let code = BchCode::new(8, 4, 64).unwrap();
        let a = BitPoly::from_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33]);
        let b = BitPoly::from_bytes(&[0x55; 8]);
        let mut ab = a.clone();
        ab.xor_assign(&b);
        let mut pa = code.parity(&a);
        let pb = code.parity(&b);
        pa.xor_assign(&pb);
        // parity(a) ^ parity(b) == parity(a ^ b)
        assert_eq!(pa, code.parity(&ab));
    }

    #[test]
    fn single_bit_error_invalidates_word() {
        let code = BchCode::new(6, 2, 20).unwrap();
        let mut cw = code.encode(&BitPoly::from_u64(0xABCDE, 20));
        assert!(code.is_codeword(&cw));
        for i in 0..cw.len() {
            cw.flip(i);
            assert!(!code.is_codeword(&cw), "flip at {i} must invalidate");
            cw.flip(i);
        }
    }

    #[test]
    fn vlew_encode_round_trip_bytes() {
        let code = BchCode::vlew();
        let data: Vec<u8> = (0..256).map(|i| (i * 31 + 7) as u8).collect();
        let cw = code.encode_bytes(&data);
        assert!(code.is_codeword(&cw));
        let mut stored = [0u8; 256];
        cw.extract_bytes(code.parity_bits(), &mut stored);
        assert_eq!(stored[..], data);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn encode_wrong_length_panics() {
        let code = BchCode::new(6, 2, 20).unwrap();
        let _ = code.encode(&BitPoly::zero(19));
    }
}
