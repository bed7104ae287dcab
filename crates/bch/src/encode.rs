//! Systematic BCH encoding: one nibble table, one kernel.
//!
//! Encoding is linear over GF(2), so the parity of a word is the XOR of
//! the parities of its pieces. [`ParityTable`] holds the parity of every
//! value of every aligned 4-bit piece of the data — entry `(q, v)` is
//! `v(x)·x^(r+4q) mod g(x)` — and every encode entry point XORs one
//! entry per nibble of its input: sixteen lookups for the 64 changed
//! bits of one chip's share of a block write (the paper's `f(sum)`,
//! §V-D), 512 for a whole 256 B VLEW.

use pmck_gf::BitPoly;

use crate::code::BchCode;

/// The encoder's nibble table.
///
/// Entry `(q, v)`, for nibble index `q < ⌈k/4⌉` and nibble value
/// `v < 16`, is the `r` parity bits of the data word that is zero but
/// for `v` at data bits `4q..4q+4`: `v(x)·x^(r+4q) mod g(x)`, packed
/// into `⌈r/64⌉` little-endian `u64` limbs at
/// `entries[(16q + v)·limbs..]`. The VLEW's table is 512 × 16 × 5 limbs
/// = 320 KiB, four times the 80 KiB of one row per data *bit* it
/// replaced, and buys a 64-bit delta in 16 lookups where the rows took
/// one XOR per set bit (~32). A byte table for full words alone (256 × 5
/// limbs, CRC-style) would be smaller still but cannot serve a delta in
/// the middle of the word, so it is not kept beside this one
/// (DESIGN.md §24).
///
/// When `k` is not a multiple of four the last nibble's high bits lie
/// past the data; their entries are the same polynomial expression and
/// no input selects them.
#[derive(Debug, Clone)]
pub(crate) struct ParityTable {
    limbs: usize,
    entries: Vec<u64>,
}

impl ParityTable {
    /// Builds the table from the position rows `x^(r+i) mod g`, one
    /// multiply-by-`x` LFSR step each: row 0 is `g` without its leading
    /// term, and row `i + 1` is row `i` shifted up one bit, reduced by
    /// `g` when the shift carries out of bit `r − 1`. Row `4q + b`
    /// completes the entries of nibble `q` whose top set bit is `b`.
    pub(crate) fn new(generator: &BitPoly, r: usize, k: usize) -> Self {
        debug_assert_eq!(generator.degree(), Some(r));
        let limbs = r.div_ceil(64);
        let top = (r - 1) / 64;
        let top_bit = 1u64 << ((r - 1) % 64);
        // g(x) − x^r: what a carry out of the register folds back in.
        let mut g_low = generator.limbs()[..limbs].to_vec();
        g_low[top] &= (top_bit << 1).wrapping_sub(1);
        let mut entries = vec![0u64; k.div_ceil(4) * 16 * limbs];
        let mut row = g_low.clone();
        for nibble in entries.chunks_exact_mut(16 * limbs) {
            for b in 0..4 {
                for v in (1 << b)..(2 << b) {
                    let (below, from_v) = nibble.split_at_mut(v * limbs);
                    let without_b = &below[(v ^ (1 << b)) * limbs..][..limbs];
                    for ((e, w), x) in from_v.iter_mut().zip(without_b).zip(&row) {
                        *e = w ^ x;
                    }
                }
                let carry_out = row[top] & top_bit != 0;
                row[top] &= !top_bit;
                let mut carry = 0;
                for limb in row.iter_mut() {
                    let next = *limb >> 63;
                    *limb = (*limb << 1) | carry;
                    carry = next;
                }
                if carry_out {
                    for (limb, g) in row.iter_mut().zip(&g_low) {
                        *limb ^= g;
                    }
                }
            }
        }
        ParityTable { limbs, entries }
    }

    /// XORs into `acc` the parity of `word`, whose bit 0 is data bit
    /// `base` (a multiple of four) and whose set bits all lie inside
    /// the data.
    #[inline]
    fn fold_word(&self, base: usize, mut word: u64, acc: &mut [u64]) {
        debug_assert_eq!(base % 4, 0);
        debug_assert_eq!(acc.len(), self.limbs);
        if word == 0 {
            return;
        }
        // The VLEW's five-limb entries take the fixed-width instance of
        // this loop: with the width and the trip count constants the
        // sixteen entry XORs unroll and the accumulator stays in
        // registers.
        if let Ok(acc) = <&mut [u64; 5]>::try_from(&mut *acc) {
            if self.fold_word_fixed(base, word, acc) {
                return;
            }
        }
        let mut at = base / 4 * 16;
        while word != 0 {
            let entry = (at + (word & 15) as usize) * self.limbs;
            for (a, e) in acc.iter_mut().zip(&self.entries[entry..entry + self.limbs]) {
                *a ^= e;
            }
            word >>= 4;
            at += 16;
        }
    }

    /// [`ParityTable::fold_word`] for entries of exactly `N` limbs and
    /// a word whose sixteen nibbles are all in the table; returns
    /// `false`, having done nothing, when they are not (the last word
    /// of a `k` that is not a multiple of 64).
    #[inline]
    fn fold_word_fixed<const N: usize>(&self, base: usize, word: u64, acc: &mut [u64; N]) -> bool {
        debug_assert_eq!(self.limbs, N);
        let (entries, _) = self.entries.as_chunks::<N>();
        let Some(nibbles) = entries
            .get(base / 4 * 16..)
            .and_then(|from| from.first_chunk::<256>())
        else {
            return false;
        };
        for (q, of_nibble) in nibbles.as_chunks::<16>().0.iter().enumerate() {
            let entry = &of_nibble[(word >> (4 * q)) as usize & 15];
            for (a, e) in acc.iter_mut().zip(entry) {
                *a ^= e;
            }
        }
        true
    }

    /// XORs into `acc` the parity of data bit `i` alone,
    /// `x^(r+i) mod g(x)`: entry `(i / 4, 1 << i % 4)`.
    pub(crate) fn xor_data_bit(&self, i: usize, acc: &mut [u64]) {
        let entry = (i / 4 * 16 + (1 << (i % 4))) * self.limbs;
        for (a, e) in acc.iter_mut().zip(&self.entries[entry..entry + self.limbs]) {
            *a ^= e;
        }
    }

    /// XORs into `acc` the parity of the `k` data bits stored from bit
    /// `at` of `limbs` on — a [`BitPoly`]'s limbs, with nothing set at
    /// or past bit `at + k`.
    pub(crate) fn fold_stored(&self, limbs: &[u64], at: usize, acc: &mut [u64]) {
        let (first, shift) = (at / 64, at % 64);
        for (i, &limb) in limbs[first..].iter().enumerate() {
            let above = match limbs.get(first + i + 1) {
                Some(&next) if shift != 0 => next << (64 - shift),
                _ => 0,
            };
            self.fold_word(i * 64, (limb >> shift) | above, acc);
        }
    }
}

impl BchCode {
    /// Number of `u64` limbs the allocation-free encode entries write:
    /// `⌈parity_bits / 64⌉` (5 for the VLEW's 264 code bits).
    pub fn parity_limbs(&self) -> usize {
        self.tables.parity.limbs
    }

    /// The sparse encode entry — the paper's `f(sum)` (§V-D): writes to
    /// `out` the parity of the data word that is zero but for
    /// `delta_bytes`, laid at data bit `bit_offset` in little-endian bit
    /// order (as [`BitPoly::from_bytes`]). By linearity that is the
    /// code-bit update of a write whose `old ⊕ new` is `delta_bytes`.
    /// Allocation-free; one table lookup per nibble of the delta (and
    /// one more when `bit_offset` is not a multiple of four and the
    /// delta is shifted up to the next nibble boundary).
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
        // The table is indexed by aligned nibbles: a delta at an odd bit
        // offset is shifted up to the boundary below it, the bits each
        // word loses off its top carried into the next.
        let shift = bit_offset % 4;
        let mut base = bit_offset - shift;
        let mut carry = 0;
        for chunk in delta_bytes.chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(bytes);
            self.tables
                .parity
                .fold_word(base, (word << shift) | carry, out);
            carry = if shift == 0 { 0 } else { word >> (64 - shift) };
            base += 64;
        }
        self.tables.parity.fold_word(base, carry, out);
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
    /// all three run on the same nibble table.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_bits()`.
    pub fn parity(&self, data: &BitPoly) -> BitPoly {
        assert_eq!(data.len(), self.k, "data must have exactly {} bits", self.k);
        let mut acc = vec![0u64; self.parity_limbs()];
        self.tables.parity.fold_stored(data.limbs(), 0, &mut acc);
        BitPoly::from_limbs(acc, self.r)
    }

    /// Whether `cw` is a valid codeword (i.e. divisible by the generator).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.len()`.
    pub fn is_codeword(&self, cw: &BitPoly) -> bool {
        assert_eq!(cw.len(), self.len(), "codeword length mismatch");
        cw.rem(&self.tables.generator).is_zero()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmck_rt::rng::StdRng;

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

    /// `x^(r+i) mod g` by bit-serial division: the reference for one
    /// position row.
    fn position_row_by_division(generator: &BitPoly, r: usize, i: usize) -> Vec<u64> {
        let mut unit = BitPoly::zero(r + i + 1);
        unit.set(r + i, true);
        let mut row = unit.rem(generator).limbs().to_vec();
        row.resize(r.div_ceil(64), 0);
        row
    }

    /// The first table entry `(q, v)` that is not the XOR of the
    /// division reference's position rows `4q + b` over the set bits
    /// `b` of `v`. Division is linear, so that XOR is
    /// `v(x)·x^(r+4q) mod g` by the reference, and `None` proves every
    /// entry — the ones no input selects included.
    fn first_divergent_entry(
        table: &ParityTable,
        generator: &BitPoly,
        r: usize,
    ) -> Option<(usize, usize)> {
        let limbs = table.limbs;
        for (q, nibble) in table.entries.chunks_exact(16 * limbs).enumerate() {
            let rows: Vec<_> = (0..4)
                .map(|b| position_row_by_division(generator, r, 4 * q + b))
                .collect();
            for (v, entry) in nibble.chunks_exact(limbs).enumerate() {
                let mut want = vec![0u64; limbs];
                for b in (0..4).filter(|b| v >> b & 1 != 0) {
                    for (w, x) in want.iter_mut().zip(&rows[b]) {
                        *w ^= x;
                    }
                }
                if entry != want {
                    return Some((q, v));
                }
            }
        }
        None
    }

    /// Every code the workspace constructs.
    pub(crate) fn workspace_codes() -> Vec<(&'static str, BchCode)> {
        let mut codes = vec![
            ("vlew", BchCode::vlew()),
            ("dense-tier vlew", BchCode::new(12, 22, 1024).unwrap()),
            ("per-block baseline", BchCode::per_block_baseline()),
            ("flash512 t=12", BchCode::flash512(12).unwrap()),
            ("flash512 t=24", BchCode::flash512(24).unwrap()),
            ("flash512 t=41", BchCode::flash512(41).unwrap()),
        ];
        // The small codes of the unit, property and differential tests
        // (k % 4 of 0, 1, 2 and 3 among them), then three the workspace
        // does not construct, for the widths it leaves out: r = 64 (a
        // register that ends on a limb boundary), r = 68 (two limbs) and
        // k = 1.
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
    fn every_table_entry_equals_division_on_every_code() {
        let mut parity_widths = Vec::new();
        for (name, code) in workspace_codes() {
            let table = &code.tables.parity;
            assert_eq!(
                table.entries.len(),
                code.data_bits().div_ceil(4) * 16 * table.limbs,
                "{name}: one entry per value of every nibble"
            );
            assert_eq!(
                first_divergent_entry(table, code.generator(), code.parity_bits()),
                None,
                "{name}: t={} k={} r={}",
                code.t(),
                code.data_bits(),
                code.parity_bits()
            );
            parity_widths.push(code.parity_bits());
        }
        assert!(parity_widths.contains(&64) && parity_widths.contains(&68));
    }

    #[test]
    fn corrupted_table_row_is_caught() {
        // Mutation check on the proof above: one flipped bit in one
        // entry must surface as exactly that entry.
        let code = BchCode::vlew();
        let (g, r) = (code.generator(), code.parity_bits());
        for (q, v, limb, bit) in [
            (0usize, 1usize, 0usize, 0u32),
            (257, 9, 4, 7),
            (511, 15, 2, 63),
        ] {
            let mut table = code.tables.parity.clone();
            table.entries[(q * 16 + v) * table.limbs + limb] ^= 1 << bit;
            assert_eq!(first_divergent_entry(&table, g, r), Some((q, v)));
        }
        // The zero entries too: the fixed-width kernel XORs entry 0 of
        // a zero nibble in rather than branch on it.
        let mut table = code.tables.parity.clone();
        table.entries[300 * 16 * table.limbs] ^= 1;
        assert_eq!(first_divergent_entry(&table, g, r), Some((300, 0)));
    }

    #[test]
    fn whole_word_entries_equal_division_on_every_code() {
        // The table proof covers entries; this covers the walks over
        // them (word boundaries, the ragged last word of a k that is
        // not a multiple of 64) on dense seeded data.
        let mut rng = StdRng::seed_from_u64(24);
        for (name, code) in workspace_codes() {
            for _ in 0..4 {
                let mut data = BitPoly::zero(code.data_bits());
                for i in 0..code.data_bits() {
                    data.set(i, rng.next_u64() & 1 != 0);
                }
                assert_eq!(
                    code.parity(&data),
                    parity_by_division(&code, &data),
                    "{name}: k={}",
                    code.data_bits()
                );
            }
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

        // The sparse entry at every 8 B offset against the same delta
        // spliced into a zero word. `got` is deliberately left dirty
        // between calls: the entry overwrites, it does not accumulate.
        let delta = [
            0x80u8, 0x01, 0xFF, 0x00, 0x5A, 0xC3, 0x10, 0x08, 0x77, 0x01, 0xFE, 0x3C, 0x00, 0x00,
            0x91, 0xE7, 0x81,
        ];
        let spliced = |code: &BchCode, bit_offset: usize, len: usize| {
            let mut word = BitPoly::zero(code.data_bits());
            word.splice(bit_offset, &BitPoly::from_bytes(&delta[..len]));
            code.parity(&word)
        };
        for bit_offset in (0..32).map(|off| off * 64) {
            code.parity_delta_into(bit_offset, &delta[..8], &mut got);
            assert_eq!(
                got,
                spliced(&code, bit_offset, 8).limbs(),
                "offset {bit_offset}"
            );
        }
        // Every alignment of the delta against the table's nibbles and
        // the kernel's 64-bit words, ragged lengths on both sides of a
        // word, up against the end of the data — on the VLEW and on a
        // code whose last nibble and last word are both partial.
        for code in [code, BchCode::new(9, 4, 299).unwrap()] {
            let k = code.data_bits();
            let mut got = vec![u64::MAX; code.parity_limbs()];
            for len in [1, 2, 7, 8, 9, 11, 16, 17] {
                let last = k - len * 8;
                for bit_offset in (0..=70).chain(last - 5..=last) {
                    code.parity_delta_into(bit_offset, &delta[..len], &mut got);
                    assert_eq!(
                        got,
                        spliced(&code, bit_offset, len).limbs(),
                        "k {k}, offset {bit_offset}, {len} bytes"
                    );
                }
            }
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
