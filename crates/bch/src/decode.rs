//! BCH decoding: syndromes by one linear map, Berlekamp–Massey in
//! Berlekamp's binary form, and closed-form roots up to degree four (the
//! bit-sliced Chien search past that). There is one decoder, bounded to
//! the designed radius `t`.
//!
//! The decoder is allocation-free on the hot path: the remainder, the
//! syndromes, the BM polynomials, the Chien plane accumulators, and the
//! corrected-position list all live in a reusable [`BchScratch`] the
//! caller owns. [`BchCode::decode_scratch`] returns a [`BchDecodeView`]
//! of the flipped positions; [`BchCode::decode_word`] returns the
//! [`WordVerdict`] a scrub or fallback read stores per chip.
//!
//! No decode walks the stored word: the syndromes come from the `r`-bit
//! remainder ρ of the word mod `g` — the stored code bits XOR the
//! re-encoded data ([`BchCode::syndromes_into`]) — so a clean word costs
//! one encode and a 33-byte compare.
//!
//! A proposed correction is accepted iff it leaves a codeword, checked
//! against ρ rather than by reducing the flipped word: flipping
//! positions `P` is a correction iff `Σ_{p∈P} x^p mod g = ρ`. A code
//! position contributes its own bit, a data position its parity-table
//! row, so the check is `|P|` row XORs of `⌈r/64⌉` limbs. It is the same
//! test as comparing all `2t` syndromes of the pattern with the word's:
//! two remainders with equal syndromes differ by a multiple of `g` of
//! degree below `r`, which is zero.

use pmck_gf::BitPoly;

use crate::code::BchCode;
use crate::error::BchError;
use crate::syndrome::with_zeroed_limbs;

/// A view of a successful decode, borrowing the scratch it ran in.
///
/// All accessors return slices into the scratch — no heap allocation.
#[derive(Debug, Clone, Copy)]
pub struct BchDecodeView<'s> {
    corrected: &'s [usize],
}

impl BchDecodeView<'_> {
    /// The bit positions that were flipped to restore the codeword,
    /// ascending. Empty when the word was already clean.
    pub fn corrected_bits(&self) -> &[usize] {
        self.corrected
    }

    /// The number of corrected bit errors.
    pub fn num_corrected(&self) -> usize {
        self.corrected.len()
    }

    /// Whether the received word was already a valid codeword.
    pub fn was_clean(&self) -> bool {
        self.corrected.is_empty()
    }
}

/// The verdict of a [`BchCode::decode_word`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordVerdict {
    /// The word was already a valid codeword; untouched.
    Clean,
    /// `bits` (at most `t`) bit flips restored the codeword in place.
    Corrected {
        /// Number of bits flipped.
        bits: usize,
    },
    /// The pattern was rejected; the word is untouched.
    Uncorrectable,
}

impl WordVerdict {
    /// The number of bits corrected (zero for clean and uncorrectable
    /// words).
    pub fn bits_corrected(&self) -> usize {
        match self {
            WordVerdict::Corrected { bits } => *bits,
            _ => 0,
        }
    }

    /// Whether the word was rejected as uncorrectable.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, WordVerdict::Uncorrectable)
    }
}

/// Reusable decoder working memory, sized once for a given code so that
/// every subsequent decode is heap-allocation-free.
///
/// A scratch built for one `(m, t, k)` geometry works for any
/// [`BchCode`] with the same geometry. Build one per decoding context
/// (engine, bench loop, test) and reuse it across calls.
#[derive(Debug, Clone)]
pub struct BchScratch {
    /// The received word's remainder ρ mod `g`, as parity limbs.
    rho: Vec<u64>,
    /// ρ plus the rows of a proposed pattern: zero iff it is accepted.
    residue: Vec<u64>,
    /// Received-word syndromes `S_1..S_2t` (`synd[j-1] = S_j`).
    synd: Vec<u32>,
    /// Error-locator polynomial σ (index = degree).
    sigma: Vec<u32>,
    /// BM correction polynomial B.
    bm_b: Vec<u32>,
    /// BM save buffer (old σ during length changes).
    bm_saved: Vec<u32>,
    /// Bit-sliced Chien plane accumulators (`t·m` words).
    acc: Vec<u64>,
    /// Corrected positions, ascending (≤ t entries).
    positions: Vec<usize>,
}

impl BchScratch {
    /// A scratch sized for `code`'s geometry.
    pub fn new(code: &BchCode) -> Self {
        let t2 = 2 * code.t;
        BchScratch {
            rho: vec![0; code.parity_limbs()],
            residue: vec![0; code.parity_limbs()],
            synd: vec![0; t2],
            sigma: vec![0; t2 + 1],
            bm_b: vec![0; t2 + 1],
            bm_saved: vec![0; t2 + 1],
            acc: vec![0; code.tables.chien.acc_len()],
            positions: Vec::with_capacity(code.t),
        }
    }
}

impl BchCode {
    /// Decodes `word` in place in the caller's `scratch`: computes
    /// syndromes, runs Berlekamp–Massey to find the error-locator
    /// polynomial, finds its roots (in closed form up to degree four, by
    /// the bit-sliced Chien search past that), and flips the erroneous
    /// bits. Performs zero heap allocations.
    ///
    /// On success returns a view of which bits were corrected. Patterns
    /// of up to [`BchCode::t`] bit errors are always corrected exactly.
    ///
    /// # Errors
    ///
    /// * [`BchError::LengthMismatch`] if `word` is not `n` bits long.
    /// * [`BchError::Uncorrectable`] when the error pattern is detectably
    ///   beyond the code's capability (the word is left unmodified).
    ///   Note that, as with any bounded-distance decoder, patterns of more
    ///   than `t` errors may also *miscorrect* silently.
    pub fn decode_scratch<'s>(
        &self,
        word: &mut BitPoly,
        scratch: &'s mut BchScratch,
    ) -> Result<BchDecodeView<'s>, BchError> {
        self.decode_core(word, scratch)?;
        Ok(BchDecodeView {
            corrected: &scratch.positions,
        })
    }

    /// Decodes `word` in place as [`BchCode::decode_scratch`] does and
    /// returns its verdict — what a stripe decode keeps per chip. A word
    /// past radius `t` is rejected untouched (or, as with any
    /// bounded-distance decoder, miscorrected to another codeword).
    ///
    /// # Panics
    ///
    /// Panics if `word` is not `n` bits long (a caller bug, not a
    /// property of the stored bits a verdict could describe).
    pub fn decode_word(&self, word: &mut BitPoly, scratch: &mut BchScratch) -> WordVerdict {
        assert_eq!(word.len(), self.len(), "word length mismatch");
        match self.decode_core(word, scratch) {
            Ok(()) if scratch.positions.is_empty() => WordVerdict::Clean,
            Ok(()) => WordVerdict::Corrected {
                bits: scratch.positions.len(),
            },
            Err(_) => WordVerdict::Uncorrectable,
        }
    }

    /// Computes the 2t syndromes `S_j = w(alpha^j)`, `j = 1..=2t`, of
    /// the stored word `w` into `out` (`out[j-1] = S_j`). Returns `true`
    /// when every syndrome is zero, i.e. the word is already a codeword.
    ///
    /// The word is `w(x) = d(x)·x^r + c(x)`: data over stored code bits.
    /// Re-encoding the data gives `p(x) = d(x)·x^r mod g(x)`, so
    /// `w ≡ ρ (mod g)` with `ρ = p ⊕ c`, `r` bits wide, and since every
    /// `alpha^j`, `j ≤ 2t`, is a root of `g`, `S_j(w) = ρ(alpha^j)`
    /// exactly. `ρ = 0` is the clean exit — an encode and a compare of
    /// the code bits. Otherwise the odd syndromes are one linear map of
    /// `ρ`, a nibble table XORed once per four bits of `ρ` (66 lookups
    /// for the VLEW), and the even ones are their squares.
    ///
    /// Allocation-free for codes of up to 1024 parity bits and `t ≤ 64`,
    /// which is every code this workspace constructs.
    ///
    /// # Panics
    ///
    /// Panics if `word` is not `n` bits long or `out.len() != 2t`.
    pub fn syndromes_into(&self, word: &BitPoly, out: &mut [u32]) -> bool {
        assert_eq!(word.len(), self.len(), "codeword length mismatch");
        assert_eq!(out.len(), 2 * self.t, "syndrome buffer length mismatch");
        with_zeroed_limbs(self.parity_limbs(), |rho| {
            self.remainder_syndromes(word, rho, out)
        })
    }

    /// Writes the remainder ρ of `word` into the zeroed `rho` and its
    /// syndromes into `out`; returns whether ρ, and so every syndrome,
    /// is zero.
    fn remainder_syndromes(&self, word: &BitPoly, rho: &mut [u64], out: &mut [u32]) -> bool {
        self.tables.parity.fold_stored(word.limbs(), self.r, rho);
        for (p, c) in rho.iter_mut().zip(word.limbs()) {
            *p ^= c;
        }
        // The top code limb's high bits are the first data bits.
        if !self.r.is_multiple_of(64) {
            rho[rho.len() - 1] &= (1 << (self.r % 64)) - 1;
        }
        if rho.iter().all(|&limb| limb == 0) {
            out.fill(0);
            return true;
        }
        self.tables
            .syndromes
            .syndromes_into(&self.tables.field, rho, out);
        false
    }

    /// The bounded-distance decode engine. On `Ok(())` the word has been
    /// corrected and verified and `scratch.positions` holds the flipped
    /// positions ascending (empty for a clean word); on error the word is
    /// unmodified. `scratch.rho` and `scratch.synd` hold the received
    /// remainder and syndromes whenever the length check passed.
    fn decode_core(&self, word: &mut BitPoly, scratch: &mut BchScratch) -> Result<(), BchError> {
        if word.len() != self.len() {
            return Err(BchError::LengthMismatch(word.len(), self.len()));
        }
        scratch.positions.clear();
        scratch.rho.fill(0);
        // Fast path: a clean word exits before any locator machinery.
        if self.remainder_syndromes(word, &mut scratch.rho, &mut scratch.synd) {
            return Ok(());
        }
        let deg = self.berlekamp_massey_into(scratch);
        // A correct decode must yield a valid codeword; landing
        // off-codeword means the decode failed.
        let accepted = deg != 0
            && deg <= self.t
            && self.roots_into(deg, scratch)
            && self.explains(&scratch.positions, &scratch.rho, &mut scratch.residue);
        if !accepted {
            scratch.positions.clear();
            return Err(BchError::Uncorrectable);
        }
        for &p in &scratch.positions {
            word.flip(p);
        }
        Ok(())
    }

    /// Finds the positions of the degree-`deg` locator in
    /// `scratch.sigma` into the empty `scratch.positions`, ascending, and
    /// returns whether there are `deg` of them. Up to degree four they
    /// are solved in closed form. Past that the Chien search runs only
    /// until at most four roots are left; the found ones are divided out
    /// of σ (which the scratch keeps no further use for), and the rest
    /// are solved in closed form.
    fn roots_into(&self, deg: usize, scratch: &mut BchScratch) -> bool {
        let BchScratch {
            sigma,
            acc,
            positions,
            ..
        } = scratch;
        let f = &self.tables.field;
        let mut left = deg;
        if deg > 4 {
            self.tables
                .chien
                .search(f, &sigma[..=deg], acc, positions, deg - 4);
            for &p in positions.iter() {
                // σ / (1 + α^p·x): q_k = σ_k + α^p·q_{k−1}, no remainder.
                let x = f.alpha_pow(p as u64);
                for k in 1..left {
                    sigma[k] ^= f.mul(x, sigma[k - 1]);
                }
                sigma[left] = 0;
                left -= 1;
            }
        }
        match left {
            0 => {}
            1..=4 => {
                self.tables
                    .roots
                    .find(f, &sigma[..=left], self.len(), positions);
            }
            // The search reached n with more than four roots missing.
            _ => return false,
        }
        positions.len() == deg
    }

    /// Whether flipping `positions` turns a word of remainder `rho` into
    /// a codeword: `Σ x^p mod g` over the positions equals `rho`. Code
    /// position `p < r` is `x^p` itself, data position `r + i` the
    /// parity-table row of data bit `i`.
    fn explains(&self, positions: &[usize], rho: &[u64], residue: &mut [u64]) -> bool {
        residue.copy_from_slice(rho);
        for &p in positions {
            match p.checked_sub(self.r) {
                None => residue[p / 64] ^= 1 << (p % 64),
                Some(i) => self.tables.parity.xor_data_bit(i, residue),
            }
        }
        residue.iter().all(|&limb| limb == 0)
    }

    /// Berlekamp–Massey over `scratch.synd`, leaving the error-locator
    /// polynomial σ in `scratch.sigma` (index = degree, `sigma[0] == 1`)
    /// and returning its degree. Allocation-free: the iteration's save
    /// buffer is swapped, not cloned.
    ///
    /// Berlekamp's binary form: the syndromes of a binary word satisfy
    /// `S_2j = S_j²`, which makes the discrepancy of every even-numbered
    /// step zero, so only the `t` odd steps run and each skipped step
    /// just ages `B` by one more power of `x`.
    fn berlekamp_massey_into(&self, scratch: &mut BchScratch) -> usize {
        let f = &self.tables.field;
        let BchScratch {
            synd: s,
            sigma,
            bm_b: b,
            bm_saved: saved,
            ..
        } = scratch;
        sigma.fill(0);
        sigma[0] = 1;
        b.fill(0);
        b[0] = 1;
        let mut l = 0usize; // current LFSR length (≥ deg σ)
        let mut lb = 0usize; // B's length (≥ deg B)
        let mut m = 1usize; // steps since last length change
        let mut bb = 1u32; // last nonzero discrepancy
        for i in (0..s.len()).step_by(2) {
            // Discrepancy d = S_i + sum_{j=1..l} sigma_j * S_{i-j}
            let mut d = s[i];
            for j in 1..=l {
                d ^= f.mul(sigma[j], s[i - j]);
            }
            if d != 0 {
                let grow = 2 * l <= i;
                if grow {
                    saved.copy_from_slice(sigma);
                }
                let coef = f.div(d, bb).expect("bb is nonzero");
                for (sj, &bj) in sigma[m..].iter_mut().zip(&b[..=lb]) {
                    *sj ^= f.mul(coef, bj);
                }
                if grow {
                    std::mem::swap(b, saved);
                    (lb, l) = (l, i + 1 - l);
                    bb = d;
                    m = 0;
                }
            }
            m += 2;
        }
        (0..=l).rev().find(|&i| sigma[i] != 0).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_rt::rng::{Rng, StdRng};

    // The seeded randomized properties (historical seeds 42, 7, 99, 1)
    // live in `tests/props.rs` on the harness runner with shrinking and
    // corpus replay; the differential campaigns against the PGZ oracle
    // live in `crates/harness/tests/differential.rs`. Only
    // deterministic/exhaustive checks remain inline.

    /// `powers[i][p] = α^{(2i+1)·p}` for every position of `code`.
    fn odd_powers(code: &BchCode) -> Vec<Vec<u32>> {
        let f = code.field();
        (0..code.t() as u64)
            .map(|i| {
                (0..code.len() as u64)
                    .map(|p| f.alpha_pow((2 * i + 1) * p))
                    .collect()
            })
            .collect()
    }

    /// The definition the remainder shortcut is held to: `S_j` summed
    /// over every set bit of the stored word, evens by squaring.
    fn word_length_syndromes(code: &BchCode, powers: &[Vec<u32>], word: &BitPoly) -> Vec<u32> {
        let mut s = vec![0; 2 * code.t()];
        for (i, row) in powers.iter().enumerate() {
            s[2 * i] = word.iter_ones().fold(0, |acc, p| acc ^ row[p]);
        }
        for j in (2..=2 * code.t()).step_by(2) {
            s[j - 1] = code.field().square(s[j / 2 - 1]);
        }
        s
    }

    #[test]
    fn remainder_syndromes_equal_the_word_length_walk() {
        // 110 k seeded words over the VLEW geometries, the baseline and
        // small codes with derived syndromes (6, 13, 10), k % 4 ≠ 0
        // (9, 4, 299; 4, 4, 1) and r = 64 (8, 8, 64). Five classes per
        // code: clean; errors in code cells only; in data only; in both,
        // within t; beyond t. Errorful words then go through the
        // decoder, which must leave the received syndromes in
        // `scratch.synd`.
        let mut rng = StdRng::seed_from_u64(0x24);
        let mut words = 0;
        for ((m, t, k), cases) in [
            ((12, 22, 2048), 10_000),
            ((12, 22, 1024), 5_000),
            ((10, 14, 512), 15_000),
            ((8, 3, 64), 25_000),
            ((6, 13, 10), 20_000),
            ((9, 4, 299), 20_000),
            ((8, 8, 64), 10_000),
            ((4, 4, 1), 5_000),
        ] {
            let code = BchCode::new(m, t, k).unwrap();
            let (r, n) = (code.parity_bits(), code.len());
            let mut scratch = BchScratch::new(&code);
            let mut got = vec![0; 2 * t];
            let powers = odd_powers(&code);
            for case in 0..cases {
                let mut data = BitPoly::zero(k);
                for i in 0..k {
                    data.set(i, rng.next_u64() & 1 != 0);
                }
                let clean = code.encode(&data);
                let mut word = clean.clone();
                let (lo, hi, weight) = match case % 5 {
                    0 => (0, n, 0),
                    1 => (0, r, rng.gen_range(1..=t.min(r))),
                    2 => (r, n, rng.gen_range(1..=t.min(k))),
                    3 => (0, n, rng.gen_range(1..=t)),
                    _ => (0, n, rng.gen_range(t + 1..=(2 * t + 2).min(n))),
                };
                let mut flipped = 0;
                while flipped < weight {
                    let p = rng.gen_range(lo..hi);
                    if word.get(p) == clean.get(p) {
                        word.flip(p);
                        flipped += 1;
                    }
                }
                let want = word_length_syndromes(&code, &powers, &word);
                let is_clean = code.syndromes_into(&word, &mut got);
                assert_eq!(got, want, "({m},{t},{k}) case {case}");
                assert_eq!(is_clean, weight == 0, "({m},{t},{k}) case {case}");
                assert_eq!(is_clean, code.is_codeword(&word));
                if weight > 0 {
                    let received = word.clone();
                    let verdict = code.decode_word(&mut word, &mut scratch);
                    assert_eq!(scratch.synd, want, "({m},{t},{k}) case {case}");
                    match verdict {
                        WordVerdict::Corrected { .. } => {
                            assert!(code.is_codeword(&word));
                            assert!(weight > t || word == clean);
                        }
                        WordVerdict::Uncorrectable => {
                            assert!(weight > t, "({m},{t},{k}) case {case}: within radius");
                            assert_eq!(word, received);
                        }
                        WordVerdict::Clean => panic!("an errorful word read as clean"),
                    }
                }
                words += 1;
            }
        }
        assert!(words >= 100_000);
    }

    #[test]
    fn clean_word_decodes_with_no_corrections() {
        let code = BchCode::new(6, 3, 24).unwrap();
        let mut cw = code.encode(&BitPoly::from_u64(0xFACADE, 24));
        let mut scratch = BchScratch::new(&code);
        let out = code.decode_scratch(&mut cw, &mut scratch).unwrap();
        assert!(out.was_clean());
    }

    #[test]
    fn corrects_up_to_t_errors_exhaustive_positions() {
        let code = BchCode::new(6, 2, 20).unwrap();
        let mut scratch = BchScratch::new(&code);
        let data = BitPoly::from_u64(0x5A5A5, 20);
        let clean = code.encode(&data);
        // Every single-bit error.
        for i in 0..code.len() {
            let mut cw = clean.clone();
            cw.flip(i);
            let out = code.decode_scratch(&mut cw, &mut scratch).unwrap();
            assert_eq!(out.corrected_bits(), &[i]);
            assert_eq!(cw, clean);
        }
        // Every double-bit error.
        for i in 0..code.len() {
            for j in (i + 1)..code.len() {
                let mut cw = clean.clone();
                cw.flip(i);
                cw.flip(j);
                let out = code.decode_scratch(&mut cw, &mut scratch).unwrap();
                assert_eq!(out.corrected_bits(), &[i, j]);
                assert_eq!(cw, clean, "errors at {i},{j}");
            }
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let code = BchCode::new(6, 2, 20).unwrap();
        let mut w = BitPoly::zero(code.len() + 1);
        let mut scratch = BchScratch::new(&code);
        assert!(matches!(
            code.decode_scratch(&mut w, &mut scratch),
            Err(BchError::LengthMismatch(_, _))
        ));
    }

    #[test]
    fn errors_in_parity_region_are_corrected_too() {
        let code = BchCode::new(6, 3, 20).unwrap();
        let clean = code.encode(&BitPoly::from_u64(0x1234, 20));
        let mut cw = clean.clone();
        // All three errors inside the parity bits [0, r).
        cw.flip(0);
        cw.flip(1);
        cw.flip(code.parity_bits() - 1);
        code.decode_scratch(&mut cw, &mut BchScratch::new(&code))
            .unwrap();
        assert_eq!(cw, clean);
    }

    /// The textbook Berlekamp–Massey this crate ran before the binary
    /// form: all `2t` steps, odd and even. Returns σ (`2t + 1`
    /// coefficients) and its degree.
    fn full_berlekamp_massey(f: &pmck_gf::Gf2m, s: &[u32]) -> (Vec<u32>, usize) {
        let n = s.len();
        let (mut sigma, mut b) = (vec![0; n + 1], vec![0; n + 1]);
        (sigma[0], b[0]) = (1, 1);
        let (mut l, mut m, mut bb) = (0usize, 1usize, 1u32);
        for i in 0..n {
            let mut d = s[i];
            for j in 1..=l {
                d ^= f.mul(sigma[j], s[i - j]);
            }
            if d == 0 {
                m += 1;
                continue;
            }
            let saved = sigma.clone();
            let coef = f.div(d, bb).unwrap();
            for j in 0..n + 1 - m {
                sigma[j + m] ^= f.mul(coef, b[j]);
            }
            if 2 * l <= i {
                (l, b, bb, m) = (i + 1 - l, saved, d, 1);
            } else {
                m += 1;
            }
        }
        let deg = (0..=l).rev().find(|&i| sigma[i] != 0).unwrap_or(0);
        (sigma, deg)
    }

    /// `S_1..S_2t` of the pattern flipping `positions`, by the definition.
    fn pattern_syndromes(code: &BchCode, positions: &[usize]) -> Vec<u32> {
        let f = code.field();
        (1..=2 * code.t() as u64)
            .map(|j| {
                positions
                    .iter()
                    .fold(0, |s, &p| s ^ f.alpha_pow(j * p as u64))
            })
            .collect()
    }

    /// `weight` distinct positions below `n`.
    fn distinct_positions(rng: &mut StdRng, n: usize, weight: usize) -> Vec<usize> {
        let mut positions = Vec::with_capacity(weight);
        while positions.len() < weight {
            let p = rng.gen_range(0..n);
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        positions
    }

    #[test]
    fn binary_berlekamp_massey_equals_the_full_2t_steps() {
        // 100 k seeded binary patterns of weight 0..=t+1 on the VLEW, the
        // baseline and small codes (derived cosets, k % 4 ≠ 0, t = 4 on
        // GF(2^4)). Every third toggles one random position of a
        // weight-(t+1) pattern, giving weight t or t + 2.
        let mut rng = StdRng::seed_from_u64(0x27B);
        let mut runs = 0;
        for ((m, t, k), cases) in [
            ((12, 22, 2048), 30_000),
            ((10, 14, 512), 20_000),
            ((8, 3, 64), 20_000),
            ((6, 13, 10), 15_000),
            ((9, 4, 299), 10_000),
            ((4, 4, 1), 5_000),
        ] {
            let code = BchCode::new(m, t, k).unwrap();
            let mut scratch = BchScratch::new(&code);
            for case in 0..cases {
                let trial = case % 3 == 0;
                let weight = if trial {
                    t + 1
                } else {
                    rng.gen_range(0..=t + 1)
                };
                let mut positions = distinct_positions(&mut rng, code.len(), weight);
                if trial {
                    let guess = rng.gen_range(0..code.len());
                    match positions.iter().position(|&p| p == guess) {
                        Some(i) => drop(positions.swap_remove(i)),
                        None => positions.push(guess),
                    }
                }
                scratch.synd = pattern_syndromes(&code, &positions);
                let deg = code.berlekamp_massey_into(&mut scratch);
                let (sigma, want) = full_berlekamp_massey(code.field(), &scratch.synd);
                assert_eq!(
                    (deg, &scratch.sigma),
                    (want, &sigma),
                    "({m},{t},{k}) case {case}"
                );
                runs += 1;
            }
        }
        assert!(runs >= 100_000);
    }

    #[test]
    fn remainder_check_equals_the_syndrome_compare() {
        // Received words of weight 1..=t+2 on seeded data; proposals that
        // must be accepted (the true pattern; what the decoder accepts on
        // an overweight word, a miscorrection included) and that should
        // not be (the pattern with a position moved, dropped or added;
        // random sets). Both checks must agree on every one.
        let mut rng = StdRng::seed_from_u64(0x27C);
        let (mut accepted, mut rejected) = (0, 0);
        for (m, t, k) in [
            (12, 22, 2048),
            (10, 14, 512),
            (8, 3, 64),
            (8, 8, 64),
            (9, 4, 299),
            (6, 13, 10),
            (4, 4, 1),
        ] {
            let code = BchCode::new(m, t, k).unwrap();
            let n = code.len();
            let mut scratch = BchScratch::new(&code);
            for case in 0..4_000 {
                let mut data = BitPoly::zero(k);
                for i in 0..k {
                    data.set(i, rng.next_u64() & 1 != 0);
                }
                let mut word = code.encode(&data);
                let weight = rng.gen_range(1..=(t + 2).min(n));
                let errors = distinct_positions(&mut rng, n, weight);
                for &p in &errors {
                    word.flip(p);
                }
                let mut proposal = match case % 5 {
                    0 => errors.clone(),
                    1 => {
                        let mut moved = errors.clone();
                        moved[0] = (moved[0] + 1 + rng.gen_range(0..n - 1)) % n;
                        moved
                    }
                    2 => errors[1..].to_vec(),
                    3 => {
                        let weight = rng.gen_range(1..=t.min(n));
                        distinct_positions(&mut rng, n, weight)
                    }
                    _ => match code.decode_scratch(&mut word.clone(), &mut scratch) {
                        Ok(view) => view.corrected_bits().to_vec(),
                        Err(_) => errors.clone(),
                    },
                };
                proposal.sort_unstable();
                proposal.dedup();
                scratch.rho.fill(0);
                code.remainder_syndromes(&word, &mut scratch.rho, &mut scratch.synd);
                let by_remainder = code.explains(&proposal, &scratch.rho, &mut scratch.residue);
                let by_syndromes = pattern_syndromes(&code, &proposal) == scratch.synd;
                assert_eq!(by_remainder, by_syndromes, "({m},{t},{k}) case {case}");
                if by_remainder {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(
            accepted > 5_000 && rejected > 10_000,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn roots_past_degree_four_equal_the_full_chien_search() {
        // Locators of degree 5..=t: products of roots (past n included),
        // some with a root repeated, and random coefficients. The decoder's search, which stops with four roots
        // left and solves them in closed form, must report what a search
        // of the whole word reports.
        let mut rng = StdRng::seed_from_u64(0x27D);
        for ((m, t, k), cases) in [
            ((12, 22, 2048), 6_000),
            ((10, 14, 512), 6_000),
            ((13, 24, 4096), 3_000),
        ] {
            let code = BchCode::new(m, t, k).unwrap();
            let f = code.field();
            let order = u64::from(f.order());
            let mut scratch = BchScratch::new(&code);
            let (mut acc, mut want) = (scratch.acc.clone(), Vec::new());
            let mut complete = 0;
            for case in 0..cases {
                let deg = rng.gen_range(5..=t);
                let mut sigma = vec![0u32; deg + 1];
                sigma[0] = 1;
                if case % 3 == 2 {
                    for c in &mut sigma[1..] {
                        *c = f.alpha_pow(rng.gen_range(0..order));
                    }
                } else {
                    // Mostly below n, one in seventeen past it.
                    let past = code.len() as u64 + code.len() as u64 / 16;
                    let mut roots: Vec<u32> = (0..deg)
                        .map(|_| f.alpha_pow(rng.gen_range(0..past)))
                        .collect();
                    if case % 3 == 1 {
                        roots[1] = roots[0];
                    }
                    for (d, &x) in roots.iter().enumerate() {
                        for i in (1..=d + 1).rev() {
                            sigma[i] ^= f.mul(x, sigma[i - 1]);
                        }
                    }
                }
                want.clear();
                let found = code
                    .tables
                    .chien
                    .search(f, &sigma, &mut acc, &mut want, deg);
                scratch.sigma.fill(0);
                scratch.sigma[..=deg].copy_from_slice(&sigma);
                scratch.positions.clear();
                let accepted = code.roots_into(deg, &mut scratch);
                assert_eq!(scratch.positions, want, "({m},{t},{k}) σ = {sigma:?}");
                assert_eq!(accepted, found == deg, "({m},{t},{k}) σ = {sigma:?}");
                complete += usize::from(accepted);
            }
            assert!(complete > cases / 20, "({m},{t},{k}): {complete} complete");
        }
    }
}
