//! Bit-sliced, limb-parallel Chien search: the root finder for locators
//! of degree five and up (lower degrees are solved in closed form, see
//! `roots.rs`).
//!
//! The classic Chien search evaluates the error-locator polynomial
//! `σ(α^{-p})` one position at a time: `deg σ` field multiplications per
//! candidate position, ~2·deg table lookups each — for the 2312-bit VLEW
//! at full weight that is ~100k serial multiplications per decode. The
//! bit-sliced kernel instead keeps, for every coefficient `i`, the
//! `64·WB` values `σ_i·α^{-i·(base+l)}` (`l = 0..64·WB`) as `m`
//! bit-planes of `WB` `u64` words each — plane `b`, lane `l` holds bit
//! `b` of the field element for position `base + l`. `WB = 4`
//! (256 positions per step) amortizes the per-matrix-column decode
//! overhead over four words of lanes, which measures ~2x faster than
//! single-word blocks on the full-weight VLEW scan.
//!
//! Two facts make the per-block step cheap:
//!
//! * Multiplication by a *constant* `c` is GF(2)-linear, so it acts on the
//!   planes as an m×m binary matrix: `out[j] ^= in[b]` for every `b` with
//!   bit `j` of `c·β_b` set (`β_b` the polynomial-basis element `1 << b`).
//!   Advancing a coefficient's lanes to the next block is one such map
//!   with `c = α^{-64·WB·i}`, whose masks are precomputed per coefficient.
//! * The lane values at block 0 factor as `σ_i · α^{-i·l}`: the geometric
//!   part is decode-independent and precomputed bit-sliced, so per decode
//!   the initialization is a single constant-map application per
//!   coefficient instead of 64·WB−1 serial multiplications.
//!
//! A lane is a root iff all `m` sum planes have a zero bit there, so root
//! detection is an OR-reduction and one inverted mask per 64 positions.
//! The search exits once the caller has enough roots: all `deg σ` of
//! them (a degree-`deg` polynomial has no more), or, in the decoder, all
//! but four, after which the found ones are divided out of σ and the
//! rest solved in closed form.

use pmck_gf::Gf2m;

/// Upper bound on the field degree `m` (checked by `Gf2m::new`), sizing
/// the fixed per-block plane accumulators.
const MAX_M: usize = 16;

/// Words per plane: each Chien step evaluates `64·WB` candidate
/// positions, amortizing the matrix-column decode across `WB` words.
const WB: usize = 4;

/// Candidate positions evaluated per block step.
const BLOCK_LANES: usize = 64 * WB;

/// Precomputed bit-sliced Chien tables for one code: the block-0
/// geometric lanes and the per-coefficient block-advance masks.
#[derive(Clone)]
pub(crate) struct ChienPlan {
    /// Field degree: planes per element.
    m: usize,
    /// Shortened codeword length: positions `0..n` are searched.
    n: usize,
    /// Correction capability: coefficients `1..=t` are provisioned.
    t: usize,
    /// `init[((i-1)·m + b)·WB + l/64]`, bit `l % 64` = bit `b` of
    /// `α^{-i·l}`, `l = 0..64·WB`.
    init: Vec<u64>,
    /// `step[(i-1)·m + b] = α^{-64·WB·i} · β_b`: the constant-multiplier
    /// matrix column advancing coefficient `i` by one block.
    step: Vec<u32>,
}

impl std::fmt::Debug for ChienPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChienPlan")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("t", &self.t)
            .finish()
    }
}

impl ChienPlan {
    /// Builds the plan for a `t`-error-correcting code of shortened
    /// length `n` over `field`.
    pub(crate) fn new(field: &Gf2m, t: usize, n: usize) -> Self {
        let m = field.degree() as usize;
        let order = field.order() as u64;
        let mut init = vec![0u64; t * m * WB];
        let mut step = vec![0u32; t * m];
        for i in 1..=t as u64 {
            let planes = &mut init[(i as usize - 1) * m * WB..i as usize * m * WB];
            for l in 0..BLOCK_LANES as u64 {
                let v = field.alpha_pow(order - (i * l) % order);
                let w = (l / 64) as usize;
                let bit = l % 64;
                for b in 0..m {
                    planes[b * WB + w] |= u64::from((v >> b) & 1) << bit;
                }
            }
            let c = field.alpha_pow(order - (BLOCK_LANES as u64 * i) % order);
            for b in 0..m {
                step[(i as usize - 1) * m + b] = field.mul(c, 1 << b);
            }
        }
        ChienPlan {
            m,
            n,
            t,
            init,
            step,
        }
    }

    /// The accumulator length a caller's scratch must provide: `t · m`
    /// planes of `WB` words.
    pub(crate) fn acc_len(&self) -> usize {
        self.t * self.m * WB
    }

    /// Finds the positions `p ∈ [0, n)` with `σ(α^{-p}) == 0`, appending
    /// them to `out` in ascending order, and returns how many were found.
    /// `sigma` is the trimmed locator (`sigma[0] == 1`, top coefficient
    /// nonzero, `deg ≤ t`); `acc` is caller scratch of at least
    /// [`ChienPlan::acc_len`] words. Stops after the block in which the
    /// `enough`-th root turns up (`deg σ` finds every root: a polynomial
    /// has no more).
    pub(crate) fn search(
        &self,
        field: &Gf2m,
        sigma: &[u32],
        acc: &mut [u64],
        out: &mut Vec<usize>,
        enough: usize,
    ) -> usize {
        let m = self.m;
        let pw = m * WB;
        let deg = sigma.len() - 1;
        debug_assert!(deg >= 1 && deg <= self.t, "locator degree out of range");
        // Initialize lanes for block 0: A_i = σ_i ⊙ init_i, one
        // constant-multiplier map per coefficient.
        for (i, &c) in sigma.iter().enumerate().skip(1) {
            let planes = &mut acc[(i - 1) * pw..i * pw];
            planes.fill(0);
            if c == 0 {
                continue;
            }
            let geo = &self.init[(i - 1) * pw..i * pw];
            for b in 0..m {
                let src = &geo[b * WB..b * WB + WB];
                let mut col = field.mul(c, 1 << b);
                while col != 0 {
                    let j = col.trailing_zeros() as usize;
                    for w in 0..WB {
                        planes[j * WB + w] ^= src[w];
                    }
                    col &= col - 1;
                }
            }
        }
        let mut found = 0usize;
        let mut base = 0usize;
        loop {
            // Sum planes over all coefficients; σ_0 = 1 adds the all-ones
            // plane 0.
            let mut sum = [[0u64; WB]; MAX_M];
            for planes in acc[..deg * pw].chunks_exact(pw) {
                for (s, p) in sum.iter_mut().zip(planes.chunks_exact(WB)) {
                    for (sw, &pv) in s.iter_mut().zip(p) {
                        *sw ^= pv;
                    }
                }
            }
            for w in 0..WB {
                sum[0][w] ^= !0u64;
                let word_base = base + w * 64;
                if word_base >= self.n {
                    break;
                }
                let mut nonzero = 0u64;
                for s in &sum[..m] {
                    nonzero |= s[w];
                }
                let mut roots = !nonzero;
                let lanes = (self.n - word_base).min(64);
                if lanes < 64 {
                    roots &= (1u64 << lanes) - 1;
                }
                while roots != 0 {
                    out.push(word_base + roots.trailing_zeros() as usize);
                    found += 1;
                    roots &= roots - 1;
                }
            }
            base += BLOCK_LANES;
            if found >= enough || base >= self.n {
                return found;
            }
            // Advance every coefficient's lanes by one block: multiply by
            // the constant α^{-64·WB·i} via its precomputed matrix columns.
            for i in 0..deg {
                let planes = &mut acc[i * pw..(i + 1) * pw];
                let cols = &self.step[i * m..(i + 1) * m];
                let mut next = [[0u64; WB]; MAX_M];
                for b in 0..m {
                    let mut src = [0u64; WB];
                    src.copy_from_slice(&planes[b * WB..b * WB + WB]);
                    if src == [0u64; WB] {
                        continue;
                    }
                    let mut col = cols[b];
                    while col != 0 {
                        let j = col.trailing_zeros() as usize;
                        for (nw, &sw) in next[j].iter_mut().zip(&src) {
                            *nw ^= sw;
                        }
                        col &= col - 1;
                    }
                }
                for (p, n) in planes.chunks_exact_mut(WB).zip(&next) {
                    p.copy_from_slice(n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::BchCode;

    /// The position-serial reference: Horner-free per-position evaluation,
    /// exactly the shape the bit-sliced kernel replaced.
    fn slow_chien(code: &BchCode, sigma: &[u32]) -> Vec<usize> {
        let f = code.field();
        let order = f.order() as u64;
        let mut outp = Vec::new();
        for p in 0..code.len() as u64 {
            let x = f.alpha_pow(order - (p % order));
            let mut acc = 0u32;
            let mut xp = 1u32;
            for &c in sigma {
                if c != 0 {
                    acc ^= f.mul(c, xp);
                }
                xp = f.mul(xp, x);
            }
            if acc == 0 {
                outp.push(p as usize);
            }
        }
        outp
    }

    /// σ(x) = Π (1 − α^{p}·x) for the given error positions.
    fn locator_for(code: &BchCode, positions: &[usize]) -> Vec<u32> {
        let f = code.field();
        let mut sigma = vec![0u32; positions.len() + 1];
        sigma[0] = 1;
        for (deg, &p) in positions.iter().enumerate() {
            let x = f.alpha_pow(p as u64);
            for i in (1..=deg + 1).rev() {
                sigma[i] ^= f.mul(x, sigma[i - 1]);
            }
        }
        sigma
    }

    #[test]
    fn bit_sliced_matches_serial_reference_vlew() {
        let code = BchCode::vlew();
        let plan = ChienPlan::new(code.field(), code.t(), code.len());
        let mut acc = vec![0u64; plan.acc_len()];
        // Positions crossing block boundaries, the last partial block, and
        // adjacent lanes.
        for positions in [
            vec![0],
            vec![63],
            vec![64],
            vec![2311],
            vec![0, 1, 62, 63, 64, 65],
            vec![5, 300, 301, 1999, 2310, 2311],
            (0..22).map(|i| i * 105 + 2).collect::<Vec<_>>(),
        ] {
            let sigma = locator_for(&code, &positions);
            let mut out = Vec::new();
            let found = plan.search(code.field(), &sigma, &mut acc, &mut out, positions.len());
            let mut want = positions.clone();
            want.sort_unstable();
            assert_eq!(out, want, "positions {positions:?}");
            assert_eq!(found, want.len());
            assert_eq!(out, slow_chien(&code, &sigma));
        }
    }

    #[test]
    fn bit_sliced_matches_serial_reference_small_codes() {
        // Codes whose length is not a multiple of 64 exercise the partial
        // last block; small m exercises few planes.
        for (m, t, k) in [(4u32, 2usize, 7usize), (6, 3, 20), (10, 14, 512)] {
            let code = BchCode::new(m, t, k).unwrap();
            let plan = ChienPlan::new(code.field(), code.t(), code.len());
            let mut acc = vec![0u64; plan.acc_len()];
            for w in 1..=t {
                let positions: Vec<usize> = (0..w).map(|i| (i * 37 + 3) % code.len()).collect();
                let mut dedup = positions.clone();
                dedup.sort_unstable();
                dedup.dedup();
                if dedup.len() != positions.len() {
                    continue;
                }
                let sigma = locator_for(&code, &positions);
                let mut out = Vec::new();
                plan.search(code.field(), &sigma, &mut acc, &mut out, w);
                assert_eq!(out, dedup, "m={m} t={t} w={w}");
                assert_eq!(out, slow_chien(&code, &sigma));
            }
        }
    }

    #[test]
    fn rootless_locator_finds_nothing() {
        // A locator whose roots all lie in the shortened-away region must
        // scan the whole word and report zero roots.
        let code = BchCode::new(6, 3, 20).unwrap();
        let f = code.field();
        // Root at position n (outside the shortened length but inside the
        // natural length 63).
        let outside = code.len();
        let sigma = vec![1, f.alpha_pow(outside as u64)];
        let plan = ChienPlan::new(f, code.t(), code.len());
        let mut acc = vec![0u64; plan.acc_len()];
        let mut out = Vec::new();
        let found = plan.search(f, &sigma, &mut acc, &mut out, 1);
        assert_eq!(found, 0);
        assert!(out.is_empty());
        assert_eq!(slow_chien(&code, &sigma), Vec::<usize>::new());
    }
}
