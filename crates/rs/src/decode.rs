//! Errors-and-erasures RS decoding (Berlekamp–Massey with erasure
//! initialization, Chien search, Forney magnitudes), behind a closed-form
//! solve of one and two symbol errors.
//!
//! The decoder is allocation-free on the hot path: syndromes, the BM
//! polynomials, and the Chien/Forney results all live in a reusable
//! [`RsScratch`], and a zero-syndrome early exit serves the
//! overwhelmingly-common clean word before any locator machinery runs.
//! A word with no declared erasures is next tried against the one- and
//! two-error closed forms ([`RsCode::solve_small`]); what they do not
//! explain goes to the general decoder with its syndromes already
//! computed.
//! Every decode entry point takes the caller's scratch and returns an
//! [`RsDecodeView`] of slices into it.

use crate::code::RsCode;
use crate::error::RsError;

/// Reusable decoder working memory, sized once for a given code
/// (`r = n − k` check symbols, length-`n` codewords) so that every
/// subsequent decode is heap-allocation-free.
///
/// A scratch built for one `(k, r)` geometry works for any [`RsCode`]
/// with the same geometry. Build one per decoding context (engine,
/// bench loop, test) and reuse it across calls.
#[derive(Debug, Clone)]
pub struct RsScratch {
    /// Syndromes `S_1..S_r` (`s[j-1] = S_j`).
    s: Vec<u32>,
    /// The combined error-and-erasure locator Ψ (degree ≤ r).
    lambda: Vec<u32>,
    /// BM correction polynomial B.
    b: Vec<u32>,
    /// BM save buffer (old Ψ during length changes).
    saved: Vec<u32>,
    /// Forney evaluator Ω = S·Ψ mod x^r.
    omega: Vec<u32>,
    /// Formal derivative Ψ′.
    deriv: Vec<u32>,
    /// Chien-search root positions.
    locations: Vec<usize>,
    /// Applied `(position, magnitude)` pairs, ascending by position.
    corrections: Vec<(usize, u8)>,
    /// Corrected positions that were *not* declared erasures.
    error_pos: Vec<usize>,
}

impl RsScratch {
    /// A scratch sized for `code`'s geometry.
    pub fn new(code: &RsCode) -> Self {
        let r = code.check_symbols();
        let n = code.len();
        RsScratch {
            s: vec![0; r],
            lambda: vec![0; r + 1],
            b: vec![0; r + 1],
            saved: vec![0; r + 1],
            omega: vec![0; r],
            deriv: vec![0; r],
            locations: Vec::with_capacity(n),
            corrections: Vec::with_capacity(r),
            error_pos: Vec::with_capacity(r),
        }
    }
}

/// A view of a successful decode, borrowing the scratch it ran in.
///
/// All accessors return slices into the scratch — no heap allocation.
#[derive(Debug, Clone, Copy)]
pub struct RsDecodeView<'s> {
    corrections: &'s [(usize, u8)],
    error_pos: &'s [usize],
}

impl RsDecodeView<'_> {
    /// `(position, magnitude)` pairs applied to the word, ascending by
    /// position. Includes erasure positions whose magnitude was nonzero.
    pub fn corrections(&self) -> &[(usize, u8)] {
        self.corrections
    }

    /// Positions corrected as *errors* (unknown locations) rather than
    /// declared erasures, ascending.
    pub fn error_positions(&self) -> &[usize] {
        self.error_pos
    }

    /// The number of positions whose value actually changed.
    pub fn num_corrections(&self) -> usize {
        self.corrections.len()
    }

    /// Whether the received word was already a valid codeword.
    pub fn was_clean(&self) -> bool {
        self.corrections.is_empty()
    }
}

impl RsCode {
    /// Decodes `word` in place, correcting random symbol errors:
    /// [`RsCode::decode_with_erasures_scratch`] with no erasures, so up
    /// to `⌊r/2⌋` errors are corrected. Performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// * [`RsError::LengthMismatch`] if `word.len() != n`.
    /// * [`RsError::Uncorrectable`] if the pattern is detectably beyond
    ///   capability (word left unmodified). Overweight patterns may also
    ///   miscorrect silently, as with any bounded-distance decoder.
    pub fn decode_scratch<'s>(
        &self,
        word: &mut [u8],
        scratch: &'s mut RsScratch,
    ) -> Result<RsDecodeView<'s>, RsError> {
        self.decode_with_erasures_scratch(word, &[], scratch)
    }

    /// Decodes `word` in place given known-bad `erasures` positions.
    /// Corrects any combination of `e` errors and `ν` erasures with
    /// `2e + ν ≤ r`. Performs zero heap allocations.
    ///
    /// The paper's chip-failure path declares the failed chip's byte
    /// positions as erasures (ν = 8 for RS(72, 64)), consuming the whole
    /// budget; its runtime path uses no erasures and bounds accepted
    /// corrections via [`RsCode::decode_with_threshold_scratch`].
    ///
    /// # Errors
    ///
    /// * [`RsError::LengthMismatch`] if `word.len() != n`.
    /// * [`RsError::BadErasure`] for out-of-range or duplicate positions.
    /// * [`RsError::TooManyErasures`] if `ν > r`.
    /// * [`RsError::Uncorrectable`] if decoding fails (word unmodified).
    pub fn decode_with_erasures_scratch<'s>(
        &self,
        word: &mut [u8],
        erasures: &[usize],
        scratch: &'s mut RsScratch,
    ) -> Result<RsDecodeView<'s>, RsError> {
        self.decode_core(word, erasures, scratch)?;
        Ok(RsDecodeView {
            corrections: &scratch.corrections,
            error_pos: &scratch.error_pos,
        })
    }

    /// Erasure-only decoding: all `erasures` positions are recomputed, and
    /// no unknown-location errors are tolerated (any residual error makes
    /// the decode fail rather than risk miscorrection).
    ///
    /// # Errors
    ///
    /// As [`RsCode::decode_with_erasures_scratch`].
    pub fn decode_erasures_scratch<'s>(
        &self,
        word: &mut [u8],
        erasures: &[usize],
        scratch: &'s mut RsScratch,
    ) -> Result<RsDecodeView<'s>, RsError> {
        self.decode_core(word, erasures, scratch)?;
        // Any correction outside the declared erasures means random errors
        // were present; the strict erasure path refuses that.
        if !scratch.error_pos.is_empty() {
            for &(p, m) in &scratch.corrections {
                word[p] ^= m;
            }
            return Err(RsError::Uncorrectable);
        }
        Ok(RsDecodeView {
            corrections: &scratch.corrections,
            error_pos: &scratch.error_pos,
        })
    }

    /// The decode engine. On `Ok(())` the word has been corrected and
    /// verified, `scratch.corrections` holds the applied pairs (ascending
    /// by position) and `scratch.error_pos` the non-erasure subset; on
    /// error the word is unmodified.
    fn decode_core(
        &self,
        word: &mut [u8],
        erasures: &[usize],
        scratch: &mut RsScratch,
    ) -> Result<(), RsError> {
        if word.len() != self.len() {
            return Err(RsError::LengthMismatch(word.len(), self.len()));
        }
        let nu = erasures.len();
        if nu > self.max_erasures() {
            return Err(RsError::TooManyErasures(nu));
        }
        for (i, &p) in erasures.iter().enumerate() {
            if p >= self.len() || erasures[..i].contains(&p) {
                return Err(RsError::BadErasure(p));
            }
        }

        scratch.corrections.clear();
        scratch.error_pos.clear();
        scratch.locations.clear();

        // Fast path: a clean word exits before any locator machinery.
        if self.syndromes_into(word, &mut scratch.s) {
            return Ok(());
        }

        // One or two symbol errors, the runtime path's whole accept set,
        // in closed form. Below r = 4 two errors are past the code's
        // radius, so those codes keep to the general decoder.
        if erasures.is_empty()
            && self.r >= 4
            && self.solve_small(&scratch.s, &mut scratch.corrections)
        {
            for &(p, m) in &scratch.corrections {
                word[p] ^= m;
                scratch.error_pos.push(p);
            }
            return Ok(());
        }

        let f = &self.field;
        let r = self.r;
        let order = f.order() as u64;

        // Erasure locator Γ(x) = prod (1 + X_l x), X_l = alpha^position,
        // built in place in the Ψ buffer (BM starts from Γ anyway).
        let lambda = &mut scratch.lambda;
        lambda.fill(0);
        lambda[0] = 1;
        for (deg, &p) in erasures.iter().enumerate() {
            let xl = f.alpha_pow(p as u64);
            for i in (1..=deg + 1).rev() {
                lambda[i] ^= f.mul(xl, lambda[i - 1]);
            }
        }

        // Berlekamp–Massey initialized with the erasure locator; iterates
        // over syndromes s[nu..r).
        self.berlekamp_massey_erasures(scratch, nu);
        let deg = (0..=r).rev().find(|&i| scratch.lambda[i] != 0).unwrap_or(0);
        let num_errors = deg - nu.min(deg);
        if 2 * num_errors + nu > r {
            return Err(RsError::Uncorrectable);
        }

        // Chien search over the shortened length.
        let psi = &scratch.lambda[..=deg];
        for p in 0..self.len() as u64 {
            let x_inv = f.alpha_pow(order - (p % order));
            if f.eval_poly(psi, x_inv) == 0 {
                scratch.locations.push(p as usize);
            }
        }
        if scratch.locations.len() != deg {
            return Err(RsError::Uncorrectable);
        }

        // Forney: Ω(x) = S(x)·Ψ(x) mod x^r; e_i = Ω(X_i⁻¹)/Ψ'(X_i⁻¹).
        for i in 0..r {
            let mut acc = 0u32;
            for j in 0..=deg.min(i) {
                let c = scratch.lambda[j];
                if c != 0 {
                    acc ^= f.mul(c, scratch.s[i - j]);
                }
            }
            scratch.omega[i] = acc;
        }
        // Ψ' over characteristic 2: only odd-degree terms survive.
        scratch.deriv.fill(0);
        for i in (1..=deg).step_by(2) {
            scratch.deriv[i - 1] = scratch.lambda[i];
        }
        for &p in &scratch.locations {
            let x_inv = f.alpha_pow(order - (p as u64 % order));
            let denom = f.eval_poly(&scratch.deriv[..deg.max(1)], x_inv);
            if denom == 0 {
                return Err(RsError::Uncorrectable);
            }
            let num = f.eval_poly(&scratch.omega, x_inv);
            let mag = f.div(num, denom).expect("denominator checked nonzero");
            if mag != 0 {
                scratch.corrections.push((p, mag as u8));
            }
        }

        // Apply, then verify; an off-codeword landing means decode failure.
        for &(p, m) in &scratch.corrections {
            word[p] ^= m;
        }
        if !self.is_codeword(word) {
            for &(p, m) in &scratch.corrections {
                word[p] ^= m;
            }
            scratch.corrections.clear();
            return Err(RsError::Uncorrectable);
        }
        scratch.corrections.sort_unstable_by_key(|&(p, _)| p);
        for &(p, _) in &scratch.corrections {
            if !erasures.contains(&p) {
                scratch.error_pos.push(p);
            }
        }
        Ok(())
    }

    /// Finds the error pattern of weight one or two whose syndromes are
    /// exactly `s` (`s[j-1] = S_j`, `r ≥ 4` of them, not all zero) and
    /// pushes it onto the empty `corrections` as `(position, magnitude)`
    /// pairs ascending by position; `false`, and nothing pushed, when
    /// there is no such pattern.
    ///
    /// With error locators `X_i = alpha^{p_i}` and magnitudes `e_i`,
    /// `S_j = Σ e_i·X_i^j`. One error makes the syndromes a geometric
    /// sequence: `X = S_2/S_1`, `e = S_1/X`. Two make them obey
    /// `S_{j+2} = σ1·S_{j+1} + σ2·S_j` with `σ1 = X_1 + X_2` and
    /// `σ2 = X_1·X_2`, which `S_1..S_4` fix by Cramer's rule; `X = σ1·y`
    /// turns `X² + σ1·X + σ2 = 0` into `y² + y = σ2/σ1²`, a table
    /// lookup, and `S_1`, `S_2` give the magnitudes. The determinant
    /// `S_2² + S_1·S_3` is zero exactly when the sequence is geometric,
    /// so it picks the case. Whatever was found is then evaluated
    /// against all `r` syndromes: a match means the patched word's
    /// syndromes are all zero, the check [`RsCode::is_codeword`] would
    /// make, and `r ≥ 4` puts at most one codeword that close.
    fn solve_small(&self, s: &[u32], corrections: &mut Vec<(usize, u8)>) -> bool {
        let f = &self.field;
        let div = |a, b| f.div(a, b).expect("divisor checked nonzero");
        let (s1, s2, s3, s4) = (s[0], s[1], s[2], s[3]);
        let det = f.square(s2) ^ f.mul(s1, s3);
        let (x1, x2, e1, e2);
        if det == 0 {
            if s1 == 0 || s2 == 0 {
                return false;
            }
            x1 = div(s2, s1);
            e1 = div(s1, x1);
            (x2, e2) = (0, 0);
        } else {
            let sigma1 = div(f.mul(s2, s3) ^ f.mul(s1, s4), det);
            let sigma2 = div(f.mul(s2, s4) ^ f.square(s3), det);
            if sigma1 == 0 || sigma2 == 0 {
                return false;
            }
            let y = self.quadratic[div(sigma2, f.square(sigma1)) as usize];
            if y == 0 {
                return false;
            }
            x1 = f.mul(sigma1, y.into());
            x2 = x1 ^ sigma1;
            e1 = div(s2 ^ f.mul(s1, x2), f.mul(x1, sigma1));
            e2 = div(s1 ^ f.mul(e1, x1), x2);
        }
        let (mut t1, mut t2) = (f.mul(e1, x1), f.mul(e2, x2));
        for &sj in s {
            if t1 ^ t2 != sj {
                return false;
            }
            (t1, t2) = (f.mul(t1, x1), f.mul(t2, x2));
        }
        // A matching pattern has no zero magnitude beside the single
        // error's absent second one, and its locators are distinct.
        for (x, e) in [(x1, e1), (x2, e2)] {
            if e != 0 {
                corrections.push((f.log(x) as usize, e as u8));
            }
        }
        corrections.sort_unstable_by_key(|&(p, _)| p);
        if corrections.iter().any(|&(p, _)| p >= self.len()) {
            corrections.clear();
        }
        !corrections.is_empty()
    }

    /// Berlekamp–Massey with erasure initialization (Blahut): Ψ starts as
    /// Γ (already in `scratch.lambda`), the length starts at ν, and
    /// iteration runs over syndromes `s[ν..r)`. Leaves the combined
    /// error-and-erasure locator Ψ in `scratch.lambda`.
    fn berlekamp_massey_erasures(&self, scratch: &mut RsScratch, nu: usize) {
        let f = &self.field;
        let r = self.r;
        let RsScratch {
            s,
            lambda,
            b,
            saved,
            ..
        } = scratch;
        b.copy_from_slice(lambda);
        let mut l = nu;
        let mut m = 1usize;
        let mut bb = 1u32;
        for i in nu..r {
            let mut d = 0u32;
            for j in 0..=l.min(i) {
                if lambda[j] != 0 {
                    d ^= f.mul(lambda[j], s[i - j]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i + nu {
                saved.copy_from_slice(lambda);
                let coef = f.div(d, bb).expect("bb nonzero");
                for j in 0..=(r - m.min(r)) {
                    if b[j] != 0 && j + m <= r {
                        lambda[j + m] ^= f.mul(coef, b[j]);
                    }
                }
                l = i + 1 + nu - l;
                std::mem::swap(b, saved);
                bb = d;
                m = 1;
            } else {
                let coef = f.div(d, bb).expect("bb nonzero");
                for j in 0..=(r - m.min(r)) {
                    if b[j] != 0 && j + m <= r {
                        lambda[j + m] ^= f.mul(coef, b[j]);
                    }
                }
                m += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The seeded randomized properties (historical seeds 3, 11, 17, 23,
    // 31, 41) live in `tests/props.rs` on the harness runner with
    // shrinking and corpus replay; only deterministic checks remain.

    #[test]
    fn clean_word_no_corrections() {
        let code = RsCode::per_block();
        let data: Vec<u8> = (0..64).collect();
        let mut cw = code.encode(&data);
        let mut scratch = RsScratch::new(&code);
        let out = code.decode_scratch(&mut cw, &mut scratch).unwrap();
        assert!(out.was_clean());
    }

    #[test]
    fn erasure_with_correct_value_is_fine() {
        // A declared erasure whose stored value happens to be correct must
        // decode cleanly with zero magnitude at that position.
        let code = RsCode::per_block();
        let data: Vec<u8> = (100..164).map(|x| x as u8).collect();
        let mut cw = code.encode(&data);
        let clean = cw.clone();
        let mut scratch = RsScratch::new(&code);
        let out = code
            .decode_erasures_scratch(&mut cw, &[0, 1, 2, 3, 4, 5, 6, 7], &mut scratch)
            .unwrap();
        assert_eq!(out.num_corrections(), 0);
        assert_eq!(cw, clean);
    }

    #[test]
    fn erasure_validation() {
        let code = RsCode::per_block();
        let mut scratch = RsScratch::new(&code);
        let mut cw = vec![0u8; 72];
        let mut err_of = |word: &mut [u8], erasures: &[usize]| {
            code.decode_with_erasures_scratch(word, erasures, &mut scratch)
                .unwrap_err()
        };
        assert_eq!(err_of(&mut cw, &[72]), RsError::BadErasure(72));
        assert_eq!(err_of(&mut cw, &[1, 1]), RsError::BadErasure(1));
        let nine: Vec<usize> = (0..9).collect();
        assert_eq!(err_of(&mut cw, &nine), RsError::TooManyErasures(9));
        let mut short = vec![0u8; 71];
        assert_eq!(err_of(&mut short, &[]), RsError::LengthMismatch(71, 72));
    }

    #[test]
    fn error_positions_exclude_declared_erasures() {
        let code = RsCode::per_block();
        let data = [0x42u8; 64];
        let clean = code.encode(&data);
        let mut w = clean.clone();
        // Two erased symbols (one genuinely wrong) plus one random error.
        w[3] ^= 0xFF;
        w[40] ^= 0x55;
        let mut scratch = RsScratch::new(&code);
        let view = code
            .decode_with_erasures_scratch(&mut w, &[3, 4], &mut scratch)
            .unwrap();
        assert_eq!(w, clean);
        assert_eq!(view.error_positions(), &[40]);
        assert_eq!(view.corrections().len(), 2);
    }

    #[test]
    fn closed_form_decode_leaves_no_stale_positions_in_a_reused_scratch() {
        // Four errors go through Berlekamp–Massey and fill the scratch;
        // the one- and two-error words after them take the closed forms,
        // which must report their own positions and nothing left over.
        let code = RsCode::per_block();
        let clean = code.encode(&[0x6Du8; 64]);
        let mut scratch = RsScratch::new(&code);
        for errors in [&[5, 22, 40, 71][..], &[33], &[70, 2]] {
            let mut w = clean.clone();
            for &p in errors {
                w[p] ^= 0x9C;
            }
            let view = code.decode_scratch(&mut w, &mut scratch).unwrap();
            let mut sorted = errors.to_vec();
            sorted.sort_unstable();
            assert_eq!(view.error_positions(), sorted);
            let fixes: Vec<(usize, u8)> = sorted.iter().map(|&p| (p, 0x9C)).collect();
            assert_eq!(view.corrections(), fixes);
            assert_eq!(w, clean);
        }
    }

    #[test]
    fn scratch_reuse_across_geometries_is_rejected_by_capacity() {
        // A scratch for a small code still decodes the geometry it was
        // built for after being used heavily.
        let code = RsCode::new(16, 4).unwrap();
        let mut scratch = RsScratch::new(&code);
        let data: Vec<u8> = (0..16).collect();
        let clean = code.encode(&data);
        for round in 0..10 {
            let mut w = clean.clone();
            w[(round * 3) % 20] ^= 0x11;
            let view = code.decode_scratch(&mut w, &mut scratch).unwrap();
            assert_eq!(view.num_corrections(), 1);
            assert_eq!(w, clean);
        }
    }
}
