//! Differential oracles: slow-but-obvious reference decoders.
//!
//! The production codecs decode with Berlekamp–Massey plus Chien/Forney
//! machinery; the references here use nothing but syndromes and Gaussian
//! elimination over the field — for BCH the syndromes too are the
//! reference's own, `word(α^j)` one set bit at a time — so they share no
//! code path with what they check:
//!
//! * **BCH** — Peterson–Gorenstein–Zierler: for ν from t down to 1,
//!   solve the ν×ν syndrome system for the error locator, find its roots
//!   by direct polynomial evaluation at every position, and accept only
//!   if the flipped word re-verifies as a codeword.
//! * **RS erasure-only** — the erasure magnitudes are the unique
//!   solution of the r×ν Vandermonde system `Σ e_p α^{j·p} = S_j`;
//!   solve it directly and accept only if consistent and the patched
//!   word re-verifies.
//!
//! * **RS one and two errors** — exhaustive search: every position,
//!   then every pair of positions, magnitudes from `S_1` and `S_2`,
//!   accepted only if the pattern reproduces all `r` syndromes
//!   ([`ref_rs_small_decode`]). The production decoder finds the same
//!   patterns in closed form, without trying any position.
//! * **BCH encode** — the definition: the parity of `d(x)` is
//!   `d(x)·x^r mod g(x)`, by bit-serial polynomial division
//!   ([`ref_bch_parity`]). The production encoder never divides; it
//!   XORs entries of a precomputed nibble table.
//! * **RS encode** — the same definition over GF(2^8), by
//!   [`FieldPoly`] long division ([`ref_rs_parity`]); the production
//!   encoder looks up feedback tables.
//!
//! Both production decoders also re-verify `is_codeword` after applying
//! corrections, and bounded-distance decoding within the packing radius
//! is unique — so the verdicts (and corrected words) must match
//! *exactly*, not just approximately. [`diff_bch`] and
//! [`diff_rs_erasures`] run both sides and report any divergence;
//! [`diff_rs_small`] does the same for the runtime decode at every
//! acceptance threshold.

use pmck_bch::{BchCode, BchError, BchScratch, BitPoly, WordVerdict};
use pmck_gf::{FieldPoly, Gf2m};
use pmck_rs::{RejectReason, RsCode, RsError, RsScratch, ThresholdOutcome};

/// A reference decoder's verdict on a BCH word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefBchOutcome {
    /// All syndromes zero: the word is already a codeword.
    Clean,
    /// A codeword within distance t exists; flipping these (sorted)
    /// positions reaches it.
    Corrected(Vec<usize>),
    /// No codeword within distance t.
    Uncorrectable,
}

/// A reference decoder's verdict on an RS word: within its search
/// space — the declared erasures for [`ref_rs_erasure_decode`], any one
/// or two positions for [`ref_rs_small_decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefRsOutcome {
    /// All syndromes zero: the word is already a codeword.
    Clean,
    /// A codeword differing from the word only inside the search space
    /// exists; these (sorted) `(position, xor magnitude)` pairs reach it.
    Corrected(Vec<(usize, u8)>),
    /// No codeword differs from the word only inside the search space.
    Uncorrectable,
}

/// Outcome of Gaussian elimination over GF(2^m).
enum LinearSolution {
    Unique(Vec<u32>),
    Underdetermined,
    Inconsistent,
}

/// Solves `A·x = b` over GF(2^m) by forward elimination with row
/// pivoting and back-substitution. `a` is rows×cols (rows ≥ 0, possibly
/// overdetermined).
fn solve(f: &Gf2m, mut a: Vec<Vec<u32>>, mut b: Vec<u32>) -> LinearSolution {
    let rows = a.len();
    let cols = if rows == 0 { 0 } else { a[0].len() };
    let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
    let mut pivot_row = 0usize;
    for col in 0..cols {
        let Some(r) = (pivot_row..rows).find(|&r| a[r][col] != 0) else {
            continue;
        };
        a.swap(pivot_row, r);
        b.swap(pivot_row, r);
        let pivot = a[pivot_row][col];
        for r2 in pivot_row + 1..rows {
            if a[r2][col] != 0 {
                let factor = f.div(a[r2][col], pivot).expect("pivot nonzero");
                let (upper, lower) = a.split_at_mut(r2);
                for (dst, &src) in lower[0][col..].iter_mut().zip(&upper[pivot_row][col..]) {
                    *dst ^= f.mul(factor, src);
                }
                b[r2] ^= f.mul(factor, b[pivot_row]);
            }
        }
        pivots.push((pivot_row, col));
        pivot_row += 1;
        if pivot_row == rows {
            break;
        }
    }
    // Rows below the last pivot now have all-zero coefficients; a
    // nonzero right-hand side there means the system has no solution.
    if b[pivots.len()..rows].iter().any(|&rhs| rhs != 0) {
        return LinearSolution::Inconsistent;
    }
    if pivots.len() < cols {
        return LinearSolution::Underdetermined;
    }
    let mut x = vec![0u32; cols];
    for &(r, c) in pivots.iter().rev() {
        let mut acc = b[r];
        for c2 in c + 1..cols {
            if a[r][c2] != 0 {
                acc ^= f.mul(a[r][c2], x[c2]);
            }
        }
        x[c] = f.div(acc, a[r][c]).expect("pivot nonzero");
    }
    LinearSolution::Unique(x)
}

/// PGZ reference decode: the verdict any correct bounded-distance BCH
/// decoder must reach on `word`.
///
/// # Panics
///
/// Panics if `word.len() != code.len()`.
pub fn ref_bch_decode(code: &BchCode, word: &BitPoly) -> RefBchOutcome {
    // s[j-1] = S_j = word(α^j), j = 1..=2t, by the definition: one
    // power of α per set bit. The production entry gets them from the
    // 33-byte difference between stored and re-encoded code bits; the
    // campaigns that compare the two decoders compare that shortcut too.
    let f = code.field();
    let order = f.order() as u64;
    let s: Vec<u32> = (1..=2 * code.t() as u64)
        .map(|j| {
            word.iter_ones()
                .fold(0, |acc, p| acc ^ f.alpha_pow(j * p as u64 % order))
        })
        .collect();
    if s.iter().all(|&x| x == 0) {
        return RefBchOutcome::Clean;
    }
    for nu in (1..=code.t()).rev() {
        // Newton identities over GF(2): for k = ν+1..=2ν,
        //   Σ_{j=1..ν} σ_j · S_{k−j} = S_k.
        let a: Vec<Vec<u32>> = (0..nu)
            .map(|i| {
                let k = nu + 1 + i;
                (1..=nu).map(|j| s[k - j - 1]).collect()
            })
            .collect();
        let b: Vec<u32> = (0..nu).map(|i| s[nu + i]).collect();
        let LinearSolution::Unique(coeffs) = solve(f, a, b) else {
            continue;
        };
        // sigma(z) = 1 + σ_1 z + … + σ_ν z^ν; roots at α^{−p} locate
        // errors at position p.
        let mut sigma = vec![1u32];
        sigma.extend(coeffs);
        let mut roots: Vec<usize> = Vec::new();
        for p in 0..code.len() {
            let x_inv = f.alpha_pow(order - (p as u64 % order));
            if f.eval_poly(&sigma, x_inv) == 0 {
                roots.push(p);
            }
        }
        if roots.len() != nu {
            continue;
        }
        let mut candidate = word.clone();
        for &p in &roots {
            candidate.flip(p);
        }
        if code.is_codeword(&candidate) {
            return RefBchOutcome::Corrected(roots);
        }
    }
    RefBchOutcome::Uncorrectable
}

/// Erasure-only RS reference decode: the verdict any correct strict
/// erasure decoder must reach on `word` with the given distinct,
/// in-range `erasures`.
///
/// # Panics
///
/// Panics if `word.len() != code.len()`, or on out-of-range or
/// duplicate erasure positions, or if `erasures.len() > r`.
pub fn ref_rs_erasure_decode(code: &RsCode, word: &[u8], erasures: &[usize]) -> RefRsOutcome {
    assert!(erasures.len() <= code.check_symbols(), "too many erasures");
    let mut seen = vec![false; code.len()];
    for &p in erasures {
        assert!(p < code.len() && !seen[p], "bad erasure position {p}");
        seen[p] = true;
    }
    let mut s = vec![0u32; code.check_symbols()]; // s[j-1] = S_j, j = 1..=r
    code.syndromes_into(word, &mut s);
    if s.iter().all(|&x| x == 0) {
        return RefRsOutcome::Clean;
    }
    if erasures.is_empty() {
        return RefRsOutcome::Uncorrectable;
    }
    let f = code.field();
    let order = f.order() as u64;
    // S_j = Σ_l e_{p_l} · α^{j·p_l}: an r×ν Vandermonde-like system in
    // the erasure magnitudes. Distinct positions give full column rank,
    // so the system is either uniquely solvable or inconsistent (a
    // residual error outside the erasures).
    let a: Vec<Vec<u32>> = (0..code.check_symbols())
        .map(|i| {
            erasures
                .iter()
                .map(|&p| f.alpha_pow(((i as u64 + 1) * p as u64) % order))
                .collect()
        })
        .collect();
    let LinearSolution::Unique(magnitudes) = solve(f, a, s) else {
        return RefRsOutcome::Uncorrectable;
    };
    let mut candidate = word.to_vec();
    let mut corrections: Vec<(usize, u8)> = Vec::new();
    for (&p, &m) in erasures.iter().zip(&magnitudes) {
        if m != 0 {
            candidate[p] ^= m as u8;
            corrections.push((p, m as u8));
        }
    }
    if !code.is_codeword(&candidate) {
        return RefRsOutcome::Uncorrectable;
    }
    corrections.sort_unstable_by_key(|&(p, _)| p);
    RefRsOutcome::Corrected(corrections)
}

/// One- and two-error RS reference decode: the codeword within Hamming
/// distance 2 of `word`, found by trying every position and then every
/// pair of positions. For a pair `p < q` with locators `X = α^p`,
/// `Y = α^q`, the magnitudes solve `e_p·X + e_q·Y = S_1`,
/// `e_p·X² + e_q·Y² = S_2`; a candidate counts only if it reproduces
/// every one of the `r` syndromes. Codes with `r ≥ 4` have at most one
/// such codeword.
///
/// # Panics
///
/// Panics if `word.len() != code.len()`.
pub fn ref_rs_small_decode(code: &RsCode, word: &[u8]) -> RefRsOutcome {
    let mut s = vec![0u32; code.check_symbols()]; // s[j-1] = S_j
    if code.syndromes_into(word, &mut s) {
        return RefRsOutcome::Clean;
    }
    let f = code.field();
    let locators: Vec<u32> = (0..code.len() as u64).map(|p| f.alpha_pow(p)).collect();
    // From S_r down: S_1 and S_2 hold by construction, so a wrong
    // candidate is dismissed at its first check rather than its third.
    let explains = |pattern: &[(usize, u32)]| {
        s.iter().enumerate().rev().all(|(i, &sj)| {
            let at_root = pattern
                .iter()
                .map(|&(p, e)| f.mul(e, f.pow(locators[p], i as u64 + 1)));
            at_root.fold(0, |a, b| a ^ b) == sj
        })
    };
    let found = |pattern: &[(usize, u32)]| {
        RefRsOutcome::Corrected(pattern.iter().map(|&(p, e)| (p, e as u8)).collect())
    };
    for (p, &x) in locators.iter().enumerate() {
        let single = [(p, f.div(s[0], x).expect("locators are nonzero"))];
        if explains(&single) {
            return found(&single);
        }
    }
    for (p, &x) in locators.iter().enumerate() {
        for (q, &y) in locators.iter().enumerate().skip(p + 1) {
            let solve = |x, y| f.div(s[1] ^ f.mul(s[0], y), f.mul(x, x ^ y));
            let (ep, eq) = (solve(x, y), solve(y, x));
            let pair = [
                (p, ep.expect("distinct nonzero locators")),
                (q, eq.expect("distinct nonzero locators")),
            ];
            if pair.iter().all(|&(_, e)| e != 0) && explains(&pair) {
                return found(&pair);
            }
        }
    }
    RefRsOutcome::Uncorrectable
}

/// Runs both production BCH decode entries (in the caller's `scratch`)
/// and the PGZ reference on `word` and checks they agree exactly:
/// `decode_scratch` on accept/reject and the flipped positions,
/// `decode_word` on the verdict, and both on the word they leave
/// behind — corrected as the reference says, or unmodified on a reject. Reusing one scratch across a whole campaign is the
/// point: state leaking between decodes would show up as a divergence
/// from the stateless reference.
///
/// # Errors
///
/// Returns a description of the divergence, suitable as a property
/// failure message.
pub fn diff_bch(code: &BchCode, word: &BitPoly, scratch: &mut BchScratch) -> Result<(), String> {
    let reference = ref_bch_decode(code, word);
    let (flips, verdict): (&[usize], _) = match &reference {
        RefBchOutcome::Clean => (&[], WordVerdict::Clean),
        RefBchOutcome::Corrected(positions) => (
            positions,
            WordVerdict::Corrected {
                bits: positions.len(),
            },
        ),
        RefBchOutcome::Uncorrectable => (&[], WordVerdict::Uncorrectable),
    };
    let mut expect = word.clone();
    for &p in flips {
        expect.flip(p);
    }

    let mut decoded = word.clone();
    let production = code
        .decode_scratch(&mut decoded, scratch)
        .map(|view| view.corrected_bits().to_vec());
    let agrees = match &production {
        Ok(bits) => reference != RefBchOutcome::Uncorrectable && bits == flips,
        Err(e) => reference == RefBchOutcome::Uncorrectable && *e == BchError::Uncorrectable,
    };
    if !agrees || decoded != expect {
        return Err(format!(
            "BCH divergence, in the verdict or the word left behind: \
             reference {reference:?} vs decode_scratch {production:?}"
        ));
    }

    let mut decoded = word.clone();
    let got = code.decode_word(&mut decoded, scratch);
    if got != verdict || decoded != expect {
        return Err(format!(
            "BCH divergence, in the verdict or the word left behind: \
             reference {reference:?} vs decode_word {got:?}"
        ));
    }
    Ok(())
}

/// The BCH parity of `data` by definition: the remainder of
/// `data(x) · x^r` on division by the generator, computed bit-serially.
/// This is the encoder the workspace shipped before its encode tables;
/// it survives here as their reference.
///
/// # Panics
///
/// Panics if `data.len() != code.data_bits()`.
pub fn ref_bch_parity(code: &BchCode, data: &BitPoly) -> BitPoly {
    assert_eq!(data.len(), code.data_bits(), "data length mismatch");
    let mut shifted = BitPoly::zero(code.len());
    shifted.splice(code.parity_bits(), data);
    let rem = shifted.rem(code.generator());
    let mut parity = BitPoly::zero(code.parity_bits());
    for i in rem.iter_ones() {
        parity.set(i, true);
    }
    parity
}

/// The RS check bytes of `data` by definition: the remainder of
/// `data(x) · x^r` on long division by the (monic) generator.
///
/// # Panics
///
/// Panics if `data.len() != code.data_symbols()`.
pub fn ref_rs_parity(code: &RsCode, data: &[u8]) -> Vec<u8> {
    assert_eq!(data.len(), code.data_symbols(), "data length mismatch");
    let (g, r) = (code.generator(), code.check_symbols());
    let coeffs = data.iter().map(|&b| u32::from(b)).collect();
    let mut rem = FieldPoly::from_coeffs(code.field(), coeffs).shift(r);
    while let Some(d) = rem.degree().filter(|&d| d >= r) {
        rem = rem.add(&g.scale(rem.coeff(d)).shift(d - r));
    }
    (0..r).map(|i| rem.coeff(i) as u8).collect()
}

/// Checks [`RsCode::parity_into`] (into a dirty buffer: it overwrites)
/// and [`RsCode::encode`] on `data` against [`ref_rs_parity`].
///
/// # Errors
///
/// Returns a description of the divergence, suitable as a property
/// failure message.
pub fn diff_rs_parity(code: &RsCode, data: &[u8]) -> Result<(), String> {
    let reference = ref_rs_parity(code, data);
    let mut check = vec![0xA5u8; code.check_symbols()];
    code.parity_into(data, &mut check);
    let cw = code.encode(data);
    if check != reference || cw[..reference.len()] != reference[..] {
        return Err(format!(
            "RS({}, {}) encode: parity_into {check:?}, encode {:?}, by division {reference:?}",
            code.len(),
            data.len(),
            &cw[..reference.len()]
        ));
    }
    Ok(())
}

/// Runs every production encode entry on the word that is zero but for
/// `bytes` at data bit `bit_offset` and checks each against
/// [`ref_bch_parity`]: [`BchCode::parity`] on the assembled word, the
/// sparse [`BchCode::parity_delta_into`] on the bytes alone, and — when
/// the bytes are the whole word — [`BchCode::parity_bytes_into`].
///
/// # Errors
///
/// Returns a description of the divergence, suitable as a property
/// failure message.
pub fn diff_bch_encode(code: &BchCode, bit_offset: usize, bytes: &[u8]) -> Result<(), String> {
    let mut word = BitPoly::zero(code.data_bits());
    word.splice(bit_offset, &BitPoly::from_bytes(bytes));
    let reference = ref_bch_parity(code, &word);
    if code.parity(&word) != reference {
        return Err(format!(
            "BCH encode: parity() diverges at offset {bit_offset}"
        ));
    }
    // Dirty on purpose: the `_into` entries overwrite their output.
    let mut limbs = vec![u64::MAX; code.parity_limbs()];
    code.parity_delta_into(bit_offset, bytes, &mut limbs);
    if limbs != reference.limbs() {
        return Err(format!(
            "BCH encode: parity_delta_into() diverges at offset {bit_offset}"
        ));
    }
    if bit_offset == 0 && bytes.len() * 8 == code.data_bits() {
        limbs.fill(u64::MAX);
        code.parity_bytes_into(bytes, &mut limbs);
        if limbs != reference.limbs() {
            return Err("BCH encode: parity_bytes_into() diverges".into());
        }
    }
    Ok(())
}

/// [`diff_bch`] on every word of a batch in turn through one shared
/// scratch — the shape of a stripe decode, where clean, correctable and
/// overweight words interleave.
///
/// # Errors
///
/// Returns a description of the first divergence, suitable as a property
/// failure message.
pub fn diff_bch_batch(
    code: &BchCode,
    words: &[BitPoly],
    scratch: &mut BchScratch,
) -> Result<(), String> {
    words.iter().enumerate().try_for_each(|(i, word)| {
        diff_bch(code, word, scratch).map_err(|e| format!("batch word {i}: {e}"))
    })
}

/// Runs the production strict erasure decoder
/// (`decode_erasures_scratch`, in the caller's `scratch`) and the
/// linear-system reference on `word` and checks the verdicts agree
/// exactly — same accept/reject, same correction list, and (on reject)
/// the production word left unmodified.
///
/// # Errors
///
/// Returns a description of the divergence, suitable as a property
/// failure message.
pub fn diff_rs_erasures(
    code: &RsCode,
    word: &[u8],
    erasures: &[usize],
    scratch: &mut RsScratch,
) -> Result<(), String> {
    let reference = ref_rs_erasure_decode(code, word, erasures);
    let mut prod_word = word.to_vec();
    let production = code.decode_erasures_scratch(&mut prod_word, erasures, scratch);
    match (&reference, &production) {
        (RefRsOutcome::Clean, Ok(out)) if out.was_clean() => Ok(()),
        (RefRsOutcome::Corrected(corrections), Ok(out))
            if !out.was_clean() && out.corrections() == &corrections[..] =>
        {
            Ok(())
        }
        (RefRsOutcome::Uncorrectable, Err(RsError::Uncorrectable)) => {
            if prod_word == word {
                Ok(())
            } else {
                Err("RS: production reported Uncorrectable but modified the word".into())
            }
        }
        _ => Err(format!(
            "RS erasure divergence: reference {:?} vs production {:?}",
            reference,
            production.as_ref().map(|o| o.corrections().to_vec())
        )),
    }
}

/// Runs the production runtime decode on `word` — [`RsCode::decode_scratch`]
/// and [`RsCode::decode_with_threshold_scratch`] at thresholds `0..=4`,
/// all in the caller's `scratch` — against [`ref_rs_small_decode`].
///
/// Where the reference finds a codeword within distance 2 the full
/// decode must report exactly its corrections, the same positions as
/// `error_positions()`, and leave that codeword behind; where it finds
/// none, the full decode must either refuse (word untouched) or land on
/// a codeword 3 to `⌊r/2⌋` symbols away that differs from the word
/// exactly at the corrections it reports. Each threshold decode must then
/// be the full decode's answer filtered by the threshold.
///
/// # Errors
///
/// Returns a description of the divergence, suitable as a property
/// failure message.
pub fn diff_rs_small(code: &RsCode, word: &[u8], scratch: &mut RsScratch) -> Result<(), String> {
    let reference = ref_rs_small_decode(code, word);
    let mut decoded = word.to_vec();
    let full = code.decode_scratch(&mut decoded, scratch).map(|view| {
        let positions: Vec<usize> = view.corrections().iter().map(|&(p, _)| p).collect();
        (view.error_positions() == positions).then(|| view.corrections().to_vec())
    });
    let corrections = match (&reference, full) {
        (_, Ok(None)) => return Err("RS: error_positions() disagrees with corrections()".into()),
        (_, Err(e)) if e != RsError::Uncorrectable => return Err(format!("RS: {e}")),
        (RefRsOutcome::Clean, Ok(Some(c))) if c.is_empty() => Some(c),
        (RefRsOutcome::Corrected(expect), Ok(Some(c))) if c == *expect => Some(c),
        (RefRsOutcome::Uncorrectable, Ok(Some(c)))
            if (3..=code.max_random_errors()).contains(&c.len())
                && c.windows(2).all(|w| w[0].0 < w[1].0)
                && code.is_codeword(&decoded) =>
        {
            Some(c)
        }
        (RefRsOutcome::Uncorrectable, Err(_)) => None,
        (_, full) => {
            return Err(format!(
                "RS small-decode divergence: reference {reference:?} vs decode_scratch {full:?}"
            ))
        }
    };
    let mut expect = word.to_vec();
    for &(p, m) in corrections.iter().flatten() {
        expect[p] ^= m;
    }
    if decoded != expect || corrections.iter().flatten().any(|&(_, m)| m == 0) {
        return Err(format!(
            "RS: decode_scratch reported {corrections:?} but left a different word behind"
        ));
    }
    for threshold in 0..=4 {
        let (verdict, left) = match &corrections {
            None => (
                ThresholdOutcome::Rejected(RejectReason::Uncorrectable),
                word,
            ),
            Some(c) if c.is_empty() => (ThresholdOutcome::Clean, word),
            Some(c) if c.len() <= threshold => (
                ThresholdOutcome::Accepted {
                    corrections: c.len(),
                },
                &expect[..],
            ),
            Some(c) => (
                ThresholdOutcome::Rejected(RejectReason::TooManyCorrections(c.len())),
                word,
            ),
        };
        let mut w = word.to_vec();
        let got = code.decode_with_threshold_scratch(&mut w, threshold, scratch);
        if got.as_ref() != Ok(&verdict) || w != left {
            return Err(format!(
                "RS threshold {threshold}: expected {verdict:?}, got {got:?} (or the wrong word \
                 left behind); reference {reference:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_rt::rng::{Rng, StdRng};

    #[test]
    fn linear_solver_solves_a_known_system() {
        let f = Gf2m::new(8).unwrap();
        // x0 = 5, x1 = 9 under a full-rank 2x2 system.
        let a = vec![vec![1, 2], vec![3, 1]];
        let x = vec![5u32, 9];
        let b: Vec<u32> = a
            .iter()
            .map(|row| f.mul(row[0], x[0]) ^ f.mul(row[1], x[1]))
            .collect();
        match solve(&f, a, b) {
            LinearSolution::Unique(got) => assert_eq!(got, x),
            _ => panic!("system must be uniquely solvable"),
        }
    }

    #[test]
    fn linear_solver_flags_inconsistency() {
        let f = Gf2m::new(8).unwrap();
        // Duplicate rows with different right-hand sides.
        let a = vec![vec![1, 2], vec![1, 2], vec![0, 1]];
        let b = vec![1u32, 2, 3];
        assert!(matches!(solve(&f, a, b), LinearSolution::Inconsistent));
    }

    #[test]
    fn ref_bch_corrects_what_it_should() {
        let code = BchCode::new(8, 3, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut data = vec![0u8; 8];
        rng.fill_bytes(&mut data);
        let cw = code.encode_bytes(&data);
        assert_eq!(ref_bch_decode(&code, &cw), RefBchOutcome::Clean);
        let mut word = cw.clone();
        word.flip(3);
        word.flip(40);
        assert_eq!(
            ref_bch_decode(&code, &word),
            RefBchOutcome::Corrected(vec![3, 40])
        );
    }

    #[test]
    fn ref_rs_parity_makes_codewords() {
        let code = RsCode::new(11, 5).unwrap();
        let data: Vec<u8> = (0..11).map(|i| i * 23 + 1).collect();
        let mut cw = ref_rs_parity(&code, &data);
        cw.extend_from_slice(&data);
        assert!(code.is_codeword(&cw));
    }

    #[test]
    fn ref_rs_small_decode_finds_one_and_two_errors_only() {
        let code = RsCode::per_block();
        let cw = code.encode(&[0x3Cu8; 64]);
        assert_eq!(ref_rs_small_decode(&code, &cw), RefRsOutcome::Clean);
        let mut word = cw.clone();
        word[71] ^= 0x80;
        assert_eq!(
            ref_rs_small_decode(&code, &word),
            RefRsOutcome::Corrected(vec![(71, 0x80)])
        );
        word[0] ^= 0x01;
        assert_eq!(
            ref_rs_small_decode(&code, &word),
            RefRsOutcome::Corrected(vec![(0, 0x01), (71, 0x80)])
        );
        word[40] ^= 0x17;
        assert_eq!(
            ref_rs_small_decode(&code, &word),
            RefRsOutcome::Uncorrectable
        );
    }

    #[test]
    fn ref_rs_recovers_erasure_magnitudes() {
        let code = RsCode::per_block();
        let mut rng = StdRng::seed_from_u64(10);
        let mut data = vec![0u8; 64];
        rng.fill_bytes(&mut data);
        let cw = code.encode(&data);
        assert_eq!(
            ref_rs_erasure_decode(&code, &cw, &[2, 7]),
            RefRsOutcome::Clean
        );
        let mut word = cw.clone();
        word[2] ^= 0x5a;
        word[7] ^= 0x01;
        assert_eq!(
            ref_rs_erasure_decode(&code, &word, &[2, 7]),
            RefRsOutcome::Corrected(vec![(2, 0x5a), (7, 0x01)])
        );
        // An undeclared error makes the system inconsistent.
        word[30] ^= 0xff;
        assert_eq!(
            ref_rs_erasure_decode(&code, &word, &[2, 7]),
            RefRsOutcome::Uncorrectable
        );
    }
}
