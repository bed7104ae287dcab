//! Differential oracles: slow-but-obvious reference decoders.
//!
//! The production codecs decode with Berlekamp–Massey plus Chien/Forney
//! machinery; the references here use nothing but syndromes and Gaussian
//! elimination over the field, so they share no code path with what they
//! check:
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
//! * **BCH encode** — the definition: the parity of `d(x)` is
//!   `d(x)·x^r mod g(x)`, by bit-serial polynomial division
//!   ([`ref_bch_parity`]). The production encoder never divides; it
//!   XORs rows of a precomputed position table.
//!
//! Both production decoders also re-verify `is_codeword` after applying
//! corrections, and bounded-distance decoding within the packing radius
//! is unique — so the verdicts (and corrected words) must match
//! *exactly*, not just approximately. [`diff_bch`] and
//! [`diff_rs_erasures`] run both sides and report any divergence.

use pmck_bch::{BchCode, BchError, BchScratch, BitPoly, DecodePolicy, WordVerdict};
use pmck_gf::Gf2m;
use pmck_rs::{RsCode, RsError, RsScratch};

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

/// A reference decoder's verdict on an RS word with declared erasures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefRsOutcome {
    /// All syndromes zero: the word is already a codeword.
    Clean,
    /// A codeword agreeing with the word outside the erasures exists;
    /// these (sorted) `(position, xor magnitude)` pairs reach it.
    Corrected(Vec<(usize, u8)>),
    /// No codeword agrees with the word outside the erasures.
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
    let mut s = vec![0u32; 2 * code.t()]; // s[j-1] = S_j, j = 1..=2t
    code.syndromes_into(word, &mut s);
    if s.iter().all(|&x| x == 0) {
        return RefBchOutcome::Clean;
    }
    let f = code.field();
    let order = f.order() as u64;
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

/// Runs both production BCH decode entries (in the caller's `scratch`)
/// and the PGZ reference on `word` and checks they agree exactly:
/// `decode_scratch` on accept/reject and the flipped positions,
/// `decode_word` (bounded policy) on the verdict, and both on the word
/// they leave behind — corrected as the reference says, or unmodified
/// on a reject. Reusing one scratch across a whole campaign is the
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
                beyond_bound: false,
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
    let got = code.decode_word(&mut decoded, DecodePolicy::Bounded, scratch);
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
/// This is the encoder the workspace shipped before the position table;
/// it survives here as the table's reference.
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
