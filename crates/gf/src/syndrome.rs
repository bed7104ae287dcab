//! Precomputed multiplier row tables for syndrome evaluation over byte
//! fields (m ≤ 8).
//!
//! Horner evaluation of `R(alpha^j)` costs one field multiply per
//! codeword byte; through [`Gf2m::mul`] each multiply is two table
//! lookups plus two zero checks behind an `Arc` deref. For a fixed code
//! the Horner multiplier `alpha^j` never changes, so the whole multiply
//! collapses to a single 256-entry row lookup: `acc = row_j[acc] ^ byte`.
//! [`SyndromeRows`] builds one row per syndrome at construction time and
//! evaluates all `r` syndromes of a word with `r·n` lookups and zero heap
//! allocations. The lookups are branch-free but not independent: each
//! syndrome is a chain of `n` loads in which every address is the
//! previous load's result, and the `r` chains run one after another, so
//! the cost is `r` serial chains at load-to-use latency — about 1.15 ns
//! a lookup, 660 ns for the eight 72-step chains of RS(72, 64).

use crate::field::Gf2m;
use crate::gf256::Gf256;

/// Per-syndrome multiply-by-`alpha^j` row tables for a code over a byte
/// field: `rows[j-1][v] = v · alpha^j` for `j = 1..=r`.
///
/// # Examples
///
/// ```
/// use pmck_gf::{Gf2m, SyndromeRows};
///
/// let f = Gf2m::new(8).unwrap();
/// let rows = SyndromeRows::new(&f, 4);
/// let word = [0x12u8, 0x34, 0x56];
/// let mut s = [0u32; 4];
/// rows.syndromes_into(&word, &mut s);
/// for j in 1..=4u64 {
///     assert_eq!(s[(j - 1) as usize], {
///         let x = f.alpha_pow(j);
///         let mut acc = 0;
///         for &b in word.iter().rev() {
///             acc = f.mul(acc, x) ^ b as u32;
///         }
///         acc
///     });
/// }
/// ```
#[derive(Clone)]
pub struct SyndromeRows {
    rows: Vec<[u8; 256]>,
}

impl std::fmt::Debug for SyndromeRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyndromeRows")
            .field("r", &self.rows.len())
            .finish()
    }
}

impl SyndromeRows {
    /// Builds the `r` row tables for syndromes `S_1 .. S_r` of a code
    /// over `field`.
    ///
    /// # Panics
    ///
    /// Panics if the field degree exceeds 8 (symbols must be bytes).
    pub fn new(field: &Gf2m, r: usize) -> Self {
        assert!(
            field.degree() <= 8,
            "SyndromeRows requires a byte field (m <= 8), got m = {}",
            field.degree()
        );
        let size = field.size() as usize;
        let rows = (1..=r as u64)
            .map(|j| {
                let x = field.alpha_pow(j);
                let mut row = [0u8; 256];
                // Entries beyond the field size are unreachable from
                // valid symbols and stay zero.
                for (v, e) in row.iter_mut().enumerate().take(size) {
                    *e = field.mul(v as u32, x) as u8;
                }
                row
            })
            .collect();
        SyndromeRows { rows }
    }

    /// Builds the row tables for the fixed byte field [`Gf256`]
    /// (reduction polynomial `0x11D`, the per-block RS field).
    pub fn gf256(r: usize) -> Self {
        let rows = (1..=r as u64)
            .map(|j| {
                let x = Gf256::alpha_pow(j);
                let mut row = [0u8; 256];
                for (v, e) in row.iter_mut().enumerate() {
                    *e = (Gf256(v as u8) * x).to_byte();
                }
                row
            })
            .collect();
        SyndromeRows { rows }
    }

    /// The number of syndromes covered, `r`.
    pub fn count(&self) -> usize {
        self.rows.len()
    }

    /// The multiply-by-`alpha^j` row, `j = 1..=r` (1-indexed like the
    /// syndromes themselves).
    ///
    /// # Panics
    ///
    /// Panics if `j` is outside `1..=r`.
    pub fn row(&self, j: usize) -> &[u8; 256] {
        &self.rows[j - 1]
    }

    /// Evaluates `out[j-1] = word(alpha^j)` for `j = 1..=out.len()` via
    /// table-driven Horner. Returns `true` when every syndrome is zero
    /// (the word is a codeword), letting callers fast-path the clean
    /// case without a second scan.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() > r`.
    pub fn syndromes_into(&self, word: &[u8], out: &mut [u32]) -> bool {
        assert!(out.len() <= self.rows.len(), "more syndromes than rows");
        let mut nonzero = 0u32;
        for (j, slot) in out.iter_mut().enumerate() {
            let row = &self.rows[j];
            let mut acc = 0u8;
            for &b in word.iter().rev() {
                acc = row[acc as usize] ^ b;
            }
            *slot = acc as u32;
            nonzero |= acc as u32;
        }
        nonzero == 0
    }

    /// Whether every syndrome of `word` is zero, returning early on the
    /// first nonzero syndrome. Allocation-free.
    pub fn is_codeword(&self, word: &[u8]) -> bool {
        self.rows.iter().all(|row| {
            let mut acc = 0u8;
            for &b in word.iter().rev() {
                acc = row[acc as usize] ^ b;
            }
            acc == 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference Horner through the generic field multiply.
    fn slow_syndrome(f: &Gf2m, word: &[u8], j: u64) -> u32 {
        let x = f.alpha_pow(j);
        let mut acc = 0u32;
        for &b in word.iter().rev() {
            acc = f.mul(acc, x) ^ b as u32;
        }
        acc
    }

    #[test]
    fn rows_match_field_multiply() {
        let f = Gf2m::new(8).unwrap();
        let rows = SyndromeRows::new(&f, 8);
        for j in 1..=8usize {
            let x = f.alpha_pow(j as u64);
            let row = rows.row(j);
            for v in 0..256u32 {
                assert_eq!(row[v as usize] as u32, f.mul(v, x), "j={j} v={v}");
            }
        }
    }

    #[test]
    fn syndromes_match_generic_horner() {
        let f = Gf2m::new(8).unwrap();
        let rows = SyndromeRows::new(&f, 8);
        let word: Vec<u8> = (0..72).map(|i| (i * 37 + 5) as u8).collect();
        let mut s = [0u32; 8];
        let clean = rows.syndromes_into(&word, &mut s);
        assert!(!clean);
        for j in 1..=8u64 {
            assert_eq!(s[(j - 1) as usize], slow_syndrome(&f, &word, j), "j={j}");
        }
    }

    #[test]
    fn gf256_rows_agree_with_gf2m_default_poly() {
        // Gf256 and Gf2m::new(8) share the 0x11D reduction polynomial,
        // so their row tables must be identical.
        let f = Gf2m::new(8).unwrap();
        let a = SyndromeRows::new(&f, 6);
        let b = SyndromeRows::gf256(6);
        for j in 1..=6 {
            assert_eq!(a.row(j)[..], b.row(j)[..], "j={j}");
        }
    }

    #[test]
    fn zero_word_is_codeword() {
        let rows = SyndromeRows::gf256(8);
        let word = [0u8; 72];
        let mut s = [0u32; 8];
        assert!(rows.syndromes_into(&word, &mut s));
        assert_eq!(s, [0u32; 8]);
        assert!(rows.is_codeword(&word));
        let mut dirty = word;
        dirty[13] = 1;
        assert!(!rows.is_codeword(&dirty));
    }

    #[test]
    fn smaller_field_supported() {
        let f = Gf2m::new(4).unwrap();
        let rows = SyndromeRows::new(&f, 3);
        let word: Vec<u8> = vec![0x3, 0x7, 0xC, 0x1];
        let mut s = [0u32; 3];
        rows.syndromes_into(&word, &mut s);
        for j in 1..=3u64 {
            assert_eq!(s[(j - 1) as usize], slow_syndrome(&f, &word, j), "j={j}");
        }
    }

    #[test]
    #[should_panic(expected = "byte field")]
    fn wide_field_rejected() {
        let f = Gf2m::new(12).unwrap();
        let _ = SyndromeRows::new(&f, 2);
    }
}
