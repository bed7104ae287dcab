//! RS code construction and systematic encoding.

use pmck_gf::{FieldPoly, Gf2m, SyndromeRows};

use crate::error::RsError;

/// A systematic Reed-Solomon code RS(n, k) over GF(2^8) with `r = n − k`
/// check symbols and minimum distance `d = r + 1`.
///
/// Code roots are `alpha^1 .. alpha^r` (first consecutive root 1). The
/// codeword vector is indexed by polynomial degree:
///
/// ```text
/// [0 .. r)    check bytes
/// [r .. n)    data bytes (data[i] at position r + i)
/// ```
///
/// # Examples
///
/// ```
/// use pmck_rs::RsCode;
///
/// let code = RsCode::per_block(); // RS(72, 64), the paper's per-block code
/// assert_eq!(code.check_symbols(), 8);
/// assert_eq!(code.min_distance(), 9);
/// assert_eq!(code.max_random_errors(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct RsCode {
    pub(crate) field: Gf2m,
    pub(crate) k: usize,
    pub(crate) r: usize,
    pub(crate) generator: FieldPoly,
    /// Precomputed multiply-by-`alpha^j` rows: the syndrome hot-path
    /// kernel (one table lookup per byte instead of log/exp multiplies).
    pub(crate) rows: SyndromeRows,
}

impl RsCode {
    /// Constructs RS(k + r, k) over GF(2^8).
    ///
    /// # Errors
    ///
    /// * [`RsError::DegenerateParameters`] if `k == 0` or `r == 0`.
    /// * [`RsError::CodeTooLong`] if `k + r > 255`.
    pub fn new(k: usize, r: usize) -> Result<Self, RsError> {
        if k == 0 || r == 0 {
            return Err(RsError::DegenerateParameters);
        }
        if k + r > 255 {
            return Err(RsError::CodeTooLong(k, r));
        }
        let field = Gf2m::new(8).expect("GF(2^8) is supported");
        // g(x) = prod_{j=1..r} (x + alpha^j)
        let mut generator = FieldPoly::one(&field);
        for j in 1..=r as u64 {
            let root = field.alpha_pow(j);
            generator = generator.mul(&FieldPoly::from_coeffs(&field, vec![root, 1]));
        }
        let rows = SyndromeRows::new(&field, r);
        Ok(RsCode {
            field,
            k,
            r,
            generator,
            rows,
        })
    }

    /// The paper's per-block code: RS(72, 64) — 64 data bytes (one memory
    /// block) plus 8 check bytes (the parity chip's contribution).
    pub fn per_block() -> Self {
        RsCode::new(64, 8).expect("per-block parameters are valid")
    }

    /// Number of data symbols `k`.
    pub fn data_symbols(&self) -> usize {
        self.k
    }

    /// Number of check symbols `r`.
    pub fn check_symbols(&self) -> usize {
        self.r
    }

    /// Codeword length `n = k + r`.
    pub fn len(&self) -> usize {
        self.k + self.r
    }

    /// Whether the codeword length is zero (never true for a valid code).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum Hamming distance `d = r + 1`.
    pub fn min_distance(&self) -> usize {
        self.r + 1
    }

    /// Maximum number of random symbol errors correctable, `⌊r/2⌋`.
    pub fn max_random_errors(&self) -> usize {
        self.r / 2
    }

    /// Maximum number of erasures correctable (with no errors), `d − 1 = r`.
    pub fn max_erasures(&self) -> usize {
        self.r
    }

    /// Encodes `data` (exactly `k` bytes) into an `n`-byte codeword:
    /// check bytes in `[0, r)`, data in `[r, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "need exactly {} data bytes", self.k);
        let mut cw = vec![0u8; self.len()];
        let (check, body) = cw.split_at_mut(self.r);
        body.copy_from_slice(data);
        self.parity_into(data, check);
        cw
    }

    /// Computes the `r` check bytes for `data`, `(d(x)·x^r) mod g(x)`,
    /// into `out`, without allocating. The LFSR register lives on the
    /// stack (`n ≤ 255`, so `r < 255` always fits).
    ///
    /// Like all linear codes, `parity(a ⊕ b) = parity(a) ⊕ parity(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or `out.len() != r`.
    pub fn parity_into(&self, data: &[u8], out: &mut [u8]) {
        assert_eq!(data.len(), self.k, "need exactly {} data bytes", self.k);
        assert_eq!(out.len(), self.r, "parity buffer length mismatch");
        // Synthetic LFSR division: process data from the highest degree
        // (last byte of `data` = degree n−1) down.
        let f = &self.field;
        let g = self.generator.coeffs(); // g[r] == 1
        let mut reg_buf = [0u32; 255];
        let reg = &mut reg_buf[..self.r];
        for &byte in data.iter().rev() {
            let feedback = reg[self.r - 1] ^ byte as u32;
            for i in (1..self.r).rev() {
                reg[i] = reg[i - 1] ^ f.mul(feedback, g[i]);
            }
            reg[0] = f.mul(feedback, g[0]);
        }
        for (o, &v) in out.iter_mut().zip(reg.iter()) {
            *o = v as u8;
        }
    }

    /// Whether `cw` is a valid codeword (all syndromes zero).
    /// Allocation-free, exiting early on the first nonzero syndrome.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n`.
    pub fn is_codeword(&self, cw: &[u8]) -> bool {
        assert_eq!(cw.len(), self.len(), "codeword length mismatch");
        self.rows.is_codeword(cw)
    }

    /// Computes all `r` syndromes `S_j = R(alpha^j)`, `j = 1..=r`, into
    /// `out` (`out[j-1] = S_j`) via the precomputed row tables, without
    /// allocating. Returns `true` when every syndrome is zero, i.e. `cw`
    /// is already a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n` or `out.len() != r`.
    pub fn syndromes_into(&self, cw: &[u8], out: &mut [u32]) -> bool {
        assert_eq!(cw.len(), self.len(), "codeword length mismatch");
        assert_eq!(out.len(), self.r, "syndrome buffer length mismatch");
        self.rows.syndromes_into(cw, out)
    }

    /// The underlying field GF(2^8).
    pub fn field(&self) -> &Gf2m {
        &self.field
    }

    /// The generator polynomial g(x).
    pub fn generator(&self) -> &FieldPoly {
        &self.generator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_block_geometry() {
        let code = RsCode::per_block();
        assert_eq!(code.len(), 72);
        assert_eq!(code.data_symbols(), 64);
        assert_eq!(code.min_distance(), 9);
        assert_eq!(code.max_random_errors(), 4);
        assert_eq!(code.max_erasures(), 8);
        assert_eq!(
            code.generator.degree(),
            Some(8),
            "generator degree equals r"
        );
    }

    #[test]
    fn invalid_parameters() {
        assert_eq!(
            RsCode::new(0, 8).unwrap_err(),
            RsError::DegenerateParameters
        );
        assert_eq!(
            RsCode::new(8, 0).unwrap_err(),
            RsError::DegenerateParameters
        );
        assert_eq!(
            RsCode::new(250, 6).unwrap_err(),
            RsError::CodeTooLong(250, 6)
        );
    }

    #[test]
    fn encode_yields_valid_codeword() {
        let code = RsCode::per_block();
        let data: Vec<u8> = (0..64).map(|i| (i * 37 + 11) as u8).collect();
        let cw = code.encode(&data);
        assert!(code.is_codeword(&cw));
        assert_eq!(cw[code.check_symbols()..], data);
    }

    #[test]
    fn zero_data_is_zero_codeword() {
        let code = RsCode::new(16, 4).unwrap();
        let cw = code.encode(&[0u8; 16]);
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn parity_is_linear() {
        let code = RsCode::per_block();
        let a: Vec<u8> = (0..64).map(|i| (i * 7) as u8).collect();
        let b: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let (mut pa, mut pb, mut pab) = ([0u8; 8], [0u8; 8], [0u8; 8]);
        code.parity_into(&a, &mut pa);
        code.parity_into(&b, &mut pb);
        code.parity_into(&ab, &mut pab);
        for i in 0..8 {
            assert_eq!(pa[i] ^ pb[i], pab[i]);
        }
    }

    #[test]
    fn any_single_byte_change_invalidates() {
        let code = RsCode::new(12, 4).unwrap();
        let data: Vec<u8> = (0..12).collect();
        let cw = code.encode(&data);
        for i in 0..cw.len() {
            let mut bad = cw.clone();
            bad[i] ^= 0x01;
            assert!(!code.is_codeword(&bad), "position {i}");
        }
    }

    #[test]
    fn generator_roots_are_alpha_powers() {
        let code = RsCode::new(32, 6).unwrap();
        let f = code.field();
        for j in 1..=6u64 {
            assert_eq!(code.generator().eval(f.alpha_pow(j)), 0, "alpha^{j}");
        }
        assert_ne!(code.generator().eval(f.alpha_pow(7)), 0);
    }
}
