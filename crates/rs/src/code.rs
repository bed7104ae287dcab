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
#[derive(Clone)]
pub struct RsCode {
    pub(crate) field: Gf2m,
    pub(crate) k: usize,
    pub(crate) r: usize,
    pub(crate) generator: FieldPoly,
    /// Precomputed multiply-by-`alpha^j` rows: the syndrome hot-path
    /// kernel (one table lookup per byte instead of log/exp multiplies).
    pub(crate) rows: SyndromeRows,
    feedback: Feedback,
    /// `quadratic[c]` is a root `y` of `y² + y = c`, or 0 when there is
    /// none (`c = 0`, whose roots are 0 and 1, is never looked up).
    pub(crate) quadratic: [u8; 256],
}

/// The encoder's tables. Dividing by g one data byte at a time, the
/// register's top coefficient plus the incoming byte is the feedback `f`,
/// and the register moves up one coefficient and takes in `f·g[0..r]`.
#[derive(Clone)]
enum Feedback {
    /// `r ≤ 8`: the register is one `u64`, coefficient `i` in byte
    /// `8 − r + i`, so its top coefficient is always the top byte.
    /// `[0][f]` is `f·g[0..r]` in that layout; `[j][f]` is `[0][f]`
    /// after `j` further steps with no input, which lets eight data
    /// bytes go in at once (slicing-by-8, as for a CRC).
    Sliced(Box<[[u64; 256]; 8]>),
    /// `r > 8`: row `f` is the `r` bytes `f·g[0..r]`.
    Rows(Vec<u8>),
}

impl std::fmt::Debug for RsCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsCode")
            .field("k", &self.k)
            .field("r", &self.r)
            .finish_non_exhaustive()
    }
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
        let (fld, g) = (&field, &generator.coeffs()[..r]);
        let row = |f: usize| g.iter().map(move |&c| fld.mul(f as u32, c) as u8);
        let feedback = if r <= 8 {
            let mut t = Box::new([[0u64; 256]; 8]);
            for f in 0..256 {
                let mut bytes = [0u8; 8];
                for (b, v) in bytes[8 - r..].iter_mut().zip(row(f)) {
                    *b = v;
                }
                t[0][f] = u64::from_le_bytes(bytes);
            }
            for j in 1..8 {
                for f in 0..256 {
                    let prev = t[j - 1][f];
                    t[j][f] = (prev << 8) ^ t[0][(prev >> 56) as usize];
                }
            }
            Feedback::Sliced(t)
        } else {
            Feedback::Rows((0..256).flat_map(row).collect())
        };
        let mut quadratic = [0u8; 256];
        for y in (2..=255u8).rev() {
            quadratic[(field.square(y.into()) ^ u32::from(y)) as usize] = y;
        }
        Ok(RsCode {
            field,
            k,
            r,
            generator,
            rows,
            feedback,
            quadratic,
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
    /// into `out`, without allocating: table-driven division by g, eight
    /// data bytes to a step when the register fits a `u64` (`r ≤ 8`).
    ///
    /// Like all linear codes, `parity(a ⊕ b) = parity(a) ⊕ parity(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or `out.len() != r`.
    pub fn parity_into(&self, data: &[u8], out: &mut [u8]) {
        assert_eq!(data.len(), self.k, "need exactly {} data bytes", self.k);
        assert_eq!(out.len(), self.r, "parity buffer length mismatch");
        // Data goes in from the highest degree, the last byte, down.
        let r = self.r;
        match &self.feedback {
            Feedback::Sliced(t) => {
                let mut reg = 0u64;
                let mut chunks = data.rchunks_exact(8);
                for chunk in chunks.by_ref() {
                    let x = reg ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                    reg = (0..8).fold(0, |acc, j| acc ^ t[j][usize::from((x >> (8 * j)) as u8)]);
                }
                for &byte in chunks.remainder().iter().rev() {
                    reg = (reg << 8) ^ t[0][usize::from((reg >> 56) as u8 ^ byte)];
                }
                out.copy_from_slice(&reg.to_le_bytes()[8 - r..]);
            }
            Feedback::Rows(rows) => {
                out.fill(0);
                for &byte in data.iter().rev() {
                    let f = usize::from(out[r - 1] ^ byte);
                    out.copy_within(..r - 1, 1);
                    out[0] = 0;
                    for (o, &t) in out.iter_mut().zip(&rows[f * r..][..r]) {
                        *o ^= t;
                    }
                }
            }
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

    /// The encoder this crate shipped before the feedback tables, kept as
    /// their oracle: synthetic division by g, one [`Gf2m::mul`] per
    /// generator coefficient per data byte.
    fn lfsr_parity(code: &RsCode, data: &[u8]) -> Vec<u8> {
        let (f, r) = (code.field(), code.check_symbols());
        let g = code.generator().coeffs(); // g[r] == 1
        let mut reg_buf = [0u32; 255];
        let reg = &mut reg_buf[..r];
        for &byte in data.iter().rev() {
            let feedback = reg[r - 1] ^ byte as u32;
            for i in (1..r).rev() {
                reg[i] = reg[i - 1] ^ f.mul(feedback, g[i]);
            }
            reg[0] = f.mul(feedback, g[0]);
        }
        reg.iter().map(|&v| v as u8).collect()
    }

    #[test]
    fn table_parity_matches_the_lfsr_at_every_register_width() {
        // r = 1..=8 keeps the register in one word, and k = 23 is two
        // 8-byte steps and seven single ones; from r = 9 the register is
        // bytes; (1, 254) is the widest code there is.
        let widths = (1..=9).chain([16, 17, 40]).map(|r| (23, r));
        for (k, r) in widths.chain([(64, 8), (1, 254), (200, 55)]) {
            let code = RsCode::new(k, r).unwrap();
            for seed in 0..4usize {
                let data: Vec<u8> = (0..k).map(|i| (i * 37 + seed * 101 + 11) as u8).collect();
                let mut out = vec![0xA5u8; r]; // dirty: parity_into overwrites
                code.parity_into(&data, &mut out);
                assert_eq!(out, lfsr_parity(&code, &data), "RS({}, {k})", k + r);
            }
        }
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
