//! BCH code construction: cyclotomic cosets, minimal polynomials, and the
//! generator polynomial.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, Weak};

use pmck_gf::{BitPoly, FieldPoly, Gf2m};

use crate::chien::ChienPlan;
use crate::encode::ParityTable;
use crate::error::BchError;
use crate::roots::RootTables;
use crate::syndrome::SyndromeMap;

/// A systematic, shortened, binary `t`-error-correcting BCH code over
/// GF(2^m) protecting `k` data bits.
///
/// Codeword layout (bit index = polynomial degree):
///
/// ```text
/// [0 .. r)        parity bits   (r = deg g(x) ≤ t·m)
/// [r .. r + k)    data bits
/// ```
///
/// The code is shortened from the natural length `2^m − 1`: the high-order
/// `2^m − 1 − (k + r)` information positions are implicitly zero.
///
/// # Examples
///
/// ```
/// use pmck_bch::BchCode;
///
/// let vlew = BchCode::vlew();
/// assert_eq!(vlew.t(), 22);
/// assert_eq!(vlew.data_bits(), 2048);
/// assert_eq!(vlew.parity_bits(), 264); // 33 bytes, as in the paper
/// ```
#[derive(Debug, Clone)]
pub struct BchCode {
    pub(crate) t: usize,
    pub(crate) k: usize,
    pub(crate) r: usize,
    /// Everything derived from `(m, t, k)`, shared by every live code
    /// of that geometry: a clone is a reference-count bump, and the nine
    /// chips of a rank, the nodes of a cluster and the regions of a
    /// tiered stack carry one copy between them.
    pub(crate) tables: Arc<CodeTables>,
}

/// What [`BchCode::new`] derives from a geometry.
#[derive(Debug)]
pub(crate) struct CodeTables {
    pub(crate) field: Gf2m,
    pub(crate) generator: BitPoly,
    /// The nibble table: the one encode kernel, and the remainder of
    /// every single data bit for the acceptance check.
    pub(crate) parity: ParityTable,
    /// The odd syndromes of a remainder, by nibbles.
    pub(crate) syndromes: SyndromeMap,
    /// Closed-form roots of locators of degree ≤ 4.
    pub(crate) roots: RootTables,
    /// Bit-sliced Chien search plan (256 candidate positions per step),
    /// for locators of degree ≥ 5.
    pub(crate) chien: ChienPlan,
}

/// A geometry, `(m, t, k)`.
type Geometry = (u32, usize, usize);

/// The live tables by geometry. Entries are weak: a geometry's tables
/// are freed with its last code and rebuilt by the next one.
static INTERNED: LazyLock<Mutex<HashMap<Geometry, Weak<CodeTables>>>> =
    LazyLock::new(Mutex::default);

impl BchCode {
    /// Constructs a `t`-error-correcting BCH code over GF(2^m) with `k`
    /// data bits.
    ///
    /// # Errors
    ///
    /// * [`BchError::UnsupportedField`] if `m` is outside `3..=16`.
    /// * [`BchError::ZeroCorrectionCapability`] if `t == 0`.
    /// * [`BchError::CodeTooLong`] if `k` plus the generator degree exceeds
    ///   the natural length `2^m − 1`.
    pub fn new(m: u32, t: usize, k: usize) -> Result<Self, BchError> {
        if t == 0 {
            return Err(BchError::ZeroCorrectionCapability);
        }
        let key = (m, t, k);
        let interned = || {
            INTERNED
                .lock()
                .expect("no panic while the table map is held")
        };
        let live = interned().get(&key).and_then(Weak::upgrade);
        let tables = match live {
            Some(tables) => tables,
            None => {
                // Built outside the lock: two threads racing on a new
                // geometry both build, and the second adopts the first's.
                let built = Arc::new(CodeTables::build(m, t, k)?);
                let mut map = interned();
                map.retain(|_, tables| tables.strong_count() > 0);
                let slot = map.entry(key).or_default();
                slot.upgrade().unwrap_or_else(|| {
                    *slot = Arc::downgrade(&built);
                    built
                })
            }
        };
        let r = tables.generator.degree().expect("generator is nonzero");
        Ok(BchCode { t, k, r, tables })
    }

    /// The paper's VLEW code: t=22 over GF(2^12) protecting 256 B
    /// (2048 bits) of per-chip data with 264 code bits (33 B).
    pub fn vlew() -> Self {
        BchCode::new(12, 22, 2048).expect("VLEW parameters are valid")
    }

    /// The §III-A bit-error-correction baseline: t=14 over GF(2^10)
    /// protecting one 64 B block (512 bits) with 140 code bits (~28%
    /// storage overhead).
    pub fn per_block_baseline() -> Self {
        BchCode::new(10, 14, 512).expect("baseline parameters are valid")
    }

    /// A Flash-style word (Figure 3): `t`-error correction over GF(2^13)
    /// protecting 512 B (4096 bits) of data.
    ///
    /// # Errors
    ///
    /// Same as [`BchCode::new`]; `t` up to 315 fits the natural length.
    pub fn flash512(t: usize) -> Result<Self, BchError> {
        BchCode::new(13, t, 4096)
    }

    /// The designed correction capability `t` (the decoder may correct any
    /// pattern of up to `t` bit errors).
    pub fn t(&self) -> usize {
        self.t
    }

    /// The number of data bits `k`.
    pub fn data_bits(&self) -> usize {
        self.k
    }

    /// The number of parity bits `r` (the generator degree).
    pub fn parity_bits(&self) -> usize {
        self.r
    }

    /// The codeword length `n = k + r`.
    pub fn len(&self) -> usize {
        self.k + self.r
    }

    /// Whether the codeword length is zero (never true for a valid code;
    /// provided for API completeness alongside [`BchCode::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage overhead `r / k`.
    pub fn storage_overhead(&self) -> f64 {
        self.r as f64 / self.k as f64
    }

    /// The underlying field GF(2^m).
    pub fn field(&self) -> &Gf2m {
        &self.tables.field
    }

    /// The generator polynomial g(x) over GF(2).
    pub fn generator(&self) -> &BitPoly {
        &self.tables.generator
    }
}

impl CodeTables {
    fn build(m: u32, t: usize, k: usize) -> Result<Self, BchError> {
        let field = Gf2m::new(m).map_err(|_| BchError::UnsupportedField(m))?;
        let generator = generator_poly(&field, t);
        let r = generator.degree().expect("generator is nonzero");
        let natural = field.order() as usize;
        if k + r > natural {
            return Err(BchError::CodeTooLong(k + r, natural));
        }
        Ok(CodeTables {
            parity: ParityTable::new(&generator, r, k),
            syndromes: SyndromeMap::new(&field, t, r),
            roots: RootTables::new(&field),
            chien: ChienPlan::new(&field, t, k + r),
            field,
            generator,
        })
    }
}

/// Computes the generator polynomial of a `t`-error-correcting binary BCH
/// code: `g(x) = lcm of the minimal polynomials of alpha^1 .. alpha^{2t}`.
/// Only odd exponents contribute distinct minimal polynomials (conjugacy),
/// so the product runs over the cyclotomic cosets of 1, 3, 5, …, 2t−1.
fn generator_poly(field: &Gf2m, t: usize) -> BitPoly {
    let order = field.order() as u64;
    let mut covered = vec![false; field.order() as usize + 1];
    let mut g = BitPoly::from_u64(1, 1);
    for i in (1..=(2 * t as u64 - 1)).step_by(2) {
        let rep = (i % order) as usize;
        if rep == 0 || covered[rep] {
            continue;
        }
        // Cyclotomic coset of `i`: {i, 2i, 4i, ...} mod (2^m − 1).
        let mut coset = Vec::new();
        let mut e = i % order;
        loop {
            if covered[e as usize] {
                break;
            }
            covered[e as usize] = true;
            coset.push(e);
            e = (e * 2) % order;
            if e == i % order {
                break;
            }
        }
        // Minimal polynomial: prod over the coset of (x + alpha^e).
        let mut min_poly = FieldPoly::one(field);
        for &e in &coset {
            let root = field.alpha_pow(e);
            min_poly = min_poly.mul(&FieldPoly::from_coeffs(field, vec![root, 1]));
        }
        // The minimal polynomial has GF(2) coefficients.
        let mut mp_bits = BitPoly::zero(min_poly.coeffs().len());
        for (d, &c) in min_poly.coeffs().iter().enumerate() {
            debug_assert!(c <= 1, "minimal polynomial coefficient must be binary");
            if c == 1 {
                mp_bits.set(d, true);
            }
        }
        g = g.clmul(&mp_bits);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_15_7_2_code() {
        // The (15,7) 2-error-correcting BCH code has generator
        // x^8 + x^7 + x^6 + x^4 + 1 = 0x1D1.
        let code = BchCode::new(4, 2, 7).unwrap();
        assert_eq!(code.parity_bits(), 8);
        assert_eq!(code.len(), 15);
        let mut g = 0u64;
        for i in code.generator().iter_ones() {
            g |= 1 << i;
        }
        assert_eq!(g, 0x1D1);
    }

    #[test]
    fn classic_15_5_3_code() {
        // The (15,5) 3-error-correcting BCH code has generator
        // x^10 + x^8 + x^5 + x^4 + x^2 + x + 1 = 0x537.
        let code = BchCode::new(4, 3, 5).unwrap();
        assert_eq!(code.parity_bits(), 10);
        let mut g = 0u64;
        for i in code.generator().iter_ones() {
            g |= 1 << i;
        }
        assert_eq!(g, 0x537);
    }

    #[test]
    fn vlew_parameters_match_paper() {
        let code = BchCode::vlew();
        // 22 × 12 = 264 bits = 33 B of code bits over 256 B of data.
        assert_eq!(code.parity_bits(), 264);
        assert_eq!(code.data_bits(), 2048);
        assert!((code.storage_overhead() - 33.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_parameters_match_paper() {
        let code = BchCode::per_block_baseline();
        // 14 × 10 = 140 bits over 512 data bits ≈ 27.3% ("28%").
        assert_eq!(code.parity_bits(), 140);
        assert!((code.storage_overhead() - 140.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn flash_words() {
        for t in [12, 24, 41] {
            let code = BchCode::flash512(t).unwrap();
            assert_eq!(code.parity_bits(), 13 * t);
            assert_eq!(code.data_bits(), 4096);
        }
    }

    #[test]
    fn codes_of_one_geometry_share_their_tables() {
        // Geometries no other test constructs: tests share the process.
        let a = BchCode::new(7, 3, 40).unwrap();
        let b = BchCode::new(7, 3, 40).unwrap();
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
        assert!(Arc::ptr_eq(&a.tables, &a.clone().tables));
        let other = BchCode::new(7, 3, 44).unwrap();
        assert!(!Arc::ptr_eq(&a.tables, &other.tables));
        // The map keeps no table alive past its last code, and the next
        // code of the geometry is built whole.
        let tables = Arc::downgrade(&a.tables);
        drop((a, b));
        assert!(tables.upgrade().is_none());
        let again = BchCode::new(7, 3, 40).unwrap();
        assert!(again.is_codeword(&again.encode(&BitPoly::from_u64(0xAB_CDEF_0123, 40))));
    }

    #[test]
    fn racing_constructions_converge_on_one_table() {
        let start = std::sync::Barrier::new(4);
        let codes: Vec<BchCode> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        BchCode::new(7, 4, 52).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(codes
            .iter()
            .all(|c| Arc::ptr_eq(&c.tables, &codes[0].tables)));
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert_eq!(
            BchCode::new(4, 0, 7).unwrap_err(),
            BchError::ZeroCorrectionCapability
        );
        assert_eq!(
            BchCode::new(2, 1, 7).unwrap_err(),
            BchError::UnsupportedField(2)
        );
        assert!(matches!(
            BchCode::new(4, 3, 6).unwrap_err(),
            BchError::CodeTooLong(16, 15)
        ));
    }

    #[test]
    fn generator_divides_x_n_minus_1() {
        // g(x) must divide x^(2^m −1) − 1; equivalently alpha^1..alpha^2t
        // are roots of g.
        let code = BchCode::new(6, 3, 20).unwrap();
        let f = code.field();
        for j in 1..=(2 * code.t() as u64) {
            let x = f.alpha_pow(j);
            // Evaluate g at alpha^j over GF(2^6).
            let mut acc = 0u32;
            for i in code.generator().iter_ones() {
                acc ^= f.alpha_pow(f.log(x) as u64 * i as u64);
            }
            assert_eq!(acc, 0, "alpha^{j} must be a root of g");
        }
    }
}
