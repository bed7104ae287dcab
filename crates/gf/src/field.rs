//! Runtime-parameterized binary extension fields GF(2^m).

use std::fmt;
use std::sync::Arc;

use crate::primitive::default_primitive_poly;

/// Errors produced when constructing or operating on a [`Gf2m`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GfError {
    /// The requested extension degree is outside `3..=16`.
    UnsupportedDegree(u32),
    /// The supplied reduction polynomial is not primitive over GF(2^m)
    /// (its powers of `x` do not enumerate all nonzero field elements).
    NotPrimitive(u32),
    /// Division or inversion of the zero element was attempted.
    DivisionByZero,
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::UnsupportedDegree(m) => {
                write!(f, "unsupported extension degree m={m} (supported: 3..=16)")
            }
            GfError::NotPrimitive(p) => {
                write!(f, "polynomial {p:#x} is not primitive")
            }
            GfError::DivisionByZero => write!(f, "division by zero field element"),
        }
    }
}

impl std::error::Error for GfError {}

/// The finite field GF(2^m) for `3 <= m <= 16`.
///
/// Elements are represented as `u32` values in `0..2^m`, interpreted as
/// polynomials over GF(2) modulo a primitive polynomial. Multiplication and
/// inversion use log/antilog tables built at construction time, so a `Gf2m`
/// instance is cheap to clone (the tables live behind an [`Arc`]).
///
/// # Examples
///
/// ```
/// use pmck_gf::Gf2m;
///
/// let f = Gf2m::new(10).unwrap();
/// assert_eq!(f.size(), 1024);
/// assert_eq!(f.mul(0, 7), 0);
/// let a = f.alpha_pow(3);
/// assert_eq!(f.mul(a, f.alpha_pow(4)), f.alpha_pow(7));
/// ```
#[derive(Clone)]
pub struct Gf2m {
    m: u32,
    poly: u32,
    /// `exp[i] = alpha^i` for `i in 0..2*(q-1)` (doubled to skip a mod).
    exp: Arc<[u32]>,
    /// `log[x] = i` such that `alpha^i = x`; `log[0]` is unused (set to 0).
    log: Arc<[u32]>,
}

impl fmt::Debug for Gf2m {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gf2m")
            .field("m", &self.m)
            .field("poly", &format_args!("{:#x}", self.poly))
            .finish()
    }
}

impl PartialEq for Gf2m {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.poly == other.poly
    }
}

impl Eq for Gf2m {}

impl Gf2m {
    /// Constructs GF(2^m) using the conventional primitive polynomial for
    /// `m` (see [`default_primitive_poly`]).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedDegree`] when `m` is outside `3..=16`.
    pub fn new(m: u32) -> Result<Self, GfError> {
        let poly = default_primitive_poly(m).ok_or(GfError::UnsupportedDegree(m))?;
        Self::with_poly(m, poly)
    }

    /// Constructs GF(2^m) with an explicit reduction polynomial `poly`
    /// (leading term included).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedDegree`] for `m` outside `3..=16` and
    /// [`GfError::NotPrimitive`] if `poly` does not generate the full
    /// multiplicative group.
    pub fn with_poly(m: u32, poly: u32) -> Result<Self, GfError> {
        if !(3..=16).contains(&m) {
            return Err(GfError::UnsupportedDegree(m));
        }
        let q = 1u32 << m;
        let order = (q - 1) as usize;
        let mut exp = vec![0u32; 2 * order];
        let mut log = vec![0u32; q as usize];
        let mut x = 1u32;
        for (i, e) in exp.iter_mut().take(order).enumerate() {
            *e = x;
            if x == 1 && i != 0 {
                // Cycle shorter than q-1: not primitive.
                return Err(GfError::NotPrimitive(poly));
            }
            log[x as usize] = i as u32;
            x <<= 1;
            if x & q != 0 {
                x ^= poly;
            }
        }
        if x != 1 {
            return Err(GfError::NotPrimitive(poly));
        }
        for i in 0..order {
            exp[order + i] = exp[i];
        }
        Ok(Gf2m {
            m,
            poly,
            exp: exp.into(),
            log: log.into(),
        })
    }

    /// The extension degree `m`.
    pub fn degree(&self) -> u32 {
        self.m
    }

    /// The number of field elements, `2^m`.
    pub fn size(&self) -> u32 {
        1 << self.m
    }

    /// The multiplicative group order, `2^m - 1`.
    pub fn order(&self) -> u32 {
        (1 << self.m) - 1
    }

    /// `alpha^i` where `alpha` is the primitive element (the class of `x`).
    /// The exponent is reduced modulo `2^m - 1`.
    pub fn alpha_pow(&self, i: u64) -> u32 {
        self.exp[(i % self.order() as u64) as usize]
    }

    /// The discrete logarithm of a nonzero element `x` base `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or not a field element.
    pub fn log(&self, x: u32) -> u32 {
        assert!(x != 0, "log of zero");
        self.log[x as usize]
    }

    /// Field addition (bitwise XOR).
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// The multiplicative inverse of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DivisionByZero`] when `a == 0`.
    #[inline]
    pub fn inv(&self, a: u32) -> Result<u32, GfError> {
        if a == 0 {
            return Err(GfError::DivisionByZero);
        }
        let ord = self.order();
        Ok(self.exp[(ord - self.log[a as usize]) as usize])
    }

    /// Field division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DivisionByZero`] when `b == 0`.
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> Result<u32, GfError> {
        if b == 0 {
            return Err(GfError::DivisionByZero);
        }
        if a == 0 {
            return Ok(0);
        }
        let ord = self.order();
        Ok(self.exp[(self.log[a as usize] + ord - self.log[b as usize]) as usize])
    }

    /// `a` raised to the (possibly large) power `e`.
    pub fn pow(&self, a: u32, e: u64) -> u32 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let ord = self.order() as u64;
        let la = self.log[a as usize] as u64;
        self.exp[((la * (e % ord)) % ord) as usize]
    }

    /// Squares `a`. Squaring is a linear (Frobenius) map in GF(2^m) and is
    /// used to derive even-indexed BCH syndromes from odd ones.
    #[inline]
    pub fn square(&self, a: u32) -> u32 {
        self.mul(a, a)
    }

    /// Evaluates the polynomial with coefficients `coeffs` (index = degree)
    /// at the point `x`, via Horner's rule.
    pub fn eval_poly(&self, coeffs: &[u32], x: u32) -> u32 {
        let mut acc = 0u32;
        for &c in coeffs.iter().rev() {
            acc = self.mul(acc, x) ^ c;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_all_supported_degrees() {
        for m in 3..=16 {
            let f = Gf2m::new(m).unwrap();
            assert_eq!(f.size(), 1 << m);
        }
    }

    #[test]
    fn rejects_bad_degree() {
        assert_eq!(Gf2m::new(2).unwrap_err(), GfError::UnsupportedDegree(2));
        assert_eq!(Gf2m::new(17).unwrap_err(), GfError::UnsupportedDegree(17));
    }

    #[test]
    fn rejects_non_primitive_poly() {
        // x^4 + 1 = (x+1)^4 is reducible, hence not primitive.
        assert!(matches!(
            Gf2m::with_poly(4, 0b10001),
            Err(GfError::NotPrimitive(_))
        ));
    }

    #[test]
    fn mul_matches_carryless_reduction_gf16() {
        let f = Gf2m::new(4).unwrap();
        // Reference: carry-less multiply then reduce mod x^4+x+1.
        let slow = |a: u32, b: u32| -> u32 {
            let mut acc = 0u32;
            for i in 0..4 {
                if b & (1 << i) != 0 {
                    acc ^= a << i;
                }
            }
            for d in (4..8).rev() {
                if acc & (1 << d) != 0 {
                    acc ^= 0x13 << (d - 4);
                }
            }
            acc & 0xF
        };
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(f.mul(a, b), slow(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverse_round_trip() {
        let f = Gf2m::new(12).unwrap();
        for a in 1..f.size() {
            let inv = f.inv(a).unwrap();
            assert_eq!(f.mul(a, inv), 1, "a={a}");
        }
    }

    #[test]
    fn zero_handling() {
        let f = Gf2m::new(8).unwrap();
        assert_eq!(f.mul(0, 123), 0);
        assert_eq!(f.mul(123, 0), 0);
        assert_eq!(f.inv(0), Err(GfError::DivisionByZero));
        assert_eq!(f.div(5, 0), Err(GfError::DivisionByZero));
        assert_eq!(f.div(0, 5), Ok(0));
    }

    #[test]
    fn pow_and_alpha_pow_agree() {
        let f = Gf2m::new(10).unwrap();
        let alpha = f.alpha_pow(1);
        for e in 0..2048u64 {
            assert_eq!(f.pow(alpha, e), f.alpha_pow(e), "e={e}");
        }
    }

    // The seeded Frobenius-additivity property lives in `tests/props.rs`
    // on the harness runner (same historical seed, plus shrinking and
    // corpus replay).

    #[test]
    fn eval_poly_horner() {
        let f = Gf2m::new(8).unwrap();
        // p(x) = 3 + 5x + x^2 at x=2 over GF(256): 3 ^ mul(5,2) ^ mul(2,2)
        let coeffs = [3, 5, 1];
        let manual = 3 ^ f.mul(5, 2) ^ f.square(2);
        assert_eq!(f.eval_poly(&coeffs, 2), manual);
        assert_eq!(f.eval_poly(&[], 7), 0);
        assert_eq!(f.eval_poly(&[9], 7), 9);
    }
}
