//! Closed-form roots of error locators of degree one to four.
//!
//! The locator `σ(x) = 1 + σ_1·x + … + σ_d·x^d` of `d` errors at
//! positions `p` vanishes at `α^{−p}`, so its reversal
//! `z^d + σ_1·z^{d−1} + … + σ_d` has the roots `z = α^p`. At the RBERs
//! this system decodes (≤ 1e-3, one to four errors in a VLEW) the
//! bit-sliced Chien scan spends most of a decode visiting positions that
//! are not roots; these solve the reversal directly instead:
//!
//! * **degree 1**: `z = σ_1`;
//! * **degree 2**: `z² + a·z + b`. With `a = 0` the root is `√b`
//!   (double). Else `z = a·y` gives `y² + y = b/a²`, read from
//!   [`RootTables`]' quadratic table; the roots are `a·y` and `a·(y + 1)`;
//! * **degree 3**: `z³ + a·z² + b·z + c`. `z = w + a` gives the
//!   depressed `w³ + P·w + Q` with `P = a² + b`, `Q = a·b + c`. With
//!   `P = 0` the roots are the cube roots of `Q`. Else `w = √P·v` gives
//!   `v³ + v = Q/P^{3/2}`; the cubic table names one root `v₀`, and
//!   `v³ + v + C = (v + v₀)(v² + v₀·v + v₀² + 1)` gives the rest by the
//!   degree-2 rule;
//! * **degree 4**: `z⁴ + a·z³ + b·z² + c·z + d`. With `a ≠ 0`, `z = x + e`
//!   with `a·e² = c` removes the linear term:
//!   `x⁴ + a·x³ + (a·e + b)·x² + (e⁴ + b·e² + d)`. If that constant is
//!   zero, `x = 0` and the degree-2 rule on `x² + a·x + a·e + b` give the
//!   roots; else `y = 1/x` turns it into the *affine* polynomial
//!   `y⁴ + b'·y² + a'·y = c'`. Its left side is GF(2)-linear in `y`, so
//!   the roots are one solution of an `m × m` GF(2) system plus the
//!   system's kernel (at most two dimensions: at most four roots). With
//!   `a = 0` the quartic is affine as it stands.
//!
//! Each finder reports exactly what the Chien search reports for the same
//! locator: the distinct roots at positions `p < n`, ascending.

use pmck_gf::Gf2m;

/// The quadratic and depressed-cubic root tables of one field.
///
/// `quadratic[c]` is the root `y` of `y² + y = c` whose bit 0 is clear
/// (the other root is `y + 1`); `cubic[c]` is one root `v` of
/// `v³ + v = c`. `c = 0` has the root 0 in both, and no other `c` does,
/// so an entry of 0 at `c ≠ 0` means that `c` has no root. Two `u16`
/// per field element: 16 KiB for GF(2^12).
#[derive(Debug, Clone)]
pub(crate) struct RootTables {
    quadratic: Vec<u16>,
    cubic: Vec<u16>,
}

/// A sink for the roots a finder produces.
type Emit<'a> = &'a mut dyn FnMut(u32);

impl RootTables {
    /// Builds both tables by evaluating `y² + y` and `v³ + v` at every
    /// element.
    pub(crate) fn new(field: &Gf2m) -> Self {
        let size = field.size() as usize;
        let (mut quadratic, mut cubic) = (vec![0; size], vec![0; size]);
        for y in 0..field.size() {
            let square = field.mul(y, y);
            if y & 1 == 0 {
                quadratic[(square ^ y) as usize] = y as u16;
            }
            cubic[(field.mul(square, y) ^ y) as usize] = y as u16;
        }
        RootTables { quadratic, cubic }
    }

    /// Adds to `out` the positions `p < n` with `σ(α^{−p}) = 0` for the
    /// trimmed locator `sigma` of degree 1 to 4 (`sigma[0] == 1`) that
    /// it does not hold yet, sorts it, and returns its length.
    pub(crate) fn find(&self, f: &Gf2m, sigma: &[u32], n: usize, out: &mut Vec<usize>) -> usize {
        let mut emit = |z: u32| {
            let p = f.log(z) as usize;
            if p < n && !out.contains(&p) {
                out.push(p);
            }
        };
        match *sigma {
            [_, a] => emit(a),
            [_, a, b] => self.quadratic(f, a, b, &mut emit),
            [_, a, b, c] => self.cubic(f, a, b, c, &mut emit),
            [_, a, b, c, d] => self.quartic(f, a, b, c, d, &mut emit),
            _ => unreachable!("closed-form roots stop at degree 4"),
        }
        out.sort_unstable();
        out.len()
    }

    /// The roots of `z² + a·z + b`.
    fn quadratic(&self, f: &Gf2m, a: u32, b: u32, emit: Emit) {
        if a == 0 {
            return emit(sqrt(f, b));
        }
        let c = div(f, b, f.mul(a, a));
        let y = u32::from(self.quadratic[c as usize]);
        if y != 0 || c == 0 {
            emit(f.mul(a, y));
            emit(f.mul(a, y ^ 1));
        }
    }

    /// The roots of `z³ + a·z² + b·z + c`, `c ≠ 0`.
    fn cubic(&self, f: &Gf2m, a: u32, b: u32, c: u32, emit: Emit) {
        let (p, q) = (f.mul(a, a) ^ b, f.mul(a, b) ^ c);
        if p == 0 {
            return cube_roots(f, q, &mut |w| emit(w ^ a));
        }
        let s = sqrt(f, p);
        let k = div(f, q, f.mul(p, s));
        let v = u32::from(self.cubic[k as usize]);
        if v != 0 || k == 0 {
            let back = &mut |v| emit(f.mul(s, v) ^ a);
            back(v);
            self.quadratic(f, v, f.mul(v, v) ^ 1, back);
        }
    }

    /// The roots of `z⁴ + a·z³ + b·z² + c·z + d`, `d ≠ 0`.
    fn quartic(&self, f: &Gf2m, a: u32, b: u32, c: u32, d: u32, emit: Emit) {
        if a == 0 {
            return affine(f, b, c, d, emit);
        }
        let e2 = div(f, c, a);
        let e = sqrt(f, e2);
        let b1 = f.mul(a, e) ^ b;
        let d1 = f.mul(e2, e2) ^ f.mul(b, e2) ^ d;
        if d1 == 0 {
            emit(e);
            return self.quadratic(f, a, b1, &mut |x| emit(x ^ e));
        }
        let d_inv = div(f, 1, d1);
        let back = &mut |y| emit(div(f, 1, y) ^ e);
        affine(f, f.mul(b1, d_inv), f.mul(a, d_inv), d_inv, back);
    }
}

/// The roots of `y⁴ + a·y² + b·y = c`, `c ≠ 0`: `L(y) = y⁴ + a·y² + b·y`
/// is GF(2)-linear, so eliminate its images of the basis `1 << i`,
/// keeping each pivot's preimage, then reduce `c` by the pivots.
fn affine(f: &Gf2m, a: u32, b: u32, c: u32, emit: Emit) {
    // pivot[h] = (image with top bit h, its preimage)
    let mut pivot = [(0u32, 0u32); 16];
    let reduce = |pivot: &[(u32, u32); 16], mut image: u32, mut pre: u32| {
        while image != 0 {
            let (p, q) = pivot[31 - image.leading_zeros() as usize];
            if p == 0 {
                break;
            }
            (image, pre) = (image ^ p, pre ^ q);
        }
        (image, pre)
    };
    let (mut kernel, mut dim) = ([0u32; 2], 0);
    for i in 0..f.degree() {
        let y = 1 << i;
        let y2 = f.mul(y, y);
        match reduce(&pivot, f.mul(y2, y2) ^ f.mul(a, y2) ^ f.mul(b, y), y) {
            (0, pre) => {
                kernel[dim] = pre;
                dim += 1;
            }
            (image, pre) => pivot[31 - image.leading_zeros() as usize] = (image, pre),
        }
    }
    if let (0, y) = reduce(&pivot, c, 0) {
        for s in 0..1u32 << dim {
            emit(y ^ (kernel[0] * (s & 1)) ^ (kernel[1] * (s >> 1)));
        }
    }
}

/// The cube roots of `q`: `w = α^{e/3}` for each `e ∈ {log q + k·(2^m − 1)}`,
/// `k < 3`, that 3 divides — one when 3 does not divide `2^m − 1`
/// (odd `m`), else three or none. `q = 0` has the root 0.
fn cube_roots(f: &Gf2m, q: u32, emit: Emit) {
    if q == 0 {
        return emit(0);
    }
    let (l, order) = (u64::from(f.log(q)), u64::from(f.order()));
    for e in (0..3).map(|k| l + k * order).filter(|e| e % 3 == 0) {
        emit(f.alpha_pow(e / 3));
    }
}

/// `√x`: `α^{e/2}` for whichever of `log x`, `log x + 2^m − 1` is even.
fn sqrt(f: &Gf2m, x: u32) -> u32 {
    if x == 0 {
        return 0;
    }
    let l = u64::from(f.log(x));
    let even = if l % 2 == 0 {
        l
    } else {
        l + u64::from(f.order())
    };
    f.alpha_pow(even / 2)
}

fn div(f: &Gf2m, a: u32, b: u32) -> u32 {
    f.div(a, b).expect("divisors here are nonzero")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chien::ChienPlan;
    use pmck_rt::rng::{Rng, StdRng};

    /// The closed-form finder and the bit-sliced Chien search, side by
    /// side over one field and one shortened length `n`.
    struct Oracle {
        field: Gf2m,
        roots: RootTables,
        chien: ChienPlan,
        n: usize,
        acc: Vec<u64>,
        got: Vec<usize>,
        want: Vec<usize>,
    }

    impl Oracle {
        fn new(m: u32, n: usize) -> Self {
            let field = Gf2m::new(m).unwrap();
            let chien = ChienPlan::new(&field, 4, n);
            Oracle {
                roots: RootTables::new(&field),
                acc: vec![0; chien.acc_len()],
                field,
                chien,
                n,
                got: Vec::new(),
                want: Vec::new(),
            }
        }

        /// Both finders on the trimmed locator `sigma`; returns the
        /// number of roots (positions `< n`) they agree on.
        fn agree(&mut self, sigma: &[u32]) -> usize {
            self.got.clear();
            self.want.clear();
            let found = self.roots.find(&self.field, sigma, self.n, &mut self.got);
            self.chien.search(
                &self.field,
                sigma,
                &mut self.acc,
                &mut self.want,
                sigma.len() - 1,
            );
            assert_eq!(
                self.got,
                self.want,
                "m = {}, σ = {sigma:?}",
                self.field.degree()
            );
            assert_eq!(found, self.got.len());
            found
        }

        /// Every locator of degree 1..=`max_deg`: each coefficient runs
        /// over the field, the top one over its nonzero elements.
        fn exhaustive(&mut self, max_deg: usize) {
            let size = self.field.size();
            for deg in 1..=max_deg {
                let mut sigma = vec![0u32; deg + 1];
                let count = size.pow(deg as u32 - 1) * (size - 1);
                for mut i in 0..count {
                    sigma[0] = 1;
                    for c in &mut sigma[1..deg] {
                        (*c, i) = (i % size, i / size);
                    }
                    sigma[deg] = i + 1;
                    self.agree(&sigma);
                }
            }
        }
    }

    /// `p·q` for polynomials by ascending coefficient.
    fn mul(f: &Gf2m, p: &[u32], q: &[u32]) -> Vec<u32> {
        let mut out = vec![0; p.len() + q.len() - 1];
        for (i, &a) in p.iter().enumerate() {
            for (j, &b) in q.iter().enumerate() {
                out[i + j] ^= f.mul(a, b);
            }
        }
        out
    }

    #[test]
    fn every_small_locator_has_chiens_roots() {
        // Shortened lengths, so positions in [n, 2^m − 1) exist and the
        // filter is exercised; every locator includes repeated roots,
        // rootless factors, σ₁ = 0 and the vanishing linear terms.
        Oracle::new(4, 11).exhaustive(4);
        Oracle::new(5, 21).exhaustive(4);
        Oracle::new(6, 44).exhaustive(3);
    }

    #[test]
    fn seeded_locators_have_chiens_roots_in_the_workspace_fields() {
        // GF(2^12) at the VLEW's length and GF(2^13) at flash512 t=24's,
        // a million locators each: products of roots anywhere in the
        // field (past n included) with a repeated one or a random
        // quadratic factor mixed in, random coefficients, and the
        // special branches forced.
        let mut rng = StdRng::seed_from_u64(0x27);
        for (m, n) in [(12, 2312), (13, 4408)] {
            let mut oracle = Oracle::new(m, n);
            let f = oracle.field.clone();
            let order = u64::from(f.order());
            let mut complete = 0;
            for i in 0..1_000_000 {
                let deg = rng.gen_range(1usize..=4);
                let mut x = || f.alpha_pow(rng.gen_range(0..order));
                let mut sigma = vec![1];
                match i % 6 {
                    0 | 1 => {
                        // σ(x) = Π (1 + X·x); kind 1 repeats the first root.
                        let first = x();
                        for k in 0..deg {
                            let root = if k == 1 && i % 6 == 1 { first } else { x() };
                            sigma = mul(&f, &sigma, &[1, if k == 0 { first } else { root }]);
                        }
                    }
                    2 if deg >= 2 => {
                        sigma = vec![1, x() ^ x(), x()];
                        for _ in 2..deg {
                            sigma = mul(&f, &sigma, &[1, x()]);
                        }
                    }
                    _ => {
                        sigma.extend((0..deg).map(|_| x()));
                        match (deg, i % 6) {
                            (_, 3) => sigma[1] = 0,
                            (3, 4) => sigma[2] = f.mul(sigma[1], sigma[1]),
                            (4, 4) => sigma[3] = 0,
                            (4, 5) => {
                                // e² = c/a and e⁴ + b·e² + d = 0: x = 0
                                // is a root of the shifted quartic.
                                let e2 = f.div(sigma[3], sigma[1]).unwrap();
                                sigma[4] = f.mul(e2, e2) ^ f.mul(sigma[2], e2);
                            }
                            _ => {}
                        }
                    }
                }
                if sigma[deg] == 0 {
                    continue;
                }
                if oracle.agree(&sigma[..=deg]) == deg {
                    complete += 1;
                }
            }
            assert!(
                complete > 100_000,
                "m = {m}: {complete} locators with all roots"
            );
        }
    }
}
