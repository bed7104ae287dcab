//! Byte-sliced BCH syndrome evaluation.
//!
//! The naive kernel walks `iter_ones()` and pays one `alpha_pow` (a
//! modular reduction plus a table lookup) per *set bit* per odd syndrome —
//! for a random 2312-bit VLEW word that is ~1150 field ops per syndrome.
//! The sliced kernel instead exploits `S_j = r(alpha^j) = (r mod m_j)(alpha^j)`
//! where `m_j` is the minimal polynomial of `alpha^j` over GF(2): the whole
//! word is reduced mod the degree-`d` binary polynomial `m_j` (d ≤ m)
//! byte-at-a-time, CRC-style, consuming the codeword's `u64` limbs eight
//! bits per table step, and only the tiny d-bit remainder is evaluated in
//! the field. That is `⌈n/8⌉` table lookups per odd syndrome — ~290 for
//! the VLEW — independent of error weight, with even syndromes still
//! derived by squaring (`S_2j = S_j²`).
//!
//! The decoder does not walk the stored word at all: it re-encodes the
//! data part, XORs the result with the stored code bits, and hands this
//! kernel the difference ρ — `r` bits, 33 bytes for the VLEW — whose
//! syndromes are the word's (see `BchCode::syndromes_into`). The kernel
//! itself takes any polynomial as limbs; its walk over a whole word
//! survives as the reference the tests compare that shortcut against.
//!
//! Each reduction chain is serially dependent (every table step needs the
//! previous remainder), so a single chain leaves the core mostly idle.
//! The kernel therefore walks the word once per *group of four* direct
//! syndromes, advancing four independent remainder chains per byte — the
//! loads and XORs of the four chains overlap in the pipeline, recovering
//! most of the latency the dependence chain would otherwise serialize.

use pmck_gf::{FieldPoly, Gf2m};

/// How one odd syndrome `S_j` is computed.
#[derive(Clone)]
enum OddSyndrome {
    /// Reduce the word mod the minimal polynomial `m_j`, then evaluate the
    /// remainder at `alpha^j`.
    Direct {
        /// `d = deg m_j` (the cyclotomic coset size of `j`).
        deg: u32,
        /// `(1 << d) − 1`.
        mask: u32,
        /// `table[h] = (h(x)·x^d) mod m_j` for every 8-bit chunk `h`.
        table: Vec<u32>,
        /// `eval[i] = alpha^(j·i)`, evaluating remainder bit `i`.
        eval: Vec<u32>,
    },
    /// `S_j = S_{j'}^(2^s)` because `j ≡ j'·2^s (mod 2^m − 1)` puts `j`
    /// in the cyclotomic coset of the earlier odd `j'`.
    Derived {
        /// Index into the odd-syndrome list: `j' = 2·from + 1`.
        from: usize,
        /// Number of squarings `s`.
        squarings: u32,
    },
}

/// A precomputed byte-sliced evaluation plan for all `2t` syndromes of a
/// binary BCH code.
#[derive(Clone)]
pub struct SyndromePlan {
    t: usize,
    /// Entry `i` computes the odd syndrome `S_{2i+1}`.
    odd: Vec<OddSyndrome>,
    /// Indices into `odd` of the `Direct` entries, in order — the chains
    /// the interleaved limb walk schedules four at a time.
    direct: Vec<usize>,
}

impl std::fmt::Debug for SyndromePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let direct = self
            .odd
            .iter()
            .filter(|o| matches!(o, OddSyndrome::Direct { .. }))
            .count();
        f.debug_struct("SyndromePlan")
            .field("t", &self.t)
            .field("direct", &direct)
            .field("derived", &(self.odd.len() - direct))
            .finish()
    }
}

impl SyndromePlan {
    /// Builds the plan for a `t`-error-correcting code over `field`.
    ///
    /// # Panics
    ///
    /// Panics if any required root exponent collapses to zero mod the
    /// field order (never the case for a valid BCH construction, where
    /// `2t − 1` is below the natural length).
    pub fn new(field: &Gf2m, t: usize) -> Self {
        let order = field.order() as u64;
        let mut odd: Vec<OddSyndrome> = Vec::with_capacity(t);
        for j in (1..=2 * t as u64 - 1).step_by(2) {
            let jm = j % order;
            assert_ne!(jm, 0, "syndrome exponent {j} collapses mod field order");
            // An earlier odd j' with j ≡ j'·2^s shares a coset: derive by
            // squaring instead of re-reducing the whole word.
            let derived = odd.iter().enumerate().find_map(|(idx, _)| {
                let jp = (2 * idx as u64 + 1) % order;
                let mut e = jp;
                for s in 1..=field.degree() {
                    e = (e * 2) % order;
                    if e == jm {
                        return Some(OddSyndrome::Derived {
                            from: idx,
                            squarings: s,
                        });
                    }
                }
                None
            });
            if let Some(d) = derived {
                odd.push(d);
                continue;
            }
            // Cyclotomic coset of j and the minimal polynomial of alpha^j.
            let mut coset = Vec::new();
            let mut e = jm;
            loop {
                coset.push(e);
                e = (e * 2) % order;
                if e == jm {
                    break;
                }
            }
            let mut mp = FieldPoly::one(field);
            for &e in &coset {
                mp = mp.mul(&FieldPoly::from_coeffs(field, vec![field.alpha_pow(e), 1]));
            }
            let coeffs = mp.coeffs();
            let deg = (coeffs.len() - 1) as u32;
            debug_assert_eq!(deg as usize, coset.len());
            let mut poly_bits = 0u32;
            for (i, &c) in coeffs.iter().enumerate() {
                debug_assert!(c <= 1, "minimal polynomial coefficient must be binary");
                poly_bits |= c << i;
            }
            // table[h] = (h << d) mod m_j by bitwise long division; the
            // quotient bits span [d, d+8).
            let table = (0..256u32)
                .map(|h| {
                    let mut v = h << deg;
                    for bit in (deg..deg + 8).rev() {
                        if (v >> bit) & 1 == 1 {
                            v ^= poly_bits << (bit - deg);
                        }
                    }
                    v
                })
                .collect();
            let eval = (0..deg as u64)
                .map(|i| field.alpha_pow((jm * i) % order))
                .collect();
            odd.push(OddSyndrome::Direct {
                deg,
                mask: (1 << deg) - 1,
                table,
                eval,
            });
        }
        let direct = odd
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, OddSyndrome::Direct { .. }))
            .map(|(i, _)| i)
            .collect();
        SyndromePlan { t, odd, direct }
    }

    /// The number of syndromes the plan covers, `2t`.
    pub fn count(&self) -> usize {
        2 * self.t
    }

    /// Evaluates at `α^1..α^2t` the binary polynomial whose coefficients
    /// are the bits of `limbs`, little-endian (a `BitPoly`'s limbs), into
    /// `out` (`out[j-1] = S_j`). Returns `true` when every value is
    /// zero, i.e. the generator divides the polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 2t`.
    pub fn syndromes_into(&self, field: &Gf2m, limbs: &[u64], out: &mut [u32]) -> bool {
        assert_eq!(out.len(), 2 * self.t, "syndrome buffer length mismatch");
        // Leading zero bytes leave every remainder at zero: start each
        // chain at the polynomial's top nonzero byte.
        let top = limbs.iter().rposition(|&limb| limb != 0);
        let bytes = top.map_or(0, |i| i * 8 + 8 - limbs[i].leading_zeros() as usize / 8);
        let mut nonzero = 0u32;
        // Direct odds first, four interleaved reduction chains per limb
        // walk; the last partial group narrows the interleave width.
        let mut chunk = self.direct.as_slice();
        while !chunk.is_empty() {
            let n = chunk.len().min(4);
            let (head, rest) = chunk.split_at(n);
            match n {
                4 => self.reduce_group::<4>(head, limbs, bytes, out, &mut nonzero),
                3 => self.reduce_group::<3>(head, limbs, bytes, out, &mut nonzero),
                2 => self.reduce_group::<2>(head, limbs, bytes, out, &mut nonzero),
                _ => self.reduce_group::<1>(head, limbs, bytes, out, &mut nonzero),
            }
            chunk = rest;
        }
        // Derived odds square an already-computed direct syndrome (a
        // derivation's root is always the coset's first odd, a `Direct`).
        for (idx, plan) in self.odd.iter().enumerate() {
            if let OddSyndrome::Derived { from, squarings } = plan {
                let mut v = out[2 * from];
                for _ in 0..*squarings {
                    v = field.square(v);
                }
                out[2 * idx] = v;
                nonzero |= v;
            }
        }
        // Even syndromes of a binary code: S_2j = S_j².
        for j in (2..=2 * self.t).step_by(2) {
            let v = field.square(out[j / 2 - 1]);
            out[j - 1] = v;
            nonzero |= v;
        }
        nonzero == 0
    }

    /// Runs `N` direct reduction chains (`idxs`, indices into `odd`) over
    /// one pass of the low `bytes` bytes of `limbs`, then evaluates each
    /// remainder and stores `out[2·idx] = S_{2·idx+1}`.
    fn reduce_group<const N: usize>(
        &self,
        idxs: &[usize],
        limbs: &[u64],
        bytes: usize,
        out: &mut [u32],
        nonzero: &mut u32,
    ) {
        debug_assert_eq!(idxs.len(), N);
        // (deg, mask, table, eval) per chain; the fixed-size `[u32; 256]`
        // table views plus the `& 0xFF` index below let the inner loop run
        // without bounds checks.
        let parts: [(u32, u32, &[u32; 256], &[u32]); N] =
            std::array::from_fn(|i| match &self.odd[idxs[i]] {
                OddSyndrome::Direct {
                    deg,
                    mask,
                    table,
                    eval,
                } => {
                    let table: &[u32; 256] =
                        table.as_slice().try_into().expect("table has 256 entries");
                    (*deg, *mask, table, eval.as_slice())
                }
                OddSyndrome::Derived { .. } => unreachable!("direct index at a derived entry"),
            });
        // Consume the polynomial eight bits per step, most significant
        // byte first.
        let mut rem = [0u32; N];
        for i in (0..bytes).rev() {
            let byte = ((limbs[i / 8] >> (i % 8 * 8)) & 0xFF) as u32;
            for (r, &(d, mask, table, _)) in rem.iter_mut().zip(&parts) {
                let t = (*r << 8) | byte;
                *r = (t & mask) ^ table[((t >> d) & 0xFF) as usize];
            }
        }
        // Evaluate each d-bit remainder at its alpha^j.
        for (i, (&idx, &(_, _, _, eval))) in idxs.iter().zip(&parts).enumerate() {
            let mut acc = 0u32;
            let mut bits = rem[i];
            while bits != 0 {
                acc ^= eval[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
            out[2 * idx] = acc;
            *nonzero |= acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::BchCode;
    use pmck_gf::BitPoly;
    use pmck_rt::rng::StdRng;

    /// The naive reference kernel: alpha_pow per set bit.
    fn slow_syndromes(code: &BchCode, word: &BitPoly) -> Vec<u32> {
        let f = code.field();
        let order = f.order() as u64;
        let t = code.t();
        let mut s = vec![0u32; 2 * t];
        for j in (1..=2 * t as u64).step_by(2) {
            let mut acc = 0u32;
            for p in word.iter_ones() {
                acc ^= f.alpha_pow((j * p as u64) % order);
            }
            s[(j - 1) as usize] = acc;
        }
        for j in (2..=2 * t).step_by(2) {
            s[j - 1] = f.square(s[j / 2 - 1]);
        }
        s
    }

    fn random_word(rng: &mut StdRng, len: usize) -> BitPoly {
        let mut w = BitPoly::zero(len);
        for i in 0..len {
            if rng.next_u64() & 1 == 1 {
                w.set(i, true);
            }
        }
        w
    }

    #[test]
    fn sliced_matches_naive_vlew() {
        let code = BchCode::vlew();
        let plan = SyndromePlan::new(code.field(), code.t());
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..20 {
            let w = random_word(&mut rng, code.len());
            let mut s = vec![0u32; plan.count()];
            let clean = plan.syndromes_into(code.field(), w.limbs(), &mut s);
            let reference = slow_syndromes(&code, &w);
            assert_eq!(s, reference);
            assert_eq!(clean, reference.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn clean_codeword_reports_all_zero() {
        let code = BchCode::vlew();
        let plan = SyndromePlan::new(code.field(), code.t());
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_word(&mut rng, code.data_bits());
        let cw = code.encode(&data);
        let mut s = vec![0u32; plan.count()];
        assert!(plan.syndromes_into(code.field(), cw.limbs(), &mut s));
        assert!(s.iter().all(|&x| x == 0));
        let mut dirty = cw.clone();
        dirty.flip(1234);
        assert!(!plan.syndromes_into(code.field(), dirty.limbs(), &mut s));
    }

    #[test]
    fn sliced_matches_naive_small_fields() {
        // Small fields exercise short minimal polynomials (d < 8) where
        // the table's quotient window is wider than the remainder.
        for (m, t, k) in [(4u32, 2usize, 7usize), (6, 3, 20), (10, 14, 512)] {
            let code = BchCode::new(m, t, k).unwrap();
            let plan = SyndromePlan::new(code.field(), code.t());
            let mut rng = StdRng::seed_from_u64(m as u64 * 1000 + t as u64);
            for _ in 0..10 {
                let w = random_word(&mut rng, code.len());
                let mut s = vec![0u32; plan.count()];
                plan.syndromes_into(code.field(), w.limbs(), &mut s);
                assert_eq!(s, slow_syndromes(&code, &w), "m={m} t={t}");
            }
        }
    }

    #[test]
    fn derived_syndromes_via_coset_sharing() {
        // GF(2^6), t=13: 25 ≡ 11·2^3 (mod 63), so S_25 derives from S_11
        // by squaring — the plan must have at least one derived entry and
        // still agree with the naive kernel.
        let code = BchCode::new(6, 13, 10).unwrap();
        let plan = SyndromePlan::new(code.field(), code.t());
        let dbg = format!("{plan:?}");
        assert!(
            !dbg.contains("derived: 0"),
            "expected a derived entry in {dbg}"
        );
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let w = random_word(&mut rng, code.len());
            let mut s = vec![0u32; plan.count()];
            plan.syndromes_into(code.field(), w.limbs(), &mut s);
            assert_eq!(s, slow_syndromes(&code, &w));
        }
    }
}
