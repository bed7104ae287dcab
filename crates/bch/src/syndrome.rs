//! The odd syndromes of a remainder by one linear map.
//!
//! A decode never evaluates the stored word: `BchCode::syndromes_into`
//! re-encodes the data and XORs the stored code bits, leaving the `r`-bit
//! remainder ρ of the word mod `g` (33 bytes for the VLEW), and
//! `S_j = ρ(α^j)` for every `j ≤ 2t`. Evaluation at a fixed point is
//! GF(2)-linear in the bits of ρ, so all `t` odd syndromes together are
//! one linear map of ρ. [`SyndromeMap`] holds that map by nibbles, as
//! `ParityTable` holds the encoder: one table entry per value of each
//! aligned 4-bit piece of ρ, XORed together — 66 lookups for the VLEW,
//! whatever the error weight. The even syndromes of a binary word are
//! squares, `S_2j = S_j²`.

use pmck_gf::Gf2m;

/// The syndrome map's nibble table.
///
/// Entry `(q, v)`, for nibble index `q < ⌈r/4⌉` and nibble value
/// `v < 16`, holds `S_1, S_3, …, S_{2t−1}` of the polynomial
/// `v(x)·x^{4q}`: `S_j = Σ α^{j·(4q+b)}` over the set bits `b` of `v`.
/// The syndromes sit in 16-bit lanes, four to a little-endian `u64`
/// limb (`S_{2i+1}` in lane `i % 4` of limb `i / 4`), at
/// `entries[(16q + v)·limbs..]` with `limbs = ⌈t/4⌉`. The VLEW's table
/// is 66 × 16 × 6 limbs = 49.5 KiB.
#[derive(Debug, Clone)]
pub(crate) struct SyndromeMap {
    limbs: usize,
    entries: Vec<u64>,
}

impl SyndromeMap {
    /// Builds the map of a `t`-error-correcting code with `r` parity
    /// bits over `field`. Row `4q + b` (the odd syndromes of `x^{4q+b}`)
    /// completes the entries of nibble `q` whose top set bit is `b`.
    pub(crate) fn new(field: &Gf2m, t: usize, r: usize) -> Self {
        let limbs = t.div_ceil(4);
        let mut entries = vec![0u64; r.div_ceil(4) * 16 * limbs];
        let mut row = vec![0u64; limbs];
        for (q, nibble) in entries.chunks_exact_mut(16 * limbs).enumerate() {
            for b in 0..4 {
                let p = (4 * q + b) as u64;
                row.fill(0);
                for i in 0..t {
                    let s = u64::from(field.alpha_pow((2 * i as u64 + 1) * p));
                    row[i / 4] |= s << (i % 4 * 16);
                }
                for v in (1 << b)..(2 << b) {
                    let (below, from_v) = nibble.split_at_mut(v * limbs);
                    let without_b = &below[(v ^ (1 << b)) * limbs..][..limbs];
                    for ((e, w), x) in from_v.iter_mut().zip(without_b).zip(&row) {
                        *e = w ^ x;
                    }
                }
            }
        }
        SyndromeMap { limbs, entries }
    }

    /// Writes the `2t = out.len()` syndromes of the polynomial whose
    /// coefficients are the bits of `rho` (limbs of at most `r` bits)
    /// into `out`, `out[j − 1] = S_j`.
    pub(crate) fn syndromes_into(&self, field: &Gf2m, rho: &[u64], out: &mut [u32]) {
        let t = out.len() / 2;
        with_zeroed_limbs(self.limbs, |acc| {
            for (i, &limb) in rho.iter().enumerate() {
                let (mut bits, mut at) = (limb, i * 16 * 16);
                while bits != 0 {
                    let entry = (at + (bits & 15) as usize) * self.limbs;
                    for (a, e) in acc.iter_mut().zip(&self.entries[entry..][..self.limbs]) {
                        *a ^= e;
                    }
                    bits >>= 4;
                    at += 16;
                }
            }
            for i in 0..t {
                out[2 * i] = (acc[i / 4] >> (i % 4 * 16)) as u32 & 0xFFFF;
            }
        });
        for j in (2..=2 * t).step_by(2) {
            out[j - 1] = field.square(out[j / 2 - 1]);
        }
    }
}

/// Runs `f` on `len` zeroed limbs: on the stack up to sixteen (every
/// remainder and syndrome accumulator of every code this workspace
/// builds), on the heap past that.
pub(crate) fn with_zeroed_limbs<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let mut on_stack = [0u64; 16];
    match on_stack.get_mut(..len) {
        Some(limbs) => f(limbs),
        None => f(&mut vec![0; len]),
    }
}

#[cfg(test)]
mod tests {
    use crate::encode::tests::workspace_codes;

    #[test]
    fn every_map_entry_equals_the_naive_sum_on_every_code() {
        for (name, code) in workspace_codes() {
            let (f, t, r) = (code.field(), code.t(), code.parity_bits());
            let map = &code.tables.syndromes;
            assert_eq!(
                map.entries.len(),
                r.div_ceil(4) * 16 * t.div_ceil(4),
                "{name}"
            );
            for (q, nibble) in map.entries.chunks_exact(16 * map.limbs).enumerate() {
                for (v, entry) in nibble.chunks_exact(map.limbs).enumerate() {
                    for i in 0..t {
                        let j = 2 * i as u64 + 1;
                        let want = (0..4)
                            .filter(|b| v >> b & 1 != 0)
                            .fold(0, |s, b| s ^ f.alpha_pow(j * (4 * q + b) as u64));
                        let got = (entry[i / 4] >> (i % 4 * 16)) & 0xFFFF;
                        assert_eq!(got, u64::from(want), "{name}: entry ({q}, {v}), S_{j}");
                    }
                    // Lanes past S_{2t−1} stay zero: the unpack never
                    // reads them, and nothing else should either.
                    let used = 16 * (t - (map.limbs - 1) * 4);
                    if used < 64 {
                        assert_eq!(entry[map.limbs - 1] >> used, 0, "{name}: ({q}, {v})");
                    }
                }
            }
        }
    }
}
