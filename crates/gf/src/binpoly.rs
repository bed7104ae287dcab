//! Bit-packed polynomials over GF(2).
//!
//! [`BitPoly`] doubles as the codeword container for binary BCH codes: bit
//! `i` is the coefficient of `x^i`.

use std::fmt;

/// A polynomial over GF(2), bit-packed into `u64` limbs (bit `i` of the
/// logical bit string is the coefficient of `x^i`).
///
/// `BitPoly` is used both for BCH generator polynomials and as the
/// bit-addressable codeword buffer of BCH encode/decode operations.
///
/// # Examples
///
/// ```
/// use pmck_gf::BitPoly;
///
/// // x^3 + x + 1
/// let mut p = BitPoly::zero(4);
/// p.set(0, true);
/// p.set(1, true);
/// p.set(3, true);
/// assert_eq!(p.degree(), Some(3));
/// assert_eq!(p.count_ones(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitPoly {
    bits: Vec<u64>,
    len: usize,
}

impl fmt::Debug for BitPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitPoly(len={}, ones={})", self.len, self.count_ones())
    }
}

impl BitPoly {
    /// An all-zero bit string of logical length `len`.
    pub fn zero(len: usize) -> Self {
        BitPoly {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from an integer: bit `i` of `v` becomes the coefficient of
    /// `x^i`. Length is `max(len, 1)` where `len` covers all set bits.
    pub fn from_u64(v: u64, len: usize) -> Self {
        let needed = (64 - v.leading_zeros()) as usize;
        let len = len.max(needed).max(1);
        let mut p = BitPoly::zero(len);
        if !p.bits.is_empty() {
            p.bits[0] = v;
        }
        p
    }

    /// Builds from raw little-endian limbs (the inverse of
    /// [`BitPoly::limbs`]) with logical length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` is not exactly `⌈len/64⌉` long or carries set
    /// bits at or beyond `len`.
    pub fn from_limbs(limbs: Vec<u64>, len: usize) -> Self {
        assert_eq!(limbs.len(), len.div_ceil(64), "limb count mismatch");
        if !len.is_multiple_of(64) {
            assert_eq!(limbs[len / 64] >> (len % 64), 0, "set bits beyond len");
        }
        BitPoly { bits: limbs, len }
    }

    /// Builds from bytes in little-endian bit order: bit `j` of `bytes[i]`
    /// is the coefficient of `x^(8*i + j)`. Logical length is
    /// `8 * bytes.len()`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut p = BitPoly::zero(bytes.len() * 8);
        for (i, &b) in bytes.iter().enumerate() {
            let limb = i / 8;
            let shift = (i % 8) * 8;
            p.bits[limb] |= (b as u64) << shift;
        }
        p
    }

    /// Serializes to bytes (inverse of [`BitPoly::from_bytes`]); the length
    /// is rounded up to whole bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.len.div_ceil(8);
        let mut out = vec![0u8; n];
        for (i, o) in out.iter_mut().enumerate() {
            let limb = i / 8;
            let shift = (i % 8) * 8;
            *o = (self.bits[limb] >> shift) as u8;
        }
        out
    }

    /// The logical length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The raw little-endian `u64` limbs (bit `i` of the polynomial is
    /// bit `i % 64` of `limbs()[i / 64]`). Bits at or beyond
    /// [`BitPoly::len`] in the last limb are always zero, so lane-sliced
    /// kernels may consume whole limbs without masking.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.bits
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrites `self` with `src`'s bits without reallocating — the
    /// allocation-free counterpart of `clone_from` for hot loops that
    /// reuse one buffer across iterations.
    ///
    /// # Panics
    ///
    /// Panics if the logical lengths differ.
    #[inline]
    pub fn copy_from(&mut self, src: &BitPoly) {
        assert_eq!(self.len, src.len, "copy_from length mismatch");
        self.bits.copy_from_slice(&src.bits);
    }

    /// Overwrites the bit range `[offset, offset + 8·bytes.len())` with
    /// `bytes` in little-endian bit order (as [`BitPoly::from_bytes`])
    /// without allocating — the in-place counterpart of building a
    /// temporary `from_bytes` polynomial and [`BitPoly::splice`]-ing it in.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not byte-aligned or the range runs past the
    /// logical length.
    pub fn splice_bytes(&mut self, offset: usize, bytes: &[u8]) {
        assert_eq!(offset % 8, 0, "splice_bytes offset must be byte-aligned");
        assert!(
            offset + bytes.len() * 8 <= self.len,
            "splice_bytes range out of bounds"
        );
        for (i, &b) in bytes.iter().enumerate() {
            let bit = offset + i * 8;
            let limb = bit / 64;
            let shift = bit % 64;
            self.bits[limb] = (self.bits[limb] & !(0xFFu64 << shift)) | ((b as u64) << shift);
        }
    }

    /// Copies the bit range `[offset, offset + 8·out.len())` into `out` in
    /// little-endian bit order — the allocation-free inverse of
    /// [`BitPoly::splice_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not byte-aligned or the range runs past the
    /// logical length.
    pub fn extract_bytes(&self, offset: usize, out: &mut [u8]) {
        assert_eq!(offset % 8, 0, "extract_bytes offset must be byte-aligned");
        assert!(
            offset + out.len() * 8 <= self.len,
            "extract_bytes range out of bounds"
        );
        for (i, o) in out.iter_mut().enumerate() {
            let bit = offset + i * 8;
            *o = (self.bits[bit / 64] >> (bit % 64)) as u8;
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.bits[i / 64] ^= 1u64 << (i % 64);
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// The degree (index of the highest set bit), or `None` if zero.
    pub fn degree(&self) -> Option<usize> {
        for (i, limb) in self.bits.iter().enumerate().rev() {
            if *limb != 0 {
                return Some(i * 64 + 63 - limb.leading_zeros() as usize);
            }
        }
        None
    }

    /// Whether all bits are zero.
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&l| l == 0)
    }

    /// XORs `other` into `self` (lengths need not match; the shorter operand
    /// is implicitly zero-extended, and `self` keeps its length — callers
    /// must ensure `other` fits).
    ///
    /// # Panics
    ///
    /// Panics if `other` has set bits beyond `self.len()`.
    pub fn xor_assign(&mut self, other: &BitPoly) {
        if let Some(d) = other.degree() {
            assert!(d < self.len, "xor operand exceeds target length");
        }
        for (i, limb) in other.bits.iter().enumerate() {
            if i < self.bits.len() {
                self.bits[i] ^= limb;
            }
        }
    }

    /// XORs `other << shift_bits` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the shifted operand would exceed `self.len()`.
    pub fn xor_shifted(&mut self, other: &BitPoly, shift_bits: usize) {
        if let Some(d) = other.degree() {
            assert!(
                d + shift_bits < self.len,
                "shifted xor operand exceeds target length"
            );
        } else {
            return;
        }
        let limb_shift = shift_bits / 64;
        let bit_shift = shift_bits % 64;
        for (i, &limb) in other.bits.iter().enumerate() {
            if limb == 0 {
                continue;
            }
            let lo = i + limb_shift;
            if lo < self.bits.len() {
                self.bits[lo] ^= limb << bit_shift;
            }
            if bit_shift != 0 {
                let hi = lo + 1;
                if hi < self.bits.len() {
                    self.bits[hi] ^= limb >> (64 - bit_shift);
                }
            }
        }
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &limb)| {
            let mut l = limb;
            std::iter::from_fn(move || {
                if l == 0 {
                    return None;
                }
                let tz = l.trailing_zeros() as usize;
                l &= l - 1;
                Some(i * 64 + tz)
            })
        })
    }

    /// Carry-less (GF(2)) polynomial multiplication.
    pub fn clmul(&self, other: &BitPoly) -> BitPoly {
        let (da, db) = match (self.degree(), other.degree()) {
            (Some(a), Some(b)) => (a, b),
            _ => return BitPoly::zero(1),
        };
        let mut out = BitPoly::zero(da + db + 1);
        for i in self.iter_ones() {
            out.xor_shifted(other, i);
        }
        out
    }

    /// Remainder of `self` modulo `divisor` (GF(2) polynomial division).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn rem(&self, divisor: &BitPoly) -> BitPoly {
        let dd = divisor.degree().expect("division by zero polynomial");
        let mut r = self.clone();
        loop {
            let dr = match r.degree() {
                Some(d) if d >= dd => d,
                _ => break,
            };
            r.xor_shifted_unchecked(divisor, dr - dd);
        }
        let mut out = BitPoly::zero(dd.max(1));
        for i in r.iter_ones() {
            out.set(i, true);
        }
        out
    }

    fn xor_shifted_unchecked(&mut self, other: &BitPoly, shift_bits: usize) {
        let limb_shift = shift_bits / 64;
        let bit_shift = shift_bits % 64;
        for (i, &limb) in other.bits.iter().enumerate() {
            if limb == 0 {
                continue;
            }
            let lo = i + limb_shift;
            if lo < self.bits.len() {
                self.bits[lo] ^= limb << bit_shift;
            }
            if bit_shift != 0 {
                let hi = lo + 1;
                if hi < self.bits.len() {
                    self.bits[hi] ^= limb >> (64 - bit_shift);
                }
            }
        }
    }

    /// Extracts the bit range `[start, start+len)` as a new `BitPoly` of
    /// length `len`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.len()`.
    pub fn slice(&self, start: usize, len: usize) -> BitPoly {
        assert!(start + len <= self.len, "slice out of range");
        let mut out = BitPoly::zero(len.max(1));
        for i in 0..len {
            if self.get(start + i) {
                out.set(i, true);
            }
        }
        out
    }

    /// Copies `src` into the bit range starting at `start`, one source
    /// limb (two shifted limb writes) at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.len()`.
    pub fn splice(&mut self, start: usize, src: &BitPoly) {
        assert!(start + src.len() <= self.len, "splice out of range");
        let limb_shift = start / 64;
        let bit_shift = start % 64;
        for (i, &limb) in src.bits.iter().enumerate() {
            // Bits at or beyond `src.len()` are zero, so only the mask
            // needs trimming on the last limb.
            let nbits = (src.len - i * 64).min(64);
            let mask = u64::MAX >> (64 - nbits);
            let lo = i + limb_shift;
            self.bits[lo] = (self.bits[lo] & !(mask << bit_shift)) | (limb << bit_shift);
            if bit_shift + nbits > 64 {
                let back = 64 - bit_shift;
                self.bits[lo + 1] = (self.bits[lo + 1] & !(mask >> back)) | (limb >> back);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut p = BitPoly::zero(130);
        assert!(!p.get(0));
        p.set(0, true);
        p.set(64, true);
        p.set(129, true);
        assert!(p.get(0) && p.get(64) && p.get(129));
        assert_eq!(p.count_ones(), 3);
        p.flip(64);
        assert!(!p.get(64));
        assert_eq!(p.degree(), Some(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = BitPoly::zero(8);
        let _ = p.get(8);
    }

    #[test]
    fn splice_and_extract_bytes_match_from_to_bytes() {
        // splice_bytes at a byte-aligned offset must agree with the
        // allocating splice(from_bytes(..)) path, and extract_bytes must
        // invert it.
        let mut p = BitPoly::from_bytes(&[0xFFu8; 9]); // 72 bits, all ones
        let payload = [0xDEu8, 0xAD, 0xBE, 0xEF];
        p.splice_bytes(24, &payload);
        let mut q = BitPoly::from_bytes(&[0xFFu8; 9]);
        q.splice(24, &BitPoly::from_bytes(&payload));
        assert_eq!(p.to_bytes(), q.to_bytes());
        let mut got = [0u8; 4];
        p.extract_bytes(24, &mut got);
        assert_eq!(got, payload);
        // Bits outside the spliced range are untouched.
        let mut edges = [0u8; 3];
        p.extract_bytes(0, &mut edges);
        assert_eq!(edges, [0xFF; 3]);
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let src = BitPoly::from_bytes(&[0x12u8, 0x34, 0x56]);
        let mut dst = BitPoly::zero(24);
        dst.copy_from(&src);
        assert_eq!(dst.to_bytes(), src.to_bytes());
    }

    #[test]
    #[should_panic(expected = "byte-aligned")]
    fn splice_bytes_rejects_unaligned_offset() {
        let mut p = BitPoly::zero(32);
        p.splice_bytes(3, &[0xAA]);
    }

    #[test]
    fn bytes_round_trip() {
        let bytes = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x01];
        let p = BitPoly::from_bytes(&bytes);
        assert_eq!(p.len(), 40);
        assert_eq!(p.to_bytes(), bytes);
        // bit 1 of byte 0 (0xDE = 1101_1110): bit0=0, bit1=1
        assert!(!p.get(0));
        assert!(p.get(1));
    }

    #[test]
    fn from_u64_and_degree() {
        // 0x11D = x^8 + x^4 + x^3 + x^2 + 1: five terms.
        let p = BitPoly::from_u64(0x11D, 0);
        assert_eq!(p.degree(), Some(8));
        assert_eq!(p.count_ones(), 5);
        let z = BitPoly::from_u64(0, 0);
        assert_eq!(z.degree(), None);
        assert!(z.is_zero());
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut p = BitPoly::zero(200);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idxs {
            p.set(i, true);
        }
        let got: Vec<usize> = p.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn clmul_known() {
        // (x + 1)(x + 1) = x^2 + 1 over GF(2)
        let p = BitPoly::from_u64(0b11, 0);
        let sq = p.clmul(&p);
        assert_eq!(sq.degree(), Some(2));
        assert!(sq.get(0) && !sq.get(1) && sq.get(2));
    }

    #[test]
    fn rem_known() {
        // x^8 mod (x^8+x^4+x^3+x^2+1) = x^4+x^3+x^2+1 = 0x1D
        let x8 = BitPoly::from_u64(1 << 8, 0);
        let m = BitPoly::from_u64(0x11D, 0);
        let r = x8.rem(&m);
        let mut v = 0u64;
        for i in r.iter_ones() {
            v |= 1 << i;
        }
        assert_eq!(v, 0x1D);
    }

    #[test]
    fn rem_of_multiple_is_zero() {
        let g = BitPoly::from_u64(0b1011, 0); // x^3+x+1
        let q = BitPoly::from_u64(0b1101, 0);
        let prod = g.clmul(&q);
        assert!(prod.rem(&g).is_zero());
    }

    #[test]
    fn xor_shifted_cross_limb() {
        let mut a = BitPoly::zero(130);
        let b = BitPoly::from_u64(u64::MAX, 64);
        a.xor_shifted(&b, 60);
        let expected: Vec<usize> = (60..124).collect();
        let got: Vec<usize> = a.iter_ones().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn from_limbs_inverts_limbs() {
        let p = BitPoly::from_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x7F]);
        assert_eq!(BitPoly::from_limbs(p.limbs().to_vec(), p.len()), p);
    }

    #[test]
    #[should_panic(expected = "beyond len")]
    fn from_limbs_rejects_stray_high_bits() {
        let _ = BitPoly::from_limbs(vec![0x100], 8);
    }

    #[test]
    fn splice_matches_bit_by_bit_for_every_alignment() {
        // The limb-wise copy against the obvious form, for every
        // (start mod 64, len mod 64) pair, with source lengths on both
        // sides of a limb boundary and a non-zero destination so stale
        // bits inside the range and clobbered bits outside it both show.
        fn pattern(len: usize, salt: u64) -> BitPoly {
            let mut p = BitPoly::zero(len);
            let mut x = salt | 1;
            for i in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                p.set(i, x & 1 != 0);
            }
            p
        }
        for start in 0..64usize {
            for len_mod in 0..64usize {
                for len in [len_mod, len_mod + 64, len_mod + 128] {
                    let start = start + 64 * (len_mod % 2);
                    let src = pattern(len, (start * 131 + len) as u64);
                    let dst = pattern(start + len + 70, 0x9E37_79B9);
                    let mut fast = dst.clone();
                    fast.splice(start, &src);
                    let mut slow = dst.clone();
                    for i in 0..len {
                        slow.set(start + i, src.get(i));
                    }
                    assert_eq!(fast, slow, "start {start}, len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "splice out of range")]
    fn splice_past_the_end_panics() {
        let mut p = BitPoly::zero(100);
        p.splice(40, &BitPoly::zero(61));
    }

    #[test]
    fn slice_splice_round_trip() {
        let mut p = BitPoly::zero(100);
        for i in (0..100).step_by(7) {
            p.set(i, true);
        }
        let s = p.slice(10, 50);
        let mut q = BitPoly::zero(100);
        q.splice(10, &s);
        for i in 10..60 {
            assert_eq!(p.get(i), q.get(i), "bit {i}");
        }
    }
}
