//! Parametric binary BCH codec.
//!
//! Binary BCH codes are the workhorse of the paper's very long ECC words
//! (VLEWs): a `t`-error-correcting BCH code over GF(2^m) spends
//! `t·(⌊log2(k)⌋+1)` code bits to protect `k` data bits. This crate builds
//! shortened systematic BCH codes for arbitrary `(m, t, k)` within
//! `k + t·m ≤ 2^m − 1`, encodes by XORing one entry of a nibble table
//! per four data bits, and decodes via syndromes of the difference
//! between the stored and the re-encoded code bits (a clean word is an
//! encode and a compare; an errorful one's syndromes are one linear map
//! of that difference), Berlekamp–Massey in Berlekamp's binary form, and
//! roots in closed form up to degree four, by Chien search past that.
//! Decoding is bounded to the designed radius `t`: a word past it is
//! rejected untouched (or, as with any bounded-distance decoder,
//! miscorrected). Codes of one `(m, t, k)` share their tables.
//!
//! Instances used by the reproduction:
//!
//! * **VLEW** — t=22, k=2048 bits (256 B of per-chip data), GF(2^12):
//!   264 code bits = 33 B ([`BchCode::vlew`]).
//! * **Per-block baseline** — t=14, k=512 bits (a 64 B block), GF(2^10):
//!   140 code bits, the "bit-error correction only" baseline of §III-A
//!   ([`BchCode::per_block_baseline`]).
//! * **Flash-style words** — t up to 41, k=4096 bits (512 B), GF(2^13)
//!   (Figure 3; [`BchCode::flash512`]).
//!
//! Encoding is linear: `parity(a ⊕ b) = parity(a) ⊕ parity(b)`. The write
//! path of the paper (§V-D) relies on exactly this property to turn a
//! bitwise-sum write into an ECC update, and [`BchCode::parity`] of the
//! XOR of old and new data is that update;
//! [`BchCode::parity_delta_into`] computes it allocation-free from the
//! changed bytes alone.
//!
//! # Examples
//!
//! ```
//! use pmck_bch::{BchCode, BchScratch};
//!
//! let code = BchCode::new(6, 2, 16).unwrap(); // toy: t=2, 16 data bits
//! let mut scratch = BchScratch::new(&code); // one per decoding context
//! let data = [0xAB, 0xCD];
//! let mut cw = code.encode_bytes(&data);
//! cw.flip(3);
//! cw.flip(17);
//! let view = code.decode_scratch(&mut cw, &mut scratch).unwrap();
//! assert_eq!(view.corrected_bits(), &[3, 17]);
//! let stored = cw.slice(code.parity_bits(), code.data_bits());
//! assert_eq!(stored.to_bytes(), data);
//! ```

mod chien;
mod code;
mod decode;
mod encode;
mod error;
mod roots;
mod syndrome;

pub use code::BchCode;
pub use decode::{BchDecodeView, BchScratch, WordVerdict};
pub use error::BchError;

// Re-exported so downstream users can manipulate codewords without also
// depending on pmck-gf directly.
pub use pmck_gf::BitPoly;
