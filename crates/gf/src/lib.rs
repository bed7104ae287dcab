//! Finite-field arithmetic for the pmck error-correction stack.
//!
//! This crate provides the algebraic substrate shared by the BCH and
//! Reed-Solomon codecs:
//!
//! * [`Gf2m`] — a runtime-parameterized binary extension field GF(2^m)
//!   (3 ≤ m ≤ 16) backed by log/antilog tables. The BCH codec uses
//!   GF(2^10), GF(2^12) and GF(2^13) instances.
//! * [`Gf256`] — the byte field GF(2^8) with the `0x11D` reduction
//!   polynomial, used by the per-block Reed-Solomon code. Elements are the
//!   newtype [`Gf256`] with the usual operator overloads.
//! * [`FieldPoly`] — dense polynomials with coefficients in a [`Gf2m`]
//!   field (error locators, evaluators, generator polynomials).
//! * [`BitPoly`] — bit-packed polynomials over GF(2) (codewords and
//!   generator polynomials of binary BCH codes).
//! * [`SyndromeRows`] — precomputed multiply-by-`alpha^j` row tables that
//!   turn syndrome evaluation over byte fields into chains of table
//!   lookups, one chain per syndrome (the RS hot-path kernel).
//!
//! # Examples
//!
//! ```
//! use pmck_gf::{Gf2m, Gf256};
//!
//! let field = Gf2m::new(12).unwrap();
//! let a = field.alpha_pow(5);
//! let b = field.inv(a).unwrap();
//! assert_eq!(field.mul(a, b), 1);
//!
//! let x = Gf256::from(0x53u8);
//! let y = Gf256::from(0xCAu8);
//! assert_eq!(x * y / y, x);
//! ```

mod binpoly;
mod field;
mod gf256;
mod poly;
mod primitive;
mod syndrome;

pub use binpoly::BitPoly;
pub use field::{Gf2m, GfError};
pub use gf256::Gf256;
pub use poly::FieldPoly;
pub use primitive::default_primitive_poly;
pub use syndrome::SyndromeRows;
