//! Reed-Solomon codec over GF(2^8) with errors-and-erasures decoding and
//! threshold-limited correction.
//!
//! The paper protects every 64 B memory block with eight RS check bytes
//! stored in a ninth (parity) chip — the code RS(72, 64) over GF(2^8) with
//! minimum distance 9. Those eight check bytes serve two roles:
//!
//! * **Chip-failure (erasure) correction** — when a chip is known dead, its
//!   eight byte positions within the block are erasures, and `d − 1 = 8`
//!   erasures are correctable ([`RsCode::decode_erasures_scratch`]).
//! * **Opportunistic runtime bit-error correction** (§V-C) — up to four
//!   random byte errors are correctable, but accepting 3- or 4-byte
//!   corrections carries a miscorrection (SDC) risk the paper deems too
//!   high; the controller therefore *accepts at most two corrections* and
//!   falls back to VLEW decoding otherwise
//!   ([`RsCode::decode_with_threshold_scratch`]).
//!
//! # Examples
//!
//! ```
//! use pmck_rs::{RsCode, RsScratch, ThresholdOutcome};
//!
//! let code = RsCode::per_block();
//! let mut scratch = RsScratch::new(&code); // one per decoding context
//! let data: Vec<u8> = (0..64).collect();
//! let mut cw = code.encode(&data);
//!
//! // Two byte errors: accepted at the paper's threshold of 2.
//! cw[10] ^= 0x5A;
//! cw[20] ^= 0xA5;
//! match code.decode_with_threshold_scratch(&mut cw, 2, &mut scratch).unwrap() {
//!     ThresholdOutcome::Accepted { corrections } => assert_eq!(corrections, 2),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! assert_eq!(cw[code.check_symbols()..], data);
//! ```

mod code;
mod decode;
mod error;
mod threshold;

pub use code::RsCode;
pub use decode::{RsDecodeView, RsScratch};
pub use error::RsError;
pub use threshold::{RejectReason, ThresholdOutcome};
