//! Deterministic fault-campaign harness for the pmck workspace.
//!
//! Three pieces, all std-only (the workspace's zero-dependency policy
//! extends to its test infrastructure):
//!
//! * a seeded **property-test runner** ([`Runner`]) with greedy input
//!   shrinking and failure persistence: failing cases are written as
//!   JSON into the checked-in `tests/corpus/` regression corpus and
//!   replayed first on every subsequent run;
//! * **differential oracles** ([`oracle`]) — a Peterson–Gorenstein–
//!   Zierler reference decoder for BCH and a linear-system erasure
//!   reference and an exhaustive one-and-two-error reference for
//!   RS(72, 64), run side-by-side with the production codecs asserting
//!   identical accept/reject/correct verdicts — and polynomial-division
//!   references for the table-driven BCH and RS encoders;
//! * re-exports of the **fault-schedule DSL** ([`FaultSchedule`], owned
//!   by `pmck-nvram` so the engine and simulators can consume it
//!   without a dependency cycle) that campaign drivers like the `soak`
//!   binary feed from.
//!
//! # Examples
//!
//! ```
//! use pmck_harness::{ByteErrorCase, Runner};
//! use pmck_rs::{RsCode, RsScratch, ThresholdOutcome};
//! use pmck_rt::Rng;
//!
//! let code = RsCode::per_block();
//! let mut scratch = RsScratch::new(&code);
//! let dir = std::env::temp_dir().join("pmck-harness-doc");
//! Runner::new("doc:rs:threshold").seed(1).cases(64).corpus_dir(dir).run(
//!     |rng| {
//!         let mut data = vec![0u8; 64];
//!         rng.fill_bytes(&mut data);
//!         ByteErrorCase { data, errors: vec![(rng.gen_range(0usize..72), 0x40)] }
//!     },
//!     |case| {
//!         let mut word = case.corrupted(&code);
//!         match code.decode_with_threshold_scratch(&mut word, 2, &mut scratch) {
//!             Ok(ThresholdOutcome::Accepted { corrections: 1 }) => Ok(()),
//!             other => Err(format!("single error not accepted: {other:?}")),
//!         }
//!     },
//! );
//! ```

pub mod cases;
pub mod corpus;
pub mod oracle;
pub mod runner;

pub use cases::{
    BitFlipBatchCase, BitFlipCase, ByteErrorCase, ChipkillErasureCase, ClusterScenario, CrashOp,
    CrashPlan, EncodeCase, ErasureCase, FieldPairCase, JsonCase, StreamPlan,
};
pub use oracle::{
    diff_bch, diff_bch_batch, diff_bch_encode, diff_rs_erasures, diff_rs_parity, diff_rs_small,
    ref_bch_decode, ref_bch_parity, ref_rs_erasure_decode, ref_rs_parity, ref_rs_small_decode,
    RefBchOutcome, RefRsOutcome,
};
pub use runner::{Case, Failure, RunReport, Runner};

pub use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind, FaultSchedule, ScheduleError};
