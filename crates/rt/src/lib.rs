//! `pmck-rt` — the dependency-free runtime foundation of the workspace.
//!
//! Every other `pmck-*` crate builds on these modules instead of
//! crates.io dependencies, so the whole workspace compiles and tests with
//! **zero registry access**:
//!
//! * [`rng`] — deterministic pseudo-randomness: SplitMix64 seeding,
//!   xoshiro256\*\* streams, uniform ranges, Bernoulli/binomial samplers
//!   tailored to RBER bit-flip injection (replaces `rand`).
//! * [`json`] — a small JSON value tree with writer and parser for
//!   experiment-result serialization (replaces `serde`/`serde_json`).
//! * [`par`] — a `std::thread::scope`-based chunked parallel map whose
//!   per-chunk RNG seeds are derived deterministically, so Monte-Carlo
//!   campaigns are bit-identical at any worker count.
//! * [`pool`] — [`pool::ShardPool`], a lock-free streaming worker pool
//!   with pinned per-worker state, built on [`ring`] (replaces
//!   `rayon`/`crossbeam` channel pools).
//! * [`ring`] — a fixed-capacity lock-free SPSC ring plus a
//!   spin-then-park [`ring::Parker`]: the transport under `ShardPool`.
//! * [`metrics`] — HDR-style latency [`metrics::Histogram`]s and a
//!   registry that publishes finished counters, gauges and histograms
//!   as JSON: one uniform observability surface for the memory
//!   controller, the LLC, the chipkill engine and the service.
//! * [`alloc`] — a counting global allocator behind the
//!   `alloc_free_*` proofs and `microbench`'s `allocs_per_op`.
//!
//! # Determinism contract
//!
//! Given the same seed, every generator in [`rng`] produces the same
//! stream on every platform, and [`par::mc_chunks`] produces the same
//! per-chunk results for any worker count — the scheduling only decides
//! *who* computes a chunk, never *what* the chunk computes.

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod par;
pub mod pool;
pub mod ring;
pub mod rng;

pub use json::Json;
pub use metrics::MetricsRegistry;
pub use rng::{Rng, SmallRng, SplitMix64, StdRng, Xoshiro256StarStar};
