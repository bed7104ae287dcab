//! Experiment harness: one regenerator per table/figure of the paper,
//! and the fault campaign the `soak` binary drives.
//!
//! Each experiment lives in [`experiments`] and produces a structured
//! [`report::Experiment`] with *paper-reported* versus *measured* values,
//! so the same code drives the `experiments` binary — `experiments
//! fig04 appendix` prints the named artifacts, and without names it runs
//! them all and rewrites `EXPERIMENTS.md` — and assertions in tests.
//!
//! Analytic experiments (Figures 2–5, 7, the Appendix, §III/§IV/§V
//! arithmetic) are exact and fast. Simulation experiments (Figures 10,
//! 14–18) replay the 16-workload suite through the full-system simulator
//! via [`simsuite`]; set `PMCK_QUICK=1` to shorten them.
//!
//! [`campaign`] is the one soak campaign, generic over
//! `pmck_core::Submitter`: the same seeded fault schedule, operation mix
//! and mirror oracle against a `Stack`, a `ShardedService` or a
//! `Cluster`.

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod simsuite;
