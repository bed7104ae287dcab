//! One module per paper artifact, each exposing `run() -> Experiment`,
//! and the [`ARTIFACTS`] table that names them all.
//!
//! Analytic experiments are cheap and exact; simulation experiments
//! replay the workload suite through the full-system simulator.

use crate::report::Experiment;

/// How an artifact is regenerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-form or Monte-Carlo arithmetic: fast.
    Analytic,
    /// A replay of the 16-workload suite (each triggers the shared run).
    Simulation,
}

/// Declares the artifact modules and the table over them from one list,
/// in presentation order.
macro_rules! artifacts {
    ($($name:ident: $kind:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every artifact: its name, how it is regenerated, and the
        /// regenerator.
        pub const ARTIFACTS: &[(&str, Kind, fn() -> Experiment)] =
            &[$((stringify!($name), Kind::$kind, $name::run)),*];
    };
}

artifacts! {
    fig01: Analytic,
    fig02: Analytic,
    fig03: Analytic,
    fig04: Analytic,
    fig05: Analytic,
    fig07: Analytic,
    sec3a: Analytic,
    storage: Analytic,
    frontier: Analytic,
    scrub: Analytic,
    runtime: Analytic,
    appendix: Analytic,
    table1: Analytic,
    ablate_threshold: Analytic,
    fig10: Simulation,
    fig14: Simulation,
    fig15: Simulation,
    fig16: Simulation,
    fig17: Simulation,
    fig18: Simulation,
    ablate_omv: Simulation,
    ablate_eur: Simulation,
}
