//! The pmck benchmark: five WHISPER-driven end-to-end workloads over the
//! public `Submitter` surfaces, an oracle that checks every read, and a
//! traced ladder of assemblies that attributes each request's time to
//! the layers it crosses. `README.md` beside this crate documents the
//! workloads, the metrics and the measured API surface.

pub mod alloc;
pub mod cli;
pub mod ladder;
pub mod measure;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stream;
pub mod sut;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
