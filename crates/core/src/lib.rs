//! Chipkill-correct for persistent memory on high-density NVRAMs — the
//! paper's proposal as a functional engine.
//!
//! # The scheme in brief
//!
//! A rank of nine NVRAM chips (eight data + one parity) serves 64 B blocks,
//! 8 B per chip. Two ECC tiers protect it (§V):
//!
//! * **VLEWs (boot tier)** — within each chip, every 256 B of row data
//!   forms a very long ECC word with 33 B of 22-bit-error-correcting BCH
//!   code, enough to survive RBER 10⁻³ after a week-to-a-year without
//!   refresh. At boot, [`ChipkillMemory::boot_scrub`] decodes every VLEW;
//!   a VLEW that is uncorrectable reveals a failed chip, which is then
//!   rebuilt through Reed-Solomon erasure correction (or, for the parity
//!   chip, recomputed from the data chips).
//! * **Per-block RS (runtime tier)** — every block carries eight RS check
//!   bytes in the parity chip. They exist for chip-failure erasure
//!   correction, but [`ChipkillMemory::read_block`] *reuses* them to
//!   opportunistically correct random bit errors — accepting at most
//!   [`ChipkillConfig::threshold`] (2) corrections to keep the SDC rate
//!   below target, and falling back to VLEW decoding otherwise.
//!
//! Writes carry `old ⊕ new` (bitwise-sum writes, §V-D): each chip
//! reconstructs the new data internally and derives the VLEW code-bit
//! update from the same sum (BCH is linear), coalescing updates per open
//! row in an ECC Update Registerfile. [`ChipkillMemory::write_block_sum`]
//! models this; its observable state is bit-identical to a conventional
//! write ([`ChipkillMemory::write_block`]), which property tests verify.
//!
//! The §III-A comparison point lives in [`BaselineMemory`]: a per-block
//! 14-bit-EC BCH with the same storage cost but no chip-failure
//! protection.
//!
//! # Examples
//!
//! ```
//! use pmck_core::{ChipkillConfig, ChipkillMemory};
//!
//! let mut rng = pmck_rt::rng::StdRng::seed_from_u64(1);
//! let mut mem = ChipkillMemory::new(64, ChipkillConfig::default());
//! let block = [0x5Au8; 64];
//! mem.write_block(3, &block);
//!
//! // A long power outage accumulates errors …
//! mem.inject_bit_errors(1e-3, &mut rng);
//! // … which the boot scrub removes.
//! let report = mem.boot_scrub().unwrap();
//! assert!(report.bits_corrected > 0 || report.stripes_scrubbed > 0);
//! assert_eq!(mem.read_block(3).unwrap().data, block);
//! ```

mod baseline;
mod config;
mod device;
mod engine;
mod error;
mod iocrc;
mod layout;
mod patrol;
mod pmem;
mod rank;
mod request;
mod restripe;
mod scrub;
mod stack;
mod stats;
mod submit;
mod tier;
mod wearlevel;

pub use baseline::{BaselineMemory, BaselineReadOutcome};
pub use config::ChipkillConfig;
pub use device::{
    AccessContext, BlockDevice, LayerId, LayerStats, ParseLayerIdError, RecoveryReport,
};
pub use engine::{ChipkillMemory, ReadOutcome, ReadPath};
pub use error::{
    ClusterError, ClusterFailure, CoreError, Failure, FailureKind, RecoveryError, RecoveryFailure,
    ServiceError, ServiceFailure,
};
pub use iocrc::{crc16, BusFault, LinkProtected, TransmitOutcome, WriteLink};
pub use layout::{ChipkillLayout, ProtectionTier};
pub use patrol::{PatrolReport, PatrolScrubber, Patrolled};
pub use pmem::PmemDomain;
pub use request::{merge_broadcast, Request, Response};
pub use restripe::{Restripeable, RestripedMemory, BLOCKS_PER_GROUP};
pub use scrub::ScrubReport;
pub use stack::{Stack, StackBuilder};
pub use stats::CoreStats;
pub use submit::{EagerTickets, SubmitTicket, Submitter};
pub use tier::{TierPolicy, TierReport, TieredMemory};
pub use wearlevel::{WearLevelled, WearLevelledMemory};

// Re-exports used in public signatures.
pub use pmck_nvram::{ChipFailureKind, FailedChip};
pub use pmck_pmem::PmemConfig;
