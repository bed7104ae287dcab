//! Post-chip-failure VLEW reconfiguration (§V-E).
//!
//! After a permanent chip failure, one option is to remap the faulty
//! chip's contents onto the ECC (parity) chip, giving up the per-block RS
//! bits. To keep bit-error correction, the memory controller re-encodes
//! each VLEW from 256 B of data *across all surviving chips* — i.e. four
//! consecutive 64 B blocks — instead of 256 B within a single chip. A
//! reconfigured VLEW spans only 4 blocks, so correction fetches 4 blocks
//! rather than 32+. Length and strength are unchanged, so storage cost is
//! unchanged.

use pmck_bch::{BchCode, BchScratch, BitPoly};
use pmck_nvram::BitErrorInjector;
use pmck_rt::rng::Rng;

use crate::device::{AccessContext, BlockDevice, LayerId};
use crate::engine::ChipkillMemory;
use crate::error::CoreError;
use crate::layout::ChipkillLayout;
use crate::pmem::{Durable, Slot};
use crate::rank::{apply_code_delta, ChipStore, CODE_LIMBS};
use crate::request::{Request, Response};
use crate::stats::CoreStats;

/// Blocks per reconfigured VLEW (256 B / 64 B).
pub const BLOCKS_PER_GROUP: usize = 4;

/// A rank that has been reconfigured after a permanent chip failure:
/// the failed chip's data now lives where the RS check bytes were, and
/// VLEWs stripe across the rank in 4-block groups.
#[derive(Debug, Clone)]
pub struct RestripedMemory {
    /// The rank-wide image: one store whose "stripes" are the 4-block
    /// groups, 256 B of data and 33 B of VLEW code each — the paper
    /// geometry's VLEW, which is what `layout` is kept for.
    pub(crate) store: ChipStore,
    pub(crate) layout: ChipkillLayout,
    pub(crate) num_blocks: u64,
    pub(crate) vlew: BchCode,
    /// Reusable decode working memory: one group's VLEW codeword and
    /// the decoder scratch.
    cw: BitPoly,
    scratch: BchScratch,
    pub(crate) bits_corrected: u64,
    /// Persistence domain, moved over from the chipkill rank at the
    /// re-stripe transition (see `crate::pmem`).
    pub(crate) domain: Option<crate::pmem::PmemDomain>,
}

impl RestripedMemory {
    /// Reconfigures a rank with a detected chip failure: every block is
    /// erasure-corrected out of the old layout, then re-encoded into
    /// rank-striped VLEWs.
    ///
    /// # Errors
    ///
    /// Propagates read errors from the old layout.
    pub fn from_failed_rank(mem: &mut ChipkillMemory) -> Result<Self, CoreError> {
        let mut out = Self::zeroed(mem.num_blocks());
        let layout = out.layout;
        for g in 0..out.groups() {
            let group = out.store.vlew_data_mut(g, &layout);
            for (i, block) in group.chunks_exact_mut(64).enumerate() {
                let addr = (g * BLOCKS_PER_GROUP + i) as u64;
                block.copy_from_slice(&mem.read_block(addr)?.data);
            }
            let code = out.encode_group(g);
            out.store.vlew_code_mut(g, &layout).copy_from_slice(&code);
        }
        Ok(out)
    }

    /// An all-zero layout of `num_blocks` blocks with no domain.
    pub(crate) fn zeroed(num_blocks: u64) -> Self {
        let vlew = BchCode::vlew();
        let layout = ChipkillLayout::default();
        debug_assert_eq!(layout.vlew_data_bytes, BLOCKS_PER_GROUP * 64);
        RestripedMemory {
            store: ChipStore::new(num_blocks as usize / BLOCKS_PER_GROUP, &layout),
            layout,
            num_blocks,
            cw: BitPoly::zero(vlew.len()),
            scratch: BchScratch::new(&vlew),
            vlew,
            bits_corrected: 0,
            domain: None,
        }
    }

    fn groups(&self) -> usize {
        self.num_blocks as usize / BLOCKS_PER_GROUP
    }

    fn encode_group(&self, group: usize) -> [u8; 33] {
        let mut limbs = [0u64; CODE_LIMBS];
        self.vlew
            .parity_bytes_into(self.store.vlew_data(group, &self.layout), &mut limbs);
        let mut code = [0u8; 33];
        apply_code_delta(&mut code, &limbs);
        code
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Blocks fetched to correct one block's errors (4, vs 36 before
    /// reconfiguration).
    pub fn blocks_fetched_per_correction(&self) -> usize {
        BLOCKS_PER_GROUP
    }

    /// Total bit errors corrected by reads so far.
    pub fn bits_corrected(&self) -> u64 {
        self.bits_corrected
    }

    /// Reads a block, correcting the 4-block group through its VLEW when
    /// errors are present.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] / [`CoreError::Uncorrectable`].
    pub fn read_block(&mut self, addr: u64) -> Result<[u8; 64], CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let group = addr as usize / BLOCKS_PER_GROUP;
        // The VLEW's 264 parity bits are 33 whole bytes: both regions
        // drop in (and come back out) as byte splices.
        let r = self.vlew.parity_bits();
        self.cw
            .splice_bytes(0, self.store.vlew_code(group, &self.layout));
        self.cw
            .splice_bytes(r, self.store.vlew_data(group, &self.layout));
        let view = self
            .vlew
            .decode_scratch(&mut self.cw, &mut self.scratch)
            .map_err(|_| CoreError::Uncorrectable)?;
        if !view.was_clean() {
            self.bits_corrected += view.num_corrected() as u64;
            // Write the corrected group back (scrub-on-read).
            self.cw
                .extract_bytes(0, self.store.vlew_code_mut(group, &self.layout));
            self.cw
                .extract_bytes(r, self.store.vlew_data_mut(group, &self.layout));
        }
        let off = (addr as usize % BLOCKS_PER_GROUP) * 64;
        let data = self.store.vlew_data(group, &self.layout);
        Ok(data[off..off + 64].try_into().expect("64 bytes"))
    }

    /// Writes a block, updating the group's VLEW code linearly.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`].
    pub fn write_block(&mut self, addr: u64, new: &[u8; 64]) -> Result<(), CoreError> {
        if addr >= self.num_blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let group = addr as usize / BLOCKS_PER_GROUP;
        let off = (addr as usize % BLOCKS_PER_GROUP) * 64;
        // Delta against the stored (assumed-corrected by reads) value:
        // the same 64 B-at-an-offset shape as a chip's §V-D update.
        let stored = &mut self.store.vlew_data_mut(group, &self.layout)[off..off + 64];
        let mut delta = [0u8; 64];
        for (d, (s, n)) in delta.iter_mut().zip(stored.iter().zip(new)) {
            *d = s ^ n;
        }
        stored.copy_from_slice(new);
        let mut limbs = [0u64; CODE_LIMBS];
        self.vlew.parity_delta_into(off * 8, &delta, &mut limbs);
        apply_code_delta(self.store.vlew_code_mut(group, &self.layout), &limbs);
        Ok(())
    }

    /// Injects random bit flips across data and code; returns the count.
    pub fn inject_bit_errors<R: Rng + ?Sized>(&mut self, rber: f64, rng: &mut R) -> usize {
        let inj = BitErrorInjector::new(rber);
        let (data, codes) = self.store.arrays_mut();
        inj.corrupt(data, rng).len() + inj.corrupt(codes, rng).len()
    }

    /// Checks that every group's stored VLEW code matches its data —
    /// i.e. the layout holds no latent errors.
    pub fn verify_consistent(&self) -> bool {
        (0..self.groups())
            .all(|g| self.store.vlew_code(g, &self.layout) == &self.encode_group(g)[..])
    }
}

// The size skew is intentional: there is exactly one RestripeState per
// stack, and boxing the engine would put an indirection on every access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum RestripeState {
    Chipkill(ChipkillMemory),
    Restriped(RestripedMemory),
}

impl RestripeState {
    /// The live layout.
    pub(crate) fn engine_mut(&mut self) -> &mut dyn Durable {
        match self {
            RestripeState::Chipkill(m) => m,
            RestripeState::Restriped(m) => m,
        }
    }
}

/// A chipkill rank that can reconfigure itself into the §V-E re-striped
/// layout *in place* on [`Request::Restripe`]. Before the transition it
/// behaves exactly like the wrapped [`ChipkillMemory`]; afterwards like
/// the [`RestripedMemory`] rebuilt from it. The engine's demand-period
/// [`CoreStats`] are captured at the transition (the rebuild itself
/// reads every block, which would otherwise pollute them).
#[derive(Debug, Clone)]
pub struct Restripeable {
    state: RestripeState,
    final_stats: Option<CoreStats>,
    /// The wrapped rank's configuration, kept so recovery can rebuild
    /// the chipkill layout from the durable image after a crash cut the
    /// re-stripe transition short (see `crate::pmem`).
    cfg: crate::config::ChipkillConfig,
}

impl Restripeable {
    /// Wraps a live chipkill rank.
    pub fn new(rank: ChipkillMemory) -> Self {
        Restripeable {
            cfg: *rank.config(),
            state: RestripeState::Chipkill(rank),
            final_stats: None,
        }
    }

    /// Whether the §V-E transition has happened.
    pub fn is_restriped(&self) -> bool {
        matches!(self.state, RestripeState::Restriped(_))
    }

    fn active(&self) -> &dyn BlockDevice {
        match &self.state {
            RestripeState::Chipkill(m) => m,
            RestripeState::Restriped(m) => m,
        }
    }

    fn active_mut(&mut self) -> &mut dyn BlockDevice {
        self.state.engine_mut()
    }

    /// The §V-E transition: rebuilds the image in the re-striped layout
    /// and commits the layout flip through the intent log — the new
    /// image plus the flipped metadata line in one fence, so a crash
    /// recovers whole-old or whole-new. Without a domain the in-memory
    /// swap is the whole commit.
    fn restripe(&mut self, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let RestripeState::Chipkill(rank) = &mut self.state else {
            return Err(CoreError::Unsupported("restripe"));
        };
        // Snapshot demand-period stats before the rebuild reads (and
        // erasure-decodes) every block. The rebuild stages the complete
        // new image in memory before any committed state changes: on
        // failure the chipkill layout stands untouched.
        let stats = *rank.stats();
        let mut restriped = RestripedMemory::from_failed_rank(rank)?;
        if let Some(domain) = rank.take_domain() {
            restriped.set_domain(domain);
        }
        crate::pmem::flush(&mut restriped, ctx);
        self.state = RestripeState::Restriped(restriped);
        self.final_stats = Some(stats);
        Ok(Response::Restriped)
    }
}

impl BlockDevice for Restripeable {
    fn id(&self) -> LayerId {
        LayerId::Restripeable
    }

    fn num_blocks(&self) -> u64 {
        self.active().num_blocks()
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.active().detected_failed_chip()
    }

    fn core_stats(&self) -> Option<CoreStats> {
        match &self.state {
            RestripeState::Chipkill(m) => Some(*m.stats()),
            _ => self.final_stats,
        }
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req {
            Request::Restripe => self.restripe(ctx),
            // Recovery may land on either side of the durable layout
            // flip, so the durable metadata line — not the live state —
            // decides which layout comes back (see `crate::pmem`).
            Request::Recover if self.pmem_domain().is_some() => {
                crate::pmem::recover([Slot::Layout(&mut self.state)], &self.cfg, ctx).map(
                    |(report, retired)| {
                        if retired.is_some() {
                            self.final_stats = retired;
                        }
                        Response::Recovered(report)
                    },
                )
            }
            // Per-access stats land under the active layout's label.
            other => return self.active_mut().access(other, ctx),
        };
        if result
            .as_ref()
            .is_err_and(|e| !matches!(e, CoreError::Unsupported(_)))
        {
            ctx.layer_mut(LayerId::Restripeable).errors += 1;
        }
        result
    }

    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.active_mut().pmem_domain()
    }

    fn staging_matches_live(&self) -> Option<bool> {
        self.active().staging_matches_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipkillConfig;
    use pmck_nvram::ChipFailureKind;
    use pmck_rt::rng::StdRng;

    fn seeded_rank() -> (ChipkillMemory, Vec<[u8; 64]>) {
        let mut mem = ChipkillMemory::new(64, ChipkillConfig::default());
        let mut blocks = Vec::new();
        for a in 0..64u64 {
            let mut b = [0u8; 64];
            for (i, x) in b.iter_mut().enumerate() {
                *x = (a as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
            mem.write_block(a, &b).unwrap();
            blocks.push(b);
        }
        (mem, blocks)
    }

    #[test]
    fn restripe_preserves_data_after_chip_failure() {
        let (mut mem, blocks) = seeded_rank();
        let mut rng = StdRng::seed_from_u64(5);
        mem.fail_chip(3, ChipFailureKind::RandomGarbage, &mut rng);
        let mut rs = RestripedMemory::from_failed_rank(&mut mem).unwrap();
        for (a, b) in blocks.iter().enumerate() {
            assert_eq!(&rs.read_block(a as u64).unwrap(), b, "block {a}");
        }
    }

    #[test]
    fn restriped_corrects_bit_errors() {
        let (mut mem, blocks) = seeded_rank();
        let mut rng = StdRng::seed_from_u64(6);
        mem.fail_chip(8, ChipFailureKind::StuckOne, &mut rng);
        let mut rs = RestripedMemory::from_failed_rank(&mut mem).unwrap();
        rs.inject_bit_errors(1e-3, &mut rng);
        for (a, b) in blocks.iter().enumerate() {
            assert_eq!(&rs.read_block(a as u64).unwrap(), b, "block {a}");
        }
        assert!(rs.bits_corrected() > 0);
    }

    #[test]
    fn restriped_write_read_round_trip() {
        let (mut mem, _) = seeded_rank();
        let mut rng = StdRng::seed_from_u64(7);
        mem.fail_chip(0, ChipFailureKind::StuckZero, &mut rng);
        let mut rs = RestripedMemory::from_failed_rank(&mut mem).unwrap();
        let nb = [0xEEu8; 64];
        rs.write_block(17, &nb).unwrap();
        rs.inject_bit_errors(5e-4, &mut rng);
        assert_eq!(rs.read_block(17).unwrap(), nb);
        assert_eq!(rs.blocks_fetched_per_correction(), 4);
    }

    #[test]
    fn out_of_range() {
        let (mut mem, _) = seeded_rank();
        let mut rng = StdRng::seed_from_u64(8);
        mem.fail_chip(1, ChipFailureKind::RandomGarbage, &mut rng);
        let mut rs = RestripedMemory::from_failed_rank(&mut mem).unwrap();
        assert!(matches!(rs.read_block(64), Err(CoreError::OutOfRange(64))));
    }
}
