//! Start-Gap wear leveling over the chipkill rank (§V-E).
//!
//! The paper notes the proposal is compatible with wear leveling that
//! dynamically remaps blocks (Qureshi et al.'s Start-Gap \[87\]): after
//! remapping a block, the memory controller updates the VLEW code bits
//! as if the physical bits that previously held the block now contain
//! zeros — the same arithmetic as block disabling.
//!
//! Start-Gap keeps one spare ("gap") physical block and a rotation
//! counter (`start`). Every `gap_move_interval` writes, the gap moves by
//! one: the block just above it is copied into the gap, freeing its old
//! location as the new gap. Over `capacity + 1` moves every logical block
//! has occupied every physical slot, spreading hot writes.
//!
//! [`WearLevelled`] is middleware over any [`BlockDevice`]: it remaps
//! demand reads/writes/scrubs through the current Start-Gap mapping and
//! performs gap moves through the inner device's own access path (so
//! every VLEW stays consistent), zeroing vacated slots exactly as §V-E
//! prescribes. [`WearLevelledMemory`] names the common instance over a
//! bare [`ChipkillMemory`].

use crate::config::ChipkillConfig;
use crate::device::{record_access, AccessContext, BlockDevice, LayerId};
use crate::engine::ChipkillMemory;
use crate::error::{CoreError, RecoveryFailure};
use crate::request::{Request, Response};
use crate::stats::CoreStats;

/// Start-Gap wear-levelled view of an inner block device.
///
/// Logical addresses `0..logical_blocks` map onto a ring of
/// `logical_blocks + 1` physical blocks (one gap) at the bottom of the
/// inner device. Reads and writes are forwarded through the current
/// mapping; every `gap_move_interval` demand writes the gap advances one
/// slot.
#[derive(Debug, Clone)]
pub struct WearLevelled<D> {
    inner: D,
    logical_blocks: u64,
    /// Physical index of the current gap block.
    gap: u64,
    /// Rotation offset: logical 0 currently lives at physical `start`.
    start: u64,
    /// Demand writes between gap moves.
    gap_move_interval: u64,
    writes_since_move: u64,
    gap_moves: u64,
}

/// Start-Gap directly over a chipkill rank.
///
/// # Examples
///
/// ```
/// use pmck_core::{AccessContext, BlockDevice, ChipkillConfig, Request, WearLevelledMemory};
///
/// let mut mem = WearLevelledMemory::new(63, ChipkillConfig::default(), 4);
/// let mut ctx = AccessContext::scratch();
/// for i in 0..200 {
///     let write = Request::Write { addr: i % 63, data: [i as u8; 64] };
///     mem.access(write, &mut ctx).unwrap(); // triggers gap moves
/// }
/// assert!(mem.gap_moves() > 0);
/// ```
pub type WearLevelledMemory = WearLevelled<ChipkillMemory>;

impl<D> WearLevelled<D> {
    /// Usable (logical) capacity in blocks.
    pub fn logical_blocks(&self) -> u64 {
        self.logical_blocks
    }

    /// Completed gap movements.
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// The wrapped device (for scrubbing, injection, stats).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device (error injection in tests;
    /// scrubbing).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// The physical block currently backing `logical` (Start-Gap's
    /// address translation).
    ///
    /// With ring size `n = logical_blocks + 1`, `start` the physical slot
    /// of logical 0 and `gap` the physical slot of the hole, a logical
    /// address walks `logical` slots forward from `start`, skipping the
    /// hole if it lies within that span.
    pub fn physical_of(&self, logical: u64) -> u64 {
        let n = self.logical_blocks + 1;
        let gap_offset = (self.gap + n - self.start) % n;
        let offset = if logical >= gap_offset {
            logical + 1
        } else {
            logical
        };
        (self.start + offset) % n
    }

    fn check(&self, logical: u64) -> Result<(), CoreError> {
        if logical >= self.logical_blocks {
            return Err(CoreError::OutOfRange(logical));
        }
        Ok(())
    }
}

impl<D: BlockDevice> WearLevelled<D> {
    /// Wraps `inner` with Start-Gap leveling over its bottom
    /// `logical_blocks + 1` physical blocks, moving the gap every
    /// `gap_move_interval` demand writes.
    ///
    /// # Panics
    ///
    /// Panics if `logical_blocks == 0`, `gap_move_interval == 0`, or
    /// `inner` has fewer than `logical_blocks + 1` blocks.
    pub fn over(inner: D, logical_blocks: u64, gap_move_interval: u64) -> Self {
        assert!(logical_blocks > 0, "need at least one logical block");
        assert!(gap_move_interval > 0, "interval must be positive");
        assert!(
            inner.num_blocks() > logical_blocks,
            "inner device must spare one gap block ({} <= {logical_blocks})",
            inner.num_blocks()
        );
        WearLevelled {
            gap: logical_blocks, // start with the gap at the top
            start: 0,
            inner,
            logical_blocks,
            gap_move_interval,
            writes_since_move: 0,
            gap_moves: 0,
        }
    }

    /// One Start-Gap move through the inner device's access path: the
    /// block physically just below the gap moves into the gap, and its
    /// old slot — now vacated — is zeroed with the §V-E VLEW update (as
    /// if its physical bits are zeros).
    fn move_gap(&mut self, ctx: &mut AccessContext) -> Result<(), CoreError> {
        let n = self.logical_blocks + 1;
        let victim = (self.gap + n - 1) % n;
        let data = match self.inner.access(Request::Read(victim), ctx)? {
            Response::Read(out) => out.data,
            other => unreachable!("read returned {other:?}"),
        };
        self.inner.access(
            Request::Write {
                addr: self.gap,
                data,
            },
            ctx,
        )?;
        self.inner.access(
            Request::Write {
                addr: victim,
                data: [0u8; 64],
            },
            ctx,
        )?;
        if victim == self.start {
            self.start = (self.start + 1) % n;
        }
        self.gap = victim;
        self.gap_moves += 1;
        ctx.layer_mut(LayerId::Wearlevel).gap_moves += 1;
        Ok(())
    }
}

impl WearLevelled<ChipkillMemory> {
    /// Creates a wear-levelled rank with `logical_blocks` usable blocks
    /// (one extra physical block becomes the roving gap) and a gap move
    /// every `gap_move_interval` writes (Start-Gap uses 100 in \[87\]).
    ///
    /// # Panics
    ///
    /// Panics if `logical_blocks == 0` or `gap_move_interval == 0`.
    pub fn new(logical_blocks: u64, cfg: ChipkillConfig, gap_move_interval: u64) -> Self {
        let inner = ChipkillMemory::new(logical_blocks + 1, cfg);
        Self::over(inner, logical_blocks, gap_move_interval)
    }
}

impl<D: BlockDevice> BlockDevice for WearLevelled<D> {
    fn id(&self) -> LayerId {
        LayerId::Wearlevel
    }

    /// Capacity as seen above the layer: logical blocks only.
    fn num_blocks(&self) -> u64 {
        self.logical_blocks
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.inner.detected_failed_chip()
    }

    fn core_stats(&self) -> Option<CoreStats> {
        self.inner.core_stats()
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req.addr() {
            Some(logical) => self.check(logical).and_then(|()| {
                let phys = self.physical_of(logical);
                let out = self.inner.access(req.with_addr(phys), ctx)?;
                if matches!(req, Request::Write { .. } | Request::WriteSum { .. }) {
                    self.writes_since_move += 1;
                    if self.writes_since_move >= self.gap_move_interval {
                        self.writes_since_move = 0;
                        self.move_gap(ctx)?;
                    }
                }
                Ok(out)
            }),
            // Whole-device operations are not address-translated, but
            // ones that fence durable state must carry the current
            // Start-Gap position down into the domain's metadata first —
            // and recovery restores the mapping the metadata recorded.
            None => {
                if matches!(req, Request::Flush | Request::Restripe) {
                    if let Some(d) = self.inner.pmem_domain() {
                        d.set_wear(self.gap, self.start);
                    }
                }
                let mut out = self.inner.access(req, ctx);
                if matches!(req, Request::Recover) && out.is_ok() {
                    if let Some(d) = self.inner.pmem_domain() {
                        let (gap, start) = d.wear();
                        // The CRC vouches for the line, not for the
                        // position in it: one off the ring would wrap the
                        // mapping's arithmetic.
                        if gap.max(start) > self.logical_blocks {
                            out = Err(CoreError::recovery(RecoveryFailure::CrcMismatch));
                        } else {
                            self.gap = gap;
                            self.start = start;
                            self.writes_since_move = 0;
                        }
                    }
                }
                out
            }
        };
        record_access(ctx, LayerId::Wearlevel, &req, &result);
        result
    }

    fn pmem_domain(&mut self) -> Option<&mut crate::pmem::PmemDomain> {
        self.inner.pmem_domain()
    }

    fn tier_report(&self) -> Option<crate::tier::TierReport> {
        self.inner.tier_report()
    }

    fn staging_matches_live(&self) -> Option<bool> {
        self.inner.staging_matches_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ProtectionTier;
    use pmck_rt::rng::Rng;
    use pmck_rt::rng::StdRng;

    fn put(mem: &mut WearLevelledMemory, ctx: &mut AccessContext, addr: u64, data: [u8; 64]) {
        mem.access(Request::Write { addr, data }, ctx).unwrap();
    }

    fn get(mem: &mut WearLevelledMemory, ctx: &mut AccessContext, addr: u64) -> [u8; 64] {
        let out = mem.access(Request::Read(addr), ctx).unwrap();
        out.read().expect("a read outcome").data
    }

    fn filled(blocks: u64, interval: u64) -> (WearLevelledMemory, AccessContext, Vec<[u8; 64]>) {
        let mut mem = WearLevelledMemory::new(blocks, ChipkillConfig::default(), interval);
        let mut ctx = AccessContext::scratch();
        let data: Vec<[u8; 64]> = (0..blocks)
            .map(|a| {
                let mut b = [0u8; 64];
                for (i, x) in b.iter_mut().enumerate() {
                    *x = (a as u8).wrapping_mul(17) ^ (i as u8);
                }
                put(&mut mem, &mut ctx, a, b);
                b
            })
            .collect();
        (mem, ctx, data)
    }

    #[test]
    fn mapping_is_a_bijection_at_every_step() {
        let mut mem = WearLevelledMemory::new(31, ChipkillConfig::default(), 1);
        let mut ctx = AccessContext::scratch();
        for step in 0..200 {
            let mut seen = std::collections::HashSet::new();
            for l in 0..31 {
                let p = mem.physical_of(l);
                assert!(p < 32, "physical in range");
                assert_ne!(p, mem.gap, "logical never maps to the gap");
                assert!(seen.insert(p), "step {step}: collision at {p}");
            }
            put(&mut mem, &mut ctx, step % 31, [step as u8; 64]);
        }
    }

    #[test]
    fn data_survives_many_rotations() {
        let (mut mem, mut ctx, data) = filled(31, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut truth = data;
        // Enough writes for several full rotations.
        for _ in 0..1500 {
            let l = rng.gen_range(0..31);
            let mut v = [0u8; 64];
            rng.fill_bytes(&mut v[..]);
            put(&mut mem, &mut ctx, l, v);
            truth[l as usize] = v;
        }
        assert!(mem.gap_moves() > 700);
        assert_eq!(
            ctx.layer(LayerId::Wearlevel).unwrap().gap_moves,
            mem.gap_moves()
        );
        for (l, v) in truth.iter().enumerate() {
            assert_eq!(&get(&mut mem, &mut ctx, l as u64), v, "logical {l}");
        }
    }

    #[test]
    fn vlew_consistency_maintained_through_remaps() {
        let (mut mem, mut ctx, _) = filled(63, 1);
        for i in 0..300u64 {
            put(&mut mem, &mut ctx, i % 63, [i as u8; 64]);
        }
        assert!(mem.inner_mut().verify_consistent());
    }

    #[test]
    fn scrub_works_on_levelled_rank() {
        let (mut mem, mut ctx, mut truth) = filled(31, 4);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let l = rng.gen_range(0..31);
            let mut v = [0u8; 64];
            rng.fill_bytes(&mut v[..]);
            put(&mut mem, &mut ctx, l, v);
            truth[l as usize] = v;
        }
        mem.inner_mut().inject_bit_errors(1e-3, &mut rng);
        mem.inner_mut().boot_scrub().unwrap();
        for (l, v) in truth.iter().enumerate() {
            assert_eq!(&get(&mut mem, &mut ctx, l as u64), v);
        }
    }

    #[test]
    fn writes_spread_across_physical_blocks() {
        // Hammering one logical block must touch many physical slots.
        let mut mem = WearLevelledMemory::new(15, ChipkillConfig::default(), 1);
        let mut ctx = AccessContext::scratch();
        let mut touched = std::collections::HashSet::new();
        for i in 0..200u64 {
            touched.insert(mem.physical_of(3));
            put(&mut mem, &mut ctx, 3, [i as u8; 64]);
        }
        assert!(
            touched.len() >= 8,
            "start-gap must rotate the hot block, got {}",
            touched.len()
        );
    }

    #[test]
    fn recovery_rejects_a_sealed_gap_off_the_ring() {
        let mut rank = ChipkillMemory::new(32, ChipkillConfig::default());
        rank.set_domain(crate::pmem::PmemDomain::for_rank(
            rank.layout(),
            rank.stripes(),
            rank.num_blocks(),
            pmck_pmem::PmemConfig::default(),
        ));
        let mut mem = WearLevelled::over(rank, 31, 4);
        let mut ctx = AccessContext::scratch();
        mem.access(Request::Flush, &mut ctx).unwrap();
        // A meta line sealed with a Start-Gap position no flush writes.
        let domain = mem.inner_mut().domain.as_mut().unwrap();
        domain.set_wear(u64::MAX, 0);
        domain.stage_meta(false, None, ProtectionTier::Paper);
        domain.media.drain();
        mem.access(Request::PowerCut, &mut ctx).unwrap();
        match mem.access(Request::Recover, &mut ctx) {
            Err(CoreError::Recovery(e)) => assert_eq!(e.kind(), RecoveryFailure::CrcMismatch),
            other => panic!("expected a recovery error, got {other:?}"),
        }
        assert_eq!(mem.physical_of(0), 0, "the mapping was not adopted");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = WearLevelledMemory::new(8, ChipkillConfig::default(), 4);
        let mut ctx = AccessContext::scratch();
        assert_eq!(
            mem.access(Request::Read(8), &mut ctx),
            Err(CoreError::OutOfRange(8))
        );
        let write = Request::Write {
            addr: 100,
            data: [0; 64],
        };
        assert_eq!(mem.access(write, &mut ctx), Err(CoreError::OutOfRange(100)));
    }
}
