//! Adaptive per-region ECC tiering.
//!
//! The paper fixes one protection point — RS(72, 64) plus the t = 22
//! VLEW, 27% storage cost everywhere, provisioned for the *worst*
//! region. [`TieredMemory`] instead splits a rank into equally sized
//! regions, tracks each region's measured RBER
//! ([`pmck_nvram::RegionRber`]: the max of the wear-model prediction and
//! the observed error sample), and lets a [`TierPolicy`] assign each
//! region one of the three [`ProtectionTier`] tiers: RS-only for healthy
//! regions (≈ 12.9% cost with the VLEW area accounted as bonus blocks), the
//! paper's point, or the dense layout for worn regions (≈ 41.5%).
//!
//! # Migration protocol
//!
//! A tier change re-encodes the region in place, and the commit rides
//! the same flush machinery as the §V-E re-stripe (installing the
//! domain on the fresh engine marks every stripe dirty, so that one
//! flush stages the whole new image; see `crate::pmem`):
//!
//! 1. read every logical block out of the old engine (erasure/VLEW
//!    corrected — migration doubles as a scrub);
//! 2. build a fresh engine at the new tier and write the blocks in;
//! 3. move the region's [`crate::PmemDomain`] across and flush: the new
//!    data/code arrays *and* the tier-tagged metadata line land in one
//!    fence, so a power cut recovers wholly-old or wholly-new, never a
//!    mix;
//! 4. swap the live engine.
//!
//! Recovery per region replays the intent log, decodes the metadata
//! line, and rebuilds an engine at the *durable* tier before restoring
//! the image — the meta line, not the live state, decides the layout,
//! through the same `crate::pmem` recovery as [`crate::Restripeable`].
//!
//! A region's durable data area is its blocks' 72 B bursts in address
//! order, the same on every tier, so a migration leaves it where it is
//! and its fence logs the re-encoded code area and the meta line. Only
//! the code area's size depends on the tier — one 320 B slot per stripe
//! — and every region's is sized for the **dense** geometry, which has
//! the most stripes.

use pmck_nvram::{FaultKind, RegionRber, WearModel};
use pmck_pmem::PmemConfig;

use crate::config::ChipkillConfig;
use crate::device::{check_injection, record_access, AccessContext, BlockDevice, LayerId};
use crate::engine::ChipkillMemory;
use crate::error::CoreError;
use crate::layout::{ChipkillLayout, ProtectionTier};
use crate::pmem::{self, PmemDomain, Slot};
use crate::request::{Request, Response};
use crate::scrub::ScrubReport;
use crate::stats::CoreStats;

/// Region size quantum: the least common multiple of every tier's
/// blocks-per-VLEW (32 for the paper tier, 16 dense), so any tier's
/// stripes divide a region exactly.
const REGION_QUANTUM: u64 = 32;

/// Maps a region's measured RBER to a protection tier, with hysteresis
/// so regions hovering at a boundary do not thrash.
///
/// Upgrades (toward more protection) take effect immediately — an
/// under-protected region is a UBER liability. Downgrades step one tier
/// at a time and only once the RBER has fallen clearly below the
/// boundary (`boundary × hysteresis`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    /// RBER at or above which a region needs at least the paper tier.
    pub paper_rber: f64,
    /// RBER at or above which a region needs the dense tier.
    pub dense_rber: f64,
    /// Downgrade guard band in `(0, 1]`: a region leaves a tier only
    /// when its RBER is below `boundary × hysteresis`.
    pub hysteresis: f64,
}

impl Default for TierPolicy {
    fn default() -> Self {
        // The paper's runtime tier holds UBER at RBER 2e-4 (§V-C); give
        // RS-only only the comfortably clean regions and escalate to
        // dense at the 1e-3 boot-scrub design point.
        TierPolicy {
            paper_rber: 1e-5,
            dense_rber: 1e-3,
            hysteresis: 0.5,
        }
    }
}

impl TierPolicy {
    /// The tier a region at `rber` should run at, ignoring hysteresis.
    pub fn tier_for(&self, rber: f64) -> ProtectionTier {
        if rber >= self.dense_rber {
            ProtectionTier::Dense
        } else if rber >= self.paper_rber {
            ProtectionTier::Paper
        } else {
            ProtectionTier::RsOnly
        }
    }

    /// The tier a region currently at `current` should move to given its
    /// measured `rber`: upgrades jump straight to [`Self::tier_for`],
    /// downgrades descend one tier per pass and only past the guard
    /// band.
    pub fn next_tier(&self, current: ProtectionTier, rber: f64) -> ProtectionTier {
        let target = self.tier_for(rber);
        if target > current {
            return target;
        }
        if target < current {
            let boundary = match current {
                ProtectionTier::Dense => self.dense_rber,
                ProtectionTier::Paper => self.paper_rber,
                ProtectionTier::RsOnly => return current,
            };
            if rber < boundary * self.hysteresis {
                return match current {
                    ProtectionTier::Dense => ProtectionTier::Paper,
                    ProtectionTier::Paper => ProtectionTier::RsOnly,
                    ProtectionTier::RsOnly => unreachable!("handled above"),
                };
            }
        }
        current
    }
}

/// Per-tier region census plus the blended storage cost, produced by
/// [`TieredMemory::tier_step`] / [`TieredMemory::report`] and merged
/// across shards by the service front end.
///
/// Costs travel as parts-per-million so the report stays `Eq` (the
/// `Response` vocabulary derives it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierReport {
    /// Regions managed.
    pub regions: u64,
    /// Regions at the RS-only tier.
    pub rs_only_regions: u64,
    /// Regions at the paper tier.
    pub paper_regions: u64,
    /// Regions at the dense tier.
    pub dense_regions: u64,
    /// Migrations: performed by this pass when the report answers a
    /// [`crate::Request::TierStep`]; cumulative from
    /// [`TieredMemory::report`].
    pub migrations: u64,
    /// Region-weighted mean storage cost, in parts per million.
    pub blended_cost_ppm: u64,
}

impl TierReport {
    /// Folds `other` into `self` (cross-shard aggregation): counts sum,
    /// the blended cost becomes the region-weighted mean.
    pub fn merge(&mut self, other: &TierReport) {
        let total = self.regions + other.regions;
        let weighted =
            self.blended_cost_ppm * self.regions + other.blended_cost_ppm * other.regions;
        if let Some(blended) = weighted.checked_div(total) {
            self.blended_cost_ppm = blended;
        }
        self.regions = total;
        self.rs_only_regions += other.rs_only_regions;
        self.paper_regions += other.paper_regions;
        self.dense_regions += other.dense_regions;
        self.migrations += other.migrations;
    }

    /// The blended storage cost as a fraction.
    pub fn blended_cost(&self) -> f64 {
        self.blended_cost_ppm as f64 / 1e6
    }
}

/// A rank split into equally sized regions, each running its own
/// [`ChipkillMemory`] at the protection tier its measured RBER demands.
/// See the module docs for the migration protocol.
#[derive(Debug, Clone)]
pub struct TieredMemory {
    regions: Vec<ChipkillMemory>,
    /// Blocks per region (multiple of [`REGION_QUANTUM`]).
    region_blocks: u64,
    policy: TierPolicy,
    rber: RegionRber,
    /// The tier-independent config knobs every region engine inherits.
    base_cfg: ChipkillConfig,
    /// Stats of engines retired by migration or recovery, folded so
    /// [`TieredMemory::core_stats`] never loses history.
    folded_stats: CoreStats,
    migrations: u64,
}

impl TieredMemory {
    /// A rank of `num_blocks` blocks split into `num_regions` regions,
    /// every region starting at `cfg.tier`. The region size is
    /// `num_blocks / num_regions` rounded up to a whole quantum (32
    /// blocks), so the total capacity may round up.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0` or `num_regions == 0`.
    pub fn new(
        num_blocks: u64,
        num_regions: usize,
        cfg: ChipkillConfig,
        policy: TierPolicy,
    ) -> Self {
        assert!(num_blocks > 0, "capacity must be nonzero");
        assert!(num_regions > 0, "at least one region");
        let per_region = num_blocks
            .div_ceil(num_regions as u64)
            .div_ceil(REGION_QUANTUM)
            * REGION_QUANTUM;
        let regions = (0..num_regions)
            .map(|_| ChipkillMemory::new(per_region, cfg))
            .collect();
        TieredMemory {
            regions,
            region_blocks: per_region,
            policy,
            rber: RegionRber::new(num_regions, WearModel::default()),
            base_cfg: cfg,
            folded_stats: CoreStats::default(),
            migrations: 0,
        }
    }

    /// Blocks per region.
    pub fn region_blocks(&self) -> u64 {
        self.region_blocks
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.region_blocks * self.regions.len() as u64
    }

    /// The governing tier policy.
    pub fn policy(&self) -> &TierPolicy {
        &self.policy
    }

    /// The tier region `r` currently runs at.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn region_tier(&self, r: usize) -> ProtectionTier {
        self.regions[r].tier()
    }

    /// The per-region RBER tracker.
    pub fn rber(&self) -> &RegionRber {
        &self.rber
    }

    /// Mutable access to the RBER tracker (campaigns push synthetic
    /// observations through this).
    pub fn rber_mut(&mut self) -> &mut RegionRber {
        &mut self.rber
    }

    /// Installs one persistence domain per region, its code area sized
    /// for the dense geometry's stripe count (the most of the three
    /// tiers) so any tier's code words fit; the data area is the same
    /// size and order on every tier.
    pub(crate) fn set_persistent(&mut self, pcfg: PmemConfig) {
        let dense = ChipkillLayout::dense();
        let stripes = (self.region_blocks as usize) / dense.blocks_per_vlew();
        for region in &mut self.regions {
            region.set_domain(PmemDomain::for_rank(
                &dense,
                stripes,
                self.region_blocks,
                pcfg,
            ));
        }
    }

    /// The current tier census (with cumulative migrations).
    pub fn report(&self) -> TierReport {
        let mut r = TierReport {
            regions: self.regions.len() as u64,
            migrations: self.migrations,
            ..TierReport::default()
        };
        let mut cost_sum = 0.0;
        for region in &self.regions {
            match region.tier() {
                ProtectionTier::RsOnly => r.rs_only_regions += 1,
                ProtectionTier::Paper => r.paper_regions += 1,
                ProtectionTier::Dense => r.dense_regions += 1,
            }
            cost_sum += region.storage_cost();
        }
        r.blended_cost_ppm = (cost_sum / self.regions.len() as f64 * 1e6) as u64;
        r
    }

    /// Merged engine stats across live regions plus every retired
    /// engine, with the migration counter folded in.
    pub fn merged_stats(&self) -> CoreStats {
        let mut total = self.folded_stats;
        for region in &self.regions {
            total.merge(region.stats());
        }
        total.tier_migrations = self.migrations;
        total
    }

    fn region_of(&self, addr: u64) -> Result<(usize, u64), CoreError> {
        let r = (addr / self.region_blocks) as usize;
        if r >= self.regions.len() {
            return Err(CoreError::OutOfRange(addr));
        }
        Ok((r, addr % self.region_blocks))
    }

    /// Physical stored bits of region `r` (data + code arrays), the
    /// denominator for observed-RBER samples.
    fn region_bits(&self, r: usize) -> u64 {
        let engine = &self.regions[r];
        let l = engine.layout();
        (engine.stripes() * l.total_chips() * (l.vlew_data_bytes + l.vlew_code_bytes)) as u64 * 8
    }

    /// One tier-policy pass: re-evaluates every region's measured RBER
    /// and migrates the regions whose tier changed. Regions holding a
    /// detected or injected chip failure are left alone (the repair path
    /// owns them), as are regions whose read-out hits an uncorrectable
    /// block.
    pub fn tier_step(&mut self, ctx: &mut AccessContext) -> TierReport {
        let mut migrated = 0u64;
        for r in 0..self.regions.len() {
            let current = self.regions[r].tier();
            let next = self.policy.next_tier(current, self.rber.measured_rber(r));
            if next != current && self.migrate_region(r, next, ctx) {
                migrated += 1;
            }
        }
        let mut report = self.report();
        report.migrations = migrated;
        report
    }

    /// Re-encodes region `r` at `tier` and commits through the region's
    /// persistence domain (one fence covers the new arrays and the
    /// tier-tagged metadata line). Returns whether the migration
    /// happened.
    fn migrate_region(&mut self, r: usize, tier: ProtectionTier, ctx: &mut AccessContext) -> bool {
        if self.regions[r].detected_failed_chip().is_some()
            || self.regions[r].injected_failure().is_some()
        {
            return false;
        }
        // Read out every logical block (corrected — migration doubles
        // as a scrub). An uncorrectable block aborts the migration;
        // the region stays at its current tier.
        let blocks = self.region_blocks as usize;
        let mut image = vec![0u8; blocks * 64];
        let mut disabled = Vec::new();
        let mut buf = [0u8; 64];
        for a in 0..self.region_blocks {
            if self.regions[r].is_disabled(a) {
                disabled.push(a);
                continue;
            }
            match self.regions[r].read_block_into(a, &mut buf) {
                Ok(_) => {
                    let off = a as usize * 64;
                    image[off..off + 64].copy_from_slice(&buf);
                }
                Err(_) => return false,
            }
        }
        // Build the replacement engine and write the image in.
        let mut fresh = ChipkillMemory::new(self.region_blocks, self.base_cfg.at_tier(tier));
        for a in 0..self.region_blocks {
            let off = a as usize * 64;
            buf.copy_from_slice(&image[off..off + 64]);
            fresh
                .write_block(a, &buf)
                .expect("fresh engine accepts every in-range write");
        }
        for a in disabled {
            let _ = fresh.disable_block(a);
        }
        // Commit: move the domain across and flush — the whole new
        // image plus the tier-tagged meta line in one fence.
        if let Some(domain) = self.regions[r].take_domain() {
            fresh.set_domain(domain);
            pmem::flush(&mut fresh, ctx);
        }
        let old = std::mem::replace(&mut self.regions[r], fresh);
        self.folded_stats.merge(old.stats());
        self.migrations += 1;
        true
    }

    fn boot_scrub(&mut self) -> Result<Response, CoreError> {
        let mut total = ScrubReport::default();
        for region in &mut self.regions {
            let r = region.boot_scrub()?;
            total.stripes_scrubbed += r.stripes_scrubbed;
            total.bits_corrected += r.bits_corrected;
            total.words_with_errors += r.words_with_errors;
            total.chip_rebuilt = total.chip_rebuilt.or(r.chip_rebuilt);
        }
        Ok(Response::BootScrubbed(total))
    }

    /// Rebuilds every region's detected chip; answers the first
    /// region's, as `detected_failed_chip` and the boot scrub do.
    fn repair(&mut self) -> Result<Response, CoreError> {
        let mut repaired = None;
        for region in &mut self.regions {
            if let Some(chip) = region.detected_failed_chip() {
                region.repair_chip(chip)?;
                repaired = repaired.or(Some(chip));
            }
        }
        Ok(Response::Repaired { chip: repaired })
    }
}

impl BlockDevice for TieredMemory {
    fn id(&self) -> LayerId {
        LayerId::Tiered
    }

    fn num_blocks(&self) -> u64 {
        TieredMemory::num_blocks(self)
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.regions.iter().find_map(|r| r.detected_failed_chip())
    }

    fn core_stats(&self) -> Option<CoreStats> {
        Some(self.merged_stats())
    }

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        let result = match req {
            Request::Read(addr) => self
                .region_of(addr)
                .and_then(|(r, local)| self.regions[r].read_block(local))
                .map(Response::Read),
            Request::Write { addr, data } => self.region_of(addr).and_then(|(r, local)| {
                self.rber.record_writes(r, 1);
                self.regions[r]
                    .write_block(local, &data)
                    .map(|_| Response::Written)
            }),
            Request::WriteSum { addr, data } => self.region_of(addr).and_then(|(r, local)| {
                self.rber.record_writes(r, 1);
                self.regions[r]
                    .write_block_sum(local, &data)
                    .map(|_| Response::Written)
            }),
            Request::Scrub(addr) => self
                .region_of(addr)
                .and_then(|(r, local)| self.regions[r].scrub_block(local))
                .map(|_| Response::Scrubbed),
            Request::InjectRber(rber) => {
                check_injection(&req)?;
                // The background rate hits every region; each region's
                // observed-RBER sample sees its own share.
                let mut bits = 0usize;
                for r in 0..self.regions.len() {
                    let flipped = self.regions[r].inject_bit_errors(rber, ctx.rng());
                    let total = self.region_bits(r);
                    self.rber.record_observation(r, flipped as u64, total);
                    bits += flipped;
                }
                Ok(Response::Injected { bits })
            }
            Request::Fault(ev) => match ev.kind {
                FaultKind::Rber { .. } | FaultKind::RberRamp { .. } => {
                    Ok(Response::Injected { bits: 0 })
                }
                // Structured faults strike one region.
                _ => {
                    use pmck_rt::rng::Rng;
                    check_injection(&req)?;
                    let r = ctx.rng().gen_range(0..self.regions.len());
                    let bits = self.regions[r].apply_fault_event(&ev, ctx.rng());
                    let total = self.region_bits(r);
                    self.rber.record_observation(r, bits as u64, total);
                    Ok(Response::Injected { bits })
                }
            },
            Request::BootScrub => self.boot_scrub(),
            Request::Verify => Ok(Response::Verified(
                self.regions.iter_mut().all(|r| r.verify_consistent()),
            )),
            Request::Repair => self.repair(),
            Request::TierStep => {
                let report = self.tier_step(ctx);
                let st = ctx.layer_mut(LayerId::Tiered);
                st.rs_only_regions = report.rs_only_regions;
                st.paper_regions = report.paper_regions;
                st.dense_regions = report.dense_regions;
                st.tier_migrations += report.migrations;
                Ok(Response::Tiered(report))
            }
            Request::Flush => Ok(Response::Flushed {
                lines: self.regions.iter_mut().map(|r| pmem::flush(r, ctx)).sum(),
            }),
            Request::PowerCut => Ok(Response::PowerLost {
                lost_lines: self.regions.iter_mut().map(pmem::power_cut).sum(),
            }),
            // The *durable* tier decides which engine comes back: a crash
            // mid-migration recovers whichever side of the fence committed.
            Request::Recover => {
                let slots = self.regions.iter_mut().map(Slot::Rank);
                pmem::recover(slots, &self.base_cfg, ctx).map(|(report, retired)| {
                    if let Some(stats) = retired {
                        self.folded_stats.merge(&stats);
                    }
                    Response::Recovered(report)
                })
            }
            Request::PatrolStep | Request::Restripe => Err(CoreError::Unsupported(req.kind())),
        };
        record_access(ctx, LayerId::Tiered, &req, &result);
        result
    }

    fn pmem_domain(&mut self) -> Option<&mut PmemDomain> {
        // The campaign's fuse-arming hook: region 0's media. Crash
        // campaigns target one region's migration at a time.
        self.regions[0].domain.as_mut()
    }

    fn tier_report(&self) -> Option<TierReport> {
        Some(self.report())
    }

    fn staging_matches_live(&self) -> Option<bool> {
        // Regions are persistent together or not at all.
        self.regions
            .iter()
            .try_fold(true, |all, r| Some(all && r.staging_matches_live()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        for (i, x) in b.iter_mut().enumerate() {
            *x = tag.wrapping_mul(37).wrapping_add(i as u8);
        }
        b
    }

    #[test]
    fn policy_maps_rber_to_tiers_with_hysteresis() {
        let p = TierPolicy::default();
        assert_eq!(p.tier_for(0.0), ProtectionTier::RsOnly);
        assert_eq!(p.tier_for(1e-4), ProtectionTier::Paper);
        assert_eq!(p.tier_for(5e-3), ProtectionTier::Dense);
        // Upgrades are immediate and jump tiers.
        assert_eq!(
            p.next_tier(ProtectionTier::RsOnly, 5e-3),
            ProtectionTier::Dense
        );
        // Downgrades descend one tier and respect the guard band.
        assert_eq!(
            p.next_tier(ProtectionTier::Dense, 0.0),
            ProtectionTier::Paper
        );
        assert_eq!(
            p.next_tier(ProtectionTier::Dense, 0.9 * p.dense_rber),
            ProtectionTier::Dense,
            "inside the guard band: stay put"
        );
        assert_eq!(
            p.next_tier(ProtectionTier::Paper, 0.0),
            ProtectionTier::RsOnly
        );
        assert_eq!(
            p.next_tier(ProtectionTier::RsOnly, 0.0),
            ProtectionTier::RsOnly
        );
    }

    #[test]
    fn report_merge_weights_blended_cost() {
        let mut a = TierReport {
            regions: 1,
            rs_only_regions: 1,
            blended_cost_ppm: 100_000,
            ..TierReport::default()
        };
        let b = TierReport {
            regions: 3,
            dense_regions: 3,
            blended_cost_ppm: 400_000,
            migrations: 2,
            ..TierReport::default()
        };
        a.merge(&b);
        assert_eq!(a.regions, 4);
        assert_eq!(a.rs_only_regions, 1);
        assert_eq!(a.dense_regions, 3);
        assert_eq!(a.migrations, 2);
        assert_eq!(a.blended_cost_ppm, 325_000);
        assert!((a.blended_cost() - 0.325).abs() < 1e-9);
    }

    #[test]
    fn reads_and_writes_route_to_regions() {
        let mut mem = TieredMemory::new(128, 4, ChipkillConfig::default(), TierPolicy::default());
        assert_eq!(mem.region_blocks(), 32);
        assert_eq!(mem.num_regions(), 4);
        let mut ctx = AccessContext::new(1);
        for a in 0..128u64 {
            mem.access(
                Request::Write {
                    addr: a,
                    data: block(a as u8),
                },
                &mut ctx,
            )
            .unwrap();
        }
        for a in 0..128u64 {
            match mem.access(Request::Read(a), &mut ctx).unwrap() {
                Response::Read(out) => assert_eq!(out.data, block(a as u8), "addr {a}"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(mem.rber().writes(0), 32);
        assert_eq!(mem.rber().writes(3), 32);
        assert!(matches!(
            mem.access(Request::Read(128), &mut ctx),
            Err(CoreError::OutOfRange(128))
        ));
    }

    #[test]
    fn tier_step_migrates_on_observed_rber_and_preserves_data() {
        let mut mem = TieredMemory::new(64, 2, ChipkillConfig::default(), TierPolicy::default());
        let mut ctx = AccessContext::new(2);
        for a in 0..64u64 {
            mem.access(
                Request::Write {
                    addr: a,
                    data: block(a as u8),
                },
                &mut ctx,
            )
            .unwrap();
        }
        // Region 0 looks worn, region 1 pristine.
        mem.rber_mut().record_observation(0, 5, 1000);
        let report = match mem.access(Request::TierStep, &mut ctx).unwrap() {
            Response::Tiered(r) => r,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(report.regions, 2);
        assert_eq!(report.migrations, 2);
        assert_eq!(mem.region_tier(0), ProtectionTier::Dense);
        assert_eq!(mem.region_tier(1), ProtectionTier::RsOnly);
        assert!(report.dense_regions == 1 && report.rs_only_regions == 1);
        for a in 0..64u64 {
            match mem.access(Request::Read(a), &mut ctx).unwrap() {
                Response::Read(out) => assert_eq!(out.data, block(a as u8), "addr {a}"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(mem.merged_stats().tier_migrations, 2);
        // A second pass with unchanged RBER is a no-op.
        let again = match mem.access(Request::TierStep, &mut ctx).unwrap() {
            Response::Tiered(r) => r,
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(again.migrations, 0);
    }

    #[test]
    fn repair_answers_the_first_region_with_a_detected_chip() {
        use pmck_nvram::ChipFailureKind;
        use pmck_rt::rng::StdRng;
        let mut mem = TieredMemory::new(64, 2, ChipkillConfig::default(), TierPolicy::default());
        let mut ctx = AccessContext::new(5);
        let mut rng = StdRng::seed_from_u64(5);
        // Region 0 loses chip 2, region 1 chip 5; a read of each detects it.
        for (r, chip) in [(0, 2), (1, 5)] {
            mem.regions[r].fail_chip(chip, ChipFailureKind::RandomGarbage, &mut rng);
            let addr = r as u64 * mem.region_blocks();
            mem.access(Request::Read(addr), &mut ctx).unwrap();
            assert_eq!(mem.regions[r].detected_failed_chip(), Some(chip));
        }
        assert_eq!(BlockDevice::detected_failed_chip(&mem), Some(2));
        assert_eq!(
            mem.access(Request::Repair, &mut ctx),
            Ok(Response::Repaired { chip: Some(2) })
        );
        assert_eq!(BlockDevice::detected_failed_chip(&mem), None);
    }

    #[test]
    fn blended_cost_tracks_the_census() {
        let mem = TieredMemory::new(64, 2, ChipkillConfig::default(), TierPolicy::default());
        let paper = ProtectionTier::Paper.total_storage_cost();
        let r = mem.report();
        assert_eq!(r.paper_regions, 2);
        assert!((r.blended_cost() - paper).abs() < 1e-4);
    }

    #[test]
    fn persistent_migration_survives_flush_cut_recover() {
        let mut mem = TieredMemory::new(32, 1, ChipkillConfig::default(), TierPolicy::default());
        mem.set_persistent(PmemConfig::default());
        let mut ctx = AccessContext::new(3);
        for a in 0..32u64 {
            mem.access(
                Request::Write {
                    addr: a,
                    data: block(a as u8),
                },
                &mut ctx,
            )
            .unwrap();
        }
        mem.access(Request::Flush, &mut ctx).unwrap();
        // Force a migration to dense, then crash and recover: the
        // durable tier tag must bring the dense engine back.
        mem.rber_mut().record_observation(0, 5, 1000);
        mem.access(Request::TierStep, &mut ctx).unwrap();
        assert_eq!(mem.region_tier(0), ProtectionTier::Dense);
        mem.access(Request::PowerCut, &mut ctx).unwrap();
        mem.access(Request::Recover, &mut ctx).unwrap();
        assert_eq!(mem.region_tier(0), ProtectionTier::Dense);
        for a in 0..32u64 {
            match mem.access(Request::Read(a), &mut ctx).unwrap() {
                Response::Read(out) => assert_eq!(out.data, block(a as u8), "addr {a}"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn cut_mid_migration_recovers_pre_or_post_tier() {
        let build = || {
            let mut mem =
                TieredMemory::new(32, 1, ChipkillConfig::default(), TierPolicy::default());
            mem.set_persistent(PmemConfig::default());
            let mut ctx = AccessContext::new(4);
            for a in 0..32u64 {
                mem.access(
                    Request::Write {
                        addr: a,
                        data: block(a as u8),
                    },
                    &mut ctx,
                )
                .unwrap();
            }
            mem.access(Request::Flush, &mut ctx).unwrap();
            mem.rber_mut().record_observation(0, 5, 1000);
            (mem, ctx)
        };
        // Reference run: learn the migration's step budget.
        let (mut reference, mut ctx) = build();
        let before = reference.pmem_domain().unwrap().steps_taken();
        reference.access(Request::TierStep, &mut ctx).unwrap();
        let steps = reference.pmem_domain().unwrap().steps_taken() - before;
        assert!(steps > 0, "the migration must persist something");

        let mut seen_old = false;
        let mut seen_new = false;
        for cut in (0..=steps).step_by((steps as usize / 8).max(1)) {
            let (mut mem, mut ctx) = build();
            mem.pmem_domain().unwrap().arm_fuse(cut);
            mem.access(Request::TierStep, &mut ctx).unwrap();
            mem.access(Request::PowerCut, &mut ctx).unwrap();
            mem.access(Request::Recover, &mut ctx).unwrap();
            let tier = mem.region_tier(0);
            assert!(
                tier == ProtectionTier::Paper || tier == ProtectionTier::Dense,
                "cut {cut}: unexpected tier {tier}"
            );
            seen_old |= tier == ProtectionTier::Paper;
            seen_new |= tier == ProtectionTier::Dense;
            for a in 0..32u64 {
                match mem.access(Request::Read(a), &mut ctx).unwrap() {
                    Response::Read(out) => {
                        assert_eq!(out.data, block(a as u8), "cut {cut} addr {a}")
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        assert!(seen_old, "an early cut must recover the old tier");
        assert!(seen_new, "a late cut must recover the new tier");
    }
}
