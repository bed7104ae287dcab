//! Patrol scrubbing: the runtime refresh that keeps RBER at the paper's
//! runtime design points.
//!
//! The analytic model (§III) assumes errors accumulate between refreshes
//! and that a refresh corrects them; the runtime RBER targets (7·10⁻⁵
//! ReRAM, 2·10⁻⁴ hourly-refresh PCM) are *defined* by how often memory is
//! scrubbed. [`PatrolScrubber`] walks any [`BlockDevice`] in fixed-size
//! increments (as real memory controllers do) so each full pass bounds
//! every block's time-since-correction. [`Patrolled`] packages the
//! scrubber as middleware: it answers [`Request::PatrolStep`] and can
//! interleave increments automatically with demand traffic.

use crate::device::{AccessContext, BlockDevice, LayerId};
use crate::error::CoreError;
use crate::request::{Request, Response};
use crate::stats::CoreStats;

/// Progress report from one patrol increment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatrolReport {
    /// Blocks scrubbed in this increment.
    pub blocks_scrubbed: u64,
    /// Blocks skipped because they are disabled.
    pub blocks_skipped: u64,
    /// Whether this increment wrapped past the end (completed a pass).
    pub completed_pass: bool,
}

/// A round-robin patrol scrubber over one block device.
///
/// # Examples
///
/// ```
/// use pmck_core::{ChipkillConfig, ChipkillMemory, PatrolScrubber};
///
/// let mut mem = ChipkillMemory::new(64, ChipkillConfig::default());
/// let mut patrol = PatrolScrubber::new(16);
/// let report = patrol.step(&mut mem).unwrap();
/// assert_eq!(report.blocks_scrubbed, 16);
/// ```
#[derive(Debug, Clone)]
pub struct PatrolScrubber {
    cursor: u64,
    blocks_per_step: u64,
    passes: u64,
}

impl PatrolScrubber {
    /// A scrubber that visits `blocks_per_step` blocks per increment.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_step == 0`.
    pub fn new(blocks_per_step: u64) -> Self {
        assert!(blocks_per_step > 0, "step must be positive");
        PatrolScrubber {
            cursor: 0,
            blocks_per_step,
            passes: 0,
        }
    }

    /// Completed full passes over the device.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The next block the patrol will visit.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Scrubs the next increment of `dev`.
    ///
    /// # Errors
    ///
    /// Propagates the first uncorrectable error encountered and ends the
    /// increment there. The cursor has already moved past the failing
    /// block ([`PatrolScrubber::cursor`] is one beyond it), so the next
    /// step carries on behind it: one lost word costs the patrol that
    /// word, not the rest of the device.
    pub fn step<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
    ) -> Result<PatrolReport, CoreError> {
        let mut ctx = AccessContext::scratch();
        self.step_ctx(dev, &mut ctx)
    }

    /// [`PatrolScrubber::step`] with the caller's [`AccessContext`]
    /// (stats and trace land in the composed stack's context).
    ///
    /// # Errors
    ///
    /// As [`PatrolScrubber::step`].
    pub fn step_ctx<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        ctx: &mut AccessContext,
    ) -> Result<PatrolReport, CoreError> {
        let mut report = PatrolReport::default();
        for _ in 0..self.blocks_per_step {
            let scrubbed = dev.access(Request::Scrub(self.cursor), ctx);
            self.cursor += 1;
            if self.cursor >= dev.num_blocks() {
                self.cursor = 0;
                self.passes += 1;
                report.completed_pass = true;
            }
            match scrubbed {
                Ok(_) => report.blocks_scrubbed += 1,
                Err(CoreError::Disabled(_)) => report.blocks_skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Runs increments until one full pass completes.
    ///
    /// # Errors
    ///
    /// As [`PatrolScrubber::step`].
    pub fn full_pass<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
    ) -> Result<PatrolReport, CoreError> {
        let mut total = PatrolReport::default();
        loop {
            let r = self.step(dev)?;
            total.blocks_scrubbed += r.blocks_scrubbed;
            total.blocks_skipped += r.blocks_skipped;
            if r.completed_pass {
                total.completed_pass = true;
                return Ok(total);
            }
        }
    }
}

/// Patrol-scrub middleware: carries a [`PatrolScrubber`] over its inner
/// device, answering [`Request::PatrolStep`] and (optionally) running one
/// increment automatically every `every` demand accesses — the
/// background-scrub cadence a memory controller would schedule.
#[derive(Debug, Clone)]
pub struct Patrolled<D> {
    inner: D,
    scrubber: PatrolScrubber,
    /// Demand accesses between automatic increments; 0 = manual only.
    every: u64,
    since_step: u64,
}

impl<D: BlockDevice> Patrolled<D> {
    /// Wraps `inner` with a patrol scrubber visiting `blocks_per_step`
    /// blocks per increment. `every > 0` schedules an automatic
    /// increment after that many demand reads/writes; `every == 0`
    /// leaves stepping entirely to [`Request::PatrolStep`].
    pub fn over(inner: D, blocks_per_step: u64, every: u64) -> Self {
        Patrolled {
            inner,
            scrubber: PatrolScrubber::new(blocks_per_step),
            every,
            since_step: 0,
        }
    }

    /// The patrol scrubber's state (cursor, completed passes).
    pub fn scrubber(&self) -> &PatrolScrubber {
        &self.scrubber
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    fn run_step(&mut self, ctx: &mut AccessContext) -> Result<PatrolReport, CoreError> {
        // Counted from the scrubber, not the report: a step that fails
        // on the device's last block still completes the pass.
        let passes = self.scrubber.passes();
        let result = self.scrubber.step_ctx(&mut self.inner, ctx);
        let st = ctx.layer_mut(LayerId::Patrol);
        st.patrol_steps += 1;
        st.patrol_passes += self.scrubber.passes() - passes;
        result
    }
}

impl<D: BlockDevice> BlockDevice for Patrolled<D> {
    fn id(&self) -> LayerId {
        LayerId::Patrol
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.inner.detected_failed_chip()
    }

    fn core_stats(&self) -> Option<CoreStats> {
        self.inner.core_stats()
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

    fn access(&mut self, req: Request, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        match req {
            Request::PatrolStep => self.run_step(ctx).map(Response::Patrolled),
            other => {
                let demand = matches!(
                    other,
                    Request::Read(_) | Request::Write { .. } | Request::WriteSum { .. }
                );
                let out = self.inner.access(other, ctx)?;
                if demand && self.every > 0 {
                    self.since_step += 1;
                    if self.since_step >= self.every {
                        self.since_step = 0;
                        // A background increment tripping over damage
                        // must not fail the demand access that scheduled
                        // it; the error is visible in the layer stats.
                        if self.run_step(ctx).is_err() {
                            ctx.layer_mut(LayerId::Patrol).errors += 1;
                        }
                    }
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipkillConfig;
    use crate::engine::ChipkillMemory;
    use pmck_rt::rng::Rng;
    use pmck_rt::rng::StdRng;

    fn filled(blocks: u64, seed: u64) -> (ChipkillMemory, Vec<[u8; 64]>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = ChipkillMemory::new(blocks, ChipkillConfig::default());
        let data = (0..mem.num_blocks())
            .map(|a| {
                let mut b = [0u8; 64];
                rng.fill_bytes(&mut b[..]);
                mem.write_block(a, &b).unwrap();
                b
            })
            .collect();
        (mem, data, rng)
    }

    #[test]
    fn patrol_covers_everything_and_wraps() {
        let (mut mem, _, _) = filled(64, 1);
        let mut p = PatrolScrubber::new(10);
        let mut seen = 0;
        let mut wrapped = false;
        for _ in 0..7 {
            let r = p.step(&mut mem).unwrap();
            seen += r.blocks_scrubbed;
            wrapped |= r.completed_pass;
        }
        assert_eq!(seen, 70);
        assert!(wrapped);
        assert_eq!(p.passes(), 1);
    }

    #[test]
    fn patrol_removes_accumulated_errors() {
        let (mut mem, data, mut rng) = filled(128, 2);
        mem.inject_bit_errors(2e-4, &mut rng);
        let mut p = PatrolScrubber::new(32);
        p.full_pass(&mut mem).unwrap();
        // After the pass, demand reads are clean again (data + check
        // cells rewritten; code-region errors don't affect the RS word).
        for (a, b) in data.iter().enumerate() {
            let out = mem.read_block(a as u64).unwrap();
            assert_eq!(&out.data, b);
            assert_eq!(out.path, crate::engine::ReadPath::Clean, "block {a}");
        }
    }

    #[test]
    fn patrol_skips_disabled_blocks() {
        let (mut mem, _, _) = filled(64, 3);
        mem.disable_block(5).unwrap();
        mem.disable_block(6).unwrap();
        let mut p = PatrolScrubber::new(64);
        let r = p.step(&mut mem).unwrap();
        assert_eq!(r.blocks_skipped, 2);
        assert_eq!(r.blocks_scrubbed, 62);
    }

    #[test]
    fn periodic_patrol_keeps_fallback_rate_at_single_interval_level() {
        // Without patrol, errors accumulate across intervals and the
        // fallback rate climbs; with patrol each interval starts clean.
        let (mem0, _, mut rng) = filled(256, 4);
        let intervals = 12;

        let mut with_patrol = mem0.clone();
        let mut patrol = PatrolScrubber::new(256);
        let mut without = mem0.clone();

        for _ in 0..intervals {
            with_patrol.inject_bit_errors(2e-4, &mut rng);
            without.inject_bit_errors(2e-4, &mut rng);
            for a in 0..with_patrol.num_blocks() {
                let _ = with_patrol.read_block(a).unwrap();
                let _ = without.read_block(a).unwrap();
            }
            patrol.full_pass(&mut with_patrol).unwrap();
        }
        let fb_patrol = with_patrol.stats().fallbacks;
        let fb_without = without.stats().fallbacks;
        assert!(
            fb_without > fb_patrol,
            "accumulation must hurt: {fb_without} vs {fb_patrol}"
        );
    }

    #[test]
    fn patrolled_layer_steps_automatically_with_demand_traffic() {
        let (mem, data, mut rng) = filled(64, 5);
        let mut dev = Patrolled::over(mem, 8, 4);
        let mut ctx = AccessContext::new(6);
        dev.access(Request::InjectRber(1e-4), &mut ctx).unwrap();
        for round in 0..64u64 {
            let a = rng.gen_range(0..64);
            match dev.access(Request::Read(a), &mut ctx).unwrap() {
                Response::Read(out) => {
                    assert_eq!(out.data, data[a as usize], "round {round}")
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let st = ctx.layer(LayerId::Patrol).unwrap();
        assert_eq!(st.patrol_steps, 64 / 4);
        assert!(dev.scrubber().passes() >= 1);
        assert_eq!(st.patrol_passes, dev.scrubber().passes());
    }

    #[test]
    fn one_lost_word_does_not_starve_the_rest_of_the_patrol() {
        use crate::layout::ProtectionTier;
        let mut mem = ChipkillMemory::new(64, ChipkillConfig::for_tier(ProtectionTier::RsOnly));
        // Block 5: five wrong symbols, beyond the RS-only radius of 4.
        // Block 40: one, which a patrol that gets there repairs.
        for chip in 0..5 {
            mem.corrupt_chip_byte(chip, 5, 0, 0xFF);
        }
        mem.corrupt_chip_byte(2, 40, 3, 0x10);
        let mut dev = Patrolled::over(mem, 4, 0);
        let mut ctx = AccessContext::scratch();
        let mut failed = 0;
        for _ in 0..dev.num_blocks() / 4 + 2 {
            if dev.access(Request::PatrolStep, &mut ctx).is_err() {
                failed += 1;
            }
        }
        assert!(failed >= 1, "the lost word is reported, not hidden");
        assert!(dev.scrubber().passes() >= 1, "the patrol wrapped");
        let st = ctx.layer(LayerId::Patrol).unwrap();
        assert_eq!(st.patrol_passes, dev.scrubber().passes());
        let out = dev.access(Request::Read(40), &mut ctx).unwrap();
        assert_eq!(out.read().unwrap().path, crate::engine::ReadPath::Clean);
    }

    #[test]
    fn manual_patrol_step_through_the_trait() {
        let (mem, _, _) = filled(64, 7);
        let mut dev = Patrolled::over(mem, 16, 0);
        let mut ctx = AccessContext::scratch();
        match dev.access(Request::PatrolStep, &mut ctx).unwrap() {
            Response::Patrolled(r) => assert_eq!(r.blocks_scrubbed, 16),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(ctx.layer(LayerId::Patrol).unwrap().patrol_steps, 1);
        assert_eq!(ctx.layer(LayerId::Chipkill).unwrap().scrubs, 16);
    }
}
