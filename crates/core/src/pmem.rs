//! The persistence domain: durable images, intent-logged commits, and
//! crash recovery for the protection stack.
//!
//! # Durability model (stage the dirty set at flush)
//!
//! The engine layers never touch durable media during normal operation —
//! reads, writes, scrubs, repairs and fault injections all mutate the
//! *live* in-memory arrays only. Durability is established at
//! [`crate::Request::Flush`]: the base layer drains its EUR registers (so
//! durable code bits stay consistent with durable data), stages the
//! stripes whose stored bytes may have changed into the
//! [`pmck_pmem::PersistentMedia`] staging buffer, and drains.
//!
//! *Who marks.* The stored arrays are private to `crate::rank::ChipStore`
//! (one per chip; the §V-E re-striped layout keeps its image in one
//! whose stripes are the 4-block groups). Every accessor that hands out
//! `&mut` bytes sets the stripe's bit in the store's dirty set before it
//! returns, so demand writes, write-sums, EUR drains, scrub and VLEW
//! write-backs, chip repair, Start-Gap moves, tier migrations and fault
//! injections are covered without knowing that persistence exists — a
//! site that forgets is a compile error, not a campaign finding.
//! Mutations that are not stripe-addressed (rank-wide RBER, a burst, a
//! chip failure) take the whole-array accessor, which sets every bit.
//!
//! *Who clears.* `stage_image` — one loop, [`stage_dirty`], for both
//! base layers — after it has staged a store's dirty stripes, and
//! `restore_from_image` after it has copied the arrays back from the
//! recovered image. Nothing else.
//!
//! *Why compare-skip stays.* The set says where bytes *may* differ;
//! [`pmck_pmem::PersistentMedia::stage`] still compares each cache line
//! it is given and dirties only those that do. The lines a fence logs
//! are therefore exactly the lines a whole-image restage would have
//! found — the set narrows where to compare, never what is logged — and
//! a flush costs what changed, not what exists. A restage of the whole
//! image is the all-bits-set case of the same loop.
//!
//! *Why installing a domain means "all dirty".* `set_domain` hands the
//! rank a media whose staged bytes it knows nothing about: a fresh one
//! (all zeros), or one that until now mirrored another engine's arrays
//! (a tier migration moves the region's domain to the re-encoded engine;
//! the §V-E re-stripe moves it to the new layout). Every bit is set, the
//! next flush compares everything, and compare-skip reduces that to the
//! lines that really differ.
//!
//! The invariant `staging == live image` after every flush therefore
//! rests on the marks, so it is checked: `staging_matches_live` compares
//! every staged range with the live arrays, every flush `debug_assert!`s
//! it, and [`crate::Stack::staging_matches_live`] lets a campaign assert
//! it in release builds. Two consequences worth knowing:
//!
//! * A fault injected after the last flush exists only in the live
//!   arrays; a power cut discards it. Campaigns that want a fault to
//!   survive a crash must flush after injecting — which is also the
//!   physically honest model (the scar *is* in the NVRAM cells; what the
//!   media model loses is the *staged view* of them, so the campaign
//!   flushes to line the two up).
//! * [`crate::Request::PowerCut`] stages once more purely to *count*
//!   the lines that would have been lost, then drops all volatile media
//!   state; [`crate::Request::Recover`] replays the log and rebuilds the
//!   live arrays wholesale from the durable image.
//!
//! # Media layout
//!
//! One [`PmemDomain`] owns the media for a whole rank and maps both
//! layouts onto it ([`RegionMap`]): region A holds the nine chips' data
//! and VLEW-code arrays, region B holds the §V-E re-striped image, and a
//! single 64 B metadata line (magic, version, layout state, detected
//! failed chip, Start-Gap position, CRC) records which region is live.
//! The §V-E re-stripe stages region B *and* the flipped metadata line in
//! one fence, so the layout flip is crash-atomic: recovery lands on
//! whole-old or whole-new, never a mix.

use pmck_pmem::{crc32, FenceReport, PersistentMedia, PmemConfig, ReplayOutcome};

use crate::device::{AccessContext, LayerId, RecoveryReport};
use crate::engine::ChipkillMemory;
use crate::error::{CoreError, RecoveryError, RecoveryFailure};
use crate::layout::{ChipkillLayout, ProtectionTier};
use crate::rank::ChipStore;
use crate::request::{Request, Response};
use crate::restripe::{RestripeState, Restripeable, RestripedMemory, BLOCKS_PER_GROUP};

const META_MAGIC: u64 = 0x504d_434b_4d45_5441; // "PMCKMETA"
const META_VERSION: u64 = 1;
const META_LEN: usize = 64;
/// `failed_chip` encoding for "none detected".
const META_NO_CHIP: u64 = u64::MAX;

/// Byte offsets of every durable object on the media.
///
/// Regions are aligned to the flush-line size so one cache line never
/// spans two objects (compare-skip staging then dirties lines of at most
/// one region per fence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegionMap {
    chips: usize,
    line_bytes: usize,
    chip_data_stride: usize,
    chip_code_stride: usize,
    chip_code_base: usize,
    b_data_off: usize,
    b_data_len: usize,
    b_code_off: usize,
    meta_off: usize,
    total_len: usize,
}

impl RegionMap {
    fn new(layout: &ChipkillLayout, stripes: usize, num_blocks: u64, line_bytes: usize) -> Self {
        let align = |x: usize| x.div_ceil(line_bytes) * line_bytes;
        let chips = layout.total_chips();
        let chip_data_stride = align(stripes * layout.vlew_data_bytes);
        let chip_code_stride = align(stripes * layout.vlew_code_bytes);
        let chip_code_base = chips * chip_data_stride;
        let b_data_off = chip_code_base + chips * chip_code_stride;
        let b_data_len = num_blocks as usize * layout.block_bytes;
        let b_code_off = b_data_off + align(b_data_len);
        let groups = num_blocks as usize / BLOCKS_PER_GROUP;
        let meta_off = b_code_off + align(groups * 33);
        RegionMap {
            chips,
            line_bytes,
            chip_data_stride,
            chip_code_stride,
            chip_code_base,
            b_data_off,
            b_data_len,
            b_code_off,
            meta_off,
            total_len: meta_off + align(META_LEN),
        }
    }

    pub(crate) fn chip_data(&self, chip: usize) -> usize {
        debug_assert!(chip < self.chips);
        chip * self.chip_data_stride
    }

    pub(crate) fn chip_code(&self, chip: usize) -> usize {
        debug_assert!(chip < self.chips);
        self.chip_code_base + chip * self.chip_code_stride
    }

    /// Where chip `chip`'s data and code areas live.
    pub(crate) fn chip_areas(&self, chip: usize) -> (usize, usize) {
        (self.chip_data(chip), self.chip_code(chip))
    }

    /// Where the re-striped image's data and code areas live.
    pub(crate) fn b_areas(&self) -> (usize, usize) {
        (self.b_data_off, self.b_code_off)
    }

    pub(crate) fn b_data_len(&self) -> usize {
        self.b_data_len
    }

    pub(crate) fn meta(&self) -> usize {
        self.meta_off
    }

    pub(crate) fn total_len(&self) -> usize {
        self.total_len
    }
}

/// Decoded contents of the durable metadata line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaLine {
    /// Which layout the durable image is in: region A (chipkill) when
    /// `false`, region B (§V-E re-striped) when `true`.
    pub restriped: bool,
    /// The chip failure detected at the time of the fence (ground-truth
    /// injected failures are volatile campaign bookkeeping and are not
    /// persisted).
    pub failed_chip: Option<usize>,
    /// Start-Gap gap position at the time of the fence.
    pub wear_gap: u64,
    /// Start-Gap start position at the time of the fence.
    pub wear_start: u64,
    /// Protection tier of the durable chipkill image (word 6; `Paper`
    /// encodes as 0, so pre-tier meta lines — whose word 6 was
    /// reserved-zero — decode as the paper tier).
    pub tier: ProtectionTier,
}

impl MetaLine {
    fn encode(&self) -> [u8; META_LEN] {
        let mut line = [0u8; META_LEN];
        let words = [
            META_MAGIC,
            META_VERSION,
            self.restriped as u64,
            self.failed_chip.map_or(META_NO_CHIP, |c| c as u64),
            self.wear_gap,
            self.wear_start,
            self.tier.tag(),
        ];
        for (i, w) in words.iter().enumerate() {
            line[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        let crc = crc32(&line[..56]) as u64;
        line[56..64].copy_from_slice(&crc.to_le_bytes());
        line
    }

    fn decode(line: &[u8], chips: usize) -> Result<Self, CoreError> {
        let bad = || CoreError::recovery(RecoveryFailure::CrcMismatch);
        let word = |i: usize| u64::from_le_bytes(line[i * 8..(i + 1) * 8].try_into().unwrap());
        if line.len() != META_LEN || word(7) != crc32(&line[..56]) as u64 {
            return Err(bad());
        }
        if word(0) != META_MAGIC || word(1) != META_VERSION {
            return Err(bad());
        }
        let restriped = match word(2) {
            0 => false,
            1 => true,
            _ => return Err(bad()),
        };
        let failed_chip = match word(3) {
            META_NO_CHIP => None,
            c if (c as usize) < chips => Some(c as usize),
            _ => return Err(bad()),
        };
        let tier = ProtectionTier::from_tag(word(6)).ok_or_else(bad)?;
        Ok(MetaLine {
            restriped,
            failed_chip,
            wear_gap: word(4),
            wear_start: word(5),
            tier,
        })
    }
}

/// A rank's persistence domain: the durable media plus the policy that
/// maps the live protection stack onto it. Installed on the base layer
/// by [`crate::StackBuilder::persistent`]; moved across the §V-E layout
/// transition. See the module docs for the durability model.
#[derive(Debug, Clone)]
pub struct PmemDomain {
    pub(crate) media: PersistentMedia,
    pub(crate) map: RegionMap,
    wear_gap: u64,
    wear_start: u64,
}

impl PmemDomain {
    /// Sizes the media for a rank's geometry (both layouts plus the
    /// metadata line).
    pub(crate) fn for_rank(
        layout: &ChipkillLayout,
        stripes: usize,
        num_blocks: u64,
        cfg: PmemConfig,
    ) -> Self {
        let map = RegionMap::new(layout, stripes, num_blocks, cfg.line_bytes);
        PmemDomain {
            media: PersistentMedia::new(map.total_len(), cfg),
            map,
            wear_gap: 0,
            wear_start: 0,
        }
    }

    /// The underlying media (fuse control, scars, raw state).
    pub fn media(&self) -> &PersistentMedia {
        &self.media
    }

    /// Mutable access to the underlying media.
    pub fn media_mut(&mut self) -> &mut PersistentMedia {
        &mut self.media
    }

    /// Current fence epoch.
    pub fn epoch(&self) -> u64 {
        self.media.epoch()
    }

    /// Cumulative media counters.
    pub fn media_stats(&self) -> &pmck_pmem::MediaStats {
        self.media.stats()
    }

    /// Arms the power-cut fuse: the next `steps` durable chunk writes
    /// succeed, then the media silently dies.
    pub fn arm_fuse(&mut self, steps: u64) {
        self.media.arm_fuse(steps);
    }

    /// Removes an armed fuse without cutting power.
    pub fn disarm_fuse(&mut self) {
        self.media.disarm_fuse();
    }

    /// Durable chunk writes attempted so far (the crash campaign's
    /// cut-point space).
    pub fn steps_taken(&self) -> u64 {
        self.media.steps_taken()
    }

    /// Whether an armed fuse has burned out.
    pub fn is_dead(&self) -> bool {
        self.media.is_dead()
    }

    /// Records the wear-levelling position to persist with the next
    /// fence (called by [`crate::WearLevelled`] on every flush).
    pub(crate) fn set_wear(&mut self, gap: u64, start: u64) {
        self.wear_gap = gap;
        self.wear_start = start;
    }

    /// The wear-levelling position restored by the last recovery.
    pub(crate) fn wear(&self) -> (u64, u64) {
        (self.wear_gap, self.wear_start)
    }

    /// Stages the metadata line for the given layout state.
    pub(crate) fn stage_meta(
        &mut self,
        restriped: bool,
        failed_chip: Option<usize>,
        tier: ProtectionTier,
    ) {
        let line = MetaLine {
            restriped,
            failed_chip,
            wear_gap: self.wear_gap,
            wear_start: self.wear_start,
            tier,
        }
        .encode();
        self.media.stage(self.map.meta(), &line);
    }

    /// Replays the intent log after a power cut, restoring `staging` to
    /// the durable post-replay image.
    ///
    /// # Errors
    ///
    /// [`CoreError::Recovery`] wrapping the media-level cause when the
    /// log is structurally corrupt (a torn record, by contrast, is
    /// silently ignored — pre-fence state is a valid recovery point).
    pub(crate) fn replay(&mut self) -> Result<ReplayOutcome, CoreError> {
        self.media.recover().map_err(|e| {
            let kind = match e {
                pmck_pmem::MediaError::UnsealedRecord { .. } => RecoveryFailure::UnsealedRecord,
                pmck_pmem::MediaError::TornEntry { .. } => RecoveryFailure::TornBlock,
            };
            CoreError::Recovery(RecoveryError::with_source(kind, e))
        })
    }

    /// Decodes the metadata line from the recovered image and refreshes
    /// the wear-levelling fields from it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Recovery`] with [`RecoveryFailure::CrcMismatch`] if
    /// the line fails its checks.
    pub(crate) fn decode_meta(&mut self) -> Result<MetaLine, CoreError> {
        let off = self.map.meta();
        let meta = MetaLine::decode(&self.media.staging()[off..off + META_LEN], self.map.chips)?;
        self.wear_gap = meta.wear_gap;
        self.wear_start = meta.wear_start;
        Ok(meta)
    }
}

/// Drains the media and folds the fence into the stack's pmem counters.
fn drain_and_record(media: &mut PersistentMedia, ctx: &mut AccessContext) -> FenceReport {
    let torn_before = media.stats().torn_lines;
    let report = media.drain();
    let st = ctx.layer_mut(LayerId::Pmem);
    st.flushes += 1;
    st.fences += 1;
    st.lines_flushed += report.lines;
    st.log_bytes += report.log_bytes;
    if report.log_bytes > 0 {
        st.log_records += 1;
    }
    st.torn_lines += media.stats().torn_lines - torn_before;
    report
}

fn recovery_outcome(outcome: ReplayOutcome, restriped: bool) -> Response {
    Response::Recovered(RecoveryReport {
        records_replayed: outcome.records_replayed,
        lines_redone: outcome.lines_redone,
        restriped,
    })
}

/// The staging loop of both base layers: stages the dirty stripes of
/// `store` — whose data and code areas live at `(data_off, code_off)`
/// on the media — and marks the store clean. A store with every stripe
/// dirty is the whole-image restage.
fn stage_dirty(
    store: &mut ChipStore,
    layout: &ChipkillLayout,
    media: &mut PersistentMedia,
    (data_off, code_off): (usize, usize),
) {
    for s in store.dirty_stripes() {
        let data = store.vlew_data(s, layout);
        media.stage(data_off + s * data.len(), data);
        let code = store.vlew_code(s, layout);
        media.stage(code_off + s * code.len(), code);
    }
    store.mark_clean();
}

/// Copies a store's areas back from the staged image and marks it clean.
fn restore(store: &mut ChipStore, staging: &[u8], (data_off, code_off): (usize, usize)) {
    let (data, code) = store.arrays_mut();
    data.copy_from_slice(&staging[data_off..data_off + data.len()]);
    code.copy_from_slice(&staging[code_off..code_off + code.len()]);
    store.mark_clean();
}

/// Whether the staged image holds exactly the store's bytes.
fn is_staged(store: &ChipStore, staging: &[u8], (data_off, code_off): (usize, usize)) -> bool {
    let (data, code) = (store.data(), store.code());
    staging[data_off..data_off + data.len()] == *data
        && staging[code_off..code_off + code.len()] == *code
}

impl ChipkillMemory {
    /// Stages the dirty stripes of every chip, plus the metadata line,
    /// into the media; compare-skip keeps unchanged lines clean.
    pub(crate) fn stage_image(&mut self) {
        let tier = self.config().tier;
        let failed = self.known_failed;
        let layout = *self.layout();
        let Some(domain) = self.domain.as_mut() else {
            return;
        };
        for (c, chip) in self.chips.iter_mut().enumerate() {
            stage_dirty(chip, &layout, &mut domain.media, domain.map.chip_areas(c));
        }
        domain.stage_meta(false, failed, tier);
    }

    /// Whether every chip's staged range equals its live arrays — the
    /// module's invariant after a flush. `None` without a domain.
    /// Linear in capacity: for assertions and tests.
    pub(crate) fn staging_matches_live(&self) -> Option<bool> {
        let domain = self.domain.as_ref()?;
        let staging = domain.media.staging();
        let mut chips = self.chips.iter().enumerate();
        Some(chips.all(|(c, chip)| is_staged(chip, staging, domain.map.chip_areas(c))))
    }

    /// Rebuilds the live arrays wholesale from the recovered image. The
    /// EUR registerfile is volatile and comes back empty; the detected
    /// failure is restored from the metadata line (ground-truth injected
    /// failures and disabled-block sets are volatile campaign
    /// bookkeeping and survive untouched).
    pub(crate) fn restore_from_image(&mut self, meta: &MetaLine) {
        let Some(domain) = self.domain.as_ref() else {
            return;
        };
        let staging = domain.media.staging();
        for (c, chip) in self.chips.iter_mut().enumerate() {
            restore(chip, staging, domain.map.chip_areas(c));
        }
        self.eur.clear();
        self.known_failed = meta.failed_chip;
    }

    pub(crate) fn handle_flush(&mut self, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::Flushed { lines: 0 });
        }
        // Pending EUR deltas must drain first so the durable code
        // arrays are consistent with the durable data.
        self.flush_eur();
        self.stage_image();
        let domain = self.domain.as_mut().expect("domain checked above");
        let report = drain_and_record(&mut domain.media, ctx);
        debug_assert_eq!(
            self.staging_matches_live(),
            Some(true),
            "a mutation site did not mark its stripe dirty"
        );
        Ok(Response::Flushed {
            lines: report.lines,
        })
    }

    pub(crate) fn handle_power_cut(&mut self) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::PowerLost { lost_lines: 0 });
        }
        // Stage once more purely to count what dies with the power.
        self.stage_image();
        let domain = self.domain.as_mut().expect("domain checked above");
        Ok(Response::PowerLost {
            lost_lines: domain.media.power_cut(),
        })
    }

    pub(crate) fn handle_recover(
        &mut self,
        ctx: &mut AccessContext,
    ) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::Recovered(RecoveryReport::default()));
        }
        let domain = self.domain.as_mut().expect("domain checked above");
        let outcome = domain.replay()?;
        let meta = domain.decode_meta()?;
        debug_assert!(
            !meta.restriped,
            "a bare chipkill rank cannot hold a re-striped durable image"
        );
        self.restore_from_image(&meta);
        let st = ctx.layer_mut(LayerId::Pmem);
        st.recoveries += 1;
        st.lines_redone += outcome.lines_redone;
        Ok(recovery_outcome(outcome, meta.restriped))
    }
}

impl RestripedMemory {
    /// Installs a persistence domain; as on the chipkill rank, every
    /// group becomes dirty.
    pub(crate) fn set_domain(&mut self, domain: PmemDomain) {
        self.store.mark_all_dirty();
        self.domain = Some(domain);
    }

    /// Stages the dirty groups of the re-striped image (region B) plus
    /// the metadata line.
    pub(crate) fn stage_image(&mut self) {
        let Some(domain) = self.domain.as_mut() else {
            return;
        };
        let at = domain.map.b_areas();
        stage_dirty(&mut self.store, &self.layout, &mut domain.media, at);
        domain.stage_meta(true, None, ProtectionTier::Paper);
    }

    /// Whether staged region B equals the live arrays; see
    /// [`ChipkillMemory::staging_matches_live`].
    pub(crate) fn staging_matches_live(&self) -> Option<bool> {
        let domain = self.domain.as_ref()?;
        let staging = domain.media.staging();
        Some(is_staged(&self.store, staging, domain.map.b_areas()))
    }

    /// Rebuilds the live arrays from the recovered region B image.
    pub(crate) fn restore_from_image(&mut self) {
        let Some(domain) = self.domain.as_ref() else {
            return;
        };
        restore(
            &mut self.store,
            domain.media.staging(),
            domain.map.b_areas(),
        );
    }

    /// Rebuilds a re-striped layout entirely from a recovered durable
    /// image — recovery's path when the crash landed *after* the §V-E
    /// layout flip committed.
    pub(crate) fn from_pmem_image(domain: PmemDomain) -> Self {
        let mut out = RestripedMemory::zeroed((domain.map.b_data_len() / 64) as u64);
        out.set_domain(domain);
        out.restore_from_image();
        out
    }

    /// Commits the freshly built layout through the intent log: region B
    /// plus the flipped metadata line fence as one transaction (the §V-E
    /// "map flip"). Without a domain the log is a no-op and the
    /// in-memory swap is the whole commit — same code path either way.
    pub(crate) fn commit_restripe(&mut self, ctx: &mut AccessContext) {
        if self.domain.is_none() {
            return;
        }
        self.stage_image();
        let domain = self.domain.as_mut().expect("domain checked above");
        drain_and_record(&mut domain.media, ctx);
        debug_assert_eq!(self.staging_matches_live(), Some(true));
    }

    pub(crate) fn handle_flush(&mut self, ctx: &mut AccessContext) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::Flushed { lines: 0 });
        }
        self.stage_image();
        let domain = self.domain.as_mut().expect("domain checked above");
        let report = drain_and_record(&mut domain.media, ctx);
        debug_assert_eq!(
            self.staging_matches_live(),
            Some(true),
            "a mutation site did not mark its group dirty"
        );
        Ok(Response::Flushed {
            lines: report.lines,
        })
    }

    pub(crate) fn handle_power_cut(&mut self) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::PowerLost { lost_lines: 0 });
        }
        self.stage_image();
        let domain = self.domain.as_mut().expect("domain checked above");
        Ok(Response::PowerLost {
            lost_lines: domain.media.power_cut(),
        })
    }

    pub(crate) fn handle_recover(
        &mut self,
        ctx: &mut AccessContext,
    ) -> Result<Response, CoreError> {
        if self.domain.is_none() {
            return Ok(Response::Recovered(RecoveryReport::default()));
        }
        let domain = self.domain.as_mut().expect("domain checked above");
        let outcome = domain.replay()?;
        let meta = domain.decode_meta()?;
        debug_assert!(
            meta.restriped,
            "a bare re-striped layout cannot hold a chipkill durable image"
        );
        self.restore_from_image();
        let st = ctx.layer_mut(LayerId::Pmem);
        st.recoveries += 1;
        st.lines_redone += outcome.lines_redone;
        Ok(recovery_outcome(outcome, meta.restriped))
    }
}

impl Restripeable {
    /// Recovery across the §V-E layout flip: the durable metadata line —
    /// not the in-memory state — decides which layout comes back. A
    /// crash cut *before* the flip's fence recovers the chipkill layout
    /// from region A (even if the live state had already transitioned);
    /// a cut *after* recovers the re-striped layout from region B.
    pub(crate) fn recover_across(
        &mut self,
        ctx: &mut AccessContext,
    ) -> Result<Response, CoreError> {
        if self.active_mut().pmem_domain().is_none() {
            // Volatile stack: forward the no-op to the active layout.
            return self.active_mut().access(Request::Recover, ctx);
        }
        let result = match std::mem::replace(&mut self.state, RestripeState::Poisoned) {
            RestripeState::Chipkill(mut rank) => {
                let mut domain = rank.take_domain().expect("domain checked above");
                match domain
                    .replay()
                    .and_then(|o| domain.decode_meta().map(|m| (o, m)))
                {
                    Err(e) => {
                        rank.set_domain(domain);
                        self.state = RestripeState::Chipkill(rank);
                        Err(e)
                    }
                    Ok((outcome, meta)) => {
                        if meta.restriped {
                            // The flip committed before the crash.
                            let stats = *rank.stats();
                            self.state =
                                RestripeState::Restriped(RestripedMemory::from_pmem_image(domain));
                            self.final_stats = Some(stats);
                            ctx.trace(LayerId::Restripeable, || "recover -> restriped".into());
                        } else {
                            rank.set_domain(domain);
                            rank.restore_from_image(&meta);
                            self.state = RestripeState::Chipkill(rank);
                        }
                        Ok((outcome, meta.restriped))
                    }
                }
            }
            RestripeState::Restriped(mut mem) => {
                let mut domain = mem.domain.take().expect("domain checked above");
                match domain
                    .replay()
                    .and_then(|o| domain.decode_meta().map(|m| (o, m)))
                {
                    Err(e) => {
                        mem.set_domain(domain);
                        self.state = RestripeState::Restriped(mem);
                        Err(e)
                    }
                    Ok((outcome, meta)) => {
                        if meta.restriped {
                            mem.set_domain(domain);
                            mem.restore_from_image();
                            self.state = RestripeState::Restriped(mem);
                        } else {
                            // The crash beat the flip's fence: the
                            // durable truth is still the chipkill
                            // layout in region A.
                            let mut rank = ChipkillMemory::new(self.physical_blocks, self.cfg);
                            rank.set_domain(domain);
                            rank.restore_from_image(&meta);
                            self.state = RestripeState::Chipkill(rank);
                            self.final_stats = None;
                            ctx.trace(LayerId::Restripeable, || "recover -> chipkill".into());
                        }
                        Ok((outcome, meta.restriped))
                    }
                }
            }
            RestripeState::Poisoned => unreachable!("restripe state poisoned"),
        };
        match result {
            Ok((outcome, restriped)) => {
                let st = ctx.layer_mut(LayerId::Pmem);
                st.recoveries += 1;
                st.lines_redone += outcome.lines_redone;
                Ok(recovery_outcome(outcome, restriped))
            }
            Err(e) => {
                ctx.layer_mut(LayerId::Restripeable).errors += 1;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipkillConfig;
    use crate::device::BlockDevice;
    use crate::wearlevel::WearLevelled;
    use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind};
    use pmck_rt::rng::{Rng, StdRng};

    fn persistent_rank(blocks: u64) -> ChipkillMemory {
        let mut rank = ChipkillMemory::new(blocks, ChipkillConfig::default());
        let domain = PmemDomain::for_rank(
            &rank.config().layout,
            rank.stripes(),
            rank.num_blocks(),
            PmemConfig::default(),
        );
        rank.set_domain(domain);
        rank
    }

    /// The flush body before the dirty set, kept as its oracle: stage
    /// every live array whole and let compare-skip alone find what
    /// changed. A `Flush` that follows has nothing left to find, so what
    /// it fences is what restage-at-flush would have fenced.
    fn restage_whole_rank(rank: &mut ChipkillMemory) {
        rank.flush_eur();
        let domain = rank.domain.as_mut().expect("persistent rank");
        for (c, chip) in rank.chips.iter().enumerate() {
            domain.media.stage(domain.map.chip_data(c), chip.data());
            domain.media.stage(domain.map.chip_code(c), chip.code());
        }
    }

    /// Writes the tagged pattern into the first 64 blocks.
    fn fill(rank: &mut ChipkillMemory) {
        for a in 0..64u64 {
            rank.write_block(a, &block(a as u8)).unwrap();
        }
    }

    /// [`restage_whole_rank`] for the re-striped layout.
    fn restage_whole_restriped(mem: &mut RestripedMemory) {
        let domain = mem.domain.as_mut().expect("persistent layout");
        let (b_data, b_code) = domain.map.b_areas();
        domain.media.stage(b_data, mem.store.data());
        domain.media.stage(b_code, mem.store.code());
    }

    /// Staging, durable image and counters of two media must agree.
    fn assert_same_media(a: &PmemDomain, b: &PmemDomain, what: &str) {
        assert!(a.media.staging() == b.media.staging(), "{what}: staging");
        assert!(
            a.media.durable_data() == b.media.durable_data(),
            "{what}: durable image"
        );
        assert_eq!(a.media_stats(), b.media_stats(), "{what}: media stats");
        assert_eq!(a.steps_taken(), b.steps_taken(), "{what}: durable steps");
    }

    fn block(tag: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        for (i, x) in b.iter_mut().enumerate() {
            *x = tag.wrapping_mul(31).wrapping_add(i as u8);
        }
        b
    }

    #[test]
    fn region_map_objects_do_not_overlap() {
        let layout = ChipkillLayout::default();
        let map = RegionMap::new(&layout, 2, 64, 64);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for c in 0..9 {
            spans.push((map.chip_data(c), 2 * layout.vlew_data_bytes));
            spans.push((map.chip_code(c), 2 * layout.vlew_code_bytes));
        }
        let (b_data, b_code) = map.b_areas();
        spans.push((b_data, map.b_data_len()));
        spans.push((b_code, 16 * 33));
        spans.push((map.meta(), META_LEN));
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
            assert_eq!(w[1].0 % 64, 0, "offset {} not line-aligned", w[1].0);
        }
        let (off, len) = *spans.last().unwrap();
        assert!(off + len <= map.total_len());
    }

    #[test]
    fn meta_line_round_trip_and_rejection() {
        let meta = MetaLine {
            restriped: true,
            failed_chip: Some(3),
            wear_gap: 17,
            wear_start: 5,
            tier: ProtectionTier::Dense,
        };
        let line = meta.encode();
        assert_eq!(MetaLine::decode(&line, 9).unwrap(), meta);
        // Any flipped byte fails the CRC.
        let mut torn = line;
        torn[20] ^= 0x40;
        let err = MetaLine::decode(&torn, 9).unwrap_err();
        match err {
            CoreError::Recovery(e) => assert_eq!(e.kind(), RecoveryFailure::CrcMismatch),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn flush_cut_recover_round_trips_the_rank() {
        let mut rank = persistent_rank(64);
        let mut ctx = AccessContext::new(1);
        for a in 0..64u64 {
            rank.write_block(a, &block(a as u8)).unwrap();
        }
        rank.handle_flush(&mut ctx).unwrap();

        // Overwrite after the flush, then lose power: the overwrites
        // (and their pending EUR deltas) must vanish.
        for a in 0..8u64 {
            rank.write_block(a, &[0xFF; 64]).unwrap();
        }
        match rank.handle_power_cut().unwrap() {
            Response::PowerLost { lost_lines } => assert!(lost_lines > 0),
            other => panic!("unexpected outcome {other:?}"),
        }
        rank.handle_recover(&mut ctx).unwrap();
        for a in 0..64u64 {
            assert_eq!(
                rank.read_block(a).unwrap().data,
                block(a as u8),
                "block {a}"
            );
        }
        assert!(rank.verify_consistent(), "codes must match data");
    }

    #[test]
    fn unflushed_fault_is_healed_by_recovery() {
        let mut rank = persistent_rank(32);
        let mut ctx = AccessContext::new(2);
        for a in 0..32u64 {
            rank.write_block(a, &block(a as u8)).unwrap();
        }
        rank.handle_flush(&mut ctx).unwrap();
        rank.inject_bit_errors(1e-3, ctx.rng());
        rank.handle_power_cut().unwrap();
        rank.handle_recover(&mut ctx).unwrap();
        assert!(
            rank.verify_consistent(),
            "an unflushed scar dies with the power"
        );
    }

    #[test]
    fn restripe_flip_is_crash_atomic_across_every_cut_point() {
        // Reference run: learn the flip's step budget and both images.
        let build = || {
            let mut r = Restripeable::new(persistent_rank(32));
            let mut ctx = AccessContext::new(3);
            for a in 0..32u64 {
                r.access(
                    Request::Write {
                        addr: a,
                        data: block(a as u8),
                    },
                    &mut ctx,
                )
                .unwrap();
            }
            let ev = FaultEvent {
                at_cycle: 0,
                kind: FaultKind::ChipKill {
                    chip: 2,
                    kind: ChipFailureKind::RandomGarbage,
                },
            };
            r.access(Request::Fault(ev), &mut ctx).unwrap();
            r.access(Request::Flush, &mut ctx).unwrap();
            (r, ctx)
        };
        let read_all = |r: &mut Restripeable, ctx: &mut AccessContext| -> Vec<[u8; 64]> {
            (0..32u64)
                .map(|a| match r.access(Request::Read(a), ctx).unwrap() {
                    Response::Read(out) => out.data,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect()
        };

        let (mut reference, mut ctx) = build();
        let pre = read_all(&mut reference, &mut ctx);
        let steps_before = reference.pmem_domain().unwrap().steps_taken();
        reference.access(Request::Restripe, &mut ctx).unwrap();
        let steps = reference.pmem_domain().unwrap().steps_taken() - steps_before;
        let post = read_all(&mut reference, &mut ctx);
        assert_eq!(pre, post, "restripe preserves contents");
        assert!(steps > 0, "the flip must persist something");

        // Sample the cut space (every point is covered by the harness
        // campaign; here a stride keeps the unit test fast).
        let mut seen_chipkill = false;
        let mut seen_restriped = false;
        for cut in (0..=steps).step_by((steps as usize / 16).max(1)) {
            let (mut r, mut ctx) = build();
            r.pmem_domain().unwrap().arm_fuse(cut);
            r.access(Request::Restripe, &mut ctx).unwrap();
            r.access(Request::PowerCut, &mut ctx).unwrap();
            match r.access(Request::Recover, &mut ctx).unwrap() {
                Response::Recovered(rep) => {
                    seen_chipkill |= !rep.restriped;
                    seen_restriped |= rep.restriped;
                    assert_eq!(rep.restriped, r.is_restriped());
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            assert_eq!(read_all(&mut r, &mut ctx), pre, "cut {cut}");
        }
        assert!(seen_chipkill, "an early cut must recover the old layout");
        assert!(seen_restriped, "a late cut must recover the new layout");
    }

    fn fault(kind: FaultKind) -> Request {
        Request::Fault(FaultEvent { at_cycle: 0, kind })
    }

    /// One seeded op of the equivalence stream: demand writes and sums
    /// of fresh bytes (every eighth write moves the Start-Gap), scrubs,
    /// row faults, bursts, background RBER, a chip kill repaired by the
    /// boot scrub, and a power cut with its recovery.
    fn random_op(rng: &mut StdRng, blocks: u64) -> Vec<Request> {
        let addr = rng.gen_range(0..blocks);
        let mut data = [0u8; 64];
        rng.fill_bytes(&mut data[..]);
        match rng.gen_range(0u32..100) {
            0..=39 => vec![Request::Write { addr, data }],
            40..=59 => vec![Request::WriteSum { addr, data }],
            60..=67 => vec![Request::Scrub(addr)],
            68..=73 => vec![fault(FaultKind::RowFault {
                chip: rng.gen_range(0..9),
                stripe: rng.gen_range(0..4),
                rber: 1e-3,
            })],
            74..=77 => vec![fault(FaultKind::Burst {
                bits: 3,
                width_bits: 64,
                chip: None,
            })],
            78..=80 => vec![Request::InjectRber(1e-4)],
            81..=82 => vec![
                fault(FaultKind::ChipKill {
                    chip: rng.gen_range(0..9),
                    kind: ChipFailureKind::RandomGarbage,
                }),
                Request::BootScrub,
            ],
            83..=84 => vec![Request::PowerCut, Request::Recover],
            _ => vec![Request::Flush],
        }
    }

    #[test]
    fn dirty_set_staging_equals_whole_image_restage_on_a_rank() {
        let build = || WearLevelled::over(persistent_rank(128), 127, 8);
        let (mut a, mut b) = (build(), build());
        let (mut ctx_a, mut ctx_b) = (AccessContext::new(0xD1E7), AccessContext::new(0xD1E7));
        let mut rng = StdRng::seed_from_u64(0x57A6E);
        let mut flushes = 0;
        for step in 0..3_000 {
            for req in random_op(&mut rng, 127) {
                if req == Request::Flush {
                    restage_whole_rank(b.inner_mut());
                    flushes += 1;
                }
                let ra = a.access(req, &mut ctx_a);
                let rb = b.access(req, &mut ctx_b);
                assert_eq!(ra, rb, "step {step}: {req:?}");
                if req == Request::Flush {
                    assert_eq!(a.inner().staging_matches_live(), Some(true), "step {step}");
                }
            }
        }
        assert!(flushes > 300 && a.gap_moves() > 100, "the stream must mix");
        let (da, db) = (a.inner_mut().domain.take(), b.inner_mut().domain.take());
        assert_same_media(&da.unwrap(), &db.unwrap(), "rank");
        assert_eq!(
            ctx_a.layer_mut(LayerId::Pmem),
            ctx_b.layer_mut(LayerId::Pmem)
        );
    }

    #[test]
    fn dirty_set_staging_equals_whole_image_restage_on_a_restriped_rank() {
        // Both sides take the §V-E transition by hand, so the oracle
        // can stage whole arrays ahead of the flip's commit too.
        let build = |oracle: bool| {
            let mut rank = persistent_rank(64);
            let mut ctx = AccessContext::new(0x5EED);
            fill(&mut rank);
            rank.fail_chip(2, ChipFailureKind::RandomGarbage, ctx.rng());
            rank.handle_flush(&mut ctx).unwrap();
            let mut mem = RestripedMemory::from_failed_rank(&mut rank).unwrap();
            mem.set_domain(rank.take_domain().unwrap());
            if oracle {
                restage_whole_restriped(&mut mem);
            }
            mem.commit_restripe(&mut ctx);
            (mem, ctx)
        };
        let ((mut a, mut ctx_a), (mut b, mut ctx_b)) = (build(false), build(true));
        let mut rng = StdRng::seed_from_u64(0x6E0);
        for step in 0..1_500 {
            let addr = rng.gen_range(0..64u64);
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data[..]);
            let req = match rng.gen_range(0u32..100) {
                0..=59 => Request::Write { addr, data },
                60..=69 => Request::Scrub(addr),
                70..=74 => Request::InjectRber(2e-4),
                75..=77 => Request::BootScrub,
                _ => Request::Flush,
            };
            if req == Request::Flush {
                restage_whole_restriped(&mut b);
            }
            let ra = a.access(req, &mut ctx_a);
            let rb = b.access(req, &mut ctx_b);
            assert_eq!(ra, rb, "step {step}: {req:?}");
        }
        a.handle_flush(&mut ctx_a).unwrap();
        restage_whole_restriped(&mut b);
        b.handle_flush(&mut ctx_b).unwrap();
        assert_same_media(&a.domain.unwrap(), &b.domain.unwrap(), "restriped");
    }

    #[test]
    fn dirty_set_staging_equals_whole_image_restage_across_a_tier_migration() {
        // What `TieredMemory::migrate_region` does to commit: a fresh
        // engine of the other tier takes the region's image and its
        // domain (sized, as there, for the dense tier's strides), and
        // one flush fences the lot.
        let migrate = |oracle: bool| {
            let mut rank = ChipkillMemory::new(64, ChipkillConfig::default());
            let dense = ChipkillLayout::dense();
            rank.set_domain(PmemDomain::for_rank(
                &dense,
                64 / dense.blocks_per_vlew(),
                64,
                PmemConfig::default(),
            ));
            let mut ctx = AccessContext::new(0x71E2);
            fill(&mut rank);
            rank.handle_flush(&mut ctx).unwrap();
            rank.write_block(9, &block(0x99)).unwrap(); // rides the migration's fence
            let cfg = ChipkillConfig::for_tier(ProtectionTier::Dense);
            let mut fresh = ChipkillMemory::new(64, cfg);
            for a in 0..64u64 {
                let data = rank.read_block(a).unwrap().data;
                fresh.write_block(a, &data).unwrap();
            }
            fresh.set_domain(rank.take_domain().unwrap());
            if oracle {
                restage_whole_rank(&mut fresh);
            }
            let lines = fresh.handle_flush(&mut ctx).unwrap();
            (fresh, lines)
        };
        let ((a, lines_a), (b, lines_b)) = (migrate(false), migrate(true));
        assert_eq!(lines_a, lines_b);
        // Block 9's line on every chip, the re-encoded code areas, the
        // tier tag.
        assert!(matches!(lines_a, Response::Flushed { lines } if lines > 9));
        assert_same_media(&a.domain.unwrap(), &b.domain.unwrap(), "migrated");
    }

    /// The mutation the private arrays rule out: bytes change and the
    /// stripe's mark is lost.
    fn write_then_forget_the_marks(rank: &mut ChipkillMemory) {
        rank.write_block(5, &block(0xEE)).unwrap();
        rank.flush_eur();
        for chip in &mut rank.chips {
            chip.mark_clean();
        }
    }

    #[test]
    fn an_unmarked_mutation_fails_the_invariant_and_dies_with_the_power() {
        let mut rank = persistent_rank(64);
        let mut ctx = AccessContext::new(4);
        fill(&mut rank);
        rank.handle_flush(&mut ctx).unwrap();
        write_then_forget_the_marks(&mut rank);
        // `handle_flush` minus its closing assertion.
        rank.stage_image();
        let report = drain_and_record(&mut rank.domain.as_mut().unwrap().media, &mut ctx);
        assert_eq!(report.lines, 0, "nothing was marked, so nothing was fenced");
        assert_eq!(rank.staging_matches_live(), Some(false));
        rank.handle_power_cut().unwrap();
        rank.handle_recover(&mut ctx).unwrap();
        assert_eq!(rank.read_block(5).unwrap().data, block(5), "write lost");
        assert_eq!(rank.staging_matches_live(), Some(true));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not mark its stripe dirty")]
    fn flush_asserts_the_invariant_in_debug_builds() {
        let mut rank = persistent_rank(32);
        let mut ctx = AccessContext::new(5);
        rank.handle_flush(&mut ctx).unwrap();
        write_then_forget_the_marks(&mut rank);
        let _ = rank.handle_flush(&mut ctx);
    }
}
