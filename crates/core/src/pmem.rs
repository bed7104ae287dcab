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
//! *Who clears.* [`Durable::stage_image`] after it has staged the dirty
//! stripes — on the rank, every stripe some chip marked, gathered into
//! the image's burst order; on the re-striped layout, the dirty groups of
//! its one store — and [`Durable::restore_image`] after it has copied the
//! arrays back from the recovered image. Nothing else.
//!
//! *Why compare-skip stays.* The set says where bytes *may* differ;
//! [`pmck_pmem::PersistentMedia::stage`] still compares each cache line
//! it is given and dirties only those that do. The lines a drain logs
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
//! it in release builds. A fault injected after the last flush exists
//! only in the live arrays, so a power cut discards it; a campaign that
//! wants a fault to survive a crash flushes after injecting it.
//!
//! # One protocol, written once
//!
//! Each request of the vocabulary has one implementation here, written
//! against [`Durable`] — the chipkill rank and the re-striped layout —
//! and every caller goes through it: the bases' `access`, each region of
//! a [`crate::TieredMemory`], a tier migration's commit and the §V-E
//! re-stripe's commit.
//!
//! * [`flush`] drains the EUR, stages the image and the metadata line,
//!   and drains the media: one fence.
//! * [`power_cut`] stages once more purely to *count* the lines that die
//!   with the power, then drops all volatile media state.
//! * [`recover`] replays the log, decodes the metadata line, and hands
//!   the domain to the engine the line describes — the only place a line
//!   becomes a layout ([`engine_for_image`]) — which rebuilds its live
//!   arrays wholesale from the durable image.
//!
//! # Media layout
//!
//! One [`PmemDomain`] owns the media for a whole rank and maps both
//! layouts onto it ([`RegionMap`]), every object starting on a line:
//!
//! ```text
//! region A, data    block 0 | block 1 | ...      one 72 B burst per block:
//!                   [c0 8B][c1 8B]...[c8 8B]     chip c's share at b*72 + c*8
//! region A, code    stripe 0 | stripe 1 | ...    320 B (5 lines) per stripe:
//!                   [c0 33B][c1 33B]...[c8 33B]  nine code words, 23 B of pad
//! region B          the re-striped image: data (64 B a block), then code
//! metadata line     64 B, the image's highest line
//! ```
//!
//! Region A is in **burst order**: what the rank's nine chips return in
//! one lockstep access (Figure 6) is contiguous, so a block write dirties
//! the two lines its burst straddles — not one line on each of nine
//! chip-sized areas — and a stripe's nine VLEW code words, which the EUR
//! updates together when the row closes (§V-D), share five lines. A
//! paper-tier stripe is 32 bursts = 36 whole lines, a dense one 18; a
//! burst's offset does not depend on the tier, so a tier migration
//! leaves the data area's lines equal and fences the code area and the
//! metadata line only. The live arrays stay chip-major
//! ([`crate::rank::ChipStore`], which the per-chip VLEW encode and
//! decode want contiguous); `stage_image` gathers and `restore_image`
//! scatters through one address function, [`RegionMap::share`] /
//! [`RegionMap::code_word`].
//!
//! Region B holds the §V-E re-striped image in its store's own order,
//! and the single 64 B metadata line (magic, version, layout state,
//! detected failed chip, Start-Gap position, tier, CRC) records which
//! region is live. The §V-E re-stripe stages region B *and* the flipped
//! metadata line in one fence, so the layout flip is crash-atomic:
//! recovery lands on whole-old or whole-new, never a mix. A fence
//! persists its lines in ascending order, so the metadata line — the
//! commit record of a flip or a tier change — goes last.

use pmck_pmem::{crc32, PersistentMedia, PmemConfig, ReplayOutcome};

use crate::config::ChipkillConfig;
use crate::device::{AccessContext, BlockDevice, LayerId, RecoveryReport};
use crate::engine::ChipkillMemory;
use crate::error::{CoreError, RecoveryError, RecoveryFailure};
use crate::layout::{ChipkillLayout, ProtectionTier};
use crate::restripe::{RestripeState, RestripedMemory, BLOCKS_PER_GROUP};
use crate::stats::CoreStats;

const META_MAGIC: u64 = 0x504d_434b_4d45_5441; // "PMCKMETA"
const META_VERSION: u64 = 1;
const META_LEN: usize = 64;
/// `failed_chip` encoding for "none detected".
const META_NO_CHIP: u64 = u64::MAX;

/// Byte offsets of every durable object on the media. See the module
/// docs ("Media layout") for the picture.
///
/// Objects are aligned to the flush-line size so one cache line never
/// spans two of them (compare-skip staging then dirties lines of at most
/// one object per stage call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegionMap {
    chips: usize,
    chip_bytes: usize,
    code_bytes: usize,
    /// One stripe's code words, padded to whole lines.
    code_stride: usize,
    a_code_off: usize,
    b_data_off: usize,
    b_data_len: usize,
    b_code_off: usize,
    meta_off: usize,
    total_len: usize,
}

impl RegionMap {
    /// `stripes` sizes region A's code area only: a block's burst sits
    /// at the same offset on every tier.
    fn new(layout: &ChipkillLayout, stripes: usize, num_blocks: u64, line_bytes: usize) -> Self {
        let align = |x: usize| x.div_ceil(line_bytes) * line_bytes;
        let chips = layout.total_chips();
        let blocks = num_blocks as usize;
        let code_stride = align(chips * layout.vlew_code_bytes);
        let a_code_off = align(blocks * chips * layout.chip_bytes);
        let b_data_off = a_code_off + stripes * code_stride;
        let b_data_len = blocks * layout.block_bytes;
        let b_code_off = b_data_off + align(b_data_len);
        let groups = blocks / BLOCKS_PER_GROUP;
        let meta_off = b_code_off + align(groups * 33);
        RegionMap {
            chips,
            chip_bytes: layout.chip_bytes,
            code_bytes: layout.vlew_code_bytes,
            code_stride,
            a_code_off,
            b_data_off,
            b_data_len,
            b_code_off,
            meta_off,
            total_len: meta_off + align(META_LEN),
        }
    }

    /// Where chip `chip`'s share of block `block` lives: region A's data
    /// is the sequence of the rank's bursts.
    pub(crate) fn share(&self, block: usize, chip: usize) -> usize {
        debug_assert!(chip < self.chips);
        (block * self.chips + chip) * self.chip_bytes
    }

    /// Where chip `chip`'s VLEW code word of stripe `stripe` lives.
    pub(crate) fn code_word(&self, stripe: usize, chip: usize) -> usize {
        debug_assert!(chip < self.chips);
        self.a_code_off + stripe * self.code_stride + chip * self.code_bytes
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
    /// One stripe in image order, gathered from the nine chip stores on
    /// its way to [`PersistentMedia::stage`]. Grows to the largest
    /// stripe staged and stays: steady-state flushes do not allocate.
    gather: Vec<u8>,
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
            gather: Vec::new(),
            wear_gap: 0,
            wear_start: 0,
        }
    }

    /// Arms the power-cut fuse: the next `steps` durable chunk writes
    /// succeed, then the media silently dies.
    pub fn arm_fuse(&mut self, steps: u64) {
        self.media.arm_fuse(steps);
    }

    /// Durable chunk writes attempted so far (the crash campaign's
    /// cut-point space).
    pub fn steps_taken(&self) -> u64 {
        self.media.steps_taken()
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
    /// the durable post-replay image, and decodes the image's metadata
    /// line, adopting its wear-levelling position.
    ///
    /// # Errors
    ///
    /// [`CoreError::Recovery`] wrapping the media-level cause when the
    /// log is structurally corrupt (a torn record, by contrast, is
    /// silently ignored — pre-fence state is a valid recovery point), or
    /// with [`RecoveryFailure::CrcMismatch`] when the metadata line fails
    /// its checks.
    fn replay(&mut self) -> Result<(ReplayOutcome, MetaLine), CoreError> {
        let outcome = self.media.recover().map_err(|e| {
            let kind = match e {
                pmck_pmem::MediaError::UnsealedRecord { .. } => RecoveryFailure::UnsealedRecord,
                pmck_pmem::MediaError::TornEntry { .. } => RecoveryFailure::TornBlock,
            };
            CoreError::Recovery(RecoveryError::with_source(kind, e))
        })?;
        let off = self.map.meta();
        let meta = MetaLine::decode(&self.media.staging()[off..off + META_LEN], self.map.chips)?;
        self.wear_gap = meta.wear_gap;
        self.wear_start = meta.wear_start;
        Ok((outcome, meta))
    }
}

/// An engine whose image a [`PmemDomain`] holds: the chipkill rank
/// (region A) or the §V-E re-striped layout (region B). [`flush`],
/// [`power_cut`] and [`recover`] are written once against it.
pub(crate) trait Durable: BlockDevice {
    /// The installed domain.
    fn domain(&mut self) -> &mut Option<PmemDomain>;

    /// Applies what the live arrays still owe the durable image (the
    /// rank's pending EUR deltas) before a flush stages it. A power cut
    /// does not: what is owed dies with the power.
    fn settle(&mut self) {}

    /// Stages every stripe marked dirty, then the metadata line, into
    /// the domain, and marks the live arrays clean.
    fn stage_image(&mut self);

    /// Rebuilds the live arrays wholesale from the recovered image, which
    /// `meta` describes, and marks them clean.
    fn restore_image(&mut self, meta: &MetaLine);

    /// What this engine's metadata line records: whether the image is
    /// re-striped, and its tier.
    fn image_layout(&self) -> (bool, ProtectionTier);
}

/// `Request::Flush` on one engine: drains what the live arrays owe the
/// image, stages the image and its metadata line, and drains the media
/// in one fence. Returns the lines made durable (0 without a domain).
pub(crate) fn flush(engine: &mut impl Durable, ctx: &mut AccessContext) -> u64 {
    if engine.domain().is_none() {
        return 0;
    }
    engine.settle();
    engine.stage_image();
    let media = &mut engine
        .domain()
        .as_mut()
        .expect("domain checked above")
        .media;
    let torn_before = media.stats().torn_lines;
    let report = media.drain();
    let torn = media.stats().torn_lines - torn_before;
    let st = ctx.layer_mut(LayerId::Pmem);
    st.flushes += 1;
    st.fences += 1;
    st.lines_flushed += report.lines;
    st.log_bytes += report.log_bytes;
    st.log_records += (report.log_bytes > 0) as u64;
    st.torn_lines += torn;
    debug_assert_eq!(
        engine.staging_matches_live(),
        Some(true),
        "a mutation site did not mark its stripe dirty"
    );
    report.lines
}

/// `Request::PowerCut` on one engine: stages once more purely to count
/// what dies with the power, then drops the media's volatile state.
/// Returns the lines lost (0 without a domain).
pub(crate) fn power_cut(engine: &mut impl Durable) -> u64 {
    if engine.domain().is_none() {
        return 0;
    }
    engine.stage_image();
    let domain = engine.domain().as_mut().expect("domain checked above");
    domain.media.power_cut()
}

/// Where [`recover`] installs the engine a recovered image describes.
pub(crate) enum Slot<'a> {
    /// A bare rank or a tier region: holds a chipkill rank, at any tier.
    Rank(&'a mut ChipkillMemory),
    /// The §V-E switch ([`crate::Restripeable`]): holds either layout.
    Layout(&'a mut RestripeState),
}

impl Slot<'_> {
    fn engine(&mut self) -> &mut dyn Durable {
        match self {
            Slot::Rank(rank) => &mut **rank,
            Slot::Layout(state) => state.engine_mut(),
        }
    }
}

/// `Request::Recover` on a base's engines: for every slot whose engine
/// holds a domain, replays the intent log, decodes the metadata line and
/// installs the domain in the engine the line describes
/// ([`engine_for_image`]). The request counts as one recovery however
/// many domains it replays. Stops at the first error, which leaves that
/// slot's engine holding its domain.
///
/// Returns the summed report, and the summed stats of every rank a fresh
/// engine replaced (`None` if none was).
pub(crate) fn recover<'a>(
    slots: impl IntoIterator<Item = Slot<'a>>,
    cfg: &ChipkillConfig,
    ctx: &mut AccessContext,
) -> Result<(RecoveryReport, Option<CoreStats>), CoreError> {
    let mut report = RecoveryReport::default();
    let mut retired: Option<CoreStats> = None;
    let mut replayed_any = false;
    for mut slot in slots {
        let Some(domain) = slot.engine().domain().as_mut() else {
            continue;
        };
        replayed_any = true;
        let (outcome, meta) = domain.replay()?;
        report.merge(&RecoveryReport {
            records_replayed: outcome.records_replayed,
            lines_redone: outcome.lines_redone,
            restriped: meta.restriped,
        });
        // Only the §V-E switch and a tier region ever replace an engine.
        if let Some(RestripeState::Chipkill(rank)) = engine_for_image(slot, &meta, cfg)? {
            retired.get_or_insert_default().merge(rank.stats());
        }
    }
    if replayed_any {
        let st = ctx.layer_mut(LayerId::Pmem);
        st.recoveries += 1;
        st.lines_redone += report.lines_redone;
    }
    Ok((report, retired))
}

/// The one place a metadata line becomes a layout. The engine in `slot`
/// holds a domain whose log has replayed; after this the domain sits in
/// the engine `meta` describes, its live arrays restored from the image.
/// That is the slot's engine itself when it stages the line's layout and
/// tier; otherwise a fresh one takes its place — a rank at the line's
/// tier (`cfg` moved to it), or the re-striped layout — and the engine it
/// replaced is returned.
///
/// # Errors
///
/// [`RecoveryFailure::CrcMismatch`] for a re-striped image in a rank
/// slot: only the §V-E switch writes such a line, so this one fails its
/// checks. The slot keeps its engine and domain.
fn engine_for_image(
    mut slot: Slot<'_>,
    meta: &MetaLine,
    cfg: &ChipkillConfig,
) -> Result<Option<RestripeState>, CoreError> {
    if meta.restriped && matches!(slot, Slot::Rank(_)) {
        return Err(CoreError::recovery(RecoveryFailure::CrcMismatch));
    }
    let engine = slot.engine();
    if engine.image_layout() == (meta.restriped, meta.tier) {
        engine.restore_image(meta);
        return Ok(None);
    }
    let domain = engine.domain().take().expect("the caller replayed it");
    let blocks = (domain.map.b_data_len() / 64) as u64;
    let rank = || ChipkillMemory::new(blocks, cfg.at_tier(meta.tier));
    let old = match &mut slot {
        Slot::Rank(live) => RestripeState::Chipkill(std::mem::replace(*live, rank())),
        Slot::Layout(state) => {
            let fresh = if meta.restriped {
                RestripeState::Restriped(RestripedMemory::zeroed(blocks))
            } else {
                RestripeState::Chipkill(rank())
            };
            std::mem::replace(*state, fresh)
        }
    };
    let engine = slot.engine();
    *engine.domain() = Some(domain);
    engine.restore_image(meta);
    Ok(Some(old))
}

/// Copies one chip's share of a block. A share is 8 B on every tier's
/// geometry; the fixed-size arm makes that one load and one store where
/// the slice copy is a `memcpy` call per share (a paper-tier stripe is
/// 288 of them: 190 ns against 730 ns to gather).
#[inline]
fn copy_share(dst: &mut [u8], src: &[u8]) {
    match (
        <&mut [u8; 8]>::try_from(&mut *dst),
        <&[u8; 8]>::try_from(src),
    ) {
        (Ok(dst), Ok(src)) => *dst = *src,
        _ => dst.copy_from_slice(src),
    }
}

impl Durable for ChipkillMemory {
    fn domain(&mut self) -> &mut Option<PmemDomain> {
        &mut self.domain
    }

    /// Pending EUR deltas drain first so the durable code arrays are
    /// consistent with the durable data.
    fn settle(&mut self) {
        self.flush_eur();
    }

    /// The nine stores are chip-major and the image is burst-major, so
    /// each dirty stripe is gathered into the domain's scratch buffer —
    /// its bursts, then its nine code words — and staged as two runs.
    fn stage_image(&mut self) {
        let tier = self.config().tier;
        let failed = self.known_failed;
        let layout = *self.layout();
        let Some(domain) = self.domain.as_mut() else {
            return;
        };
        let PmemDomain {
            media, map, gather, ..
        } = domain;
        let chips = self.chips.len();
        let (cb, bpv) = (layout.chip_bytes, layout.blocks_per_vlew());
        let data_len = bpv * chips * cb;
        let code_len = chips * layout.vlew_code_bytes;
        if gather.len() < data_len.max(code_len) {
            gather.resize(data_len.max(code_len), 0);
        }
        for w in 0..self.chips[0].dirty_words().len() {
            let mut word = self.chips.iter().fold(0, |u, c| u | c.dirty_words()[w]);
            while word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let first = s * bpv;
                let data_off = map.share(first, 0);
                for (c, chip) in self.chips.iter().enumerate() {
                    let shares = chip.vlew_data(s, &layout).chunks_exact(cb);
                    for (k, share) in shares.enumerate() {
                        let at = map.share(first + k, c) - data_off;
                        copy_share(&mut gather[at..at + cb], share);
                    }
                }
                media.stage(data_off, &gather[..data_len]);
                let code_off = map.code_word(s, 0);
                for (c, chip) in self.chips.iter().enumerate() {
                    let at = map.code_word(s, c) - code_off;
                    let word = chip.vlew_code(s, &layout);
                    gather[at..at + word.len()].copy_from_slice(word);
                }
                media.stage(code_off, &gather[..code_len]);
            }
        }
        for chip in &mut self.chips {
            chip.mark_clean();
        }
        domain.stage_meta(false, failed, tier);
    }

    /// The scatter that inverts `stage_image`'s gather. The EUR
    /// registerfile is volatile and comes back empty; the detected
    /// failure is restored from the metadata line (ground-truth injected
    /// failures and disabled-block sets are volatile campaign
    /// bookkeeping and survive untouched).
    fn restore_image(&mut self, meta: &MetaLine) {
        let layout = *self.layout();
        let (cb, code_bytes) = (layout.chip_bytes, layout.vlew_code_bytes);
        let Some(domain) = self.domain.as_ref() else {
            return;
        };
        let (staging, map) = (domain.media.staging(), &domain.map);
        for (c, chip) in self.chips.iter_mut().enumerate() {
            let (data, code) = chip.arrays_mut();
            for (b, share) in data.chunks_exact_mut(cb).enumerate() {
                copy_share(share, &staging[map.share(b, c)..][..cb]);
            }
            for (s, word) in code.chunks_exact_mut(code_bytes).enumerate() {
                word.copy_from_slice(&staging[map.code_word(s, c)..][..code_bytes]);
            }
            chip.mark_clean();
        }
        self.eur.clear();
        self.known_failed = meta.failed_chip;
    }

    fn image_layout(&self) -> (bool, ProtectionTier) {
        (false, self.tier())
    }
}

impl ChipkillMemory {
    /// Whether every chip's staged bytes equal its live arrays — the
    /// module's invariant after a flush. `None` without a domain.
    /// Linear in capacity: for assertions and tests.
    pub(crate) fn staging_matches_live(&self) -> Option<bool> {
        let domain = self.domain.as_ref()?;
        let (staging, map) = (domain.media.staging(), &domain.map);
        let (cb, code_bytes) = (self.layout().chip_bytes, self.layout().vlew_code_bytes);
        Some(self.chips.iter().enumerate().all(|(c, chip)| {
            let mut shares = chip.data().chunks_exact(cb).enumerate();
            let mut words = chip.code().chunks_exact(code_bytes).enumerate();
            shares.all(|(b, share)| staging[map.share(b, c)..][..cb] == *share)
                && words.all(|(s, word)| staging[map.code_word(s, c)..][..code_bytes] == *word)
        }))
    }
}

impl Durable for RestripedMemory {
    fn domain(&mut self) -> &mut Option<PmemDomain> {
        &mut self.domain
    }

    /// Region B is in the store's own order: each dirty group's data and
    /// code stage as they lie.
    fn stage_image(&mut self) {
        let Some(domain) = self.domain.as_mut() else {
            return;
        };
        let (data_off, code_off) = domain.map.b_areas();
        for g in self.store.dirty_stripes() {
            let data = self.store.vlew_data(g, &self.layout);
            domain.media.stage(data_off + g * data.len(), data);
            let code = self.store.vlew_code(g, &self.layout);
            domain.media.stage(code_off + g * code.len(), code);
        }
        self.store.mark_clean();
        domain.stage_meta(true, None, ProtectionTier::Paper);
    }

    fn restore_image(&mut self, _meta: &MetaLine) {
        let Some(domain) = self.domain.as_ref() else {
            return;
        };
        let ((data_off, code_off), staging) = (domain.map.b_areas(), domain.media.staging());
        let (data, code) = self.store.arrays_mut();
        data.copy_from_slice(&staging[data_off..data_off + data.len()]);
        code.copy_from_slice(&staging[code_off..code_off + code.len()]);
        self.store.mark_clean();
    }

    fn image_layout(&self) -> (bool, ProtectionTier) {
        (true, ProtectionTier::Paper)
    }
}

impl RestripedMemory {
    /// Installs a persistence domain; as on the chipkill rank, every
    /// group becomes dirty.
    pub(crate) fn set_domain(&mut self, domain: PmemDomain) {
        self.store.mark_all_dirty();
        self.domain = Some(domain);
    }

    /// Whether staged region B equals the live arrays; see
    /// [`ChipkillMemory::staging_matches_live`].
    pub(crate) fn staging_matches_live(&self) -> Option<bool> {
        let domain = self.domain.as_ref()?;
        let ((data_off, code_off), staging) = (domain.map.b_areas(), domain.media.staging());
        let (data, code) = (self.store.data(), self.store.code());
        Some(
            staging[data_off..data_off + data.len()] == *data
                && staging[code_off..code_off + code.len()] == *code,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipkillConfig;
    use crate::request::{Request, Response};
    use crate::restripe::Restripeable;
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

    /// Where stored byte `k` of chip `chip`'s stripe `stripe` (its VLEW
    /// data bytes first, its code bytes after them) belongs in the image
    /// of a rank of `blocks` blocks. The tests' own address function,
    /// written from the module docs' picture in the paper's numbers: it
    /// shares nothing with [`RegionMap`] or the gather in `stage_image`.
    fn image_offset(
        layout: &ChipkillLayout,
        blocks: usize,
        chip: usize,
        stripe: usize,
        k: usize,
    ) -> usize {
        match k.checked_sub(layout.vlew_data_bytes) {
            // Burst `block` is 72 B: 8 B from each of the nine chips.
            None => {
                let block = stripe * (layout.vlew_data_bytes / 8) + k / 8;
                block * 72 + chip * 8 + k % 8
            }
            // After the bursts, from the next line boundary: five lines
            // per stripe holding nine 33 B code words.
            Some(code_byte) => {
                (blocks * 72).div_ceil(64) * 64 + stripe * 320 + chip * 33 + code_byte
            }
        }
    }

    /// The flush body before the dirty set, kept as its oracle: lay the
    /// whole of region A out byte by byte through [`image_offset`],
    /// stage it in one call and let compare-skip alone find what
    /// changed. A `Flush` that follows has nothing left to find, so what
    /// it fences is what restage-at-flush would have fenced.
    fn restage_whole_rank(rank: &mut ChipkillMemory) {
        rank.flush_eur();
        let layout = *rank.layout();
        let blocks = rank.num_blocks() as usize;
        // Region A ends where one more stripe's code words would start.
        let end = image_offset(&layout, blocks, 0, rank.stripes(), layout.vlew_data_bytes);
        let mut image = vec![0u8; end];
        for (c, chip) in rank.chips.iter().enumerate() {
            for s in 0..rank.stripes() {
                let stored = chip.vlew_data(s, &layout).iter();
                for (k, &byte) in stored.chain(chip.vlew_code(s, &layout)).enumerate() {
                    image[image_offset(&layout, blocks, c, s, k)] = byte;
                }
            }
        }
        let domain = rank.domain.as_mut().expect("persistent rank");
        domain.media.stage(0, &image);
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
        assert_eq!(a.media.stats(), b.media.stats(), "{what}: media stats");
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
    fn region_map_is_a_bijection_on_every_tier() {
        const BLOCKS: usize = 96;
        let dense = ChipkillLayout::dense();
        for tier in ProtectionTier::ALL {
            let layout = tier.geometry();
            let (bpv, vdb) = (layout.blocks_per_vlew(), layout.vlew_data_bytes);
            let stripes = BLOCKS / bpv;
            // Sized for the rank's own geometry, and as `TieredMemory`
            // sizes every region: for the dense tier's stripe count.
            let own = RegionMap::new(&layout, stripes, BLOCKS as u64, 64);
            let tiered = RegionMap::new(&dense, BLOCKS / 16, BLOCKS as u64, 64);
            for map in [own, tiered] {
                let mut owner = vec![None; map.total_len()];
                let mut claim = |off: usize, who: (&'static str, usize, usize)| {
                    assert_eq!(owner[off].replace(who), None, "{tier}: {who:?} at {off}");
                };
                for c in 0..9 {
                    for s in 0..stripes {
                        for k in 0..vdb {
                            let off = map.share(s * bpv + k / 8, c) + k % 8;
                            assert_eq!(off, image_offset(&layout, BLOCKS, c, s, k));
                            claim(off, ("data", c, s));
                        }
                        for k in 0..33 {
                            let off = map.code_word(s, c) + k;
                            assert_eq!(off, image_offset(&layout, BLOCKS, c, s, vdb + k));
                            claim(off, ("code", c, s));
                        }
                    }
                }
                let (b_data, b_code) = map.b_areas();
                assert_eq!(map.b_data_len(), BLOCKS * 64);
                for k in 0..BLOCKS * 64 {
                    claim(b_data + k, ("b-data", 0, 0));
                }
                for k in 0..BLOCKS / BLOCKS_PER_GROUP * 33 {
                    claim(b_code + k, ("b-code", 0, 0));
                }
                for k in 0..META_LEN {
                    claim(map.meta() + k, ("meta", 0, 0));
                }
                // Objects start on a line, so no line holds two.
                for s in 0..stripes {
                    assert_eq!(map.share(s * bpv, 0) % 64, 0, "{tier}: stripe {s} data");
                    assert_eq!(map.code_word(s, 0) % 64, 0, "{tier}: stripe {s} code");
                }
                for off in [b_data, b_code, map.meta()] {
                    assert_eq!(off % 64, 0);
                }
                for line in owner.chunks_exact(64) {
                    let mut kinds = line.iter().flatten().map(|&(kind, ..)| kind);
                    let first = kinds.next();
                    assert!(
                        kinds.all(|k| Some(k) == first),
                        "{tier}: a line holds two areas"
                    );
                }
                // The commit record of a layout flip or a tier change is
                // the last line a fence persists.
                assert_eq!(map.meta() + META_LEN, map.total_len());
            }
        }
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
        flush(&mut rank, &mut ctx);

        // Overwrite after the flush, then lose power: the overwrites
        // (and their pending EUR deltas) must vanish.
        for a in 0..8u64 {
            rank.write_block(a, &[0xFF; 64]).unwrap();
        }
        assert!(power_cut(&mut rank) > 0);
        rank.access(Request::Recover, &mut ctx).unwrap();
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
        flush(&mut rank, &mut ctx);
        rank.inject_bit_errors(1e-3, ctx.rng());
        power_cut(&mut rank);
        rank.access(Request::Recover, &mut ctx).unwrap();
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
            flush(&mut rank, &mut ctx);
            let mut mem = RestripedMemory::from_failed_rank(&mut rank).unwrap();
            mem.set_domain(rank.take_domain().unwrap());
            if oracle {
                restage_whole_restriped(&mut mem);
            }
            flush(&mut mem, &mut ctx);
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
        flush(&mut a, &mut ctx_a);
        restage_whole_restriped(&mut b);
        flush(&mut b, &mut ctx_b);
        assert_same_media(&a.domain.unwrap(), &b.domain.unwrap(), "restriped");
    }

    #[test]
    fn dirty_set_staging_equals_whole_image_restage_across_a_tier_migration() {
        // What `TieredMemory::migrate_region` does to commit: a fresh
        // engine of the other tier takes the region's image and its
        // domain (its code area sized, as there, for the dense tier's
        // stripes), and one flush fences the lot.
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
            flush(&mut rank, &mut ctx);
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
            let lines = flush(&mut fresh, &mut ctx);
            (fresh, lines)
        };
        let ((a, lines_a), (b, lines_b)) = (migrate(false), migrate(true));
        assert_eq!(lines_a, lines_b);
        // Block 9's burst (2 lines), the re-encoded code area (4 dense
        // stripes of 5 lines) and the tier tag; the other bursts sit
        // where they sat and compare equal.
        assert_eq!(lines_a, 2 + 4 * 5 + 1);
        assert_same_media(&a.domain.unwrap(), &b.domain.unwrap(), "migrated");
    }

    #[test]
    fn one_write_fences_a_handful_of_lines_and_every_cut_of_it_is_atomic() {
        let run = |fuse: Option<u64>| {
            let mut rank = persistent_rank(64);
            let mut ctx = AccessContext::new(6);
            fill(&mut rank);
            flush(&mut rank, &mut ctx);
            let domain = rank.domain.as_mut().unwrap();
            let before = domain.steps_taken();
            if let Some(steps) = fuse {
                domain.arm_fuse(steps);
            }
            rank.write_block(37, &block(0xC7)).unwrap();
            let lines = flush(&mut rank, &mut ctx);
            let steps = rank.domain.as_ref().unwrap().steps_taken() - before;
            (rank, ctx, lines, steps)
        };
        // One 72 B burst straddles two lines; the stripe's nine code
        // words share five; the metadata line did not change.
        let (_, _, lines, steps) = run(None);
        assert!((3..=8).contains(&lines), "fenced {lines} lines");
        let mut outcomes = [0u32; 2];
        for cut in 0..=steps {
            let (mut rank, mut ctx, ..) = run(Some(cut));
            power_cut(&mut rank);
            rank.access(Request::Recover, &mut ctx).unwrap();
            let got = rank.read_block(37).unwrap();
            assert_eq!(
                got.path,
                crate::ReadPath::Clean,
                "cut {cut}: block 37 damaged"
            );
            let new = got.data == block(0xC7);
            assert!(new || got.data == block(37), "cut {cut}: torn block");
            outcomes[new as usize] += 1;
            for a in (0..64u64).filter(|&a| a != 37) {
                assert_eq!(
                    rank.read_block(a).unwrap().data,
                    block(a as u8),
                    "cut {cut}"
                );
            }
            assert!(rank.verify_consistent(), "cut {cut}: codes must match data");
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "outcomes {outcomes:?}");
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
        flush(&mut rank, &mut ctx);
        write_then_forget_the_marks(&mut rank);
        // `flush` minus its closing assertion.
        rank.stage_image();
        let report = rank.domain.as_mut().unwrap().media.drain();
        assert_eq!(report.lines, 0, "nothing was marked, so nothing was fenced");
        assert_eq!(rank.staging_matches_live(), Some(false));
        power_cut(&mut rank);
        rank.access(Request::Recover, &mut ctx).unwrap();
        assert_eq!(rank.read_block(5).unwrap().data, block(5), "write lost");
        assert_eq!(rank.staging_matches_live(), Some(true));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not mark its stripe dirty")]
    fn flush_asserts_the_invariant_in_debug_builds() {
        let mut rank = persistent_rank(32);
        let mut ctx = AccessContext::new(5);
        flush(&mut rank, &mut ctx);
        write_then_forget_the_marks(&mut rank);
        flush(&mut rank, &mut ctx);
    }

    #[test]
    fn a_rank_refuses_a_re_striped_image_and_keeps_its_domain() {
        let mut rank = persistent_rank(32);
        let mut ctx = AccessContext::new(7);
        flush(&mut rank, &mut ctx);
        // A sealed line that only the §V-E switch writes.
        let domain = rank.domain.as_mut().unwrap();
        domain.stage_meta(true, None, ProtectionTier::Paper);
        domain.media.drain();
        power_cut(&mut rank);
        match rank.access(Request::Recover, &mut ctx) {
            Err(CoreError::Recovery(e)) => assert_eq!(e.kind(), RecoveryFailure::CrcMismatch),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(rank.domain.is_some(), "the rank keeps its domain");
    }
}
