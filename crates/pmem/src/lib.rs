//! Persistence-domain model for persistent-memory ranks.
//!
//! The functional stack mutates its chip arrays in ordinary volatile
//! memory; this crate supplies the durability story. A
//! [`PersistentMedia`] keeps two byte images of the same address space:
//!
//! * **staging** — the volatile view. [`PersistentMedia::stage`] copies
//!   bytes in and marks every line whose bytes changed *dirty*; a power
//!   cut discards the dirty lines.
//! * **durable** — what the NVRAM cells hold. Only
//!   [`PersistentMedia::drain`] moves bytes here: the dirty lines, all
//!   or none of them, after which the dirty set is empty.
//!
//! That is the virtio-pmem protocol: *"Data written to this memory is
//! made persistent by separately sending a flush command — writes that
//! have been flushed are preserved across device reset and power
//! failure."* `stage` is the write and `drain` the flush command; there
//! is no other way in or out.
//!
//! # The intent log makes every drain all-or-nothing
//!
//! Media writes tear: a 64 B line persists in `torn_chunk_bytes`
//! pieces, and power can fail between any two pieces. A multi-line
//! drain interrupted halfway would otherwise leave the durable image
//! half old, half new — a state no decoder is guaranteed to recover.
//! `drain` therefore writes a single CRC-sealed *redo record* into a
//! log region of the same media before touching any data line:
//!
//! ```text
//! [ magic u64 | epoch u64 | count u64 | (offset u64, line bytes)×count | crc u64 ]
//! ```
//!
//! * power lost while the record itself is being written → the CRC
//!   seal fails on recovery, the record is ignored, and the durable
//!   image is the intact **pre-drain** state;
//! * power lost after the seal, while data lines are being persisted →
//!   recovery replays the sealed record and reconstructs the complete
//!   **post-drain** state.
//!
//! Replay is idempotent (it rewrites whole lines with their recorded
//! contents), so recovering twice — or recovering after a clean
//! shutdown — is harmless. Only one record is ever live: the next
//! drain overwrites the log region from offset zero, and a partially
//! overwritten old record is self-invalidating by CRC.
//!
//! # Power cuts
//!
//! [`PersistentMedia::arm_fuse`] kills the media after a chosen number
//! of durable chunk writes — the crash-campaign hook. A dead media
//! silently drops further durable writes (the simulation may keep
//! executing volatile-side; everything after the fuse simply never
//! reached the cells). [`PersistentMedia::power_cut`] then discards
//! the dirty set and [`PersistentMedia::recover`] rebuilds staging from
//! the durable image after log replay.
//!
//! The media has no fault model of its own. The stack injects faults
//! into its live arrays, and a fault reaches the cells the way any
//! other change does: staged and drained by the next flush.

use std::fmt;

/// Geometry of the persistence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmemConfig {
    /// Flush/dirty-tracking granularity (a CPU cache line), in bytes.
    pub line_bytes: usize,
    /// Atomic media write unit: power can fail between chunks of a
    /// line, never inside one chunk (8 = the paper's per-chip share of
    /// a block).
    pub torn_chunk_bytes: usize,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            line_bytes: 64,
            torn_chunk_bytes: 8,
        }
    }
}

/// What the drains have committed so far. An empty drain counts
/// nothing: it seals no record and persists no chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// Intent-log records sealed, one per non-empty drain; also the
    /// epoch the next record carries.
    pub log_records: u64,
    /// Intent-log bytes written.
    pub log_bytes: u64,
    /// Lines a fuse cut left partially persisted.
    pub torn_lines: u64,
}

/// What one drain committed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceReport {
    /// Dirty lines the drain persisted (or tried to, under a fuse).
    pub lines: u64,
    /// Intent-log bytes written for them (0 for an empty drain).
    pub log_bytes: u64,
}

/// Result of replaying the intent log during recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Sealed records found and replayed (0 or 1).
    pub records_replayed: u64,
    /// Lines rewritten from the record.
    pub lines_redone: u64,
}

/// A structurally corrupt intent log: recovery cannot tell what the
/// durable image is supposed to be. Distinct from a *torn* record,
/// which fails its CRC seal and is silently ignored (pre-drain state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaError {
    /// The record header claims more lines than the log region can
    /// hold, so no seal covering it can exist.
    UnsealedRecord {
        /// Line count claimed by the header.
        count: u64,
        /// Most lines a sealed record could carry.
        capacity_lines: u64,
    },
    /// A sealed entry targets an offset outside the data region.
    TornEntry {
        /// The out-of-range byte offset.
        offset: u64,
    },
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::UnsealedRecord {
                count,
                capacity_lines,
            } => write!(
                f,
                "intent-log record claims {count} lines but the log region holds \
                 at most {capacity_lines}"
            ),
            MediaError::TornEntry { offset } => write!(
                f,
                "sealed intent-log entry targets out-of-range offset {offset}"
            ),
        }
    }
}

impl std::error::Error for MediaError {}

/// Record magic ("PMCKLOG1" as a little-endian u64).
const LOG_MAGIC: u64 = 0x3147_4f4c_4b43_4d50;
/// Bytes of record framing: magic + epoch + count header, crc footer.
const LOG_HEADER: usize = 24;
const LOG_FOOTER: usize = 8;

/// Slice-by-8 lookup tables for [`crc32`]: `CRC32_TABLES[0]` is the
/// classic byte-at-a-time table of the reflected polynomial, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight lookups retire eight input bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`, init and
/// final XOR `0xFFFFFFFF`), slice-by-8 over `const` tables.
///
/// The seal of every intent-log record and of the metadata line. A
/// drain is little else once staging walks only the dirty stripes
/// (1.2 KB of record on a typical `Flush`), and recovery re-computes it
/// over the whole live record, so the bit-at-a-time loop this replaced
/// was most of both; the values are unchanged, so records and meta
/// lines sealed by it still verify.
///
/// # Examples
///
/// ```
/// // The CRC-32/ISO-HDLC check value for "123456789".
/// assert_eq!(pmck_pmem::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Fixed-capacity bitset over line indices, with one summary bit per
/// word: a drain commits a few dozen of the tens of thousands of lines
/// a rank's media holds, so every walk (`count`, `next_from`,
/// `clear_all`) skips the empty words 64 at a time and costs the words
/// that hold a member.
#[derive(Debug, Clone)]
struct LineSet {
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set exactly when
    /// `words[w] != 0`.
    summary: Vec<u64>,
}

impl LineSet {
    fn new(lines: usize) -> Self {
        let words = lines.div_ceil(64);
        LineSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }
    fn set(&mut self, line: usize) {
        let w = line / 64;
        self.words[w] |= 1 << (line % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }
    /// The first non-empty word at or after word `w`.
    fn next_word(&self, w: usize) -> Option<usize> {
        let mut s = w / 64;
        let mut bits = *self.summary.get(s)? & (u64::MAX << (w % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }
    /// The smallest member `>= line`: `next_from(0)`, then
    /// `next_from(member + 1)`, visits the set in ascending order.
    fn next_from(&self, line: usize) -> Option<usize> {
        let w = line / 64;
        let rest = *self.words.get(w)? & (u64::MAX << (line % 64));
        if rest != 0 {
            return Some(w * 64 + rest.trailing_zeros() as usize);
        }
        let w = self.next_word(w + 1)?;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
    fn count(&self) -> u64 {
        let mut n = 0;
        let mut at = 0;
        while let Some(w) = self.next_word(at) {
            n += self.words[w].count_ones() as u64;
            at = w + 1;
        }
        n
    }
    fn clear_all(&mut self) {
        let mut at = 0;
        while let Some(w) = self.next_word(at) {
            self.words[w] = 0;
            at = w + 1;
        }
        self.summary.fill(0);
    }
}

/// The dual-image persistence domain. See the crate docs for the
/// durability protocol.
#[derive(Debug, Clone)]
pub struct PersistentMedia {
    cfg: PmemConfig,
    /// Bytes in the data region (log region excluded).
    data_len: usize,
    /// The volatile view, data region only.
    staging: Vec<u8>,
    /// What the cells hold: data region, then the log region.
    durable: Vec<u8>,
    log_base: usize,
    log_cap: usize,
    /// Lines staged with new bytes since the last drain.
    dirty: LineSet,
    /// Reusable record-encode buffer (capacity reserved up front so
    /// steady-state drains never allocate).
    log_buf: Vec<u8>,
    fuse: Option<u64>,
    dead: bool,
    steps_taken: u64,
    stats: MediaStats,
}

impl PersistentMedia {
    /// A domain over `data_len` bytes of media (rounded up to whole
    /// lines). The log region is sized for the worst-case record: a
    /// drain covering every line.
    ///
    /// # Panics
    ///
    /// Panics if `data_len == 0` or the torn-chunk size does not evenly
    /// divide the line size.
    pub fn new(data_len: usize, cfg: PmemConfig) -> Self {
        assert!(data_len > 0, "media must hold at least one line");
        assert!(
            cfg.line_bytes > 0
                && cfg.torn_chunk_bytes > 0
                && cfg.line_bytes.is_multiple_of(cfg.torn_chunk_bytes),
            "torn chunk must evenly divide the line size"
        );
        let lb = cfg.line_bytes;
        let data_len = data_len.div_ceil(lb) * lb;
        let lines = data_len / lb;
        let log_cap = LOG_HEADER + lines * (8 + lb) + LOG_FOOTER;
        PersistentMedia {
            cfg,
            data_len,
            staging: vec![0; data_len],
            durable: vec![0; data_len + log_cap],
            log_base: data_len,
            log_cap,
            dirty: LineSet::new(lines),
            log_buf: Vec::with_capacity(log_cap),
            fuse: None,
            dead: false,
            steps_taken: 0,
            stats: MediaStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &MediaStats {
        &self.stats
    }

    /// The volatile view.
    pub fn staging(&self) -> &[u8] {
        &self.staging
    }

    /// The durable data region (what survives a power cut, before
    /// log replay).
    pub fn durable_data(&self) -> &[u8] {
        &self.durable[..self.data_len]
    }

    /// Stores `src` at byte offset `off` in the volatile view, dirtying
    /// only the lines whose bytes actually change: callers may stage
    /// every range that *may* have changed since the last drain, and
    /// untouched lines stay clean, so a no-change epoch drains nothing.
    /// Returns the number of lines marked dirty by this call.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data region.
    pub fn stage(&mut self, off: usize, src: &[u8]) -> u64 {
        assert!(off + src.len() <= self.data_len, "write beyond data region");
        if src.is_empty() {
            return 0;
        }
        let lb = self.cfg.line_bytes;
        let mut dirtied = 0;
        for line in (off / lb)..=((off + src.len() - 1) / lb) {
            let ls = (line * lb).max(off);
            let le = ((line + 1) * lb).min(off + src.len());
            if self.staging[ls..le] != src[ls - off..le - off] {
                self.staging[ls..le].copy_from_slice(&src[ls - off..le - off]);
                self.dirty.set(line);
                dirtied += 1;
            }
        }
        dirtied
    }

    /// The flush command: commits every dirty line to durable media,
    /// all-or-nothing — seals a redo record of them in the log region,
    /// persists each line in ascending order, and clears the dirty set.
    /// With nothing dirty it writes nothing (no record, no epoch bump).
    pub fn drain(&mut self) -> FenceReport {
        let lines = self.dirty.count();
        if lines == 0 {
            return FenceReport::default();
        }
        let lb = self.cfg.line_bytes;
        self.log_buf.clear();
        push_u64(&mut self.log_buf, LOG_MAGIC);
        push_u64(&mut self.log_buf, self.stats.log_records);
        push_u64(&mut self.log_buf, lines);
        let mut at = 0;
        while let Some(line) = self.dirty.next_from(at) {
            push_u64(&mut self.log_buf, (line * lb) as u64);
            self.log_buf
                .extend_from_slice(&self.staging[line * lb..(line + 1) * lb]);
            at = line + 1;
        }
        let crc = crc32(&self.log_buf);
        push_u64(&mut self.log_buf, crc as u64);
        debug_assert!(self.log_buf.len() <= self.log_cap, "log region overflow");
        let log_bytes = self.log_buf.len() as u64;
        self.stats.log_records += 1;
        self.stats.log_bytes += log_bytes;
        self.persist_log();
        let mut at = 0;
        while let Some(line) = self.dirty.next_from(at) {
            self.persist_line(line);
            at = line + 1;
        }
        self.dirty.clear_all();
        FenceReport { lines, log_bytes }
    }

    /// Takes up to `want` durable chunk-write steps from the fuse and
    /// returns how many it granted. Asking for more than the fuse holds
    /// burns it out (the media is dead from the first refused chunk on),
    /// exactly as asking chunk by chunk would.
    fn take_steps(&mut self, want: u64) -> u64 {
        if self.dead {
            return 0;
        }
        let granted = match self.fuse.as_mut() {
            None => want,
            Some(remaining) => {
                let granted = want.min(*remaining);
                *remaining -= granted;
                granted
            }
        };
        self.dead = granted < want;
        self.steps_taken += granted;
        granted
    }

    /// Persists the encoded record into the durable log region: the
    /// prefix of whole chunks the fuse grants.
    fn persist_log(&mut self) {
        let ch = self.cfg.torn_chunk_bytes;
        let len = self.log_buf.len();
        let granted = self.take_steps(len.div_ceil(ch) as u64) as usize;
        let n = (granted * ch).min(len);
        self.durable[self.log_base..self.log_base + n].copy_from_slice(&self.log_buf[..n]);
    }

    /// Persists one staged line into the durable data region: the
    /// prefix of chunks the fuse grants, so a mid-line fuse cut leaves
    /// the line torn.
    fn persist_line(&mut self, line: usize) {
        let lb = self.cfg.line_bytes;
        let ch = self.cfg.torn_chunk_bytes;
        let base = line * lb;
        let chunks = (lb / ch) as u64;
        let granted = self.take_steps(chunks);
        if granted > 0 && granted < chunks {
            self.stats.torn_lines += 1;
        }
        let n = granted as usize * ch;
        self.durable[base..base + n].copy_from_slice(&self.staging[base..base + n]);
    }

    /// Arms the crash fuse: the next `steps` durable chunk writes
    /// succeed, then the media dies. `steps == 0` dies on the first
    /// durable write.
    pub fn arm_fuse(&mut self, steps: u64) {
        self.fuse = Some(steps);
    }

    /// Durable chunk writes performed so far (enumerating this after an
    /// uncut run of an operation yields the campaign's cut-point space).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Cuts power: every line not committed by a drain is lost. Returns
    /// the number of dirty lines discarded. The staging image is
    /// rebuilt by [`PersistentMedia::recover`]; power is considered
    /// restored (the fuse resets).
    pub fn power_cut(&mut self) -> u64 {
        let lost = self.dirty.count();
        self.dirty.clear_all();
        self.fuse = None;
        self.dead = false;
        lost
    }

    /// Replays the intent log onto the durable image, then rebuilds the
    /// volatile view from it. Idempotent.
    ///
    /// # Errors
    ///
    /// [`MediaError`] when the log is structurally corrupt (not merely
    /// torn — a torn record is ignored and the pre-drain image stands).
    pub fn recover(&mut self) -> Result<ReplayOutcome, MediaError> {
        let outcome = self.replay_log()?;
        self.staging.copy_from_slice(&self.durable[..self.data_len]);
        self.dirty.clear_all();
        Ok(outcome)
    }

    fn replay_log(&mut self) -> Result<ReplayOutcome, MediaError> {
        let lb = self.cfg.line_bytes;
        let log = &self.durable[self.log_base..];
        if read_u64(log, 0) != LOG_MAGIC {
            return Ok(ReplayOutcome::default());
        }
        let count = read_u64(log, 16);
        let capacity_lines = ((self.log_cap - LOG_HEADER - LOG_FOOTER) / (8 + lb)) as u64;
        if count > capacity_lines {
            return Err(MediaError::UnsealedRecord {
                count,
                capacity_lines,
            });
        }
        let body_len = LOG_HEADER + count as usize * (8 + lb);
        let sealed = read_u64(log, body_len) as u32;
        if crc32(&log[..body_len]) != sealed {
            // Torn record: the drain never committed; pre-state stands.
            return Ok(ReplayOutcome::default());
        }
        // Validate every entry before applying any, so a corrupt record
        // cannot half-apply.
        for i in 0..count as usize {
            let off = read_u64(log, LOG_HEADER + i * (8 + lb));
            // No `off + lb`: a hostile offset near `u64::MAX` would wrap it.
            if !off.is_multiple_of(lb as u64) || off > (self.data_len - lb) as u64 {
                return Err(MediaError::TornEntry { offset: off });
            }
        }
        for i in 0..count as usize {
            let entry = LOG_HEADER + i * (8 + lb);
            let off = read_u64(&self.durable[self.log_base..], entry) as usize;
            let src = self.log_base + entry + 8;
            self.durable.copy_within(src..src + lb, off);
        }
        Ok(ReplayOutcome {
            records_replayed: 1,
            lines_redone: count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(lines: usize) -> PersistentMedia {
        PersistentMedia::new(lines * 64, PmemConfig::default())
    }

    fn cut_and_recover(m: &mut PersistentMedia) -> ReplayOutcome {
        m.power_cut();
        m.recover().expect("recovery must succeed")
    }

    impl PersistentMedia {
        /// Overwrites the durable log region directly: the crafted
        /// corruption the recovery-error tests need.
        fn scar_log(&mut self, off: usize, bytes: &[u8]) {
            assert!(off + bytes.len() <= self.log_cap, "scar beyond log region");
            self.durable[self.log_base + off..self.log_base + off + bytes.len()]
                .copy_from_slice(bytes);
        }
    }

    /// The bit-at-a-time loop [`crc32`] replaced, kept as its reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// splitmix64: the crate has no dependencies to borrow an RNG from.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn crc32_tables_match_the_bitwise_reference() {
        let mut next = splitmix(0xC3C3_2020);
        let buf: Vec<u8> = (0..(64 << 10) / 8 + 1)
            .flat_map(|_| next().to_le_bytes())
            .collect();
        let lens = (0..=520).chain((0..200).map(|_| (next() % ((64 << 10) + 1)) as usize));
        for len in lens {
            // Every phase of the slice start against the 8-byte stride.
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} at alignment {start}");
            }
        }
    }

    #[test]
    fn unflushed_writes_die_with_the_power() {
        let mut m = media(4);
        m.stage(0, &[0xAA; 64]);
        assert_eq!(m.staging()[0], 0xAA);
        assert_eq!(m.durable_data()[0], 0);
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[0], 0, "unflushed line must not survive");
    }

    #[test]
    fn stage_skips_unchanged_lines() {
        let mut m = media(4);
        m.stage(0, &[0xAA; 128]);
        m.drain();
        // Re-staging identical bytes dirties nothing: the next drain is
        // empty and burns no fuse steps.
        assert_eq!(m.stage(0, &[0xAA; 128]), 0);
        let r = m.drain();
        assert_eq!(r.lines, 0);
        assert_eq!(r.log_bytes, 0);
        // One changed byte dirties exactly its line.
        let mut img = [0xAA; 128];
        img[70] = 0xBB;
        assert_eq!(m.stage(0, &img), 1);
        assert_eq!(m.drain().lines, 1);
        assert_eq!(m.staging()[70], 0xBB);
        assert_eq!(m.durable_data()[70], 0xBB);
    }

    #[test]
    fn drain_survives_power_cut() {
        let mut m = media(4);
        m.stage(0, &[1; 64]);
        m.stage(128, &[2; 64]);
        let report = m.drain();
        assert_eq!(report.lines, 2);
        assert!(report.log_bytes > 0);
        assert_eq!(m.stats().log_records, 1);
        let replay = cut_and_recover(&mut m);
        // Clean-shutdown replay re-applies the sealed record (idempotent).
        assert_eq!(replay.records_replayed, 1);
        assert_eq!(m.staging()[0], 1);
        assert_eq!(m.staging()[128], 2);
    }

    #[test]
    fn empty_drain_writes_no_record() {
        let mut m = media(2);
        let steps = m.steps_taken();
        assert_eq!(m.drain(), FenceReport::default());
        assert_eq!(m.stats(), &MediaStats::default());
        assert_eq!(m.steps_taken(), steps);
    }

    #[test]
    fn only_fenced_epoch_survives() {
        let mut m = media(2);
        m.stage(0, &[1; 64]);
        m.drain();
        m.stage(0, &[2; 64]); // staged, never drained
        assert_eq!(m.power_cut(), 1);
        m.recover().unwrap();
        assert_eq!(m.staging()[0], 1, "pre-drain epoch must stand");
    }

    /// Every possible cut point inside a two-line drain recovers to
    /// exactly the pre-drain or post-drain image — never a mixture.
    #[test]
    fn every_cut_point_is_all_or_nothing() {
        let staged = || {
            let mut m = media(4);
            m.stage(0, &[0x11; 64]);
            m.stage(192, &[0x22; 64]);
            m
        };
        // Dry run to learn the step budget.
        let mut dry = staged();
        dry.drain();
        let steps = dry.steps_taken();
        assert!(steps > 0);

        for cut in 0..=steps {
            let mut m = staged();
            m.arm_fuse(cut);
            m.drain();
            cut_and_recover(&mut m);
            let a = m.staging()[0];
            let b = m.staging()[192];
            assert!(
                (a, b) == (0, 0) || (a, b) == (0x11, 0x22),
                "cut {cut}/{steps}: recovered to a mixed image ({a:#x}, {b:#x})"
            );
        }
        // A cut after the final step must be the post image.
        let mut m = staged();
        m.arm_fuse(steps);
        m.drain();
        assert!(!m.dead);
        cut_and_recover(&mut m);
        assert_eq!((m.staging()[0], m.staging()[192]), (0x11, 0x22));
    }

    #[test]
    fn mid_data_cut_tears_the_raw_line_but_replay_heals_it() {
        let mut m = media(1);
        let mut pattern = [0u8; 64];
        for (i, b) in pattern.iter_mut().enumerate() {
            *b = i as u8 | 0x80;
        }
        m.stage(0, &pattern);
        // Let the whole record persist plus one data chunk: the durable
        // line is torn (one new chunk, rest old zeroes) until replay.
        let mut probe = media(1);
        probe.stage(0, &pattern);
        probe.drain();
        let record_chunks = probe.stats().log_bytes.div_ceil(8);
        m.arm_fuse(record_chunks + 1);
        m.drain();
        assert!(m.dead);
        assert_eq!(m.stats().torn_lines, 1);
        assert_eq!(&m.durable_data()[..8], &pattern[..8], "first chunk landed");
        assert_eq!(m.durable_data()[63], 0, "last chunk did not");
        cut_and_recover(&mut m);
        assert_eq!(m.staging(), &pattern[..], "sealed record redoes the line");
    }

    #[test]
    fn second_fence_overwrites_the_record() {
        let mut m = media(4);
        m.stage(0, &[1; 64]);
        m.drain();
        m.stage(64, &[2; 64]);
        m.drain();
        let replay = cut_and_recover(&mut m);
        assert_eq!(replay.lines_redone, 1, "only the last record is live");
        assert_eq!(m.staging()[0], 1);
        assert_eq!(m.staging()[64], 2);
    }

    #[test]
    fn replay_heals_scars_on_lines_the_live_record_covers() {
        let mut m = media(2);
        m.stage(0, &[0xF0; 64]);
        m.drain();
        // Disturb a cell of each line behind the protocol's back.
        m.durable[0] ^= 0x0F;
        m.durable[64] ^= 0x0F;
        cut_and_recover(&mut m);
        assert_eq!(
            m.staging()[0],
            0xF0,
            "redo replay rewrites the recorded line, undoing the scar"
        );
        assert_eq!(m.staging()[64], 0x0F, "a line no record covers keeps it");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut m = media(3);
        m.stage(0, &[7; 64]);
        m.stage(64, &[9; 64]);
        m.drain();
        cut_and_recover(&mut m);
        let first: Vec<u8> = m.staging().to_vec();
        let replay = m.recover().unwrap();
        assert_eq!(replay.records_replayed, 1);
        assert_eq!(m.staging(), &first[..]);
    }

    #[test]
    fn bogus_count_is_an_unsealed_record() {
        let mut m = media(2);
        m.stage(0, &[1; 64]);
        m.drain();
        // Keep the magic, blow up the count field (offset 16).
        m.scar_log(16, &u64::MAX.to_le_bytes());
        m.power_cut();
        match m.recover() {
            Err(MediaError::UnsealedRecord { count, .. }) => assert_eq!(count, u64::MAX),
            other => panic!("expected UnsealedRecord, got {other:?}"),
        }
    }

    #[test]
    fn sealed_record_with_bad_offset_is_a_torn_entry() {
        let mut m = media(2);
        // Hand-craft a sealed record whose single entry points past the
        // data region.
        let mut rec = Vec::new();
        push_u64(&mut rec, LOG_MAGIC);
        push_u64(&mut rec, 0);
        push_u64(&mut rec, 1);
        push_u64(&mut rec, (m.data_len + 64) as u64);
        rec.extend_from_slice(&[0u8; 64]);
        let crc = crc32(&rec);
        push_u64(&mut rec, crc as u64);
        m.scar_log(0, &rec);
        m.power_cut();
        match m.recover() {
            Err(MediaError::TornEntry { offset }) => {
                assert_eq!(offset as usize, m.data_len + 64);
            }
            other => panic!("expected TornEntry, got {other:?}"),
        }
    }

    #[test]
    fn torn_record_is_ignored_not_an_error() {
        let mut m = media(2);
        m.stage(0, &[3; 64]);
        m.drain();
        m.stage(64, &[4; 64]);
        // Cut inside the record write of the second drain, after the
        // epoch chunk has landed: the mixed old/new record bytes fail
        // the CRC seal. (Cutting after only the magic chunk would leave
        // the old record byte-identical — and correctly still sealed.)
        m.arm_fuse(2);
        m.drain();
        let replay = cut_and_recover(&mut m);
        assert_eq!(replay.records_replayed, 0, "torn record must be ignored");
        assert_eq!(m.staging()[0], 3, "first drain's epoch stands");
        assert_eq!(m.staging()[64], 0);
    }

    #[test]
    fn steady_state_fence_does_not_allocate_beyond_capacity() {
        let mut m = media(8);
        for round in 1..=10u8 {
            for line in 0..8usize {
                m.stage(line * 64, &[round; 64]);
            }
            m.drain();
        }
        assert_eq!(m.log_buf.capacity(), m.log_cap);
        assert_eq!(m.stats().log_records, 10);
    }

    /// The members, ascending, of the `Vec<bool>` a [`LineSet`] is checked
    /// against.
    fn members(naive: &[bool]) -> Vec<usize> {
        (0..naive.len()).filter(|&l| naive[l]).collect()
    }

    fn ascending(set: &LineSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut at = 0;
        while let Some(line) = set.next_from(at) {
            out.push(line);
            at = line + 1;
        }
        out
    }

    #[test]
    fn summarised_line_set_matches_a_naive_one() {
        // 3 full summary words and a ragged tail; lines past the first
        // summary word, at word and summary-word boundaries.
        const LINES: usize = 64 * 64 * 3 + 64 * 5 + 17;
        let mut next = splitmix(0x11E5);
        let mut m = PersistentMedia::new(LINES * 64, PmemConfig::default());
        let mut dirty = vec![false; LINES];
        let pick = |next: &mut dyn FnMut() -> u64| match next() % 8 {
            0 => [0, 63, 64, 4095, 4096, LINES - 1][(next() % 6) as usize],
            1..=3 => 8_000 + (next() % 200) as usize,
            _ => (next() % LINES as u64) as usize,
        };
        for step in 0..6_000 {
            match next() % 100 {
                0..=69 => {
                    let line = pick(&mut next);
                    m.dirty.set(line);
                    dirty[line] = true;
                }
                70..=89 => {
                    // A run of lines staged with fresh bytes.
                    let (line, n) = (pick(&mut next), 1 + (next() % 130) as usize);
                    let end = (line + n).min(LINES);
                    let fresh = vec![step as u8 | 1; (end - line) * 64];
                    // Every line holds one repeated byte, so its first
                    // byte says whether staging changes it.
                    let changed: Vec<usize> = (line..end)
                        .filter(|&l| m.staging[l * 64] != fresh[0])
                        .collect();
                    assert_eq!(m.stage(line * 64, &fresh), changed.len() as u64);
                    for l in changed {
                        dirty[l] = true;
                    }
                }
                90..=95 => {
                    let want = members(&dirty).len() as u64;
                    assert_eq!(m.drain().lines, want, "step {step}");
                    dirty.fill(false);
                }
                _ => {
                    m.power_cut();
                    m.recover().unwrap();
                    dirty.fill(false);
                }
            }
            if step % 16 == 0 {
                assert_eq!(ascending(&m.dirty), members(&dirty), "step {step}");
                assert_eq!(m.dirty.count(), members(&dirty).len() as u64, "step {step}");
            }
        }
        m.dirty.clear_all();
        assert_eq!((m.dirty.count(), m.dirty.next_from(0)), (0, None));
    }

    /// The persist loops [`PersistentMedia::persist_log`] and
    /// [`PersistentMedia::persist_line`] replaced, kept as their
    /// reference: one fuse step per chunk, one chunk per copy.
    impl PersistentMedia {
        fn step_allowed(&mut self) -> bool {
            if self.dead {
                return false;
            }
            if let Some(remaining) = self.fuse.as_mut() {
                if *remaining == 0 {
                    self.dead = true;
                    return false;
                }
                *remaining -= 1;
            }
            self.steps_taken += 1;
            true
        }

        fn persist_chunked(&mut self, record: &[u8], lines: &[usize]) {
            let ch = self.cfg.torn_chunk_bytes;
            let mut at = 0;
            while at < record.len() && self.step_allowed() {
                let n = ch.min(record.len() - at);
                self.durable[self.log_base + at..self.log_base + at + n]
                    .copy_from_slice(&record[at..at + n]);
                at += n;
            }
            for &line in lines {
                let base = line * self.cfg.line_bytes;
                let mut written = 0;
                while written < self.cfg.line_bytes {
                    if !self.step_allowed() {
                        self.stats.torn_lines += (written > 0) as u64;
                        break;
                    }
                    self.durable[base + written..base + written + ch]
                        .copy_from_slice(&self.staging[base + written..base + written + ch]);
                    written += ch;
                }
            }
        }
    }

    #[test]
    fn budgeted_persist_equals_chunk_at_a_time_at_every_fuse_value() {
        const LINES: [usize; 3] = [1, 4, 6];
        let staged = |chunk: usize| {
            let cfg = PmemConfig {
                line_bytes: 64,
                torn_chunk_bytes: chunk,
            };
            let mut m = PersistentMedia::new(8 * 64, cfg);
            for line in 0..8 {
                m.stage(line * 64, &[0x10 + line as u8; 64]);
            }
            m.drain();
            let mut next = splitmix(0xF0CE);
            for line in LINES {
                let bytes: Vec<u8> = (0..8).flat_map(|_| next().to_le_bytes()).collect();
                m.stage(line * 64, &bytes);
            }
            m
        };
        for chunk in [8, 16, 64] {
            let mut whole = staged(chunk);
            let before = whole.steps_taken();
            whole.drain();
            let steps = whole.steps_taken() - before;
            assert_eq!(
                steps,
                (whole.log_buf.len().div_ceil(chunk) + 3 * 64 / chunk) as u64
            );
            // Past the last step too: a fuse the drain does not exhaust.
            for fuse in 0..=steps + 1 {
                let (mut new, mut old) = (staged(chunk), staged(chunk));
                new.arm_fuse(fuse);
                old.arm_fuse(fuse);
                new.drain();
                old.persist_chunked(&whole.log_buf, &LINES);
                let what = format!("chunk {chunk}, fuse {fuse} of {steps}");
                assert!(new.durable == old.durable, "{what}: durable bytes");
                assert_eq!(new.steps_taken(), old.steps_taken(), "{what}");
                assert_eq!(new.stats().torn_lines, old.stats().torn_lines, "{what}");
                assert_eq!(new.dead, old.dead, "{what}");
                assert_eq!(new.dead, fuse < steps, "{what}");
                assert_eq!(new.fuse, old.fuse, "{what}: steps left on the fuse");
            }
        }
    }

    #[test]
    fn sealed_records_with_hostile_words_never_panic() {
        let mut m = media(4);
        let data_len = m.data_len as u64;
        let capacity = data_len / 64;
        let hostile = [
            u64::MAX - 63,
            u64::MAX,
            u64::MAX - 127,
            data_len,
            data_len - 64,
            data_len - 63,
            data_len + 64,
            1 << 63,
            7,
            0,
        ];
        let mut next = splitmix(0xBAD5EA1);
        let mut verdicts = [0u32; 3];
        for case in 0..2_000 {
            let entries = next() % (capacity + 1);
            let count = match next() % 6 {
                0 => capacity + 1,
                1 => capacity - 1,
                2 => capacity,
                _ => entries,
            };
            let mut rec = Vec::new();
            push_u64(&mut rec, LOG_MAGIC);
            push_u64(&mut rec, next());
            push_u64(&mut rec, count);
            for _ in 0..count.min(capacity) {
                let off = match next() % 3 {
                    0 => hostile[(next() % hostile.len() as u64) as usize],
                    _ => (next() % capacity) * 64,
                };
                push_u64(&mut rec, off);
                rec.extend_from_slice(&[case as u8; 64]);
            }
            let crc = crc32(&rec);
            push_u64(&mut rec, crc as u64);
            m.scar_log(0, &rec);
            m.power_cut();
            // Any verdict is acceptable; unwinding out of `recover` is not.
            match m.recover() {
                Ok(_) => verdicts[0] += 1,
                Err(MediaError::TornEntry { offset }) => {
                    assert!(offset % 64 != 0 || offset > data_len - 64);
                    verdicts[1] += 1;
                }
                Err(MediaError::UnsealedRecord { count, .. }) => {
                    assert_eq!(count, capacity + 1);
                    verdicts[2] += 1;
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 100), "verdicts {verdicts:?}");
        // The offset that used to wrap the bounds check, on its own.
        let mut rec = Vec::new();
        push_u64(&mut rec, LOG_MAGIC);
        push_u64(&mut rec, 0);
        push_u64(&mut rec, 1);
        push_u64(&mut rec, u64::MAX - 63);
        rec.extend_from_slice(&[0xEE; 64]);
        let crc = crc32(&rec);
        push_u64(&mut rec, crc as u64);
        m.scar_log(0, &rec);
        m.power_cut();
        assert_eq!(
            m.recover(),
            Err(MediaError::TornEntry {
                offset: u64::MAX - 63
            })
        );
    }
}
