//! Functional storage for the nine-chip rank: per-chip data and VLEW code
//! areas, plus the EUR model for coalesced code updates.

use crate::layout::ChipkillLayout;

/// A fixed-capacity set of stripe (or §V-E group) indices: the stripes
/// of one [`ChipStore`] whose stored bytes may differ from the image the
/// persistence domain has staged. See `crate::pmem` for who clears it.
#[derive(Debug, Clone)]
struct DirtySet {
    words: Vec<u64>,
    len: usize,
}

impl DirtySet {
    /// A set over `0..len` with every member present: nothing is known
    /// to match a staged image yet.
    fn full(len: usize) -> Self {
        let mut set = DirtySet {
            words: vec![0; len.div_ceil(64)],
            len,
        };
        set.insert_all();
        set
    }

    fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn insert_all(&mut self) {
        for i in 0..self.len {
            self.insert(i);
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Members in ascending order; empty words cost one test.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let members = |(w, &word): (usize, &u64)| {
            (0..64)
                .filter(move |b| word >> b & 1 != 0)
                .map(move |b| w * 64 + b)
        };
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &word)| word != 0)
            .flat_map(members)
    }
}

/// One chip's storage: a flat data area (256 B per stripe) and a VLEW code
/// area (33 B per stripe) — Figure 6 seen from inside one chip, which is
/// the view the per-chip VLEW encode and decode need contiguous. The
/// figure's other axis, the 72 B burst the nine chips return in
/// lockstep, is the order of the *durable* image: `crate::pmem` gathers
/// the nine stores into it at every flush. The §V-E re-striped layout
/// keeps its rank-wide image in one store too, its 4-block groups
/// taking the place of stripes.
///
/// The arrays are private: every accessor that hands out `&mut` bytes
/// records the stripe in the store's [`DirtySet`] first, so no mutation
/// site — demand write, EUR drain, scrub, repair, fault injection — can
/// change stored bytes without the next flush staging them.
#[derive(Debug, Clone)]
pub(crate) struct ChipStore {
    data: Vec<u8>,
    code: Vec<u8>,
    dirty: DirtySet,
}

impl ChipStore {
    pub fn new(stripes: usize, layout: &ChipkillLayout) -> Self {
        ChipStore {
            data: vec![0; stripes * layout.vlew_data_bytes],
            code: vec![0; stripes * layout.vlew_code_bytes],
            dirty: DirtySet::full(stripes),
        }
    }

    /// The whole data area.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The whole code area.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Both whole areas, mutably, with every stripe marked dirty: for
    /// mutations that are not stripe-addressed (rank-wide injection, a
    /// chip failure, restoring from the durable image).
    pub fn arrays_mut(&mut self) -> (&mut [u8], &mut [u8]) {
        self.mark_all_dirty();
        (&mut self.data, &mut self.code)
    }

    /// The chip's 8 B contribution to `block` (stripe-local addressing is
    /// the caller's job).
    pub fn block_slice(&self, stripe: usize, offset: usize, layout: &ChipkillLayout) -> &[u8] {
        let base = stripe * layout.vlew_data_bytes + offset * layout.chip_bytes;
        &self.data[base..base + layout.chip_bytes]
    }

    pub fn block_slice_mut(
        &mut self,
        stripe: usize,
        offset: usize,
        layout: &ChipkillLayout,
    ) -> &mut [u8] {
        self.dirty.insert(stripe);
        let base = stripe * layout.vlew_data_bytes + offset * layout.chip_bytes;
        &mut self.data[base..base + layout.chip_bytes]
    }

    /// The 256 B VLEW data region of a stripe.
    pub fn vlew_data(&self, stripe: usize, layout: &ChipkillLayout) -> &[u8] {
        let base = stripe * layout.vlew_data_bytes;
        &self.data[base..base + layout.vlew_data_bytes]
    }

    pub fn vlew_data_mut(&mut self, stripe: usize, layout: &ChipkillLayout) -> &mut [u8] {
        self.dirty.insert(stripe);
        let base = stripe * layout.vlew_data_bytes;
        &mut self.data[base..base + layout.vlew_data_bytes]
    }

    /// The 33 B VLEW code region of a stripe.
    pub fn vlew_code(&self, stripe: usize, layout: &ChipkillLayout) -> &[u8] {
        let base = stripe * layout.vlew_code_bytes;
        &self.code[base..base + layout.vlew_code_bytes]
    }

    pub fn vlew_code_mut(&mut self, stripe: usize, layout: &ChipkillLayout) -> &mut [u8] {
        self.dirty.insert(stripe);
        let base = stripe * layout.vlew_code_bytes;
        &mut self.code[base..base + layout.vlew_code_bytes]
    }

    /// The dirty stripes, ascending.
    pub fn dirty_stripes(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter()
    }

    /// The dirty set as a bitmap, stripe `s` at bit `s % 64` of word
    /// `s / 64`: what a rank ORs across its chips to stage each stripe
    /// any of them changed once.
    pub fn dirty_words(&self) -> &[u64] {
        &self.dirty.words
    }

    /// Declares every stripe unrelated to the staged image: a
    /// persistence domain was just installed.
    pub fn mark_all_dirty(&mut self) {
        self.dirty.insert_all();
    }

    /// Declares the stored bytes equal to the staged image: they have
    /// just been staged, or copied back from it.
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
    }
}

/// Limbs of one VLEW code-bit delta. The code region is 33 B (264 bits)
/// on every tier (`layout.vlew_code_bytes`), so a delta is a fixed
/// five-limb array from the encoder to the stored bytes.
pub(crate) const CODE_LIMBS: usize = 5;

/// One VLEW code-bit delta (or one EUR register) as little-endian limbs,
/// the format [`pmck_bch::BchCode::parity_delta_into`] writes.
pub(crate) type CodeDelta = [u64; CODE_LIMBS];

/// The per-chip ECC Update Registerfile: coalesces VLEW code-bit updates
/// for open rows, applied when the "row" (stripe) closes (§V-D,
/// Figure 11).
///
/// A register file indexed by `(chip, stripe)`: one fixed-size register
/// per pair, a per-stripe dirty mask, the set of stripes whose mask is
/// nonzero (so a full drain visits those and no others), and an
/// occupancy counter.
/// Functionally the engine applies updates eagerly or lazily with
/// identical results; the model also keeps the drain statistics that
/// define the C factor. A register XORed back to zero stays dirty until
/// its stripe closes — the hardware does not compare against zero.
#[derive(Debug, Clone)]
pub(crate) struct EurModel {
    /// Stripe-major: register `stripe * chips + chip`.
    regs: Vec<CodeDelta>,
    /// Per stripe, bit `c` set while chip `c`'s register is dirty.
    dirty: Vec<u16>,
    /// Bit `s % 64` of word `s / 64` set while `dirty[s]` is nonzero.
    open_stripes: Vec<u64>,
    chips: usize,
    occupancy: usize,
    pub writes_seen: u64,
    pub drains: u64,
}

impl EurModel {
    pub fn new(stripes: usize, chips: usize) -> Self {
        assert!(chips <= 16, "the per-stripe dirty mask holds 16 chips");
        EurModel {
            regs: vec![[0; CODE_LIMBS]; stripes * chips],
            dirty: vec![0; stripes],
            open_stripes: vec![0; stripes.div_ceil(64)],
            chips,
            occupancy: 0,
            writes_seen: 0,
            drains: 0,
        }
    }

    /// Empties every register and zeroes the statistics (the register
    /// file is volatile: this is its state after a power cycle).
    pub fn clear(&mut self) {
        self.regs.fill([0; CODE_LIMBS]);
        self.dirty.fill(0);
        self.open_stripes.fill(0);
        self.occupancy = 0;
        self.writes_seen = 0;
        self.drains = 0;
    }

    /// Accumulates a code delta for `(chip, stripe)`.
    pub fn accumulate(&mut self, chip: usize, stripe: usize, delta: &CodeDelta) {
        let mask = 1 << chip;
        if self.dirty[stripe] & mask == 0 {
            self.dirty[stripe] |= mask;
            self.open_stripes[stripe / 64] |= 1 << (stripe % 64);
            self.occupancy += 1;
        }
        for (r, d) in self.regs[stripe * self.chips + chip].iter_mut().zip(delta) {
            *r ^= d;
        }
    }

    /// Drains the register for `(chip, stripe)` into the stored code
    /// bytes, if dirty.
    pub fn drain_into(&mut self, chip: usize, stripe: usize, code_bytes: &mut [u8]) {
        let mask = 1 << chip;
        if self.dirty[stripe] & mask == 0 {
            return;
        }
        self.dirty[stripe] &= !mask;
        if self.dirty[stripe] == 0 {
            self.open_stripes[stripe / 64] &= !(1 << (stripe % 64));
        }
        self.occupancy -= 1;
        let delta = std::mem::take(&mut self.regs[stripe * self.chips + chip]);
        apply_code_delta(code_bytes, &delta);
        self.drains += 1;
    }

    /// Drains every dirty register of `stripe` into its chip's stored
    /// code bytes, chips ascending (a row close of that row).
    pub fn drain_stripe(
        &mut self,
        stripe: usize,
        chips: &mut [ChipStore],
        layout: &ChipkillLayout,
    ) {
        if !self.stripe_dirty(stripe) {
            return;
        }
        for (c, chip) in chips.iter_mut().enumerate() {
            self.drain_into(c, stripe, chip.vlew_code_mut(stripe, layout));
        }
    }

    /// [`EurModel::drain_stripe`] for every stripe with a dirty
    /// register, ascending; costs the stripes it drains, not the rank.
    pub fn drain_all(&mut self, chips: &mut [ChipStore], layout: &ChipkillLayout) {
        for w in 0..self.open_stripes.len() {
            let mut open = self.open_stripes[w];
            while open != 0 {
                self.drain_stripe(w * 64 + open.trailing_zeros() as usize, chips, layout);
                open &= open - 1;
            }
        }
    }

    /// Whether any register for `stripe` on any chip is dirty.
    pub fn stripe_dirty(&self, stripe: usize) -> bool {
        self.dirty[stripe] != 0
    }

    /// Dirty register count.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Functional C factor: drains per write request (after a full flush).
    pub fn c_factor(&self) -> f64 {
        if self.writes_seen == 0 {
            0.0
        } else {
            self.drains as f64 / self.writes_seen as f64
        }
    }
}

/// XORs parity bits, as the little-endian limbs the encoder writes, into
/// stored code bytes (33 B for a VLEW; any code region no longer than
/// the limbs).
pub(crate) fn apply_code_delta(code_bytes: &mut [u8], delta: &[u64]) {
    debug_assert!(code_bytes.len() <= delta.len() * 8);
    // A limb at a time, then the bytes of the last, partial limb (one
    // for the VLEW's 33).
    let (whole, tail) = code_bytes.as_chunks_mut::<8>();
    for (bytes, d) in whole.iter_mut().zip(delta) {
        *bytes = (u64::from_le_bytes(*bytes) ^ d).to_le_bytes();
    }
    for (b, d) in tail
        .iter_mut()
        .zip(delta[whole.len()..].iter().flat_map(|d| d.to_le_bytes()))
    {
        *b ^= d;
    }
}

/// Overwrites stored code bytes with freshly encoded parity limbs.
pub(crate) fn store_code(code_bytes: &mut [u8], code: &[u64]) {
    code_bytes.fill(0);
    apply_code_delta(code_bytes, code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ChipkillLayout {
        ChipkillLayout::default()
    }

    #[test]
    fn chip_store_addressing() {
        let l = layout();
        let mut c = ChipStore::new(2, &l);
        c.block_slice_mut(1, 3, &l).copy_from_slice(&[7u8; 8]);
        assert_eq!(c.block_slice(1, 3, &l), &[7u8; 8]);
        assert_eq!(c.block_slice(0, 3, &l), &[0u8; 8]);
        // Stripe 1's VLEW data contains the bytes at offset 3.
        assert_eq!(c.vlew_data(1, &l)[3 * 8..3 * 8 + 8], [7u8; 8]);
    }

    #[test]
    fn code_region_separate_per_stripe() {
        let l = layout();
        let mut c = ChipStore::new(3, &l);
        c.vlew_code_mut(1, &l).fill(0xAA);
        assert!(c.vlew_code(0, &l).iter().all(|&b| b == 0));
        assert!(c.vlew_code(1, &l).iter().all(|&b| b == 0xAA));
        assert!(c.vlew_code(2, &l).iter().all(|&b| b == 0));
    }

    #[test]
    fn eur_coalesces() {
        let mut eur = EurModel::new(1, 9);
        let d1: CodeDelta = [0b1, 0, 0, 0, 0];
        let d2: CodeDelta = [0b10_0001, 0, 0, 0, 1 << 7];
        eur.accumulate(0, 0, &d1);
        eur.accumulate(0, 0, &d2);
        eur.writes_seen = 2;
        assert_eq!(eur.occupancy(), 1);
        let mut bytes = vec![0u8; 33];
        eur.drain_into(0, 0, &mut bytes);
        // d1 ^ d2 = bit 5 and bit 263 (the last code bit) only.
        assert_eq!(bytes[0], 0b0010_0000);
        assert_eq!(bytes[32], 0x80);
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 2);
        assert_eq!(eur.drains, 1);
        assert_eq!(eur.c_factor(), 0.5);
        // The register is empty again: a second drain is a no-op.
        eur.drain_into(0, 0, &mut bytes);
        assert_eq!(eur.drains, 1);
    }

    #[test]
    fn eur_stripe_dirty_tracking() {
        let mut eur = EurModel::new(9, 9);
        let d: CodeDelta = [0b10, 0, 0, 0, 0];
        eur.accumulate(2, 7, &d);
        assert!(eur.stripe_dirty(7));
        assert!(!eur.stripe_dirty(8));
        let mut bytes = vec![0u8; 33];
        eur.drain_into(2, 7, &mut bytes);
        assert!(!eur.stripe_dirty(7));
        assert_eq!(bytes[0], 0b10);
    }

    #[test]
    fn eur_register_cancelled_to_zero_stays_dirty() {
        // Drain policy: the register file does not compare against
        // zero, so a delta XORed away still costs its drain.
        let mut eur = EurModel::new(2, 9);
        let d: CodeDelta = [0xDEAD, 0, 7, 0, 0];
        eur.accumulate(8, 1, &d);
        eur.accumulate(8, 1, &d);
        assert_eq!(eur.occupancy(), 1);
        assert!(eur.stripe_dirty(1));
        let mut bytes = vec![0u8; 33];
        eur.drain_into(8, 1, &mut bytes);
        assert_eq!(bytes, vec![0u8; 33]);
        assert_eq!(eur.drains, 1);
        assert_eq!(eur.occupancy(), 0);
    }

    #[test]
    fn eur_clear_empties_registers_and_statistics() {
        let mut eur = EurModel::new(2, 9);
        eur.accumulate(3, 1, &[1, 2, 3, 4, 5]);
        eur.writes_seen = 4;
        eur.drains = 2;
        eur.clear();
        assert_eq!(eur.occupancy(), 0);
        assert!(!eur.stripe_dirty(1));
        assert_eq!((eur.writes_seen, eur.drains), (0, 0));
        let mut bytes = vec![0u8; 33];
        eur.drain_into(3, 1, &mut bytes);
        assert_eq!(bytes, vec![0u8; 33]);
    }

    #[test]
    fn drain_all_visits_exactly_the_open_stripes() {
        let l = layout();
        // Three words of the stripe set, the last one partial.
        let stripes = 130;
        let mut eur = EurModel::new(stripes, 9);
        let mut chips: Vec<_> = (0..9).map(|_| ChipStore::new(stripes, &l)).collect();
        chips.iter_mut().for_each(ChipStore::mark_clean);
        let d: CodeDelta = [0x0102_0304_0506_0708, 0, 0, 0, 0xA5];
        for (chip, stripe) in [(0, 129), (8, 64), (3, 63), (3, 0), (4, 0)] {
            eur.accumulate(chip, stripe, &d);
        }
        eur.drain_all(&mut chips, &l);
        assert_eq!((eur.occupancy(), eur.drains), (0, 5));
        assert!(eur.open_stripes.iter().all(|&w| w == 0));
        for (c, chip) in chips.iter().enumerate() {
            // A row close hands out every chip's code bytes of the row.
            assert_eq!(chip.dirty_stripes().collect::<Vec<_>>(), [0, 63, 64, 129]);
            for stripe in 0..stripes {
                let drained = [(0, 129), (8, 64), (3, 63), (3, 0), (4, 0)].contains(&(c, stripe));
                let code = chip.vlew_code(stripe, &l);
                assert_eq!(
                    code[0],
                    if drained { 0x08 } else { 0 },
                    "chip {c} stripe {stripe}"
                );
                assert_eq!(code[32], if drained { 0xA5 } else { 0 });
            }
        }
        // Nothing is open: a second drain touches no store.
        chips.iter_mut().for_each(ChipStore::mark_clean);
        eur.drain_all(&mut chips, &l);
        assert!(chips
            .iter()
            .all(|chip| chip.dirty_stripes().next().is_none()));
    }

    #[test]
    fn apply_code_delta_equals_the_bytewise_xor_at_every_length() {
        let delta: CodeDelta = [
            0x0807_0605_0403_0201,
            0x100F_0E0D_0C0B_0A09,
            0x1817_1615_1413_1211,
            0x201F_1E1D_1C1B_1A19,
            0x2827_2625_2423_2221,
        ];
        for len in 0..=40 {
            let mut bytes = vec![0xF0u8; len];
            apply_code_delta(&mut bytes, &delta);
            let want: Vec<u8> = (0..len).map(|i| 0xF0 ^ (i as u8 + 1)).collect();
            assert_eq!(bytes, want, "{len} bytes");
        }
    }

    #[test]
    fn store_code_overwrites() {
        let mut bytes = [0xFFu8; 18];
        store_code(
            &mut bytes,
            &[0x0807_0605_0403_0201, 0x100F_0E0D_0C0B_0A09, 0x1211],
        );
        let want: Vec<u8> = (1..=18).collect();
        assert_eq!(bytes.to_vec(), want);
    }
}
