//! Rank-level data and ECC layout (paper §V-A, Figure 6), plus the
//! pluggable protection tiers layered on top of it.
//!
//! The paper fixes one design point — RS(72, 64) per block plus a
//! t = 22 BCH VLEW per 256 B of chip data, 27% storage cost everywhere.
//! [`ProtectionTier`] generalizes that into three tiers, each a geometry
//! plus the decode-policy knobs that go with it:
//!
//! | tier | VLEW | RS threshold | storage cost | intended for |
//! |---|---|---|---|---|
//! | [`ProtectionTier::RsOnly`] | off (code area → bonus blocks) | 4 (full radius) | ≈ 12.9% | healthy regions |
//! | [`ProtectionTier::Paper`] | 256 B / chip, t = 22 | 2 | ≈ 27% | the paper's fixed point |
//! | [`ProtectionTier::Dense`] | 128 B / chip, t = 22 | 2 | ≈ 41.5% | worn regions |
//!
//! All three share the RS(72, 64) block codeword and the 9-chip rank, so
//! the engine's gather/scatter kernels are reused unchanged; only the
//! per-chip VLEW striping and the decode policy differ.

/// Geometry of the proposed layout. The defaults are the paper's:
/// 64 B blocks over 8 data chips + 1 parity chip; per chip, each 256 B of
/// row data forms a VLEW with 33 B of code bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipkillLayout {
    /// Bytes per memory block (64).
    pub block_bytes: usize,
    /// Data chips per rank (8).
    pub data_chips: usize,
    /// Bytes each chip contributes per block (8).
    pub chip_bytes: usize,
    /// VLEW data bytes per chip (256).
    pub vlew_data_bytes: usize,
    /// VLEW code bytes per chip (33 = 264 bits of 22-bit-EC BCH).
    pub vlew_code_bytes: usize,
    /// RS check bytes per block, stored in the parity chip (8).
    pub rs_check_bytes: usize,
}

impl Default for ChipkillLayout {
    fn default() -> Self {
        ChipkillLayout {
            block_bytes: 64,
            data_chips: 8,
            chip_bytes: 8,
            vlew_data_bytes: 256,
            vlew_code_bytes: 33,
            rs_check_bytes: 8,
        }
    }
}

impl ChipkillLayout {
    /// Total chips including the parity chip (9).
    pub fn total_chips(&self) -> usize {
        self.data_chips + 1
    }

    /// Blocks covered by one VLEW (256 / 8 = 32).
    pub fn blocks_per_vlew(&self) -> usize {
        self.vlew_data_bytes / self.chip_bytes
    }

    /// The stripe (VLEW group) index of a block.
    pub fn stripe_of(&self, block_addr: u64) -> usize {
        (block_addr as usize) / self.blocks_per_vlew()
    }

    /// The block's offset within its stripe.
    pub fn offset_in_stripe(&self, block_addr: u64) -> usize {
        (block_addr as usize) % self.blocks_per_vlew()
    }

    /// Extra blocks fetched when falling back to VLEW correction for one
    /// block: the 32 data blocks plus ~4 blocks of code bits, minus the
    /// already-fetched block (paper: 35).
    pub fn vlew_fallback_extra_blocks(&self) -> usize {
        self.blocks_per_vlew() + self.vlew_code_bytes.div_ceil(self.chip_bytes) - 2
    }

    /// VLEW storage overhead per chip: 33/256.
    pub fn vlew_overhead(&self) -> f64 {
        self.vlew_code_bytes as f64 / self.vlew_data_bytes as f64
    }

    /// Total storage cost of the scheme (§V-A):
    /// `33/256 + 1/8 · (1 + 33/256) ≈ 27%`.
    pub fn total_storage_cost(&self) -> f64 {
        let v = self.vlew_overhead();
        v + (1.0 / self.data_chips as f64) * (1.0 + v)
    }

    /// RS codeword length for a block: 64 data + 8 check = 72.
    pub fn rs_codeword_bytes(&self) -> usize {
        self.block_bytes + self.rs_check_bytes
    }

    /// RS codeword positions `(first, last_exclusive)` of data chip
    /// `chip`'s bytes within a block codeword (check bytes occupy
    /// positions `0..rs_check_bytes`).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= data_chips`.
    pub fn rs_positions_of_data_chip(&self, chip: usize) -> (usize, usize) {
        assert!(chip < self.data_chips, "chip {chip} out of range");
        let start = self.rs_check_bytes + chip * self.chip_bytes;
        (start, start + self.chip_bytes)
    }

    /// RS codeword positions of the parity chip's bytes (`0..8`).
    pub fn rs_positions_of_parity_chip(&self) -> (usize, usize) {
        (0, self.rs_check_bytes)
    }

    /// The dense (Chip-Guard-style) geometry: the same 9-chip rank and
    /// RS(72, 64) block codeword, but each VLEW covers only 128 B of
    /// chip data with the same 33 B of t = 22 BCH code — twice the
    /// code density of the paper's point.
    pub fn dense() -> Self {
        ChipkillLayout {
            vlew_data_bytes: 128,
            ..ChipkillLayout::default()
        }
    }

    /// Checks the geometry invariants every derived quantity assumes.
    ///
    /// An invalid geometry would otherwise *silently* miscompute
    /// `stripe_of`/`offset_in_stripe` (non-divisible VLEW striping) or
    /// `vlew_fallback_extra_blocks` (zero code bytes), so builders call
    /// this before constructing an engine.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_bytes == 0 || self.data_chips == 0 || self.chip_bytes == 0 {
            return Err("block_bytes, data_chips, and chip_bytes must be nonzero".into());
        }
        if self.block_bytes != self.data_chips * self.chip_bytes {
            return Err(format!(
                "block_bytes ({}) must equal data_chips ({}) x chip_bytes ({})",
                self.block_bytes, self.data_chips, self.chip_bytes
            ));
        }
        if self.vlew_data_bytes == 0 || !self.vlew_data_bytes.is_multiple_of(self.chip_bytes) {
            return Err(format!(
                "vlew_data_bytes ({}) must be a nonzero multiple of chip_bytes ({})",
                self.vlew_data_bytes, self.chip_bytes
            ));
        }
        if self.vlew_code_bytes == 0 {
            return Err("vlew_code_bytes must be nonzero".into());
        }
        if self.rs_check_bytes == 0 {
            return Err("rs_check_bytes must be nonzero".into());
        }
        Ok(())
    }
}

/// The protection tier a region (or a whole rank) runs at: the rank
/// geometry plus the decode-policy knobs that distinguish the three.
/// [`TierPolicy`] assigns a tier to each region from its measured RBER.
///
/// [`TierPolicy`]: crate::tier::TierPolicy
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtectionTier {
    /// The healthy-region tier: RS(72, 64) alone, spending the full
    /// correction radius. The per-chip VLEW code area is reclaimed as
    /// bonus blocks — four extra RS-protected 64 B blocks per stripe,
    /// striped 8 B/chip across the code region exactly like primary
    /// blocks — so the storage cost drops to ≈ 12.9%.
    RsOnly,
    /// The paper's fixed design point (§V-A): RS(72, 64) at threshold 2
    /// with the 256 B / 33 B t = 22 VLEW boot tier — ≈ 27% total
    /// storage cost.
    Paper,
    /// The worn-region tier: the same t = 22 BCH code over half the data
    /// (128 B per VLEW), doubling the code density per stored bit in the
    /// style of Chip Guard's strengthened per-chip ECC — ≈ 41.5% storage
    /// cost, bought only where the measured RBER demands it.
    Dense,
}

impl ProtectionTier {
    /// Every tier, in ascending protection order.
    pub const ALL: [ProtectionTier; 3] = [
        ProtectionTier::RsOnly,
        ProtectionTier::Paper,
        ProtectionTier::Dense,
    ];

    /// Stable lowercase name (metrics keys, JSON, corpus entries).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtectionTier::RsOnly => "rs_only",
            ProtectionTier::Paper => "paper",
            ProtectionTier::Dense => "dense",
        }
    }

    /// The durable meta-line tag. `Paper` encodes as 0 so pre-tier meta
    /// lines (whose word 6 was reserved-zero) decode as the paper tier.
    pub fn tag(self) -> u64 {
        match self {
            ProtectionTier::Paper => 0,
            ProtectionTier::RsOnly => 1,
            ProtectionTier::Dense => 2,
        }
    }

    /// Decodes a durable meta-line tag back into a tier.
    pub fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(ProtectionTier::Paper),
            1 => Some(ProtectionTier::RsOnly),
            2 => Some(ProtectionTier::Dense),
            _ => None,
        }
    }

    /// The rank geometry the engine should use.
    pub fn geometry(self) -> ChipkillLayout {
        match self {
            ProtectionTier::RsOnly | ProtectionTier::Paper => ChipkillLayout::default(),
            ProtectionTier::Dense => ChipkillLayout::dense(),
        }
    }

    /// Whether the per-chip VLEW boot tier is active. When `false` the
    /// code area holds bonus blocks instead of BCH code bits.
    pub fn vlew_enabled(self) -> bool {
        self != ProtectionTier::RsOnly
    }

    /// The RS acceptance threshold (max corrections accepted without
    /// escalating). The paper point uses 2 to bound SDC; the RS-only
    /// tier has no fallback tier behind the block code and spends the
    /// full radius, `rs_check_bytes / 2` = 4 symbol corrections.
    pub fn rs_threshold(self) -> usize {
        match self {
            ProtectionTier::RsOnly => self.geometry().rs_check_bytes / 2,
            ProtectionTier::Paper | ProtectionTier::Dense => 2,
        }
    }

    /// Bonus 64 B blocks reclaimed from each stripe's code area (0 for
    /// VLEW-bearing tiers). The capacity is accounted, not addressable:
    /// it enters [`ProtectionTier::total_storage_cost`], but the engine
    /// serves no such blocks — making them addressable means a
    /// [`crate::Request`] for them first.
    pub fn bonus_blocks_per_stripe(self) -> usize {
        match self {
            ProtectionTier::RsOnly => {
                let g = self.geometry();
                g.vlew_code_bytes / g.chip_bytes
            }
            ProtectionTier::Paper | ProtectionTier::Dense => 0,
        }
    }

    /// Total storage cost: check bytes per user-data byte.
    pub fn total_storage_cost(self) -> f64 {
        let g = self.geometry();
        match self {
            ProtectionTier::RsOnly => {
                // Per stripe: 9 chips x (256 + 33) physical bytes serve
                // 8 x 256 primary data bytes plus the reclaimed bonus
                // blocks.
                let physical = g.total_chips() * (g.vlew_data_bytes + g.vlew_code_bytes);
                let user = g.data_chips * g.vlew_data_bytes
                    + self.bonus_blocks_per_stripe() * g.block_bytes;
                (physical - user) as f64 / user as f64
            }
            ProtectionTier::Paper | ProtectionTier::Dense => g.total_storage_cost(),
        }
    }
}

impl std::fmt::Display for ProtectionTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ProtectionTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtectionTier::ALL
            .into_iter()
            .find(|t| t.as_str() == s)
            .ok_or_else(|| format!("unknown protection tier: {s}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let l = ChipkillLayout::default();
        assert_eq!(l.total_chips(), 9);
        assert_eq!(l.blocks_per_vlew(), 32);
        assert_eq!(l.rs_codeword_bytes(), 72);
        assert_eq!(l.vlew_fallback_extra_blocks(), 35);
    }

    #[test]
    fn storage_cost_is_27_percent() {
        let l = ChipkillLayout::default();
        let cost = l.total_storage_cost();
        assert!((cost - 0.2699).abs() < 0.001, "cost {cost}");
    }

    #[test]
    fn stripe_math() {
        let l = ChipkillLayout::default();
        assert_eq!(l.stripe_of(0), 0);
        assert_eq!(l.stripe_of(31), 0);
        assert_eq!(l.stripe_of(32), 1);
        assert_eq!(l.offset_in_stripe(33), 1);
    }

    #[test]
    fn rs_position_map_covers_codeword_exactly() {
        let l = ChipkillLayout::default();
        let mut covered = vec![false; l.rs_codeword_bytes()];
        let (ps, pe) = l.rs_positions_of_parity_chip();
        covered[ps..pe].fill(true);
        for c in 0..l.data_chips {
            let (s, e) = l.rs_positions_of_data_chip(c);
            for (p, slot) in covered.iter_mut().enumerate().take(e).skip(s) {
                assert!(!*slot, "overlap at {p}");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_chip_panics() {
        let _ = ChipkillLayout::default().rs_positions_of_data_chip(8);
    }

    #[test]
    fn validate_accepts_the_shipped_geometries() {
        ChipkillLayout::default().validate().unwrap();
        ChipkillLayout::dense().validate().unwrap();
        for tier in ProtectionTier::ALL {
            tier.geometry().validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_each_broken_invariant() {
        let good = ChipkillLayout::default();
        let cases = [
            ChipkillLayout {
                chip_bytes: 0,
                ..good
            },
            // block no longer data_chips x chip_bytes
            ChipkillLayout {
                block_bytes: 60,
                ..good
            },
            // VLEW striping not block-aligned
            ChipkillLayout {
                vlew_data_bytes: 260,
                ..good
            },
            ChipkillLayout {
                vlew_data_bytes: 0,
                ..good
            },
            ChipkillLayout {
                vlew_code_bytes: 0,
                ..good
            },
            ChipkillLayout {
                rs_check_bytes: 0,
                ..good
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tier_table() {
        use std::str::FromStr;
        for tier in ProtectionTier::ALL {
            assert_eq!(ProtectionTier::from_str(tier.as_str()), Ok(tier));
            assert_eq!(ProtectionTier::from_tag(tier.tag()), Some(tier));
            // Every tier keeps the RS(72, 64) block codeword the engine
            // scratch buffers assume.
            assert_eq!(tier.geometry().rs_codeword_bytes(), 72);
        }
        // Word 6 of pre-tier meta lines was reserved-zero: it must keep
        // decoding as the paper tier.
        assert_eq!(ProtectionTier::Paper.tag(), 0);
        assert_eq!(ProtectionTier::from_tag(7), None);
        assert!(ProtectionTier::from_str("warp-core").is_err());
    }

    #[test]
    fn tier_costs_bracket_the_paper_point() {
        let rs_only = ProtectionTier::RsOnly.total_storage_cost();
        let paper = ProtectionTier::Paper.total_storage_cost();
        let dense = ProtectionTier::Dense.total_storage_cost();
        assert!((paper - 0.2699).abs() < 0.001, "paper {paper}");
        assert!(
            (rs_only - 297.0 / 2304.0).abs() < 1e-12,
            "rs_only {rs_only}"
        );
        assert!((dense - 0.4150).abs() < 0.001, "dense {dense}");
        assert!(rs_only < paper && paper < dense);
    }

    #[test]
    fn rs_only_reclaims_four_bonus_blocks_per_stripe() {
        let l = ProtectionTier::RsOnly;
        assert_eq!(l.bonus_blocks_per_stripe(), 4);
        assert!(!l.vlew_enabled());
        assert_eq!(l.rs_threshold(), 4);
        // The bonus blocks' per-chip slices (4 x 8 = 32 B) fit inside
        // each chip's 33 B code region.
        let g = l.geometry();
        assert!(l.bonus_blocks_per_stripe() * g.chip_bytes <= g.vlew_code_bytes);
    }

    #[test]
    fn dense_geometry_doubles_code_density() {
        let d = ChipkillLayout::dense();
        assert_eq!(d.blocks_per_vlew(), 16);
        assert_eq!(d.vlew_code_bytes, 33);
        assert_eq!(d.vlew_fallback_extra_blocks(), 19);
        assert!(d.vlew_overhead() > 2.0 * ChipkillLayout::default().vlew_overhead() - 1e-9);
    }
}
