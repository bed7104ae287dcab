//! Engine configuration.

use pmck_bch::DecodePolicy;

use crate::layout::{ChipkillLayout, ProtectionTier};

/// Configuration of the chipkill-correct engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipkillConfig {
    /// The protection tier the rank runs at. `layout` must be the
    /// tier's [`ProtectionTier::geometry`] ([`crate::ChipkillMemory::new`]
    /// checks) — use [`ChipkillConfig::for_tier`] to derive it and the
    /// tier's threshold together.
    pub tier: ProtectionTier,
    /// Rank/ECC geometry.
    pub layout: ChipkillLayout,
    /// Maximum RS corrections accepted at runtime before distrusting the
    /// result and falling back to VLEW decoding (paper §V-C: 2).
    pub threshold: usize,
    /// Whether VLEW code-bit updates coalesce in the per-chip ECC Update
    /// Registerfile (EUR, §V-D). Disabling models the no-coalescing
    /// ablation; functional results are identical either way.
    pub eur_enabled: bool,
    /// How far VLEW decoding reaches: `Bounded` stops at the designed
    /// radius `t`; `BeyondBound` additionally tries the unraveling list
    /// decoder at radius `t + 1` before declaring a word uncorrectable.
    pub decode_policy: DecodePolicy,
}

impl Default for ChipkillConfig {
    fn default() -> Self {
        ChipkillConfig {
            tier: ProtectionTier::Paper,
            layout: ChipkillLayout::default(),
            threshold: 2,
            eur_enabled: true,
            decode_policy: DecodePolicy::Bounded,
        }
    }
}

impl ChipkillConfig {
    /// The paper's configuration with a different acceptance threshold
    /// (for the threshold ablation of §V-C).
    pub fn with_threshold(threshold: usize) -> Self {
        ChipkillConfig {
            threshold,
            ..Self::default()
        }
    }

    /// The configuration for a protection tier: geometry and threshold
    /// both come from the tier, everything else stays at the defaults.
    pub fn for_tier(tier: ProtectionTier) -> Self {
        ChipkillConfig {
            tier,
            layout: tier.geometry(),
            threshold: tier.rs_threshold(),
            ..Self::default()
        }
    }

    /// This configuration moved to `tier`: itself at its own tier; at
    /// another, that tier's geometry and threshold with this one's EUR
    /// and decode-policy knobs. What a tier migration or a recovery
    /// builds a region's fresh engine with.
    pub(crate) fn at_tier(&self, tier: ProtectionTier) -> Self {
        if tier == self.tier {
            return *self;
        }
        ChipkillConfig {
            eur_enabled: self.eur_enabled,
            decode_policy: self.decode_policy,
            ..Self::for_tier(tier)
        }
    }

    /// Whether the configured tier runs the VLEW boot tier.
    pub fn vlew_enabled(&self) -> bool {
        self.tier.vlew_enabled()
    }

    /// Total storage cost of the configured tier.
    pub fn total_storage_cost(&self) -> f64 {
        self.tier.total_storage_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ChipkillConfig::default();
        assert_eq!(c.threshold, 2);
        assert!(c.eur_enabled);
        assert_eq!(c.decode_policy, DecodePolicy::Bounded);
        assert_eq!(c.layout.blocks_per_vlew(), 32);
    }

    #[test]
    fn threshold_override() {
        assert_eq!(ChipkillConfig::with_threshold(4).threshold, 4);
    }

    #[test]
    fn for_tier_derives_geometry_and_threshold_together() {
        let paper = ChipkillConfig::for_tier(ProtectionTier::Paper);
        assert_eq!(paper, ChipkillConfig::default());

        let rs_only = ChipkillConfig::for_tier(ProtectionTier::RsOnly);
        assert_eq!(rs_only.threshold, 4);
        assert!(!rs_only.vlew_enabled());

        let dense = ChipkillConfig::for_tier(ProtectionTier::Dense);
        assert_eq!(dense.layout.blocks_per_vlew(), 16);
        assert_eq!(dense.threshold, 2);
        assert!(dense.total_storage_cost() > paper.total_storage_cost());
    }
}
