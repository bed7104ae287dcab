//! Engine configuration.

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
}

impl Default for ChipkillConfig {
    fn default() -> Self {
        ChipkillConfig {
            tier: ProtectionTier::Paper,
            layout: ChipkillLayout::default(),
            threshold: 2,
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
    /// both come from the tier.
    pub fn for_tier(tier: ProtectionTier) -> Self {
        ChipkillConfig {
            tier,
            layout: tier.geometry(),
            threshold: tier.rs_threshold(),
        }
    }

    /// This configuration moved to `tier`: itself at its own tier (its
    /// threshold may be overridden); at another, that tier's
    /// configuration. What a tier migration or a recovery builds a
    /// region's fresh engine with.
    pub(crate) fn at_tier(&self, tier: ProtectionTier) -> Self {
        if tier == self.tier {
            return *self;
        }
        Self::for_tier(tier)
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
