//! Per-tier reliability of the adaptive protection layouts.
//!
//! The engine can run each region at one of three tiers (see
//! `pmck-core`'s `ProtectionTier`): the RS-only tier drops the VLEW and
//! reclaims its code area as bonus capacity, the paper tier is the
//! fixed RS+VLEW design point (§V), and the dense tier halves the VLEW
//! data span so the same t=22 BCH code covers 128 B instead of 256 B.
//! This module gives each tier's analytic per-block UE rate as a
//! function of RBER, which the `frontier` experiment combines with the
//! layouts' storage costs into the storage-overhead-vs-UBER frontier.

use crate::prob::{binom_tail_gt, byte_error_rate};
use crate::proposal::vlew_ue_probability;

/// Per-block UE probability of the RS-only tier. Without a VLEW there
/// is no fallback: the block is lost as soon as its 72-byte RS codeword
/// carries more byte errors than the code corrects (4, with all eight
/// check symbols spent on errors).
pub fn rs_only_block_ue_rate(rber: f64) -> f64 {
    binom_tail_gt(72, 4, byte_error_rate(rber))
}

/// Per-block UE probability of the paper tier at runtime — the VLEW is
/// the final arbiter, so its failure probability (2048 + 264 bits,
/// t=22) upper-bounds the block UE rate.
pub fn paper_block_ue_rate(rber: f64) -> f64 {
    vlew_ue_probability(rber)
}

/// Probability a dense-tier VLEW (1024 data + 264 code bits, t=22) is
/// uncorrectable at bit error rate `rber`. Halving the data span keeps
/// the code bytes and the correction radius, so the same t covers
/// relatively twice the error density.
pub fn dense_vlew_ue_probability(rber: f64) -> f64 {
    binom_tail_gt(1024 + 264, 22, rber)
}

/// Per-block UE probability of the dense tier at runtime (same
/// final-arbiter bound as [`paper_block_ue_rate`]).
pub fn dense_block_ue_rate(rber: f64) -> f64 {
    dense_vlew_ue_probability(rber)
}

/// The per-block UE rates of the three tiers at `rber`, cheapest tier
/// first: `[rs_only, paper, dense]`.
pub fn tier_ue_rates(rber: f64) -> [f64; 3] {
    [
        rs_only_block_ue_rate(rber),
        paper_block_ue_rate(rber),
        dense_block_ue_rate(rber),
    ]
}

/// Index (into [`tier_ue_rates`] order) of the cheapest tier whose UE
/// rate meets `ue_target` at `rber`, or `None` when even the dense tier
/// misses the target.
pub fn cheapest_tier(rber: f64, ue_target: f64) -> Option<usize> {
    tier_ue_rates(rber).iter().position(|&ue| ue < ue_target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BOOT_RBER, RUNTIME_RBER_PCM_HOURLY, UE_TARGET};

    #[test]
    fn tiers_order_by_strength_at_fixed_rber() {
        for &rber in &[1e-6, 1e-5, 1e-4, 1e-3] {
            let [rs, paper, dense] = tier_ue_rates(rber);
            assert!(rs > paper, "rs {rs:e} vs paper {paper:e} at {rber:e}");
            assert!(paper > dense, "paper {paper:e} vs dense {dense:e}");
        }
    }

    #[test]
    fn rs_only_suffices_when_pristine() {
        // At very low RBER the RS-only tier already meets the target —
        // the basis for reclaiming the VLEW code area as bonus blocks.
        // The crossover sits near 4e-6.
        assert_eq!(cheapest_tier(3e-6, UE_TARGET), Some(0));
        assert!(rs_only_block_ue_rate(3e-6) < UE_TARGET);
        assert!(rs_only_block_ue_rate(5e-6) > UE_TARGET);
    }

    #[test]
    fn paper_tier_covers_the_runtime_design_points() {
        // The paper's fixed 27% point: RS+VLEW meets the target at the
        // quoted runtime RBERs where RS-only no longer does.
        assert_eq!(cheapest_tier(RUNTIME_RBER_PCM_HOURLY, UE_TARGET), Some(1));
        assert!(rs_only_block_ue_rate(RUNTIME_RBER_PCM_HOURLY) > UE_TARGET);
        assert!(paper_block_ue_rate(RUNTIME_RBER_PCM_HOURLY) < UE_TARGET);
    }

    #[test]
    fn dense_tier_extends_past_boot_rber() {
        // Beyond ~1e-3 the paper tier's word UE rate crosses the
        // target; the dense tier holds on to ~1.8e-3.
        assert!(dense_block_ue_rate(BOOT_RBER) < UE_TARGET);
        assert!(dense_block_ue_rate(1.5e-3) < UE_TARGET);
        assert!(paper_block_ue_rate(1.5e-3) > UE_TARGET);
        assert_eq!(cheapest_tier(1.5e-3, UE_TARGET), Some(2));
        // Past the dense tier's own crossover no tier meets the target.
        assert_eq!(cheapest_tier(3e-3, UE_TARGET), None);
    }

    /// The largest RBER in `[lo, hi)` at which `tier` is still the
    /// cheapest one meeting the target (`lo` must be inside its band).
    fn top_of_band(tier: usize, mut lo: f64, mut hi: f64) -> f64 {
        assert_eq!(cheapest_tier(lo, UE_TARGET), Some(tier));
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if cheapest_tier(mid, UE_TARGET) == Some(tier) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn beyond_bound_vlew_words_are_rarer_than_the_ue_target() {
        // The premise of a bounded-only VLEW decoder (DESIGN §12.3): a
        // weight-(t + 1) word, the only kind a t + 1 list decoder could
        // rescue, is below the UE target wherever a VLEW tier is chosen.
        // If t shrinks or a tier's band widens, this fails.
        use crate::prob::binom_pmf;
        let (paper_bits, dense_bits, t) = (2048 + 264, 1024 + 264, 22);
        let paper_top = top_of_band(1, BOOT_RBER, 1.5e-3);
        let dense_top = top_of_band(2, 1.5e-3, 3e-3);
        for (bits, rber) in [
            (paper_bits, BOOT_RBER),
            (paper_bits, paper_top),
            (dense_bits, dense_top),
        ] {
            let p = binom_pmf(bits, t + 1, rber);
            assert!(p < UE_TARGET, "{bits}-bit VLEW at {rber:e}: {p:e}");
        }
    }

    #[test]
    fn all_rates_are_monotone_in_rber() {
        let mut prev = [0.0; 3];
        for &r in &[1e-6, 1e-5, 1e-4, 1e-3, 3e-3] {
            let now = tier_ue_rates(r);
            for (a, b) in prev.iter().zip(now.iter()) {
                assert!(b >= a);
            }
            prev = now;
        }
    }
}
