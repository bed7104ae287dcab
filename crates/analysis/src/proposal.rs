//! Reliability of the proposal itself: UE rates for both tiers, closing
//! the loop on the paper's "<1 UE per 10¹⁵ blocks" claim.

use crate::prob::binom_tail_gt;

/// Probability a single VLEW (2048 data + 264 code bits, t=22) is
/// uncorrectable at bit error rate `rber` — the boot-tier per-word UE
/// probability (§V-B).
pub fn vlew_ue_probability(rber: f64) -> f64 {
    binom_tail_gt(2048 + 264, 22, rber)
}

/// Per-block UE probability at boot: a block is lost if its stripe's
/// VLEWs fail beyond the chipkill budget. With no chip failure present, a
/// block is unrecoverable only if some chip's VLEW covering it fails
/// *and* the RS erasure path cannot absorb it — i.e. two or more of the
/// stripe's nine VLEWs fail (one failed chip is rebuilt via erasures).
pub fn boot_block_ue_rate(rber: f64) -> f64 {
    let p = vlew_ue_probability(rber);
    // P(>= 2 of 9 fail); each surviving block in the stripe is lost.
    let nine_choose = |k: usize| crate::prob::ln_choose(9, k).exp();
    let mut total = 0.0;
    for k in 2..=9 {
        total += nine_choose(k) * p.powi(k as i32) * (1.0 - p).powi(9 - k as i32);
    }
    total
}

/// Per-block UE probability at runtime (no chip failure). A runtime UE
/// requires the RS tier to reject *and* the VLEW tier to fail; since the
/// VLEW is the final arbiter and sees the same cells, the unconditional
/// VLEW failure probability upper-bounds the block's runtime UE rate —
/// and at runtime RBERs it is already orders of magnitude under target.
pub fn runtime_block_ue_rate(rber: f64) -> f64 {
    vlew_ue_probability(rber)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BOOT_RBER, UE_TARGET};

    #[test]
    fn single_vlew_meets_per_word_budget() {
        // t=22 was chosen so the per-word failure probability sits at or
        // under ~1e-15 at boot RBER.
        let p = vlew_ue_probability(BOOT_RBER);
        assert!(p < 3e-15, "got {p:e}");
        assert!(p > 1e-18, "not absurdly conservative: {p:e}");
    }

    #[test]
    fn boot_block_ue_meets_target() {
        let ue = boot_block_ue_rate(BOOT_RBER);
        assert!(ue < UE_TARGET, "got {ue:e}");
    }

    #[test]
    fn runtime_block_ue_is_far_below_boot() {
        let rt = runtime_block_ue_rate(2e-4);
        let boot = vlew_ue_probability(BOOT_RBER);
        assert!(rt < boot, "runtime {rt:e} vs boot-word {boot:e}");
        assert!(rt < UE_TARGET, "runtime UE {rt:e}");
    }

    #[test]
    fn ue_rates_are_monotone_in_rber() {
        let mut prev = 0.0;
        for &r in &[1e-5, 1e-4, 5e-4, 1e-3, 2e-3] {
            let v = vlew_ue_probability(r);
            assert!(v >= prev);
            prev = v;
        }
    }
}
