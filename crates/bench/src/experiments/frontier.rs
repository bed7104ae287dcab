//! The storage-overhead-vs-UBER frontier of the adaptive tiers.
//!
//! The paper fixes one design point — RS(72,64) + VLEW at 27% total
//! storage — sized for its worst-case runtime RBER. The tiered engine
//! instead picks, per region, the cheapest protection layout whose
//! analytic block UE rate still meets the 10⁻¹⁵ target at the region's
//! *measured* RBER. This experiment sweeps RBER, emits each tier's
//! (storage overhead, UBER) point, marks the frontier (cheapest
//! feasible tier per RBER), and closes the loop with a measured leg: a
//! three-region [`pmck_core::TieredMemory`] fed per-region error
//! observations at three RBER decades must land each region on the
//! analytic frontier tier and report the matching blended cost.

use pmck_analysis::tier::{cheapest_tier, tier_ue_rates};
use pmck_analysis::UE_TARGET;
use pmck_core::{
    AccessContext, BlockDevice, ChipkillConfig, ProtectionTier, Request, TierPolicy, TieredMemory,
};

use crate::report::{pct, sci, Experiment};

/// The RBER sweep: pristine cells up to just past the boot design point.
const RBERS: [f64; 8] = [1e-7, 1e-6, 3e-6, 1e-5, 7e-5, 2e-4, 1e-3, 1.5e-3];

fn tier_cost(i: usize) -> f64 {
    ProtectionTier::ALL[i].total_storage_cost()
}

/// Regenerates the frontier: per-tier storage cost vs analytic UBER
/// across the RBER sweep, with the paper's fixed 27% point reproduced
/// at its quoted runtime RBERs, plus the measured tiered-rank leg.
pub fn run() -> Experiment {
    let mut e = Experiment::new(
        "frontier",
        "storage overhead vs UBER across adaptive protection tiers",
    );
    for &rber in &RBERS {
        let ue = tier_ue_rates(rber);
        let pick = cheapest_tier(rber, UE_TARGET);
        for (i, tier) in ProtectionTier::ALL.iter().enumerate() {
            let marker = if pick == Some(i) { " <- frontier" } else { "" };
            e.row(
                format!("RBER {rber:.1e} {}", tier.as_str()),
                if pick == Some(i) && *tier == ProtectionTier::Paper {
                    "27% fixed point"
                } else {
                    "—"
                },
                format!("cost {} UBER {}{marker}", pct(tier_cost(i), 1), sci(ue[i])),
            );
        }
    }
    // The paper's design point must sit on the frontier at both quoted
    // runtime RBERs.
    for &rber in &[
        pmck_analysis::RUNTIME_RBER_RERAM,
        pmck_analysis::RUNTIME_RBER_PCM_HOURLY,
    ] {
        let pick = cheapest_tier(rber, UE_TARGET).expect("feasible at runtime RBER");
        e.row(
            format!("frontier @ runtime RBER {rber:.0e}"),
            "paper tier (27%)",
            format!(
                "{} ({})",
                ProtectionTier::ALL[pick].as_str(),
                pct(tier_cost(pick), 1)
            ),
        );
    }

    // Measured leg: one region per RBER decade; the policy must land
    // each on its frontier tier and blend the costs region-weighted.
    let policy = TierPolicy::default();
    let mut mem = TieredMemory::new(96, 3, ChipkillConfig::default(), policy);
    let mut ctx = AccessContext::new(0xF0_17);
    let probes = [1e-6, 2e-4, 1.5e-3];
    for (r, &rber) in probes.iter().enumerate() {
        let bits = 1_000_000_000u64;
        let flipped = (rber * bits as f64) as u64;
        mem.rber_mut().record_observation(r, flipped, bits);
    }
    let _ = mem
        .access(Request::TierStep, &mut ctx)
        .expect("tier step on a healthy rank");
    let expect = [
        ProtectionTier::RsOnly,
        ProtectionTier::Paper,
        ProtectionTier::Dense,
    ];
    for (r, (&rber, want)) in probes.iter().zip(expect).enumerate() {
        e.row(
            format!("measured region @ RBER {rber:.1e}"),
            want.as_str(),
            mem.region_tier(r).as_str(),
        );
    }
    let report = mem.report();
    let blended: f64 = (0..3).map(tier_cost).sum::<f64>() / 3.0;
    e.row(
        "measured blended cost (3 regions)",
        pct(blended, 1),
        pct(report.blended_cost(), 1),
    );
    e.note(
        "The paper's fixed 27% point is optimal only in the 4e-6..1e-3 RBER band; \
         healthy regions run 12.9% RS-only with bonus capacity, worn regions pay \
         41.5% for dense VLEWs, and the tier policy tracks the frontier from \
         measured per-region RBER.",
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_covers_all_three_tiers() {
        let e = run();
        for tier in ProtectionTier::ALL {
            assert!(
                e.rows
                    .iter()
                    .any(|r| r.measured.ends_with("<- frontier")
                        && r.label.contains(tier.as_str())),
                "{} never on the frontier",
                tier.as_str()
            );
        }
    }

    #[test]
    fn paper_point_reproduced_at_runtime_rber() {
        let e = run();
        let r = e
            .rows
            .iter()
            .find(|r| r.label.starts_with("frontier @ runtime RBER 2e-4"))
            .unwrap();
        assert!(r.measured.starts_with("paper"), "{}", r.measured);
        assert!(r.measured.contains("27."), "{}", r.measured);
    }

    #[test]
    fn measured_regions_land_on_the_frontier() {
        let e = run();
        for r in e
            .rows
            .iter()
            .filter(|r| r.label.starts_with("measured region"))
        {
            assert_eq!(r.paper, r.measured, "{}", r.label);
        }
        let blend = e
            .rows
            .iter()
            .find(|r| r.label.starts_with("measured blended"))
            .unwrap();
        assert_eq!(blend.paper, blend.measured);
    }
}
