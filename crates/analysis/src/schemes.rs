//! Storage cost of extending DRAM chipkill-correct schemes to NVRAM RBERs
//! (paper Figure 2 and §III-B).
//!
//! Each model finds the minimum code strength meeting the UE target at a
//! given RBER, then reports *total* storage cost including chip-failure
//! protection. The paper's headline: at RBER 10⁻³ the cheapest extension
//! costs ≈69%, versus 27% for the proposal.

use crate::prob::binom_tail_gt;
use crate::storage::{bch_code_bits, min_rs_t};

/// A DRAM chipkill-correct scheme extended to tolerate NVRAM RBER.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtendedScheme {
    /// XED (ISCA'16): a BCH word per 8 B of per-chip data, plus a parity
    /// chip for chip failures.
    Xed,
    /// The Samsung study (HPCA'17): a BCH word per 16 B of per-chip data,
    /// plus a parity chip.
    Samsung,
    /// DUO (HPCA'18): rank-level RS per 64 B block; one check byte per
    /// chip-failure erasure (8 total) and two per random byte error.
    Duo,
}

impl ExtendedScheme {
    /// All schemes in Figure 2's order.
    pub const ALL: [ExtendedScheme; 3] = [
        ExtendedScheme::Xed,
        ExtendedScheme::Samsung,
        ExtendedScheme::Duo,
    ];

    /// Scheme name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ExtendedScheme::Xed => "XED-extended",
            ExtendedScheme::Samsung => "Samsung-extended",
            ExtendedScheme::Duo => "DUO-extended",
        }
    }

    /// Total storage cost (fraction of data storage) to meet `ue_target`
    /// per 64 B block at bit error rate `rber`, or `None` if infeasible.
    ///
    /// For the per-chip BCH schemes the per-block UE probability is the
    /// union bound over the words a block touches; total cost adds the
    /// parity chip: `ovh + 1/8 · (1 + ovh)`.
    pub fn total_cost(self, rber: f64, ue_target: f64) -> Option<f64> {
        match self {
            ExtendedScheme::Xed => per_chip_bch_cost(64, 8, rber, ue_target),
            ExtendedScheme::Samsung => per_chip_bch_cost(128, 4, rber, ue_target),
            ExtendedScheme::Duo => {
                let t = min_rs_t(64, 8, rber, ue_target, 128)?;
                Some((8 + 2 * t) as f64 / 64.0)
            }
        }
    }
}

impl std::fmt::Display for ExtendedScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost of a per-chip BCH organization: each `word_bits` of per-chip data
/// gets its own BCH word; a 64 B block spans `words_per_block` such words;
/// a parity chip covers chip failures.
fn per_chip_bch_cost(
    word_bits: usize,
    words_per_block: usize,
    rber: f64,
    ue_target: f64,
) -> Option<f64> {
    let t = (1..=word_bits).find(|&t| {
        let n = word_bits + bch_code_bits(t, word_bits);
        // Union bound across the words a block touches.
        binom_tail_gt(n, t, rber) * words_per_block as f64 <= ue_target
    })?;
    let ovh = bch_code_bits(t, word_bits) as f64 / word_bits as f64;
    Some(ovh + (1.0 / 8.0) * (1.0 + ovh))
}

/// The cheapest extended scheme and its cost at `rber`, or `None` if all
/// are infeasible.
pub fn cheapest_extension(rber: f64, ue_target: f64) -> Option<(ExtendedScheme, f64)> {
    ExtendedScheme::ALL
        .iter()
        .filter_map(|&s| s.total_cost(rber, ue_target).map(|c| (s, c)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// Figure 2 as data: `(rber, cost per scheme in `ExtendedScheme::ALL`
/// order)` for each requested RBER.
pub fn figure2_series(rbers: &[f64], ue_target: f64) -> Vec<(f64, Vec<Option<f64>>)> {
    rbers
        .iter()
        .map(|&r| {
            (
                r,
                ExtendedScheme::ALL
                    .iter()
                    .map(|&s| s.total_cost(r, ue_target))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UE_TARGET;

    #[test]
    fn costs_rise_with_rber() {
        for scheme in ExtendedScheme::ALL {
            let lo = scheme.total_cost(1e-5, UE_TARGET).unwrap();
            let hi = scheme.total_cost(1e-3, UE_TARGET).unwrap();
            assert!(hi > lo, "{scheme}: {lo} -> {hi}");
        }
    }

    #[test]
    fn cheapest_extension_at_1e3_is_expensive() {
        // Paper: the lowest storage cost for 1e-3 RBER is 69%. Exact
        // bookkeeping differs slightly; the reproduced minimum must land
        // in the same "prohibitively expensive" band (>= 55%), far above
        // the proposal's 27%.
        let (scheme, cost) = cheapest_extension(1e-3, UE_TARGET).unwrap();
        assert!(cost >= 0.55, "{scheme} at {cost}");
        assert!(cost <= 0.85, "{scheme} at {cost}");
    }

    #[test]
    fn duo_is_cheapest_at_high_rber() {
        // Rank-level RS amortizes better than per-8B BCH at high RBER.
        let (scheme, _) = cheapest_extension(1e-3, UE_TARGET).unwrap();
        assert_eq!(scheme, ExtendedScheme::Duo);
    }

    #[test]
    fn xed_is_cheap_at_dram_like_rates() {
        // At DRAM-ish RBER every scheme is affordable (cost dominated by
        // the parity chip, ≈12.5–35%).
        for scheme in ExtendedScheme::ALL {
            let c = scheme.total_cost(1e-7, UE_TARGET).unwrap();
            assert!(c < 0.45, "{scheme}: {c}");
        }
    }

    #[test]
    fn figure2_series_has_all_schemes() {
        let series = figure2_series(&[1e-5, 1e-4, 1e-3], UE_TARGET);
        assert_eq!(series.len(), 3);
        for (_, costs) in &series {
            assert_eq!(costs.len(), 3);
            assert!(costs.iter().all(|c| c.is_some()));
        }
    }
}
