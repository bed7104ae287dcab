//! Appendix: the Term-A/Term-B SDC model, with a Monte-Carlo check of
//! Term B against the real RS decoder.

use pmck_analysis::sdc::{sdc_rate, term_a, term_b};
use pmck_analysis::{RUNTIME_RBER_PCM_HOURLY, SDC_TARGET};
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::par;
use pmck_rt::rng::Rng;

use crate::report::{sci, Experiment};

/// Empirically estimates Term B for `t`: the probability a random
/// overweight noncodeword decodes (miscorrects) into some codeword within
/// distance `t`, using the actual RS(72, 64) decoder.
///
/// The campaign runs chunked on `workers` threads via
/// [`par::mc_chunks`]; the estimate is bit-identical for any worker
/// count.
fn monte_carlo_term_b(t: usize, trials: u64, seed: u64, workers: usize) -> f64 {
    let code = RsCode::per_block();
    let miscorrected: u64 = par::mc_chunks(trials, 10_000, workers, seed, |rng, n| {
        let mut scratch = RsScratch::new(&code);
        let mut hits = 0u64;
        for _ in 0..n {
            // A uniformly random word is (overwhelmingly) a noncodeword
            // far from every codeword; Term B is exactly the chance it
            // lands within distance t of one.
            let mut word: Vec<u8> = (0..72).map(|_| rng.gen()).collect();
            if let Ok(out) = code.decode_scratch(&mut word, &mut scratch) {
                if out.num_corrections() <= t {
                    hits += 1;
                }
            }
        }
        hits
    })
    .into_iter()
    .sum();
    miscorrected as f64 / trials as f64
}

/// Regenerates the Appendix: Term A, Term B, and the SDC rates for the
/// t=4 and t=2 design points at RBER 2·10⁻⁴.
pub fn run() -> Experiment {
    let p = RUNTIME_RBER_PCM_HOURLY;
    let mut e = Experiment::new("appendix", "Appendix: miscorrection (SDC) analysis");
    e.row("Term A (t=4, nth=5)", "1.3e-7", sci(term_a(p, 64, 8, 4)));
    e.row("Term B (t=4)", "2.4e-4", sci(term_b(64, 8, 4)));
    e.row("SDC rate (t=4)", "3.2e-11", sci(sdc_rate(p, 64, 8, 4)));
    e.row("Term A (t=2, nth=7)", "3.6e-11", sci(term_a(p, 64, 8, 2)));
    e.row("Term B (t=2)", "9.1e-12", sci(term_b(64, 8, 2)));
    e.row("SDC rate (t=2)", "3.3e-22", sci(sdc_rate(p, 64, 8, 2)));
    e.row(
        "t=4 SDC vs target",
        "3,000,000X over",
        format!("{:.1e}X over", sdc_rate(p, 64, 8, 4) / SDC_TARGET),
    );
    e.row(
        "t=4 SDC vs target @ 7e-5",
        "18,000X over",
        format!("{:.1e}X over", sdc_rate(7e-5, 64, 8, 4) / SDC_TARGET),
    );
    // Monte-Carlo confirmation of Term B (t=4) using the real decoder.
    let trials = 300_000;
    let mc = monte_carlo_term_b(4, trials, 99, par::default_workers());
    e.row(
        "Term B (t=4), Monte-Carlo on real decoder",
        "2.4e-4",
        format!("{} ({trials} random words)", sci(mc)),
    );
    e.note(
        "Term B is pure code geometry; the decoder measurement validates the combinatorial model.",
    );
    e
}

#[cfg(test)]
mod tests {
    #[test]
    fn monte_carlo_matches_analytic() {
        let mc = super::monte_carlo_term_b(4, 120_000, 5, pmck_rt::par::default_workers());
        let analytic = pmck_analysis::sdc::term_b(64, 8, 4);
        assert!(
            (mc / analytic - 1.0).abs() < 0.35,
            "mc {mc:e} vs analytic {analytic:e}"
        );
    }

    #[test]
    fn term_b_identical_across_worker_counts() {
        let one = super::monte_carlo_term_b(4, 60_000, 5, 1);
        assert_eq!(
            one.to_bits(),
            super::monte_carlo_term_b(4, 60_000, 5, 2).to_bits()
        );
        assert_eq!(
            one.to_bits(),
            super::monte_carlo_term_b(4, 60_000, 5, 8).to_bits()
        );
    }
}
