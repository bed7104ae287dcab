//! The §V-C argument, demonstrated on the real decoder: patterns of five
//! byte errors *do* silently miscorrect a t=4 decoder (SDC), and the
//! paper's acceptance threshold of 2 rejects every such pattern.

use pmck_rs::{RejectReason, RsCode, RsScratch, ThresholdOutcome};
use pmck_rt::rng::Rng;
use pmck_rt::rng::StdRng;

/// Searches for an overweight (5-error) pattern that the full-strength
/// decoder miscorrects into a *wrong* codeword. Term B says ~2.4e-4 of
/// such patterns do, so a few thousand trials suffice.
fn find_miscorrecting_pattern(
    code: &RsCode,
    clean: &[u8],
    rng: &mut StdRng,
    max_trials: usize,
    scratch: &mut RsScratch,
) -> Option<Vec<u8>> {
    for _ in 0..max_trials {
        let mut word = clean.to_vec();
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < 5 {
            positions.insert(rng.gen_range(0..code.len()));
        }
        for &p in &positions {
            word[p] ^= rng.gen_range(1..=255u8);
        }
        let mut attempt = word.clone();
        if let Ok(out) = code.decode_scratch(&mut attempt, scratch) {
            if attempt != clean && out.num_corrections() <= 4 {
                return Some(word); // genuine SDC under unrestricted decode
            }
        }
    }
    None
}

#[test]
fn five_error_sdc_exists_and_threshold_two_blocks_it() {
    let code = RsCode::per_block();
    let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
    let clean = code.encode(&data);
    let mut rng = StdRng::seed_from_u64(2018);
    let mut scratch = RsScratch::new(&code);

    let word = find_miscorrecting_pattern(&code, &clean, &mut rng, 120_000, &mut scratch)
        .expect("Term B ≈ 2.4e-4: a miscorrecting 5-error pattern exists in 120k trials");

    // Unrestricted decoding silently corrupts: that is the SDC the paper
    // refuses to accept.
    let mut sdc = word.clone();
    let corrections = code
        .decode_scratch(&mut sdc, &mut scratch)
        .expect("miscorrects successfully")
        .num_corrections();
    assert_ne!(sdc, clean, "the decoder landed on the wrong codeword");
    assert!(corrections <= 4);
    // Minimum distance 9 with 5 injected errors: the wrong codeword is
    // at least 4 corrections away, so the miscorrection always *looks*
    // like a large correction…
    assert!(corrections >= 3, "got {corrections} corrections");

    // …which is exactly why the threshold-2 rule catches it.
    let mut guarded = word.clone();
    match code
        .decode_with_threshold_scratch(&mut guarded, 2, &mut scratch)
        .expect("length ok")
    {
        ThresholdOutcome::Rejected(RejectReason::TooManyCorrections(n)) => {
            assert!(n >= 3);
        }
        ThresholdOutcome::Rejected(RejectReason::Uncorrectable) => {}
        other => panic!("threshold 2 must reject the SDC pattern, got {other:?}"),
    }
    assert_eq!(guarded, word, "rejection leaves the word for VLEW fallback");
}

#[test]
fn threshold_two_never_accepts_wrong_data_across_campaign() {
    // A broad injection campaign: across error weights 0..=8, every
    // *accepted* threshold-2 decode must yield exactly the original
    // codeword. (Acceptance of wrong data would need a 7+-error pattern
    // landing within distance 2 of a wrong codeword: rate ~3e-22.)
    let code = RsCode::per_block();
    let mut rng = StdRng::seed_from_u64(77);
    let mut scratch = RsScratch::new(&code);
    let mut accepted = 0u64;
    for trial in 0..30_000u64 {
        let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let clean = code.encode(&data);
        let mut word = clean.clone();
        let weight = (trial % 9) as usize;
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < weight {
            positions.insert(rng.gen_range(0..code.len()));
        }
        for &p in &positions {
            word[p] ^= rng.gen_range(1..=255u8);
        }
        match code
            .decode_with_threshold_scratch(&mut word, 2, &mut scratch)
            .expect("length ok")
        {
            ThresholdOutcome::Clean | ThresholdOutcome::Accepted { .. } => {
                assert_eq!(word, clean, "trial {trial}: accepted wrong data (SDC!)");
                accepted += 1;
            }
            ThresholdOutcome::Rejected(_) => {}
        }
    }
    assert!(
        accepted > 9_000,
        "0..2-error patterns must be accepted: {accepted}"
    );
}
