//! Mutation self-check: the harness must catch a deliberately broken
//! decoder, shrink the counterexample to its minimal form, persist it,
//! and replay it from the corpus on the next run.
//!
//! The first mutant emulates a decoder that forgets to apply corrections
//! when more than one symbol is in error — it still *claims* success,
//! which is exactly the class of silent bug the differential campaigns
//! exist to catch. The second is the closed-form two-error solve with its
//! check against the syndromes past `S_4` dropped. The third is a BCH
//! root finder that forgets the shortened length.

use std::fs;
use std::path::PathBuf;

use pmck_bch::{BchCode, BchScratch, BitPoly};
use pmck_harness::{
    ref_bch_decode, ref_rs_small_decode, BitFlipCase, ByteErrorCase, Case, RefBchOutcome,
    RefRsOutcome, Runner,
};
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::rng::{Rng, StdRng};
use pmck_rt::Json;

/// MUTANT: applies corrections only for single-error words, but reports
/// success for anything the real decoder accepts.
fn mutant_decode(code: &RsCode, word: &mut [u8]) -> bool {
    let mut attempt = word.to_vec();
    match code.decode_scratch(&mut attempt, &mut RsScratch::new(code)) {
        Ok(out) if out.num_corrections() <= 1 => {
            word.copy_from_slice(&attempt);
            true
        }
        Ok(_) => true, // the bug: claims success without fixing the word
        Err(_) => false,
    }
}

fn gen_case(rng: &mut StdRng, code: &RsCode) -> ByteErrorCase {
    let mut data = vec![0u8; code.data_symbols()];
    rng.fill_bytes(&mut data);
    let num_errors = rng.gen_range(0usize..=3);
    let mut errors: Vec<(usize, u8)> = Vec::with_capacity(num_errors);
    while errors.len() < num_errors {
        let p = rng.gen_range(0usize..code.len());
        if !errors.iter().any(|&(q, _)| q == p) {
            errors.push((p, rng.gen_range(1u32..256) as u8));
        }
    }
    ByteErrorCase { data, errors }
}

#[test]
fn broken_decoder_is_caught_shrunk_persisted_and_replayed() {
    let code = RsCode::per_block();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pmck-mutation-corpus-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let prop = |case: &ByteErrorCase| {
        let mut word = case.corrupted(&code);
        if mutant_decode(&code, &mut word) && !code.is_codeword(&word) {
            return Err(format!(
                "mutant claimed success but left a non-codeword ({} errors)",
                case.errors.len()
            ));
        }
        Ok(())
    };

    let failure = Runner::new("mutation:rs:unapplied-corrections")
        .seed(7)
        .cases(2_000)
        .corpus_dir(&dir)
        .try_run(|rng| gen_case(rng, &code), prop)
        .expect_err("the mutant must be caught within 2000 cases");

    // Shrinking must reach the minimal counterexample: all-zero data and
    // exactly two single-bit errors (one error is correctly handled).
    assert!(!failure.from_corpus);
    assert_eq!(
        failure.case.errors.len(),
        2,
        "shrunk to the failure boundary"
    );
    assert!(
        failure.case.data.iter().all(|&b| b == 0),
        "data shrunk to zeros"
    );
    for &(_, mask) in &failure.case.errors {
        assert_eq!(mask.count_ones(), 1, "masks shrunk to single bits");
    }
    assert!(failure.shrink_steps > 0);

    // The counterexample must be on disk, well-formed, and decodable.
    let path = failure
        .persisted
        .as_ref()
        .expect("failure must be persisted");
    assert!(path.exists());
    let doc = Json::parse(&fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        doc.get("prop").and_then(Json::as_str),
        Some("mutation:rs:unapplied-corrections")
    );
    let replayable = ByteErrorCase::from_json(doc.get("case").unwrap()).unwrap();
    assert_eq!(replayable, failure.case);

    // A second run replays the corpus and fails before generating
    // anything (cases(0) proves replay alone catches the mutant).
    let replay = Runner::new("mutation:rs:unapplied-corrections")
        .seed(999)
        .cases(0)
        .corpus_dir(&dir)
        .try_run(|rng| gen_case(rng, &code), prop)
        .expect_err("corpus replay must re-catch the mutant");
    assert!(replay.from_corpus);
    assert_eq!(replay.case, failure.case);

    fs::remove_dir_all(&dir).unwrap();
}

/// The unmutated production decoder passes the same property, so the
/// mutation test demonstrates detection power rather than a vacuously
/// failing property.
#[test]
fn unmutated_decoder_passes_the_same_property() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pmck-mutation-clean-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let report = Runner::new("mutation:rs:control")
        .seed(7)
        .cases(2_000)
        .corpus_dir(&dir)
        .run(
            |rng| gen_case(rng, &code),
            |case| {
                let mut word = case.corrupted(&code);
                match code.decode_scratch(&mut word, &mut scratch) {
                    Ok(_) if code.is_codeword(&word) => Ok(()),
                    Ok(_) => Err("accepted but off-codeword".into()),
                    Err(_) => Err(format!("{} errors must decode", case.errors.len())),
                }
            },
        );
    assert_eq!(report.generated, 2_000);
    let _ = fs::remove_dir_all(&dir);
}

/// MUTANT: the one- and two-error solve of RS(72, 64) that fits its
/// pattern to `S_1..S_4` and never looks at `S_5..S_8`. RS(72, 68) has
/// exactly those four syndromes, so its decoder *is* that solve.
fn mutant_small_decode(four_syndromes: &RsCode, word: &[u8]) -> RefRsOutcome {
    let mut attempt = word.to_vec();
    match four_syndromes.decode_scratch(&mut attempt, &mut RsScratch::new(four_syndromes)) {
        Ok(out) if out.was_clean() => RefRsOutcome::Clean,
        Ok(out) => RefRsOutcome::Corrected(out.corrections().to_vec()),
        Err(_) => RefRsOutcome::Uncorrectable,
    }
}

/// The differential oracle catches the four-syndrome mutant on a
/// three-error word that `S_1..S_4` alone explain as two errors, and
/// shrinks it to zero data. That word is checked in as
/// `tests/corpus/rs-small-decode-three-errors-crafted.json`, where
/// `differential.rs` replays it against the production solve.
#[test]
fn four_syndrome_two_error_solve_is_caught_and_shrunk() {
    let code = RsCode::per_block();
    let four_syndromes = RsCode::new(68, 4).unwrap();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pmck-mutation-small-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let failure = Runner::new("mutation:rs:four-syndrome-solve")
        .seed(7)
        .cases(2_000)
        .corpus_dir(&dir)
        .try_run(
            |rng| gen_case(rng, &code),
            |case| {
                let word = case.corrupted(&code);
                let (mutant, reference) = (
                    mutant_small_decode(&four_syndromes, &word),
                    ref_rs_small_decode(&code, &word),
                );
                if mutant == reference {
                    Ok(())
                } else {
                    Err(format!("mutant {mutant:?} vs reference {reference:?}"))
                }
            },
        )
        .expect_err("the mutant must be caught within 2000 cases");

    // Two errors are within the mutant's radius too, so three is the
    // failure boundary; syndromes do not depend on the data.
    assert_eq!(failure.case.errors.len(), 3);
    assert!(failure.case.data.iter().all(|&b| b == 0));
    assert!(failure.error.contains("reference Uncorrectable"));

    let crafted = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/rs-small-decode-three-errors-crafted.json"
    );
    let doc = Json::parse(&fs::read_to_string(crafted).unwrap()).unwrap();
    let checked_in = ByteErrorCase::from_json(doc.get("case").unwrap()).unwrap();
    assert_eq!(checked_in, failure.case, "the corpus entry is this word");

    fs::remove_dir_all(&dir).unwrap();
}

/// MUTANT: a BCH root finder without the `p < n` filter. The code of the
/// same field and `t` at the natural length `2^m − 1` has the same
/// generator, so its decoder on the zero-extended word *is* that finder:
/// it flips every root the shortened code must drop as past its end.
fn mutant_unfiltered_roots(natural: &BchCode, word: &BitPoly) -> RefBchOutcome {
    let mut long = BitPoly::zero(natural.len());
    long.splice(0, word);
    match natural.decode_scratch(&mut long, &mut BchScratch::new(natural)) {
        Ok(view) if view.was_clean() => RefBchOutcome::Clean,
        Ok(view) => RefBchOutcome::Corrected(view.corrected_bits().to_vec()),
        Err(_) => RefBchOutcome::Uncorrectable,
    }
}

/// The PGZ oracle catches the unfiltered root finder on BCH(8, 3, 64),
/// n = 88 of a natural 255, whose every locator (degree ≤ 3) is solved
/// in closed form, and shrinks the word to zero data and t + 1 flips.
/// That word is checked in as
/// `tests/corpus/bch-closed-form-root-past-n-crafted.json`, where
/// `differential.rs`'s `diff:bch:m8t3` campaign replays it against the
/// production decoder.
#[test]
fn closed_form_root_past_n_is_caught_and_shrunk() {
    let code = BchCode::new(8, 3, 64).unwrap();
    let natural = BchCode::new(8, 3, 255 - code.parity_bits()).unwrap();
    assert_eq!(natural.generator(), code.generator());
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pmck-mutation-roots-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let failure = Runner::new("mutation:bch:root-past-n")
        .seed(7)
        .cases(2_000)
        .corpus_dir(&dir)
        .try_run(
            |rng| {
                let mut data = vec![0u8; code.data_bits() / 8];
                rng.fill_bytes(&mut data);
                let weight = rng.gen_range(0usize..=2 * code.t());
                let mut flips: Vec<usize> = Vec::with_capacity(weight);
                while flips.len() < weight {
                    let p = rng.gen_range(0usize..code.len());
                    if !flips.contains(&p) {
                        flips.push(p);
                    }
                }
                BitFlipCase { data, flips }
            },
            |case| {
                let word = case.corrupted(&code);
                let (mutant, reference) = (
                    mutant_unfiltered_roots(&natural, &word),
                    ref_bch_decode(&code, &word),
                );
                if mutant == reference {
                    Ok(())
                } else {
                    Err(format!("mutant {mutant:?} vs reference {reference:?}"))
                }
            },
        )
        .expect_err("the mutant must be caught within 2000 cases");

    // Within radius t every root lies below n, so t + 1 flips is the
    // failure boundary; syndromes do not depend on the data.
    assert_eq!(failure.case.flips.len(), code.t() + 1);
    assert!(failure.case.data.iter().all(|&b| b == 0));
    assert!(failure.error.contains("reference Uncorrectable"));

    let crafted = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/bch-closed-form-root-past-n-crafted.json"
    );
    let doc = Json::parse(&fs::read_to_string(crafted).unwrap()).unwrap();
    assert_eq!(
        doc.get("prop").and_then(Json::as_str),
        Some("diff:bch:m8t3")
    );
    let checked_in = BitFlipCase::from_json(doc.get("case").unwrap()).unwrap();
    assert_eq!(checked_in, failure.case, "the corpus entry is this word");

    fs::remove_dir_all(&dir).unwrap();
}
