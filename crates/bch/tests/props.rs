//! Seeded BCH decode properties, migrated onto the harness runner with
//! their historical seeds (42, 7, 99, 1), plus the negative-path
//! overweight property whose crafted counterexample is seeded into the
//! checked-in corpus.

use pmck_bch::{BchCode, BchError, BchScratch};
use pmck_harness::{BitFlipCase, Runner};
use pmck_rt::rng::{Rng, StdRng};

fn gen_flips(rng: &mut StdRng, code: &BchCode, num_flips: usize) -> BitFlipCase {
    let mut data = vec![0u8; code.data_bits() / 8];
    rng.fill_bytes(&mut data);
    let mut flips: Vec<usize> = Vec::with_capacity(num_flips);
    while flips.len() < num_flips {
        let p = rng.gen_range(0usize..code.len());
        if !flips.contains(&p) {
            flips.push(p);
        }
    }
    BitFlipCase { data, flips }
}

/// Historical seed 42 (`vlew_corrects_22_random_errors`): exactly t
/// errors on the paper's VLEW code must decode back to the clean word.
#[test]
fn vlew_corrects_t_random_errors() {
    let code = BchCode::vlew();
    let mut scratch = BchScratch::new(&code);
    Runner::new("bch:vlew-corrects-t").seed(42).cases(5).run(
        |rng| gen_flips(rng, &code, code.t()),
        |case| {
            let clean = code.encode_bytes(&case.data);
            let mut cw = case.corrupted(&code);
            let out = code
                .decode_scratch(&mut cw, &mut scratch)
                .map_err(|e| format!("t errors must decode: {e}"))?;
            if out.num_corrected() != case.flips.len() {
                return Err(format!(
                    "corrected {} of {} flips",
                    out.num_corrected(),
                    case.flips.len()
                ));
            }
            if cw != clean {
                return Err("decode did not restore the clean word".into());
            }
            Ok(())
        },
    );
}

/// Historical seed 7 (`detects_overweight_patterns_often`): t+2 errors
/// must either be flagged or land on a valid codeword (counted as SDC
/// upstream) — never succeed with an invalid word. The aggregate check
/// that *some* patterns are flagged is preserved.
#[test]
fn overweight_patterns_flag_or_land_on_codeword() {
    let code = BchCode::new(8, 3, 64).unwrap();
    let mut scratch = BchScratch::new(&code);
    let mut flagged = 0u32;
    Runner::new("bch:overweight-never-silent")
        .seed(7)
        .cases(50)
        .run(
            |rng| gen_flips(rng, &code, code.t() + 2),
            |case| {
                let mut cw = case.corrupted(&code);
                match code.decode_scratch(&mut cw, &mut scratch) {
                    Ok(_) if code.is_codeword(&cw) => Ok(()),
                    Ok(_) => Err("success with an invalid word".into()),
                    Err(BchError::Uncorrectable) => {
                        flagged += 1;
                        Ok(())
                    }
                    Err(e) => Err(format!("unexpected error {e}")),
                }
            },
        );
    assert!(flagged > 0, "at least some overweight patterns flagged");
}

/// Historical seed 99 (`uncorrectable_leaves_word_unmodified`): when the
/// decoder flags a 2t-error word, the word must be bit-identical to its
/// pre-decode state.
#[test]
fn uncorrectable_leaves_word_unmodified() {
    let code = BchCode::new(8, 3, 64).unwrap();
    let mut scratch = BchScratch::new(&code);
    let mut saw_uncorrectable = false;
    Runner::new("bch:uncorrectable-unmodified")
        .seed(99)
        .cases(100)
        .run(
            |rng| gen_flips(rng, &code, 2 * code.t()),
            |case| {
                let mut cw = case.corrupted(&code);
                let before = cw.clone();
                if code.decode_scratch(&mut cw, &mut scratch).is_err() {
                    saw_uncorrectable = true;
                    if cw != before {
                        return Err("flagged word was modified".into());
                    }
                }
                Ok(())
            },
        );
    assert!(
        saw_uncorrectable,
        "expected at least one uncorrectable pattern"
    );
}

/// Historical seed 1 (`flash_word_t41_round_trip`): the t=41 flash
/// configuration corrects a full-weight error pattern.
#[test]
fn flash_word_t41_round_trip() {
    let code = BchCode::flash512(41).unwrap();
    let mut scratch = BchScratch::new(&code);
    Runner::new("bch:flash512-t41").seed(1).cases(1).run(
        |rng| gen_flips(rng, &code, 41),
        |case| {
            let clean = code.encode_bytes(&case.data);
            let mut cw = case.corrupted(&code);
            let out = code
                .decode_scratch(&mut cw, &mut scratch)
                .map_err(|e| format!("must decode: {e}"))?;
            if out.num_corrected() != 41 || cw != clean {
                return Err("41-error round trip failed".into());
            }
            Ok(())
        },
    );
}

/// Negative path: a word carrying t+1 errors must be *flagged*, not
/// miscorrected — the decoder may never claim success while leaving (or
/// producing) a word other than a codeword within distance t. The
/// checked-in corpus seeds this property with a crafted 23-flip word on
/// the zero codeword (`tests/corpus/bch-overweight-negative-crafted.json`),
/// replayed before the generated cases.
#[test]
fn overweight_crafted_patterns_are_flagged_not_miscorrected() {
    let code = BchCode::vlew();
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("bch:overweight:negative")
        .seed(0xBAD)
        .cases(15)
        .run(
            |rng| gen_flips(rng, &code, code.t() + 1),
            |case| {
                let mut cw = case.corrupted(&code);
                let before = cw.clone();
                match code.decode_scratch(&mut cw, &mut scratch) {
                    Err(BchError::Uncorrectable) if cw == before => Ok(()),
                    Err(BchError::Uncorrectable) => Err("flagged word was modified".into()),
                    Err(e) => Err(format!("unexpected error {e}")),
                    Ok(out) => Err(format!(
                        "{}-error word miscorrected ({} bits flipped)",
                        case.flips.len(),
                        out.num_corrected()
                    )),
                }
            },
        );
    assert!(
        report.corpus_replayed >= 1,
        "the crafted corpus case must be present and replayed"
    );
}
