//! Seeded RS(72, 64) decode properties, migrated onto the harness
//! runner with their historical seeds (3, 11, 17, 23, 31, 41, 5, 13),
//! plus the negative-path threshold property whose crafted
//! counterexample is seeded into the checked-in corpus.

use pmck_harness::{ByteErrorCase, ErasureCase, Runner};
use pmck_rs::{RejectReason, RsCode, RsError, RsScratch, ThresholdOutcome};
use pmck_rt::rng::{Rng, StdRng};

fn gen_errors(rng: &mut StdRng, code: &RsCode, num_errors: usize) -> ByteErrorCase {
    let mut data = vec![0u8; code.data_symbols()];
    rng.fill_bytes(&mut data);
    let mut errors: Vec<(usize, u8)> = Vec::with_capacity(num_errors);
    while errors.len() < num_errors {
        let p = rng.gen_range(0usize..code.len());
        if !errors.iter().any(|&(q, _)| q == p) {
            errors.push((p, rng.gen_range(1u32..256) as u8));
        }
    }
    ByteErrorCase { data, errors }
}

/// Historical seed 3 (`corrects_up_to_four_errors`): 1..=4 random symbol
/// errors always decode back to the clean codeword.
#[test]
fn corrects_up_to_four_errors() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let mut trial = 0usize;
    Runner::new("rs:corrects-up-to-4").seed(3).cases(80).run(
        |rng| {
            let nerr = 1 + (trial % 4);
            trial += 1;
            gen_errors(rng, &code, nerr)
        },
        |case| {
            let clean = code.encode(&case.data);
            let mut cw = case.corrupted(&code);
            let out = code
                .decode_scratch(&mut cw, &mut scratch)
                .map_err(|e| format!("{} errors must decode: {e}", case.errors.len()))?;
            if cw != clean {
                return Err("decode did not restore the clean word".into());
            }
            if out.num_corrections() != case.errors.len() {
                return Err(format!(
                    "corrected {} of {}",
                    out.num_corrections(),
                    case.errors.len()
                ));
            }
            Ok(())
        },
    );
}

/// Historical seed 11 (`corrects_eight_erasures_chip_failure`): a dead
/// chip's eight consecutive bytes, declared as erasures, always decode.
#[test]
fn corrects_eight_erasures_chip_failure() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    Runner::new("rs:chip-failure-erasures")
        .seed(11)
        .cases(20)
        .run(
            |rng| {
                let mut data = vec![0u8; code.data_symbols()];
                rng.fill_bytes(&mut data);
                let chip = rng.gen_range(0usize..9);
                let mut fills = vec![0u8; 8];
                rng.fill_bytes(&mut fills);
                ErasureCase {
                    data,
                    erasures: (chip * 8..chip * 8 + 8).collect(),
                    fills,
                    errors: vec![],
                }
            },
            |case| {
                let clean = code.encode(&case.data);
                let mut cw = case.corrupted(&code);
                let out = code
                    .decode_erasures_scratch(&mut cw, &case.erasures, &mut scratch)
                    .map_err(|e| format!("chip erasures must decode: {e}"))?;
                if cw != clean {
                    return Err("decode did not restore the clean word".into());
                }
                if out.num_corrections() > 8 {
                    return Err(format!("{} corrections > 8", out.num_corrections()));
                }
                Ok(())
            },
        );
}

/// Historical seed 17 (`corrects_mixed_errors_and_erasures`): 2 errors +
/// 4 erasures satisfy 2e + ν ≤ r and always decode.
#[test]
fn corrects_mixed_errors_and_erasures() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    Runner::new("rs:mixed-errors-erasures")
        .seed(17)
        .cases(50)
        .run(
            |rng| {
                let mut data = vec![0u8; code.data_symbols()];
                rng.fill_bytes(&mut data);
                let mut positions: Vec<usize> = Vec::with_capacity(6);
                while positions.len() < 6 {
                    let p = rng.gen_range(0usize..code.len());
                    if !positions.contains(&p) {
                        positions.push(p);
                    }
                }
                positions.sort_unstable();
                let erasures: Vec<usize> = positions[..4].to_vec();
                let fills: Vec<u8> = (0..4).map(|_| rng.gen_range(0u32..256) as u8).collect();
                let errors: Vec<(usize, u8)> = positions[4..]
                    .iter()
                    .map(|&p| (p, rng.gen_range(1u32..256) as u8))
                    .collect();
                ErasureCase {
                    data,
                    erasures,
                    fills,
                    errors,
                }
            },
            |case| {
                let clean = code.encode(&case.data);
                let mut cw = case.corrupted(&code);
                code.decode_with_erasures_scratch(&mut cw, &case.erasures, &mut scratch)
                    .map_err(|e| format!("2e+nu <= r must decode: {e}"))?;
                if cw != clean {
                    return Err("decode did not restore the clean word".into());
                }
                Ok(())
            },
        );
}

/// Historical seed 23 (`five_errors_never_returns_wrong_success...`):
/// five errors exceed capability; the decoder must flag or land on a
/// *valid* codeword, never succeed with an invalid word. The aggregate
/// flagged-rate check is preserved.
#[test]
fn five_errors_never_silently_wrong() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let mut flagged = 0u32;
    Runner::new("rs:five-errors-flagged")
        .seed(23)
        .cases(200)
        .run(
            |rng| gen_errors(rng, &code, 5),
            |case| {
                let mut cw = case.corrupted(&code);
                match code.decode_scratch(&mut cw, &mut scratch) {
                    Ok(_) if code.is_codeword(&cw) => Ok(()),
                    Ok(_) => Err("success with an invalid word".into()),
                    Err(RsError::Uncorrectable) => {
                        flagged += 1;
                        Ok(())
                    }
                    Err(e) => Err(format!("unexpected error {e}")),
                }
            },
        );
    assert!(
        flagged > 150,
        "most 5-error patterns must be flagged, got {flagged}"
    );
}

/// Historical seed 31 (`uncorrectable_leaves_word_unmodified`): a
/// flagged decode must leave the word bit-identical (RS(16, 4) with six
/// spread errors, as in the original test).
#[test]
fn uncorrectable_leaves_word_unmodified() {
    let code = RsCode::new(16, 4).unwrap();
    let mut scratch = RsScratch::new(&code);
    let mut saw_uncorrectable = false;
    Runner::new("rs:uncorrectable-unmodified")
        .seed(31)
        .cases(100)
        .run(
            |rng| {
                let mut data = vec![0u8; 16];
                rng.fill_bytes(&mut data);
                let errors: Vec<(usize, u8)> = (0..6)
                    .map(|p| (p * 3, rng.gen_range(1u32..256) as u8))
                    .collect();
                ByteErrorCase { data, errors }
            },
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
    assert!(saw_uncorrectable, "expected an uncorrectable pattern");
}

/// Below `r = 4` two errors are past the code's radius, so the decoder's
/// closed-form one-and-two-error solve stays out of the way: RS(18, 16)
/// and RS(11, 8) correct every single error, and a second error is
/// refused (word untouched) or lands on a real codeword one correction
/// away — never a two-symbol "correction".
#[test]
fn codes_below_four_check_symbols_keep_radius_one() {
    for (k, r) in [(16, 2), (8, 3)] {
        let code = RsCode::new(k, r).unwrap();
        let mut scratch = RsScratch::new(&code);
        let name = format!("rs:radius-one:r{r}");
        let mut trial = 0usize;
        Runner::new(&name).seed(0x102).cases(400).run(
            |rng| {
                trial += 1;
                gen_errors(rng, &code, 1 + trial % 2)
            },
            |case| {
                let mut cw = case.corrupted(&code);
                let before = cw.clone();
                match code.decode_scratch(&mut cw, &mut scratch) {
                    Ok(out) if case.errors.len() == 1 => {
                        if out.corrections() == case.errors && cw == code.encode(&case.data) {
                            Ok(())
                        } else {
                            Err(format!("single error fixed as {:?}", out.corrections()))
                        }
                    }
                    Ok(out) if out.num_corrections() == 1 && code.is_codeword(&cw) => Ok(()),
                    Ok(out) => Err(format!("two errors \"fixed\" as {:?}", out.corrections())),
                    Err(RsError::Uncorrectable) if case.errors.len() == 2 && cw == before => Ok(()),
                    Err(e) => Err(format!("{} errors: {e}", case.errors.len())),
                }
            },
        );
    }
}

/// Historical seed 41 (`strict_erasure_decode_rejects_extra_errors`):
/// with 4 erasures plus one undeclared error, the strict erasure path
/// must refuse while the relaxed path fixes both.
#[test]
fn strict_erasure_decode_rejects_extra_errors() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    Runner::new("rs:strict-erasure-rejects")
        .seed(41)
        .cases(20)
        .run(
            |rng| {
                let mut data = vec![0u8; code.data_symbols()];
                rng.fill_bytes(&mut data);
                let error_pos = rng.gen_range(4usize..code.len());
                ErasureCase {
                    data,
                    erasures: vec![0, 1, 2, 3],
                    fills: vec![0xff; 4],
                    errors: vec![(error_pos, 0x42)],
                }
            },
            |case| {
                let clean = code.encode(&case.data);
                // Fills of 0xff may coincide with the clean byte; the single
                // undeclared error is what strictness must catch.
                let corrupted = case.corrupted(&code);
                let mut strict = corrupted.clone();
                if code
                    .decode_erasures_scratch(&mut strict, &case.erasures, &mut scratch)
                    .is_ok()
                {
                    return Err("strict erasure decode accepted an undeclared error".into());
                }
                let mut relaxed = corrupted;
                let out = code
                    .decode_with_erasures_scratch(&mut relaxed, &case.erasures, &mut scratch)
                    .map_err(|e| format!("relaxed decode must succeed: {e}"))?;
                if relaxed != clean {
                    return Err("relaxed decode did not restore the clean word".into());
                }
                if !out.error_positions().contains(&case.errors[0].0) {
                    return Err("relaxed decode missed the undeclared error".into());
                }
                Ok(())
            },
        );
}

/// Historical seed 5 (`uncorrectable_rejected`): scattering eight random
/// errors eventually produces an outright-uncorrectable rejection at the
/// threshold stage.
#[test]
fn threshold_uncorrectable_rejected() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let mut rejected_uncorrectable = false;
    Runner::new("rs:threshold-uncorrectable")
        .seed(5)
        .cases(100)
        .run(
            |rng| {
                let mut errors: Vec<(usize, u8)> = Vec::new();
                for _ in 0..8 {
                    let p = rng.gen_range(0usize..code.len());
                    let m = rng.gen_range(1u32..256) as u8;
                    if let Some(e) = errors.iter_mut().find(|e| e.0 == p) {
                        e.1 ^= m;
                    } else {
                        errors.push((p, m));
                    }
                }
                ByteErrorCase {
                    data: vec![9u8; code.data_symbols()],
                    errors,
                }
            },
            |case| {
                let mut cw = case.corrupted(&code);
                match code.decode_with_threshold_scratch(&mut cw, 2, &mut scratch) {
                    Ok(ThresholdOutcome::Rejected(RejectReason::Uncorrectable)) => {
                        rejected_uncorrectable = true;
                        Ok(())
                    }
                    Ok(_) => Ok(()),
                    Err(e) => Err(format!("unexpected error {e}")),
                }
            },
        );
    assert!(
        rejected_uncorrectable,
        "expected an uncorrectable rejection"
    );
}

/// Historical seed 13 (`threshold_never_accepts_more_than_threshold`):
/// for every threshold 0..=4, an accepted decode never admits more
/// corrections than the threshold.
#[test]
fn threshold_never_accepts_more_than_threshold() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    Runner::new("rs:threshold-bound").seed(13).cases(500).run(
        |rng| {
            let nerr = rng.gen_range(0usize..=6);
            gen_errors(rng, &code, nerr)
        },
        |case| {
            let cw = case.corrupted(&code);
            for threshold in 0..=4usize {
                let mut w = cw.clone();
                if let ThresholdOutcome::Accepted { corrections } = code
                    .decode_with_threshold_scratch(&mut w, threshold, &mut scratch)
                    .map_err(|e| format!("unexpected error {e}"))?
                {
                    if corrections > threshold {
                        return Err(format!(
                            "accepted {corrections} corrections at threshold {threshold}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Negative path: exactly three errors always decode to three
/// corrections, which the paper's threshold of 2 must reject — rolled
/// back, with the reject reason carrying the true correction count. The
/// checked-in corpus seeds this property with a crafted 3-error word on
/// the zero codeword (`tests/corpus/rs-threshold-negative-crafted.json`),
/// replayed before the generated cases.
#[test]
fn threshold_rejects_crafted_three_error_patterns() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let report = Runner::new("rs:threshold:negative")
        .seed(0x101)
        .cases(200)
        .run(
            |rng| gen_errors(rng, &code, 3),
            |case| {
                let mut cw = case.corrupted(&code);
                let before = cw.clone();
                match code.decode_with_threshold_scratch(&mut cw, 2, &mut scratch) {
                    Ok(ThresholdOutcome::Rejected(RejectReason::TooManyCorrections(3))) => {
                        if cw == before {
                            Ok(())
                        } else {
                            Err("rejected corrections must be rolled back".into())
                        }
                    }
                    Ok(other) => Err(format!("3-error word not rejected: {other:?}")),
                    Err(e) => Err(format!("unexpected error {e}")),
                }
            },
        );
    assert!(
        report.corpus_replayed >= 1,
        "the crafted corpus case must be present and replayed"
    );
}
