//! Fast-path fault campaigns: the allocation-free RS decoder vs the
//! reference oracle and ground truth.
//!
//! The hot read path runs `decode_with_erasures_scratch` (zero-syndrome
//! early exit + caller-owned [`pmck_rs::RsScratch`]). These campaigns
//! drive it through ONE scratch for 100 000 cases each, so state
//! leaking between decodes shows as a wrong answer: within capability
//! it must return the ground-truth codeword with exactly the injected
//! corrections, and its strict form must agree, through
//! [`diff_rs_erasures`], with the harness' Vandermonde linear-system
//! reference. Any divergence is persisted to `tests/corpus/` by the
//! runner and replayed on every future run.

use pmck_harness::{diff_rs_erasures, ErasureCase, Runner};
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::rng::{Rng, StdRng};

fn gen_erasure_case(rng: &mut StdRng, code: &RsCode) -> ErasureCase {
    let mut data = vec![0u8; code.data_symbols()];
    rng.fill_bytes(&mut data);
    let nu = rng.gen_range(0usize..=code.max_erasures());
    let mut erasures: Vec<usize> = Vec::with_capacity(nu);
    while erasures.len() < nu {
        let p = rng.gen_range(0usize..code.len());
        if !erasures.contains(&p) {
            erasures.push(p);
        }
    }
    let mut fills = vec![0u8; nu];
    rng.fill_bytes(&mut fills);
    // A third of the cases also carry undeclared errors so the combined
    // errors-and-erasures machinery (not just the erasure re-fill) runs.
    let num_errors = if rng.gen_bool(0.33) {
        rng.gen_range(1usize..=2)
    } else {
        0
    };
    let mut errors: Vec<(usize, u8)> = Vec::with_capacity(num_errors);
    while errors.len() < num_errors {
        let p = rng.gen_range(0usize..code.len());
        if !erasures.contains(&p) && !errors.iter().any(|&(q, _)| q == p) {
            errors.push((p, rng.gen_range(1u32..256) as u8));
        }
    }
    ErasureCase {
        data,
        erasures,
        fills,
        errors,
    }
}

/// Pure random-error cases reuse [`ErasureCase`] with no erasures; the
/// weight runs 0..=6 so clean words (the zero-syndrome fast path),
/// correctable patterns (≤ 4 for RS(72, 64)), and overweight patterns
/// are all exercised.
fn gen_error_case(rng: &mut StdRng, code: &RsCode) -> ErasureCase {
    let mut data = vec![0u8; code.data_symbols()];
    rng.fill_bytes(&mut data);
    // Weight 0 gets extra mass: the clean early exit is the production
    // steady state and the path most worth hammering.
    let num_errors = if rng.gen_bool(0.25) {
        0
    } else {
        rng.gen_range(1usize..=6)
    };
    let mut errors: Vec<(usize, u8)> = Vec::with_capacity(num_errors);
    while errors.len() < num_errors {
        let p = rng.gen_range(0usize..code.len());
        if !errors.iter().any(|&(q, _)| q == p) {
            errors.push((p, rng.gen_range(1u32..256) as u8));
        }
    }
    ErasureCase {
        data,
        erasures: vec![],
        fills: vec![],
        errors,
    }
}

/// 100 000 erasure cases against RS(72, 64): the strict production
/// decoder is checked against the Vandermonde reference, and fill-only
/// cases (no undeclared errors) must recover the original codeword
/// exactly.
#[test]
fn rs_fastpath_erasure_campaign() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let report = Runner::new("fastpath:rs:erasure")
        .seed(0xFA57_0001)
        .cases(100_000)
        .run(
            |rng| gen_erasure_case(rng, &code),
            |case| {
                let word = case.corrupted(&code);
                diff_rs_erasures(&code, &word, &case.erasures, &mut scratch)?;
                if case.errors.is_empty() {
                    // Declared erasures alone never exceed capability
                    // (ν ≤ r), so ground truth must come back exactly.
                    let mut decoded = word.clone();
                    let out = code
                        .decode_with_erasures_scratch(&mut decoded, &case.erasures, &mut scratch)
                        .map_err(|e| format!("fill-only case must decode, got {e:?}"))?;
                    if !out.error_positions().is_empty() {
                        return Err(format!(
                            "fill-only case reported phantom errors at {:?}",
                            out.error_positions()
                        ));
                    }
                    if decoded != code.encode(&case.data) {
                        return Err("fill-only case decoded to the wrong codeword".into());
                    }
                }
                Ok(())
            },
        );
    assert_eq!(report.generated, 100_000);
}

/// 100 000 random-error cases (no erasures) against RS(72, 64):
/// within-radius patterns must decode back to ground truth with exactly
/// the injected errors as corrections.
#[test]
fn rs_fastpath_error_campaign() {
    let code = RsCode::per_block();
    let radius = code.max_erasures() / 2;
    let mut scratch = RsScratch::new(&code);
    let report = Runner::new("fastpath:rs:errors")
        .seed(0xFA57_0002)
        .cases(100_000)
        .run(
            |rng| gen_error_case(rng, &code),
            |case| {
                let word = case.corrupted(&code);
                if case.errors.len() <= radius {
                    let mut decoded = word.clone();
                    let out = code
                        .decode_scratch(&mut decoded, &mut scratch)
                        .map_err(|e| format!("within-radius case must decode, got {e:?}"))?;
                    if decoded != code.encode(&case.data) {
                        return Err("within-radius case decoded to the wrong codeword".into());
                    }
                    let mut expected = case.errors.clone();
                    expected.sort_unstable_by_key(|&(p, _)| p);
                    if out.corrections() != expected {
                        return Err(format!(
                            "corrections {:?} differ from injected errors {:?}",
                            out.corrections(),
                            expected
                        ));
                    }
                    if case.errors.is_empty() && !out.was_clean() {
                        return Err("clean word must take the zero-syndrome fast path".into());
                    }
                }
                Ok(())
            },
        );
    assert_eq!(report.generated, 100_000);
}
