//! Differential fault campaigns: production codecs vs reference oracles.
//!
//! Every case runs the production decoder (Berlekamp–Massey based) and
//! the harness reference (PGZ / linear-system based) side by side and
//! requires bit-identical verdicts. The bulk campaigns run ≥100 000
//! seeded cases per codec on fast parameters; a smaller campaign covers
//! the paper's full-size VLEW code. Error weights straddle the
//! correction radius so clean, correctable, and overweight words are
//! all exercised.

use pmck_bch::{BchCode, BchScratch};
use pmck_harness::{
    diff_bch, diff_bch_batch, diff_bch_encode, diff_rs_erasures, BitFlipBatchCase, BitFlipCase,
    EncodeCase, ErasureCase, Runner,
};
use pmck_rs::{RsCode, RsScratch};
use pmck_rt::rng::{Rng, StdRng};

fn gen_bit_flips(rng: &mut StdRng, code: &BchCode, max_flips: usize) -> BitFlipCase {
    let mut data = vec![0u8; code.data_bits() / 8];
    rng.fill_bytes(&mut data);
    let num_flips = rng.gen_range(0usize..=max_flips);
    let mut flips: Vec<usize> = Vec::with_capacity(num_flips);
    while flips.len() < num_flips {
        let p = rng.gen_range(0usize..code.len());
        if !flips.contains(&p) {
            flips.push(p);
        }
    }
    BitFlipCase { data, flips }
}

fn gen_erasures(rng: &mut StdRng, code: &RsCode) -> ErasureCase {
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
    // Occasionally add undeclared errors outside the erasures, which the
    // strict erasure path must reject.
    let num_errors = if rng.gen_bool(0.3) {
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

/// 100 000 cases against a fast BCH(8, t=3, k=64) instance; weights run
/// 0..=2t so half the mass is beyond the correction radius.
#[test]
fn bch_differential_campaign() {
    let code = BchCode::new(8, 3, 64).expect("valid parameters");
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("diff:bch:m8t3").seed(0xB04).cases(100_000).run(
        |rng| gen_bit_flips(rng, &code, 2 * code.t()),
        |case| diff_bch(&code, &case.corrupted(&code), &mut scratch),
    );
    assert_eq!(report.generated, 100_000);
}

/// The paper's full-size VLEW code (t=22, k=2048 over GF(2^12)); fewer
/// cases because each PGZ decode is genuinely slow, which is the point
/// of having a production decoder.
#[test]
fn bch_differential_campaign_vlew() {
    let code = BchCode::vlew();
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("diff:bch:vlew").seed(0xB05).cases(1_500).run(
        |rng| gen_bit_flips(rng, &code, code.t() + 4),
        |case| diff_bch(&code, &case.corrupted(&code), &mut scratch),
    );
    assert_eq!(report.generated, 1_500);
}

/// A second 100 000 cases against BCH(8, t=3, k=64) on their own seed.
/// Like every campaign here it reuses ONE scratch throughout: any state
/// leaking from a previous decode (stale syndromes, uncleared positions,
/// a poisoned BM register) shows up as a divergence from the stateless
/// PGZ reference.
#[test]
fn bch_scratch_differential_campaign() {
    let code = BchCode::new(8, 3, 64).expect("valid parameters");
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("diff:bch:scratch:m8t3")
        .seed(0xB06)
        .cases(100_000)
        .run(
            |rng| gen_bit_flips(rng, &code, 2 * code.t()),
            |case| diff_bch(&code, &case.corrupted(&code), &mut scratch),
        );
    assert_eq!(report.generated, 100_000);
}

/// 20 000 batches of 0..=6 words, again with one shared scratch. Mixed
/// batches — clean, correctable, and overweight words interleaved — are
/// the interesting region; every per-word outcome and corrected word
/// must match the per-word PGZ reference.
#[test]
fn bch_batch_differential_campaign() {
    let code = BchCode::new(8, 3, 64).expect("valid parameters");
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("diff:bch:batch:m8t3")
        .seed(0xB07)
        .cases(20_000)
        .run(
            |rng| {
                let n = rng.gen_range(0usize..=6);
                BitFlipBatchCase {
                    words: (0..n)
                        .map(|_| gen_bit_flips(rng, &code, 2 * code.t()))
                        .collect(),
                }
            },
            |case| diff_bch_batch(&code, &case.corrupted(&code), &mut scratch),
        );
    assert_eq!(report.generated, 20_000);
}

/// 100 000 words through every entry of the table-driven VLEW encoder
/// against the polynomial-division reference: a third dense (256 random
/// bytes), a third the engine's write-delta shape (8 random bytes at a
/// block offset), a third ragged (1..=16 bytes at any bit offset,
/// including the very end of the word). Zero divergence allowed.
#[test]
fn bch_encode_differential_campaign() {
    let code = BchCode::vlew();
    let k = code.data_bits();
    let report = Runner::new("bch:encode_differential")
        .seed(0xB14)
        .cases(100_000)
        .run(
            |rng| {
                let (bit_offset, len) = match rng.gen_range(0u32..3) {
                    0 => (0, k / 8),
                    1 => (rng.gen_range(0usize..k / 64) * 64, 8),
                    _ => {
                        let len = rng.gen_range(1usize..=16);
                        (rng.gen_range(0usize..=k - len * 8), len)
                    }
                };
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                EncodeCase { bit_offset, bytes }
            },
            |case| diff_bch_encode(&code, case.bit_offset, &case.bytes),
        );
    assert_eq!(report.generated, 100_000);
    assert!(
        report.corpus_replayed >= 1,
        "the crafted last-row entry must be replayed"
    );
}

/// 100 000 cases against RS(72, 64): 0..=8 declared erasures with
/// garbage fills, 30% of cases also carrying undeclared errors the
/// strict decoder must refuse.
#[test]
fn rs_erasure_differential_campaign() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let report = Runner::new("diff:rs:erasure")
        .seed(0x25)
        .cases(100_000)
        .run(
            |rng| gen_erasures(rng, &code),
            |case| {
                let word = case.corrupted(&code);
                diff_rs_erasures(&code, &word, &case.erasures, &mut scratch)
            },
        );
    assert_eq!(report.generated, 100_000);
}
