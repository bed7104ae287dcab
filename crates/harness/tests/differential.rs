//! Differential fault campaigns: production codecs vs reference oracles.
//!
//! Every case runs the production decoder (Berlekamp–Massey based) and
//! the harness reference (PGZ / linear-system based) side by side and
//! requires bit-identical verdicts. The bulk campaigns run ≥100 000
//! seeded cases per codec on fast parameters; a smaller campaign covers
//! the paper's full-size VLEW code. Error weights straddle the
//! correction radius so clean, correctable, and overweight words are
//! all exercised. The table-driven encoders get the same treatment
//! against polynomial division.

use pmck_bch::{BchCode, BchScratch};
use pmck_harness::{
    diff_bch, diff_bch_batch, diff_bch_encode, diff_rs_erasures, diff_rs_parity, diff_rs_small,
    BitFlipBatchCase, BitFlipCase, ByteErrorCase, EncodeCase, ErasureCase, Runner,
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
/// 0..=2t so half the mass is beyond the correction radius. Every
/// locator of t = 3 is solved in closed form; the corpus seeds the
/// campaign with the word whose locator has a root past n = 88 that
/// `tests/mutation.rs` shrinks its unfiltered root finder's failure to.
#[test]
fn bch_differential_campaign() {
    let code = BchCode::new(8, 3, 64).expect("valid parameters");
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("diff:bch:m8t3").seed(0xB04).cases(100_000).run(
        |rng| gen_bit_flips(rng, &code, 2 * code.t()),
        |case| diff_bch(&code, &case.corrupted(&code), &mut scratch),
    );
    assert_eq!(report.generated, 100_000);
    assert!(
        report.corpus_replayed >= 1,
        "the root-past-n word must be replayed"
    );
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

fn gen_byte_errors(rng: &mut StdRng, code: &RsCode, num_errors: usize) -> ByteErrorCase {
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

/// 100 000 random blocks through the RS(72, 64) encoder against
/// [`FieldPoly`](pmck_gf::FieldPoly) division, then a few blocks on
/// every code `crates/rs/tests/proptests.rs` builds (k = 1..=32 by
/// r = 2, 4, 6, 8: every register width of the one-word kernel crossed
/// with every chunk remainder) and on four codes past r = 8, where the
/// encoder keeps its register in bytes.
#[test]
fn rs_parity_differential_campaign() {
    let code = RsCode::per_block();
    let report = Runner::new("diff:rs:parity").seed(0x26).cases(100_000).run(
        |rng| gen_byte_errors(rng, &code, 0),
        |case| diff_rs_parity(&code, &case.data),
    );
    assert_eq!(report.generated, 100_000);

    let small = (1..=32).flat_map(|k| [2, 4, 6, 8].map(|r| (k, r)));
    let mut rng = StdRng::seed_from_u64(0x27);
    for (k, r) in small.chain([(9, 9), (40, 16), (100, 33), (1, 254)]) {
        let code = RsCode::new(k, r).expect("valid parameters");
        for _ in 0..8 {
            let case = gen_byte_errors(&mut rng, &code, 0);
            diff_rs_parity(&code, &case.data).unwrap();
        }
    }
}

/// 20 000 RS(72, 64) words of weight 0..=6 through the runtime decode —
/// the full decode and the threshold decode at 0..=4, one scratch
/// throughout — against the exhaustive one-and-two-error reference.
/// Weights 1 and 2 take the closed-form solve, 3 and 4 must fall through
/// it to Berlekamp–Massey untouched, 5 and 6 must be refused or land on
/// a real codeword. The corpus seeds the campaign with the three-error
/// word `tests/mutation.rs` shrinks its mutant's failure to.
#[test]
fn rs_small_decode_differential_campaign() {
    let code = RsCode::per_block();
    let mut scratch = RsScratch::new(&code);
    let report = Runner::new("diff:rs:small").seed(0x28).cases(20_000).run(
        |rng| {
            let weight = rng.gen_range(0usize..=6);
            gen_byte_errors(rng, &code, weight)
        },
        |case| diff_rs_small(&code, &case.corrupted(&code), &mut scratch),
    );
    assert_eq!(report.generated, 20_000);
    assert!(
        report.corpus_replayed >= 1,
        "the mutant's three-error word must be replayed"
    );
}

/// RS(16, 12) is small enough to visit every error position and every
/// pair of positions, five random magnitude draws each: no position the
/// closed-form solve cannot name, none it names wrongly (a shortened
/// code must also refuse locators at or past n = 16).
#[test]
fn rs_small_decode_every_position_pair() {
    let code = RsCode::new(12, 4).expect("valid parameters");
    let mut scratch = RsScratch::new(&code);
    let mut rng = StdRng::seed_from_u64(0x29);
    let n = code.len();
    for p in 0..n {
        for q in p..n {
            for _ in 0..5 {
                let mut case = gen_byte_errors(&mut rng, &code, 0);
                case.errors.push((p, rng.gen_range(1u32..256) as u8));
                if q != p {
                    case.errors.push((q, rng.gen_range(1u32..256) as u8));
                }
                diff_rs_small(&code, &case.corrupted(&code), &mut scratch)
                    .unwrap_or_else(|e| panic!("positions {p}, {q}: {e}"));
            }
        }
    }
}
