//! Decode-conformance battery for the errorful path: boundary weights
//! around the correction radius and crafted batch-edge corpus replay.
//!
//! The guarantees pinned here, per weight class:
//!
//! * `w ≤ t` — exact ground-truth recovery, always (bounded-distance
//!   decoding within the packing radius is unique).
//! * `w = t + 1` — the decoder may legally land on a *different*
//!   codeword within distance `t` (indistinguishable from a light error
//!   on that codeword), but it never leaves an invalid word behind:
//!   every accepted correction re-verifies as a codeword, every
//!   rejection leaves the word untouched.

use pmck_bch::{BchCode, BchError, BchScratch, BitPoly, WordVerdict};
use pmck_harness::{diff_bch_batch, BitFlipBatchCase, BitFlipCase, Runner};
use pmck_rt::rng::{Rng, StdRng};

/// `encode_bytes(data)` plus the same word with `flips` applied.
fn clean_and_dirty(code: &BchCode, data: &[u8], flips: &[usize]) -> (BitPoly, BitPoly) {
    let clean = code.encode_bytes(data);
    let mut dirty = clean.clone();
    for &p in flips {
        dirty.flip(p);
    }
    (clean, dirty)
}

/// All strictly increasing `w`-subsets of `0..n`, passed to `visit`.
fn for_each_combination(n: usize, w: usize, visit: &mut impl FnMut(&[usize])) {
    let mut idx: Vec<usize> = (0..w).collect();
    if w > n {
        return;
    }
    loop {
        visit(&idx);
        // Advance the rightmost index that can still move.
        let mut i = w;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - w {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..w {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

fn nonzero_data(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

/// A deterministic non-trivial data word of exactly `data_bits` bits,
/// for small codes whose `k` is not byte-aligned.
fn nonzero_data_poly(code: &BchCode, salt: u64) -> BitPoly {
    let mut d = BitPoly::zero(code.data_bits());
    let mut x = salt | 1;
    for i in 0..code.data_bits() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x >> 63 == 1 {
            d.flip(i);
        }
    }
    d
}

/// Exhaustive within-radius battery on (6, t=2, k=20) and (8, t=3, k=64):
/// every error pattern of weight 1..=t must come back as the exact flip
/// set, restoring the exact codeword.
#[test]
fn within_radius_weights_recover_ground_truth_exhaustively() {
    for (m, t, k) in [(6u32, 2usize, 20usize), (8, 3, 64)] {
        let code = BchCode::new(m, t, k).expect("valid parameters");
        let mut scratch = BchScratch::new(&code);
        let clean = code.encode(&nonzero_data_poly(&code, u64::from(m)));
        for w in 1..=t {
            // (8,3,64) weight 1 overlaps the (6,2,20) sweep in kind; keep
            // the battery exhaustive anyway — it is cheap in release.
            for_each_combination(code.len(), w, &mut |flips| {
                let mut word = clean.clone();
                for &p in flips {
                    word.flip(p);
                }
                let view = code
                    .decode_scratch(&mut word, &mut scratch)
                    .unwrap_or_else(|e| panic!("({m},{t},{k}) w={w} flips {flips:?}: {e:?}"));
                assert_eq!(view.corrected_bits(), flips, "exact flip set");
                assert_eq!(word, clean, "exact codeword restored");
            });
        }
    }
}

/// Exhaustive weight-(t+1) battery on (6, t=2, k=20).
#[test]
fn weight_t_plus_one_is_never_silently_corrupted() {
    let code = BchCode::new(6, 2, 20).expect("valid parameters");
    let t = code.t();
    let mut scratch = BchScratch::new(&code);
    let clean = code.encode(&nonzero_data_poly(&code, 0xA5));
    let mut bounded_rejects = 0usize;
    for_each_combination(code.len(), t + 1, &mut |flips| {
        let mut word = clean.clone();
        for &p in flips {
            word.flip(p);
        }
        let dirty = word.clone();
        // A legal outcome is a valid codeword within t flips of the
        // received word (possibly the wrong one — information theory
        // allows it at t+1); an illegal outcome is an invalid word or a
        // modified word after a reject.
        match code.decode_scratch(&mut word, &mut scratch) {
            Ok(view) => {
                assert!(view.num_corrected() <= t);
                assert!(code.is_codeword(&word), "accepted word must re-verify");
            }
            Err(BchError::Uncorrectable) => {
                assert_eq!(word, dirty, "rejected word must be untouched");
                bounded_rejects += 1;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    });
    assert!(bounded_rejects > 0, "some t+1 patterns must reject");
}

/// Sampled boundary battery on the paper's full-size VLEW code at
/// weights t−1, t, and t+1.
#[test]
fn vlew_boundary_weights_sampled() {
    let code = BchCode::vlew();
    let t = code.t();
    let mut scratch = BchScratch::new(&code);
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let gen_flips = |rng: &mut StdRng, w: usize| {
        let mut flips: Vec<usize> = Vec::with_capacity(w);
        while flips.len() < w {
            let p = rng.gen_range(0usize..code.len());
            if !flips.contains(&p) {
                flips.push(p);
            }
        }
        flips.sort_unstable();
        flips
    };
    // Within radius: exact recovery.
    for w in [t - 1, t] {
        for round in 0..40u64 {
            let data = nonzero_data(code.data_bits() / 8, (round as u8).wrapping_add(w as u8));
            let flips = gen_flips(&mut rng, w);
            let (clean, mut word) = clean_and_dirty(&code, &data, &flips);
            let view = code
                .decode_scratch(&mut word, &mut scratch)
                .expect("within radius");
            assert_eq!(view.corrected_bits(), &flips[..]);
            assert_eq!(word, clean);
        }
    }
    // t+1: a rejected word is untouched, an accepted one a codeword.
    let mut rejected = 0usize;
    for round in 0..12u64 {
        let data = nonzero_data(code.data_bits() / 8, round as u8);
        let flips = gen_flips(&mut rng, t + 1);
        let (_, dirty) = clean_and_dirty(&code, &data, &flips);
        let mut word = dirty.clone();
        match code.decode_word(&mut word, &mut scratch) {
            WordVerdict::Corrected { bits } => {
                assert!(bits <= t && code.is_codeword(&word));
            }
            WordVerdict::Uncorrectable => {
                assert_eq!(word, dirty);
                rejected += 1;
            }
            WordVerdict::Clean => panic!("an errorful word read as clean"),
        }
    }
    assert!(rejected > 0, "VLEW t+1 rejects must occur in the sample");
}

/// Batch edges and crafted corpus replay: the checked-in entries cover
/// the empty batch, a single word, a mixed clean/errorful/overweight
/// batch, and an all-errorful 9-word scrub window; fresh cases keep
/// sampling the same region. Every outcome is checked against the PGZ
/// reference by [`diff_bch_batch`].
#[test]
fn batch_edges_match_reference_with_corpus_replay() {
    let code = BchCode::new(8, 3, 64).expect("valid parameters");
    let mut scratch = BchScratch::new(&code);
    let report = Runner::new("bch:batch:edges").seed(0xBA7C).cases(400).run(
        |rng| {
            // Bias the size toward the edges: empty, single, and the
            // 9-word scrub-window shape a stripe decode produces.
            let n = match rng.gen_range(0u32..6) {
                0 => 0,
                1 => 1,
                2 => 9,
                _ => rng.gen_range(2usize..=9),
            };
            let words = (0..n)
                .map(|_| {
                    let mut data = vec![0u8; code.data_bits() / 8];
                    rng.fill_bytes(&mut data);
                    let w = rng.gen_range(0usize..=2 * code.t());
                    let mut flips: Vec<usize> = Vec::with_capacity(w);
                    while flips.len() < w {
                        let p = rng.gen_range(0usize..code.len());
                        if !flips.contains(&p) {
                            flips.push(p);
                        }
                    }
                    BitFlipCase { data, flips }
                })
                .collect();
            BitFlipBatchCase { words }
        },
        |case| diff_bch_batch(&code, &case.corrupted(&code), &mut scratch),
    );
    assert_eq!(report.generated, 400);
    assert!(
        report.corpus_replayed >= 4,
        "crafted batch-edge corpus entries must replay (got {})",
        report.corpus_replayed
    );
}
