//! Exhaustive differential test of the BCH decoder against brute-force
//! nearest-codeword search on the classic (15, 7) t=2 code: every one of
//! the 2^15 possible received words is checked against ground truth.

use pmck_bch::{BchCode, BchScratch, BitPoly};

fn word_from_u32(v: u32, len: usize) -> BitPoly {
    let mut p = BitPoly::zero(len);
    for i in 0..len {
        if v & (1 << i) != 0 {
            p.set(i, true);
        }
    }
    p
}

fn to_u32(p: &BitPoly) -> u32 {
    let mut v = 0u32;
    for i in p.iter_ones() {
        v |= 1 << i;
    }
    v
}

#[test]
fn exhaustive_15_7_bounded_distance_behaviour() {
    let code = BchCode::new(4, 2, 7).expect("(15,7) t=2");
    let mut scratch = BchScratch::new(&code);
    assert_eq!(code.len(), 15);

    // Enumerate all 128 codewords.
    let codewords: Vec<u32> = (0u32..128)
        .map(|d| to_u32(&code.encode(&word_from_u32(d, 7))))
        .collect();

    // Check d_min >= 2t+1 = 5 while we're at it.
    let mut d_min = usize::MAX;
    for (i, &a) in codewords.iter().enumerate() {
        for &b in codewords.iter().skip(i + 1) {
            d_min = d_min.min((a ^ b).count_ones() as usize);
        }
    }
    assert!(d_min >= 5, "minimum distance {d_min}");

    let mut corrected = 0u32;
    let mut flagged = 0u32;
    for received in 0u32..(1 << 15) {
        // Ground truth: distance to the nearest codeword.
        let (nearest, dist) = codewords
            .iter()
            .map(|&c| (c, (c ^ received).count_ones()))
            .min_by_key(|&(_, d)| d)
            .expect("128 codewords");

        let mut w = word_from_u32(received, 15);
        match code.decode_scratch(&mut w, &mut scratch) {
            Ok(out) => {
                let result = to_u32(&w);
                // Any successful decode lands on a codeword within t.
                assert!(codewords.contains(&result), "{received:#x}");
                assert!(out.num_corrected() <= 2, "{received:#x}");
                if dist <= 2 {
                    // Within the packing radius decoding is unique and
                    // must return the nearest codeword.
                    assert_eq!(result, nearest, "{received:#x} at distance {dist}");
                    assert_eq!(out.num_corrected() as u32, (result ^ received).count_ones());
                }
                corrected += 1;
            }
            Err(_) => {
                // A failure is only legitimate beyond the packing radius.
                assert!(dist > 2, "{received:#x}: failed at distance {dist}");
                flagged += 1;
            }
        }
    }
    // Every word within distance 2 of some codeword decodes: that is
    // 128 · (1 + 15 + 105) = 15488 words.
    assert!(corrected >= 15488, "corrected {corrected}");
    assert_eq!(corrected + flagged, 1 << 15);
}

#[test]
fn exhaustive_single_error_correction_over_gf32() {
    // (31, 21) t=2 code: all single- and double-error patterns on one
    // codeword, all 31 + 465 of them.
    let code = BchCode::new(5, 2, 21).expect("(31,21) t=2");
    let mut scratch = BchScratch::new(&code);
    let data = word_from_u32(0b1_0110_1001_1100_1010_0101 & ((1 << 21) - 1), 21);
    let clean = code.encode(&data);
    for i in 0..code.len() {
        for j in i..code.len() {
            let mut w = clean.clone();
            w.flip(i);
            if j != i {
                w.flip(j);
            }
            code.decode_scratch(&mut w, &mut scratch).expect("within t");
            assert_eq!(w, clean, "errors at {i},{j}");
        }
    }
}
