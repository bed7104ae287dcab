//! Randomized tests: RS round trips across the full `2e + ν ≤ r`
//! envelope, threshold-decode invariants, and linearity. Seeded
//! `pmck-rt` streams replace the former proptest strategies.

use pmck_rt::rng::{Rng, StdRng};

use pmck_rs::{RsCode, RsScratch, ThresholdOutcome};

#[test]
fn round_trip_full_envelope() {
    let mut rng = StdRng::seed_from_u64(0x4507_0001);
    let mut scratch = RsScratch::new(&RsCode::per_block());
    for _ in 0..128 {
        let e = rng.gen_range(0usize..=4);
        // 2e + ν ≤ 8 → ν ≤ 8 − 2e.
        let nu = rng.gen_range(0usize..=8).min(8 - 2 * e);
        let code = RsCode::per_block();
        let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < e + nu {
            positions.insert(rng.gen_range(0..code.len()));
        }
        let all: Vec<usize> = positions.into_iter().collect();
        let erasures = &all[..nu];
        for &p in &all {
            cw[p] ^= rng.gen_range(1..=255u8);
        }
        code.decode_with_erasures_scratch(&mut cw, erasures, &mut scratch)
            .unwrap();
        assert_eq!(cw, clean);
    }
}

#[test]
fn threshold_invariant_accept_le_threshold() {
    let mut rng = StdRng::seed_from_u64(0x4507_0002);
    let mut scratch = RsScratch::new(&RsCode::per_block());
    for _ in 0..128 {
        let nerr = rng.gen_range(0usize..=6);
        let thr = rng.gen_range(0usize..=4);
        let code = RsCode::per_block();
        let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < nerr {
            positions.insert(rng.gen_range(0..code.len()));
        }
        for &p in &positions {
            cw[p] ^= rng.gen_range(1..=255u8);
        }
        let before = cw.clone();
        match code
            .decode_with_threshold_scratch(&mut cw, thr, &mut scratch)
            .unwrap()
        {
            ThresholdOutcome::Clean => assert_eq!(nerr, 0),
            ThresholdOutcome::Accepted { corrections } => {
                assert!(corrections <= thr);
                assert!(code.is_codeword(&cw));
            }
            ThresholdOutcome::Rejected(_) => assert_eq!(&cw, &before),
        }
        // Within capability and threshold, correction must be exact.
        if nerr <= thr {
            assert_eq!(&cw, &clean);
        }
    }
}

#[test]
fn parity_linearity() {
    let mut rng = StdRng::seed_from_u64(0x4507_0003);
    for _ in 0..128 {
        let code = RsCode::per_block();
        let a: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let (mut pa, mut pb, mut pab) = ([0u8; 8], [0u8; 8], [0u8; 8]);
        code.parity_into(&a, &mut pa);
        code.parity_into(&b, &mut pb);
        code.parity_into(&ab, &mut pab);
        for i in 0..8 {
            assert_eq!(pa[i] ^ pb[i], pab[i]);
        }
    }
}

#[test]
fn erasures_anywhere_including_check_bytes() {
    let mut rng = StdRng::seed_from_u64(0x4507_0004);
    let mut scratch = RsScratch::new(&RsCode::per_block());
    for _ in 0..128 {
        // A dead chip can be the parity chip itself: erasing 8 consecutive
        // positions anywhere must be recoverable.
        let start = rng.gen_range(0usize..=64);
        let code = RsCode::per_block();
        let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        let erasures: Vec<usize> = (start..start + 8).collect();
        for &p in &erasures {
            cw[p] = rng.gen();
        }
        code.decode_with_erasures_scratch(&mut cw, &erasures, &mut scratch)
            .unwrap();
        assert_eq!(cw, clean);
    }
}

#[test]
fn smaller_codes_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x4507_0005);
    for _ in 0..128 {
        let k = rng.gen_range(1usize..=32);
        let r_half = rng.gen_range(1usize..=4);
        let r = 2 * r_half;
        let code = RsCode::new(k, r).unwrap();
        let data: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        let nerr = rng.gen_range(0..=r_half);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < nerr {
            positions.insert(rng.gen_range(0..code.len()));
        }
        for &p in &positions {
            cw[p] ^= rng.gen_range(1..=255u8);
        }
        code.decode_scratch(&mut cw, &mut RsScratch::new(&code))
            .unwrap();
        assert_eq!(cw, clean);
    }
}
