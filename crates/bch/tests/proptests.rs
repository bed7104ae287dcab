//! Randomized tests: BCH round trips under random correctable error
//! patterns, and linearity of the encoder. Seeded `pmck-rt` streams
//! replace the former proptest strategies.

use pmck_bch::{BchCode, BchScratch, BitPoly};
use pmck_rt::rng::{Rng, StdRng};

fn random_bits(rng: &mut StdRng, len: usize) -> BitPoly {
    let mut p = BitPoly::zero(len);
    for i in 0..len {
        if rng.gen_bool(0.5) {
            p.set(i, true);
        }
    }
    p
}

#[test]
fn round_trip_with_upto_t_errors() {
    let mut rng = StdRng::seed_from_u64(0xBC4_0001);
    for _ in 0..64 {
        let t = rng.gen_range(1usize..=5);
        let code = BchCode::new(9, t, 128).unwrap();
        let data = random_bits(&mut rng, 128);
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        let nerr = rng.gen_range(0..=t);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < nerr {
            positions.insert(rng.gen_range(0..code.len()));
        }
        for &p in &positions {
            cw.flip(p);
        }
        let mut scratch = BchScratch::new(&code);
        let out = code.decode_scratch(&mut cw, &mut scratch).unwrap();
        assert_eq!(&cw, &clean);
        let got: Vec<usize> = out.corrected_bits().to_vec();
        let want: Vec<usize> = positions.into_iter().collect();
        assert_eq!(got, want);
    }
}

#[test]
fn parity_linearity() {
    let mut rng = StdRng::seed_from_u64(0xBC4_0002);
    for _ in 0..64 {
        let code = BchCode::new(8, 3, 96).unwrap();
        let a = random_bits(&mut rng, 96);
        let b = random_bits(&mut rng, 96);
        let mut ab = a.clone();
        ab.xor_assign(&b);
        let mut p = code.parity(&a);
        p.xor_assign(&code.parity(&b));
        assert_eq!(p, code.parity(&ab));
    }
}

#[test]
fn syndromes_zero_iff_codeword() {
    let mut rng = StdRng::seed_from_u64(0xBC4_0003);
    for _ in 0..64 {
        let code = BchCode::new(7, 2, 64).unwrap();
        let data = random_bits(&mut rng, 64);
        let mut cw = code.encode(&data);
        let mut synd = vec![u32::MAX; 2 * code.t()];
        assert!(code.syndromes_into(&cw, &mut synd));
        assert!(synd.iter().all(|&s| s == 0));
        cw.flip(rng.gen_range(0..code.len()));
        assert!(!code.syndromes_into(&cw, &mut synd));
        assert!(synd.iter().any(|&s| s != 0));
    }
}
