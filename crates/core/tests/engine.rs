//! Engine-level tests: the runtime read path (Figure 9), both write
//! paths, boot scrub, chip failures, and block disabling.

use pmck_core::{
    AccessContext, ChipFailureKind, ChipkillConfig, ChipkillMemory, CoreError, LayerId, ReadPath,
    Request, Response, Stack,
};
use pmck_rt::rng::Rng;
use pmck_rt::rng::StdRng;

fn pattern_block(a: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    for (i, x) in b.iter_mut().enumerate() {
        *x = (a as u8)
            .wrapping_mul(97)
            .wrapping_add((i as u8).wrapping_mul(13));
    }
    b
}

fn seeded(num_blocks: u64) -> (ChipkillMemory, Vec<[u8; 64]>) {
    let mut mem = ChipkillMemory::new(num_blocks, ChipkillConfig::default());
    let blocks: Vec<[u8; 64]> = (0..mem.num_blocks())
        .map(|a| {
            let b = pattern_block(a);
            mem.write_block(a, &b).unwrap();
            b
        })
        .collect();
    (mem, blocks)
}

#[test]
fn fresh_rank_reads_clean() {
    let (mut mem, blocks) = seeded(64);
    for (a, b) in blocks.iter().enumerate() {
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(&out.data, b);
        assert_eq!(out.path, ReadPath::Clean);
    }
    assert!(mem.verify_consistent());
}

#[test]
fn one_or_two_byte_errors_use_rs_path() {
    let (mem, blocks) = seeded(32);
    // Inject exactly two bit errors in different bytes of block 5 by
    // writing through the raw injection API at a tiny region: flip via
    // sum-write of a crafted block is not an error; instead use the
    // bit-injection API repeatedly until block 5 is hit.
    // Simpler: craft the corruption through inject at high rate on a
    // 1-block-only rank is imprecise; here we corrupt via direct reads:
    let mut rng = StdRng::seed_from_u64(3);
    loop {
        let mut trial = mem.clone();
        trial.inject_bit_errors(2e-4, &mut rng);
        let out = trial.read_block(5).unwrap();
        assert_eq!(out.data, blocks[5]);
        match out.path {
            ReadPath::Clean => continue,
            ReadPath::RsCorrected { corrections } => {
                assert!((1..=2).contains(&corrections));
                break;
            }
            other => panic!("unexpected path {other:?}"),
        }
    }
}

#[test]
fn heavy_errors_fall_back_to_vlew() {
    let (mut mem, blocks) = seeded(32);
    let mut rng = StdRng::seed_from_u64(11);
    // Boot-level RBER: some blocks will carry 3+ byte errors and reject.
    mem.inject_bit_errors(2e-3, &mut rng);
    let mut fallbacks = 0;
    for (a, b) in blocks.iter().enumerate() {
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(&out.data, b, "block {a}");
        if matches!(out.path, ReadPath::VlewFallback { .. }) {
            fallbacks += 1;
        }
    }
    assert!(
        fallbacks > 0,
        "2e-3 across 32 blocks should trigger fallback"
    );
    assert_eq!(mem.stats().fallbacks, fallbacks as u64);
}

#[test]
fn bitwise_sum_write_equals_conventional_write() {
    let (mem0, _) = seeded(32);
    let mut conventional = mem0.clone();
    let mut sum_path = mem0.clone();
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..100u64 {
        let addr = rng.gen_range(0..mem0.num_blocks());
        let new = pattern_block(addr ^ round.wrapping_mul(0x9E3779B9));
        // Conventional write of `new`.
        let old = conventional.read_block(addr).unwrap().data;
        conventional.write_block(addr, &new).unwrap();
        // Bitwise-sum write of the same change.
        let mut sum = [0u8; 64];
        for i in 0..64 {
            sum[i] = old[i] ^ new[i];
        }
        sum_path.write_block_sum(addr, &sum).unwrap();
    }
    conventional.flush_eur();
    sum_path.flush_eur();
    for a in 0..mem0.num_blocks() {
        assert_eq!(
            conventional.read_block(a).unwrap().data,
            sum_path.read_block(a).unwrap().data,
            "block {a}"
        );
    }
    assert!(conventional.verify_consistent());
    assert!(sum_path.verify_consistent());
}

#[test]
fn sum_writes_preserve_existing_errors_one_to_one() {
    // A cell error present before a sum-write must remain exactly
    // correctable afterwards (errors propagate without spreading, §V-D).
    let (mut mem, blocks) = seeded(32);
    let mut rng = StdRng::seed_from_u64(23);
    mem.inject_bit_errors(1e-3, &mut rng);
    // Sum-write every block with a delta, without correcting first.
    for a in 0..mem.num_blocks() {
        let delta = [0x0Fu8; 64];
        mem.write_block_sum(a, &delta).unwrap();
    }
    mem.flush_eur();
    for (a, b) in blocks.iter().enumerate() {
        let mut expect = *b;
        for x in expect.iter_mut() {
            *x ^= 0x0F;
        }
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(out.data, expect, "block {a}");
    }
}

#[test]
fn boot_scrub_recovers_after_long_outage() {
    let (mut mem, blocks) = seeded(128);
    let mut rng = StdRng::seed_from_u64(31);
    let injected = mem.inject_bit_errors(1e-3, &mut rng);
    assert!(injected > 0);
    let report = mem.boot_scrub().unwrap();
    assert!(report.bits_corrected > 0);
    assert_eq!(report.chip_rebuilt, None);
    assert!(mem.verify_consistent(), "scrub restores full consistency");
    for (a, b) in blocks.iter().enumerate() {
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(&out.data, b);
        assert_eq!(out.path, ReadPath::Clean, "post-scrub reads are clean");
    }
}

#[test]
fn boot_scrub_rebuilds_failed_data_chip() {
    let (mut mem, blocks) = seeded(64);
    let mut rng = StdRng::seed_from_u64(37);
    mem.inject_bit_errors(1e-3, &mut rng);
    mem.fail_chip(4, ChipFailureKind::RandomGarbage, &mut rng);
    let report = mem.boot_scrub().unwrap();
    assert_eq!(report.chip_rebuilt, Some(4));
    assert!(mem.verify_consistent());
    for (a, b) in blocks.iter().enumerate() {
        assert_eq!(&mem.read_block(a as u64).unwrap().data, b, "block {a}");
    }
}

#[test]
fn boot_scrub_rebuilds_failed_parity_chip() {
    let (mut mem, blocks) = seeded(64);
    let mut rng = StdRng::seed_from_u64(41);
    mem.fail_chip(8, ChipFailureKind::StuckOne, &mut rng);
    let report = mem.boot_scrub().unwrap();
    assert_eq!(report.chip_rebuilt, Some(8));
    assert!(mem.verify_consistent());
    for (a, b) in blocks.iter().enumerate() {
        assert_eq!(&mem.read_block(a as u64).unwrap().data, b, "block {a}");
    }
}

#[test]
fn runtime_chip_failure_detected_and_erasure_corrected() {
    let (mut mem, blocks) = seeded(64);
    let mut rng = StdRng::seed_from_u64(43);
    mem.fail_chip(2, ChipFailureKind::RandomGarbage, &mut rng);
    // First read of an affected block: RS rejects (8 garbage bytes),
    // VLEW reveals the failed chip, erasure correction recovers.
    let out = mem.read_block(10).unwrap();
    assert_eq!(out.data, blocks[10]);
    assert_eq!(out.path, ReadPath::ChipkillErasure { chip: 2 });
    assert_eq!(mem.detected_failed_chip(), Some(2));
    assert_eq!(mem.stats().chip_failures_detected, 1);
    // Subsequent reads go straight to the erasure path.
    let out2 = mem.read_block(11).unwrap();
    assert_eq!(out2.data, blocks[11]);
    assert_eq!(out2.path, ReadPath::ChipkillErasure { chip: 2 });
}

#[test]
fn repair_chip_restores_normal_operation() {
    let (mut mem, blocks) = seeded(64);
    let mut rng = StdRng::seed_from_u64(47);
    mem.fail_chip(6, ChipFailureKind::StuckZero, &mut rng);
    let _ = mem.read_block(0).unwrap(); // detect
    assert_eq!(mem.detected_failed_chip(), Some(6));
    mem.repair_chip(6).unwrap();
    assert_eq!(mem.detected_failed_chip(), None);
    assert!(mem.verify_consistent());
    for (a, b) in blocks.iter().enumerate() {
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(&out.data, b);
        assert_eq!(out.path, ReadPath::Clean);
    }
}

#[test]
fn erasure_reads_counts_each_erasure_served_read_once() {
    let (mut mem, blocks) = seeded(64);
    mem.fail_chip(
        3,
        ChipFailureKind::RandomGarbage,
        &mut StdRng::seed_from_u64(59),
    );
    let mut stack = Stack::from_parts(Box::new(mem), AccessContext::new(59));
    // The first read detects the failure, the other 63 find it known:
    // all 64 are answered by erasure correction, each counted once, and
    // the engine's count agrees with the layer's.
    for (a, b) in blocks.iter().enumerate() {
        let out = stack.read(a as u64).unwrap();
        assert_eq!(&out.data, b);
        assert_eq!(out.path, ReadPath::ChipkillErasure { chip: 3 });
    }
    let core = stack.core_stats().unwrap();
    assert_eq!(core.erasure_reads, 64);
    assert_eq!(core.chip_failures_detected, 1);
    assert_eq!(stack.layer(LayerId::Chipkill).unwrap().erasure_reads, 64);
    // The rebuild erasure-decodes every block too, but serves no read.
    assert_eq!(
        stack.submit(&Request::Repair).unwrap(),
        Response::Repaired { chip: Some(3) }
    );
    assert_eq!(stack.core_stats().unwrap().erasure_reads, 64);
    assert_eq!(stack.read(0).unwrap().path, ReadPath::Clean);
}

#[test]
fn degraded_rank_takes_writes_sums_and_scrubs_until_repair() {
    use pmck_core::ProtectionTier::{Dense, Paper};
    // A data chip, the parity chip, and the dense tier's geometry.
    for (tier, chip) in [(Paper, 2), (Paper, 8), (Dense, 5)] {
        let mut mem = ChipkillMemory::new(128, ChipkillConfig::for_tier(tier));
        let mut rng = StdRng::seed_from_u64(0xDE6 + chip as u64);
        let blocks = mem.num_blocks();
        let mut mirror: Vec<[u8; 64]> = (0..blocks).map(pattern_block).collect();
        for (a, b) in mirror.iter().enumerate() {
            mem.write_block(a as u64, b).unwrap();
        }
        mem.fail_chip(chip, ChipFailureKind::RandomGarbage, &mut rng);
        // Detection is the demand read's: until one has named the dead
        // chip, a write's read-modify step cannot tell it from a lost
        // rank.
        assert_eq!(
            mem.write_block(0, &mirror[0]),
            Err(CoreError::Uncorrectable)
        );
        let erasure = ReadPath::ChipkillErasure { chip };
        assert_eq!(mem.read_block(0).unwrap().path, erasure);
        assert_eq!(mem.detected_failed_chip(), Some(chip));

        // From detection to repair the rank serves everything, with the
        // survivors ageing underneath.
        for step in 0..600 {
            let a = rng.gen_range(0..blocks);
            let mut new = [0u8; 64];
            rng.fill_bytes(&mut new[..]);
            match rng.gen_range(0u32..4) {
                0 => {
                    mem.write_block(a, &new).unwrap();
                    mirror[a as usize] = new;
                }
                1 => {
                    let mut sum = new;
                    for (s, o) in sum.iter_mut().zip(&mirror[a as usize]) {
                        *s ^= o;
                    }
                    mem.write_block_sum(a, &sum).unwrap();
                    mirror[a as usize] = new;
                }
                2 => mem.scrub_block(a).unwrap(),
                _ => {
                    let out = mem.read_block(a).unwrap();
                    assert_eq!(out.data, mirror[a as usize], "step {step} block {a}");
                    assert_eq!(out.path, erasure);
                }
            }
            if step % 100 == 50 {
                mem.inject_bit_errors(1e-4, &mut rng);
            }
        }
        mem.disable_block(blocks - 1).unwrap();

        mem.repair_chip(chip).unwrap();
        assert_eq!(mem.detected_failed_chip(), None);
        assert!(mem.verify_consistent(), "{tier} chip {chip}");
        for (a, want) in mirror.iter().enumerate().take(blocks as usize - 1) {
            let out = mem.read_block(a as u64).unwrap();
            assert_eq!(&out.data, want, "block {a}");
            assert_eq!(out.path, ReadPath::Clean, "block {a}");
        }
    }
}

#[test]
fn first_fallback_in_a_stripe_heals_the_whole_stripe() {
    use pmck_core::ProtectionTier;
    for tier in [ProtectionTier::Paper, ProtectionTier::Dense] {
        let mut mem = ChipkillMemory::new(256, ChipkillConfig::for_tier(tier));
        let blocks: Vec<[u8; 64]> = (0..mem.num_blocks()).map(pattern_block).collect();
        for (a, b) in blocks.iter().enumerate() {
            mem.write_block(a as u64, b).unwrap();
        }
        // Boot-level ageing everywhere, and in every stripe one block
        // pushed past the RS threshold for certain.
        mem.inject_bit_errors(1e-3, &mut StdRng::seed_from_u64(0xA6ED));
        let per_stripe = mem.layout().blocks_per_vlew() as u64;
        let stripes = mem.stripes() as u64;
        for s in 0..stripes {
            for chip in [1, 3, 8] {
                mem.corrupt_chip_byte(chip, s * per_stripe + 7, 2, 0x18);
            }
        }
        for s in 0..stripes {
            let first = s * per_stripe + 7;
            let out = mem.read_block(first).unwrap();
            assert_eq!(out.data, blocks[first as usize]);
            assert!(
                matches!(out.path, ReadPath::VlewFallback { bits_corrected } if bits_corrected > 6),
                "{tier} block {first}: {:?}",
                out.path
            );
            // That read paid for the stripe: nobody else does.
            for a in s * per_stripe..(s + 1) * per_stripe {
                let out = mem.read_block(a).unwrap();
                assert_eq!(out.data, blocks[a as usize], "block {a}");
                assert_eq!(out.path, ReadPath::Clean, "block {a}");
            }
        }
        let st = *mem.stats();
        assert_eq!((st.fallbacks, st.stripe_writebacks), (stripes, stripes));
        // Code cells were written back with the data cells: the rank is
        // consistent and a boot scrub finds nothing left.
        assert!(mem.verify_consistent());
        let report = mem.boot_scrub().unwrap();
        assert_eq!((report.bits_corrected, report.words_with_errors), (0, 0));
    }
}

#[test]
fn two_chip_failures_are_detected_not_silent() {
    let (mut mem, _) = seeded(32);
    let mut rng = StdRng::seed_from_u64(53);
    mem.fail_chip(1, ChipFailureKind::RandomGarbage, &mut rng);
    mem.fail_chip(5, ChipFailureKind::RandomGarbage, &mut rng);
    match mem.read_block(0) {
        Err(CoreError::MultiChipFailure) => {}
        Err(CoreError::Uncorrectable) => {}
        other => panic!("double chip failure must not be silently read: {other:?}"),
    }
}

#[test]
fn disabled_block_rejects_access_and_keeps_vlew_consistent() {
    let (mut mem, blocks) = seeded(64);
    mem.disable_block(9).unwrap();
    assert!(mem.is_disabled(9));
    assert!(matches!(mem.read_block(9), Err(CoreError::Disabled(9))));
    assert!(matches!(
        mem.write_block(9, &[0; 64]),
        Err(CoreError::Disabled(9))
    ));
    mem.flush_eur();
    assert!(mem.verify_consistent());
    // Neighbors in the same stripe are unaffected.
    let out = mem.read_block(8).unwrap();
    assert_eq!(out.data, blocks[8]);
    // Errors elsewhere in the stripe still correct fine.
    let mut rng = StdRng::seed_from_u64(59);
    mem.inject_bit_errors(1e-3, &mut rng);
    mem.boot_scrub().unwrap();
    assert_eq!(mem.read_block(10).unwrap().data, blocks[10]);
}

#[test]
fn scrub_block_clears_cell_errors() {
    let (mut mem, blocks) = seeded(32);
    let mut rng = StdRng::seed_from_u64(61);
    mem.inject_bit_errors(2e-3, &mut rng);
    for a in 0..mem.num_blocks() {
        mem.scrub_block(a).unwrap();
    }
    for (a, b) in blocks.iter().enumerate() {
        let out = mem.read_block(a as u64).unwrap();
        assert_eq!(&out.data, b);
        // Data and check cells are clean now (code-region errors may
        // remain, but they do not affect the per-block RS word).
        assert_eq!(out.path, ReadPath::Clean, "block {a}");
    }
}

#[test]
fn eur_coalescing_reduces_c_factor() {
    let mut mem = ChipkillMemory::new(64, ChipkillConfig::default());
    // 32 sequential writes within one stripe.
    for a in 0..32u64 {
        mem.write_block(a, &pattern_block(a)).unwrap();
    }
    mem.flush_eur();
    let c_seq = mem.c_factor();
    assert!(
        c_seq <= 9.0 / 32.0 + 1e-9,
        "sequential writes coalesce: C = {c_seq}"
    );
}

#[test]
fn out_of_range_rejected() {
    let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
    assert!(matches!(mem.read_block(32), Err(CoreError::OutOfRange(32))));
    assert!(matches!(
        mem.write_block(1000, &[0; 64]),
        Err(CoreError::OutOfRange(1000))
    ));
}

#[test]
fn capacity_rounds_to_stripes() {
    let mem = ChipkillMemory::new(33, ChipkillConfig::default());
    assert_eq!(mem.num_blocks(), 64);
    assert_eq!(mem.stripes(), 2);
}

#[test]
fn threshold_zero_always_falls_back_on_any_error() {
    let mut mem = ChipkillMemory::new(32, ChipkillConfig::with_threshold(0));
    for a in 0..32u64 {
        mem.write_block(a, &pattern_block(a)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(67);
    // Inject until some block is dirty, then every erroneous read must be
    // a fallback (threshold 0 accepts no RS corrections).
    mem.inject_bit_errors(1e-3, &mut rng);
    for a in 0..32u64 {
        let out = mem.read_block(a).unwrap();
        assert_eq!(out.data, pattern_block(a));
        assert!(
            matches!(out.path, ReadPath::Clean | ReadPath::VlewFallback { .. }),
            "path {:?}",
            out.path
        );
    }
}

#[test]
fn t_plus_one_vlew_errors_at_runtime_read_as_a_chip_failure() {
    // The VLEW decoder is bounded to t = 22: a chip word with t + 1
    // errors is rejected, so the rank degrades to erasure reads (DESIGN
    // §12.3 on why no beyond-bound decoder).
    let t = 22;
    let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
    let blocks: Vec<[u8; 64]> = (0..mem.num_blocks())
        .map(|a| {
            let b = pattern_block(a);
            mem.write_block(a, &b).unwrap();
            b
        })
        .collect();
    // t + 1 single-bit errors in chip 0's VLEW (one per block), plus one
    // bit each in chips 1 and 2 of block 0 so block 0's RS word carries
    // three bad bytes and rejects past the threshold.
    for i in 0..=t {
        mem.corrupt_chip_byte(0, i, 0, 1);
    }
    mem.corrupt_chip_byte(1, 0, 0, 1);
    mem.corrupt_chip_byte(2, 0, 0, 1);
    let out = mem.read_block(0).unwrap();
    assert_eq!(out.data, blocks[0]);
    assert_eq!(out.path, ReadPath::ChipkillErasure { chip: 0 });
    assert_eq!(mem.detected_failed_chip(), Some(0));
}

#[test]
fn boot_scrub_rebuilds_a_chip_with_t_plus_one_vlew_errors() {
    let t = 22;
    let mut mem = ChipkillMemory::new(32, ChipkillConfig::default());
    let blocks: Vec<[u8; 64]> = (0..mem.num_blocks())
        .map(|a| {
            let b = pattern_block(a);
            mem.write_block(a, &b).unwrap();
            b
        })
        .collect();
    for i in 0..=t {
        mem.corrupt_chip_byte(0, i, 0, 1);
    }
    let report = mem.boot_scrub().unwrap();
    assert_eq!(report.stripes_scrubbed, 1);
    // The overweight chip word is uncorrectable: the scrub treats chip 0
    // as failed and rebuilds it by erasure.
    assert_eq!(report.chip_rebuilt, Some(0));
    assert!(mem.verify_consistent(), "scrub restores consistency");
    for (a, b) in blocks.iter().enumerate() {
        assert_eq!(&mem.read_block(a as u64).unwrap().data, b, "block {a}");
    }
}
