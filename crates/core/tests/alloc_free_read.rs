//! Proves the read path — clean, RS-corrected, VLEW fallback and
//! chip-failure erasure alike, and the baseline and re-striped layouts'
//! single-tier reads —
//! performs zero heap allocations after warm-up, using a counting
//! `#[global_allocator]`.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counter is process-global, so a second test running in a parallel
//! thread would pollute the measurement window.

use pmck_bch::{BchCode, BchScratch};
use pmck_core::{
    BaselineMemory, ChipFailureKind, ChipkillConfig, ChipkillMemory, ReadPath, Request,
    RestripedMemory, StackBuilder,
};
use pmck_rt::alloc::{count, CountingAlloc};
use pmck_rt::rng::StdRng;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one read of every block, each checked against the
/// pattern this test writes.
fn sweep(blocks: u64, mut read: impl FnMut(u64) -> [u8; 64]) -> u64 {
    count(|| {
        for a in 0..blocks {
            assert_eq!(read(a), [a as u8; 64]);
        }
    })
}

#[test]
fn clean_read_path_is_allocation_free_after_warmup() {
    // --- Engine-direct: ChipkillMemory::read_block on clean blocks. ---
    let blocks = 64u64;
    let mut mem = ChipkillMemory::new(blocks, ChipkillConfig::default());
    for a in 0..blocks {
        mem.write_block(a, &[a as u8; 64]).unwrap();
    }
    // Warm-up pass (first reads may fault in lazily-built state).
    for a in 0..blocks {
        assert!(matches!(mem.read_block(a).unwrap().path, ReadPath::Clean));
    }
    let engine_allocs = count(|| {
        for _ in 0..4 {
            for a in 0..blocks {
                let out = mem.read_block(a).unwrap();
                assert!(matches!(out.path, ReadPath::Clean));
                assert_eq!(out.data, [a as u8; 64]);
            }
        }
    });
    assert_eq!(
        engine_allocs,
        0,
        "clean ChipkillMemory::read_block must not allocate after warm-up \
         (counted {engine_allocs} allocations over {} reads)",
        4 * blocks
    );

    // --- Full pipeline: wear-levelling + patrol scrub over the engine.
    // The composed BlockDevice stack must preserve the property (patrol
    // scrubs of clean blocks are allocation-free too). ---
    let mut stack = StackBuilder::proposal(blocks, ChipkillConfig::default())
        .wear_levelled(1 << 20) // remap interval beyond this test's writes
        .patrolled(4, 16)
        .seed(7)
        .build();
    for a in 0..stack.num_blocks() {
        stack.write(a, &[a as u8; 64]).unwrap();
    }
    // Warm-up: enough reads to run the patrol scheduler through several
    // full cycles and fill every lazily-grown context buffer.
    for round in 0..4u64 {
        for a in 0..stack.num_blocks() {
            let _ = (round, stack.read(a).unwrap());
        }
    }
    let n = stack.num_blocks();
    let stack_allocs = count(|| {
        for _ in 0..4 {
            for a in 0..n {
                let out = stack.read(a).unwrap();
                assert!(matches!(out.path, ReadPath::Clean));
            }
        }
    });
    assert_eq!(
        stack_allocs,
        0,
        "clean reads through the full wear-levelled + patrolled stack must \
         not allocate after warm-up (counted {stack_allocs} allocations over \
         {} reads)",
        4 * n
    );

    // --- The `Request` form every production caller uses: the same
    // reads as `stack.submit(&Request::Read(a))`. ---
    let submit_allocs = count(|| {
        for _ in 0..4 {
            for a in 0..n {
                let out = stack.submit(&Request::Read(a)).unwrap().read().unwrap();
                assert!(matches!(out.path, ReadPath::Clean));
            }
        }
    });
    assert_eq!(
        submit_allocs,
        0,
        "clean Stack::submit(Request::Read) must not allocate after warm-up \
         (counted {submit_allocs} allocations over {} reads)",
        4 * n
    );

    // --- VLEW fallback: three single-bit symbol errors in a block exceed
    // the RS acceptance threshold, so its read decodes the whole stripe.
    // Every fourth block is aged that way (8 flips per VLEW, well inside
    // t = 22). The first such read in a stripe writes the corrected
    // stripe back, so it is the only fallback the stripe costs: the rest
    // of the lap and the whole next lap are clean. One aged lap is the
    // warm-up; the cells are then aged again and the laps counted. ---
    let per_stripe = mem.layout().blocks_per_vlew() as u64;
    let age = |mem: &mut ChipkillMemory| {
        for a in (0..blocks).step_by(4) {
            for chip in 0..3 {
                mem.corrupt_chip_byte(chip, a, 0, 0x01);
            }
        }
    };
    age(&mut mem);
    for a in 0..blocks {
        mem.read_block(a).unwrap();
    }
    age(&mut mem);
    let healed_before = mem.stats().stripe_writebacks;
    let fallback_allocs = count(|| {
        for lap in 0..2 {
            for a in 0..blocks {
                let out = mem.read_block(a).unwrap();
                if lap == 0 && a % per_stripe == 0 {
                    let healing = matches!(
                        out.path,
                        ReadPath::VlewFallback { bits_corrected } if bits_corrected > 0
                    );
                    assert!(healing, "block {a}: {:?}", out.path);
                } else {
                    assert_eq!(out.path, ReadPath::Clean, "lap {lap} block {a}");
                }
                assert_eq!(out.data, [a as u8; 64]);
            }
        }
    });
    assert_eq!(
        mem.stats().stripe_writebacks - healed_before,
        blocks / per_stripe,
        "one write-back per aged stripe"
    );
    assert_eq!(
        fallback_allocs,
        0,
        "VLEW-fallback reads and their write-backs must not allocate after \
         warm-up (counted {fallback_allocs} allocations over {} reads)",
        2 * blocks
    );

    // --- RS-accepted: one bad byte in some blocks, two bytes in
    // different chips in others, both inside the acceptance threshold.
    // Such reads are not written back, so both laps take the same path;
    // a scrub clears the cells afterwards. ---
    for a in 0..blocks {
        match a % 4 {
            1 => mem.corrupt_chip_byte((a / 4) as usize % 8, a, 3, 0x40),
            3 => {
                mem.corrupt_chip_byte(2, a, 0, 0x81);
                mem.corrupt_chip_byte(5, a, 7, 0x02);
            }
            _ => {}
        }
    }
    let rs_allocs = count(|| {
        for _ in 0..2 {
            for a in 0..blocks {
                let out = mem.read_block(a).unwrap();
                let want = match a % 4 {
                    1 => ReadPath::RsCorrected { corrections: 1 },
                    3 => ReadPath::RsCorrected { corrections: 2 },
                    _ => ReadPath::Clean,
                };
                assert_eq!(out.path, want, "block {a}");
                assert_eq!(out.data, [a as u8; 64]);
            }
        }
    });
    assert_eq!(
        rs_allocs,
        0,
        "RS-corrected reads must not allocate (counted {rs_allocs} \
         allocations over {} reads)",
        2 * blocks
    );
    for a in 0..blocks {
        mem.scrub_block(a).unwrap();
    }

    // --- Chip failure: the first read detects it; from then on every
    // read is served by erasure correction over the eight survivors. ---
    let mut rng = StdRng::seed_from_u64(17);
    mem.fail_chip(3, ChipFailureKind::RandomGarbage, &mut rng);
    let erasure = ReadPath::ChipkillErasure { chip: 3 };
    assert_eq!(mem.read_block(0).unwrap().path, erasure);
    assert_eq!(mem.detected_failed_chip(), Some(3));
    let erasure_allocs = count(|| {
        for a in 0..blocks {
            let out = mem.read_block(a).unwrap();
            assert_eq!(out.path, erasure);
            assert_eq!(out.data, [a as u8; 64]);
        }
    });
    assert_eq!(
        erasure_allocs, 0,
        "erasure reads under a known-failed chip must not allocate after \
         warm-up (counted {erasure_allocs} allocations over {blocks} reads)"
    );

    // --- The §V-E re-striped layout built from that failed rank, clean
    // and then aged: a read decodes its 4-block group in the layout's
    // own codeword and scratch, and writes a corrected group back. ---
    let mut restriped = RestripedMemory::from_failed_rank(&mut mem).unwrap();
    let clean = sweep(blocks, |a| restriped.read_block(a).unwrap());
    restriped.inject_bit_errors(1e-3, &mut rng);
    let aged = sweep(blocks, |a| restriped.read_block(a).unwrap());
    assert!(restriped.bits_corrected() > 0, "the sweep met the errors");
    assert_eq!(
        (clean, aged),
        (0, 0),
        "RestripedMemory::read_block must not allocate on clean or \
         bit-errored groups ({blocks} reads each)"
    );

    // --- The §III-A baseline: per-block BCH, same two sweeps (its reads
    // do not heal). ---
    let mut baseline = BaselineMemory::new(blocks);
    for a in 0..blocks {
        baseline.write_block(a, &[a as u8; 64]).unwrap();
    }
    let clean = sweep(blocks, |a| baseline.read_block(a).unwrap().data);
    baseline.inject_bit_errors(1e-3, &mut rng);
    let mut corrected = 0;
    let aged = sweep(blocks, |a| {
        let out = baseline.read_block(a).unwrap();
        corrected += out.bits_corrected;
        out.data
    });
    assert!(corrected > 0, "the sweep met the errors");
    assert_eq!(
        (clean, aged),
        (0, 0),
        "BaselineMemory::read_block must not allocate on clean or \
         bit-errored blocks ({blocks} reads each)"
    );

    // --- Errorful BCH decode: the scratch-based decoder (syndromes_into,
    // bit-sliced Chien search, in-place correction) must be
    // allocation-free per word once the scratch exists. This pins the
    // whole errorful path, not just the clean syndrome check. ---
    let code = BchCode::vlew();
    let mut scratch = BchScratch::new(&code);
    let clean = code.encode_bytes(&[0x5A; 256]);
    let mut word = clean.clone();
    // Warm-up: one decode at each weight exercised below.
    for w in 1..=5usize {
        word.copy_from(&clean);
        for j in 0..w {
            word.flip(j * 97);
        }
        code.decode_scratch(&mut word, &mut scratch).unwrap();
    }
    let decode_allocs = count(|| {
        for round in 0..32usize {
            word.copy_from(&clean);
            let w = 1 + round % 5;
            for j in 0..w {
                word.flip((round * 53 + j * 97) % code.len());
            }
            let view = code.decode_scratch(&mut word, &mut scratch).unwrap();
            assert_eq!(view.num_corrected(), w);
            assert_eq!(word, clean);
        }
    });
    assert_eq!(
        decode_allocs, 0,
        "errorful BchCode::decode_scratch must not allocate per word \
         (counted {decode_allocs} allocations over 32 decodes)"
    );
}
