//! Quickstart: the proposal in five minutes.
//!
//! Builds a small chipkill-protected persistent-memory rank, walks the
//! runtime read path (clean → RS-corrected → VLEW fallback), survives a
//! simulated power outage via the boot scrub, and survives a chip kill.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pmck::chipkill::{ChipFailureKind, ChipkillConfig, ChipkillMemory, ReadPath};
use pmck_rt::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);

    // A rank of 9 NVRAM chips (8 data + 1 parity) holding 256 blocks.
    let mut mem = ChipkillMemory::new(256, ChipkillConfig::default());
    println!(
        "rank: {} blocks, {} stripes, storage cost {:.1}%",
        mem.num_blocks(),
        mem.stripes(),
        mem.layout().total_storage_cost() * 100.0
    );

    // Write a recognizable pattern.
    for a in 0..mem.num_blocks() {
        let mut block = [0u8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (a as u8) ^ (i as u8);
        }
        mem.write_block(a, &block).expect("in range");
    }

    // Runtime: a refreshed system sees RBER ~2e-4; reads sail through the
    // per-block RS tier.
    mem.inject_bit_errors(2e-4, &mut rng);
    let mut paths = [0u32; 3];
    for a in 0..mem.num_blocks() {
        match mem.read_block(a).expect("correctable").path {
            ReadPath::Clean => paths[0] += 1,
            ReadPath::RsCorrected { .. } => paths[1] += 1,
            ReadPath::VlewFallback { .. } => paths[2] += 1,
            ReadPath::ChipkillErasure { .. } | ReadPath::BitCorrected { .. } => {
                unreachable!("no chip failed and the proposal has no bit-only tier")
            }
        }
    }
    println!(
        "runtime reads: {} clean, {} RS-corrected, {} VLEW fallbacks",
        paths[0], paths[1], paths[2]
    );

    // A long outage: a week unrefreshed pushes RBER to ~1e-3. The boot
    // scrub decodes every VLEW and restores full consistency.
    let outage_rber = pmck::nvram::rber_at(pmck::nvram::MemoryTech::Pcm3Bit, 7.0 * 86400.0);
    let injected = mem.inject_bit_errors(outage_rber, &mut rng);
    let report = mem.boot_scrub().expect("scrub recovers");
    println!(
        "boot scrub after outage (RBER {outage_rber:.1e}): {injected} bits injected, {} corrected",
        report.bits_corrected
    );
    assert!(mem.verify_consistent());

    // Chipkill: kill a whole data chip; the first read detects it and
    // erasure-corrects through the parity chip.
    mem.fail_chip(3, ChipFailureKind::RandomGarbage, &mut rng);
    let out = mem.read_block(42).expect("erasure-corrected");
    println!("after chip 3 failure: read path {:?}", out.path);
    mem.repair_chip(3).expect("rebuild");
    println!("chip 3 rebuilt; consistent: {}", mem.verify_consistent());

    // All data still exactly what we wrote.
    for a in 0..mem.num_blocks() {
        let got = mem.read_block(a).expect("clean").data;
        for (i, b) in got.iter().enumerate() {
            assert_eq!(*b, (a as u8) ^ (i as u8));
        }
    }
    println!("all {} blocks verified — no data loss.", mem.num_blocks());
}
