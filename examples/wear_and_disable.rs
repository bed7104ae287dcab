//! Wear-out handling (§V-E): Start-Gap wear leveling spreads hot writes,
//! worn blocks are disabled under the VLEW, and the rest of the stripe
//! stays fully protected.
//!
//! ```text
//! cargo run --example wear_and_disable
//! ```

use pmck::chipkill::{
    AccessContext, BlockDevice, ChipkillConfig, ChipkillMemory, CoreError, Request,
    WearLevelledMemory,
};
use pmck::nvram::{WearModel, WearState};
use pmck_rt::rng::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = WearModel {
        endurance: 10_000,
        gamma: 3.0,
        p_max: 1.0,
    };
    let mut mem = ChipkillMemory::new(128, ChipkillConfig::default());
    let mut wear: Vec<WearState> = (0..mem.num_blocks()).map(|_| WearState::new()).collect();

    // Seed data.
    for a in 0..mem.num_blocks() {
        mem.write_block(a, &[a as u8; 64]).expect("in range");
    }

    // Hammer a handful of hot blocks; account amplified code-bit writes
    // exactly the way §V-E does (33B/8B extra per coalesced VLEW update).
    let hot = [7u64, 8, 9];
    for round in 0..9_000u64 {
        for &a in &hot {
            let val = [(round % 251) as u8; 64];
            mem.write_block(a, &val).expect("in range");
            wear[a as usize].record_writes(1 + 33 / 8);
        }
    }

    // Disable blocks whose wear-induced error probability crosses 1%.
    let mut disabled = Vec::new();
    for a in 0..mem.num_blocks() {
        if model.is_worn_out(wear[a as usize].writes(), 0.01) {
            mem.disable_block(a).expect("disable");
            wear[a as usize].disable();
            disabled.push(a);
        }
    }
    println!("disabled worn blocks: {disabled:?}");
    assert_eq!(disabled, hot);

    // Disabled blocks reject access…
    for &a in &hot {
        assert!(matches!(mem.read_block(a), Err(CoreError::Disabled(_))));
    }
    // …while their stripe remains fully protected: inject boot-level
    // errors and scrub.
    let injected = mem.inject_bit_errors(1e-3, &mut rng);
    let report = mem.boot_scrub().expect("scrub succeeds with holes");
    println!(
        "{injected} bits injected, {} corrected with {} disabled blocks in place",
        report.bits_corrected,
        disabled.len()
    );
    for a in 0..mem.num_blocks() {
        if disabled.contains(&a) {
            continue;
        }
        assert_eq!(mem.read_block(a).expect("readable").data, [a as u8; 64]);
    }
    assert!(mem.verify_consistent());
    println!("all surviving blocks intact; VLEWs consistent around the holes.");

    // --- Start-Gap wear leveling (§V-E, [87]) ---
    // The same hot-write hammering, but behind the remap layer: the hot
    // logical block rotates through many physical slots, dividing
    // per-cell wear by the rotation factor.
    let mut levelled = WearLevelledMemory::new(63, ChipkillConfig::default(), 8);
    let mut ctx = AccessContext::new(5);
    let mut touched = std::collections::HashSet::new();
    for round in 0..4000u64 {
        touched.insert(levelled.physical_of(7));
        let data = [(round % 256) as u8; 64];
        levelled
            .access(Request::Write { addr: 7, data }, &mut ctx)
            .expect("in range");
    }
    println!(
        "start-gap: hot logical block 7 rotated through {} physical slots ({} gap moves)",
        touched.len(),
        levelled.gap_moves()
    );
    assert!(touched.len() >= 8);
    // Data integrity under leveling + errors.
    levelled
        .access(Request::InjectRber(2e-4), &mut ctx)
        .expect("injectable");
    let out = levelled
        .access(Request::Read(7), &mut ctx)
        .expect("readable");
    assert_eq!(
        out.read().expect("a read outcome").data[0],
        ((4000 - 1) % 256) as u8
    );
    println!("levelled rank reads back the latest value through the remap + ECC stack.");
}
