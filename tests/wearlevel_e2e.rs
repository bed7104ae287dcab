//! Wear management end to end: Start-Gap leveling + patrol scrubbing +
//! block disabling + a chip failure, all composed on one rank.

use pmck::chipkill::{
    AccessContext, BlockDevice, ChipFailureKind, ChipkillConfig, PatrolScrubber, Request,
    WearLevelledMemory,
};
use pmck::nvram::{WearModel, WearState};
use pmck_rt::rng::Rng;
use pmck_rt::rng::StdRng;

fn put(mem: &mut WearLevelledMemory, ctx: &mut AccessContext, addr: u64, data: &[u8; 64]) {
    mem.access(Request::Write { addr, data: *data }, ctx)
        .unwrap();
}

fn get(mem: &mut WearLevelledMemory, ctx: &mut AccessContext, addr: u64) -> [u8; 64] {
    let out = mem.access(Request::Read(addr), ctx).unwrap();
    out.read().expect("a read outcome").data
}

#[test]
fn leveling_plus_patrol_plus_errors() {
    let mut rng = StdRng::seed_from_u64(51);
    let mut mem = WearLevelledMemory::new(63, ChipkillConfig::default(), 4);
    let mut ctx = AccessContext::scratch();
    let mut truth = vec![[0u8; 64]; 63];
    for l in 0..63u64 {
        let mut v = [0u8; 64];
        rng.fill_bytes(&mut v[..]);
        put(&mut mem, &mut ctx, l, &v);
        truth[l as usize] = v;
    }
    let mut patrol = PatrolScrubber::new(16);
    for round in 0..40u64 {
        // Hot updates.
        for _ in 0..8 {
            let l = rng.gen_range(0..8);
            let mut v = [0u8; 64];
            rng.fill_bytes(&mut v[..]);
            put(&mut mem, &mut ctx, l, &v);
            truth[l as usize] = v;
        }
        // Runtime errors trickle in; patrol cleans behind them.
        mem.inner_mut().inject_bit_errors(5e-5, &mut rng);
        patrol.step(mem.inner_mut()).unwrap();
        let _ = round;
    }
    for (l, v) in truth.iter().enumerate() {
        assert_eq!(&get(&mut mem, &mut ctx, l as u64), v, "logical {l}");
    }
    assert!(mem.gap_moves() > 50);
}

#[test]
fn chip_failure_under_wear_leveling() {
    let mut rng = StdRng::seed_from_u64(53);
    let mut mem = WearLevelledMemory::new(31, ChipkillConfig::default(), 2);
    let mut ctx = AccessContext::scratch();
    let mut truth = vec![[0u8; 64]; 31];
    for l in 0..31u64 {
        let mut v = [0u8; 64];
        rng.fill_bytes(&mut v[..]);
        put(&mut mem, &mut ctx, l, &v);
        truth[l as usize] = v;
    }
    // Rotate a while, then kill a chip.
    for i in 0..100u64 {
        let l = i % 31;
        let mut v = [0u8; 64];
        rng.fill_bytes(&mut v[..]);
        put(&mut mem, &mut ctx, l, &v);
        truth[l as usize] = v;
    }
    mem.inner_mut()
        .fail_chip(3, ChipFailureKind::RandomGarbage, &mut rng);
    // Reads still resolve through the remap + erasure correction.
    for (l, v) in truth.iter().enumerate() {
        assert_eq!(&get(&mut mem, &mut ctx, l as u64), v, "logical {l}");
    }
    // Rebuild and confirm clean operation resumes (including gap moves,
    // which read+write through the engine).
    mem.inner_mut().repair_chip(3).unwrap();
    for i in 0..50u64 {
        let l = i % 31;
        put(&mut mem, &mut ctx, l, &truth[l as usize]);
    }
    assert!(mem.inner_mut().verify_consistent());
}

#[test]
fn wear_accounting_drives_disabling_decision() {
    // The §V-E loop: account amplified writes, disable at the wear
    // threshold, and verify the levelled rank spreads writes enough to
    // delay that point.
    let model = WearModel {
        endurance: 2_000,
        gamma: 2.0,
        p_max: 1.0,
    };
    // Unlevelled: all writes hit one physical block.
    let mut hot_state = WearState::new();
    for _ in 0..1_500u64 {
        hot_state.record_writes(1 + 33 / 8);
    }
    assert!(model.is_worn_out(hot_state.writes(), 0.5));

    // Levelled: the same write stream spreads over many slots.
    let mut mem = WearLevelledMemory::new(15, ChipkillConfig::default(), 1);
    let mut ctx = AccessContext::scratch();
    let mut per_slot: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for i in 0..1_500u64 {
        let phys = mem.physical_of(3);
        *per_slot.entry(phys).or_insert(0) += 1 + 33 / 8;
        put(&mut mem, &mut ctx, 3, &[i as u8; 64]);
    }
    let worst = per_slot.values().copied().max().unwrap();
    assert!(
        !model.is_worn_out(worst, 0.5),
        "leveling keeps the hottest slot below wear-out: {worst} writes"
    );
}
