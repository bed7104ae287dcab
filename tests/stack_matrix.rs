//! The composition matrix: every stack permutation the builder can
//! produce must preserve read-after-write and agree with a mirror model
//! under a short, benign `FaultSchedule` (background RBER only).
//!
//! Proposal bases run all 16 combinations of {restripeable, wear-level,
//! auto-patrol, link protection} at the paper tier, plus the 8 combos
//! without re-striping (a paper-layout mechanism) at each of the other
//! two protection tiers; baseline bases run the 8 combinations without
//! re-striping. Tiered bases run the 8 {wear, patrol, link} combos with
//! periodic tier-policy passes folded into the campaign — reads must
//! survive the migrations. Restripeable variants additionally
//! transition in place at the end of the campaign and must still read
//! back every block, and a differential leg replays one identical
//! request sequence against a tiered stack and a fixed single-tier
//! stack, asserting every read agrees.
//!
//! Every proposal and tiered variant also runs persistent: it flushes
//! at fixed rounds (a tier-policy pass right before its flush, so a
//! migration's own commit never runs ahead of the other regions), and
//! cuts power and recovers at others, after which every block must read
//! back as of the last flush — data and Start-Gap mapping alike. A
//! persistent re-stripe commits the whole new layout, so its variants
//! cut power straight after the flip and must read back everything.

use pmck::chipkill::{
    BusFault, ChipkillConfig, PmemConfig, ProtectionTier, Stack, StackBuilder, TierPolicy,
};
use pmck::nvram::FaultSchedule;
use pmck::rt::rng::{Rng, StdRng};

const BLOCKS: u64 = 96;
const ROUNDS: u64 = 120;

struct Variant {
    name: String,
    stack: Stack,
    restripeable: bool,
    tiered: bool,
    persistent: bool,
}

/// Every variant: the volatile ones first, so their seeds (their
/// positions) do not depend on the persistent copies after them.
fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    proposal_variants(&mut out, false);
    tiered_variants(&mut out, false);
    for wear in [false, true] {
        for patrol in [false, true] {
            for link in [false, true] {
                let mut b = StackBuilder::baseline(BLOCKS);
                let mut name = String::from("baseline");
                if patrol {
                    b = b.patrolled(3, 16);
                    name.push_str("+patrol");
                }
                if wear {
                    b = b.wear_levelled(4);
                    name.push_str("+wearlevel");
                }
                if link {
                    b = b.link_protected(BusFault { ber: 1e-6 }, 8);
                    name.push_str("+link");
                }
                out.push(Variant {
                    stack: b.seed(0xBA5E ^ out.len() as u64).build(),
                    name,
                    restripeable: false,
                    tiered: false,
                    persistent: false,
                });
            }
        }
    }
    proposal_variants(&mut out, true);
    tiered_variants(&mut out, true);
    out
}

fn with_persistence(b: StackBuilder, name: &mut String, persistent: bool) -> StackBuilder {
    if !persistent {
        return b;
    }
    name.push_str("+pmem");
    b.persistent(PmemConfig::default())
}

fn proposal_variants(out: &mut Vec<Variant>, persistent: bool) {
    for tier in ProtectionTier::ALL {
        for restripe in [false, true] {
            // The §V-E re-stripe flip is a paper-layout mechanism.
            if restripe && tier != ProtectionTier::Paper {
                continue;
            }
            for wear in [false, true] {
                for patrol in [false, true] {
                    for link in [false, true] {
                        let mut b = StackBuilder::proposal(BLOCKS, ChipkillConfig::for_tier(tier));
                        let mut name = format!("proposal:{}", tier.as_str());
                        if restripe {
                            b = b.restripeable();
                            name.push_str("+restripe");
                        }
                        if patrol {
                            b = b.patrolled(3, 16);
                            name.push_str("+patrol");
                        }
                        if wear {
                            b = b.wear_levelled(4);
                            name.push_str("+wearlevel");
                        }
                        if link {
                            b = b.link_protected(BusFault { ber: 1e-6 }, 8);
                            name.push_str("+link");
                        }
                        b = with_persistence(b, &mut name, persistent);
                        out.push(Variant {
                            stack: b.seed(0xA11 ^ out.len() as u64).build(),
                            name,
                            restripeable: restripe,
                            tiered: false,
                            persistent,
                        });
                    }
                }
            }
        }
    }
}

/// Tiered bases: the adaptive policy owns the rank layout, so no
/// re-stripe; the campaign folds tier-policy passes in instead.
fn tiered_variants(out: &mut Vec<Variant>, persistent: bool) {
    for wear in [false, true] {
        for patrol in [false, true] {
            for link in [false, true] {
                let mut b = StackBuilder::proposal(BLOCKS, ChipkillConfig::default())
                    .tiered(3, TierPolicy::default());
                let mut name = String::from("tiered");
                if patrol {
                    b = b.patrolled(3, 16);
                    name.push_str("+patrol");
                }
                if wear {
                    b = b.wear_levelled(4);
                    name.push_str("+wearlevel");
                }
                if link {
                    b = b.link_protected(BusFault { ber: 1e-6 }, 8);
                    name.push_str("+link");
                }
                b = with_persistence(b, &mut name, persistent);
                out.push(Variant {
                    stack: b.seed(0x71E2 ^ out.len() as u64).build(),
                    name,
                    restripeable: false,
                    tiered: true,
                    persistent,
                });
            }
        }
    }
}

fn pattern(block: u64, version: u32) -> [u8; 64] {
    let mut data = [0u8; 64];
    for (i, byte) in data.iter_mut().enumerate() {
        *byte = (block as u8)
            .wrapping_mul(53)
            .wrapping_add((version as u8).wrapping_mul(11))
            .wrapping_add(i as u8);
    }
    data
}

/// Reads every block back against the mirror.
fn sweep(name: &str, stack: &mut Stack, versions: &[u32], when: &str) {
    for block in 0..BLOCKS {
        let out = stack
            .read(block)
            .unwrap_or_else(|e| panic!("{name}: {when} read of {block} failed: {e}"));
        assert_eq!(
            out.data,
            pattern(block, versions[block as usize]),
            "{name}: {when} sweep diverged at block {block}"
        );
    }
}

/// Flushes and checks the flush left the staged image equal to the live
/// arrays; the flushed mirror becomes what a power cut returns to.
fn flush(name: &str, stack: &mut Stack, versions: &[u32], durable: &mut Vec<u32>, when: &str) {
    stack
        .flush()
        .unwrap_or_else(|e| panic!("{name}: {when} flush failed: {e}"));
    assert_eq!(
        stack.staging_matches_live(),
        Some(true),
        "{name}: {when} flush left staging behind the live arrays"
    );
    *durable = versions.to_vec();
}

/// Cuts power and recovers; the mirror falls back to its flushed state.
fn cut_and_recover(
    name: &str,
    stack: &mut Stack,
    versions: &mut [u32],
    durable: &[u32],
    when: &str,
) {
    stack
        .power_cut()
        .unwrap_or_else(|e| panic!("{name}: {when} power cut failed: {e}"));
    stack
        .recover()
        .unwrap_or_else(|e| panic!("{name}: {when} recovery failed: {e}"));
    versions.copy_from_slice(durable);
}

/// A benign campaign: low background RBER from cycle 0, ramping slightly
/// through the middle — nothing a healthy stack cannot correct inline.
fn benign_schedule() -> FaultSchedule {
    FaultSchedule::parse(
        "at 0 rber 1e-7\n\
         ramp 30..90 rber 1e-7..8e-7\n",
    )
    .expect("benign schedule must parse")
}

#[test]
fn every_stack_permutation_preserves_read_after_write() {
    let schedule = benign_schedule();
    for variant in &mut variants() {
        let Variant {
            name,
            stack,
            restripeable,
            tiered,
            persistent,
        } = variant;
        let mut rng = StdRng::seed_from_u64(0x3A7A ^ name.len() as u64);
        let mut versions = vec![0u32; BLOCKS as usize];
        assert_eq!(stack.num_blocks(), BLOCKS, "{name}: logical capacity");

        for block in 0..BLOCKS {
            stack
                .write(block, &pattern(block, 0))
                .unwrap_or_else(|e| panic!("{name}: fill of block {block} failed: {e}"));
        }
        let mut durable = Vec::new();
        if *persistent {
            flush(name, stack, &versions, &mut durable, "fill");
        }

        // A persistent variant's flushes and cuts are what it adds; a
        // third of the rounds keeps the file's runtime near the volatile
        // matrix's. They end on the tier pass and a flush.
        let rounds = if *persistent { ROUNDS / 3 } else { ROUNDS };
        for round in 0..rounds {
            let block = rng.gen_range(0..BLOCKS);
            match rng.gen_range(0u32..4) {
                0 | 1 => {
                    versions[block as usize] += 1;
                    let data = pattern(block, versions[block as usize]);
                    stack
                        .write(block, &data)
                        .unwrap_or_else(|e| panic!("{name}: round {round} write failed: {e}"));
                    // Read-after-write: the block must echo immediately.
                    let out = stack
                        .read(block)
                        .unwrap_or_else(|e| panic!("{name}: round {round} readback failed: {e}"));
                    assert_eq!(out.data, data, "{name}: round {round} read-after-write");
                }
                2 => {
                    let out = stack
                        .read(block)
                        .unwrap_or_else(|e| panic!("{name}: round {round} read failed: {e}"));
                    assert_eq!(
                        out.data,
                        pattern(block, versions[block as usize]),
                        "{name}: round {round} diverged from the mirror"
                    );
                }
                _ => {
                    let rber = schedule.rber_at(round);
                    stack
                        .inject_bit_errors(rber)
                        .unwrap_or_else(|e| panic!("{name}: round {round} inject failed: {e}"));
                }
            }
            // Tiered bases take a policy pass mid-campaign; reads after
            // it must survive whatever migrations the measured RBER
            // triggered.
            if *tiered && round % 40 == 39 {
                stack
                    .tier_step()
                    .unwrap_or_else(|e| panic!("{name}: round {round} tier step failed: {e}"));
            }
            // Persistent variants flush after any tier pass of the same
            // round, so a migration's own commit never runs ahead of the
            // other regions' durable state.
            if *persistent && round % 20 == 19 {
                flush(
                    name,
                    stack,
                    &versions,
                    &mut durable,
                    &format!("round {round}"),
                );
            }
            if *persistent && round % 20 == 9 {
                let when = format!("round {round}");
                cut_and_recover(name, stack, &mut versions, &durable, &when);
            }
        }
        // The last cut recovers whatever the tier pass migrated.
        if *persistent {
            cut_and_recover(name, stack, &mut versions, &durable, "closing");
        }

        sweep(name, stack, &versions, "closing");

        // Tiered permutations must have actually migrated under the
        // benign schedule (pristine regions settle onto rs-only).
        if *tiered {
            let report = stack.tier_report().expect("tiered base reports a census");
            assert!(
                report.migrations >= 1,
                "{name}: the campaign never exercised a migration"
            );
        }

        // Restripeable permutations must also survive the in-place §V-E
        // transition with the mirror intact.
        if *restripeable {
            stack
                .restripe()
                .unwrap_or_else(|e| panic!("{name}: restripe failed: {e}"));
            if *persistent {
                assert_eq!(stack.staging_matches_live(), Some(true), "{name}: flip");
                let durable = versions.clone();
                cut_and_recover(name, stack, &mut versions, &durable, "post-flip");
            }
            sweep(name, stack, &versions, "post-restripe");
        }
    }
}

/// Differential replay: one identical request sequence runs against a
/// three-region tiered stack (tier-policy passes folded in) and a fixed
/// single-tier stack. Tier migrations are a protection-layout concern
/// only — every read must agree between the two, before and after the
/// regions settle onto their measured tiers.
#[test]
fn tiered_replay_is_differentially_equivalent_to_single_tier() {
    let schedule = benign_schedule();
    let mut tiered = StackBuilder::proposal(BLOCKS, ChipkillConfig::default())
        .tiered(3, TierPolicy::default())
        .seed(0xD1FF)
        .build();
    let mut fixed = StackBuilder::proposal(BLOCKS, ChipkillConfig::default())
        .seed(0xD1FF)
        .build();
    let mut rng = StdRng::seed_from_u64(0x0DD_B175);

    for block in 0..BLOCKS {
        let data = pattern(block, 0);
        tiered.write(block, &data).unwrap();
        fixed.write(block, &data).unwrap();
    }
    let mut migrations = 0u64;
    for round in 0..ROUNDS {
        let block = rng.gen_range(0..BLOCKS);
        match rng.gen_range(0u32..4) {
            0 | 1 => {
                let data = pattern(block, round as u32 + 1);
                tiered.write(block, &data).unwrap();
                fixed.write(block, &data).unwrap();
            }
            2 => {
                let a = tiered.read(block).unwrap();
                let b = fixed.read(block).unwrap();
                assert_eq!(
                    a.data, b.data,
                    "round {round}: replay diverged at block {block}"
                );
            }
            _ => {
                let rber = schedule.rber_at(round);
                tiered.inject_bit_errors(rber).unwrap();
                fixed.inject_bit_errors(rber).unwrap();
            }
        }
        if round % 24 == 23 {
            migrations += tiered.tier_step().unwrap().migrations;
        }
    }
    assert!(migrations >= 1, "the replay never exercised a migration");
    for block in 0..BLOCKS {
        let a = tiered.read(block).unwrap();
        let b = fixed.read(block).unwrap();
        assert_eq!(a.data, b.data, "closing sweep diverged at block {block}");
    }
}
