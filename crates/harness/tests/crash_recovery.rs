//! Power-cut crash-recovery campaign over the persistence domain.
//!
//! For every [`CrashPlan`] the property runs the two-run protocol:
//!
//! 1. **Reference run** — build a persistent stack, bring it to the
//!    operation's checkpoint (filled, prerequisites injected, flushed),
//!    mirror its contents (`pre`), run the durable operation while
//!    counting fuse steps (`S` = durable 8-byte chunk writes), mirror
//!    again (`post`).
//! 2. **Cut run** — rebuild identically through the checkpoint, arm the
//!    media fuse at `k ∈ [0, S]`, run the same operation (the media dies
//!    silently after `k` chunk writes), cut power, recover, and read
//!    every block back.
//!
//! The invariant: recovery must always succeed, every block must decode
//! cleanly, and the recovered image must equal the `pre` mirror or the
//! `post` mirror *wholly* — a torn mixture of the two is a failed
//! crash-atomicity guarantee.
//!
//! Reference runs are cached per `(op, seed)`, so the campaign affords
//! thousands of cut points. Failures shrink (toward early cuts) and
//! persist into `tests/corpus/` like every other property in the
//! workspace; the checked-in crafted entries pin the torn re-stripe
//! map-commit (a cut between the stripe writes and the final meta-line
//! chunks), the matching tail of a tier migration's commit fence, and
//! a cut before the flush that would have persisted a read's stripe
//! write-back.
//!
//! The tier-migrate leg additionally asserts the recovered *census*:
//! the region must come back at exactly the pre- or post-migration
//! tier, and the tier must agree with whichever image recovered.

use std::cell::RefCell;
use std::collections::HashMap;

use pmck_core::{
    ChipFailureKind, ChipkillConfig, PmemConfig, ProtectionTier, Request, Stack, StackBuilder,
    TierPolicy,
};
use pmck_harness::{CrashOp, CrashPlan, FaultEvent, FaultKind, Runner};
use pmck_rt::rng::StdRng;
use pmck_rt::Rng;

const BLOCKS: u64 = 16;
/// Seeds per operation; keys the reference-run cache.
const SEEDS_PER_OP: u64 = 3;
/// Fresh cases to generate — the acceptance floor is 2,000 cut points.
const CASES: usize = 2_048;
/// Additional read-heal cuts, past the `CASES` draws.
const HEAL_CASES: usize = 256;

fn build(op: CrashOp, seed: u64) -> Stack {
    let builder =
        StackBuilder::proposal(BLOCKS, ChipkillConfig::default()).persistent(PmemConfig::default());
    let builder = match op {
        // Small interval so the op's write burst actually moves the gap.
        CrashOp::StartGap => builder.wear_levelled(4),
        CrashOp::Restripe => builder.restripeable(),
        // One region: the fuse hook targets region 0's media, and a
        // single region keeps every durable step on the armed domain.
        CrashOp::TierMigrate => builder.tiered(1, TierPolicy::default()),
        _ => builder,
    };
    builder.seed(seed).build()
}

fn pattern(seed: u64, addr: u64, salt: u8) -> [u8; 64] {
    let mut data = [0u8; 64];
    for (i, byte) in data.iter_mut().enumerate() {
        *byte = (seed as u8)
            .wrapping_mul(97)
            .wrapping_add((addr as u8).wrapping_mul(31))
            .wrapping_add(i as u8)
            ^ salt;
    }
    data
}

fn chip_kill(chip: usize) -> Request {
    Request::Fault(FaultEvent {
        at_cycle: 0,
        kind: FaultKind::ChipKill {
            chip,
            kind: ChipFailureKind::RandomGarbage,
        },
    })
}

/// Brings a fresh stack to the operation's checkpoint: filled with the
/// seed pattern, prerequisite faults injected, everything flushed. The
/// checkpoint is the `pre` recovery target.
fn checkpoint(op: CrashOp, seed: u64) -> Result<Stack, String> {
    let mut stack = build(op, seed);
    for addr in 0..BLOCKS {
        let data = pattern(seed, addr, 0x00);
        stack
            .submit(&Request::Write { addr, data })
            .map_err(|e| format!("checkpoint write {addr}: {e}"))?;
    }
    if op == CrashOp::Restripe {
        // The re-stripe needs a dead rank, and the flip must start from
        // a durable state that already knows about it.
        stack
            .submit(&chip_kill(2))
            .map_err(|e| format!("checkpoint fault: {e}"))?;
    }
    if op == CrashOp::ReadHeal {
        // Aged cells, durably: about a quarter of the blocks carry
        // three or more bad RS symbols (every VLEW stays far inside
        // t = 22), and the durable image carries them too.
        stack
            .submit(&Request::InjectRber(2e-3))
            .map_err(|e| format!("checkpoint ageing: {e}"))?;
    }
    stack
        .flush()
        .map_err(|e| format!("checkpoint flush: {e}"))?;
    Ok(stack)
}

/// The durable operation under test — everything past the checkpoint.
/// Runs identically whether the media is alive or silently dead.
fn run_op(stack: &mut Stack, op: CrashOp, seed: u64) -> Result<(), String> {
    match op {
        CrashOp::EurDrain => {
            // Fresh data populates the EUR with code deltas; the flush
            // drains them and fences the dirty lines.
            for addr in 0..BLOCKS {
                let data = pattern(seed, addr, 0xa5);
                stack
                    .submit(&Request::Write { addr, data })
                    .map_err(|e| format!("eur write {addr}: {e}"))?;
            }
            stack.flush().map_err(|e| format!("eur flush: {e}"))?;
        }
        CrashOp::Repair => {
            // Kill a chip and repair the whole rank in place. The
            // rebuild restores the exact checkpoint bytes (compare-skip
            // staging would fence nothing), so half the blocks also take
            // fresh data: the flush persists repaired lines and new
            // lines under one intent-log record.
            stack
                .submit(&chip_kill(5))
                .map_err(|e| format!("repair fault: {e}"))?;
            stack
                .submit(&Request::BootScrub)
                .map_err(|e| format!("repair scrub: {e}"))?;
            for addr in (0..BLOCKS).step_by(2) {
                let data = pattern(seed, addr, 0x7e);
                stack
                    .submit(&Request::Write { addr, data })
                    .map_err(|e| format!("repair write {addr}: {e}"))?;
            }
            stack.flush().map_err(|e| format!("repair flush: {e}"))?;
        }
        CrashOp::StartGap => {
            // Enough writes to trigger several gap moves, then persist
            // the moved image plus the wear position in the meta line.
            for i in 0..(2 * BLOCKS) {
                let addr = i % BLOCKS;
                let data = pattern(seed, addr, 0x3c);
                stack
                    .submit(&Request::Write { addr, data })
                    .map_err(|e| format!("start-gap write {i}: {e}"))?;
            }
            stack.flush().map_err(|e| format!("start-gap flush: {e}"))?;
        }
        CrashOp::Restripe => {
            // The §V-E layout flip; its commit stages and fences the
            // whole region-B image through the intent log internally.
            stack
                .submit(&Request::Restripe)
                .map_err(|e| format!("restripe: {e}"))?;
        }
        CrashOp::TierMigrate => {
            // Fresh data on half the blocks stays volatile until the
            // tier step: the pristine region downgrades paper ->
            // rs-only, and the migration's single fence commits the
            // re-encoded image, the unflushed writes, and the tier tag
            // together. A cut inside it must land wholly on one side.
            for addr in (0..BLOCKS).step_by(2) {
                let data = pattern(seed, addr, 0x5a);
                stack
                    .submit(&Request::Write { addr, data })
                    .map_err(|e| format!("tier write {addr}: {e}"))?;
            }
            let report = stack.tier_step().map_err(|e| format!("tier step: {e}"))?;
            if report.migrations == 0 {
                return Err("tier step migrated nothing".into());
            }
        }
        CrashOp::ReadHeal => {
            // Reads only: the first that falls back to the VLEWs writes
            // the corrected stripe back, which makes the stripe dirty
            // (the reference run's checkpoint read-back may have been
            // that read). The flush persists the heal; a cut before or
            // inside it recovers aged cells that decode to the same
            // data, so `pre` and `post` are one image and what the
            // campaign proves is that every cut still decodes to it.
            read_all(stack)?;
            if stack.core_stats().map_or(0, |s| s.stripe_writebacks) == 0 {
                return Err("no read fell back and healed its stripe".into());
            }
            if stack.staging_matches_live() != Some(false) {
                return Err("a healed stripe must be dirty until the flush".into());
            }
            stack.flush().map_err(|e| format!("heal flush: {e}"))?;
        }
    }
    Ok(())
}

fn read_all(stack: &mut Stack) -> Result<Vec<[u8; 64]>, String> {
    (0..BLOCKS)
        .map(|addr| {
            stack
                .read(addr)
                .map(|o| o.data)
                .map_err(|e| format!("block {addr} does not decode after recovery: {e}"))
        })
        .collect()
}

/// One cached reference run.
struct RefRun {
    steps: u64,
    pre: Vec<[u8; 64]>,
    post: Vec<[u8; 64]>,
}

#[test]
fn power_cut_recovery_is_whole_image_atomic() {
    let refs: RefCell<HashMap<(&'static str, u64), RefRun>> = RefCell::new(HashMap::new());
    let cuts_per_op: RefCell<HashMap<&'static str, usize>> = RefCell::new(HashMap::new());

    let prop = |case: &CrashPlan| -> Result<(), String> {
        let key = (case.op.name(), case.seed);
        if !refs.borrow().contains_key(&key) {
            let mut stack = checkpoint(case.op, case.seed)?;
            // The checkpoint image is the fill pattern by construction;
            // verify that once per reference run so the per-cut runs can
            // use the computed mirror without re-reading 16 blocks.
            let pre: Vec<[u8; 64]> = (0..BLOCKS).map(|a| pattern(case.seed, a, 0x00)).collect();
            // Every flush must leave the staged image equal to the live
            // arrays; debug builds assert it inside the flush, here it
            // holds in release too. The checkpoint ends in a flush, and
            // so does every operation. (Checked before the read-back: a
            // read that falls back heals its stripe, which dirties it.)
            let staged = |stack: &Stack, when: &str| match stack.staging_matches_live() {
                Some(true) => Ok(()),
                other => Err(format!("staging vs live arrays {when}: {other:?}")),
            };
            staged(&stack, "at the checkpoint")?;
            if read_all(&mut stack)? != pre {
                return Err("checkpoint does not read back as the fill pattern".into());
            }
            let start = stack.pmem_steps().ok_or("stack is not persistent")?;
            run_op(&mut stack, case.op, case.seed)?;
            staged(&stack, "after the operation")?;
            let steps = stack.pmem_steps().ok_or("stack is not persistent")? - start;
            if steps == 0 {
                return Err(format!("{} persisted nothing", case.op.name()));
            }
            let post = read_all(&mut stack)?;
            refs.borrow_mut().insert(key, RefRun { steps, pre, post });
        }

        let (steps, span) = {
            let borrowed = refs.borrow();
            let r = &borrowed[&key];
            (r.steps, r.steps + 1)
        };
        let k = if case.from_end {
            steps - (case.cut_step % span)
        } else {
            case.cut_step % span
        };

        let mut stack = checkpoint(case.op, case.seed)?;
        if !stack.arm_fuse(k) {
            return Err("fuse refused to arm".into());
        }
        run_op(&mut stack, case.op, case.seed)?;
        stack
            .power_cut()
            .map_err(|e| format!("cut {k}: power cut: {e}"))?;
        stack
            .recover()
            .map_err(|e| format!("cut {k}: recovery: {e}"))?;
        let got = read_all(&mut stack).map_err(|e| format!("cut {k}: {e}"))?;

        let borrowed = refs.borrow();
        let r = &borrowed[&key];
        if got != r.pre && got != r.post {
            let torn = (0..BLOCKS as usize)
                .filter(|&b| got[b] != r.pre[b] && got[b] != r.post[b])
                .count();
            return Err(format!(
                "cut {k}/{}: recovered image matches neither the pre- nor the post-op \
                 mirror ({torn} blocks match neither individually)",
                r.steps
            ));
        }
        if case.op == CrashOp::TierMigrate {
            // The migration fences the image and the tier tag together:
            // the recovered census must be exactly the pre-migration
            // tier (paper) with the pre image, or the post-migration
            // tier (rs-only) with the post image — never crossed.
            let census = stack
                .tier_report()
                .ok_or_else(|| format!("cut {k}: tiered stack lost its census"))?;
            let want = if got == r.post {
                ProtectionTier::RsOnly
            } else {
                ProtectionTier::Paper
            };
            let tier_of = |c: &pmck_core::TierReport| match (c.paper_regions, c.rs_only_regions) {
                (1, 0) => Some(ProtectionTier::Paper),
                (0, 1) => Some(ProtectionTier::RsOnly),
                _ => None,
            };
            if tier_of(&census) != Some(want) {
                return Err(format!(
                    "cut {k}/{}: recovered the {} image but the census reports \
                     paper={} rs_only={} dense={}",
                    r.steps,
                    if want == ProtectionTier::RsOnly {
                        "post"
                    } else {
                        "pre"
                    },
                    census.paper_regions,
                    census.rs_only_regions,
                    census.dense_regions,
                ));
            }
        }
        *cuts_per_op.borrow_mut().entry(key.0).or_insert(0) += 1;
        Ok(())
    };

    let plan = |op: CrashOp, rng: &mut StdRng| CrashPlan {
        op,
        seed: rng.gen_range(0..SEEDS_PER_OP),
        cut_step: rng.gen_range(0u64..1 << 20),
        // A quarter of the cuts anchor to the tail, where the
        // meta-line commit lives.
        from_end: rng.gen_bool(0.25),
    };
    let report = Runner::new("crash:recovery").seed(0x9c0e).cases(CASES).run(
        |rng| {
            // Weight cheap operations more heavily; the re-stripe and
            // tier-migrate runs carry the BCH re-encode cost of a whole
            // region image.
            let op = match rng.gen_range(0u32..28) {
                0..=10 => CrashOp::EurDrain,
                11..=16 => CrashOp::StartGap,
                17..=20 => CrashOp::Repair,
                21..=23 => CrashOp::Restripe,
                _ => CrashOp::TierMigrate,
            };
            plan(op, rng)
        },
        &prop,
    );
    // The read-heal cuts ride on top, from their own seed: the draws
    // above — and so every cut the five older operations get — are
    // what they were before the operation existed.
    Runner::new("crash:recovery")
        .seed(0x9c0f)
        .cases(HEAL_CASES)
        .run(|rng| plan(CrashOp::ReadHeal, rng), &prop);

    // The checked-in crafted torn-restripe entry must have replayed.
    assert!(
        report.corpus_replayed >= 1,
        "the crafted torn-restripe corpus entry did not replay"
    );
    let total: usize = cuts_per_op.borrow().values().sum();
    assert!(
        total >= 2_000,
        "campaign covered only {total} cut points (floor: 2,000)"
    );
    for op in CrashOp::ALL {
        let n = cuts_per_op.borrow().get(op.name()).copied().unwrap_or(0);
        assert!(n >= 100, "operation {} got only {n} cut points", op.name());
    }
}
