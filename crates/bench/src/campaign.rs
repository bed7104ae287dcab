//! The one fault campaign, generic over [`Submitter`].
//!
//! A [`FaultSchedule`] is drained cycle by cycle into the system under
//! test as [`Request::Fault`] / [`Request::InjectRber`] while a seeded
//! read / write / patrol mix runs on top and a mirror holds ground
//! truth: every read is checked byte for byte; a failed write, a scrub
//! UE or an erasure-served read triggers [`Request::Repair`]; and the
//! run closes with a boot scrub, a full patrol pass, a verify and a
//! complete read-back. The crash leg snapshots the mirror at every
//! [`Request::Flush`] and rolls it back at every [`Request::PowerCut`]
//! + [`Request::Recover`].
//!
//! What differs per system is data, not a code path: the caller builds
//! the system (`Stack`, `ShardedService`, `Cluster`), says in the
//! [`Plan`] which legs it supports, and — for a cluster — [`Sut`]'s two
//! hooks cover the operations [`Submitter`] does not carry.

use pmck_cluster::{Cluster, NodeStatus};
use pmck_core::{CoreError, ReadPath, Request, Response, Stack, Submitter};
use pmck_memsim::FaultTimeline;
use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind, FaultSchedule};
use pmck_rt::json::Json;
use pmck_rt::rng::{Rng, StdRng};
use pmck_service::ShardedService;

/// One campaign: length, seed, faults, and the legs the system supports.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Cycles to run (one demand or maintenance operation each).
    pub cycles: u64,
    /// Seed of the workload stream.
    pub seed: u64,
    /// The fault timeline (empty for a fault-free campaign).
    pub schedule: FaultSchedule,
    /// Persistent media: the flush / power-cut / recover leg.
    pub crash: bool,
    /// Tiered base: a [`Request::TierStep`] every 128 cycles, and the
    /// verdict requires at least one migration.
    pub tier: bool,
    /// Restripeable base: the closing §V-E [`Request::Restripe`] leg.
    pub restripe: bool,
}

/// The built-in campaign, scaled to the run length: a low background
/// RBER from cycle 0 and a retention ramp through mid-run, plus — unless
/// `benign` — a burst and a correlated row fault early on and a
/// chip-kill at 70%. The background rate is applied once per cycle, so
/// errors accumulate between patrol passes; the rates keep the
/// steady-state per-VLEW error count well inside t = 22 while the
/// structured events stress the heavier paths. The tiered run is benign:
/// a migration must never race a failed chip, and its point is the
/// policy's response to measured RBER alone.
pub fn built_in_schedule(cycles: u64, benign: bool) -> FaultSchedule {
    let pct = |p: u64| cycles * p / 100;
    let mut text = format!(
        "at 0 rber 1e-8\nramp {}..{} rber 1e-8..1e-6\n",
        pct(40),
        pct(60)
    );
    if !benign {
        text += &format!(
            "at {} burst 6 width 64\nat {} row 2 1 rber 5e-3\nat {} chipkill 4 garbage\n",
            pct(15),
            pct(30),
            pct(70)
        );
    }
    FaultSchedule::parse(&text).expect("built-in schedule must parse")
}

/// A system the campaign can run against: a [`Submitter`], plus two
/// hooks for what a replicated system does outside the request
/// vocabulary. Single-node systems take the no-op defaults.
pub trait Sut: Submitter {
    /// Runs at the top of every cycle (node kill / revive / rebuild).
    fn churn(&mut self, _plan: &Plan, _cycle: u64) {}

    /// Runs once before the closing sweep, with the mirror. Every count
    /// it returns must be zero for the verdict to pass.
    fn settle(&mut self, _plan: &Plan, _mirror: &[[u8; 64]]) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl Sut for Stack {}
impl Sut for ShardedService {}

/// One node (picked by the seed) dies at 35% of the run and is revived
/// and rebuilt at 55%; the closing sweep is an anti-entropy pass, then a
/// direct read of every replica of every block off its node, after
/// which no replica may be unreadable, different or stale.
impl<N: Submitter> Sut for Cluster<N> {
    fn churn(&mut self, plan: &Plan, cycle: u64) {
        let victim = (plan.seed % self.nodes() as u64) as usize;
        if cycle == plan.cycles * 35 / 100 {
            self.kill_node(victim);
        } else if cycle == plan.cycles * 55 / 100 {
            self.revive_node(victim);
            self.rebuild_node(victim).expect("rebuild");
        }
    }

    fn settle(&mut self, plan: &Plan, mirror: &[[u8; 64]]) -> Vec<(&'static str, u64)> {
        let victim = (plan.seed % self.nodes() as u64) as usize;
        if self.node_status(victim) != NodeStatus::Up {
            self.revive_node(victim);
            self.rebuild_node(victim).expect("closing rebuild");
        }
        let sweep = self.anti_entropy_sweep();
        let mut replica_mismatches = 0;
        for (addr, want) in mirror.iter().enumerate() {
            for r in 0..self.replicas() {
                let (n, local) = self.place(addr as u64, r);
                match self.node_mut(n).submit(&Request::Read(local)) {
                    Ok(Response::Read(out)) if out.data == *want => {}
                    _ => replica_mismatches += 1,
                }
            }
        }
        let stale = (0..self.nodes()).map(|n| self.node_stale_blocks(n)).sum();
        vec![
            ("sweep_unreadable", sweep.unreadable),
            ("replica_mismatches", replica_mismatches),
            ("stale_after_sweep", stale),
        ]
    }
}

/// Declares the campaign's `u64` counters once: the field names are
/// also the JSON keys.
macro_rules! counters {
    ($($field:ident),*) => {
        /// What one campaign counted. `chip_repairs` counts the
        /// [`Request::Repair`]s that rebuilt a chip; `write_retries` the
        /// writes that met a dead chip no read had detected yet and were
        /// retried after detection and repair; the four read paths
        /// split `reads`; the last four — demand reads and read-backs
        /// that differed from the mirror, reads that failed, verifies
        /// that did not answer `true` — each fail the run.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64),* }
        impl Counts {
            fn to_json(self) -> Json {
                Json::object()$(.with(stringify!($field), self.$field))*
            }
        }
    };
}

counters! {
    events_applied, writes, write_retries, reads, scrub_steps, scrub_uncorrectable, chip_repairs,
    timeline_extra_fetches, clean, rs_corrected, vlew_fallback, chipkill_erasure,
    flushes, power_cuts, tier_steps, tier_migrations,
    read_mismatches, readback_mismatches, read_errors, verify_failures
}

/// Everything one campaign observed, and its verdict.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Blocks the system exposed.
    pub blocks: u64,
    /// The plan that ran.
    pub plan: Plan,
    /// The counters.
    pub counts: Counts,
    /// The counts [`Sut::settle`] returned.
    pub topology: Vec<(&'static str, u64)>,
}

impl Report {
    /// The one verdict.
    pub fn passed(&self) -> bool {
        let c = &self.counts;
        c.read_mismatches + c.readback_mismatches + c.read_errors + c.verify_failures == 0
            && (!self.plan.tier || c.tier_migrations > 0)
            && self.topology.iter().all(|&(_, n)| n == 0)
    }

    /// The one JSON document.
    pub fn to_json(&self) -> Json {
        let plan = &self.plan;
        let mut verdict = Json::object().with("passed", self.passed());
        for &(name, n) in &self.topology {
            verdict = verdict.with(name, n);
        }
        Json::object()
            .with(
                "config",
                Json::object()
                    .with("blocks", self.blocks)
                    .with("cycles", plan.cycles)
                    .with("seed", plan.seed)
                    .with("crash", plan.crash)
                    .with("tier", plan.tier)
                    .with("restripe", plan.restripe),
            )
            .with("schedule", plan.schedule.to_json())
            .with("counts", self.counts.to_json())
            .with("verdict", verdict)
    }
}

fn pattern(rng: &mut StdRng) -> [u8; 64] {
    let mut b = [0u8; 64];
    rng.fill_bytes(&mut b[..]);
    b
}

/// Runs `plan` against `sut` and reports. Divergence from the mirror
/// fails the verdict; a request the campaign cannot continue without (a
/// fault injection, a flush, a recovery, a write retried after repair)
/// panics.
pub fn run<S: Sut>(sut: &mut S, plan: &Plan) -> Report {
    let r = Report {
        blocks: sut.num_blocks(),
        plan: plan.clone(),
        ..Report::default()
    };
    let mut run = Run {
        sut,
        mirror: Vec::new(),
        snapshot: Vec::new(),
        r,
    };
    run.drive(plan);
    run.r
}

struct Run<'s, S> {
    sut: &'s mut S,
    /// Ground truth for every block.
    mirror: Vec<[u8; 64]>,
    /// The mirror as of the last flush: what a power cut rolls back to.
    snapshot: Vec<[u8; 64]>,
    r: Report,
}

impl<S: Sut> Run<'_, S> {
    /// A request the campaign cannot continue without.
    fn must(&mut self, req: Request) -> Response {
        let res = self.sut.submit(&req);
        res.unwrap_or_else(|e| panic!("campaign cannot continue: {} failed: {e}", req.kind()))
    }

    fn flush(&mut self) {
        self.must(Request::Flush);
        self.r.counts.flushes += 1;
        self.snapshot.copy_from_slice(&self.mirror);
    }

    fn cut_and_recover(&mut self) {
        self.must(Request::PowerCut);
        self.r.counts.power_cuts += 1;
        self.must(Request::Recover);
        self.mirror.copy_from_slice(&self.snapshot);
    }

    /// Rebuilds whatever chip the decode paths have detected as failed.
    fn repair(&mut self) {
        if let Response::Repaired { chip: Some(_) } = self.must(Request::Repair) {
            self.r.counts.chip_repairs += 1;
        }
    }

    /// A demand read, mirror-checked; an erasure-served one names a dead
    /// chip, which is repaired on the spot.
    fn read(&mut self, block: u64, cycle: u64) {
        let c = &mut self.r.counts;
        c.reads += 1;
        match self.sut.submit(&Request::Read(block)).map(Response::read) {
            Ok(Some(out)) => {
                match out.path {
                    ReadPath::Clean | ReadPath::BitCorrected { .. } => c.clean += 1,
                    ReadPath::RsCorrected { .. } => c.rs_corrected += 1,
                    ReadPath::VlewFallback { .. } | ReadPath::VlewListDecoded { .. } => {
                        c.vlew_fallback += 1
                    }
                    ReadPath::ChipkillErasure { .. } => c.chipkill_erasure += 1,
                }
                if out.data != self.mirror[block as usize] {
                    c.read_mismatches += 1;
                    eprintln!("cycle {cycle}: block {block} read diverged from mirror");
                }
                if matches!(out.path, ReadPath::ChipkillErasure { .. }) {
                    self.repair();
                }
            }
            other => {
                c.read_errors += 1;
                eprintln!("cycle {cycle}: block {block} read failed: {other:?}");
            }
        }
    }

    fn write(&mut self, block: u64, data: [u8; 64]) {
        self.r.counts.writes += 1;
        let req = Request::Write { addr: block, data };
        if self.sut.submit(&req).is_err() {
            // The write's read-modify step hit an undetected dead chip
            // (a detected one it erasure-corrects around): a demand
            // read of the block goes through the detection path, then
            // repair and retry once.
            self.r.counts.write_retries += 1;
            let _ = self.sut.submit(&Request::Read(block));
            self.repair();
            self.must(req);
        }
        self.mirror[block as usize] = data;
    }

    /// One patrol increment — or, where no layer handles patrol (cluster
    /// nodes are plain stacks), a scrub of the drawn block.
    fn maintain(&mut self, block: u64, cycle: u64) {
        self.r.counts.scrub_steps += 1;
        let mut res = self.sut.submit(&Request::PatrolStep);
        if matches!(res, Err(CoreError::Unsupported(_))) {
            res = self.sut.submit(&Request::Scrub(block));
        }
        match res {
            Ok(_) => {}
            Err(CoreError::Uncorrectable) => {
                // A scrub UE: an undetected dead chip defeats the
                // in-place rewrite. A demand read identifies it.
                self.r.counts.scrub_uncorrectable += 1;
                let _ = self.sut.submit(&Request::Read(block));
                self.repair();
            }
            Err(e) => panic!("cycle {cycle}: scrub step failed: {e}"),
        }
    }

    /// Reads every block back against the mirror.
    fn readback(&mut self) {
        for (addr, want) in self.mirror.iter().enumerate() {
            match self.sut.submit(&Request::Read(addr as u64)) {
                Ok(Response::Read(out)) if out.data == *want => {}
                _ => self.r.counts.readback_mismatches += 1,
            }
        }
    }

    fn verify(&mut self) {
        if self.must(Request::Verify) != Response::Verified(true) {
            self.r.counts.verify_failures += 1;
        }
    }

    fn drive(&mut self, plan: &Plan) {
        let total = self.r.blocks;
        let timeline = FaultTimeline::new(plan.schedule.clone(), 1);
        let mut rng = StdRng::seed_from_u64(plan.seed);
        for addr in 0..total {
            let data = pattern(&mut rng);
            self.must(Request::Write { addr, data });
            self.mirror.push(data);
        }
        self.snapshot = self.mirror.clone();
        if plan.crash {
            self.flush();
        }

        for cycle in 0..plan.cycles {
            self.sut.churn(plan, cycle);
            let events = plan.schedule.events_in(cycle, cycle + 1);
            for event in events {
                self.must(Request::Fault(*event));
                self.r.counts.events_applied += 1;
            }
            let rber = plan.schedule.rber_at(cycle);
            if rber > 0.0 {
                self.must(Request::InjectRber(rber));
            }

            let block = rng.gen_range(0..total);
            match rng.gen_range(0u32..5) {
                0 | 1 => self.write(block, pattern(&mut rng)),
                2 | 3 => {
                    let extra = timeline.sample_extra_fetches(cycle, &mut rng);
                    self.r.counts.timeline_extra_fetches += u64::from(extra);
                    self.read(block, cycle);
                }
                _ => self.maintain(block, cycle),
            }

            // Tier leg: the policy acts on the RBER each region measured
            // from the background injections (the first step already
            // moves pristine regions down to the RS-only tier).
            let mut migrated = 0;
            if plan.tier && cycle % 128 == 127 {
                let census = self.must(Request::TierStep).tiered();
                migrated = census.map_or(0, |t| t.migrations);
                self.r.counts.tier_steps += 1;
                self.r.counts.tier_migrations += migrated;
            }

            // Crash leg: fault events and tier migrations are made
            // durable at once (a later cut must not "heal" a chip the
            // campaign considers failed, and a migration already
            // committed the region's image past the last snapshot).
            if plan.crash {
                if !events.is_empty() || migrated > 0 || cycle % 97 == 96 {
                    self.flush();
                }
                if cycle % 503 == 502 {
                    self.cut_and_recover();
                }
            }
        }

        // One final cut straight after a flush: recovery must land
        // exactly on the just-fenced image before the sweep checks it.
        if plan.crash {
            self.flush();
            self.cut_and_recover();
        }
        self.r.topology = self.sut.settle(plan, &self.mirror);

        // Closing sweep: the boot scrub first (it repairs a still-failed
        // chip and clears residual VLEW-level damage), then a full
        // patrol pass, a verify, and a complete read-back. A step that
        // met a scrub UE ended early, one block past it, so shards'
        // cursors can sit at different offsets and never report
        // `completed_pass` in the same step; `total + 1` steps cover
        // every block of every shard regardless.
        self.must(Request::BootScrub);
        for _ in 0..=total {
            match self.sut.submit(&Request::PatrolStep) {
                Ok(Response::Patrolled(step)) if !step.completed_pass => {}
                Ok(_) | Err(CoreError::Unsupported(_)) => break,
                Err(e) => panic!("closing patrol pass failed: {e}"),
            }
        }
        self.verify();
        self.readback();

        // Re-stripe leg (§V-E): fail a chip, move the live rank into the
        // 4-block VLEW layout in place, and confirm every block survives
        // (under `crash`, also a cut straight after the commit).
        if plan.restripe {
            let kind = FaultKind::ChipKill {
                chip: 3,
                kind: ChipFailureKind::RandomGarbage,
            };
            let at_cycle = plan.cycles;
            self.must(Request::Fault(FaultEvent { at_cycle, kind }));
            if plan.crash {
                self.flush();
            }
            self.must(Request::Restripe);
            if plan.crash {
                self.cut_and_recover();
            }
            self.readback();
            self.verify();
        }
    }
}
