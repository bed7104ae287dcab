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
//!
//! [`check`] is the request-stream oracle built on the same pieces: one
//! seeded, shrinkable stream ([`stream`] of a [`StreamPlan`]) through
//! every transport ([`Leg`]), each judged against the one mirror, and a
//! sharded service also against its per-shard sequential replay.

use std::collections::VecDeque;

use pmck_cluster::{Cluster, ClusterConfig, NodeStatus};
use pmck_core::{
    ChipkillConfig, CoreError, CoreStats, PmemConfig, ReadPath, Request, Response, ServiceFailure,
    Stack, StackBuilder, SubmitTicket, Submitter,
};
use pmck_harness::{ClusterScenario, StreamPlan};
use pmck_memsim::FaultTimeline;
use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind, FaultSchedule};
use pmck_rt::json::Json;
use pmck_rt::rng::{stream_seed, Rng, StdRng};
use pmck_service::{ServiceClient, ShardedService};

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

/// One protection stack of the campaign: patrol (manual stepping) over
/// physical addresses, Start-Gap wear leveling on top, and with `crash`
/// persistent media at the bottom.
pub fn stack(base: StackBuilder, seed: u64, crash: bool) -> Stack {
    let builder = base.patrolled(2, 0).wear_levelled(8).seed(seed);
    if crash {
        builder.persistent(PmemConfig::default()).build()
    } else {
        builder.build()
    }
}

/// A topology step on node `victim % nodes` of a replicated system
/// (`victim` is the plan's seed). Single-node systems ignore them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// The node dies; writes it misses are tracked stale.
    Kill,
    /// The node comes back with what it held.
    Revive,
    /// The node stops answering for a while.
    Suspend,
    /// The suspension ends.
    Resume,
    /// Every stale replica on the node is re-written from a peer.
    Rebuild,
    /// A request to that node alone: a node-local fault, or its local
    /// boot-scrub repair.
    Local(Request),
}

/// One step of an oracle [`stream`]: a request every transport
/// executes, or a topology step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// A request to the whole system.
    Req(Request),
    /// A topology step.
    Node(Node),
}

/// A system the campaign can run against: a [`Submitter`], plus two
/// hooks for what a replicated system does outside the request
/// vocabulary. Single-node systems take the no-op defaults.
pub trait Sut: Submitter {
    /// Applies one topology step to node `victim % nodes`.
    fn topology(&mut self, _victim: u64, _step: Node) -> Result<(), CoreError> {
        Ok(())
    }

    /// Runs once before the closing sweep, with the mirror. Every count
    /// it returns must be zero for the verdict to pass.
    fn settle(&mut self, _victim: u64, _mirror: &[[u8; 64]]) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl Sut for Stack {}
impl Sut for ShardedService {}
impl Sut for ServiceClient {}

/// Topology steps act on the victim node; a cluster without a second
/// replica has nowhere to fail over to and ignores them. The closing
/// sweep is an anti-entropy pass, then a direct read of every replica
/// of every block off its node, after which no replica may be
/// unreadable, different or stale.
impl<N: Submitter> Sut for Cluster<N> {
    fn topology(&mut self, victim: u64, step: Node) -> Result<(), CoreError> {
        let n = (victim % self.nodes() as u64) as usize;
        match step {
            _ if self.replicas() < 2 => {}
            Node::Kill => self.kill_node(n),
            Node::Revive => self.revive_node(n),
            Node::Suspend => self.suspend_node(n),
            Node::Resume => self.resume_node(n),
            Node::Rebuild => return self.rebuild_node(n).map(drop),
            Node::Local(req) => return self.node_mut(n).submit(&req).map(drop),
        }
        Ok(())
    }

    fn settle(&mut self, victim: u64, mirror: &[[u8; 64]]) -> Vec<(&'static str, u64)> {
        let victim = (victim % self.nodes() as u64) as usize;
        if self.node_status(victim) != NodeStatus::Up {
            self.revive_node(victim);
            self.rebuild_node(victim).expect("closing rebuild");
        }
        let sweep = self.anti_entropy_sweep();
        let mut replica_mismatches = 0;
        for (addr, want) in mirror.iter().enumerate() {
            for r in 0..self.replicas() {
                let (n, local) = self.place(addr as u64, r);
                let res = self.node_mut(n).submit(&Request::Read(local));
                replica_mismatches += u64::from(!reads(&res, want));
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

/// Whether `res` is a read that returned `want`.
fn reads(res: &Result<Response, CoreError>, want: &[u8; 64]) -> bool {
    matches!(res, Ok(Response::Read(out)) if out.data == *want)
}

fn random_block(rng: &mut StdRng) -> [u8; 64] {
    let mut b = [0u8; 64];
    rng.fill_bytes(&mut b[..]);
    b
}

/// Ground truth for every block, and the copy as of the last flush that
/// a power cut rolls back to: the one mirror both the campaign and the
/// oracle judge against.
#[derive(Debug)]
struct Mirror {
    live: Vec<[u8; 64]>,
    flushed: Vec<[u8; 64]>,
}

impl Mirror {
    fn new(blocks: u64) -> Self {
        let live = vec![[0u8; 64]; blocks as usize];
        Mirror {
            flushed: live.clone(),
            live,
        }
    }

    /// Follows one acknowledged request.
    fn apply(&mut self, req: &Request) {
        match *req {
            Request::Write { addr, data } => self.live[addr as usize] = data,
            Request::WriteSum { addr, data } => {
                for (b, d) in self.live[addr as usize].iter_mut().zip(data) {
                    *b ^= d;
                }
            }
            Request::Flush => self.flushed.clone_from(&self.live),
            Request::PowerCut => self.live.clone_from(&self.flushed),
            _ => {}
        }
    }
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
        mirror: Mirror::new(r.blocks),
        r,
    };
    run.drive(plan);
    run.r
}

struct Run<'s, S> {
    sut: &'s mut S,
    mirror: Mirror,
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
        self.mirror.apply(&Request::Flush);
    }

    fn cut_and_recover(&mut self) {
        self.must(Request::PowerCut);
        self.r.counts.power_cuts += 1;
        self.mirror.apply(&Request::PowerCut);
        self.must(Request::Recover);
    }

    /// A topology step the campaign cannot continue without.
    fn node(&mut self, step: Node) {
        let res = self.sut.topology(self.r.plan.seed, step);
        res.unwrap_or_else(|e| panic!("campaign cannot continue: {step:?} failed: {e}"));
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
                    ReadPath::VlewFallback { .. } => c.vlew_fallback += 1,
                    ReadPath::ChipkillErasure { .. } => c.chipkill_erasure += 1,
                }
                if out.data != self.mirror.live[block as usize] {
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
        self.mirror.apply(&req);
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
        for (addr, want) in self.mirror.live.iter().enumerate() {
            let res = self.sut.submit(&Request::Read(addr as u64));
            self.r.counts.readback_mismatches += u64::from(!reads(&res, want));
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
            let fill = Request::Write {
                addr,
                data: random_block(&mut rng),
            };
            self.must(fill);
            self.mirror.apply(&fill);
        }
        if plan.crash {
            self.flush();
        }

        for cycle in 0..plan.cycles {
            // Churn (a no-op but on a cluster): the victim node dies at
            // 35% of the run and is revived and rebuilt at 55%.
            if cycle == plan.cycles * 35 / 100 {
                self.node(Node::Kill);
            } else if cycle == plan.cycles * 55 / 100 {
                self.node(Node::Revive);
                self.node(Node::Rebuild);
            }
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
                0 | 1 => self.write(block, random_block(&mut rng)),
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
        self.r.topology = self.sut.settle(plan.seed, &self.mirror.live);

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

/// Blocks every leg of the oracle exposes (32 per shard of 8).
const BLOCKS: u64 = 256;

/// A transport the oracle streams through; every leg exposes `BLOCKS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// One [`stack`], synchronously.
    Stack,
    /// A `ShardedService` of this many [`stack`]s behind a
    /// `ServiceClient` that redeems a ticket only when admission control
    /// refuses one.
    Service(usize),
    /// A `Cluster::sharded` of `n` 2-shard services of plain proposal
    /// stacks, two replicas per block (one on a single node).
    Cluster(usize),
}

/// The stream of `plan`: a seeded mix of every request kind (every
/// other round of 256 pinned to one shard of 8, to fill its ring), a
/// burst past one VLEW's reach healed at once by a boot scrub (each
/// shard rebuilds its own chip, so the merged report depends on fold
/// order), the scenario's topology steps at fixed fractions of the
/// span, one hostile `InjectRber` at mid-span, and a closing boot
/// scrub, verify and read-back of every block.
pub fn stream(plan: &StreamPlan) -> Vec<Step> {
    let at = |percent: u64| plan.cycles * percent / 100;
    let fault = |text: &str| {
        let schedule = FaultSchedule::parse(&format!("at 0 {text}")).expect("a fault");
        Request::Fault(schedule.events()[0])
    };
    let topology = match plan.scenario {
        ClusterScenario::Clean => vec![],
        ClusterScenario::NodeLoss => vec![
            (at(35), Node::Kill),
            (at(70), Node::Revive),
            (at(70), Node::Rebuild),
        ],
        ClusterScenario::SlowReplica => vec![(at(30), Node::Suspend), (at(60), Node::Resume)],
        ClusterScenario::FaultMix => vec![
            (at(40), Node::Local(fault("row 3 0 rber 0.15"))),
            (at(50), Node::Local(fault("chipkill 3 garbage"))),
            (at(80), Node::Local(Request::BootScrub)),
        ],
    };
    let hostile = [-1.0, f64::NAN, 1.0, f64::INFINITY][(plan.seed % 4) as usize];
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut reqs: Vec<Step> = Vec::new();
    let mut push = |step: Step| reqs.push(step);
    for cycle in 0..plan.cycles {
        for &(_, node) in topology.iter().filter(|&&(c, _)| c == cycle) {
            push(Step::Node(node));
        }
        if cycle == plan.cycles / 2 {
            push(Step::Req(Request::InjectRber(hostile)));
        }
        let round = cycle / 256;
        let addr = match round % 2 {
            1 => rng.gen_range(0..BLOCKS / 8) * 8 + round / 2 % 8,
            _ => rng.gen_range(0..BLOCKS),
        };
        let data = random_block(&mut rng);
        let kind = rng.gen_range(0u32..64);
        match kind {
            61 => push(Step::Req(fault("burst 60 width 128"))),
            63 if plan.persistent => push(Step::Req(Request::PowerCut)),
            _ => {}
        }
        push(Step::Req(match kind {
            0..=17 => Request::Write { addr, data },
            18..=23 => Request::WriteSum { addr, data },
            24..=45 => Request::Read(addr),
            46..=51 => Request::Scrub(addr),
            52..=57 => Request::PatrolStep,
            58 => Request::Verify,
            59 => Request::InjectRber(2e-6),
            60 => fault("burst 3 width 24"),
            61 => Request::BootScrub,
            62 if plan.persistent => Request::Flush,
            63 if plan.persistent => Request::Recover,
            _ => Request::Read(addr),
        }));
    }
    push(Step::Req(Request::BootScrub));
    push(Step::Req(Request::Verify));
    (0..BLOCKS).for_each(|a| push(Step::Req(Request::Read(a))));
    reqs
}

/// Each step's answer: a request's response, or `None` for a topology
/// step that succeeded.
type Answers = Vec<Option<Result<Response, CoreError>>>;

/// Streams `steps` through `sut`, holding every ticket until a topology
/// step needs them redeemed or admission control refuses a request; a
/// refusal redeems the oldest ticket and retries. Returns every answer,
/// and the refusals met with `window` tickets held and, for an
/// addressed request, with fewer (its shard's submission ring was
/// full).
fn drive<S: Sut>(sut: &mut S, victim: u64, steps: &[Step], window: usize) -> (Answers, [u64; 2]) {
    let mut got: Answers = vec![None; steps.len()];
    let mut fifo: VecDeque<(usize, SubmitTicket)> = VecDeque::new();
    let mut refused = [0; 2];
    for (i, step) in steps.iter().enumerate() {
        let req = match *step {
            Step::Req(req) => req,
            Step::Node(node) => {
                for (j, ticket) in fifo.drain(..) {
                    got[j] = Some(sut.wait(ticket));
                }
                got[i] = sut.topology(victim, node).err().map(Err);
                continue;
            }
        };
        loop {
            match sut.try_submit(&req) {
                Ok(ticket) => break fifo.push_back((i, ticket)),
                Err(CoreError::Service(e)) if e.kind() == ServiceFailure::Backpressure => {
                    match fifo.len() < window {
                        false => refused[0] += 1,
                        true => refused[1] += u64::from(req.addr().is_some()),
                    }
                    let (j, ticket) = fifo.pop_front().expect("refused with nothing in flight");
                    got[j] = Some(sut.wait(ticket));
                }
                Err(e) => break got[i] = Some(Err(e)),
            }
        }
    }
    for (j, ticket) in fifo {
        got[j] = Some(sut.wait(ticket));
    }
    (got, refused)
}

/// The broadcast fold, restated: this is the reference
/// `pmck_core::merge_broadcast` is checked against, so it must not call
/// it. The first error in shard order wins, counts add, verdicts and
/// completed passes AND, and a boot scrub names the first rebuilt chip.
fn merge(
    acc: Result<Response, CoreError>,
    next: Result<Response, CoreError>,
) -> Result<Response, CoreError> {
    use Response::*;
    Ok(match (acc?, next?) {
        (Patrolled(mut a), Patrolled(b)) => {
            a.blocks_scrubbed += b.blocks_scrubbed;
            a.blocks_skipped += b.blocks_skipped;
            a.completed_pass &= b.completed_pass;
            Patrolled(a)
        }
        (Injected { bits: a }, Injected { bits: b }) => Injected { bits: a + b },
        (Verified(a), Verified(b)) => Verified(a && b),
        (Flushed { lines: a }, Flushed { lines: b }) => Flushed { lines: a + b },
        (PowerLost { lost_lines: a }, PowerLost { lost_lines: b }) => {
            PowerLost { lost_lines: a + b }
        }
        (Recovered(mut a), Recovered(b)) => {
            a.records_replayed += b.records_replayed;
            a.lines_redone += b.lines_redone;
            a.restriped |= b.restriped;
            Recovered(a)
        }
        (BootScrubbed(mut a), BootScrubbed(b)) => {
            a.stripes_scrubbed += b.stripes_scrubbed;
            a.bits_corrected += b.bits_corrected;
            a.words_with_errors += b.words_with_errors;
            a.chip_rebuilt = a.chip_rebuilt.or(b.chip_rebuilt);
            BootScrubbed(a)
        }
        (first, _) => first,
    })
}

/// Judges one leg's answers by the mirror: every read returns what the
/// mirror holds, the hostile injection is refused, the closing verify
/// passes, and every other request and topology step succeeds — but a
/// `PatrolStep`, which a cluster's unpatrolled nodes refuse as
/// unsupported. Returns the final mirror.
fn judge(steps: &[Step], got: &Answers) -> Result<Vec<[u8; 64]>, String> {
    let mut mirror = Mirror::new(BLOCKS);
    let last_verify = steps.iter().rposition(|s| *s == Step::Req(Request::Verify));
    for (i, (step, answer)) in steps.iter().zip(got).enumerate() {
        let (Step::Req(req), Some(res)) = (step, answer) else {
            if answer.is_some() {
                return Err(format!("step {i} {step:?} answered {answer:?}"));
            }
            continue;
        };
        let right = match (req, res) {
            (Request::Read(a), res) => reads(res, &mirror.live[*a as usize]),
            (Request::Write { .. } | Request::WriteSum { .. }, res) => {
                res == &Ok(Response::Written)
            }
            (Request::InjectRber(p), res) if !(0.0..1.0).contains(p) => {
                res == &Err(CoreError::InvalidRber)
            }
            // Injections since the last boot scrub may still be latent.
            (Request::Verify, Ok(Response::Verified(ok))) => *ok || Some(i) != last_verify,
            (Request::PatrolStep, Err(CoreError::Unsupported(_))) => true,
            (_, res) => res.is_ok(),
        };
        if !right {
            return Err(format!("step {i} {req:?} answered {res:?}"));
        }
        mirror.apply(req);
    }
    Ok(mirror.live)
}

/// The request-stream oracle: runs `plan`'s [`stream`] through every leg
/// and judges each by the mirror; a service leg must also equal its
/// per-shard sequential replay, and a cluster must settle with every
/// replica equal to the mirror and every node verified. Returns the
/// refusals the service legs met, `[ticket window full, shard ring
/// full]`; the error names the leg and the first step that went wrong.
pub fn check(plan: &StreamPlan, legs: &[Leg]) -> Result<[u64; 2], String> {
    if plan.persistent && legs.iter().any(|l| matches!(l, Leg::Cluster(_))) {
        return Err("cluster nodes are volatile: a persistent stream has no cluster leg".into());
    }
    let (steps, seed) = (stream(plan), plan.seed);
    let build = |blocks: u64, seed: u64| {
        let base = StackBuilder::proposal(blocks, ChipkillConfig::default());
        stack(base, seed, plan.persistent)
    };
    let mut refused = [0; 2];
    for &leg in legs {
        let verdict = match leg {
            Leg::Stack => judge(
                &steps,
                &drive(&mut build(BLOCKS, seed), seed, &steps, usize::MAX).0,
            ),
            Leg::Service(shards) => {
                let per_shard = BLOCKS / shards as u64;
                let mut svc =
                    ShardedService::with_clients(shards, 1, seed, |_, s| build(per_shard, s));
                let mut client = svc.take_client().expect("one spare lane");
                let window = client.window();
                let (got, r) = drive(&mut client, seed, &steps, window);
                refused = [refused[0] + r[0], refused[1] + r[1]];
                let mut stacks: Vec<Stack> = (0..shards)
                    .map(|s| build(per_shard, stream_seed(seed, s as u64)))
                    .collect();
                let verdict = judge(&steps, &got).and_then(|mirror| {
                    same_as_replay(&svc, &mut stacks, &steps, &got).map(|()| mirror)
                });
                svc.shutdown();
                verdict
            }
            Leg::Cluster(n) => {
                let cfg = ClusterConfig {
                    replicas: n.min(2),
                    ..ClusterConfig::default()
                };
                let mut cluster = Cluster::sharded(n, 2, BLOCKS, seed, cfg);
                let verdict = judge(&steps, &drive(&mut cluster, seed, &steps, usize::MAX).0);
                let verdict = verdict.and_then(|mirror| {
                    let counts = cluster.settle(seed, &mirror);
                    match (counts.iter().all(|&(_, n)| n == 0), cluster.verify_all()) {
                        (true, Ok(true)) => Ok(mirror),
                        (_, verified) => Err(format!("settled with {counts:?}, {verified:?}")),
                    }
                });
                cluster.shutdown_nodes();
                verdict
            }
        };
        verdict.map_err(|e| format!("seed {seed}, {leg:?}: {e}"))?;
    }
    Ok(refused)
}

/// A sharded service against `stacks`, one per shard, seeded as its
/// shards are: each shard's share of `steps` replayed in order, with
/// broadcasts folded in shard order, must give every answer the service
/// gave (the closing read of every block compares the contents) and
/// the same summed `CoreStats`.
fn same_as_replay(
    svc: &ShardedService,
    stacks: &mut [Stack],
    steps: &[Step],
    got: &Answers,
) -> Result<(), String> {
    let n = stacks.len() as u64;
    for (i, (step, answer)) in steps.iter().zip(got).enumerate() {
        let Step::Req(req) = step else { continue };
        let want = match req.addr() {
            Some(a) => stacks[(a % n) as usize].submit(&req.with_addr(a / n)),
            None => stacks
                .iter_mut()
                .map(|s| s.submit(req))
                .reduce(merge)
                .expect("a shard"),
        };
        if answer.as_ref() != Some(&want) {
            return Err(format!(
                "step {i} {req:?}: {answer:?}, per-shard replay {want:?}"
            ));
        }
    }
    let mut summed = CoreStats::default();
    for s in stacks.iter() {
        summed.merge(&s.core_stats().expect("chipkill base"));
    }
    match svc.core_stats() == Some(summed) {
        true => Ok(()),
        false => Err("summed CoreStats diverged from the per-shard replay".into()),
    }
}
