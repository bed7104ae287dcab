//! The traced run: the first `n_trace` requests of a workload's stream
//! replayed, one request outstanding, on a ladder of progressively
//! taller assemblies built over one filled `ChipkillMemory`.
//!
//! Every call into a rung is one span, recorded from outside the
//! program into a preallocated buffer. A layer's self time is its rung
//! minus the rung below; the engine's, the bottom rung, is its time
//! minus what the probes say its codec calls cost. Because the request
//! count is fixed, every count of a traced run repeats exactly.

use std::time::{Duration, Instant};

use pmck_cluster::Cluster;
use pmck_core::{
    AccessContext, BlockDevice, BusFault, ChipkillConfig, ChipkillMemory, CoreError, CoreStats,
    LayerId, LayerStats, LinkProtected, Patrolled, ProtectionTier, ReadOutcome, ReadPath, Request,
    Response, Stack, Submitter, WearLevelled,
};
use pmck_rt::rng::{stream_seed, StdRng};
use pmck_service::ShardedService;

use crate::alloc;
use crate::measure::quantile;
use crate::oracle::{Mirror, Tally};
use crate::probes::{codec_costs, media_costs, CodecCosts, MediaCosts};
use crate::spec::{Params, Transport, Workload, AGED_RBER};
use crate::stream::{
    distinct_blocks, prefill_data, stream_hash, Block, Mix, StreamGen, StreamKind,
};
use crate::sut::{
    engine_config, redeem, run_checked, Sut, Window, LINK_RETRIES, PATROL_BLOCKS, PATROL_EVERY,
    WEAR_INTERVAL,
};

/// One assembly of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `ChipkillMemory::{read_block_into, write_block, write_block_sum}`.
    Engine,
    /// The same engine at `ProtectionTier::RsOnly`: the VLEW ablation.
    EngineRsOnly,
    /// The engine behind `Stack::submit`.
    StackBare,
    /// Plus Start-Gap wear levelling.
    StackWearlevel,
    /// Plus patrol scrubbing.
    StackPatrol,
    /// Plus the Write-CRC link: the full volatile stack.
    StackLink,
    /// The persistent stack `StackBuilder` builds, flushes included.
    StackFull,
    /// One cluster node, addressed directly at the primary replica.
    ClusterNode,
    /// A `ServiceClient` lane into a one-shard service.
    Service,
    /// The cluster's placement and quorum walk.
    Cluster,
}

impl Rung {
    /// Every rung, bottom up.
    pub const ALL: [Rung; 10] = [
        Rung::Engine,
        Rung::EngineRsOnly,
        Rung::StackBare,
        Rung::StackWearlevel,
        Rung::StackPatrol,
        Rung::StackLink,
        Rung::StackFull,
        Rung::ClusterNode,
        Rung::Service,
        Rung::Cluster,
    ];

    /// The rung's name in span files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Engine => "engine",
            Rung::EngineRsOnly => "engine_rs_only",
            Rung::StackBare => "stack_bare",
            Rung::StackWearlevel => "stack_wearlevel",
            Rung::StackPatrol => "stack_patrol",
            Rung::StackLink => "stack_link",
            Rung::StackFull => "stack_full",
            Rung::ClusterNode => "cluster_node",
            Rung::Service => "service",
            Rung::Cluster => "cluster",
        }
    }

    /// The rung this one stands on: its time contains that rung's.
    pub fn parent(self, p: &Params) -> Option<Rung> {
        Some(match self {
            Rung::Engine | Rung::EngineRsOnly => return None,
            Rung::StackBare => Rung::Engine,
            Rung::StackWearlevel => Rung::StackBare,
            Rung::StackPatrol => Rung::StackWearlevel,
            Rung::StackLink => Rung::StackPatrol,
            Rung::StackFull => Rung::StackLink,
            Rung::ClusterNode => Rung::StackBare,
            Rung::Service if p.persistent => Rung::StackFull,
            Rung::Service => Rung::StackLink,
            Rung::Cluster => Rung::ClusterNode,
        })
    }
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `Read`, submitted and answered.
    Read,
    /// A `Write`.
    Write,
    /// A `WriteSum`.
    WriteSum,
    /// A `Flush`.
    Flush,
    /// The `try_submit` half of a service request.
    TrySubmit,
    /// The `wait` half of a service request.
    Redeem,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 6] = [
        Kind::Read,
        Kind::Write,
        Kind::WriteSum,
        Kind::Flush,
        Kind::TrySubmit,
        Kind::Redeem,
    ];

    /// The kind's name in span files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::WriteSum => "write_sum",
            Kind::Flush => "flush",
            Kind::TrySubmit => "try_submit",
            Kind::Redeem => "redeem",
        }
    }

    fn of(req: &Request) -> Kind {
        match req {
            Request::Read(_) => Kind::Read,
            Request::Write { .. } => Kind::Write,
            Request::WriteSum { .. } => Kind::WriteSum,
            _ => Kind::Flush,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the request in the replayed prefix.
    pub req_id: u32,
    /// The rung called.
    pub rung: Rung,
    /// What was timed.
    pub kind: Kind,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// The rung whose time this span contains; a service half-span
    /// names its own rung.
    pub parent_rung: Option<Rung>,
}

/// The span buffer.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn with_capacity(spans: usize) -> Self {
        let filler = Span {
            req_id: u32::MAX,
            rung: Rung::Engine,
            kind: Kind::Read,
            start_ns: u64::MAX,
            end_ns: u64::MAX,
            parent_rung: None,
        };
        Tracer {
            epoch: Instant::now(),
            spans: alloc::prefaulted(spans, filler),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations of the spans of `kind` on `rung`, sorted.
    pub fn durations(&self, rung: Rung, kind: Kind) -> Vec<u64> {
        let of_kind = self
            .spans
            .iter()
            .filter(|s| s.rung == rung && s.kind == kind);
        let mut d: Vec<u64> = of_kind.map(|s| s.end_ns - s.start_ns).collect();
        d.sort_unstable();
        d
    }

    /// The median, over the requests both rungs replayed, of `upper`'s
    /// span minus `lower`'s for the same request: what the layers
    /// between the two typically add to one request. Unlike the
    /// difference of the rungs' means it does not move when the host
    /// slows one replay, nor with a rare expensive request (a gap move,
    /// a patrol step: those are counted on their own).
    pub fn paired_median_ns(&self, upper: Rung, lower: Rung, writes_only: bool) -> f64 {
        let wanted = |s: &&Span| {
            let whole = !matches!(s.kind, Kind::TrySubmit | Kind::Redeem);
            whole && (!writes_only || matches!(s.kind, Kind::Write | Kind::WriteSum))
        };
        let of = |rung: Rung| {
            self.spans
                .iter()
                .filter(move |s| s.rung == rung)
                .filter(wanted)
        };
        let mut below = of(lower).peekable();
        let mut diffs: Vec<i64> = Vec::new();
        for up in of(upper) {
            // Both rungs hold their spans in request order.
            while below.next_if(|s| s.req_id < up.req_id).is_some() {}
            if let Some(low) = below.next_if(|s| s.req_id == up.req_id) {
                diffs.push((up.end_ns - up.start_ns) as i64 - (low.end_ns - low.start_ns) as i64);
            }
        }
        if diffs.is_empty() {
            return 0.0;
        }
        diffs.sort_unstable();
        quantile(&diffs, 0.5, |ns| ns as f64)
    }

    /// Median duration of the spans of `kind` on `rung`; 0 without any.
    pub fn median_ns(&self, rung: Rung, kind: Kind) -> f64 {
        let d = self.durations(rung, kind);
        if d.is_empty() {
            0.0
        } else {
            quantile(&d, 0.5, |ns| ns as f64)
        }
    }
}

/// Count and total time of a class of requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Requests.
    pub count: u64,
    /// Their spans' total, in ns.
    pub ns: u64,
}

impl Cost {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    /// Mean ns per request; 0 without any.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// What one rung's replay cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct RungReport {
    /// All requests replayed on the rung.
    pub all: Cost,
    /// `Read`s.
    pub read: Cost,
    /// `Write`s.
    pub write: Cost,
    /// `WriteSum`s.
    pub write_sum: Cost,
    /// `Flush`es.
    pub flush: Cost,
    /// Reads answered `ReadPath::Clean`.
    pub read_clean: Cost,
    /// Reads answered `ReadPath::RsCorrected`.
    pub read_rs_corrected: Cost,
    /// Reads answered through any VLEW path.
    pub read_vlew: Cost,
    /// Heap allocation calls made while the rung executed requests.
    pub allocs: u64,
    /// The oracle's verdicts on the rung's responses.
    pub tally: Tally,
}

impl RungReport {
    /// Mean ns per request over everything the rung replayed.
    pub fn ns_per_op(&self) -> f64 {
        self.all.mean_ns()
    }
}

/// The timed call of a rung.
type Exec<'a> = &'a mut dyn FnMut(&Request) -> Result<Response, CoreError>;

fn engine_exec(mem: &mut ChipkillMemory, req: &Request) -> Result<Response, CoreError> {
    match req {
        Request::Read(addr) => {
            let mut data = [0u8; 64];
            let path = mem.read_block_into(*addr, &mut data)?;
            Ok(Response::Read(ReadOutcome { data, path }))
        }
        Request::Write { addr, data } => mem.write_block(*addr, data).map(|_| Response::Written),
        Request::WriteSum { addr, data } => {
            mem.write_block_sum(*addr, data).map(|_| Response::Written)
        }
        _ => Err(CoreError::Unsupported("engine rung")),
    }
}

fn service_exec(port: &mut dyn Submitter, req: &Request) -> Result<Response, CoreError> {
    let ticket = port.try_submit(req)?;
    redeem(port, ticket)
}

/// Whether the lane answers untimed reads as two processors do.
fn answers_promptly(port: &mut dyn Submitter) -> bool {
    const READS: u32 = 64;
    let start = Instant::now();
    for _ in 0..READS {
        let _ = service_exec(port, &Request::Read(0));
    }
    start.elapsed() < READS * Duration::from_micros(20)
}

/// How long [`settle`] keeps a lane busy before it gives up.
const SETTLE_LIMIT: Duration = Duration::from_secs(5);

/// Keeps the lane busy with untimed reads, for [`SETTLE_LIMIT`] at most,
/// until it answers promptly; returns whether it did.
///
/// On a host that was quiet for a minute, the first process finds its
/// client and its shard worker sharing one processor with the other
/// idle: 64 µs a request (the client's spins before it yields). Sleeping
/// does not separate them, nor does polling from a new thread; a busy
/// lane does, after 1.1 to 1.2 s (three sightings out of three).
fn settle(port: &mut dyn Submitter) -> bool {
    let start = Instant::now();
    while start.elapsed() < SETTLE_LIMIT {
        if answers_promptly(port) {
            return true;
        }
    }
    eprintln!("pmck-benchmark: the service lane did not settle in {SETTLE_LIMIT:?}");
    false
}

fn cluster_node_exec(cluster: &mut Cluster<Stack>, req: &Request) -> Result<Response, CoreError> {
    match req {
        Request::Read(addr) => {
            let (node, local) = cluster.place(*addr, 0);
            cluster.node_mut(node).submit(&Request::Read(local))
        }
        _ => Err(CoreError::Unsupported("cluster node rung")),
    }
}

/// The stack of `rung` over a copy of `base`, put together from the
/// public constructors the way `StackBuilder::build` does.
fn assemble(rung: Rung, base: &ChipkillMemory, p: &Params, seed: u64) -> Stack {
    let patrolled = || Patrolled::over(base.clone(), PATROL_BLOCKS, PATROL_EVERY);
    let dev: Box<dyn BlockDevice> = match rung {
        Rung::StackBare => Box::new(base.clone()),
        Rung::StackWearlevel => Box::new(WearLevelled::over(base.clone(), p.blocks, WEAR_INTERVAL)),
        Rung::StackPatrol => Box::new(WearLevelled::over(patrolled(), p.blocks, WEAR_INTERVAL)),
        _ => Box::new(LinkProtected::over(
            WearLevelled::over(patrolled(), p.blocks, WEAR_INTERVAL),
            BusFault::none(),
            LINK_RETRIES,
        )),
    };
    Stack::from_parts(dev, AccessContext::new(seed))
}

/// A rank of `blocks` logical blocks plus the wear-levelling gap, filled
/// with `prefill` and, for an aged workload, aged once: every rung over
/// a copy of it sees the same stored bits.
fn filled_engine(
    cfg: ChipkillConfig,
    p: &Params,
    prefill: &[Block],
    seed: u64,
) -> Result<ChipkillMemory, CoreError> {
    let mut mem = ChipkillMemory::new(p.blocks + 1, cfg);
    for (addr, data) in prefill.iter().enumerate() {
        mem.write_block(addr as u64, data)?;
    }
    mem.flush_eur();
    if p.aged {
        mem.inject_bit_errors(
            AGED_RBER,
            &mut StdRng::seed_from_u64(stream_seed(seed, 0xA6ED)),
        );
    }
    Ok(mem)
}

/// Everything the traced run of one workload produced.
pub struct Traced {
    /// The workload's parameters.
    pub params: Params,
    /// The seed of inputs and stacks.
    pub seed: u64,
    /// Hash of the replayed requests.
    pub stream_hash: u64,
    /// Their mix.
    pub mix: Mix,
    /// The rungs replayed, bottom up.
    pub rungs: Vec<(Rung, RungReport)>,
    /// Every per-layer metric, in the order of [`crate::spec::PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// The spans.
    pub tracer: Tracer,
    /// Verdicts over every rung but the RS-only ablation, which has no
    /// VLEW tier to fall back on.
    pub tally: Tally,
    /// Whether a service lane never came to answer promptly (see
    /// [`settle`]): the `service.*` metrics and `trace.overhead_ratio`
    /// of such a run time two threads on one processor.
    pub lane_unsettled: bool,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Requests of a mix every rung replays before the next rung takes its
/// turn at them. A mix replay takes most of a second per rung, long
/// enough for the host to drift between the first rung and the last;
/// climbing side by side, a chunk at a time, a slow phase slows all
/// rungs and cancels in their differences. A read replay takes 20 ms
/// and is not chunked: all rungs finish within a quarter of a second,
/// and chunks would run every rung out of a cold L2, which the untraced
/// run does not.
const MIX_CHUNK: usize = 512;

/// One rung's progress through the prefix.
struct Climb {
    rung: Rung,
    flushes: bool,
    mirror: Mirror,
    report: RungReport,
}

/// The rungs' shared replay state.
struct Ladder<'a> {
    p: Params,
    prefix: &'a [Request],
    tracer: Tracer,
    climbs: Vec<Climb>,
}

impl Ladder<'_> {
    /// Starts `rung` with a fresh mirror. `Flush` requests are replayed
    /// on it only with `flushes`.
    fn add(&mut self, rung: Rung, flushes: bool, prefill: &[Block]) {
        self.climbs.push(Climb {
            rung,
            flushes,
            mirror: Mirror::new(prefill.to_vec(), flushes),
            report: RungReport::default(),
        });
    }

    fn climb(&mut self, rung: Rung) -> &mut Climb {
        let found = self.climbs.iter_mut().find(|c| c.rung == rung);
        found.expect("the rung was added")
    }

    /// Replays `prefix[range]` on `rung`: one span per request, every
    /// response judged against the rung's mirror.
    fn step(&mut self, rung: Rung, range: std::ops::Range<usize>, exec: Exec) {
        let parent_rung = rung.parent(&self.p);
        let at = self
            .climbs
            .iter()
            .position(|c| c.rung == rung)
            .expect("the rung was added");
        let Climb {
            flushes,
            mirror,
            report,
            ..
        } = &mut self.climbs[at];
        for req_id in range {
            let req = &self.prefix[req_id];
            if matches!(req, Request::Flush) && !*flushes {
                continue;
            }
            let allocs = alloc::calls();
            let start_ns = self.tracer.now();
            let resp = exec(req);
            let end_ns = self.tracer.now();
            report.allocs += alloc::calls() - allocs;
            let kind = Kind::of(req);
            self.tracer.spans.push(Span {
                req_id: req_id as u32,
                rung,
                kind,
                start_ns,
                end_ns,
                parent_rung,
            });
            let ns = end_ns - start_ns;
            report.all.add(ns);
            match kind {
                Kind::Read => report.read.add(ns),
                Kind::Write => report.write.add(ns),
                Kind::WriteSum => report.write_sum.add(ns),
                _ => report.flush.add(ns),
            }
            if let Ok(Response::Read(out)) = &resp {
                match out.path {
                    ReadPath::Clean => report.read_clean.add(ns),
                    ReadPath::RsCorrected { .. } => report.read_rs_corrected.add(ns),
                    _ => report.read_vlew.add(ns),
                }
            }
            report.tally.record(mirror.judge(req, &resp));
        }
    }
}

/// What the probes say the codec calls behind the engine rung's requests
/// cost: the count of each path, from the engine's own `CoreStats`
/// before and after the replay, times the per-call median of the
/// function that path spends its time in. A write encodes one VLEW
/// delta per chip and a fallback decodes one VLEW per chip.
fn codec_ns(before: &CoreStats, after: &CoreStats, chips: usize, costs: &CodecCosts) -> f64 {
    let calls = |field: fn(&CoreStats) -> u64| (field(after) - field(before)) as f64;
    let chips = chips as f64;
    calls(|s| s.clean_reads) * costs.rs_clean_check_ns
        + calls(|s| s.rs_accepted) * costs.rs_decode_errorful_ns
        + calls(|s| s.fallbacks)
            * (costs.rs_decode_errorful_ns + chips * costs.bch_decode_errorful_ns)
        + calls(|s| s.writes) * (costs.rs_parity_ns + chips * costs.bch_encode_ns)
}

/// The top rung's requests without spans or oracle, on an identical
/// assembly: what `trace.overhead_ratio` divides the traced cost by.
#[derive(Default)]
struct Untraced {
    requests: u64,
    ns: u64,
}

impl Untraced {
    fn run(
        &mut self,
        reqs: &[Request],
        flushes: bool,
        mut exec: impl FnMut(&Request) -> Result<Response, CoreError>,
    ) {
        let start = Instant::now();
        for req in reqs
            .iter()
            .filter(|r| flushes || !matches!(r, Request::Flush))
        {
            self.requests += 1;
            let _ = std::hint::black_box(exec(req));
        }
        self.ns += start.elapsed().as_nanos() as u64;
    }

    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.requests.max(1) as f64
    }
}

/// The transport on top of the stacks: the system the top rung replays
/// on and its untraced twin.
// One of these lives per run; boxing the service would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Top {
    /// `Stack` is its own transport; the top rung is `stack_link`.
    Stack { twin: Stack },
    /// A service lane. Reads leave a service as it was, so a read
    /// workload's twin is the service itself.
    Service {
        sut: Sut,
        twin: Option<Sut>,
        mids: Vec<u64>,
    },
    /// A cluster, read only.
    Cluster { sut: Sut },
}

/// Runs the traced replay of `workload`.
///
/// # Errors
///
/// An error of a set-up request. Errors of replayed requests are
/// counted in the rungs' tallies.
pub fn run_traced(workload: Workload, seed: u64, scale: u64) -> Result<Traced, CoreError> {
    let p = workload.params(scale);
    let prefill = prefill_data(p.blocks, seed);

    // The replayed prefix, and as many requests again for the windowed
    // continuation on the service rung.
    let mut gen = StreamGen::new(p.trace_spec, p.blocks, seed, p.kind, &prefill);
    let mut prefix = Vec::new();
    let started = Instant::now();
    gen.extend(&mut prefix, 2 * p.n_trace);
    let gen_ns_per_req = started.elapsed().as_nanos() as f64 / prefix.len() as f64;
    let continuation = prefix.split_off(p.n_trace);
    let mix = Mix::of(&prefix);

    let costs = codec_costs(&prefix, &prefill, seed);
    let media = if p.persistent {
        let writes_per_flush = (mix.writes + mix.write_sums) / mix.flushes.max(1);
        media_costs(p.blocks, writes_per_flush as usize)
    } else {
        MediaCosts::default()
    };

    // Every assembly, built before the first span.
    let base = filled_engine(engine_config(), &p, &prefill, seed)?;
    let mut engine = base.clone();
    let engine_before = *engine.stats();
    let mut rs_only = filled_engine(
        ChipkillConfig::for_tier(ProtectionTier::RsOnly),
        &p,
        &prefill,
        seed,
    )?;
    let stack_rungs = [
        Rung::StackBare,
        Rung::StackWearlevel,
        Rung::StackPatrol,
        Rung::StackLink,
    ];
    let mut stacks = stack_rungs.map(|rung| (rung, assemble(rung, &base, &p, seed)));
    let bare_transport = Params {
        transport: Transport::Stack,
        window: 1,
        ..p
    };
    let mut full = match p.persistent {
        true => match Sut::set_up(&bare_transport, seed, &prefill)? {
            Sut::Stack(stack) => Some(stack),
            _ => unreachable!("the stack transport builds a stack"),
        },
        false => None,
    };
    let mut top = match p.transport {
        Transport::Stack => Top::Stack {
            twin: assemble(Rung::StackLink, &base, &p, seed),
        },
        Transport::Service => Top::Service {
            sut: Sut::set_up(&p, seed, &prefill)?,
            twin: match p.kind {
                StreamKind::Reads => None,
                StreamKind::Mix { .. } => Some(Sut::set_up(&p, seed, &prefill)?),
            },
            mids: alloc::prefaulted(prefix.len(), u64::MAX),
        },
        Transport::Cluster => Top::Cluster {
            sut: Sut::set_up(&p, seed, &prefill)?,
        },
    };
    drop(base);
    // Counters of the top stack before the replay adds to them.
    let before = full
        .as_ref()
        .map_or(Vec::new(), |stack| stack.layers().to_vec());

    let mut ladder = Ladder {
        p,
        prefix: &prefix,
        tracer: Tracer::with_capacity(prefix.len() * (Rung::ALL.len() + 2)),
        climbs: Vec::new(),
    };
    for rung in [Rung::Engine, Rung::EngineRsOnly]
        .into_iter()
        .chain(stack_rungs)
    {
        ladder.add(rung, false, &prefill);
    }
    if full.is_some() {
        ladder.add(Rung::StackFull, true, &prefill);
    }
    match &top {
        Top::Stack { .. } => {}
        Top::Service { .. } => ladder.add(Rung::Service, p.persistent, &prefill),
        Top::Cluster { .. } => {
            ladder.add(Rung::ClusterNode, false, &prefill);
            ladder.add(Rung::Cluster, false, &prefill);
        }
    }

    let mut untraced = Untraced::default();
    let mut lane_unsettled = false;
    let epoch = ladder.tracer.epoch;
    let chunk_len = if p.kind == StreamKind::Reads {
        prefix.len()
    } else {
        MIX_CHUNK
    };
    for start in (0..prefix.len()).step_by(chunk_len) {
        let range = start..(start + chunk_len).min(prefix.len());
        let chunk = &prefix[range.clone()];
        ladder.step(Rung::Engine, range.clone(), &mut |req: &Request| {
            engine_exec(&mut engine, req)
        });
        ladder.step(Rung::EngineRsOnly, range.clone(), &mut |req: &Request| {
            engine_exec(&mut rs_only, req)
        });
        for (rung, stack) in stacks.iter_mut() {
            ladder.step(*rung, range.clone(), &mut |req: &Request| stack.submit(req));
        }
        if let Some(stack) = &mut full {
            ladder.step(Rung::StackFull, range.clone(), &mut |req: &Request| {
                stack.submit(req)
            });
        }
        match &mut top {
            Top::Stack { twin } => untraced.run(chunk, false, |req| twin.submit(req)),
            Top::Service { sut, twin, mids } => {
                // The instant between `try_submit` and the polling is
                // kept, so that each span can be split into its halves.
                let mut settled = settle(sut.port());
                let port = sut.port();
                ladder.step(Rung::Service, range.clone(), &mut |req: &Request| {
                    let ticket = port.try_submit(req);
                    mids.push(epoch.elapsed().as_nanos() as u64);
                    redeem(port, ticket?)
                });
                let port = twin.as_mut().unwrap_or(sut).port();
                settled &= settle(port);
                lane_unsettled |= !settled;
                untraced.run(chunk, p.persistent, |req| service_exec(port, req));
            }
            Top::Cluster { sut } => {
                let Sut::Cluster(c) = sut else {
                    unreachable!("the cluster transport builds a cluster");
                };
                ladder.step(Rung::ClusterNode, range.clone(), &mut |req: &Request| {
                    cluster_node_exec(c, req)
                });
                ladder.step(Rung::Cluster, range.clone(), &mut |req: &Request| {
                    Submitter::submit(c, req)
                });
                untraced.run(chunk, false, |req| Submitter::submit(c, req));
            }
        }
    }

    // What the replay added to the layer counters of the top stack.
    let top_stack = full.as_ref().unwrap_or(&stacks[3].1);
    let count = |id: LayerId, field: fn(&LayerStats) -> u64| {
        let of = |all: &[(LayerId, LayerStats)]| {
            all.iter()
                .find(|(l, _)| *l == id)
                .map_or(0, |(_, s)| field(s))
        };
        (of(top_stack.layers()) - of(&before)) as f64
    };
    let flushes = count(LayerId::Pmem, |s| s.flushes).max(1.0);

    // What the transport on top adds.
    let mut backpressure_per_kop = 0.0;
    let mut inflight = (0.0, 0.0, 0.0);
    let mut cluster_counts = (0, 0);
    let top_rung = match &mut top {
        Top::Stack { .. } => Rung::StackLink,
        Top::Service { sut, mids, .. } => {
            let wholes: Vec<Span> = ladder
                .tracer
                .spans
                .iter()
                .filter(|s| s.rung == Rung::Service)
                .copied()
                .collect();
            for (whole, mid) in wholes.into_iter().zip(mids.iter().copied()) {
                let halves = [
                    (Kind::TrySubmit, whole.start_ns, mid),
                    (Kind::Redeem, mid, whole.end_ns),
                ];
                ladder
                    .tracer
                    .spans
                    .extend(halves.map(|(kind, start_ns, end_ns)| Span {
                        kind,
                        start_ns,
                        end_ns,
                        parent_rung: Some(Rung::Service),
                        ..whole
                    }));
            }
            // The stream goes on, windowed as in the untraced run: this
            // is where backpressure and in-flight time can show.
            let climb = ladder.climb(Rung::Service);
            let mut windowed = Tally::default();
            let mut window = Window::new(p.transport, p.window);
            run_checked(
                sut.port(),
                &mut window,
                &continuation,
                &mut climb.mirror,
                &mut windowed,
            );
            climb.report.tally.errors += windowed.errors;
            climb.report.tally.mismatches += windowed.mismatches;
            backpressure_per_kop =
                1000.0 * ratio(windowed.backpressure_retries, windowed.attempted);
            if let Sut::Service { svc, .. } = sut {
                inflight = inflight_of(svc);
            }
            Rung::Service
        }
        Top::Cluster { sut } => {
            if let Sut::Cluster(c) = sut {
                cluster_counts = (c.stats().degraded_reads, c.stats().read_repairs);
            }
            Rung::Cluster
        }
    };

    let (c_factor, eur_occupancy) = (engine.c_factor(), engine.eur_occupancy());
    let engine_codec_ns = codec_ns(
        &engine_before,
        engine.stats(),
        engine.layout().total_chips(),
        &costs,
    );
    let Ladder { tracer, climbs, .. } = ladder;
    let rungs: Vec<(Rung, RungReport)> = climbs.iter().map(|c| (c.rung, c.report)).collect();
    let of = |rung: Rung| {
        rungs
            .iter()
            .find(|(r, _)| *r == rung)
            .map(|(_, rep)| *rep)
            .unwrap_or_default()
    };
    let (engine, link) = (of(Rung::Engine), of(Rung::StackLink));
    let full = if p.persistent {
        of(Rung::StackFull)
    } else {
        link
    };
    let below_service = if p.persistent {
        Rung::StackFull
    } else {
        Rung::StackLink
    };
    let on_service = |v: f64| {
        if p.transport == Transport::Service {
            v
        } else {
            0.0
        }
    };
    let on_cluster = |v: f64| {
        if p.transport == Transport::Cluster {
            v
        } else {
            0.0
        }
    };
    let on_pmem = |v: f64| if p.persistent { v } else { 0.0 };

    let metrics = vec![
        ("workloads.gen_ns_per_req", gen_ns_per_req),
        ("workloads.read_share", mix.share(mix.reads)),
        ("workloads.write_share", mix.share(mix.writes)),
        ("workloads.write_sum_share", mix.share(mix.write_sums)),
        ("workloads.flush_share", mix.share(mix.flushes)),
        (
            "workloads.distinct_blocks",
            distinct_blocks(&prefix, p.blocks) as f64,
        ),
        ("gf.syndrome_rows_ns", costs.gf_syndrome_rows_ns),
        ("rs.clean_check_ns", costs.rs_clean_check_ns),
        ("rs.decode_errorful_ns", costs.rs_decode_errorful_ns),
        ("rs.parity_ns", costs.rs_parity_ns),
        ("bch.encode_ns", costs.bch_encode_ns),
        ("bch.decode_clean_ns", costs.bch_decode_clean_ns),
        ("bch.decode_errorful_ns", costs.bch_decode_errorful_ns),
        ("pmem.stage_ns_per_line", media.stage_ns_per_line),
        ("pmem.fence_ns", media.fence_ns),
        ("pmem.recover_ns", media.recover_ns),
        ("core.engine.read_clean_ns", engine.read_clean.mean_ns()),
        (
            "core.engine.read_rs_corrected_ns",
            engine.read_rs_corrected.mean_ns(),
        ),
        (
            "core.engine.read_vlew_fallback_ns",
            engine.read_vlew.mean_ns(),
        ),
        (
            "core.engine.clean_read_share",
            ratio(engine.read_clean.count, engine.read.count),
        ),
        (
            "core.engine.rs_corrected_share",
            ratio(engine.read_rs_corrected.count, engine.read.count),
        ),
        (
            "core.engine.vlew_fallback_share",
            ratio(engine.read_vlew.count, engine.read.count),
        ),
        ("core.engine.write_ns", engine.write.mean_ns()),
        ("core.engine.write_sum_ns", engine.write_sum.mean_ns()),
        (
            "core.engine.vlew_write_ns",
            tracer.paired_median_ns(Rung::Engine, Rung::EngineRsOnly, true),
        ),
        ("core.engine.c_factor", c_factor),
        ("core.engine.eur_occupancy", eur_occupancy as f64),
        (
            "core.engine.self_ns_per_op",
            (engine.all.ns as f64 - engine_codec_ns) / engine.all.count.max(1) as f64,
        ),
        (
            "core.stack.dispatch_ns_per_op",
            tracer.paired_median_ns(Rung::StackBare, Rung::Engine, false),
        ),
        (
            "core.stack.allocs_per_op",
            ratio(full.allocs, full.all.count),
        ),
        (
            "core.wearlevel.self_ns_per_op",
            tracer.paired_median_ns(Rung::StackWearlevel, Rung::StackBare, false),
        ),
        (
            "core.wearlevel.gap_moves",
            count(LayerId::Wearlevel, |s| s.gap_moves),
        ),
        (
            "core.patrol.self_ns_per_op",
            tracer.paired_median_ns(Rung::StackPatrol, Rung::StackWearlevel, false),
        ),
        (
            "core.patrol.steps",
            count(LayerId::Patrol, |s| s.patrol_steps),
        ),
        (
            "core.iocrc.self_ns_per_op",
            tracer.paired_median_ns(Rung::StackLink, Rung::StackPatrol, false),
        ),
        (
            "core.iocrc.retransmissions",
            count(LayerId::Link, |s| s.retransmissions),
        ),
        (
            "core.pmem.self_ns_per_op",
            on_pmem((full.all.ns as f64 - link.all.ns as f64) / full.all.count.max(1) as f64),
        ),
        ("core.pmem.flush_ns", on_pmem(full.flush.mean_ns())),
        (
            "core.pmem.lines_flushed_per_flush",
            count(LayerId::Pmem, |s| s.lines_flushed) / flushes,
        ),
        (
            "core.pmem.log_bytes_per_flush",
            count(LayerId::Pmem, |s| s.log_bytes) / flushes,
        ),
        ("core.pmem.fences", count(LayerId::Pmem, |s| s.fences)),
        ("rt.ring.spsc_roundtrip_ns", costs.spsc_roundtrip_ns),
        (
            "service.try_submit_ns",
            tracer.median_ns(Rung::Service, Kind::TrySubmit),
        ),
        (
            "service.redeem_ns",
            tracer.median_ns(Rung::Service, Kind::Redeem),
        ),
        (
            "service.roundtrip_ns",
            on_service(
                tracer.median_ns(Rung::Service, Kind::Read)
                    - tracer.median_ns(below_service, Kind::Read),
            ),
        ),
        ("service.backpressure_retries_per_kop", backpressure_per_kop),
        ("service.inflight_p50_ns", inflight.0),
        ("service.inflight_p99_ns", inflight.1),
        ("service.dropped_samples", inflight.2),
        (
            "cluster.walk_self_ns_per_op",
            on_cluster(tracer.paired_median_ns(Rung::Cluster, Rung::ClusterNode, false)),
        ),
        ("cluster.degraded_reads", cluster_counts.0 as f64),
        ("cluster.read_repairs", cluster_counts.1 as f64),
        (
            "trace.overhead_ratio",
            of(top_rung).ns_per_op() / untraced.ns_per_op().max(1e-9),
        ),
        ("trace.spans", tracer.spans.len() as f64),
    ];

    let mut tally = Tally::default();
    for (_, report) in rungs.iter().filter(|(rung, _)| *rung != Rung::EngineRsOnly) {
        tally.attempted += report.tally.attempted;
        tally.errors += report.tally.errors;
        tally.mismatches += report.tally.mismatches;
    }
    Ok(Traced {
        params: p,
        seed,
        stream_hash: stream_hash(&prefix),
        mix,
        rungs,
        metrics,
        tracer,
        tally,
        lane_unsettled,
    })
}

/// p50, p99 and dropped samples of the service's own in-flight
/// telemetry (`latency_report`).
fn inflight_of(svc: &ShardedService) -> (f64, f64, f64) {
    let (per_shard, broadcast) = svc.latency_report();
    let mut all = broadcast;
    per_shard.iter().for_each(|h| all.merge(h));
    let dropped = svc.dropped_samples() as f64;
    if all.count() == 0 {
        return (0.0, 0.0, dropped);
    }
    (all.quantile(0.5) as f64, all.quantile(0.99) as f64, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::stack_builder;

    /// The ladder's top volatile rung is put together by hand from the
    /// public constructors; it must be the stack `StackBuilder` builds.
    #[test]
    fn hand_assembled_stack_is_the_builders() {
        let p = Workload::WriteMix.params(64);
        let prefill = prefill_data(p.blocks, 3);
        let mut gen = StreamGen::new(p.trace_spec, p.blocks, 3, p.kind, &prefill);
        let mut reqs = Vec::new();
        gen.extend(&mut reqs, 2000);

        let base = filled_engine(engine_config(), &p, &prefill, 3).unwrap();
        let mut by_hand = assemble(Rung::StackLink, &base, &p, 3);
        let mut built = stack_builder(p.blocks, false).seed(3).build();
        for (addr, data) in prefill.iter().enumerate() {
            built.write(addr as u64, data).unwrap();
        }
        let written = |stack: &Stack, id| stack.layer(id).map_or(0, |s| s.writes);
        let prefill_writes = written(&built, LayerId::Link);
        for req in &reqs {
            assert_eq!(by_hand.submit(req), built.submit(req), "{req:?}");
        }
        assert_eq!(
            written(&by_hand, LayerId::Link),
            written(&built, LayerId::Link) - prefill_writes
        );
        let layers = |stack: &Stack| {
            let mut ids: Vec<_> = stack.layers().iter().map(|(id, _)| id.as_str()).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(layers(&by_hand), layers(&built));
    }
}
