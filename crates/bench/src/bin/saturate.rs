//! Saturation benchmark: N producer threads driving all shards of the
//! memory service flat out through the lock-free ring transport, with
//! per-request latency histograms.
//!
//! Three workloads:
//!
//! * `clean` — reads over a pristine prefilled space (the fast path;
//!   transport overhead dominates);
//! * `errorful` — reads over a space damaged at a runtime-representative
//!   RBER, with a scrub mixed in every 16th request (fault-mix: decode
//!   work per op is higher, transport relatively lighter);
//! * `flush_heavy` — writes with a `Flush` broadcast closing every
//!   batch over persistent stacks (broadcast-coordination stress).
//!
//! Each producer thread owns a `ServiceClient` lane (tickets pipeline
//! up to the window, no cross-producer locks); per-request latency
//! comes from the service's own completion-path telemetry.
//!
//! Output is one JSON document with ops/s and p50/p99/p999 (ns) per
//! workload. `--short` shrinks the run for CI and asserts sanity
//! (nonzero throughput, p50 ≤ p99 ≤ p999).
//!
//! ```text
//! saturate [--shards N] [--producers N] [--batch N] [--rounds N]
//!          [--short] [--pretty]
//! ```

use std::time::Instant;

use pmck_core::{ChipkillConfig, PmemConfig, Request, Stack, StackBuilder};
use pmck_rt::metrics::Histogram;
use pmck_rt::rng::{stream_seed, Rng, StdRng};
use pmck_service::ShardedService;

#[derive(Clone, Copy)]
struct Config {
    shards: usize,
    producers: usize,
    batch: usize,
    rounds: usize,
    blocks_per_shard: u64,
    short: bool,
    pretty: bool,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config {
            shards: 4,
            producers: 4,
            batch: 8,
            rounds: 2000,
            blocks_per_shard: 32,
            short: false,
            pretty: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--shards" => cfg.shards = need(args.next(), "--shards"),
                "--producers" => cfg.producers = need(args.next(), "--producers"),
                "--batch" => cfg.batch = need(args.next(), "--batch"),
                "--rounds" => cfg.rounds = need(args.next(), "--rounds"),
                "--short" => {
                    cfg.short = true;
                    cfg.rounds = 200;
                }
                "--pretty" => cfg.pretty = true,
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        if cfg.shards == 0 || cfg.producers == 0 || cfg.batch == 0 || cfg.rounds == 0 {
            usage("all sizes must be positive");
        }
        cfg
    }
}

fn need(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a positive integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: saturate [--shards N] [--producers N] [--batch N] [--rounds N] [--short] [--pretty]"
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Clean,
    Errorful,
    FlushHeavy,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Clean, Workload::Errorful, Workload::FlushHeavy];

    fn name(self) -> &'static str {
        match self {
            Workload::Clean => "clean",
            Workload::Errorful => "errorful",
            Workload::FlushHeavy => "flush_heavy",
        }
    }

    fn build_stack(self, blocks: u64, seed: u64) -> Stack {
        let b = StackBuilder::proposal(blocks, ChipkillConfig::default()).seed(seed);
        match self {
            Workload::FlushHeavy => b.persistent(PmemConfig::default()).build(),
            _ => b.build(),
        }
    }

    /// Damage rate applied to the prefilled space before the run.
    fn rber(self) -> f64 {
        match self {
            Workload::Errorful => 2e-4,
            _ => 0.0,
        }
    }

    /// One producer's next batch, drawn from its own seeded stream.
    fn gen_batch(self, rng: &mut StdRng, total: u64, batch: usize, out: &mut Vec<Request>) {
        out.clear();
        for i in 0..batch {
            let addr = rng.gen_range(0..total);
            out.push(match self {
                Workload::Clean => Request::Read(addr),
                Workload::Errorful => {
                    if i % 16 == 15 {
                        Request::Scrub(addr)
                    } else {
                        Request::Read(addr)
                    }
                }
                Workload::FlushHeavy => {
                    let mut data = [0u8; 64];
                    rng.fill_bytes(&mut data[..]);
                    Request::Write { addr, data }
                }
            });
        }
        if self == Workload::FlushHeavy {
            out.push(Request::Flush);
        }
    }
}

struct EngineResult {
    ops: u64,
    elapsed_ns: u64,
    latency: Histogram,
    dropped_samples: u64,
}

impl EngineResult {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.elapsed_ns as f64
    }

    fn to_json(&self) -> pmck_rt::json::Json {
        pmck_rt::json::Json::object()
            .with("ops", self.ops)
            .with("elapsed_ns", self.elapsed_ns)
            .with("ops_per_s", self.ops_per_s())
            .with("p50_ns", self.latency.quantile(0.50))
            .with("p99_ns", self.latency.quantile(0.99))
            .with("p999_ns", self.latency.quantile(0.999))
            .with("latency_samples", self.latency.count())
            .with("dropped_samples", self.dropped_samples)
    }
}

fn run_ring(cfg: Config, wl: Workload, seed: u64) -> EngineResult {
    let mut svc = ShardedService::with_clients(cfg.shards, cfg.producers, seed, |_, s| {
        wl.build_stack(cfg.blocks_per_shard, s)
    });
    let total = svc.num_blocks();
    {
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let writes: Vec<Request> = (0..total)
            .map(|a| {
                let mut data = [0u8; 64];
                rng.fill_bytes(&mut data[..]);
                Request::Write { addr: a, data }
            })
            .collect();
        svc.submit_batch_into(&writes, &mut out);
        for r in out.drain(..) {
            r.expect("prefill");
        }
    }
    if wl.rber() > 0.0 {
        for s in 0..cfg.shards {
            svc.with_shard(s, |stack| stack.inject_bit_errors(wl.rber()))
                .expect("inject");
        }
    }
    let clients: Vec<_> = (0..cfg.producers)
        .map(|_| svc.take_client().expect("one lane per producer"))
        .collect();

    let start = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(p, mut client)| {
            std::thread::spawn(move || {
                use pmck_core::{CoreError, ServiceFailure};
                let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ 0xCAFE, p as u64));
                let mut batch = Vec::with_capacity(cfg.batch + 1);
                let mut fifo = std::collections::VecDeque::with_capacity(client.window());
                let mut ops = 0u64;
                // The streaming plane: tickets pipeline up to the window
                // with no per-batch barrier — a batch is only the
                // generation unit. Backpressure (window or ring full)
                // redeems the oldest ticket and retries.
                for _ in 0..cfg.rounds {
                    wl.gen_batch(&mut rng, total, cfg.batch, &mut batch);
                    for req in &batch {
                        loop {
                            match client.try_submit(req) {
                                Ok(t) => {
                                    fifo.push_back(t);
                                    break;
                                }
                                Err(CoreError::Service(se))
                                    if se.kind() == ServiceFailure::Backpressure =>
                                {
                                    let t = fifo.pop_front().expect("backpressure => in flight");
                                    client.wait_response(t).expect("benign workload");
                                    ops += 1;
                                }
                                Err(other) => panic!("submit failed: {other:?}"),
                            }
                        }
                    }
                }
                for t in fifo.drain(..) {
                    client.wait_response(t).expect("benign workload");
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    // Keep the lossy telemetry ring drained while the producers run, so
    // long runs don't overflow its 4096-sample buffer.
    let mut ops = 0u64;
    let mut joined = Vec::with_capacity(handles.len());
    for h in handles {
        while !h.is_finished() {
            let _ = svc.latency_report();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        joined.push(h);
    }
    for h in joined {
        ops += h.join().expect("producer thread");
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let (per_shard, broadcast) = svc.latency_report();
    let mut latency = Histogram::new();
    for h in &per_shard {
        latency.merge(h);
    }
    latency.merge(&broadcast);
    let dropped = svc.dropped_samples();
    svc.shutdown();
    EngineResult {
        ops,
        elapsed_ns,
        latency,
        dropped_samples: dropped,
    }
}

fn main() {
    let cfg = Config::from_args();
    let mut workloads = Vec::new();
    for wl in Workload::ALL {
        let seed = match wl {
            Workload::Clean => 101,
            Workload::Errorful => 202,
            Workload::FlushHeavy => 303,
        };
        eprintln!("saturate: {}...", wl.name());
        let ring = run_ring(cfg, wl, seed);
        eprintln!(
            "saturate: {:<12} {:>10.0} ops/s",
            wl.name(),
            ring.ops_per_s()
        );
        if cfg.short {
            assert!(
                ring.ops > 0 && ring.ops_per_s() > 0.0,
                "{}: zero throughput",
                wl.name()
            );
            let (p50, p99, p999) = (
                ring.latency.quantile(0.50),
                ring.latency.quantile(0.99),
                ring.latency.quantile(0.999),
            );
            assert!(
                p50 > 0 && p50 <= p99 && p99 <= p999,
                "{}: implausible quantiles p50={p50} p99={p99} p999={p999}",
                wl.name()
            );
            assert!(
                ring.latency.count() > 0,
                "{}: no latency samples",
                wl.name()
            );
        }
        workloads.push(
            pmck_rt::json::Json::object()
                .with("workload", wl.name())
                .with("ring", ring.to_json()),
        );
    }

    let doc = pmck_rt::json::Json::object()
        .with("harness", "saturate")
        .with("shards", cfg.shards as u64)
        .with("producers", cfg.producers as u64)
        .with("batch", cfg.batch as u64)
        .with("rounds", cfg.rounds as u64)
        .with("blocks_per_shard", cfg.blocks_per_shard)
        .with("short", cfg.short)
        .with("workloads", pmck_rt::json::Json::Arr(workloads));
    if cfg.pretty {
        println!("{}", doc.pretty());
    } else {
        println!("{}", doc.dump());
    }
    if cfg.short {
        eprintln!("saturate: short-run sanity checks passed");
    }
}
