//! Soak driver: the one fault campaign ([`pmck_bench::campaign`], which
//! documents what is drained, mixed and checked) against one of three
//! systems. This file parses the arguments, builds the system, and says
//! which legs it supports.
//!
//! ```text
//! soak [--blocks N] [--cycles N] [--seed N] [--schedule FILE] [--short]
//!      [--shards N] [--cluster N] [--crash] [--tiers] [--pretty]
//! ```
//!
//! The default system is one `Stack` — chipkill behind a restripeable
//! base, Start-Gap wear leveling, manual-step patrol — and its run ends
//! with the §V-E re-stripe leg. `--schedule` replaces the built-in fault
//! timeline (text DSL or JSON); `--short` is the CI profile. Output is
//! one JSON document on stdout; the exit code is nonzero unless the
//! verdict passed.
//!
//! * `--shards N`: the same stacks (not restripeable: re-striping is a
//!   per-rank transition) behind the `pmck-service` sharded front end.
//! * `--crash`: persistent media — the mirror is snapshotted at every
//!   flush and periodic power cuts must recover to exactly the snapshot.
//! * `--tiers`: an adaptively tiered base under a benign schedule; the
//!   run fails unless at least one region migrated.
//! * `--cluster N`: fault-free through `pmck-cluster` — N nodes (each a
//!   2-shard service), 2 replicas per block; one node is killed mid-run
//!   and later revived + rebuilt, and the closing sweep must leave no
//!   replica stale or different.

use pmck_bench::campaign::{self, built_in_schedule, Plan, Sut};
use pmck_cluster::{Cluster, ClusterConfig};
use pmck_core::{ChipkillConfig, StackBuilder, TierPolicy};
use pmck_nvram::FaultSchedule;
use pmck_rt::json::Json;
use pmck_rt::metrics::MetricsRegistry;
use pmck_service::ShardedService;

#[derive(Default)]
struct Config {
    blocks: u64,
    /// Cycles, seed, and the `--crash` / `--tiers` legs.
    plan: Plan,
    schedule_file: Option<String>,
    shards: Option<usize>,
    cluster: Option<usize>,
    pretty: bool,
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Config::default();
        (cfg.blocks, cfg.plan.cycles, cfg.plan.seed) = (256, 20_000, 0x50AC);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--blocks" => cfg.blocks = need(args.next(), "--blocks"),
                "--cycles" => cfg.plan.cycles = need(args.next(), "--cycles"),
                "--seed" => cfg.plan.seed = need(args.next(), "--seed"),
                "--schedule" => match args.next() {
                    Some(path) => cfg.schedule_file = Some(path),
                    None => usage("--schedule needs a file path"),
                },
                "--shards" => cfg.shards = Some(need(args.next(), "--shards") as usize),
                "--cluster" => cfg.cluster = Some(need(args.next(), "--cluster") as usize),
                "--short" => (cfg.blocks, cfg.plan.cycles) = (64, 3_000),
                "--crash" => cfg.plan.crash = true,
                "--tiers" => cfg.plan.tier = true,
                "--pretty" => cfg.pretty = true,
                other => usage(&format!("unknown argument: {other}")),
            }
        }
        if cfg.shards == Some(0) {
            usage("--shards needs a positive integer");
        }
        if cfg.cluster.is_some_and(|n| n < 2) {
            usage("--cluster needs at least 2 nodes (replicas need distinct homes)");
        }
        if cfg.plan.tier && cfg.shards.is_some() {
            usage("--tiers is a single-stack mode (tiering owns the rank layout)");
        }
        let legs = cfg.plan.tier || cfg.plan.crash;
        if cfg.cluster.is_some() && (legs || cfg.shards.is_some()) {
            usage("--cluster is its own mode (nodes are plain sharded services)");
        }
        cfg
    }
}

fn need(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a non-negative integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: soak [--blocks N] [--cycles N] [--seed N] [--schedule FILE] [--short] \
         [--shards N] [--cluster N] [--crash] [--tiers] [--pretty]"
    );
    std::process::exit(2);
}

fn load_schedule(cfg: &Config) -> FaultSchedule {
    let Some(path) = &cfg.schedule_file else {
        return built_in_schedule(cfg.plan.cycles, cfg.plan.tier);
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read schedule {path}: {e}")));
    let parsed = if text.trim_start().starts_with('{') {
        Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|j| FaultSchedule::from_json(&j).map_err(|e| e.to_string()))
    } else {
        FaultSchedule::parse(&text).map_err(|e| e.to_string())
    };
    parsed.unwrap_or_else(|e| usage(&format!("bad schedule {path}: {e}")))
}

/// Runs the campaign and prints the report with the system's own
/// metrics attached; returns the verdict.
fn run_and_print<S: Sut>(
    cfg: &Config,
    sut: &mut S,
    plan: &Plan,
    publish: impl Fn(&S, &MetricsRegistry),
) -> bool {
    let report = campaign::run(sut, plan);
    let metrics = MetricsRegistry::new();
    publish(sut, &metrics);
    let doc = report.to_json().with("metrics", metrics.to_json());
    if cfg.pretty {
        println!("{}", doc.pretty());
    } else {
        println!("{}", doc.dump());
    }
    report.passed()
}

fn main() {
    let cfg = Config::from_args();
    let (crash, tiers) = (cfg.plan.crash, cfg.plan.tier);
    let stack_seed = cfg.plan.seed ^ 0x5011_D1E5;
    let mut plan = cfg.plan.clone();
    let passed = if let Some(nodes) = cfg.cluster {
        // The cluster campaign is about topology churn, not media
        // faults: the schedule stays empty.
        let mut cluster =
            Cluster::sharded(nodes, 2, cfg.blocks, plan.seed, ClusterConfig::default());
        run_and_print(&cfg, &mut cluster, &plan, |c, reg| {
            c.publish_metrics(reg, "cluster")
        })
    } else if let Some(shards) = cfg.shards {
        // Per-shard capacity rounds up to whole stripes; the campaign
        // covers the service's real (interleaved) address space.
        plan.schedule = load_schedule(&cfg);
        let per_shard = cfg.blocks.div_ceil(shards as u64);
        let mut svc = ShardedService::new(shards, stack_seed, move |_, seed| {
            let base = StackBuilder::proposal(per_shard, ChipkillConfig::default());
            campaign::stack(base, seed, crash)
        });
        run_and_print(&cfg, &mut svc, &plan, |s, reg| {
            s.publish_metrics(reg, "service")
        })
    } else {
        // Tiering and re-striping both own the base layout: a tiered run
        // skips the §V-E leg (its crash-cut equivalent, a torn tier
        // migration, runs in the harness crash campaign).
        plan.schedule = load_schedule(&cfg);
        plan.restripe = !tiers;
        let base = StackBuilder::proposal(cfg.blocks, ChipkillConfig::default());
        let base = if tiers {
            base.tiered((cfg.blocks / 32).max(1) as usize, TierPolicy::default())
        } else {
            base.restripeable()
        };
        let mut stack = campaign::stack(base, stack_seed, crash);
        run_and_print(&cfg, &mut stack, &plan, |s, reg| {
            s.publish_metrics(reg, "stack")
        })
    };
    if !passed {
        eprintln!("soak: FAILED (see verdict in report)");
        std::process::exit(1);
    }
}
