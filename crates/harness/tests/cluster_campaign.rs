//! Differential campaign for the replicated `pmck-cluster` tier.
//!
//! Every [`ClusterPlan`] replays one seeded logical request stream into
//! three observers at once:
//!
//! 1. a **3-node cluster** of real multi-threaded [`ShardedService`]s
//!    (2 shards each, 2 replicas per block, driven through the quorum
//!    read/write protocol),
//! 2. a **single-node reference** [`Stack`] executing the same logical
//!    stream sequentially, and
//! 3. a pure **mirror** (`Vec<[u8; 64]>`) of what the stream wrote.
//!
//! The invariant is bit-identity: at every read and again after the
//! closing anti-entropy sweep, the cluster's logical contents must
//! equal the reference replay and the mirror — the determinism pin for
//! the replicated tier. Scenarios disturb only the cluster's topology
//! or media, never the logical stream:
//!
//! * **clean** — no disturbance.
//! * **node-loss** — a node dies at 35% of the span and is revived at
//!   70%; writes it missed are tracked stale, the rebuild walks them,
//!   and afterwards *every* replica on *every* node must serve its
//!   block directly (full post-recovery decodability).
//! * **slow-replica** — a node is suspended at 30% and resumed at 60%;
//!   the closing sweep must heal everything it missed.
//! * **fault-mix** — a seeded [`FaultSchedule`] fires a correlated
//!   DDR4-style mix: a small correctable burst applied to every node
//!   *and* the reference (both must correct through their local ECC),
//!   plus a two-stage failure on one node only — a row fault on a chip
//!   that later dies outright. Until a demand read on that node has
//!   detected the dead chip its rank refuses writes, so remote
//!   read-repair bounces and defers to staleness tracking; once
//!   detected, the degraded rank takes writes again (erasure-corrected
//!   read-modify). The local boot-scrub rebuild at 80% and the closing
//!   sweep land whatever was deferred.
//!
//! Failures shrink (toward shorter spans) and persist into
//! `tests/corpus/`; the checked-in crafted entry pins the node-loss
//! scenario on seed 0.

use std::cell::RefCell;
use std::collections::HashMap;

use pmck_cluster::{Cluster, ClusterConfig, NodeStatus};
use pmck_core::{ChipkillConfig, Request, Stack, StackBuilder, Submitter};
use pmck_harness::{
    ChipFailureKind, ClusterPlan, ClusterScenario, FaultKind, FaultSchedule, Runner,
};
use pmck_rt::rng::{stream_seed, Rng, StdRng};

const NODES: usize = 3;
const SHARDS: usize = 2;
const BLOCKS: u64 = 48;
const REPLICAS: usize = 2;
/// Fresh cases: every scenario × every seed, exactly once.
const SEEDS: u64 = 3;
const CASES: usize = ClusterScenario::ALL.len() * SEEDS as usize;
/// Operations per case (the crafted corpus entry uses the same span).
const CYCLES: u64 = 200;
/// The chip the fault-mix scenario kills on one node.
const DEAD_CHIP: usize = 3;

fn pattern(seed: u64, addr: u64, salt: u8) -> [u8; 64] {
    let mut data = [0u8; 64];
    for (i, byte) in data.iter_mut().enumerate() {
        *byte = (seed as u8)
            .wrapping_mul(89)
            .wrapping_add((addr as u8).wrapping_mul(37))
            .wrapping_add(i as u8)
            ^ salt;
    }
    data
}

/// The scenario's fault schedule, anchored to fixed fractions of the
/// span. Empty for everything but the fault mix.
fn schedule_for(plan: &ClusterPlan) -> FaultSchedule {
    if plan.scenario != ClusterScenario::FaultMix {
        return FaultSchedule::new();
    }
    FaultSchedule::new()
        .with(
            plan.cycles * 20 / 100,
            FaultKind::Burst {
                bits: 3,
                width_bits: 24,
                chip: Some(2),
            },
        )
        .with(
            plan.cycles * 40 / 100,
            FaultKind::RowFault {
                chip: DEAD_CHIP,
                stripe: 0,
                rber: 0.15,
            },
        )
        .with(
            plan.cycles * 50 / 100,
            FaultKind::ChipKill {
                chip: DEAD_CHIP,
                kind: ChipFailureKind::RandomGarbage,
            },
        )
}

fn run_plan(plan: &ClusterPlan) -> Result<(), String> {
    let cfg = ClusterConfig {
        replicas: REPLICAS,
        write_quorum: 1,
        read_quorum: 1,
    };
    let mut cluster = Cluster::sharded(NODES, SHARDS, BLOCKS, stream_seed(plan.seed, 1), cfg);
    let mut reference = StackBuilder::proposal(BLOCKS, ChipkillConfig::default())
        .seed(stream_seed(plan.seed, 2))
        .build();
    let mut mirror = vec![[0u8; 64]; BLOCKS as usize];

    let result = run_plan_inner(plan, &mut cluster, &mut reference, &mut mirror);
    cluster.shutdown_nodes();
    result
}

fn run_plan_inner(
    plan: &ClusterPlan,
    cluster: &mut Cluster<pmck_service::ShardedService>,
    reference: &mut Stack,
    mirror: &mut [[u8; 64]],
) -> Result<(), String> {
    // Identical fill on all three observers.
    for addr in 0..BLOCKS {
        let data = pattern(plan.seed, addr, 0x00);
        cluster
            .write_block(addr, &data)
            .map_err(|e| format!("cluster fill {addr}: {e}"))?;
        reference
            .submit(&Request::Write { addr, data })
            .map_err(|e| format!("reference fill {addr}: {e}"))?;
        mirror[addr as usize] = data;
    }

    let schedule = schedule_for(plan);
    // The disturbed node: derived from the seed so every node index
    // gets exercised across the seed sweep.
    let victim = (plan.seed % NODES as u64) as usize;
    let kill_at = plan.cycles * 35 / 100;
    let revive_at = plan.cycles * 70 / 100;
    let suspend_at = plan.cycles * 30 / 100;
    let resume_at = plan.cycles * 60 / 100;
    let heal_at = plan.cycles * 80 / 100;

    let mut rng = StdRng::seed_from_u64(stream_seed(plan.seed, 3));
    for cycle in 0..plan.cycles {
        match plan.scenario {
            ClusterScenario::Clean => {}
            ClusterScenario::NodeLoss => {
                if cycle == kill_at {
                    cluster.kill_node(victim);
                } else if cycle == revive_at {
                    cluster.revive_node(victim);
                    cluster
                        .rebuild_node(victim)
                        .map_err(|e| format!("cycle {cycle}: rebuild: {e}"))?;
                }
            }
            ClusterScenario::SlowReplica => {
                if cycle == suspend_at {
                    cluster.suspend_node(victim);
                } else if cycle == resume_at {
                    cluster.resume_node(victim);
                }
            }
            ClusterScenario::FaultMix => {
                for event in schedule.events_in(cycle, cycle + 1) {
                    match event.kind {
                        FaultKind::ChipKill { .. } | FaultKind::RowFault { .. } => {
                            // The correlated progression — a row fault
                            // on a chip that later dies outright — hits
                            // ONE node; its replicas keep serving
                            // through erasure while remote read-repair
                            // and the local rebuild race. The row
                            // fault exceeds the RS threshold; a write
                            // that meets the dead chip before a read
                            // has detected it bounces, and its
                            // write-back defers to staleness tracking.
                            cluster
                                .node_mut(victim)
                                .submit(&Request::Fault(*event))
                                .map_err(|e| format!("cycle {cycle}: node fault: {e}"))?;
                        }
                        _ => {
                            // Small correctable background bursts hit
                            // every node and the reference alike.
                            cluster
                                .broadcast(&Request::Fault(*event))
                                .map_err(|e| format!("cycle {cycle}: cluster fault: {e}"))?;
                            reference
                                .submit(&Request::Fault(*event))
                                .map_err(|e| format!("cycle {cycle}: reference fault: {e}"))?;
                        }
                    }
                }
                if cycle == heal_at {
                    // Local repair wins the race: the boot scrub detects
                    // the dead chip and rebuilds it through RS erasure.
                    cluster
                        .node_mut(victim)
                        .submit(&Request::BootScrub)
                        .map_err(|e| format!("cycle {cycle}: boot scrub: {e}"))?;
                }
            }
        }

        let addr = rng.gen_range(0..BLOCKS);
        if rng.gen_bool(0.6) {
            let data = pattern(plan.seed, addr, cycle as u8 | 1);
            cluster
                .write_block(addr, &data)
                .map_err(|e| format!("cycle {cycle}: cluster write {addr}: {e}"))?;
            reference
                .submit(&Request::Write { addr, data })
                .map_err(|e| format!("cycle {cycle}: reference write {addr}: {e}"))?;
            mirror[addr as usize] = data;
        } else {
            let got = cluster
                .read_block(addr)
                .map_err(|e| format!("cycle {cycle}: cluster read {addr}: {e}"))?;
            if got.data != mirror[addr as usize] {
                return Err(format!(
                    "cycle {cycle}: cluster read {addr} diverged from the mirror \
                     (served by replica {} via {:?})",
                    got.replica, got.path
                ));
            }
        }
    }

    // Close out the scenario: everything revived, chip healed (a short
    // span can end before its own heal points fire).
    if cluster.node_status(victim) != NodeStatus::Up {
        cluster.revive_node(victim);
        cluster
            .rebuild_node(victim)
            .map_err(|e| format!("closing rebuild: {e}"))?;
    }
    if plan.scenario == ClusterScenario::FaultMix && plan.cycles <= heal_at {
        cluster
            .node_mut(victim)
            .submit(&Request::BootScrub)
            .map_err(|e| format!("closing boot scrub: {e}"))?;
    }
    let report = cluster.anti_entropy_sweep();
    if report.unreadable != 0 {
        return Err(format!(
            "sweep left {} of {} blocks unreadable",
            report.unreadable, report.blocks
        ));
    }
    // Per-block scrubs restore the RS layer but leave latent bit
    // errors in regions only the boot tier covers (per-chip VLEWs); a
    // rank-wide boot scrub on every node — and the reference —
    // restores full code-bit consistency before the verify, mirroring
    // the single-node engine tests.
    cluster
        .broadcast(&Request::BootScrub)
        .map_err(|e| format!("closing cluster boot scrub: {e}"))?;
    reference
        .submit(&Request::BootScrub)
        .map_err(|e| format!("closing reference boot scrub: {e}"))?;

    // The differential pin: cluster ≡ reference replay ≡ mirror.
    for addr in 0..BLOCKS {
        let got = cluster
            .read_block(addr)
            .map_err(|e| format!("final cluster read {addr}: {e}"))?;
        if got.data != mirror[addr as usize] {
            return Err(format!(
                "final cluster read {addr} diverged from the mirror"
            ));
        }
        let reference_data = reference
            .submit(&Request::Read(addr))
            .map_err(|e| format!("final reference read {addr}: {e}"))?
            .read()
            .ok_or("reference read shape")?
            .data;
        if reference_data != mirror[addr as usize] {
            return Err(format!(
                "final reference read {addr} diverged from the mirror"
            ));
        }
    }

    // Post-recovery decodability: every replica on every node serves
    // its block directly, and every node's code bits verify.
    for addr in 0..BLOCKS {
        for r in 0..REPLICAS {
            let (n, local) = cluster.place(addr, r);
            let out = cluster
                .node_mut(n)
                .submit(&Request::Read(local))
                .map_err(|e| format!("replica {r} of {addr} (node {n}): {e}"))?
                .read()
                .ok_or("replica read shape")?;
            if out.data != mirror[addr as usize] {
                return Err(format!(
                    "replica {r} of block {addr} on node {n} serves stale data"
                ));
            }
        }
    }
    match cluster.verify_all() {
        Ok(true) => Ok(()),
        Ok(false) => Err("post-recovery verify failed on some node".into()),
        Err(e) => Err(format!("verify_all: {e}")),
    }
}

/// 3 seeds × {clean, node-loss, slow-replica, fault-mix}, plus the
/// crafted node-loss corpus entry, each holding the three-way
/// bit-identity and full post-recovery decodability.
#[test]
fn cluster_matches_single_node_replay_across_scenarios() {
    let runs: RefCell<HashMap<&'static str, usize>> = RefCell::new(HashMap::new());
    let next: RefCell<usize> = RefCell::new(0);

    let report = Runner::new("cluster:differential")
        .seed(0xC1)
        .cases(CASES)
        .run(
            |_rng| {
                // Enumerate the scenario × seed grid exactly once each
                // instead of sampling it; the grid is the spec.
                let idx = {
                    let mut n = next.borrow_mut();
                    let idx = *n;
                    *n += 1;
                    idx
                };
                ClusterPlan {
                    scenario: ClusterScenario::ALL[idx % ClusterScenario::ALL.len()],
                    seed: (idx / ClusterScenario::ALL.len()) as u64 % SEEDS,
                    cycles: CYCLES,
                }
            },
            |case| {
                let out = run_plan(case);
                if out.is_ok() {
                    *runs.borrow_mut().entry(case.scenario.name()).or_insert(0) += 1;
                }
                out
            },
        );

    assert_eq!(report.generated, CASES);
    assert!(
        report.corpus_replayed >= 1,
        "the crafted node-loss corpus entry did not replay"
    );
    for scenario in ClusterScenario::ALL {
        let n = runs.borrow().get(scenario.name()).copied().unwrap_or(0);
        assert!(
            n >= SEEDS as usize,
            "scenario {} ran only {n} cases",
            scenario.name()
        );
    }
}
