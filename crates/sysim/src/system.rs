//! The event-driven full-system simulation loop.

use std::collections::HashSet;

use pmck_cachesim::{Hierarchy, HierarchyConfig, MemActions};
use pmck_core::{ChipkillConfig, CoreStats, LayerStats, ReadPath, Stack, StackBuilder};
use pmck_memsim::{MemConfig, MemRequest, MemoryController, RankKind, ReqId};
use pmck_workloads::{MemRef, Op, TraceGenerator, WorkloadClass, WorkloadSpec};

use crate::config::{Scheme, SimConfig};
use crate::metrics::SimResult;

/// Cache-address bit marking the persistent-memory region (keeps PM and
/// DRAM blocks from aliasing in the cache hierarchy).
const PM_BASE: u64 = 1 << 40;

struct Core {
    gen: TraceGenerator,
    ready_ps: u64,
    ops_done: u64,
    waiting_read: Option<ReqId>,
    waiting_fence: bool,
    persists: HashSet<ReqId>,
    replay_op: Option<Op>,
}

/// A deterministic engine-write payload: the first 8 bytes carry the
/// address/version tag (so each rewrite perturbs only one data chip plus
/// the RS check bytes), the rest stays an address-derived constant.
fn block_pattern(addr: u64, version: u32) -> [u8; 64] {
    let mut b = [0u8; 64];
    let tag = (addr as u32).wrapping_mul(0x9E37_79B9) ^ version.wrapping_mul(0x85EB_CA6B);
    b[..4].copy_from_slice(&tag.to_le_bytes());
    b[4..8].copy_from_slice(&version.to_le_bytes());
    for (i, x) in b.iter_mut().enumerate().skip(8) {
        *x = (addr as u8).wrapping_mul(37).wrapping_add(i as u8);
    }
    b
}

/// The coupling between the timing loop and the functional chipkill
/// stack: every PM demand read and write the timing loop schedules also
/// executes against a composed `chipkill + patrol` [`Stack`], and the
/// decode path of each read decides whether the timing loop charges a
/// VLEW-fallback force-fetch (§VI). Bit errors arrive at
/// [`SimConfig::engine_rber`] once per [`SimConfig::engine_interval`]
/// accesses, with the patrol layer paced to one full pass per interval —
/// the §V-C steady state whose emergent fallback rate is the paper's
/// ~0.02%, replacing the RNG draw this module previously used.
struct EngineCoupling {
    stack: Stack,
    versions: Vec<u32>,
    accesses: u64,
    interval: u64,
    rber: f64,
}

impl EngineCoupling {
    fn new(cfg: &SimConfig, seed: u64) -> Self {
        let blocks = cfg.engine_blocks.max(32);
        // One full patrol pass (blocks/32 steps of 32 blocks) per
        // injection interval.
        let steps_per_pass = (blocks / 32).max(1);
        let every = (cfg.engine_interval / steps_per_pass).max(1);
        let stack = StackBuilder::proposal(blocks, ChipkillConfig::default())
            .patrolled(32, every)
            .seed(seed ^ 0x5EED_FACE_CAFE_F00D)
            .build();
        let blocks = stack.num_blocks();
        EngineCoupling {
            stack,
            versions: vec![0u32; blocks as usize],
            accesses: 0,
            interval: cfg.engine_interval.max(1),
            rber: cfg.engine_rber,
        }
    }

    fn tick(&mut self) {
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.interval) && self.rber > 0.0 {
            let _ = self.stack.inject_bit_errors(self.rber);
        }
    }

    /// Executes one demand read against the functional stack; the
    /// returned path is the real decode outcome for this access (`None`
    /// for a detected-uncorrectable read).
    fn on_read(&mut self, la: u64) -> Option<ReadPath> {
        self.tick();
        let addr = la % self.stack.num_blocks();
        self.stack.read(addr).ok().map(|o| o.path)
    }

    /// Executes one demand write against the functional stack.
    fn on_write(&mut self, la: u64) {
        self.tick();
        let addr = la % self.stack.num_blocks();
        let v = self.versions[addr as usize].wrapping_add(1);
        self.versions[addr as usize] = v;
        let _ = self.stack.write(addr, &block_pattern(addr, v));
    }

    fn core_stats(&self) -> Option<CoreStats> {
        self.stack.core_stats()
    }

    /// Blended ECC storage cost of the coupled stack: tiered stacks
    /// report the live region-weighted mix, single-tier stacks their
    /// layout's fixed cost.
    fn storage_cost(&self) -> f64 {
        self.stack
            .tier_report()
            .map(|r| r.blended_cost())
            .unwrap_or_else(|| ChipkillConfig::default().total_storage_cost())
    }

    fn layers(&self) -> Vec<(String, LayerStats)> {
        self.stack
            .layers()
            .iter()
            .map(|(label, stats)| (label.to_string(), *stats))
            .collect()
    }
}

/// Owns the memory-controller side of the loop: request IDs, demand
/// counters, and — for proposal runs — the [`EngineCoupling`] that turns
/// PM traffic into functional-stack accesses.
struct Emitter {
    mc: MemoryController,
    next_id: ReqId,
    demand: [u64; 4], // pm_r, pm_w, dram_r, dram_w
    coupling: Option<EngineCoupling>,
    fallback_blocks: usize,
    proposal: bool,
    force_omv_off: bool,
    fallback_events: u64,
}

impl Emitter {
    /// Drives one PM demand read through the functional stack; returns
    /// whether the timing loop must charge a fallback force-fetch.
    fn pm_read_needs_force_fetch(&mut self, la: u64) -> bool {
        let Some(coupling) = &mut self.coupling else {
            return false;
        };
        match coupling.on_read(la) {
            Some(ReadPath::VlewFallback { .. }) => {
                self.fallback_events += 1;
                true
            }
            // A failed-chip read stripe-fetches for erasure decode too,
            // and an uncorrectable read pays the long path without
            // counting as a VLEW fallback.
            Some(ReadPath::ChipkillErasure { .. }) | None => true,
            Some(_) => false,
        }
    }

    /// Enqueues the §VI force-fetch: the rest of the 32-block stripe
    /// plus adjacent blocks (37 total including the demand read).
    fn force_fetch(&mut self, la: u64) {
        let stripe_base = la & !31;
        for k in 0..self.fallback_blocks as u64 - 1 {
            if self.mc.can_accept_read() {
                let id = self.next_id;
                self.next_id += 1;
                let _ = self
                    .mc
                    .enqueue(MemRequest::read(id, stripe_base + k, RankKind::Nvram));
            }
        }
    }

    fn emit_actions(
        &mut self,
        acts: &MemActions,
        core: usize,
        rank_local_addr: u64,
        read_waiters: &mut Vec<(ReqId, usize)>,
        cores: &mut [Core],
        blocking: bool,
    ) {
        for &(_, pm) in &acts.mem_reads {
            let rank = if pm { RankKind::Nvram } else { RankKind::Dram };
            let id = self.next_id;
            self.next_id += 1;
            self.demand[if pm { 0 } else { 2 }] += 1;
            if self
                .mc
                .enqueue(MemRequest::read(id, rank_local_addr, rank))
                .is_ok()
                && blocking
            {
                cores[core].waiting_read = Some(id);
                read_waiters.push((id, core));
            }
            // Proposal: the functional stack decodes this PM read; a
            // VLEW fallback (or erasure decode) forces the stripe fetch.
            if pm && self.pm_read_needs_force_fetch(rank_local_addr) {
                self.force_fetch(rank_local_addr);
            }
        }
        self.emit_eviction_writes(acts);
    }

    fn emit_eviction_writes(&mut self, acts: &MemActions) {
        for w in &acts.mem_writes {
            let rank = if w.is_pm {
                RankKind::Nvram
            } else {
                RankKind::Dram
            };
            let addr = w.addr & 0xFFFF_FFFF;
            // An OMV miss costs an extra PM read of the old value before
            // the write can carry old ⊕ new.
            let omv_miss =
                self.proposal && (w.omv_served == Some(false) || (self.force_omv_off && w.is_pm));
            if omv_miss && self.mc.can_accept_read() {
                let id = self.next_id;
                self.next_id += 1;
                let _ = self.mc.enqueue(MemRequest::read(id, addr, rank));
            }
            self.demand[if w.is_pm { 1 } else { 3 }] += 1;
            if w.is_pm {
                if let Some(coupling) = &mut self.coupling {
                    coupling.on_write(addr);
                }
            }
            let id = self.next_id;
            self.next_id += 1;
            let _ = self.mc.enqueue(MemRequest::write(id, addr, rank));
        }
    }

    fn emit_persist_writes(&mut self, acts: &MemActions, rank_local_addr: u64) {
        for w in &acts.mem_writes {
            let rank = if w.is_pm {
                RankKind::Nvram
            } else {
                RankKind::Dram
            };
            let omv_miss = w.omv_served == Some(false) || (self.force_omv_off && w.is_pm);
            if self.proposal && omv_miss && self.mc.can_accept_read() {
                let id = self.next_id;
                self.next_id += 1;
                let _ = self.mc.enqueue(MemRequest::read(id, rank_local_addr, rank));
            }
            self.demand[if w.is_pm { 1 } else { 3 }] += 1;
            if w.is_pm {
                if let Some(coupling) = &mut self.coupling {
                    coupling.on_write(rank_local_addr);
                }
            }
            let id = self.next_id;
            self.next_id += 1;
            // ADR persistence domain: a write accepted by the memory
            // controller is durable, so the fence does not wait on it
            // (the WHISPER-era assumption the paper's workloads rely on).
            let _ = self
                .mc
                .enqueue(MemRequest::write(id, rank_local_addr, rank));
        }
    }
}

/// The trace-driven simulator (see crate docs).
#[derive(Debug)]
pub struct Simulator;

impl Simulator {
    /// Runs `spec` under `cfg`, seeding the trace generators and the
    /// functional stack's fault-injection RNG from `seed`. Warmup runs
    /// the caches functionally; the returned result covers only the
    /// timed phase, during which every PM access of a proposal run also
    /// executes against the composed chipkill stack (VLEW-fallback
    /// latency events come from real decode outcomes).
    pub fn run_workload(spec: WorkloadSpec, cfg: SimConfig, seed: u64) -> SimResult {
        let omv = cfg.scheme.is_proposal() && !cfg.force_omv_off;
        let mut hierarchy = Hierarchy::new(HierarchyConfig {
            cores: cfg.cores,
            omv_enabled: omv,
            ..HierarchyConfig::paper(omv)
        });

        // Per-core generators; WHISPER-style workloads run as separate
        // processes (disjoint address spaces), SPLASH-style threads share
        // the heap.
        let shared = spec.class == WorkloadClass::Scientific;
        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|c| Core {
                gen: TraceGenerator::new(spec, seed.wrapping_add(c as u64 * 7919)),
                ready_ps: 0,
                ops_done: 0,
                waiting_read: None,
                waiting_fence: false,
                persists: HashSet::new(),
                replay_op: None,
            })
            .collect();

        let addr_of = |core: usize, r: MemRef| -> (u64, u64) {
            // (cache address, rank-local block address)
            let (foot, off) = if r.pm {
                (spec.pm_blocks, if shared { 0 } else { core as u64 })
            } else {
                (spec.dram_blocks, if shared { 0 } else { core as u64 })
            };
            let local = off * foot + r.addr;
            let cache = if r.pm { PM_BASE | local } else { local };
            (cache, local)
        };

        // ---- Warmup: functional cache exercise, no timing. ----
        for c in 0..cfg.cores {
            for _ in 0..cfg.warmup_ops {
                let op = cores[c].gen.next_op();
                match op {
                    Op::Load(r) => {
                        let (ca, _) = addr_of(c, r);
                        let _ = hierarchy.load(c, ca, r.pm);
                    }
                    Op::Store(r) => {
                        let (ca, _) = addr_of(c, r);
                        let _ = hierarchy.store(c, ca, r.pm);
                    }
                    Op::Clwb(r) => {
                        let (ca, _) = addr_of(c, r);
                        let _ = hierarchy.clwb(c, ca, r.pm);
                    }
                    _ => {}
                }
            }
        }
        hierarchy.reset_stats();

        // ---- Timed phase. ----
        let mut mem_cfg = MemConfig::paper_hybrid(cfg.nvram.timing());
        if let Scheme::Proposal { c_factor } = cfg.scheme {
            mem_cfg = mem_cfg.with_proposal_write_slowing(c_factor);
        }
        let mut emitter = Emitter {
            mc: MemoryController::new(mem_cfg),
            next_id: 1,
            demand: [0u64; 4],
            coupling: cfg
                .scheme
                .is_proposal()
                .then(|| EngineCoupling::new(&cfg, seed)),
            fallback_blocks: cfg.fallback_blocks,
            proposal: cfg.scheme.is_proposal(),
            force_omv_off: cfg.force_omv_off,
            fallback_events: 0,
        };
        let mut read_waiters: Vec<(ReqId, usize)> = Vec::new();

        let mut dirty_samples: Vec<f64> = Vec::new();
        let mut ops_since_sample = 0u64;

        let total_target = cfg.measure_ops * cfg.cores as u64;
        let mut total_done = 0u64;

        'outer: loop {
            // Deliver completions.
            for comp in emitter.mc.drain_completions() {
                if let Some(pos) = read_waiters.iter().position(|&(id, _)| id == comp.id) {
                    let (_, core) = read_waiters.swap_remove(pos);
                    let c = &mut cores[core];
                    if c.waiting_read == Some(comp.id) {
                        c.waiting_read = None;
                        c.ready_ps = c.ready_ps.max(comp.finish_ps);
                    }
                }
                for c in cores.iter_mut() {
                    if c.persists.remove(&comp.id) && c.waiting_fence && c.persists.is_empty() {
                        c.waiting_fence = false;
                        c.ready_ps = c.ready_ps.max(comp.finish_ps);
                    }
                }
            }

            if total_done >= total_target {
                break 'outer;
            }

            // Pick the earliest runnable core.
            let runnable = cores
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.waiting_read.is_none() && !c.waiting_fence && c.ops_done < cfg.measure_ops
                })
                .min_by_key(|(_, c)| c.ready_ps)
                .map(|(i, _)| i);

            let Some(ci) = runnable else {
                // Everybody is blocked: advance the memory controller to
                // its next schedulable event.
                match emitter.mc.next_issue_time() {
                    Some(t) => {
                        let now = emitter.mc.now_ps();
                        emitter.mc.advance_to(t.max(now) + 1);
                        continue;
                    }
                    None => {
                        // Blocked with an empty controller: only possible
                        // if every unfinished core hit its quota while a
                        // peer still runs; re-check the exit condition.
                        if cores.iter().all(|c| c.ops_done >= cfg.measure_ops) {
                            break 'outer;
                        }
                        unreachable!("deadlock: cores blocked, controller empty");
                    }
                }
            };

            let now = cores[ci].ready_ps;
            emitter.mc.advance_to(now);

            // Back-pressure: leave room for the op's worst-case traffic.
            let need_reads = if cfg.scheme.is_proposal() {
                cfg.fallback_blocks + 2
            } else {
                2
            };
            if !emitter.mc.can_accept_write() || emitter.mc.pending() > 240 - need_reads {
                cores[ci].ready_ps = now + 20_000; // retry in 20 ns
                continue;
            }

            let op = cores[ci]
                .replay_op
                .take()
                .unwrap_or_else(|| cores[ci].gen.next_op());
            cores[ci].ops_done += 1;
            total_done += 1;
            ops_since_sample += 1;
            if ops_since_sample >= cfg.sample_interval {
                ops_since_sample = 0;
                dirty_samples.push(hierarchy.dirty_pm_fraction());
            }

            match op {
                Op::Compute(n) => {
                    cores[ci].ready_ps += n as u64 * cfg.core_period_ps;
                }
                Op::Load(r) => {
                    let (ca, la) = addr_of(ci, r);
                    let acts = hierarchy.load(ci, ca, r.pm);
                    let lat = Self::hit_latency(&acts, &cfg);
                    cores[ci].ready_ps += lat;
                    emitter.emit_actions(&acts, ci, la, &mut read_waiters, &mut cores, true);
                }
                Op::Store(r) => {
                    let (ca, la) = addr_of(ci, r);
                    let acts = hierarchy.store(ci, ca, r.pm);
                    cores[ci].ready_ps += cfg.core_period_ps; // store buffer
                    emitter.emit_actions(&acts, ci, la, &mut read_waiters, &mut cores, false);
                }
                Op::Clwb(r) => {
                    let (ca, la) = addr_of(ci, r);
                    let acts = hierarchy.clwb(ci, ca, r.pm);
                    cores[ci].ready_ps += 3 * cfg.core_period_ps;
                    emitter.emit_persist_writes(&acts, la);
                }
                Op::Fence => {
                    if !cores[ci].persists.is_empty() {
                        cores[ci].waiting_fence = true;
                    }
                }
            }
        }

        // Close out: measure elapsed time as the point the last op retired.
        let end_ps = cores
            .iter()
            .map(|c| c.ready_ps)
            .max()
            .unwrap_or(0)
            .max(emitter.mc.now_ps());
        emitter.mc.finalize_eur();
        let stats = emitter.mc.stats().clone();
        let llc = hierarchy.llc_stats();
        let dirty_pm_avg = if dirty_samples.is_empty() {
            hierarchy.dirty_pm_fraction()
        } else {
            dirty_samples.iter().sum::<f64>() / dirty_samples.len() as f64
        };
        let engine = emitter.coupling.as_ref().and_then(|c| c.core_stats());
        let storage_cost = emitter.coupling.as_ref().map(|c| c.storage_cost());
        let layers = emitter
            .coupling
            .as_ref()
            .map(|c| c.layers())
            .unwrap_or_default();

        SimResult {
            workload: spec.name.to_string(),
            ops_measured: total_done,
            measured_ps: end_ps,
            pm_reads: emitter.demand[0],
            pm_writes: emitter.demand[1],
            dram_reads: emitter.demand[2],
            dram_writes: emitter.demand[3],
            c_factor: emitter.mc.eur().c_factor(),
            omv_hit_rate: llc.omv_hit_rate(),
            omv_misses: llc.omv_misses,
            dirty_pm_avg,
            vlew_fallbacks: emitter.fallback_events,
            engine,
            storage_cost,
            layers,
            llc_hit_rate: llc.hit_rate(),
            row_hit_rate: stats.row_hit_rate(),
            write_row_hit_rate: if stats.write_issues == 0 {
                0.0
            } else {
                stats.write_row_hits as f64 / stats.write_issues as f64
            },
        }
    }

    fn hit_latency(acts: &MemActions, cfg: &SimConfig) -> u64 {
        if acts.l1_hit {
            cfg.core_period_ps
        } else {
            // L1 miss pays the LLC lookup; a miss beyond that blocks on
            // the demand read completion instead.
            14 * cfg.core_period_ps
        }
    }
}
