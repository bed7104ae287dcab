//! `pmck-cluster` — a replication-aware multi-node tier over the
//! chipkill memory service.
//!
//! The paper's chipkill-correct design stops at a single rank: a failed
//! chip is healed by local RS erasure decoding, and an error pattern
//! beyond the combined VLEW+RS capability is an uncorrectable crash.
//! Once the same data lives on several nodes, both verdicts soften —
//! a local decode fallback can be *re-encoded from a healthy replica*
//! (read-repair), and an uncorrectable block is only lost when every
//! replica fails. [`Cluster`] models that layer: K virtual nodes, each
//! an independent protection stack (typically a
//! [`pmck_service::ShardedService`]), with replicated block placement,
//! quorum reads/writes, read-repair, and scrub-driven anti-entropy
//! sweeps.
//!
//! # Placement
//!
//! Logical address `a` (of `N` logical blocks) keeps `R` replicas.
//! Replica `r` lives on node `(a + r) % K` at local address
//! `r * span + a / K`, where `span = ceil(N / K)`. Consecutive logical
//! blocks therefore spread across nodes (load), and the `R` replicas of
//! one block always land on `R` distinct nodes (fault isolation).
//!
//! # Quorum and read-repair
//!
//! A write goes to every replica in placement order; replicas on down
//! or suspended nodes (or whose write errored) are marked **stale** in
//! a per-node dirty bitmap. The write succeeds iff at least
//! [`ClusterConfig::write_quorum`] replicas acknowledged.
//!
//! A read walks replicas in placement order, skipping down nodes and
//! stale replicas, and serves the first successful decode — stopping
//! early once [`ClusterConfig::read_quorum`] replicas decoded and one
//! of them was *healthy* ([`ReadPath::Clean`], [`ReadPath::RsCorrected`]
//! or [`ReadPath::BitCorrected`]). A replica that decoded through the
//! degraded paths ([`ReadPath::VlewFallback`],
//! [`ReadPath::ChipkillErasure`]) or
//! returned an error, and every stale replica the walk stepped over, is
//! **read-repaired**: the served data is written back, re-encoding both
//! ECC tiers from a good copy. Replicas the walk never reached are left
//! to the anti-entropy sweep. When no replica decodes, the read fails
//! with [`pmck_core::ClusterFailure::ReplicasExhausted`] carrying the
//! last per-node error as its `source()`.
//!
//! # Determinism
//!
//! The cluster introduces no randomness and no timing dependence: nodes
//! and replicas are always visited in index/placement order, each node
//! is driven through the synchronous [`Submitter::submit`] edge of the
//! unified submission surface, and broadcast responses merge in node
//! index order with [`pmck_core::merge_broadcast`] — the same
//! order-sensitive fold the sharded service uses. Under identical node
//! seeds and identical request/fault streams, cluster contents are
//! therefore bit-identical to a single-node sequential replay, which
//! the harness differential campaign pins.
//!
//! # Examples
//!
//! ```
//! use pmck_cluster::{Cluster, ClusterConfig};
//!
//! let mut cluster = Cluster::local(3, 48, 7, ClusterConfig::default());
//! cluster.write_block(5, &[0xAB; 64]).unwrap();
//! let out = cluster.read_block(5).unwrap();
//! assert_eq!(out.data, [0xAB; 64]);
//!
//! // Survives a node loss: the remaining replica serves the block.
//! cluster.kill_node(0);
//! for a in 0..48 {
//!     let _ = cluster.read_block(a);
//! }
//! ```

use pmck_core::{
    merge_broadcast, ChipkillConfig, ClusterError, ClusterFailure, CoreError, EagerTickets,
    ReadOutcome, ReadPath, Request, Response, Stack, StackBuilder, SubmitTicket, Submitter,
};
use pmck_rt::metrics::MetricsRegistry;
use pmck_rt::rng::stream_seed;
use pmck_service::ShardedService;

/// Replication parameters for a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Replicas kept per logical block (`1..=nodes`).
    pub replicas: usize,
    /// Replicas that must acknowledge a write (`1..=replicas`).
    pub write_quorum: usize,
    /// Replicas that must decode for a read to succeed
    /// (`1..=replicas`). With the default of 1 a read stops at the
    /// first healthy replica — the allocation-free fast path.
    pub read_quorum: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 2,
            write_quorum: 1,
            read_quorum: 1,
        }
    }
}

/// Administrative state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Serving reads and writes.
    Up,
    /// Temporarily unresponsive (the slow-replica scenario): skipped
    /// like a down node, but expected back. Writes it misses are
    /// tracked stale and healed on [`Cluster::resume_node`] + sweep.
    Suspended,
    /// Lost. Its content is assumed gone until
    /// [`Cluster::revive_node`] / [`Cluster::rebuild_node`].
    Down,
}

/// One virtual node: a transport plus its replica-staleness bitmap.
struct NodeState<S> {
    inner: S,
    status: NodeStatus,
    /// One bit per local block; set = this replica missed a write (or
    /// failed one) and must not serve reads until re-written.
    dirty: Vec<u64>,
    dirty_count: u64,
}

impl<S> NodeState<S> {
    fn new(inner: S, local_blocks: u64) -> Self {
        NodeState {
            inner,
            status: NodeStatus::Up,
            dirty: vec![0u64; local_blocks.div_ceil(64) as usize],
            dirty_count: 0,
        }
    }

    fn is_dirty(&self, local: u64) -> bool {
        self.dirty[(local / 64) as usize] >> (local % 64) & 1 == 1
    }

    fn set_dirty(&mut self, local: u64) {
        let word = &mut self.dirty[(local / 64) as usize];
        let mask = 1u64 << (local % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.dirty_count += 1;
        }
    }

    fn clear_dirty(&mut self, local: u64) {
        let word = &mut self.dirty[(local / 64) as usize];
        let mask = 1u64 << (local % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.dirty_count -= 1;
        }
    }
}

/// Counters the cluster tier accumulates (its own traffic only; each
/// node's stacks keep their own [`pmck_core::CoreStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Successful quorum reads.
    pub reads: u64,
    /// Successful quorum writes.
    pub writes: u64,
    /// Replica decodes that went through a degraded path (VLEW
    /// fallback or chipkill erasure).
    pub degraded_reads: u64,
    /// Replicas re-written from a healthy copy during reads.
    pub read_repairs: u64,
    /// Writes that failed their quorum.
    pub quorum_failures: u64,
    /// Stale replicas healed by [`Cluster::rebuild_node`].
    pub rebuilt_blocks: u64,
    /// Anti-entropy sweeps completed.
    pub sweeps: u64,
    /// Per-replica scrubs issued by sweeps.
    pub scrubbed: u64,
}

/// A successful cluster read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRead {
    /// The 64 B block contents.
    pub data: [u8; 64],
    /// Decode path on the serving replica.
    pub path: ReadPath,
    /// Which replica (placement index, not node index) served.
    pub replica: usize,
    /// Replicas repaired (re-written) as a side effect of this read.
    pub repaired: u32,
}

/// Report of one [`Cluster::anti_entropy_sweep`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Logical blocks visited.
    pub blocks: u64,
    /// Replicas re-written (stale heals plus degraded repairs).
    pub repaired: u64,
    /// Per-replica scrubs issued.
    pub scrubbed: u64,
    /// Logical blocks that could not be served by any replica.
    pub unreadable: u64,
}

/// Replicas are tracked in a fixed-width bitmask on the read path so
/// the clean path stays allocation-free.
const MAX_REPLICAS: usize = 32;

/// K virtual nodes with replicated placement, quorum reads/writes,
/// read-repair, and anti-entropy. Generic over the node transport —
/// any [`Submitter`] works, which is the point of the unified
/// submission surface: the same tier drives in-process [`Stack`]s
/// (tests, benches) and multi-threaded [`ShardedService`]s (soak,
/// production shape) without a line of transport-specific code.
pub struct Cluster<S> {
    nodes: Vec<NodeState<S>>,
    blocks: u64,
    span: u64,
    replicas: usize,
    write_quorum: usize,
    read_quorum: usize,
    stats: ClusterStats,
    /// Ticket bookkeeping for the eager [`Submitter`] surface.
    tickets: EagerTickets,
}

impl<S: Submitter> Cluster<S> {
    /// Wraps pre-built node transports. `blocks` is the *logical*
    /// capacity; every node must hold at least
    /// `cfg.replicas * ceil(blocks / nodes)` local blocks.
    ///
    /// # Panics
    ///
    /// Panics on an empty node set, a zero capacity, quorum/replica
    /// parameters out of range, or an undersized node.
    pub fn from_nodes(nodes: Vec<S>, blocks: u64, cfg: ClusterConfig) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        assert!(blocks > 0, "capacity must be nonzero");
        assert!(
            (1..=nodes.len()).contains(&cfg.replicas),
            "replicas must be in 1..=nodes"
        );
        assert!(
            cfg.replicas <= MAX_REPLICAS,
            "at most {MAX_REPLICAS} replicas"
        );
        assert!(
            (1..=cfg.replicas).contains(&cfg.write_quorum),
            "write quorum must be in 1..=replicas"
        );
        assert!(
            (1..=cfg.replicas).contains(&cfg.read_quorum),
            "read quorum must be in 1..=replicas"
        );
        let span = blocks.div_ceil(nodes.len() as u64);
        let local_blocks = cfg.replicas as u64 * span;
        let nodes: Vec<NodeState<S>> = nodes
            .into_iter()
            .enumerate()
            .map(|(n, inner)| {
                assert!(
                    inner.num_blocks() >= local_blocks,
                    "node {n} holds {} blocks, needs {local_blocks}",
                    inner.num_blocks()
                );
                NodeState::new(inner, local_blocks)
            })
            .collect();
        Cluster {
            nodes,
            blocks,
            span,
            replicas: cfg.replicas,
            write_quorum: cfg.write_quorum,
            read_quorum: cfg.read_quorum,
            stats: ClusterStats::default(),
            tickets: EagerTickets::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Logical capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks
    }

    /// Replicas kept per logical block.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The `(node, local address)` placement of replica `r` of logical
    /// block `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas` or `addr` is out of range.
    pub fn place(&self, addr: u64, r: usize) -> (usize, u64) {
        assert!(r < self.replicas && addr < self.blocks);
        let k = self.nodes.len() as u64;
        let node = ((addr + r as u64) % k) as usize;
        (node, r as u64 * self.span + addr / k)
    }

    /// The logical address whose replica `r` lives at `local` on node
    /// `n`, or `None` for padding slots past the logical capacity.
    fn unplace(&self, n: usize, r: usize, j: u64) -> Option<u64> {
        let k = self.nodes.len() as u64;
        let addr = j * k + ((n as u64 + k - r as u64) % k);
        (addr < self.blocks).then_some(addr)
    }

    /// One node's administrative status.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node_status(&self, n: usize) -> NodeStatus {
        self.nodes[n].status
    }

    /// Stale replicas currently tracked on node `n`.
    pub fn node_stale_blocks(&self, n: usize) -> u64 {
        self.nodes[n].dirty_count
    }

    /// Direct access to one node's transport — the maintenance and
    /// fault-injection hatch (e.g. submitting a [`Request::Fault`] to a
    /// *single* node, where the cluster-level broadcast would disturb
    /// every node). Mutations made here bypass the staleness tracking.
    pub fn node_mut(&mut self, n: usize) -> &mut S {
        &mut self.nodes[n].inner
    }

    /// Marks replica `r` of `addr` stale, as a missed write would — the
    /// deterministic hook behind the read-repair bench and tests.
    pub fn mark_replica_stale(&mut self, addr: u64, r: usize) {
        let (n, local) = self.place(addr, r);
        self.nodes[n].set_dirty(local);
    }

    /// Takes node `n` down. Its content freezes; writes it misses are
    /// tracked stale, so a later [`Cluster::revive_node`] serves only
    /// what is still current.
    pub fn kill_node(&mut self, n: usize) {
        self.nodes[n].status = NodeStatus::Down;
    }

    /// Brings node `n` back with whatever content it held. Replicas
    /// that missed writes while it was away are still marked stale and
    /// heal through reads, [`Cluster::rebuild_node`], or a sweep.
    pub fn revive_node(&mut self, n: usize) {
        self.nodes[n].status = NodeStatus::Up;
    }

    /// Marks node `n` temporarily unresponsive (the slow-replica
    /// scenario). Identical skip semantics to a down node.
    pub fn suspend_node(&mut self, n: usize) {
        self.nodes[n].status = NodeStatus::Suspended;
    }

    /// Ends a suspension.
    pub fn resume_node(&mut self, n: usize) {
        self.nodes[n].status = NodeStatus::Up;
    }

    /// Heals every stale replica on node `n` by reading each affected
    /// logical block — the walk's read-repair re-writes the stale copy
    /// from a healthy peer. Returns replicas healed.
    ///
    /// # Errors
    ///
    /// The first block whose peers cannot serve it
    /// ([`ClusterFailure::ReplicasExhausted`]).
    pub fn rebuild_node(&mut self, n: usize) -> Result<u64, CoreError> {
        let before = self.nodes[n].dirty_count;
        for r in 0..self.replicas {
            for j in 0..self.span {
                let local = r as u64 * self.span + j;
                if !self.nodes[n].is_dirty(local) {
                    continue;
                }
                let Some(addr) = self.unplace(n, r, j) else {
                    continue;
                };
                self.read_block_thorough(addr)?;
            }
        }
        let healed = before - self.nodes[n].dirty_count;
        self.stats.rebuilt_blocks += healed;
        Ok(healed)
    }

    /// Quorum write: every replica in placement order, stale-marking
    /// the ones that miss (down, suspended, or erroring). Returns the
    /// acknowledgement count (`>= write_quorum`).
    ///
    /// # Errors
    ///
    /// [`ClusterFailure::QuorumLost`] (carrying the last per-node error
    /// as `source()`, when one exists) if fewer than
    /// [`ClusterConfig::write_quorum`] replicas acknowledged;
    /// [`CoreError::OutOfRange`] past the logical capacity.
    pub fn write_block(&mut self, addr: u64, data: &[u8; 64]) -> Result<usize, CoreError> {
        self.write_like(&Request::Write { addr, data: *data })
    }

    /// Quorum read with read-repair; see the module docs for the walk.
    ///
    /// # Errors
    ///
    /// [`ClusterFailure::ReplicasExhausted`] when no replica decodes,
    /// [`ClusterFailure::QuorumLost`] when fewer than
    /// [`ClusterConfig::read_quorum`] replicas decoded,
    /// [`CoreError::OutOfRange`] past the logical capacity.
    pub fn read_block(&mut self, addr: u64) -> Result<ClusterRead, CoreError> {
        self.read_walk(addr, false)
    }

    /// [`Cluster::read_block`] without the quorum early exit: every
    /// replica is visited and every stale, degraded, or erroring one
    /// repaired — the walk [`Cluster::rebuild_node`] and
    /// [`Cluster::anti_entropy_sweep`] run, where healing outranks
    /// latency. Same result and errors as the fast walk.
    pub fn read_block_thorough(&mut self, addr: u64) -> Result<ClusterRead, CoreError> {
        self.read_walk(addr, true)
    }

    fn read_walk(&mut self, addr: u64, thorough: bool) -> Result<ClusterRead, CoreError> {
        if addr >= self.blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let mut healthy: Option<(usize, ReadOutcome)> = None;
        let mut degraded: Option<(usize, ReadOutcome)> = None;
        let mut decoded = 0usize;
        let mut repair_mask = 0u32;
        let mut last_err: Option<CoreError> = None;
        for r in 0..self.replicas {
            let (n, local) = self.place(addr, r);
            let node = &mut self.nodes[n];
            if node.status != NodeStatus::Up {
                continue;
            }
            if node.is_dirty(local) {
                // Stale: never served, healed below once good data is
                // in hand.
                repair_mask |= 1 << r;
                continue;
            }
            match node.inner.submit(&Request::Read(local)) {
                Ok(resp) => {
                    let out = resp.read().expect("read request yields a read response");
                    decoded += 1;
                    match out.path {
                        ReadPath::Clean
                        | ReadPath::RsCorrected { .. }
                        | ReadPath::BitCorrected { .. } => {
                            if healthy.is_none() {
                                healthy = Some((r, out));
                            }
                        }
                        ReadPath::VlewFallback { .. } | ReadPath::ChipkillErasure { .. } => {
                            self.stats.degraded_reads += 1;
                            repair_mask |= 1 << r;
                            if degraded.is_none() {
                                degraded = Some((r, out));
                            }
                        }
                    }
                }
                Err(e) => {
                    // An uncorrectable (or transport-failed) replica is
                    // re-written from a good copy, like a degraded one.
                    repair_mask |= 1 << r;
                    last_err = Some(e);
                }
            }
            if !thorough && healthy.is_some() && decoded >= self.read_quorum {
                break;
            }
        }
        let (replica, out) = match healthy.or(degraded) {
            Some(served) => served,
            None => {
                let kind = ClusterFailure::ReplicasExhausted;
                return Err(CoreError::Cluster(match last_err {
                    Some(e) => ClusterError::with_source(kind, e),
                    None => ClusterError::new(kind),
                }));
            }
        };
        if decoded < self.read_quorum {
            return Err(CoreError::cluster(ClusterFailure::QuorumLost {
                needed: self.read_quorum,
                got: decoded,
            }));
        }
        // Read-repair: re-write every replica the walk found wanting,
        // re-encoding both ECC tiers from the served (good) data.
        let mut repaired = 0u32;
        if repair_mask != 0 {
            for r in 0..self.replicas {
                if repair_mask >> r & 1 == 0 {
                    continue;
                }
                let (n, local) = self.place(addr, r);
                let node = &mut self.nodes[n];
                if node.status != NodeStatus::Up {
                    continue;
                }
                let req = Request::Write {
                    addr: local,
                    data: out.data,
                };
                match node.inner.submit(&req) {
                    Ok(_) => {
                        node.clear_dirty(local);
                        repaired += 1;
                    }
                    Err(_) => node.set_dirty(local),
                }
            }
            self.stats.read_repairs += u64::from(repaired);
        }
        self.stats.reads += 1;
        Ok(ClusterRead {
            data: out.data,
            path: out.path,
            replica,
            repaired,
        })
    }

    /// Scrubs every current (up, non-stale) replica of `addr` in place.
    ///
    /// # Errors
    ///
    /// [`ClusterFailure::ReplicasExhausted`] when no replica could be
    /// scrubbed; [`CoreError::OutOfRange`] past the logical capacity.
    pub fn scrub_block(&mut self, addr: u64) -> Result<Response, CoreError> {
        if addr >= self.blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let mut ok = 0usize;
        let mut last_err: Option<CoreError> = None;
        for r in 0..self.replicas {
            let (n, local) = self.place(addr, r);
            let node = &mut self.nodes[n];
            if node.status != NodeStatus::Up || node.is_dirty(local) {
                continue;
            }
            match node.inner.submit(&Request::Scrub(local)) {
                Ok(_) => {
                    ok += 1;
                    self.stats.scrubbed += 1;
                }
                Err(e) => {
                    // A replica too corrupt to scrub is stale until a
                    // read or sweep re-writes it.
                    node.set_dirty(local);
                    last_err = Some(e);
                }
            }
        }
        if ok == 0 {
            let kind = ClusterFailure::ReplicasExhausted;
            return Err(CoreError::Cluster(match last_err {
                Some(e) => ClusterError::with_source(kind, e),
                None => ClusterError::new(kind),
            }));
        }
        Ok(Response::Scrubbed)
    }

    /// One anti-entropy pass over the whole logical address space: each
    /// block is read (healing stale and degraded replicas through
    /// read-repair) and each surviving replica scrubbed in place (the
    /// scrub-driven half: latent errors are corrected before they
    /// accumulate past the local ECC budget). Blocks no replica can
    /// serve are counted, not fatal — anti-entropy is a patrol, and one
    /// lost block must not stop the sweep from healing the rest.
    pub fn anti_entropy_sweep(&mut self) -> SweepReport {
        let mut report = SweepReport::default();
        let repairs_before = self.stats.read_repairs;
        let scrubbed_before = self.stats.scrubbed;
        for addr in 0..self.blocks {
            report.blocks += 1;
            if self.read_block_thorough(addr).is_err() {
                report.unreadable += 1;
                continue;
            }
            let _ = self.scrub_block(addr);
        }
        report.repaired = self.stats.read_repairs - repairs_before;
        report.scrubbed = self.stats.scrubbed - scrubbed_before;
        self.stats.sweeps += 1;
        report
    }

    /// Submits a whole-device request to every up node, merging the
    /// per-node responses in node index order
    /// ([`pmck_core::merge_broadcast`]).
    ///
    /// # Errors
    ///
    /// The merged error (first failing node in index order wins), or
    /// [`ClusterFailure::ReplicasExhausted`] when no node is up.
    pub fn broadcast(&mut self, req: &Request) -> Result<Response, CoreError> {
        debug_assert!(
            req.addr().is_none(),
            "broadcast takes whole-device requests"
        );
        let mut acc: Option<Result<Response, CoreError>> = None;
        for node in self.nodes.iter_mut() {
            if node.status != NodeStatus::Up {
                continue;
            }
            let res = node.inner.submit(req);
            match acc.as_mut() {
                None => acc = Some(res),
                Some(a) => merge_broadcast(a, res),
            }
        }
        acc.unwrap_or_else(|| Err(CoreError::cluster(ClusterFailure::ReplicasExhausted)))
    }

    /// Whether every up node's stored code bits are consistent with its
    /// stored data (the post-recovery decodability check).
    ///
    /// # Errors
    ///
    /// As [`Cluster::broadcast`].
    pub fn verify_all(&mut self) -> Result<bool, CoreError> {
        Ok(self
            .broadcast(&Request::Verify)?
            .verified()
            .expect("verify request yields a verdict"))
    }

    /// The cluster tier's own counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Publishes the cluster counters under `<prefix>.*` plus the
    /// topology gauges (`nodes`, `replicas`, per-node `staleN`).
    pub fn publish_metrics(&self, reg: &MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.reads"), self.stats.reads);
        reg.set_counter(&format!("{prefix}.writes"), self.stats.writes);
        reg.set_counter(
            &format!("{prefix}.degraded_reads"),
            self.stats.degraded_reads,
        );
        reg.set_counter(&format!("{prefix}.read_repairs"), self.stats.read_repairs);
        reg.set_counter(
            &format!("{prefix}.quorum_failures"),
            self.stats.quorum_failures,
        );
        reg.set_counter(
            &format!("{prefix}.rebuilt_blocks"),
            self.stats.rebuilt_blocks,
        );
        reg.set_counter(&format!("{prefix}.sweeps"), self.stats.sweeps);
        reg.set_counter(&format!("{prefix}.scrubbed"), self.stats.scrubbed);
        reg.set_gauge(&format!("{prefix}.nodes"), self.nodes.len() as f64);
        reg.set_gauge(&format!("{prefix}.replicas"), self.replicas as f64);
        for (n, node) in self.nodes.iter().enumerate() {
            reg.set_gauge(&format!("{prefix}.stale{n}"), node.dirty_count as f64);
        }
    }

    /// Shared body of the conventional and bitwise-sum write paths.
    /// A [`Request::WriteSum`] additionally skips stale replicas — the
    /// delta assumes the old content, which a stale replica lost.
    fn write_like(&mut self, req: &Request) -> Result<usize, CoreError> {
        let addr = req.addr().expect("write request carries an address");
        if addr >= self.blocks {
            return Err(CoreError::OutOfRange(addr));
        }
        let sum = matches!(req, Request::WriteSum { .. });
        let mut acks = 0usize;
        let mut last_err: Option<CoreError> = None;
        for r in 0..self.replicas {
            let (n, local) = self.place(addr, r);
            let node = &mut self.nodes[n];
            if node.status != NodeStatus::Up || (sum && node.is_dirty(local)) {
                node.set_dirty(local);
                continue;
            }
            match node.inner.submit(&req.with_addr(local)) {
                Ok(_) => {
                    node.clear_dirty(local);
                    acks += 1;
                }
                Err(e) => {
                    node.set_dirty(local);
                    last_err = Some(e);
                }
            }
        }
        if acks < self.write_quorum {
            self.stats.quorum_failures += 1;
            let kind = ClusterFailure::QuorumLost {
                needed: self.write_quorum,
                got: acks,
            };
            return Err(CoreError::Cluster(match last_err {
                Some(e) => ClusterError::with_source(kind, e),
                None => ClusterError::new(kind),
            }));
        }
        self.stats.writes += 1;
        Ok(acks)
    }
}

/// The unified submission surface over the whole cluster: addressed
/// requests run the quorum read/write/scrub protocols, whole-device
/// requests broadcast to every up node. Eager — tickets are
/// immediately redeemable and backpressure never occurs. A `Cluster`
/// is thereby itself a node transport: tiers compose.
impl<S: Submitter> Submitter for Cluster<S> {
    fn num_blocks(&self) -> u64 {
        self.blocks
    }

    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        match req {
            Request::Read(a) => self.read_block(*a).map(|out| {
                Response::Read(ReadOutcome {
                    data: out.data,
                    path: out.path,
                })
            }),
            Request::Write { .. } | Request::WriteSum { .. } => {
                self.write_like(req).map(|_| Response::Written)
            }
            Request::Scrub(a) => self.scrub_block(*a),
            _ => self.broadcast(req),
        }
    }

    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        let res = Submitter::submit(self, req);
        Ok(self.tickets.issue(res))
    }

    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.tickets.claim(ticket)
    }

    fn wait(&mut self, ticket: SubmitTicket) -> Result<Response, CoreError> {
        self.tickets.wait(ticket)
    }
}

impl Cluster<Stack> {
    /// A thread-free cluster of in-process proposal [`Stack`]s — the
    /// deterministic workhorse for tests and benches. Node `n` is
    /// seeded with stream `n` of `seed` ([`stream_seed`]).
    pub fn local(nodes: usize, blocks: u64, seed: u64, cfg: ClusterConfig) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let span = blocks.div_ceil(nodes as u64);
        let local_blocks = cfg.replicas as u64 * span;
        let stacks: Vec<Stack> = (0..nodes)
            .map(|n| {
                StackBuilder::proposal(local_blocks, ChipkillConfig::default())
                    .seed(stream_seed(seed, n as u64))
                    .build()
            })
            .collect();
        Cluster::from_nodes(stacks, blocks, cfg)
    }
}

impl Cluster<ShardedService> {
    /// A cluster of multi-threaded sharded services — the production
    /// shape. Node `n` gets its own [`ShardedService`] over `shards`
    /// proposal stacks, seeded with stream `n` of `seed`; each service
    /// derives its per-shard seeds from that stream in turn, so the
    /// whole topology is reproducible from one seed.
    pub fn sharded(
        nodes: usize,
        shards: usize,
        blocks: u64,
        seed: u64,
        cfg: ClusterConfig,
    ) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let span = blocks.div_ceil(nodes as u64);
        let per_shard = (cfg.replicas as u64 * span).div_ceil(shards as u64);
        let services: Vec<ShardedService> = (0..nodes)
            .map(|n| {
                ShardedService::new(shards, stream_seed(seed, n as u64), move |_, s| {
                    StackBuilder::proposal(per_shard, ChipkillConfig::default())
                        .seed(s)
                        .build()
                })
            })
            .collect();
        Cluster::from_nodes(services, blocks, cfg)
    }

    /// Shuts down every node's shard workers (the services drain and
    /// join; see [`ShardedService::shutdown`]).
    pub fn shutdown_nodes(&mut self) {
        for node in self.nodes.iter_mut() {
            node.inner.shutdown();
        }
    }
}

impl<S> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("blocks", &self.blocks)
            .field("replicas", &self.replicas)
            .field("write_quorum", &self.write_quorum)
            .field("read_quorum", &self.read_quorum)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_nvram::{ChipFailureKind, FaultEvent, FaultKind};
    use std::error::Error as _;

    fn pattern(addr: u64, salt: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        for (i, x) in b.iter_mut().enumerate() {
            *x = (addr as u8).wrapping_mul(31) ^ (i as u8) ^ salt;
        }
        b
    }

    fn fill(cluster: &mut Cluster<Stack>, salt: u8) -> Vec<[u8; 64]> {
        (0..cluster.num_blocks())
            .map(|a| {
                let b = pattern(a, salt);
                cluster.write_block(a, &b).unwrap();
                b
            })
            .collect()
    }

    #[test]
    fn replicated_round_trip_hits_first_replica_clean() {
        let cfg = ClusterConfig {
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(3, 48, 5, cfg);
        let truth = fill(&mut cluster, 0);
        for (a, want) in truth.iter().enumerate() {
            let out = cluster.read_block(a as u64).unwrap();
            assert_eq!(&out.data, want, "block {a}");
            assert_eq!(out.path, ReadPath::Clean);
            assert_eq!(out.replica, 0);
            assert_eq!(out.repaired, 0);
        }
        // Replicas of one block live on distinct nodes.
        for a in 0..48 {
            let (n0, _) = cluster.place(a, 0);
            let (n1, _) = cluster.place(a, 1);
            assert_ne!(n0, n1, "block {a}");
        }
        assert_eq!(cluster.stats().reads, 48);
        assert_eq!(cluster.stats().writes, 48);
        assert!(cluster.verify_all().unwrap());
    }

    #[test]
    fn node_loss_tracks_staleness_and_rebuild_heals_every_replica() {
        let cfg = ClusterConfig {
            replicas: 2,
            write_quorum: 1,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(3, 48, 6, cfg);
        let mut truth = fill(&mut cluster, 0);
        cluster.kill_node(1);
        // Writes keep succeeding on the surviving replica; the dead
        // node's copies go stale.
        for a in 0..48u64 {
            let b = pattern(a, 0xE1);
            cluster.write_block(a, &b).unwrap();
            truth[a as usize] = b;
        }
        assert!(cluster.node_stale_blocks(1) > 0);
        // Reads survive the loss and never serve the dead node.
        for (a, want) in truth.iter().enumerate() {
            assert_eq!(&cluster.read_block(a as u64).unwrap().data, want);
        }
        cluster.revive_node(1);
        let healed = cluster.rebuild_node(1).unwrap();
        assert!(healed > 0);
        assert_eq!(cluster.node_stale_blocks(1), 0);
        // Post-repair decodability: every replica on every node serves
        // its block directly, and code bits check out everywhere.
        for a in 0..48u64 {
            for r in 0..2 {
                let (n, local) = cluster.place(a, r);
                let out = cluster
                    .node_mut(n)
                    .submit(&Request::Read(local))
                    .unwrap()
                    .read()
                    .unwrap();
                assert_eq!(out.data, truth[a as usize], "block {a} replica {r}");
            }
        }
        assert!(cluster.verify_all().unwrap());
    }

    #[test]
    fn write_quorum_loss_is_an_error_with_stable_display() {
        let cfg = ClusterConfig {
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(2, 16, 7, cfg);
        fill(&mut cluster, 0);
        cluster.kill_node(0);
        let err = cluster.write_block(3, &[1; 64]).unwrap_err();
        assert_eq!(
            err,
            CoreError::cluster(ClusterFailure::QuorumLost { needed: 2, got: 1 })
        );
        assert_eq!(
            err.to_string(),
            "cluster request failed: quorum not reached (1 of 2 replicas)"
        );
        assert_eq!(cluster.stats().quorum_failures, 1);
    }

    #[test]
    fn stale_replica_is_skipped_then_healed_on_read() {
        let cfg = ClusterConfig {
            replicas: 2,
            write_quorum: 1,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(3, 48, 8, cfg);
        fill(&mut cluster, 0);
        // Node holding replica 0 of block 0 goes down; the block moves on.
        let (n0, _) = cluster.place(0, 0);
        cluster.kill_node(n0);
        let fresh = pattern(0, 0x5C);
        cluster.write_block(0, &fresh).unwrap();
        cluster.revive_node(n0);
        // The revived node holds stale data: the read must skip it,
        // serve the fresh copy from replica 1, and heal replica 0.
        let out = cluster.read_block(0).unwrap();
        assert_eq!(out.data, fresh);
        assert_eq!(out.replica, 1);
        assert_eq!(out.repaired, 1);
        assert_eq!(cluster.stats().read_repairs, 1);
        // Healed: the next read is served by replica 0 again.
        let again = cluster.read_block(0).unwrap();
        assert_eq!(again.replica, 0);
        assert_eq!(again.data, fresh);
    }

    #[test]
    fn chip_failure_degrades_then_remote_and_local_repair_race_converges() {
        let cfg = ClusterConfig {
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(3, 48, 9, cfg);
        let truth = fill(&mut cluster, 0);
        // A whole chip dies on node 0 only (per-node injection hatch).
        cluster
            .node_mut(0)
            .submit(&Request::Fault(FaultEvent {
                at_cycle: 0,
                kind: FaultKind::ChipKill {
                    chip: 4,
                    kind: ChipFailureKind::RandomGarbage,
                },
            }))
            .unwrap();
        // Blocks whose first replica sits on node 0 decode through the
        // erasure path there, the healthy peer serves, and the remote
        // write-back lands: a rank with a known-failed chip stays
        // writable until its repair (the read-modify step erasure-
        // corrects the old value like a read would), so nothing has to
        // go stale. Data stays correct throughout.
        for (a, want) in truth.iter().enumerate() {
            let out = cluster.read_block(a as u64).unwrap();
            assert_eq!(&out.data, want, "block {a}");
            let on_dead_rank = cluster.place(a as u64, 0).0 == 0;
            assert_eq!(out.repaired, u32::from(on_dead_rank), "block {a}");
        }
        let stats = cluster.stats();
        assert!(stats.degraded_reads > 0, "chip failure never surfaced");
        assert_eq!(stats.read_repairs, stats.degraded_reads);
        assert_eq!(
            cluster.node_stale_blocks(0),
            0,
            "a degraded rank takes writes"
        );
        // Local repair: rebuild the chip through RS erasure inside node
        // 0; the remote write-backs it raced with left nothing for the
        // sweep to heal.
        let repaired = cluster.node_mut(0).submit(&Request::Repair).unwrap();
        assert_eq!(repaired, Response::Repaired { chip: Some(4) });
        let report = cluster.anti_entropy_sweep();
        assert_eq!((report.repaired, report.unreadable), (0, 0));
        assert_eq!(cluster.node_stale_blocks(0), 0);
        for (a, want) in truth.iter().enumerate() {
            let out = cluster.read_block(a as u64).unwrap();
            assert_eq!(&out.data, want);
            assert_eq!(out.path, ReadPath::Clean, "block {a} after repair");
        }
        assert!(cluster.verify_all().unwrap());
    }

    #[test]
    fn suspension_behaves_like_loss_and_sweep_heals_on_resume() {
        let cfg = ClusterConfig {
            replicas: 3,
            write_quorum: 2,
            read_quorum: 1,
        };
        let mut cluster = Cluster::local(3, 24, 10, cfg);
        let mut truth = fill(&mut cluster, 0);
        cluster.suspend_node(2);
        for a in 0..24u64 {
            let b = pattern(a, 0x77);
            cluster.write_block(a, &b).unwrap();
            truth[a as usize] = b;
        }
        assert!(cluster.node_stale_blocks(2) > 0);
        cluster.resume_node(2);
        let report = cluster.anti_entropy_sweep();
        assert_eq!(report.blocks, 24);
        assert!(report.repaired > 0);
        assert_eq!(report.unreadable, 0);
        assert_eq!(cluster.node_stale_blocks(2), 0);
        for (a, want) in truth.iter().enumerate() {
            assert_eq!(&cluster.read_block(a as u64).unwrap().data, want);
        }
        assert!(cluster.verify_all().unwrap());
    }

    #[test]
    fn cluster_is_itself_a_submitter() {
        let mut cluster = Cluster::local(3, 48, 11, ClusterConfig::default());
        let req = Request::Write {
            addr: 7,
            data: [0xCD; 64],
        };
        let t = cluster.try_submit(&req).unwrap();
        assert_eq!(cluster.poll(t), Some(Ok(Response::Written)));
        let out = Submitter::submit(&mut cluster, &Request::Read(7))
            .unwrap()
            .read()
            .unwrap();
        assert_eq!(out.data, [0xCD; 64]);
        let verified = Submitter::submit(&mut cluster, &Request::Verify).unwrap();
        assert_eq!(verified.verified(), Some(true));
        assert_eq!(Submitter::num_blocks(&cluster), 48);
        assert_eq!(
            Submitter::submit(&mut cluster, &Request::Read(99)),
            Err(CoreError::OutOfRange(99))
        );
    }

    #[test]
    fn error_chain_reaches_the_transport_layer() {
        // One node, one replica, over a real sharded service: shut the
        // service down underneath the cluster, then watch the failure
        // climb the whole ladder.
        let cfg = ClusterConfig {
            replicas: 1,
            write_quorum: 1,
            read_quorum: 1,
        };
        let mut cluster = Cluster::sharded(1, 2, 16, 12, cfg);
        cluster.write_block(0, &[9; 64]).unwrap();
        cluster.node_mut(0).shutdown();
        let err = cluster.read_block(0).unwrap_err();
        // Level 0: the cluster verdict.
        assert_eq!(
            err.to_string(),
            "cluster request failed: every replica failed to serve the block"
        );
        // Level 1: the ClusterError payload.
        let cluster_err = err.source().expect("cluster error payload");
        assert_eq!(
            cluster_err.to_string(),
            "cluster request failed: every replica failed to serve the block"
        );
        // Level 2: the per-node CoreError that sank the last replica —
        // byte-identical to the service's own Display string.
        let node_err = cluster_err.source().expect("per-node cause");
        assert_eq!(
            node_err.to_string(),
            "memory service unavailable: shard request queue is closed"
        );
        // Levels 3+: through the ServiceError into the pool fault.
        let service_err = node_err.source().expect("service error payload");
        let pool_err = service_err.source().expect("transport-level cause");
        assert!(pool_err.source().is_none(), "chain ends at the transport");
        // And the write-side verdict wraps the same cause.
        let werr = cluster.write_block(0, &[1; 64]).unwrap_err();
        assert_eq!(
            werr,
            CoreError::cluster(ClusterFailure::QuorumLost { needed: 1, got: 0 })
        );
        assert!(werr.source().unwrap().source().is_some());
    }

    #[test]
    fn sharded_cluster_round_trips_and_shuts_down() {
        let mut cluster = Cluster::sharded(3, 2, 48, 13, ClusterConfig::default());
        for a in 0..48u64 {
            cluster.write_block(a, &pattern(a, 3)).unwrap();
        }
        for a in 0..48u64 {
            assert_eq!(cluster.read_block(a).unwrap().data, pattern(a, 3));
        }
        assert!(cluster.verify_all().unwrap());
        cluster.shutdown_nodes();
        assert!(matches!(cluster.read_block(0), Err(CoreError::Cluster(_))));
    }

    #[test]
    fn metrics_publish_cluster_counters() {
        let mut cluster = Cluster::local(3, 24, 14, ClusterConfig::default());
        fill(&mut cluster, 0);
        cluster.mark_replica_stale(0, 0);
        cluster.read_block(0).unwrap();
        let reg = MetricsRegistry::new();
        cluster.publish_metrics(&reg, "cluster");
        assert_eq!(reg.counter("cluster.writes"), 24);
        assert_eq!(reg.counter("cluster.read_repairs"), 1);
    }
}
