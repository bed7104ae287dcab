//! A pinned worker pool: one persistent thread per worker, each owning a
//! long-lived state, fed by lock-free rings.
//!
//! [`crate::par`] spawns scoped threads per call, which suits one-shot
//! Monte-Carlo campaigns but not a service: a sharded memory front end
//! needs its per-shard state (engine scratch buffers, RNG streams) to
//! live across requests on a fixed worker, so decodes stay
//! allocation-free and deterministic. [`ShardPool`] provides that shape:
//! jobs travel through per-`(client, worker)` SPSC rings
//! ([`crate::ring`]) and completions stream back out of band, so a
//! producer never takes a lock or waits for a whole-batch barrier.
//!
//! A worker panic poisons the pool: every peer is woken and every later
//! call reports [`PoolError::WorkerPanicked`] instead of hanging.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::ring::{spsc, Parker, SpscConsumer, SpscProducer, Unparker};

/// Why the pool could not serve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The pool was shut down.
    Closed,
    /// A worker thread panicked; the pool is permanently closed.
    WorkerPanicked,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Closed => write!(f, "worker pool is shut down"),
            PoolError::WorkerPanicked => write!(f, "worker thread panicked"),
        }
    }
}

impl std::error::Error for PoolError {}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned mutex means a worker panicked mid-job; the pool
    // already reports that via its `dead` flag, and the state is still
    // wanted for post-mortem stats.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why a non-blocking send could not be accepted. The job always comes
/// back to the caller, so nothing is silently dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<J> {
    /// The destination worker's submission ring is full — backpressure.
    Full(J),
    /// The pool was shut down; no new work is accepted.
    Closed(J),
    /// A worker panicked; the pool is poisoned.
    WorkerLost(J),
}

impl<J> TrySendError<J> {
    /// Recovers the job that was not sent.
    pub fn into_job(self) -> J {
        match self {
            TrySendError::Full(j) | TrySendError::Closed(j) | TrySendError::WorkerLost(j) => j,
        }
    }

    /// The pool-level failure, if this was not mere backpressure.
    pub fn pool_error(&self) -> Option<PoolError> {
        match self {
            TrySendError::Full(_) => None,
            TrySendError::Closed(_) => Some(PoolError::Closed),
            TrySendError::WorkerLost(_) => Some(PoolError::WorkerPanicked),
        }
    }
}

/// One peer's sleep handshake: `maybe_sleeping` is the announce flag of
/// the spin-then-park protocol ([`crate::ring::Parker`] docs), and the
/// unparker posts the wake token after a counterpart makes progress.
struct PeerFlag {
    maybe_sleeping: AtomicBool,
    unparker: Unparker,
}

impl PeerFlag {
    /// Wakes the peer if (and only if) it announced it may sleep.
    /// Call *after* a `fence(SeqCst)` that orders the progress-making
    /// ring operation before the flag load.
    fn wake_if_sleeping(&self) {
        if self.maybe_sleeping.load(Ordering::Relaxed)
            && self.maybe_sleeping.swap(false, Ordering::Relaxed)
        {
            self.unparker.unpark();
        }
    }

    fn wake_unconditionally(&self) {
        self.maybe_sleeping.store(false, Ordering::Relaxed);
        self.unparker.unpark();
    }
}

struct StreamShared {
    /// Set by `shutdown` (and by a panicking worker): no new submissions
    /// are accepted, workers drain what is queued and exit.
    closing: AtomicBool,
    /// Set only when a worker panicked: the pool is poisoned and
    /// outstanding work may never complete.
    dead: AtomicBool,
    /// Per-worker sleep handshakes (indexed by shard).
    workers: Box<[PeerFlag]>,
    /// Per-client sleep handshakes (indexed by lane).
    clients: Box<[PeerFlag]>,
}

/// Marks the pool poisoned if the worker unwinds, and wakes every peer
/// either way so nobody sleeps through the exit.
struct StreamPanicGuard {
    shared: Arc<StreamShared>,
}

impl Drop for StreamPanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.dead.store(true, Ordering::SeqCst);
            self.shared.closing.store(true, Ordering::SeqCst);
        }
        for w in self.shared.workers.iter() {
            w.wake_unconditionally();
        }
        for c in self.shared.clients.iter() {
            c.wake_unconditionally();
        }
    }
}

/// A worker's view of one client lane.
struct WorkerLane<J, R> {
    sub: SpscConsumer<J>,
    comp: SpscProducer<R>,
}

/// How many times an idle worker retries before yielding, and how many
/// yields before parking. Kept short: the target host may have fewer
/// cores than workers, where spinning only steals the producer's time.
const IDLE_SPINS: u32 = 64;
const IDLE_YIELDS: u32 = 16;

/// A lock-free streaming worker pool: one persistent thread per worker
/// (shard), each owning a long-lived state, fed by per-`(client,
/// worker)` SPSC submission rings and answering through matching
/// completion rings.
///
/// * Submission is a single ring push (no `Mutex`, no `Condvar` wake in
///   the steady state — workers only park after an idle spin budget);
/// * completions stream back as soon as each job finishes; there is no
///   whole-batch barrier, and different clients never contend;
/// * backpressure is explicit: [`PoolClient::try_send`] returns
///   [`TrySendError::Full`] instead of blocking.
///
/// **Completion-capacity contract:** the caller sizes the completion
/// rings (`completion_depth`) at least as large as the maximum number of
/// results it can leave unclaimed per `(client, worker)` pair. The
/// service layer guarantees this with its ticket window, so a worker's
/// completion push never has to wait.
///
/// On [`ShardPool::shutdown`], workers first drain every queued job and
/// push its completion, then exit; queued work is completed, not
/// dropped. A worker panic instead poisons the pool: every client wakes
/// and sees [`PoolError::WorkerPanicked`].
///
/// # Examples
///
/// ```
/// use pmck_rt::pool::ShardPool;
///
/// let (pool, mut clients) =
///     ShardPool::with_clients(vec![0u64, 100], 1, 8, 8, |_, state, job: u64| {
///         *state += job;
///         *state
///     });
/// let mut client = clients.remove(0);
/// client.try_send(1, 7).unwrap();
/// let (shard, result) = loop {
///     if let Some(got) = client.try_recv() {
///         break got;
///     }
/// };
/// assert_eq!((shard, result), (1, 107));
/// drop(pool);
/// ```
pub struct ShardPool<S> {
    shared: Arc<StreamShared>,
    states: Vec<Arc<Mutex<S>>>,
    handles: Vec<Option<JoinHandle<()>>>,
}

/// One client's sending/receiving endpoint: a private lane of SPSC
/// rings to every worker. `Send` but not `Clone` — move it to the
/// producer thread that owns it.
pub struct PoolClient<J, R> {
    lane: usize,
    subs: Vec<SpscProducer<J>>,
    comps: Vec<SpscConsumer<R>>,
    parker: Parker,
    shared: Arc<StreamShared>,
    /// Round-robin cursor so `try_recv` drains shards fairly.
    rr: usize,
}

impl<S> ShardPool<S>
where
    S: Send + 'static,
{
    /// Spawns one worker per element of `states` and hands back `lanes`
    /// independent clients. Worker `w` owns `states[w]` and executes
    /// every received job as `f(w, &mut state, job)`; per-lane-per-shard
    /// FIFO order is guaranteed (jobs from one client reach one shard in
    /// send order, and their completions come back in that order).
    ///
    /// `depth` bounds each submission ring (the backpressure window);
    /// `completion_depth` bounds each completion ring (see the
    /// completion-capacity contract in the type docs). Both round up to
    /// powers of two.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or `lanes` is zero.
    pub fn with_clients<J, R, F>(
        states: Vec<S>,
        lanes: usize,
        depth: usize,
        completion_depth: usize,
        f: F,
    ) -> (Self, Vec<PoolClient<J, R>>)
    where
        J: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &mut S, J) -> R + Send + Sync + 'static,
    {
        assert!(!states.is_empty(), "pool needs at least one worker");
        assert!(lanes > 0, "pool needs at least one client lane");
        let shards = states.len();
        let worker_parkers: Vec<Parker> = (0..shards).map(|_| Parker::new()).collect();
        let client_parkers: Vec<Parker> = (0..lanes).map(|_| Parker::new()).collect();
        let shared = Arc::new(StreamShared {
            closing: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            workers: worker_parkers
                .iter()
                .map(|p| PeerFlag {
                    maybe_sleeping: AtomicBool::new(false),
                    unparker: p.unparker(),
                })
                .collect(),
            clients: client_parkers
                .iter()
                .map(|p| PeerFlag {
                    maybe_sleeping: AtomicBool::new(false),
                    unparker: p.unparker(),
                })
                .collect(),
        });

        // Build the ring matrix: worker_lanes[w][l] pairs with the
        // client halves collected per lane.
        let mut worker_lanes: Vec<Vec<WorkerLane<J, R>>> =
            (0..shards).map(|_| Vec::with_capacity(lanes)).collect();
        let mut client_subs: Vec<Vec<SpscProducer<J>>> =
            (0..lanes).map(|_| Vec::with_capacity(shards)).collect();
        let mut client_comps: Vec<Vec<SpscConsumer<R>>> =
            (0..lanes).map(|_| Vec::with_capacity(shards)).collect();
        for subs in client_subs.iter_mut().zip(client_comps.iter_mut()) {
            let (lane_subs, lane_comps) = subs;
            for shard_lanes in worker_lanes.iter_mut() {
                let (sub_tx, sub_rx) = spsc::<J>(depth);
                let (comp_tx, comp_rx) = spsc::<R>(completion_depth);
                shard_lanes.push(WorkerLane {
                    sub: sub_rx,
                    comp: comp_tx,
                });
                lane_subs.push(sub_tx);
                lane_comps.push(comp_rx);
            }
        }

        let f = Arc::new(f);
        let states: Vec<Arc<Mutex<S>>> = states
            .into_iter()
            .map(|s| Arc::new(Mutex::new(s)))
            .collect();
        let mut handles = Vec::with_capacity(shards);
        for (w, (lanes_for_w, parker)) in worker_lanes.into_iter().zip(worker_parkers).enumerate() {
            let state = Arc::clone(&states[w]);
            let shared = Arc::clone(&shared);
            let f = Arc::clone(&f);
            handles.push(Some(std::thread::spawn(move || {
                stream_worker_loop(w, lanes_for_w, state, parker, shared, &*f);
            })));
        }

        let clients = client_subs
            .into_iter()
            .zip(client_comps)
            .zip(client_parkers)
            .enumerate()
            .map(|(lane, ((subs, comps), parker))| PoolClient {
                lane,
                subs,
                comps,
                parker,
                shared: Arc::clone(&shared),
                rr: 0,
            })
            .collect();

        (
            ShardPool {
                shared,
                states,
                handles,
            },
            clients,
        )
    }
}

impl<S> ShardPool<S> {
    /// Number of workers (shards).
    pub fn workers(&self) -> usize {
        self.states.len()
    }

    /// Runs `f` against `worker`'s pinned state. Blocks while that
    /// worker is mid-burst; between bursts the state is idle and the
    /// call is immediate. Works after shutdown or a panic.
    pub fn with_state<T>(&self, worker: usize, f: impl FnOnce(&mut S) -> T) -> T {
        f(&mut lock_ignore_poison(&self.states[worker]))
    }

    /// Whether a worker panicked and poisoned the pool.
    pub fn is_poisoned(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Stops accepting new work, lets every worker **drain** its queued
    /// jobs (completions stay claimable from the clients), joins the
    /// workers, and wakes every blocked client. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        for w in self.shared.workers.iter() {
            w.wake_unconditionally();
        }
        for handle in &mut self.handles {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
        for c in self.shared.clients.iter() {
            c.wake_unconditionally();
        }
    }
}

impl<S> Drop for ShardPool<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn stream_worker_loop<S, J, R, F>(
    w: usize,
    mut lanes: Vec<WorkerLane<J, R>>,
    state: Arc<Mutex<S>>,
    parker: Parker,
    shared: Arc<StreamShared>,
    f: &F,
) where
    F: Fn(usize, &mut S, J) -> R,
{
    let _guard = StreamPanicGuard {
        shared: Arc::clone(&shared),
    };
    let mut idle = 0u32;
    loop {
        let mut did = 0usize;
        for (lane_idx, lane) in lanes.iter_mut().enumerate() {
            // Snapshot the burst size so one chatty lane cannot starve
            // the others; `len()` is exact on the consumer side.
            let burst = lane.sub.len();
            if burst == 0 {
                continue;
            }
            {
                let mut st = lock_ignore_poison(&state);
                for _ in 0..burst {
                    let Some(job) = lane.sub.try_pop() else { break };
                    let mut result = f(w, &mut st, job);
                    // The completion ring is sized to the client's
                    // ticket window, so this push succeeds immediately
                    // under the contract; a slow (or gone) client is
                    // tolerated rather than trusted.
                    loop {
                        match lane.comp.try_push(result) {
                            Ok(()) => break,
                            Err(back) => {
                                if lane.comp.is_abandoned() {
                                    break; // client dropped: discard
                                }
                                result = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                    did += 1;
                }
            }
            // Progress was made for this lane: order the ring stores
            // before the flag load (StoreLoad), then wake the client.
            fence(Ordering::SeqCst);
            shared.clients[lane_idx].wake_if_sleeping();
        }
        if did > 0 {
            idle = 0;
            continue;
        }
        if shared.closing.load(Ordering::Acquire) {
            // Drain contract: exit only once every submission ring is
            // empty, so queued jobs complete rather than vanish.
            if lanes.iter_mut().all(|l| l.sub.is_empty()) {
                break;
            }
            continue;
        }
        idle += 1;
        if idle <= IDLE_SPINS {
            std::hint::spin_loop();
            continue;
        }
        if idle <= IDLE_SPINS + IDLE_YIELDS {
            std::thread::yield_now();
            continue;
        }
        // Announce, re-check, park: the announce flag plus the SeqCst
        // fences on both sides close the lost-wakeup race (a client that
        // misses the flag has pushed after our re-check, and we see it).
        shared.workers[w]
            .maybe_sleeping
            .store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if shared.closing.load(Ordering::SeqCst) || lanes.iter_mut().any(|l| !l.sub.is_empty()) {
            shared.workers[w]
                .maybe_sleeping
                .store(false, Ordering::Relaxed);
            idle = 0;
            continue;
        }
        parker.park();
        shared.workers[w]
            .maybe_sleeping
            .store(false, Ordering::Relaxed);
        idle = 0;
    }
}

impl<J, R> PoolClient<J, R> {
    /// Number of workers reachable from this client.
    pub fn shards(&self) -> usize {
        self.subs.len()
    }

    /// This client's lane index.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Free submission slots guaranteed available toward `shard`.
    pub fn free_slots(&mut self, shard: usize) -> usize {
        self.subs[shard].free()
    }

    /// The pool-level failure visible to this client, if any.
    pub fn pool_error(&self) -> Option<PoolError> {
        if self.shared.dead.load(Ordering::Acquire) {
            Some(PoolError::WorkerPanicked)
        } else if self.shared.closing.load(Ordering::Acquire) {
            Some(PoolError::Closed)
        } else {
            None
        }
    }

    /// Sends `job` to `shard` and signals the worker. Never blocks.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] on backpressure (retry after draining
    /// completions or [`PoolClient::wait_progress`]);
    /// [`TrySendError::Closed`]/[`TrySendError::WorkerLost`] once the
    /// pool is shut down or poisoned. The job is always returned.
    pub fn try_send(&mut self, shard: usize, job: J) -> Result<(), TrySendError<J>> {
        self.try_send_quiet(shard, job)?;
        self.signal(shard);
        Ok(())
    }

    /// [`PoolClient::try_send`] without the worker signal — for batched
    /// submission: push a run of jobs, then [`PoolClient::signal`] each
    /// touched shard once.
    pub fn try_send_quiet(&mut self, shard: usize, job: J) -> Result<(), TrySendError<J>> {
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(TrySendError::WorkerLost(job));
        }
        if self.shared.closing.load(Ordering::Acquire) {
            return Err(TrySendError::Closed(job));
        }
        self.subs[shard].try_push(job).map_err(TrySendError::Full)
    }

    /// Wakes `shard`'s worker if it announced it may sleep. Required
    /// after [`PoolClient::try_send_quiet`]; a missed signal is a lost
    /// wakeup.
    pub fn signal(&self, shard: usize) {
        // Order the ring push (Release) before the flag load.
        fence(Ordering::SeqCst);
        self.shared.workers[shard].wake_if_sleeping();
    }

    /// Claims the oldest unclaimed completion from any shard, scanning
    /// round-robin for fairness. Returns `(shard, result)`.
    pub fn try_recv(&mut self) -> Option<(usize, R)> {
        let n = self.comps.len();
        for i in 0..n {
            let s = (self.rr + i) % n;
            if let Some(r) = self.comps[s].try_pop() {
                self.rr = (s + 1) % n;
                return Some((s, r));
            }
        }
        None
    }

    /// Claims the oldest unclaimed completion from one specific shard.
    pub fn try_recv_from(&mut self, shard: usize) -> Option<R> {
        self.comps[shard].try_pop()
    }

    /// Whether any completion is ready to claim right now.
    pub fn has_completions(&mut self) -> bool {
        self.comps.iter_mut().any(|c| !c.is_empty())
    }

    /// Whether the worker side is gone (threads exited after shutdown or
    /// panic) **and** every completion has been claimed — after this, no
    /// outstanding job will ever complete.
    pub fn workers_gone(&mut self) -> bool {
        self.comps
            .iter_mut()
            .all(|c| c.is_abandoned() && c.is_empty())
    }

    /// Blocks (spin, then yield, then park) until progress is plausible:
    /// a completion is claimable, `watch_shard`'s submission ring has a
    /// free slot, or the pool is closing/poisoned. May return
    /// spuriously; callers loop on their real condition.
    pub fn wait_progress(&mut self, watch_shard: Option<usize>) {
        for _ in 0..IDLE_SPINS {
            if self.progress_ready(watch_shard) {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..IDLE_YIELDS {
            if self.progress_ready(watch_shard) {
                return;
            }
            std::thread::yield_now();
        }
        // Announce, re-check, park (see the worker loop for the fence
        // pairing argument).
        self.shared.clients[self.lane]
            .maybe_sleeping
            .store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.progress_ready(watch_shard) {
            self.shared.clients[self.lane]
                .maybe_sleeping
                .store(false, Ordering::Relaxed);
            return;
        }
        self.parker.park();
        self.shared.clients[self.lane]
            .maybe_sleeping
            .store(false, Ordering::Relaxed);
    }

    fn progress_ready(&mut self, watch_shard: Option<usize>) -> bool {
        if self.shared.dead.load(Ordering::Acquire) || self.shared.closing.load(Ordering::Acquire) {
            return true;
        }
        if let Some(s) = watch_shard {
            if self.subs[s].free() > 0 {
                return true;
            }
        }
        self.has_completions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_pool_per_shard_fifo_single_client() {
        let (pool, mut clients) =
            ShardPool::with_clients(vec![(); 2], 1, 16, 64, |w, (), job: u64| {
                (w as u64) * 1_000_000 + job
            });
        let mut c = clients.remove(0);
        for j in 0..20u64 {
            let shard = (j % 2) as usize;
            loop {
                match c.try_send(shard, j) {
                    Ok(()) => break,
                    Err(TrySendError::Full(_)) => c.wait_progress(Some(shard)),
                    Err(e) => panic!("unexpected send failure: {e:?}"),
                }
            }
        }
        let mut per_shard: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        while per_shard[0].len() + per_shard[1].len() < 20 {
            match c.try_recv() {
                Some((s, r)) => {
                    assert_eq!(r / 1_000_000, s as u64);
                    per_shard[s].push(r % 1_000_000);
                }
                None => c.wait_progress(None),
            }
        }
        // FIFO per (lane, shard): each shard saw its jobs in send order.
        assert_eq!(per_shard[0], (0..20).step_by(2).collect::<Vec<u64>>());
        assert_eq!(per_shard[1], (1..20).step_by(2).collect::<Vec<u64>>());
        drop(pool);
    }

    #[test]
    fn shard_pool_many_clients_stream_concurrently() {
        const LANES: usize = 4;
        const PER: u64 = 2_000;
        let (pool, clients) =
            ShardPool::with_clients(vec![0u64; 2], LANES, 8, 16, |_, hits, job: u64| {
                *hits += 1;
                job * 2
            });
        std::thread::scope(|s| {
            for (lane, mut c) in clients.into_iter().enumerate() {
                s.spawn(move || {
                    let mut sum = 0u64;
                    let mut sent = 0u64;
                    let mut got = 0u64;
                    while got < PER {
                        if sent < PER {
                            let job = lane as u64 * PER + sent;
                            let shard = (job % 2) as usize;
                            match c.try_send(shard, job) {
                                Ok(()) => {
                                    sent += 1;
                                    continue;
                                }
                                Err(TrySendError::Full(_)) => {}
                                Err(e) => panic!("send failed: {e:?}"),
                            }
                        }
                        match c.try_recv() {
                            Some((_, r)) => {
                                sum += r;
                                got += 1;
                            }
                            None => c.wait_progress(None),
                        }
                    }
                    let lo = lane as u64 * PER;
                    let expect: u64 = (lo..lo + PER).map(|v| v * 2).sum();
                    assert_eq!(sum, expect);
                });
            }
        });
        let total = pool.with_state(0, |h| *h) + pool.with_state(1, |h| *h);
        assert_eq!(total, LANES as u64 * PER);
        drop(pool);
    }

    #[test]
    fn shard_pool_backpressure_is_reported_not_blocking() {
        // A worker that can't proceed until we let it: the first job
        // parks the lane behind a slow operation.
        let gate = Arc::new(AtomicBool::new(false));
        let wgate = Arc::clone(&gate);
        let (pool, mut clients) =
            ShardPool::with_clients(vec![(); 1], 1, 1, 8, move |_, (), job: u32| {
                while !wgate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                job
            });
        let mut c = clients.remove(0);
        c.try_send(0, 1).unwrap();
        // Ring depth 1: once the (possibly) un-popped first job occupies
        // the ring, a second+third send must eventually report Full
        // rather than block.
        let mut saw_full = false;
        for j in 2..100u32 {
            match c.try_send(0, j) {
                Ok(()) => {}
                Err(TrySendError::Full(back)) => {
                    assert_eq!(back, j);
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e:?}"),
            }
        }
        assert!(saw_full, "depth-1 ring never reported backpressure");
        gate.store(true, Ordering::Release);
        drop(pool);
    }

    #[test]
    fn shard_pool_shutdown_drains_in_flight() {
        let (mut pool, mut clients) =
            ShardPool::with_clients(vec![0u64; 2], 1, 64, 64, |_, n, job: u64| {
                // Slow worker so shutdown races real in-flight work.
                std::thread::sleep(std::time::Duration::from_micros(50));
                *n += 1;
                job + 1
            });
        let mut c = clients.remove(0);
        let mut sent = 0u64;
        for j in 0..32u64 {
            if c.try_send((j % 2) as usize, j).is_ok() {
                sent += 1;
            }
        }
        // Shut down immediately: every accepted job must still complete.
        pool.shutdown();
        let mut got = 0u64;
        while !c.workers_gone() || c.has_completions() {
            match c.try_recv() {
                Some((_, r)) => {
                    assert!(r >= 1);
                    got += 1;
                }
                None => {
                    if c.workers_gone() {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        assert_eq!(got, sent, "shutdown dropped in-flight jobs");
        assert_eq!(c.pool_error(), Some(PoolError::Closed));
        assert!(matches!(c.try_send(0, 99), Err(TrySendError::Closed(99))));
    }

    #[test]
    fn shard_pool_worker_panic_poisons_and_wakes_clients() {
        let (pool, mut clients) =
            ShardPool::with_clients(vec![(); 2], 1, 16, 16, |_, (), job: u32| {
                assert!(job != 13, "unlucky job");
                job
            });
        let mut c = clients.remove(0);
        c.try_send(0, 1).unwrap();
        c.try_send(0, 13).unwrap(); // worker 0 dies on this one
                                    // Eventually the poison is visible; blocked waits wake up.
        loop {
            if c.pool_error() == Some(PoolError::WorkerPanicked) {
                break;
            }
            c.wait_progress(None);
        }
        assert!(pool.is_poisoned());
        // The pre-panic completion may or may not have been claimed;
        // after draining, the client can prove nothing more will come.
        while let Some(_r) = c.try_recv() {}
        assert!(matches!(c.try_send(1, 7), Err(TrySendError::WorkerLost(7))));
        drop(pool);
    }

    #[test]
    fn shard_pool_with_state_sees_pinned_state() {
        let (pool, mut clients) =
            ShardPool::with_clients(vec![0u64; 2], 1, 8, 8, |_, s, job: u64| {
                *s += job;
                *s
            });
        let mut c = clients.remove(0);
        for j in [5u64, 7, 11] {
            c.try_send(1, j).unwrap();
        }
        let mut got = 0;
        while got < 3 {
            if c.try_recv().is_some() {
                got += 1;
            } else {
                c.wait_progress(None);
            }
        }
        assert_eq!(pool.with_state(1, |s| *s), 23);
        assert_eq!(pool.with_state(0, |s| *s), 0);
    }
}
