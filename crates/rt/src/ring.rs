//! A lock-free fixed-capacity SPSC ring and a spin-then-park parker.
//!
//! The service plane moves every request and response through these
//! rings instead of `Mutex`+`Condvar` mailboxes: a producer thread and a
//! shard worker exchange work through an [`spsc`] pair (one atomic store
//! per push/pop in the steady state). Everything is `std` atomics only —
//! no external crates, no allocation after construction.
//!
//! Three design points, borrowed from the llfree-rs school of
//! dependency-free atomics:
//!
//! * **Cache-line padding.** The producer index, the consumer index,
//!   and each side's cached view of the other live on distinct 64-byte
//!   lines ([`CachePadded`]), so a push never steals the popper's line.
//! * **Cached peer indices.** The SPSC producer re-reads the consumer's
//!   index only when its cached copy says the ring *looks* full (and
//!   symmetrically for the consumer), so the common case touches one
//!   shared line, not two.
//! * **Parking is a separate concern.** The rings themselves never
//!   block; [`Parker`]/[`Unparker`] implement the spin-then-park
//!   admission control on top (an atomic handshake that only falls back
//!   to a `Mutex`+`Condvar` sleep after the caller has exhausted its
//!   spin budget).
//!
//! # Examples
//!
//! ```
//! use pmck_rt::ring::spsc;
//!
//! let (mut tx, mut rx) = spsc::<u64>(8);
//! for v in 0..8 {
//!     tx.try_push(v).unwrap();
//! }
//! assert!(tx.try_push(99).is_err()); // full: capacity is exact
//! assert_eq!(rx.try_pop(), Some(0));
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Pads (and aligns) a value to a 64-byte cache line so neighboring
/// atomics never share a line (false sharing).
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The shared core of one SPSC ring: a slot array plus the two indices.
///
/// Indices count *pushes/pops ever made* (monotonic, wrapping mod
/// 2^usize); slot for operation `i` is `i & (cap - 1)`. With capacity a
/// power of two and both counters monotonic, `head - tail` is the exact
/// queue length even across wrap-around.
struct SpscCore<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Total pushes (owned by the producer, read by the consumer).
    head: CachePadded<AtomicUsize>,
    /// Total pops (owned by the consumer, read by the producer).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer half writes slots only between claiming them
// (head not yet published) and publishing head with Release; the
// consumer reads them only after observing that head with Acquire. Each
// slot is therefore accessed by exactly one side at a time.
unsafe impl<T: Send> Send for SpscCore<T> {}
unsafe impl<T: Send> Sync for SpscCore<T> {}

impl<T> Drop for SpscCore<T> {
    fn drop(&mut self) {
        // Both halves are gone; drain whatever is still queued.
        let head = self.head.load(Ordering::Relaxed);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            let slot = &self.buf[tail & self.mask];
            // SAFETY: slots in [tail, head) were initialized by pushes
            // and never popped.
            unsafe { (*slot.get()).assume_init_drop() };
            tail = tail.wrapping_add(1);
        }
    }
}

/// The producing half of an SPSC ring. `!Clone`; exactly one thread may
/// hold it (it is `Send`, so that thread can change).
pub struct SpscProducer<T> {
    core: Arc<SpscCore<T>>,
    /// Producer-private copy of `head` (saves an atomic load per push).
    head: usize,
    /// Cached view of the consumer's `tail`; refreshed only when the
    /// ring looks full.
    tail_cache: usize,
}

/// The consuming half of an SPSC ring.
pub struct SpscConsumer<T> {
    core: Arc<SpscCore<T>>,
    /// Consumer-private copy of `tail`.
    tail: usize,
    /// Cached view of the producer's `head`; refreshed only when the
    /// ring looks empty.
    head_cache: usize,
}

/// Creates an SPSC ring holding up to `capacity` items (rounded up to a
/// power of two, minimum 1). The two halves are independent values; move
/// one to the consuming thread.
pub fn spsc<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let core = Arc::new(SpscCore {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscProducer {
            core: Arc::clone(&core),
            head: 0,
            tail_cache: 0,
        },
        SpscConsumer {
            core,
            tail: 0,
            head_cache: 0,
        },
    )
}

impl<T> SpscProducer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.core.mask + 1
    }

    /// Items currently queued, as seen from the producer side (exact:
    /// the producer owns `head`, and `tail` only ever grows).
    pub fn len(&mut self) -> usize {
        self.tail_cache = self.core.tail.load(Ordering::Acquire);
        self.head.wrapping_sub(self.tail_cache)
    }

    /// Whether the ring is empty from the producer's view.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Free slots guaranteed available to this producer right now.
    pub fn free(&mut self) -> usize {
        self.capacity() - self.len()
    }

    /// Pushes `v`, or returns it if the ring is full. Never blocks; one
    /// Release store in the common case.
    pub fn try_push(&mut self, v: T) -> Result<(), T> {
        let cap = self.core.mask + 1;
        if self.head.wrapping_sub(self.tail_cache) == cap {
            // Looks full through the cache; refresh the real tail once.
            self.tail_cache = self.core.tail.load(Ordering::Acquire);
            if self.head.wrapping_sub(self.tail_cache) == cap {
                return Err(v);
            }
        }
        let slot = &self.core.buf[self.head & self.core.mask];
        // SAFETY: slot `head` is unoccupied (head - tail < cap) and the
        // consumer cannot read it until the Release store below.
        unsafe { (*slot.get()).write(v) };
        self.head = self.head.wrapping_add(1);
        self.core.head.store(self.head, Ordering::Release);
        Ok(())
    }

    /// True once the consumer half has been dropped (pushes can still
    /// succeed but will never be observed).
    pub fn is_abandoned(&self) -> bool {
        Arc::strong_count(&self.core) == 1
    }
}

impl<T> SpscConsumer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.core.mask + 1
    }

    /// Items currently queued, as seen from the consumer side.
    pub fn len(&mut self) -> usize {
        self.head_cache = self.core.head.load(Ordering::Acquire);
        self.head_cache.wrapping_sub(self.tail)
    }

    /// Whether the ring is empty from the consumer's view.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pops the oldest item, or `None` if the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head_cache == self.tail {
            // Looks empty through the cache; refresh the real head once.
            self.head_cache = self.core.head.load(Ordering::Acquire);
            if self.head_cache == self.tail {
                return None;
            }
        }
        let slot = &self.core.buf[self.tail & self.core.mask];
        // SAFETY: head > tail, so slot `tail` holds an initialized item
        // published by the producer's Release store (paired with the
        // Acquire load of `head` above).
        let v = unsafe { (*slot.get()).assume_init_read() };
        self.tail = self.tail.wrapping_add(1);
        self.core.tail.store(self.tail, Ordering::Release);
        Some(v)
    }

    /// True once the producer half has been dropped; combined with
    /// [`SpscConsumer::try_pop`] returning `None` this means no item
    /// will ever arrive again.
    pub fn is_abandoned(&self) -> bool {
        Arc::strong_count(&self.core) == 1
    }
}

const PARKER_EMPTY: u8 = 0;
const PARKER_PARKED: u8 = 1;
const PARKER_NOTIFIED: u8 = 2;

struct ParkerCore {
    state: AtomicU8,
    lock: Mutex<()>,
    cv: Condvar,
}

/// The sleeping half of a spin-then-park handshake.
///
/// The intended protocol (both the shard workers and blocked producers
/// use it):
///
/// 1. spin: retry the lock-free operation a bounded number of times;
/// 2. announce: publish "I may sleep" (e.g. a `sleeping` flag), issue a
///    `fence(SeqCst)`, then **re-check the condition**. Every notifier
///    mirrors it: make the condition true (e.g. push to the ring), issue
///    a `fence(SeqCst)`, then load the flag and call
///    [`Unparker::unpark`] if it is set. Each side stores one variable
///    and then loads the other; without a full fence between the two a
///    store may pass the later load (on x86 it waits in the store
///    buffer), both sides read the stale value, and the sleeper parks
///    on a wakeup nobody sends. With both fences at least one side sees
///    the other's store — `pmck_rt::pool` has them on every side of its
///    handshake;
/// 3. park: [`Parker::park`] sleeps until someone unparks, consuming at
///    most one token (a token posted while awake makes the next park
///    return immediately, so notify-before-park is never lost).
pub struct Parker {
    core: Arc<ParkerCore>,
}

/// The waking half; `Clone` to hand to any number of notifiers.
pub struct Unparker {
    core: Arc<ParkerCore>,
}

impl Clone for Unparker {
    fn clone(&self) -> Self {
        Unparker {
            core: Arc::clone(&self.core),
        }
    }
}

impl Default for Parker {
    fn default() -> Self {
        Parker::new()
    }
}

impl Parker {
    /// A fresh parker with no pending token.
    pub fn new() -> Self {
        Parker {
            core: Arc::new(ParkerCore {
                state: AtomicU8::new(PARKER_EMPTY),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            }),
        }
    }

    /// A waking handle for this parker.
    pub fn unparker(&self) -> Unparker {
        Unparker {
            core: Arc::clone(&self.core),
        }
    }

    /// Sleeps until an unpark token arrives; returns immediately if one
    /// is already pending. Spurious returns are possible and benign
    /// (callers loop on their real condition).
    pub fn park(&self) {
        let core = &*self.core;
        // Fast path: consume a pending token without the lock.
        if core.state.swap(PARKER_EMPTY, Ordering::Acquire) == PARKER_NOTIFIED {
            return;
        }
        let mut guard = core.lock.lock().unwrap_or_else(|e| e.into_inner());
        // Publish PARKED under the lock, unless a token raced in.
        if core
            .state
            .compare_exchange(
                PARKER_EMPTY,
                PARKER_PARKED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // NOTIFIED won the race: consume it and return.
            core.state.store(PARKER_EMPTY, Ordering::Relaxed);
            return;
        }
        while core.state.load(Ordering::Relaxed) == PARKER_PARKED {
            guard = core.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        core.state.store(PARKER_EMPTY, Ordering::Relaxed);
    }
}

impl Unparker {
    /// Posts a wake token: wakes the parked thread, or makes the next
    /// [`Parker::park`] return immediately. Cheap when nobody sleeps
    /// (one atomic swap, no lock).
    pub fn unpark(&self) {
        let core = &*self.core;
        if core.state.swap(PARKER_NOTIFIED, Ordering::Release) == PARKER_PARKED {
            // The sleeper committed to the condvar; take the lock so
            // the notify cannot land between its check and wait.
            drop(core.lock.lock().unwrap_or_else(|e| e.into_inner()));
            core.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_fifo_and_boundaries() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        assert_eq!(rx.try_pop(), None);
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(tx.try_push(4), Err(4));
        for v in 0..4 {
            assert_eq!(rx.try_pop(), Some(v));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn spsc_wraps_around_many_laps() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..1000 {
            let burst = 1 + (round % 8) as u64;
            for _ in 0..burst {
                if tx.try_push(next_in).is_ok() {
                    next_in += 1;
                }
            }
            for _ in 0..(round % 5) {
                if let Some(v) = rx.try_pop() {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
        while let Some(v) = rx.try_pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn spsc_capacity_one() {
        let (mut tx, mut rx) = spsc::<String>(1);
        assert_eq!(tx.capacity(), 1);
        tx.try_push("a".into()).unwrap();
        assert_eq!(tx.try_push("b".into()), Err("b".into()));
        assert_eq!(rx.try_pop().as_deref(), Some("a"));
        tx.try_push("c".into()).unwrap();
        assert_eq!(rx.try_pop().as_deref(), Some("c"));
    }

    #[test]
    fn spsc_drops_queued_items() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, mut rx) = spsc::<D>(8);
        for _ in 0..5 {
            tx.try_push(D).unwrap();
        }
        drop(rx.try_pop()); // 1 drop via pop
        drop((tx, rx)); // 4 drops via ring teardown
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn spsc_abandonment_is_visible() {
        let (tx, mut rx) = spsc::<u8>(2);
        assert!(!rx.is_abandoned());
        drop(tx);
        assert!(rx.is_abandoned());
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn parker_token_before_park_is_not_lost() {
        let p = Parker::new();
        let u = p.unparker();
        u.unpark();
        u.unpark(); // tokens don't accumulate past one
        p.park(); // consumes the token, returns immediately
        let woke = std::sync::Arc::new(AtomicUsize::new(0));
        let woke2 = std::sync::Arc::clone(&woke);
        std::thread::scope(|s| {
            let u = p.unparker();
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                woke2.store(1, Ordering::SeqCst);
                u.unpark();
            });
            // Parks until the real wake arrives (spurious wakes loop).
            while woke.load(Ordering::SeqCst) == 0 {
                p.park();
            }
        });
    }
}
