//! Seeded multi-thread stress for the SPSC ring and the `Parker`.
//!
//! The unit tests in `ring.rs` pin the single-threaded contracts; these
//! tests hammer the concurrent ones: a producer and consumer running
//! flat out across millions of wrap-arounds must deliver every value
//! exactly once, in order, for any capacity — including the degenerate
//! capacity-1 ring, which wraps on every push and so exercises the
//! index arithmetic hardest. Payloads carry a seeded checksum so a
//! torn or duplicated slot read shows up as a value mismatch, not just
//! a count mismatch.

use std::thread;

use pmck_rt::ring::{spsc, Parker};
use pmck_rt::rng::stream_seed;

/// A payload whose fields are mutually checked: `check` is a function
/// of `seq` and the stream seed, so any slot-level tearing (reading a
/// half-written payload) or duplication is caught by value, not count.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sealed {
    seq: u64,
    check: u64,
}

fn seal(seed: u64, seq: u64) -> Sealed {
    Sealed {
        seq,
        check: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed,
    }
}

/// SPSC: every capacity (1, 2, 7→8, 64) delivers a long seeded stream
/// exactly once, in order, under concurrent push/pop.
#[test]
fn spsc_stress_delivers_in_order_across_wraps() {
    for (cap, items) in [
        (1usize, 40_000u64),
        (2, 80_000),
        (7, 120_000),
        (64, 400_000),
    ] {
        let seed = stream_seed(0xA11CE, cap as u64);
        let (mut tx, mut rx) = spsc::<Sealed>(cap);
        let producer = thread::spawn(move || {
            let mut backoffs = 0u64;
            for seq in 0..items {
                let mut v = seal(seed, seq);
                loop {
                    match tx.try_push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            backoffs += 1;
                            thread::yield_now();
                        }
                    }
                }
            }
            backoffs
        });
        let mut next = 0u64;
        while next < items {
            if let Some(got) = rx.try_pop() {
                assert_eq!(got, seal(seed, next), "cap {cap}: out of order or torn");
                next += 1;
            } else {
                thread::yield_now();
            }
        }
        assert_eq!(rx.try_pop(), None, "cap {cap}: ring must end empty");
        let backoffs = producer.join().unwrap();
        // A bounded ring must have pushed back at least once somewhere
        // in a 40k+ item run through a ≤64-slot buffer on one machine —
        // if not, the full check never ran and the test proved nothing.
        // (Not asserted: legal schedules exist where the consumer always
        // keeps up. Recorded for debugging instead.)
        let _ = backoffs;
    }
}

/// SPSC full/empty edges: a capacity-`n` ring accepts exactly `n`
/// pushes when undrained, reports `len`/`free` consistently at every
/// fill level, and round-trips the rejected value back to the caller.
#[test]
fn spsc_full_and_empty_edges_are_exact() {
    for cap in [1usize, 2, 4, 8] {
        let (mut tx, mut rx) = spsc::<u64>(cap);
        assert_eq!(tx.capacity(), cap);
        for i in 0..cap as u64 {
            assert_eq!(tx.free(), cap - i as usize);
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.free(), 0);
        assert_eq!(tx.try_push(99), Err(99), "cap {cap}: full ring must reject");
        assert_eq!(rx.len(), cap);
        for i in 0..cap as u64 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
        assert_eq!(rx.len(), 0);
        // Interleave across the wrap point a few thousand times.
        for i in 0..5_000u64 {
            tx.try_push(i).unwrap();
            assert_eq!(rx.try_pop(), Some(i));
        }
    }
}

/// SPSC abandonment: dropping one side is visible to the other, and a
/// consumer can still drain values that were in flight at drop time.
#[test]
fn spsc_abandonment_is_visible_and_drainable() {
    let (mut tx, mut rx) = spsc::<u64>(8);
    tx.try_push(1).unwrap();
    tx.try_push(2).unwrap();
    assert!(!rx.is_abandoned());
    drop(tx);
    assert!(rx.is_abandoned());
    assert_eq!(rx.try_pop(), Some(1));
    assert_eq!(rx.try_pop(), Some(2));
    assert_eq!(rx.try_pop(), None);

    let (tx, rx) = spsc::<u64>(8);
    assert!(!tx.is_abandoned());
    drop(rx);
    assert!(tx.is_abandoned());
}

/// Parker handshake under contention: a consumer that parks whenever
/// the ring is empty must still drain the full stream (no lost wakeup)
/// when the producer signals after every push.
///
/// Both sides put a `fence(SeqCst)` between their store and their load
/// of the *other* side's variable (the protocol of [`Parker`]'s docs).
/// Without the producer's, its `head` store may still sit in the store
/// buffer when it reads `sleeping == false`, while the consumer — having
/// announced — reads the old `head` and parks: the ring then fills and
/// nobody is left to unpark. That hang is why the producer also carries
/// a deadline: a lost wakeup fails with the ring's state, it does not
/// spin until the job times out.
#[test]
fn parked_consumer_never_loses_a_wakeup() {
    use std::sync::atomic::{fence, AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const ITEMS: u64 = 20_000;
    const DEADLINE: Duration = Duration::from_secs(20);
    let (mut tx, mut rx) = spsc::<u64>(8);
    let parker = Parker::new();
    let unparker = parker.unparker();
    let sleeping = Arc::new(AtomicBool::new(false));
    let sleeping2 = Arc::clone(&sleeping);
    let consumer = thread::spawn(move || {
        let mut next = 0u64;
        while next < ITEMS {
            if let Some(v) = rx.try_pop() {
                assert_eq!(v, next);
                next += 1;
            } else {
                // Dekker-style: announce, fence, re-check, then sleep.
                sleeping2.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if rx.is_empty() && next < ITEMS {
                    parker.park();
                }
                sleeping2.store(false, Ordering::SeqCst);
            }
        }
    });
    let started = Instant::now();
    for mut v in 0..ITEMS {
        loop {
            match tx.try_push(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    assert!(
                        started.elapsed() < DEADLINE,
                        "lost wakeup: item {v} of {ITEMS} still refused {DEADLINE:?} into \
                         the run ({} of {} slots free, consumer sleeping: {})",
                        tx.free(),
                        tx.capacity(),
                        sleeping.load(Ordering::SeqCst)
                    );
                    thread::yield_now();
                }
            }
        }
        // Order the push (a Release store of `head`) before the flag load.
        fence(Ordering::SeqCst);
        if sleeping.load(Ordering::SeqCst) {
            unparker.unpark();
        }
    }
    // Belt and braces: one final wake covers a consumer that announced
    // after our last check.
    unparker.unpark();
    consumer.join().unwrap();
}
