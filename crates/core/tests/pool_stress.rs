//! Stress and failure-surfacing tests for the deterministic parallel
//! layer (`WorkerPool`).
//!
//! The pool's worst case is many *tiny* windows — each submission is
//! one mutex/condvar round-trip, so wake-up latency has to stay
//! correct (not just fast) under thread oversubscription. And since a
//! panicking evaluation closure must never strand the parked workers,
//! the pool has to surface the original panic on the submitting
//! thread and stay usable afterwards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ftdes_core::parallel::WorkerPool;

/// Many tiny windows on a heavily oversubscribed pool: far more
/// worker threads than the machine has cores forces constant
/// preemption inside the submit/park/wake protocol. Every window's
/// result must still be exactly input-ordered and complete.
#[test]
fn oversubscribed_pool_survives_many_tiny_windows() {
    let pool = WorkerPool::new(16);
    for round in 0..400_usize {
        let items: Vec<usize> = (0..3).map(|i| round * 10 + i).collect();
        let out = pool
            .try_map_init(&items, || (), |(), i, &v| Ok::<_, ()>(Some((i, v * 2))))
            .expect("tiny window maps cleanly");
        assert_eq!(out.len(), 3, "round {round}");
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot, Some((i, (round * 10 + i) * 2)), "round {round}");
        }
    }
}

/// Alternating window sizes (1-item, large, empty) on one pool: the
/// epoch protocol must not confuse consecutive submissions of very
/// different shapes.
#[test]
fn mixed_window_sizes_share_one_pool() {
    let pool = WorkerPool::new(8);
    for round in 0..100_usize {
        let n = match round % 3 {
            0 => 1,
            1 => 257,
            _ => 0,
        };
        let items: Vec<usize> = (0..n).collect();
        let out = pool
            .try_map_init(&items, || (), |(), i, &v| Ok::<_, ()>(Some(i + v)))
            .expect("window maps cleanly");
        assert_eq!(out.len(), n);
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot, Some(2 * i));
        }
    }
}

/// A panicking closure must surface its original message on the
/// submitting thread — not hang the submitter waiting for a worker
/// that unwound, and not abort the process.
#[test]
fn pool_surfaces_worker_panic_message() {
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..64).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = pool.try_map_init(
            &items,
            || (),
            |(), i, _| {
                assert!(i != 13, "unlucky candidate 13");
                Ok::<_, ()>(Some(i))
            },
        );
    }));
    let payload = result.expect_err("the panic propagates to the submitter");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is a message");
    assert!(
        message.contains("unlucky candidate 13"),
        "original message surfaces, got: {message}"
    );
}

/// After a panicking job the pool is still usable: the workers are
/// parked again (not dead, not deadlocked) and the next submission
/// completes with correct results.
#[test]
fn pool_usable_after_panic() {
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..64).collect();
    for round in 0..3 {
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.try_map_init(
                &items,
                || (),
                |(), i, _| {
                    assert!(i < 20, "round {round} boom at {i}");
                    Ok::<_, ()>(Some(i))
                },
            );
        }));
        assert!(panicked.is_err(), "round {round} panicked");
        let ok = pool
            .try_map_init(&items, || (), |(), i, &v| Ok::<_, usize>(Some(i + v)))
            .expect("pool recovered");
        assert_eq!(ok.len(), 64, "round {round}");
        assert_eq!(ok[63], Some(126), "round {round}");
    }
}

/// Seed-parallelism regression: pool results are in **input** order,
/// never completion order. Items are delayed in reverse proportion to
/// their index (late items finish first), so a completion-ordered
/// implementation would reverse the vector.
#[test]
fn pool_order_is_input_order_under_delays() {
    let pool = WorkerPool::new(8);
    let inits = AtomicUsize::new(0);
    let items: Vec<usize> = (0..24).collect();
    let out = pool
        .try_map_init(
            &items,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, &v| {
                std::thread::sleep(Duration::from_millis((24 - i) as u64));
                Ok::<_, ()>(Some((i, v)))
            },
        )
        .expect("delayed map completes");
    for (i, slot) in out.iter().enumerate() {
        assert_eq!(*slot, Some((i, i)), "slot {i} holds item {i}");
    }
    assert!(inits.load(Ordering::Relaxed) >= 1);
}
