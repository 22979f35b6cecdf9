//! The retry schedule under Tlrw's reader–writer conflicts.
//!
//! Visible reads create a conflict shape the invisible-read algorithms
//! never see: a *writer* aborted by mere readers. These tests pin down
//! how the engine's one retry schedule behaves in that regime — a writer
//! facing readers must eventually commit, and under an attempt budget it
//! must be *bounded* (exhaustion reported, no livelock) — and that the
//! engine releases every read lock before the schedule's wait runs, so
//! backing off never blocks other transactions.

use progressive_tm::stm::{Algorithm, RetriesExhausted, Stm, TVar};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Holds a Tlrw read lock on `v`'s stripe from a second thread until
/// `release` is flipped, running `body` in between.
fn with_held_read_lock<T>(
    stm: &Arc<Stm>,
    v: &TVar<u64>,
    body: impl FnOnce(&Arc<AtomicBool>) -> T,
) -> T {
    let held = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let stm2 = Arc::clone(stm);
        let v2 = v.clone();
        let (held2, release2) = (Arc::clone(&held), Arc::clone(&release));
        s.spawn(move || {
            stm2.atomically(|tx| {
                let x = tx.read(&v2)?;
                held2.store(true, Ordering::SeqCst);
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(x)
            });
        });
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        body(&release)
    })
}

#[test]
fn writer_facing_a_persistent_reader_is_bounded_under_immediate_retry() {
    // The deterministic no-livelock assertion: a reader camps on the
    // stripe for the whole test, so the writer would retry forever — the
    // attempt budget must stop it at *exactly* its bound, with every
    // attempt accounted as a reader conflict. Every wait between them
    // was a spin or a yield: a conflict never parks.
    let stm = Arc::new(Stm::builder(Algorithm::Tlrw).max_attempts(64).build());
    let v = TVar::new(0u64);
    with_held_read_lock(&stm, &v, |release| {
        let out = stm.run(|tx| tx.write(&v, 1));
        assert_eq!(out, Err(RetriesExhausted { attempts: 64 }));
        let s = stm.stats().snapshot();
        assert_eq!(s.aborts, 64, "every attempt aborted");
        assert_eq!(s.reader_conflicts, 64, "every abort was a reader conflict");
        release.store(true, Ordering::SeqCst);
    });
    assert_eq!(v.load(), 0, "the exhausted writer must leave no trace");
    // With the stripe free again the same write commits first try.
    let before = stm.stats().snapshot();
    stm.atomically(|tx| tx.write(&v, 1));
    assert_eq!(stm.stats().snapshot().since(&before).aborts, 0);
    assert_eq!(v.load(), 1);
}

#[test]
fn writer_facing_a_persistent_reader_commits_under_backoff_once_readers_drain() {
    // The schedule keeps retrying (only the budget gives up), so the
    // writer must survive an arbitrarily long reader occupation and
    // commit as soon as the stripe drains.
    let stm = Arc::new(Stm::new(Algorithm::Tlrw));
    let v = TVar::new(0u64);
    let writer_done = Arc::new(AtomicBool::new(false));
    with_held_read_lock(&stm, &v, |release| {
        std::thread::scope(|s| {
            let stm2 = Arc::clone(&stm);
            let v2 = v.clone();
            let done = Arc::clone(&writer_done);
            s.spawn(move || {
                stm2.atomically(|tx| tx.write(&v2, 7));
                done.store(true, Ordering::SeqCst);
            });
            // Let the writer bang its head against the held read lock
            // until real conflicts are on the books...
            while stm.stats().snapshot().reader_conflicts < 3 {
                std::thread::yield_now();
            }
            assert!(!writer_done.load(Ordering::SeqCst), "reader still holds");
            // ...then drain the reader; backoff must now let it through.
            release.store(true, Ordering::SeqCst);
        });
    });
    assert!(writer_done.load(Ordering::SeqCst));
    assert_eq!(v.load(), 7);
    assert!(stm.stats().snapshot().reader_conflicts >= 3);
}

#[test]
fn writer_eventually_commits_through_a_stream_of_transient_readers() {
    // Readers come and go (short read-only transactions in a loop);
    // under the default backoff the writer must find a gap and commit —
    // eventual success against live reader traffic, not just against a
    // drained stripe.
    let stm = Arc::new(Stm::new(Algorithm::Tlrw));
    let v = TVar::new(0u64);
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let stm2 = Arc::clone(&stm);
            let v2 = v.clone();
            let (stop2, reads2) = (Arc::clone(&stop), Arc::clone(&reads));
            s.spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    let _ = stm2.atomically(|tx| tx.read(&v2));
                    reads2.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Only start writing once reader traffic is demonstrably live.
        while reads.load(Ordering::Relaxed) < 5 {
            std::thread::yield_now();
        }
        stm.atomically(|tx| tx.write(&v, 42));
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(v.load(), 42);
    assert!(reads.load(Ordering::Relaxed) >= 5, "readers actually ran");
}

#[test]
fn symmetric_upgraders_diverge_under_backoff() {
    // The not-strongly-progressive shape: two read-to-write upgraders on
    // one variable abort each other when truly concurrent. The retry
    // schedule's job is to make them diverge; both increments must
    // eventually land.
    let stm = Arc::new(Stm::new(Algorithm::Tlrw));
    let v = TVar::new(0u64);
    let rounds = 500u64;
    std::thread::scope(|s| {
        for _ in 0..2 {
            let stm2 = Arc::clone(&stm);
            let v2 = v.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    stm2.atomically(|tx| {
                        let x = tx.read(&v2)?;
                        tx.write(&v2, x + 1)
                    });
                }
            });
        }
    });
    assert_eq!(v.load(), 2 * rounds);
}
