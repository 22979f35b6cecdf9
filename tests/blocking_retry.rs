//! Torture tests for the blocking `retry`/`or_else` tier: lost-wakeup
//! hunting across all six algorithms, the adaptive mode switch with
//! consumers parked, the register-vs-commit interleaving window, the
//! `or_else` rollback semantics, and the async bridge.
//!
//! Every blocking scenario runs under a watchdog: a lost wakeup
//! manifests as a hang (the 250 ms safety-net timeout would eventually
//! rescue it, but a *systematic* loss would rescue-loop forever), so the
//! watchdog converts "hung" into "failed" instead of stalling CI.

use progressive_tm::stm::{
    AdaptiveConfig, Algorithm, RetriesExhausted, Retry, Stm, TVar, Transaction,
};
use progressive_tm::structs::TQueue;
use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};

/// Poison pill that tells a consumer to stop.
const STOP: u64 = u64::MAX;

/// Runs `scenario` on a detached thread and fails the test if it does
/// not finish within `timeout`. Detached on purpose: `thread::scope`
/// would join (= hang with) a stuck thread, while a leaked thread lets
/// the test report the hang. State must therefore be `'static` (`Arc`).
fn watchdog(timeout: Duration, scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let t = thread::Builder::new()
        .name("scenario".into())
        .spawn(move || {
            scenario();
            let _ = done_tx.send(());
        })
        .expect("spawn scenario");
    match done_rx.recv_timeout(timeout) {
        Ok(()) => {
            let _ = t.join();
        }
        Err(_) => panic!("scenario exceeded its {timeout:?} watchdog — lost wakeup?"),
    }
}

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Tl2,
        Algorithm::Incremental,
        Algorithm::Norec,
        Algorithm::Tlrw,
        Algorithm::Mv,
        Algorithm::Adaptive,
    ]
}

/// N producers, M blocking consumers, every item observed exactly once.
fn producer_consumer_torture(stm: Arc<Stm>, producers: u64, consumers: u64, per_producer: u64) {
    let q: TQueue<u64> = TQueue::new();
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    thread::scope(|s| {
        for c in 0..consumers {
            let (stm, q, seen) = (Arc::clone(&stm), q.clone(), Arc::clone(&seen));
            s.spawn(move || loop {
                let v = stm.atomically(|tx| q.dequeue_wait(tx));
                if v == STOP {
                    break;
                }
                assert!(
                    seen.lock().expect("seen").insert(v),
                    "consumer {c} saw {v} twice"
                );
            });
        }
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let (stm, q) = (Arc::clone(&stm), q.clone());
                s.spawn(move || {
                    for i in 0..per_producer {
                        stm.atomically(|tx| q.enqueue(tx, p * per_producer + i));
                        if i % 16 == 0 {
                            // Let consumers drain so parking actually
                            // happens (an always-full queue never parks).
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        for _ in 0..consumers {
            stm.atomically(|tx| q.enqueue(tx, STOP));
        }
    });
    let seen = seen.lock().expect("seen");
    assert_eq!(
        seen.len() as u64,
        producers * per_producer,
        "every produced item must be consumed exactly once"
    );
}

#[test]
fn no_lost_wakeups_under_any_algorithm() {
    for algo in all_algorithms() {
        watchdog(Duration::from_secs(120), move || {
            producer_consumer_torture(Arc::new(Stm::new(algo)), 3, 3, 300);
        });
    }
}

#[test]
fn parked_consumers_survive_an_adaptive_mode_switch() {
    // Consumers park under the invisible mode; the scan churn below
    // switches the engine to multiversion mode under them, the write
    // churn after it back to invisible. The parked registrations must
    // survive both switches, and the enqueues after each must land.
    watchdog(Duration::from_secs(120), || {
        let stm = Arc::new(
            Stm::builder(Algorithm::Adaptive)
                .adaptive_config(AdaptiveConfig {
                    window_commits: 16,
                    hysteresis_windows: 1,
                    mv_scan_reads: 8.0,
                })
                .build(),
        );
        let q: TQueue<u64> = TQueue::new();
        let got: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        thread::scope(|s| {
            for _ in 0..2 {
                let (stm, q, got) = (Arc::clone(&stm), q.clone(), Arc::clone(&got));
                s.spawn(move || loop {
                    let v = stm.atomically(|tx| q.dequeue_wait(tx));
                    if v == STOP {
                        break;
                    }
                    got.lock().expect("got").push(v);
                });
            }
            let cells: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
            let park_then_churn = |scans: bool| {
                // Give the consumers time to park on the empty queue.
                thread::sleep(Duration::from_millis(50));
                // Churn on unrelated vars while the consumers stay
                // parked: 8-read scans drive the controller to
                // multiversion mode, 8-write updates back to invisible.
                for round in 0..64u64 {
                    stm.atomically(|tx| {
                        for c in &cells {
                            if scans {
                                tx.read(c)?;
                            } else {
                                tx.modify(c, |x| x + round)?;
                            }
                        }
                        Ok(())
                    });
                }
            };
            park_then_churn(true);
            assert_eq!(stm.active_mode(), Algorithm::Mv, "scans switched it");
            // The switched-to mode's enqueues must wake them.
            for v in 0..16u64 {
                stm.atomically(|tx| q.enqueue(tx, v));
            }
            park_then_churn(false);
            assert_eq!(stm.active_mode(), Algorithm::Tl2, "writes switched it back");
            for v in 16..32u64 {
                stm.atomically(|tx| q.enqueue(tx, v));
            }
            for _ in 0..2 {
                stm.atomically(|tx| q.enqueue(tx, STOP));
            }
        });
        let snap = stm.stats().snapshot();
        assert!(
            snap.mode_transitions >= 2,
            "churn was meant to force a round trip (got {snap})"
        );
        let mut got = Arc::try_unwrap(got)
            .expect("threads joined")
            .into_inner()
            .expect("got");
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    });
}

#[test]
fn register_vs_commit_interleaving_never_strands_the_waiter() {
    // Hammer the narrow window between waiter registration and the
    // park: a producer that commits right as the consumer registers
    // must either be seen by the pre-park revalidation or deliver a
    // wake. Each round is one park/enqueue handshake; a stranded waiter
    // would eat its full 250 ms safety-net timeout, and 500 of those
    // would blow the watchdog (and the elapsed bound) wide open.
    watchdog(Duration::from_secs(120), || {
        let rounds = 500u64;
        let stm = Arc::new(Stm::tl2());
        let q: TQueue<u64> = TQueue::new();
        let start = Instant::now();
        thread::scope(|s| {
            let consumer = {
                let (stm, q) = (Arc::clone(&stm), q.clone());
                s.spawn(move || {
                    for expect in 0..rounds {
                        assert_eq!(stm.atomically(|tx| q.dequeue_wait(tx)), expect);
                    }
                })
            };
            let (stm, q) = (Arc::clone(&stm), q.clone());
            s.spawn(move || {
                for v in 0..rounds {
                    // No pacing: racing the consumer's register window is
                    // the point.
                    stm.atomically(|tx| q.enqueue(tx, v));
                    while !stm.atomically(|tx| q.is_empty(tx)) {
                        thread::yield_now();
                    }
                }
            });
            consumer.join().expect("consumer");
        });
        let elapsed = start.elapsed();
        let snap = stm.stats().snapshot();
        // Generous bound: even a handful of timed-out parks fit, but a
        // systematic lost wakeup (500 × 250 ms ≈ 125 s) cannot.
        assert!(
            elapsed < Duration::from_secs(30),
            "rounds took {elapsed:?} — waiters are being stranded ({snap})"
        );
    });
}

#[test]
fn parked_consumers_burn_no_cpu_while_idle() {
    // The whole point of the tier: a consumer blocked on an empty queue
    // must sit in `park`, not in a retry loop. Over an idle window, the
    // instance-wide commit/abort/probe deltas must stay flat (a polling
    // consumer racks up thousands of aborted attempts in 200 ms).
    watchdog(Duration::from_secs(60), || {
        let stm = Arc::new(Stm::tl2());
        let q: TQueue<u64> = TQueue::new();
        thread::scope(|s| {
            let (stm2, q2) = (Arc::clone(&stm), q.clone());
            s.spawn(move || {
                assert_eq!(stm2.atomically(|tx| q2.dequeue_wait(tx)), 1);
            });
            thread::sleep(Duration::from_millis(50)); // let it park
            let before = stm.stats().snapshot();
            thread::sleep(Duration::from_millis(200)); // idle window
            let idle = stm.stats().snapshot().since(&before);
            stm.atomically(|tx| q.enqueue(tx, 1));
            assert_eq!(idle.commits, 0, "idle window: {idle}");
            assert!(
                idle.aborts <= 2 && idle.validation_probes <= 16,
                "a parked consumer must be idle, not polling: {idle}"
            );
        });
        assert!(stm.stats().snapshot().parks >= 1);
    });
}

// --- or_else semantics ---------------------------------------------------

#[test]
fn or_else_prefers_the_first_ready_branch() {
    let stm = Stm::tl2();
    let a = TVar::new(Some(1u64));
    let b = TVar::new(Some(2u64));
    let pick = |v: &TVar<Option<u64>>| {
        let v = v.clone();
        move |tx: &mut progressive_tm::stm::Transaction<'_>| match tx.read(&v)? {
            Some(x) => Ok(x),
            None => tx.retry(),
        }
    };
    assert_eq!(stm.atomically(|tx| tx.or_else(pick(&a), pick(&b))), 1);
    stm.atomically(|tx| tx.write(&a, None));
    assert_eq!(stm.atomically(|tx| tx.or_else(pick(&a), pick(&b))), 2);
}

#[test]
fn or_else_rolls_back_the_first_branchs_writes() {
    let stm = Stm::tl2();
    let gate = TVar::new(false);
    let scratch = TVar::new(0u64);
    let out = stm.atomically(|tx| {
        tx.or_else(
            |tx| {
                // Writes something, then decides to wait: the write must
                // not leak into the fallback's world (or the commit).
                tx.write(&scratch, 99)?;
                if tx.read(&gate)? {
                    Ok(1u64)
                } else {
                    tx.retry()
                }
            },
            |tx| tx.read(&scratch),
        )
    });
    assert_eq!(out, 0, "fallback must see the pre-branch value");
    assert_eq!(stm.atomically(|tx| tx.read(&scratch)), 0);
}

#[test]
fn or_else_double_retry_wakes_on_either_footprint() {
    // Both branches wait; the attempt parks on the union, so a write to
    // *either* side must wake it.
    for flip_first in [true, false] {
        watchdog(Duration::from_secs(60), move || {
            let stm = Arc::new(Stm::tl2());
            let a = Arc::new(TVar::new(None::<u64>));
            let b = Arc::new(TVar::new(None::<u64>));
            thread::scope(|s| {
                let (stm2, a2, b2) = (Arc::clone(&stm), Arc::clone(&a), Arc::clone(&b));
                s.spawn(move || {
                    let got = stm2.atomically(|tx| {
                        tx.or_else(
                            |tx| match tx.read(&a2)? {
                                Some(v) => Ok(v),
                                None => tx.retry(),
                            },
                            |tx| match tx.read(&b2)? {
                                Some(v) => Ok(v),
                                None => tx.retry(),
                            },
                        )
                    });
                    assert_eq!(got, 5);
                });
                thread::sleep(Duration::from_millis(50)); // let it park
                let target = if flip_first { &a } else { &b };
                stm.atomically(|tx| tx.write(target, Some(5)));
            });
        });
    }
}

#[test]
fn or_else_refuses_a_poisoned_attempt() {
    // Only a *logical* retry falls through to the fallback. An attempt
    // that is already poisoned (here: a swallowed retry outside the
    // combinator stands in for any doomed attempt) must get Err from
    // or_else without either branch running — running a fallback on a
    // dead attempt would do work the commit can never honor.
    let stm = Stm::tl2();
    let fallback_ran = std::cell::Cell::new(false);
    let out = stm.try_once(|tx| {
        let _: Result<u64, Retry> = tx.retry(); // swallowed: poisons the attempt
        tx.or_else(
            |_tx| -> Result<u64, Retry> { panic!("first branch must not run") },
            |_tx| {
                fallback_ran.set(true);
                Ok(0)
            },
        )
    });
    assert_eq!(out, None, "a poisoned attempt cannot commit");
    assert!(!fallback_ran.get(), "fallback must not run either");
}

// --- async bridge --------------------------------------------------------

/// Minimal single-future executor: parks the test thread between polls.
fn block_on<F: Future>(mut fut: Pin<&mut F>) -> F::Output {
    struct Unpark(thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(Unpark(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => thread::park(),
        }
    }
}

#[test]
fn run_async_commits_without_waiting_when_ready() {
    let stm = Stm::tl2();
    let v = TVar::new(41u64);
    let fut = stm.run_async(|tx| {
        let x = tx.read(&v)?;
        tx.write(&v, x + 1)?;
        Ok(x + 1)
    });
    assert_eq!(block_on(std::pin::pin!(fut)), Ok(42));
    assert_eq!(v.load(), 42);
}

#[test]
fn run_async_suspends_on_retry_and_resumes_on_commit() {
    watchdog(Duration::from_secs(60), || {
        let stm = Arc::new(Stm::tl2());
        let inbox = Arc::new(TVar::new(None::<u64>));
        thread::scope(|s| {
            let (stm2, inbox2) = (Arc::clone(&stm), Arc::clone(&inbox));
            s.spawn(move || {
                let fut = stm2.run_async(|tx| match tx.read(&inbox2)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                });
                assert_eq!(block_on(std::pin::pin!(fut)), Ok(9));
            });
            thread::sleep(Duration::from_millis(50)); // let it suspend
            stm.atomically(|tx| tx.write(&inbox, Some(9)));
        });
        let snap = stm.stats().snapshot();
        assert!(snap.parks >= 1, "the future should have registered: {snap}");
    });
}

/// A waker that only counts, for polling futures by hand.
struct CountingWaker(std::sync::atomic::AtomicUsize);

impl CountingWaker {
    fn new() -> Arc<Self> {
        Arc::new(CountingWaker(std::sync::atomic::AtomicUsize::new(0)))
    }

    fn count(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn run_async_poll_bounds_inline_work() {
    // Regression for the executor-blocking abort path: `poll` used to
    // run the contention manager's blocking `on_abort` (up to a 2^12
    // busy-spin plus `yield_now` per abort) and, under Decision::Retry,
    // loop attempts inline without ever yielding — one poll could burn
    // the entire retry budget on the executor thread. The fixed loop
    // consults the non-blocking `decide` tier and reschedules itself
    // after a small inline attempt budget, counting each reschedule.
    use progressive_tm::stm::ImmediateRetry;

    let stm = Stm::builder(Algorithm::Tl2)
        .max_attempts(40)
        .contention_manager(ImmediateRetry)
        .build();
    let v = TVar::new(0u64);
    let body_runs = std::cell::Cell::new(0u32);
    // Deterministic conflict: every attempt reads `v`, then commits an
    // overlapping write through a nested one-shot transaction, so the
    // outer attempt's validation always fails.
    let fut = stm.run_async(|tx| {
        body_runs.set(body_runs.get() + 1);
        let x = tx.read(&v)?;
        stm.try_once(|t2| t2.modify(&v, |y| y + 1))
            .expect("nested bump commits");
        tx.write(&v, x)?;
        Ok(())
    });
    let mut fut = std::pin::pin!(fut);
    let counter = CountingWaker::new();
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);

    let mut polls = 0u32;
    let mut max_runs_per_poll = 0u32;
    let out = loop {
        let before = body_runs.get();
        let wakes_before = counter.count();
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => break out,
            Poll::Pending => {
                polls += 1;
                max_runs_per_poll = max_runs_per_poll.max(body_runs.get() - before);
                assert_eq!(
                    counter.count(),
                    wakes_before + 1,
                    "a yielding poll reschedules itself exactly once"
                );
                assert!(polls < 1_000, "future never resolved");
            }
        }
    };
    assert!(out.is_err(), "every attempt conflicts: budget must exhaust");
    assert!(
        max_runs_per_poll <= 4,
        "one poll ran {max_runs_per_poll} attempts inline; the per-poll budget must bound it"
    );
    assert!(
        polls >= 8,
        "40 attempts cannot fit in {polls} bounded polls"
    );
    let snap = stm.stats().snapshot();
    assert_eq!(
        snap.async_yields,
        u64::from(polls),
        "every yield is counted: {snap}"
    );
}

#[test]
fn run_async_conflict_park_registers_instead_of_self_waking() {
    // Regression for the unthrottled Decision::Park degradation: the
    // old path answered a conflict park with `wake_by_ref` + `Pending`,
    // re-polling at executor speed (a pegged core) for as long as the
    // conflict lasted, and never registered on the waiter lists. The
    // fixed path registers the conflict footprint and suspends for
    // real: no wake until an overlapping commit (or the timer
    // watchdog) delivers one.
    #[derive(Debug)]
    struct AlwaysPark;
    impl progressive_tm::stm::ContentionManager for AlwaysPark {
        fn decide(&self, _attempt: u64) -> progressive_tm::stm::Decision {
            progressive_tm::stm::Decision::Park
        }
    }

    let stm = Stm::builder(Algorithm::Tl2)
        .contention_manager(AlwaysPark)
        .build();
    let w = TVar::new(0u64);

    // A prepared (locked, unpublished) writer on `w`'s stripe makes the
    // future's commit fail deterministically while its (empty) read set
    // stays valid — the exact shape that must park, not spin.
    let mut blocker = stm.transaction();
    blocker.write(&w, 7u64).expect("buffer write");
    let prepared = blocker.prepare_commit().expect("uncontended prepare");

    let fut = stm.run_async(|tx| {
        tx.write(&w, 8u64)?;
        Ok(())
    });
    let mut fut = std::pin::pin!(fut);
    let counter = CountingWaker::new();
    let waker = Waker::from(Arc::clone(&counter));
    let mut cx = Context::from_waker(&waker);

    assert!(fut.as_mut().poll(&mut cx).is_pending());
    // The old code had already fired the waker here (and `parks` stayed
    // 0, since nothing registered). Note the 1 ms watchdog *can* fire
    // once enough wall time passes — which is why the no-self-wake
    // check runs immediately after the poll.
    assert_eq!(counter.count(), 0, "a parked poll must not wake itself");
    let snap = stm.stats().snapshot();
    assert!(snap.parks >= 1, "conflict park must register: {snap}");
    assert_eq!(snap.async_yields, 0, "parked, not degraded: {snap}");

    // Publishing the blocker overlaps the parked footprint (the write
    // stripe registers too); its wake sweep delivers synchronously.
    blocker.commit_prepared(prepared);
    assert_eq!(counter.count(), 1, "overlapping commit wakes the future");
    assert!(fut.as_mut().poll(&mut cx).is_ready(), "woken and unblocked");
    assert_eq!(w.load(), 8, "the future's write landed on top");
}

#[test]
fn run_async_is_cancel_safe() {
    // Poll once (registers a waiter), then drop the future: the
    // registration must come off the lists, and later commits must not
    // touch freed state.
    let stm = Stm::tl2();
    let inbox = TVar::new(None::<u64>);
    {
        let fut = stm.run_async(|tx| match tx.read(&inbox)? {
            Some(v) => Ok(v),
            None => tx.retry(),
        });
        let mut fut = std::pin::pin!(fut);
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        assert!(fut.as_mut().poll(&mut cx).is_pending());
    } // dropped while registered
    for i in 0..100 {
        stm.atomically(|tx| tx.write(&inbox, Some(i)));
    }
    assert_eq!(inbox.load(), Some(99));
}

// --- one lifecycle, three drivers -----------------------------------------

/// A scripted transaction body over one shared counter.
type Script = fn(&Stm, &TVar<u64>, &mut Transaction<'_>) -> Result<u64, Retry>;

/// Commits first try.
fn bump(_: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    let x = tx.read(v)?;
    tx.write(v, x + 1)?;
    Ok(x + 1)
}

/// Conflicts on every attempt: a nested one-shot transaction commits an
/// overlapping write between the outer read and the outer commit.
fn always_conflicts(stm: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    let x = tx.read(v)?;
    stm.try_once(|t| t.modify(v, |y| y + 1))
        .expect("nested bump commits");
    tx.write(v, x)?;
    Ok(x)
}

/// Waits (logically) until someone else fills the counter.
fn wait_for_value(_: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    match tx.read(v)? {
        0 => tx.retry(),
        x => Ok(x),
    }
}

/// Waits on a value its own nested transaction has just supplied: the
/// wake-up happened before the park, which the revalidation must notice.
fn wait_already_satisfied(
    stm: &Stm,
    v: &TVar<u64>,
    tx: &mut Transaction<'_>,
) -> Result<u64, Retry> {
    match tx.read(v)? {
        0 => {
            stm.try_once(|t| t.write(v, 9))
                .expect("nested fill commits");
            tx.retry()
        }
        x => Ok(x),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    Run,
    RunAsync,
    TryOnce,
}

/// Runs `script` to its end through one driver. `Err(None)` is
/// `try_once` declining to retry.
fn drive(
    driver: Driver,
    stm: &Stm,
    v: &TVar<u64>,
    script: Script,
) -> Result<u64, Option<RetriesExhausted>> {
    match driver {
        Driver::Run => stm.run(|tx| script(stm, v, tx)).map_err(Some),
        Driver::RunAsync => {
            block_on(std::pin::pin!(stm.run_async(|tx| script(stm, v, tx)))).map_err(Some)
        }
        Driver::TryOnce => stm.try_once(|tx| script(stm, v, tx)).ok_or(None),
    }
}

/// One row of the differential table: an instance, a script, and what
/// every driver must make of them.
struct Case {
    name: &'static str,
    build: fn(Algorithm) -> Stm,
    script: Script,
    /// Whether the script needs another thread to fill the counter once
    /// the attempt has parked.
    released_by_writer: bool,
    /// Nested overlapping commits need invisible reads: a Tlrw outer read
    /// lock would exclude the nested writer instead of losing to it.
    tlrw: bool,
    /// `Ok(value)`, or `Err(attempts)` when the budget runs out.
    expect: Result<u64, u64>,
    /// Whether a single non-waiting step reaches the same end.
    try_once: bool,
    /// `(commits, aborts, parks)` on the instance afterwards, nested and
    /// writer commits included.
    stats: (u64, u64, u64),
}

#[test]
fn run_run_async_and_try_once_agree_on_every_script() {
    use progressive_tm::stm::ImmediateRetry;

    // A budget of one attempt: the first conflict exhausts it, so a
    // script that still commits after waiting proves the wait spent none.
    let one_attempt = |algo| Stm::builder(algo).max_attempts(1).build();
    let cases = [
        Case {
            name: "first-try commit",
            build: Stm::new,
            script: bump,
            released_by_writer: false,
            tlrw: true,
            expect: Ok(1),
            try_once: true,
            stats: (1, 0, 0),
        },
        Case {
            name: "always conflicting, max_attempts(3) under ImmediateRetry",
            build: |algo| {
                Stm::builder(algo)
                    .max_attempts(3)
                    .contention_manager(ImmediateRetry)
                    .build()
            },
            script: always_conflicts,
            released_by_writer: false,
            tlrw: false,
            expect: Err(3),
            try_once: false,
            stats: (3, 3, 0),
        },
        Case {
            name: "one conflict against a budget of one",
            build: one_attempt,
            script: always_conflicts,
            released_by_writer: false,
            tlrw: false,
            expect: Err(1),
            try_once: true,
            stats: (1, 1, 0),
        },
        Case {
            name: "retry() released by a writer, budget of one",
            build: one_attempt,
            script: wait_for_value,
            released_by_writer: true,
            tlrw: true,
            expect: Ok(9),
            try_once: false,
            stats: (2, 1, 1),
        },
        Case {
            name: "retry() already satisfied at registration, budget of one",
            build: one_attempt,
            script: wait_already_satisfied,
            released_by_writer: false,
            tlrw: false,
            expect: Ok(9),
            try_once: false,
            stats: (2, 1, 0),
        },
    ];

    for case in cases {
        for algo in all_algorithms() {
            if algo == Algorithm::Tlrw && !case.tlrw {
                continue;
            }
            for driver in [Driver::Run, Driver::RunAsync, Driver::TryOnce] {
                if driver == Driver::TryOnce && !case.try_once {
                    continue;
                }
                let ctx = format!("{} / {algo:?} / {driver:?}", case.name);
                let stm = Arc::new((case.build)(algo));
                let v = Arc::new(TVar::new(0u64));
                let (stm2, v2, ctx2) = (Arc::clone(&stm), Arc::clone(&v), ctx.clone());
                watchdog(Duration::from_secs(60), move || {
                    // A fresh thread per run: a wake that beat its park
                    // leaves an unpark token behind, which must not
                    // re-poll the next run's future early.
                    thread::scope(|s| {
                        let runner = s.spawn(|| drive(driver, &stm2, &v2, case.script));
                        if case.released_by_writer {
                            // The park is counted once the attempt is on
                            // the waiter lists, so this write wakes it.
                            while stm2.stats().snapshot().parks == 0 {
                                thread::yield_now();
                            }
                            stm2.atomically(|tx| tx.write(&v2, 9));
                        }
                        let got = runner.join().expect("runner");
                        match driver {
                            Driver::TryOnce => assert_eq!(got.ok(), case.expect.ok(), "{ctx2}"),
                            _ => assert_eq!(
                                got,
                                case.expect
                                    .map_err(|attempts| Some(RetriesExhausted { attempts })),
                                "{ctx2}"
                            ),
                        }
                    });
                });
                let snap = stm.stats().snapshot();
                assert_eq!(
                    (snap.commits, snap.aborts, snap.parks),
                    case.stats,
                    "{ctx}: (commits, aborts, parks) in {snap}"
                );
            }
        }
    }
}
