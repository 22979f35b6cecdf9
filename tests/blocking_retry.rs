//! Torture tests for the blocking `retry`/`or_else` tier: lost-wakeup
//! hunting across all six algorithms, the adaptive mode switch with
//! consumers parked, the register-vs-commit interleaving window, first
//! parks racing to register on fresh instances, conflicts that never
//! park however long they lose, the `or_else` rollback semantics, and
//! one table of scripts that `run` must end as each row says.
//!
//! Every blocking scenario runs under a watchdog: a lost wakeup
//! manifests as a hang (the 250 ms safety-net timeout would eventually
//! rescue it, but a *systematic* loss would rescue-loop forever), so the
//! watchdog converts "hung" into "failed" instead of stalling CI.

use progressive_tm::stm::{
    AdaptiveConfig, Algorithm, RetriesExhausted, Retry, StatsSnapshot, Stm, TVar, Transaction,
};
use progressive_tm::structs::TQueue;
use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
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
        // The scenario panicked before it could report: its sender is
        // gone, so hand its own panic on, not a hang.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = t.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("scenario exceeded its {timeout:?} watchdog — lost wakeup?")
        }
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
fn first_parks_race_to_register_on_fresh_instances() {
    // On a fresh instance the waiters' first parks race each other to
    // register (their keys' stripes may share a footprint bit, and all
    // of them update the one list and its union word) and the writer's wake sweeps
    // race them to find the registrations. Every round takes a fresh
    // instance (each algorithm in turn); the writer starts a little later
    // each round, from before any waiter has read to after all have
    // parked. A registration a sweep missed leaves its waiter to sleep
    // out the 250 ms safety net, a `spurious_wake`. Under Tlrw a waiter
    // holds its read lock while it registers, so the writer aborts
    // against it and backs off: a conflict never parks.
    const WAITERS: usize = 3;
    const ROUNDS: u64 = 60;
    watchdog(Duration::from_secs(120), || {
        let mut parks = 0;
        for round in 0..ROUNDS {
            let algo = Algorithm::ALL[round as usize % Algorithm::ALL.len()];
            let stm = Arc::new(Stm::new(algo));
            let keys: Arc<Vec<TVar<u64>>> = Arc::new((0..WAITERS).map(|_| TVar::new(0)).collect());
            let start = Arc::new(Barrier::new(WAITERS + 1));
            let waiters: Vec<_> = (0..WAITERS)
                .map(|i| {
                    let (stm, keys, start) =
                        (Arc::clone(&stm), Arc::clone(&keys), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        let t0 = Instant::now();
                        let got = stm.atomically(|tx| match tx.read(&keys[i])? {
                            0 => tx.retry(),
                            x => Ok(x),
                        });
                        (got, t0.elapsed())
                    })
                })
                .collect();
            start.wait();
            let stagger = Instant::now() + Duration::from_micros(round % 10 * 25);
            while Instant::now() < stagger {
                std::hint::spin_loop();
            }
            for (i, key) in keys.iter().enumerate() {
                stm.atomically(|tx| tx.write(key, i as u64 + 1));
            }
            for (i, waiter) in waiters.into_iter().enumerate() {
                let (got, waited) = waiter.join().expect("waiter");
                assert_eq!(got, i as u64 + 1);
                assert!(
                    waited < Duration::from_millis(125),
                    "round {round} ({algo:?}): waiter {i} returned after {waited:?}"
                );
            }
            let snap = stm.stats().snapshot();
            assert_eq!(snap.spurious_wakes, 0, "round {round} ({algo:?}): {snap}");
            parks += snap.parks;
        }
        assert!(
            parks > 0,
            "no waiter parked in {ROUNDS} rounds: nothing raced"
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
    // Driven by hand: `run` would park the waiting attempt.
    let stm = Stm::tl2();
    let fallback_ran = std::cell::Cell::new(false);
    let mut tx = stm.transaction();
    let _: Result<u64, Retry> = tx.retry(); // swallowed: poisons the attempt
    let out = tx.or_else(
        |_tx| -> Result<u64, Retry> { panic!("first branch must not run") },
        |_tx| {
            fallback_ran.set(true);
            Ok(0)
        },
    );
    assert_eq!(out, Err(Retry), "a poisoned attempt gets no fallback");
    assert!(!fallback_ran.get(), "fallback must not run either");
    assert_eq!(
        Transaction::commit_all(vec![tx], |_| {}),
        Err(Retry),
        "a poisoned attempt cannot commit"
    );
}

// --- one lifecycle, one driver --------------------------------------------

/// A scripted transaction body over one shared counter.
type Script = fn(&Stm, &TVar<u64>, &mut Transaction<'_>) -> Result<u64, Retry>;

/// Commits first try.
fn bump(_: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    let x = tx.read(v)?;
    tx.write(v, x + 1)?;
    Ok(x + 1)
}

/// Conflicts on every attempt: a nested transaction commits an
/// overlapping write between the outer read and the outer commit.
fn always_conflicts(stm: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    let x = tx.read(v)?;
    stm.atomically(|t| t.modify(v, |y| y + 1));
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
            stm.atomically(|t| t.write(v, 9));
            tx.retry()
        }
        x => Ok(x),
    }
}

/// Overwrites the counter without reading it: it can lose only in its
/// lock half, never in a read.
fn blind_write(_: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    tx.write(v, 8)?;
    Ok(8)
}

/// Conflicts a runner loses to a held lock before the test releases
/// it: well past the 66th, where the retry schedule once parked.
const LOSSES: u64 = 100;

/// What lets the script finish once it is stuck: a logical wait on the
/// waiter list, or a conflict that keeps losing to a held lock.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Release {
    /// Nothing: the script never sleeps.
    Nobody,
    /// Another thread commits 9 to the counter, once the attempt parks.
    Writer,
    /// A writer that locked and validated 9 before the attempt began,
    /// and so holds the counter's stripe through every attempt's commit,
    /// publishes once the attempt has lost [`LOSSES`] times.
    Blocker,
}

/// One row of the table: an instance, a script, and what `run` must
/// make of them.
struct Case {
    name: &'static str,
    build: fn(Algorithm) -> Stm,
    script: Script,
    release: Release,
    /// Algorithms the row cannot run on. Nested overlapping commits need
    /// invisible reads: a Tlrw outer read lock would exclude the nested
    /// writer instead of losing to it. A held NOrec blocker holds the
    /// one sequence lock, which the attempt spins on instead of aborting.
    skip: &'static [Algorithm],
    /// `Ok(value)`, or `Err(attempts)` when the budget runs out.
    expect: Result<u64, u64>,
    /// `(commits, aborts, parks)` on the instance afterwards, nested,
    /// writer and blocker commits included.
    stats: (u64, RangeInclusive<u64>, u64),
}

/// Commits a write of `value` to `v` on its own scoped thread and holds
/// it open between validation and publish — `v`'s stripe locked,
/// nothing published — in the stage step of [`Transaction::commit_all`].
/// Returns once the lock is held; the commit publishes when the
/// returned sender fires, and the thread then yields the instance's
/// counters read just before and just after its publish.
fn hold_write<'scope>(
    s: &'scope thread::Scope<'scope, '_>,
    stm: &'scope Stm,
    v: &'scope TVar<u64>,
    value: u64,
) -> (
    mpsc::Sender<()>,
    thread::ScopedJoinHandle<'scope, [StatsSnapshot; 2]>,
) {
    let (held_tx, held_rx) = mpsc::channel();
    let (publish_tx, publish_rx) = mpsc::channel();
    let blocker = s.spawn(move || {
        let mut tx = stm.transaction();
        tx.write(v, value).expect("buffer write");
        let mut before = None;
        Transaction::commit_all(vec![tx], |_| {
            held_tx.send(()).expect("the test waits for the hold");
            publish_rx.recv().expect("the test releases the hold");
            before = Some(stm.stats().snapshot());
        })
        .expect("uncontended commit");
        [before.expect("stage ran"), stm.stats().snapshot()]
    });
    held_rx.recv().expect("the blocker holds its lock");
    (publish_tx, blocker)
}

/// Runs one row on one algorithm and returns the instance's counters
/// afterwards.
fn run_case(case: &Case, algo: Algorithm, ctx: &str) -> StatsSnapshot {
    let stm = Arc::new((case.build)(algo));
    let v = Arc::new(TVar::new(0u64));
    let (stm2, v2, ctx2) = (Arc::clone(&stm), Arc::clone(&v), ctx.to_owned());
    let (script, release, expect) = (case.script, case.release, case.expect);
    watchdog(Duration::from_secs(60), move || {
        // A fresh thread per run: a wake that beat its park leaves an
        // unpark token behind, which must not cut the next run's park
        // short.
        thread::scope(|s| {
            let blocker = (release == Release::Blocker).then(|| hold_write(s, &stm2, &v2, 9));
            let runner = s.spawn(|| stm2.run(|tx| script(&stm2, &v2, tx)));
            match blocker {
                Some((publish, _)) => {
                    // A park here would be a conflict's: stop waiting and
                    // let the row's counts fail.
                    wait_until(&stm2, |snap| snap.aborts >= LOSSES || snap.parks > 0);
                    publish.send(()).expect("the blocker holds");
                }
                None if release == Release::Writer => {
                    // The park is counted once the attempt is on the
                    // waiter list, so this commit wakes it.
                    wait_until(&stm2, |snap| snap.parks > 0);
                    stm2.atomically(|tx| tx.write(&v2, 9));
                }
                None => {}
            }
            let got = runner.join().expect("runner");
            assert_eq!(
                got,
                expect.map_err(|attempts| RetriesExhausted { attempts }),
                "{ctx2}"
            );
        });
    });
    if let Ok(value) = case.expect {
        assert_eq!(v.load(), value, "{ctx}: the committed write is the last");
    }
    stm.stats().snapshot()
}

/// Yields until the instance's counters satisfy `done`.
fn wait_until(stm: &Stm, done: impl Fn(&StatsSnapshot) -> bool) {
    while !done(&stm.stats().snapshot()) {
        thread::yield_now();
    }
}

/// What a losing runner does to the held variable.
#[derive(Debug, Clone, Copy)]
enum Loser {
    /// Reads it: loses in the read hook.
    Reader,
    /// Overwrites it without reading: loses in the lock half.
    Writer,
}

#[test]
fn a_conflict_never_parks_however_long_it_loses() {
    // A runner that keeps losing to a held stripe lock spends the spin
    // tier and then yields, attempt after attempt, and never parks: a
    // conflict waits on no transaction. Once the holder publishes, the
    // next attempt finishes on top of it. Readers lose in the read hook
    // (Tl2 and Incremental on a locked versioned word, Tlrw on a writer
    // flag); an Mv reader reads its snapshot past a lock, so under Mv
    // the runner loses its lock half instead.
    let cases = [
        (Algorithm::Tl2, Loser::Reader),
        (Algorithm::Incremental, Loser::Reader),
        (Algorithm::Tlrw, Loser::Reader),
        (Algorithm::Mv, Loser::Writer),
    ];
    watchdog(Duration::from_secs(60), move || {
        for (algo, loser) in cases {
            let stm = Stm::new(algo);
            let v = TVar::new(0u64);
            // A fresh thread per run, as in `run_case`. The blocker
            // publishes before any assertion, so a failing one cannot
            // leave the runner stuck behind the lock.
            let (stuck, finished_early, got) = thread::scope(|s| {
                let (publish, blocker) = hold_write(s, &stm, &v, 7);
                let runner = s.spawn(|| {
                    stm.run(|tx| match loser {
                        Loser::Reader => tx.read(&v),
                        Loser::Writer => tx.write(&v, 8).map(|()| 8),
                    })
                });
                wait_until(&stm, |snap| snap.aborts >= LOSSES || snap.parks > 0);
                let stuck = stm.stats().snapshot();
                let finished_early = runner.is_finished();
                publish.send(()).expect("the blocker holds");
                blocker.join().expect("blocker");
                (stuck, finished_early, runner.join().expect("runner"))
            });
            assert_eq!(stuck.parks, 0, "{algo:?}: a conflict parked: {stuck}");
            assert!(
                !finished_early,
                "{algo:?}: the runner finished past a held lock"
            );
            let got = got.expect("finishes once the lock goes");
            let want = match loser {
                Loser::Reader => 7,
                Loser::Writer => 8,
            };
            assert_eq!(got, want, "{algo:?}: the runner ran after the publish");
            let snap = stm.stats().snapshot();
            assert_eq!(
                (snap.parks, snap.spurious_wakes),
                (0, 0),
                "{algo:?}: {snap}"
            );
        }
    });
}

#[test]
fn run_ends_every_script_as_its_row_says() {
    // A budget of one attempt: the first conflict exhausts it, so a
    // script that still commits after waiting proves the wait spent none.
    let one_attempt = |algo| Stm::builder(algo).max_attempts(1).build();
    let cases = [
        Case {
            name: "first-try commit",
            build: Stm::new,
            script: bump,
            release: Release::Nobody,
            skip: &[],
            expect: Ok(1),
            stats: (1, 0..=0, 0),
        },
        Case {
            name: "always conflicting, max_attempts(3)",
            build: |algo| Stm::builder(algo).max_attempts(3).build(),
            script: always_conflicts,
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Err(3),
            stats: (3, 3..=3, 0),
        },
        Case {
            name: "one conflict against a budget of one",
            build: one_attempt,
            script: always_conflicts,
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Err(1),
            stats: (1, 1..=1, 0),
        },
        Case {
            name: "retry() released by a writer, budget of one",
            build: one_attempt,
            script: wait_for_value,
            release: Release::Writer,
            skip: &[],
            expect: Ok(9),
            stats: (2, 1..=1, 1),
        },
        Case {
            name: "retry() already satisfied at registration, budget of one",
            build: one_attempt,
            script: wait_already_satisfied,
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Ok(9),
            stats: (2, 1..=1, 0),
        },
        Case {
            // Past the 66th conflict, where the schedule once parked, it
            // still yields.
            name: "conflict outlasting every tier, released by the blocker's publish",
            build: Stm::new,
            script: blind_write,
            release: Release::Blocker,
            skip: &[Algorithm::Norec],
            expect: Ok(8),
            stats: (2, LOSSES..=u64::MAX, 0),
        },
    ];

    for case in &cases {
        for algo in all_algorithms() {
            if case.skip.contains(&algo) {
                continue;
            }
            let ctx = format!("{} / {algo:?}", case.name);
            let snap = run_case(case, algo, &ctx);
            let (commits, aborts, parks) = &case.stats;
            assert!(
                snap.commits == *commits && aborts.contains(&snap.aborts) && snap.parks == *parks,
                "{ctx}: (commits, aborts, parks) {:?} in {snap}",
                case.stats
            );
            assert_eq!(
                (snap.wakes, snap.spurious_wakes),
                (snap.parks, 0),
                "{ctx}: every park must end by a commit's wake: {snap}"
            );
        }
    }
}
