//! Torture tests for the blocking `retry`/`or_else` tier: lost-wakeup
//! hunting across all six algorithms, the adaptive mode switch with
//! consumers parked, the register-vs-commit interleaving window, the
//! `or_else` rollback semantics, and one differential table that drives
//! every script through both drivers, `run` and `try_once`.
//!
//! Every blocking scenario runs under a watchdog: a lost wakeup
//! manifests as a hang (the 250 ms safety-net timeout would eventually
//! rescue it, but a *systematic* loss would rescue-loop forever), so the
//! watchdog converts "hung" into "failed" instead of stalling CI.

use progressive_tm::stm::{
    AdaptiveConfig, Algorithm, ContentionManager, Decision, RetriesExhausted, Retry, StatsSnapshot,
    Stm, TVar, Transaction,
};
use progressive_tm::structs::TQueue;
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
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

// --- one lifecycle, two drivers -------------------------------------------

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

/// Overwrites the counter without reading it: a conflict park can then
/// only be woken through its write stripes.
fn blind_write(_: &Stm, v: &TVar<u64>, tx: &mut Transaction<'_>) -> Result<u64, Retry> {
    tx.write(v, 8)?;
    Ok(8)
}

/// A policy that answers every conflict with [`Decision::Park`].
#[derive(Debug)]
struct AlwaysPark;

impl ContentionManager for AlwaysPark {
    fn decide(&self, _attempt: u64) -> Decision {
        Decision::Park
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    Run,
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
        Driver::TryOnce => stm.try_once(|tx| script(stm, v, tx)).ok_or(None),
    }
}

/// What ends a parked attempt's wait, once the attempt is on the waiter
/// lists.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Release {
    /// Nothing: the script never sleeps.
    Nobody,
    /// Another thread commits 9 to the counter.
    Writer,
    /// A writer that prepared 9 before the attempt began, and so holds
    /// the counter's stripe through every attempt's commit, publishes.
    Blocker,
}

/// One row of the differential table: an instance, a script, and what
/// every driver must make of them.
struct Case {
    name: &'static str,
    build: fn(Algorithm) -> Stm,
    script: Script,
    release: Release,
    /// Algorithms the row cannot run on. Nested overlapping commits need
    /// invisible reads: a Tlrw outer read lock would exclude the nested
    /// writer instead of losing to it. A prepared NOrec blocker holds the
    /// one sequence lock, which the attempt spins on instead of aborting.
    skip: &'static [Algorithm],
    /// `Ok(value)`, or `Err(attempts)` when the budget runs out.
    expect: Result<u64, u64>,
    /// Whether a single non-waiting step reaches the same end.
    try_once: bool,
    /// `(commits, aborts, parks)` on the instance afterwards, nested,
    /// writer and blocker commits included.
    stats: (u64, u64, u64),
}

/// Runs one row on one algorithm through one driver and returns the
/// instance's counters afterwards.
fn run_case(case: &Case, algo: Algorithm, driver: Driver, ctx: &str) -> StatsSnapshot {
    let stm = Arc::new((case.build)(algo));
    let v = Arc::new(TVar::new(0u64));
    let (stm2, v2, ctx2) = (Arc::clone(&stm), Arc::clone(&v), ctx.to_owned());
    let (script, release, expect) = (case.script, case.release, case.expect);
    watchdog(Duration::from_secs(60), move || {
        let blocker = (release == Release::Blocker).then(|| {
            let mut tx = stm2.transaction();
            tx.write(&v2, 9u64).expect("buffer write");
            let prepared = tx.prepare_commit().expect("uncontended prepare");
            (tx, prepared)
        });
        // A fresh thread per run: a wake that beat its park leaves an
        // unpark token behind, which must not cut the next run's park
        // short.
        thread::scope(|s| {
            let runner = s.spawn(|| drive(driver, &stm2, &v2, script));
            if release != Release::Nobody {
                // The park is counted once the attempt is on the waiter
                // lists, so this commit wakes it.
                while stm2.stats().snapshot().parks == 0 {
                    thread::yield_now();
                }
                match blocker {
                    Some((tx, prepared)) => tx.commit_prepared(prepared),
                    None => stm2.atomically(|tx| tx.write(&v2, 9)),
                }
            }
            let got = runner.join().expect("runner");
            match driver {
                Driver::TryOnce => assert_eq!(got.ok(), expect.ok(), "{ctx2}"),
                Driver::Run => assert_eq!(
                    got,
                    expect.map_err(|attempts| Some(RetriesExhausted { attempts })),
                    "{ctx2}"
                ),
            }
        });
    });
    if let Ok(value) = case.expect {
        assert_eq!(v.load(), value, "{ctx}: the committed write is the last");
    }
    stm.stats().snapshot()
}

#[test]
fn run_async_conflict_park_registers_instead_of_self_waking() {
    // A policy-chosen park must register the conflict footprint and
    // sleep until an overlapping commit wakes it, not spin on the
    // conflict. The blocking driver is the only one left, so the check
    // runs through `run`; the name is kept from the async driver's days.
    let stm = Arc::new(
        Stm::builder(Algorithm::Tl2)
            .contention_manager(AlwaysPark)
            .build(),
    );
    let w = Arc::new(TVar::new(0u64));
    let (stm2, w2) = (Arc::clone(&stm), Arc::clone(&w));
    watchdog(Duration::from_secs(60), move || {
        // A prepared (locked, unpublished) writer on `w`'s stripe makes
        // the attempt's commit fail deterministically while its (empty)
        // read set stays valid: the exact shape that must park, not spin.
        let mut blocker = stm2.transaction();
        blocker.write(&w2, 7u64).expect("buffer write");
        let prepared = blocker.prepare_commit().expect("uncontended prepare");

        thread::scope(|s| {
            let runner = s.spawn(|| {
                stm2.run(|tx| {
                    tx.write(&w2, 8u64)?;
                    Ok(())
                })
            });
            while stm2.stats().snapshot().parks == 0 {
                thread::yield_now();
            }
            // The blocker still holds the stripe, so no attempt can have
            // committed, however often the 1 ms safety net fired.
            assert!(!runner.is_finished(), "a parked attempt cannot commit");
            assert_eq!(w2.load(), 0, "nothing published yet");

            // Publishing the blocker overlaps the parked footprint (the
            // write stripe registers too) and wakes the runner.
            blocker.commit_prepared(prepared);
            runner.join().expect("runner").expect("commits once woken");
        });
    });
    assert_eq!(w.load(), 8, "the parked write landed on top");
    let snap = stm.stats().snapshot();
    assert!(snap.parks >= 1, "conflict park must register: {snap}");
    assert!(
        snap.wakes >= 1,
        "the blocker's publish wakes the park: {snap}"
    );
    assert_eq!(snap.commits, 2, "blocker and runner, nothing else: {snap}");
}

/// The name is kept from when a third driver, `run_async`, shared the
/// table; `run` and `try_once` are the drivers left.
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
            release: Release::Nobody,
            skip: &[],
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
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Err(3),
            try_once: false,
            stats: (3, 3, 0),
        },
        Case {
            name: "one conflict against a budget of one",
            build: one_attempt,
            script: always_conflicts,
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Err(1),
            try_once: true,
            stats: (1, 1, 0),
        },
        Case {
            name: "retry() released by a writer, budget of one",
            build: one_attempt,
            script: wait_for_value,
            release: Release::Writer,
            skip: &[],
            expect: Ok(9),
            try_once: false,
            stats: (2, 1, 1),
        },
        Case {
            name: "retry() already satisfied at registration, budget of one",
            build: one_attempt,
            script: wait_already_satisfied,
            release: Release::Nobody,
            skip: &[Algorithm::Tlrw],
            expect: Ok(9),
            try_once: false,
            stats: (2, 1, 0),
        },
        Case {
            name: "conflict parked by the policy, released by the blocker's publish",
            build: |algo| Stm::builder(algo).contention_manager(AlwaysPark).build(),
            script: blind_write,
            release: Release::Blocker,
            skip: &[Algorithm::Norec],
            expect: Ok(8),
            try_once: false,
            stats: (2, 1, 1),
        },
    ];

    for case in &cases {
        for algo in all_algorithms() {
            if case.skip.contains(&algo) {
                continue;
            }
            for driver in [Driver::Run, Driver::TryOnce] {
                if driver == Driver::TryOnce && !case.try_once {
                    continue;
                }
                let ctx = format!("{} / {algo:?} / {driver:?}", case.name);
                let mut snap = run_case(case, algo, driver, &ctx);
                // A conflict park sleeps at most 1 ms: a releaser
                // descheduled for longer lets that safety net expire,
                // and the attempt conflicts and parks again. Such a run
                // exercised the net, not the wake, so the blocker row
                // repeats it. A retry() park's net is 250 ms and must
                // never fire here.
                let mut runs = 1;
                while case.release == Release::Blocker && snap.spurious_wakes > 0 {
                    assert!(runs < 20, "{ctx}: the 1 ms net expired in 20 runs: {snap}");
                    snap = run_case(case, algo, driver, &ctx);
                    runs += 1;
                }
                assert_eq!(
                    (snap.commits, snap.aborts, snap.parks),
                    case.stats,
                    "{ctx}: (commits, aborts, parks) in {snap}"
                );
                assert_eq!(
                    (snap.wakes, snap.spurious_wakes),
                    (snap.parks, 0),
                    "{ctx}: every park must end by a commit's wake: {snap}"
                );
            }
        }
    }
}
