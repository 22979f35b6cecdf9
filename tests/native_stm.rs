//! Algorithm-generic conformance suite for the native STM.
//!
//! Every invariant in `mod conformance` runs against **all six**
//! algorithms through the `conformance_suite!` macro — one module (and
//! one set of `#[test]`s) per algorithm, so a new variant inherits the
//! whole suite by adding a single macro line (exactly how `Adaptive`,
//! the fifth, and `Mv`, the sixth, arrived). Properties that are
//! *specific* to one algorithm's cost model (NOrec's zero-abort equal
//! write-back, Incremental's quadratic probes, Tlrw's zero-validation
//! visible reads, Mv's abort-free snapshot scans and version-chain GC,
//! Adaptive's mid-workload mode switch) live below the macro, asserted
//! against exactly the algorithm that guarantees them.

use progressive_tm::model::{is_opaque, History};
use progressive_tm::sim::LogEntry;
use progressive_tm::stm::{
    AdaptiveConfig, Algorithm, HistoryRecorder, RetriesExhausted, Retry, Stm, TVar, Transaction,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Deterministic per-thread transfer stream shared by the bank runs, so
/// the final balances are a pure function of the transfer set.
fn bank_run(algo: Algorithm) -> Vec<u64> {
    const ACCOUNTS: usize = 16;
    const THREADS: usize = 6;
    const PER_THREAD: usize = 400;
    const INITIAL: u64 = 1_000_000;

    let stm = Arc::new(Stm::new(algo));
    let accounts: Vec<TVar<u64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = Arc::clone(&stm);
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut seed = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..PER_THREAD {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    let amt = 1 + (seed >> 50) % 7;
                    if from == to {
                        continue;
                    }
                    stm.atomically(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], a - amt)?;
                        tx.write(&accounts[to], b + amt)
                    });
                }
            });
        }
    });
    let balances: Vec<u64> = accounts.iter().map(TVar::load).collect();
    assert_eq!(
        balances.iter().sum::<u64>(),
        ACCOUNTS as u64 * INITIAL,
        "{algo:?}: conservation violated"
    );
    balances
}

/// The conformance invariants, each parameterized by algorithm.
mod conformance {
    use super::*;

    /// Linearizable counter: N threads of read-modify-write increments
    /// land exactly, and every successful `atomically` is one commit.
    pub fn torture_counter(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        let v = TVar::new(0u64);
        let threads = 4;
        let per = 800;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        stm.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        assert_eq!(v.load(), threads * per, "{algo:?}");
        assert_eq!(stm.stats().snapshot().commits, threads * per, "{algo:?}");
    }

    /// x + y + z is preserved by concurrent three-way rotations.
    pub fn multi_variable_invariant(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        let vars = [TVar::new(300u64), TVar::new(200u64), TVar::new(100u64)];
        std::thread::scope(|s| {
            for t in 0..6 {
                let stm = Arc::clone(&stm);
                let vars = vars.clone();
                s.spawn(move || {
                    for i in 0..400 {
                        let from = (t + i) % 3;
                        let to = (t + i + 1) % 3;
                        stm.atomically(|tx| {
                            let a = tx.read(&vars[from])?;
                            let b = tx.read(&vars[to])?;
                            let amt = a.min(3);
                            tx.write(&vars[from], a - amt)?;
                            tx.write(&vars[to], b + amt)
                        });
                    }
                });
            }
        });
        let total: u64 = vars.iter().map(TVar::load).sum();
        assert_eq!(total, 600, "{algo:?}");
    }

    /// Deterministic bank stress: conservation under contention.
    pub fn bank_stress(algo: Algorithm) {
        let _ = bank_run(algo);
    }

    /// Value-level ABA: one thread blindly re-commits the value a
    /// variable already holds while readers transact over it. Whatever
    /// the algorithm does about the interference (NOrec absorbs it,
    /// the versioned algorithms retry, Tlrw arbitrates through the
    /// stripe lock), readers must only ever observe the unchanged value
    /// and their own counter must land exactly.
    pub fn aba_equal_write_back(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        let v = TVar::new(7u64);
        let w = TVar::new(0u64);
        let rounds = 300u64;
        std::thread::scope(|s| {
            let stm1 = Arc::clone(&stm);
            let v1 = v.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    // Equal write-back: v already holds 7.
                    stm1.atomically(|tx| tx.write(&v1, 7));
                }
            });
            let stm2 = Arc::clone(&stm);
            let (v2, w2) = (v.clone(), w.clone());
            s.spawn(move || {
                for _ in 0..rounds {
                    let seen = stm2.atomically(|tx| {
                        let x = tx.read(&v2)?;
                        tx.modify(&w2, |c| c + 1)?;
                        Ok(x)
                    });
                    assert_eq!(seen, 7, "{algo:?}: equal write-back changed the value");
                }
            });
        });
        assert_eq!(v.load(), 7, "{algo:?}");
        assert_eq!(w.load(), rounds, "{algo:?}");
    }

    /// Retry-budget exhaustion is reported as a value, with the exact
    /// attempt count, and the failed attempts left no trace.
    pub fn exhaustion_reported(algo: Algorithm) {
        let stm = Stm::builder(algo).max_attempts(3).build();
        let v = TVar::new(5u64);
        let out = stm.run(|tx| {
            tx.read(&v)?;
            tx.write(&v, 99)?;
            Err::<(), Retry>(Retry)
        });
        assert_eq!(out, Err(RetriesExhausted { attempts: 3 }), "{algo:?}");
        assert_eq!(stm.stats().snapshot().aborts, 3, "{algo:?}");
        assert_eq!(v.load(), 5, "{algo:?}: aborted writes leaked");
    }

    /// Atomicity under contention: writers keep two variables equal;
    /// a racing reader must never observe a torn pair.
    pub fn no_torn_writes(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = Arc::clone(&stm);
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..400 {
                        stm.atomically(|tx| {
                            let x = tx.read(&a)?;
                            tx.write(&a, x + 1)?;
                            tx.write(&b, x + 1)?;
                            Ok(())
                        });
                    }
                });
            }
            let stm2 = Arc::clone(&stm);
            let (a2, b2) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..2_000 {
                    let (x, y) = stm2.atomically(|tx| Ok((tx.read(&a2)?, tx.read(&b2)?)));
                    assert_eq!(x, y, "{algo:?}: torn pair");
                }
            });
        });
        assert_eq!(a.load(), b.load());
        assert_eq!(a.load(), 1_600);
    }

    /// Write skew must not be admitted: two transactions each read both
    /// variables and conditionally write one; x + y <= 1 always.
    pub fn no_write_skew(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        for _ in 0..150 {
            let x = TVar::new(0u64);
            let y = TVar::new(0u64);
            std::thread::scope(|s| {
                for (mine, theirs) in [(x.clone(), y.clone()), (y.clone(), x.clone())] {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        stm.atomically(|tx| {
                            let (a, b) = (tx.read(&mine)?, tx.read(&theirs)?);
                            if a + b == 0 {
                                tx.write(&mine, 1)?;
                            }
                            Ok(())
                        });
                    });
                }
            });
            assert!(x.load() + y.load() <= 1, "{algo:?}");
        }
    }

    /// `read_with` applies its closure to the attempt's own buffered
    /// write, exactly as `read` returns it.
    pub fn read_with_sees_own_write(algo: Algorithm) {
        let stm = Stm::new(algo);
        let v = TVar::new(vec![1u64, 2, 3]);
        let (before, after, cloned) = stm.atomically(|tx| {
            let before = tx.read_with(&v, Vec::len)?;
            tx.write(&v, vec![9, 9])?;
            let after = tx.read_with(&v, |x| (x.len(), x[0]))?;
            Ok((before, after, tx.read(&v)?))
        });
        assert_eq!((before, after), (3, (2, 9)), "{algo:?}");
        assert_eq!(cloned, vec![9, 9], "{algo:?}");
        assert_eq!(v.load(), vec![9, 9], "{algo:?}");
    }

    /// Once an attempt is poisoned, `read_with` returns `Retry` without
    /// running its closure.
    pub fn read_with_on_a_poisoned_attempt_skips_the_closure(algo: Algorithm) {
        let stm = Stm::new(algo);
        let v = TVar::new(5u64);
        let mut called = false;
        // Driven by hand: `run` would park the waiting attempt.
        let mut tx = stm.transaction();
        let _ = tx.retry::<()>();
        let out = tx.read_with(&v, |x| {
            called = true;
            *x
        });
        assert_eq!(out, Err(Retry), "{algo:?}");
        assert!(!called, "{algo:?}: closure ran on a poisoned attempt");
        assert_eq!(
            Transaction::commit_all(vec![tx], |_| {}),
            Err(Retry),
            "{algo:?}: poisoned attempt"
        );
    }

    /// `read(v)` and `read_with(v, Clone::clone)` are the same read:
    /// inside one transaction they agree, whatever a concurrent writer
    /// is doing to the variable.
    pub fn read_and_read_with_agree_under_a_writer(algo: Algorithm) {
        let stm = Arc::new(Stm::new(algo));
        let v = TVar::new((0u64, 0u64));
        let rounds = 2_000u64;
        std::thread::scope(|s| {
            let (stm1, v1) = (Arc::clone(&stm), v.clone());
            s.spawn(move || {
                for i in 1..=rounds {
                    stm1.atomically(|tx| tx.write(&v1, (i, 2 * i)));
                }
            });
            let (stm2, v2) = (Arc::clone(&stm), v.clone());
            s.spawn(move || {
                for _ in 0..rounds {
                    let (a, b, sum) = stm2.atomically(|tx| {
                        let a = tx.read(&v2)?;
                        let b = tx.read_with(&v2, Clone::clone)?;
                        Ok((a, b, tx.read_with(&v2, |p| p.0 + p.1)?))
                    });
                    assert_eq!(a, b, "{algo:?}: the two read forms disagree");
                    assert_eq!(a.1, 2 * a.0, "{algo:?}: torn value");
                    assert_eq!(sum, 3 * a.0, "{algo:?}: projection of another value");
                }
            });
        });
        assert_eq!(v.load(), (rounds, 2 * rounds), "{algo:?}");
    }
}

/// Instantiates the whole conformance suite for one algorithm per macro
/// line. A new algorithm inherits every invariant by adding its line.
macro_rules! conformance_suite {
    ($($module:ident => $algo:expr),* $(,)?) => {$(
        mod $module {
            use super::*;

            #[test]
            fn torture_counter() {
                conformance::torture_counter($algo);
            }

            #[test]
            fn multi_variable_invariant() {
                conformance::multi_variable_invariant($algo);
            }

            #[test]
            fn bank_stress() {
                conformance::bank_stress($algo);
            }

            #[test]
            fn aba_equal_write_back() {
                conformance::aba_equal_write_back($algo);
            }

            #[test]
            fn exhaustion_reported() {
                conformance::exhaustion_reported($algo);
            }

            #[test]
            fn no_torn_writes() {
                conformance::no_torn_writes($algo);
            }

            #[test]
            fn no_write_skew() {
                conformance::no_write_skew($algo);
            }

            #[test]
            fn read_with_sees_own_write() {
                conformance::read_with_sees_own_write($algo);
            }

            #[test]
            fn read_with_on_a_poisoned_attempt_skips_the_closure() {
                conformance::read_with_on_a_poisoned_attempt_skips_the_closure($algo);
            }

            #[test]
            fn read_and_read_with_agree_under_a_writer() {
                conformance::read_and_read_with_agree_under_a_writer($algo);
            }
        }
    )*};
}

conformance_suite! {
    tl2 => Algorithm::Tl2,
    incremental => Algorithm::Incremental,
    norec => Algorithm::Norec,
    tlrw => Algorithm::Tlrw,
    mv => Algorithm::Mv,
    adaptive => Algorithm::Adaptive,
}

#[test]
fn bank_final_balances_identical_across_all_algorithms() {
    // Fixed transfer amounts and ample initial balances make the final
    // per-account balance a pure function of the (deterministic) set of
    // transfers, independent of scheduling — so all six algorithms must
    // converge to the *same* balances, not just the same total.
    let baseline = bank_run(Algorithm::Tl2);
    for algo in [
        Algorithm::Incremental,
        Algorithm::Norec,
        Algorithm::Tlrw,
        Algorithm::Mv,
        Algorithm::Adaptive,
    ] {
        assert_eq!(baseline, bank_run(algo), "Tl2 vs {algo:?} balances diverge");
    }
}

#[test]
fn incremental_probe_count_is_exactly_quadratic() {
    // The native echo of Theorem 3(1): m reads cost m(m-1)/2 validation
    // probes in incremental mode.
    for m in [8u64, 32, 64] {
        let stm = Stm::incremental();
        let vars: Vec<TVar<u64>> = (0..m).map(TVar::new).collect();
        let before = stm.stats().snapshot();
        stm.atomically(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            Ok(sum)
        });
        let d = stm.stats().snapshot().since(&before);
        assert_eq!(d.validation_probes, m * (m - 1) / 2, "m={m}");
    }
}

#[test]
fn tlrw_read_only_transactions_never_validate() {
    // The other end of the time–space tradeoff: visible reads are O(1)
    // each and read-only transactions commit with ZERO validation
    // probes, under any read-set size — where Incremental pays m(m-1)/2
    // (see above) and TL2 still re-checks on conflict.
    for m in [8u64, 64, 256] {
        let stm = Stm::tlrw();
        let vars: Vec<TVar<u64>> = (0..m).map(TVar::new).collect();
        let before = stm.stats().snapshot();
        let sum = stm.atomically(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, m * (m - 1) / 2);
        let d = stm.stats().snapshot().since(&before);
        assert_eq!(d.validation_probes, 0, "m={m}: visible reads validated");
        assert_eq!(d.reads, m);
        assert_eq!(d.commits, 1);
    }
}

#[test]
fn mv_read_only_transactions_never_abort_under_a_write_storm() {
    // The multi-version acceptance criterion, and the paper's space-axis
    // payoff: read-only transactions under a sustained write storm
    // commit with ZERO aborts and ZERO validation probes — every scan
    // resolves against the consistent snapshot its start time names.
    // The single-version algorithms cannot do this: under the same storm
    // they pay aborts (Tl2/Tlrw) or validation probes (Incremental,
    // NOrec), which `long_scan` in BENCH_native_stm.json measures.
    const VARS: usize = 64;
    const SCANS: u64 = 200;
    let stm = Arc::new(Stm::mv());
    // Writers keep pairs equal (vars[2k] == vars[2k+1]), so any torn
    // snapshot is detectable by the scan itself.
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut reader_attempts = 0u64;
    let mut reader_commits = 0u64;
    let before = stm.stats().snapshot();
    std::thread::scope(|s| {
        for t in 0..3usize {
            let stm = Arc::clone(&stm);
            let vars = vars.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = t as u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = 2 * ((i as usize + t) % (VARS / 2));
                    i = i.wrapping_add(1);
                    // Blind paired writes: no reads, so writer commits
                    // contribute no validation probes and the probe
                    // counter isolates the read-only side.
                    stm.atomically(|tx| {
                        tx.write(&vars[k], i)?;
                        tx.write(&vars[k + 1], i)
                    });
                }
            });
        }
        for _ in 0..SCANS {
            reader_attempts += 1;
            let pairs_ok = stm.atomically(|tx| {
                let mut ok = true;
                for k in 0..(VARS / 2) {
                    let a = tx.read(&vars[2 * k])?;
                    let b = tx.read(&vars[2 * k + 1])?;
                    ok &= a == b;
                }
                Ok(ok)
            });
            reader_commits += 1;
            assert!(pairs_ok, "snapshot scan observed a torn pair");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let d = stm.stats().snapshot().since(&before);
    assert_eq!(
        reader_attempts, reader_commits,
        "read-only transactions must commit first try — zero aborts"
    );
    assert_eq!(d.validation_probes, 0, "nobody validated anything");
    assert_eq!(d.snapshot_reads, d.reads, "every read was a snapshot read");
    assert!(d.commits >= SCANS, "scans all committed");
}

#[test]
fn mv_version_chains_trim_back_after_writers_and_readers_quiesce() {
    // The space half of the Mv bargain, with live-instance accounting: a
    // pinned old snapshot forces chains to grow; once it resolves, the
    // low-watermark collector trims every chain back to O(1) and the
    // epoch collector frees every superseded box — no leaks, no
    // double-drops under churn.
    struct Counted {
        live: Arc<std::sync::atomic::AtomicI64>,
        tag: u64,
    }
    impl Counted {
        fn new(live: &Arc<std::sync::atomic::AtomicI64>, tag: u64) -> Self {
            live.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Counted {
                live: Arc::clone(live),
                tag,
            }
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            // Every clone the engine makes (read snapshots included)
            // counts, or drops would drive the balance negative.
            Counted::new(&self.live, self.tag)
        }
    }
    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.tag == other.tag
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    const ROUNDS: u64 = 120;
    let live = Arc::new(std::sync::atomic::AtomicI64::new(0));
    let stm = Arc::new(Stm::mv());
    let a = TVar::new(Counted::new(&live, 0));
    let b = TVar::new(Counted::new(&live, 0));
    let hold = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // A reader camps on the initial snapshot, which pins version 0
        // of both chains while the writer below piles versions on.
        let stm2 = Arc::clone(&stm);
        let (a2, b2) = (a.clone(), b.clone());
        let (hold2, release2) = (Arc::clone(&hold), Arc::clone(&release));
        s.spawn(move || {
            stm2.atomically(|tx| {
                let x = tx.read(&a2)?;
                hold2.store(true, std::sync::atomic::Ordering::SeqCst);
                while !release2.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let y = tx.read(&b2)?;
                assert_eq!(x.tag, 0, "snapshot pinned at the initial cut");
                assert_eq!(y.tag, 0, "late read still resolves to the cut");
                Ok(())
            });
        });
        while !hold.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for i in 1..=ROUNDS {
            stm.atomically(|tx| {
                tx.write(&a, Counted::new(&live, i))?;
                tx.write(&b, Counted::new(&live, i))
            });
        }
        // The camped snapshot blocks trimming below it: chains hold the
        // pinned cut and everything after it.
        assert!(
            a.versions_retained() > ROUNDS as usize / 2,
            "chain must have grown under the pinned snapshot, got {}",
            a.versions_retained()
        );
        release.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    // Reader gone: the next commits trim each chain back to O(1).
    for i in 0..4u64 {
        stm.atomically(|tx| {
            tx.write(&a, Counted::new(&live, 1000 + i))?;
            tx.write(&b, Counted::new(&live, 1000 + i))
        });
    }
    assert_eq!(a.versions_retained(), 1);
    assert_eq!(b.versions_retained(), 1);
    let snap = stm.stats().snapshot();
    assert!(
        snap.versions_trimmed >= 2 * ROUNDS,
        "the collector reclaimed the storm's versions, got {}",
        snap.versions_trimmed
    );
    assert!(snap.max_chain_len > ROUNDS / 2, "growth was observed");
    // Detached versions sit in epoch bags until a collection cycle runs;
    // churn an unrelated instance until only the retained chain nodes
    // remain live.
    let retained = (a.versions_retained() + b.versions_retained()) as i64;
    let churn = TVar::new(0u64);
    let churn_stm = Stm::tl2();
    for round in 0..100_000u64 {
        if live.load(std::sync::atomic::Ordering::SeqCst) == retained {
            break;
        }
        churn_stm.atomically(|tx| tx.modify(&churn, |x| x + 1));
        assert!(
            round < 99_999,
            "epoch collector never caught up: live={} retained={}",
            live.load(std::sync::atomic::Ordering::SeqCst),
            retained
        );
    }
    assert_eq!(
        live.load(std::sync::atomic::Ordering::SeqCst),
        retained,
        "exactly the retained chain nodes remain live — no leak, no double-drop"
    );
    drop((a, b));
    assert_eq!(
        live.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "dropping the vars frees the heads"
    );
}

#[test]
fn mv_updating_transactions_still_validate_and_conflict() {
    // Multi-versioning buys abort-freedom for read-only transactions
    // ONLY: an updater whose read set was overwritten must still abort
    // (otherwise write skew would slip through — the conformance suite
    // checks that too, this pins the counter evidence).
    let stm = Stm::mv();
    let v = TVar::new(0u64);
    let before = stm.stats().snapshot();
    let mut interfered = false;
    stm.atomically(|tx| {
        let x = tx.read(&v)?;
        if !interfered {
            interfered = true;
            // A same-instance commit supersedes the snapshot we read.
            stm.atomically(|tx2| tx2.modify(&v, |y| y + 10));
        }
        tx.write(&v, x + 1)
    });
    // First attempt aborted at commit (stale read), retry saw 10.
    assert_eq!(v.load(), 11);
    let d = stm.stats().snapshot().since(&before);
    assert_eq!(d.aborts, 1, "stale updater must retry exactly once");
    assert!(d.validation_probes >= 1, "updaters do validate");
}

#[test]
fn mv_nested_updater_sees_fresh_snapshots_and_cannot_livelock() {
    // Regression: an inner transaction nested in a live outer one used
    // to inherit the outer snapshot on EVERY attempt, so once a stripe
    // it read was stamped past that snapshot, no retry could ever
    // validate — the inner `atomically` spun to retry exhaustion. The
    // slot still publishes the outer (older) snapshot for watermark
    // protection, but each inner attempt draws its rv fresh.
    let stm = Stm::builder(Algorithm::Mv).max_attempts(64).build();
    let gate = TVar::new(0u64);
    let v = TVar::new(0u64);
    stm.atomically(|tx| {
        tx.read(&gate)?; // pins the outer snapshot before any commit
                         // This commit stamps v's stripe past the outer snapshot...
        stm.atomically(|t2| t2.write(&v, 1));
        // ...so this nested updater MUST see it to validate; with the
        // stale inherited snapshot it would exhaust its 64 attempts.
        stm.atomically(|t2| t2.modify(&v, |x| x + 1));
        Ok(())
    });
    assert_eq!(v.load(), 2);
}

#[test]
fn mv_commit_alone_trims_to_one_version() {
    // A committer withdraws its own snapshot before it trims: with no
    // other reader, the superseded version goes at once.
    let stm = Stm::mv();
    let v = TVar::new(0u64);
    for i in 1..=3u64 {
        stm.atomically(|tx| tx.modify(&v, |x| x + i));
        assert_eq!(v.versions_retained(), 1, "after commit {i}");
    }
    assert_eq!(v.load(), 6);
}

#[test]
fn mv_sequential_handoff_reads_the_current_value() {
    // A variable written under one (now finished) Mv instance and read
    // under a fresh one: the fresh clock sits below every retained
    // stamp, and the snapshot walk must agree with `load()` — the
    // current value — not whatever stale version the chain ends on.
    // The chain is built under a reader camped on another thread after
    // the first commit, so the walk has versions to pass and none of
    // them is stamped at the fresh clock.
    let v = TVar::new(0u64);
    {
        let a = Stm::mv();
        a.atomically(|tx| tx.write(&v, 10));
        let (camped, release) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                a.atomically(|tx| {
                    tx.read(&v)?;
                    camped.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Ok(())
                })
            });
            while !camped.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for i in 2..=3u64 {
                a.atomically(|tx| tx.write(&v, i * 10));
            }
            release.store(true, Ordering::SeqCst);
        });
    }
    assert!(v.versions_retained() >= 2, "handoff leaves a real chain");
    let b = Stm::mv();
    let seen = b.atomically(|tx| tx.read(&v));
    assert_eq!(seen, 30, "snapshot read agrees with the current value");
    assert_eq!(v.load(), 30);
}

/// Moves `amount` from `accounts[from]` to `accounts[to]` on `stm`.
fn transfer(stm: &Stm, accounts: &[TVar<u64>], from: usize, to: usize, amount: u64) {
    stm.atomically(|tx| {
        let a = tx.read(&accounts[from])?;
        let b = tx.read(&accounts[to])?;
        tx.write(&accounts[from], a - amount)?;
        tx.write(&accounts[to], b + amount)
    });
}

#[test]
fn one_variable_crosses_single_and_multi_version_instances() {
    // Single-version instances publish bare values, Mv and Adaptive
    // versioned nodes; a variable handed between them carries chains
    // that mix the two. Snapshots at an old and a new `rv` must each
    // read their own version across the mix, a single-version publish
    // must collapse the chain to one value, and an Adaptive instance must
    // switch modes over the same variables without losing a unit.
    let accounts: Vec<TVar<u64>> = (0..4).map(|_| TVar::new(100)).collect();
    let tl2 = Stm::tl2();
    transfer(&tl2, &accounts, 0, 1, 10);
    let before: Vec<u64> = accounts.iter().map(TVar::load).collect();
    assert_eq!(before, [90, 110, 100, 100]);

    // Tl2 → Mv: appends over the bare values, under a camped snapshot.
    let mv = Stm::mv();
    let mut old = mv.transaction();
    assert_eq!(old.read(&accounts[0]).expect("snapshot read"), 90);
    transfer(&mv, &accounts, 1, 2, 5);
    transfer(&mv, &accounts, 2, 3, 7);
    let after: Vec<u64> = accounts.iter().map(TVar::load).collect();
    assert_eq!(after, [90, 105, 98, 107]);
    assert_eq!(
        accounts[2].versions_retained(),
        3,
        "two versions over the bare one"
    );
    let mut new = mv.transaction();
    for (i, var) in accounts.iter().enumerate() {
        assert_eq!(
            old.read(var).expect("old snapshot"),
            before[i],
            "old rv, account {i}"
        );
        assert_eq!(
            new.read(var).expect("new snapshot"),
            after[i],
            "new rv, account {i}"
        );
    }
    for tx in [old, new] {
        Transaction::commit_all(vec![tx], |_| {}).expect("a read-only attempt commits");
    }

    // Mv → Tl2: one swap leaves one bare value per written variable, and
    // a fresh Mv clock, below every stamp the first one drew, reads it.
    transfer(&tl2, &accounts, 3, 0, 7);
    transfer(&tl2, &accounts, 1, 2, 5);
    assert!(accounts.iter().all(|v| v.versions_retained() == 1));
    let current = [97, 100, 103, 100];
    let mv_again = Stm::mv();
    let seen: Vec<u64> = mv_again.atomically(|tx| accounts.iter().map(|v| tx.read(v)).collect());
    assert_eq!(seen, current, "a fresh clock reads the current values");

    // Adaptive over the same variables: scans route it to Mv, transfers
    // back to Tl2; Tl2 then swaps its versioned chains out again.
    let adaptive = Stm::builder(Algorithm::Adaptive)
        .adaptive_config(AdaptiveConfig {
            window_commits: 4,
            hysteresis_windows: 1,
            mv_scan_reads: accounts.len() as f64,
        })
        .build();
    for round in 0..24 {
        let scanned = adaptive.atomically(|tx| {
            let mut sum = 0;
            tx.read_each(&accounts, |v| sum += v)?;
            Ok(sum)
        });
        assert_eq!(scanned, 400, "round {round}: a scan saw a torn total");
    }
    for round in 0..24 {
        transfer(&adaptive, &accounts, round % 4, (round + 1) % 4, 1);
    }
    let snap = adaptive.stats().snapshot();
    assert!(snap.mode_transitions >= 2, "Tl2 → Mv → Tl2, got {snap}");
    assert!(snap.snapshot_reads > 0, "the Mv hooks served reads");
    assert_eq!(adaptive.active_mode(), Algorithm::Tl2);
    for round in 0..4 {
        transfer(&tl2, &accounts, round, (round + 2) % 4, 1);
    }
    assert!(accounts.iter().all(|v| v.versions_retained() == 1));
    // Every account gave as many units as it received.
    let last: Vec<u64> = accounts.iter().map(TVar::load).collect();
    assert_eq!(last, current);
}

#[test]
fn mv_camped_snapshot_commits_first_try_and_its_versions_go_after() {
    // Chains are bounded by liveness alone: a read-only attempt camped
    // across 16 commits to the variable it reads keeps every version
    // since its snapshot alive, reads its snapshot's value and commits
    // in one attempt; once it resolves, the next commit trims the chain
    // back to one version. The recorded run passes the opacity checker.
    let rec = HistoryRecorder::new();
    let stm = Arc::new(
        Stm::builder(Algorithm::Mv)
            .record_history(rec.clone())
            .build(),
    );

    // A camper thread pins the initial snapshot, the main thread commits
    // 16 versions past it (channel-sequenced, so the interleaving is
    // exact), and the camper's second read must still resolve to that
    // snapshot. The commits run on their own thread because the
    // recorder's history parser (correctly) rejects transactions nested
    // on one thread as overlapping.
    let v = TVar::new(0u64);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (go_tx, go_rx) = std::sync::mpsc::channel();
    let (last, attempts, camped_len) = std::thread::scope(|s| {
        let camper = {
            let stm = Arc::clone(&stm);
            let v = v.clone();
            s.spawn(move || {
                let attempts = std::cell::Cell::new(0u64);
                let last = stm.atomically(|tx| {
                    attempts.set(attempts.get() + 1);
                    let seen = tx.read(&v)?;
                    if attempts.get() == 1 {
                        assert_eq!(seen, 0, "the camper pinned the initial snapshot");
                        ready_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                    }
                    tx.read(&v)
                });
                (last, attempts.get())
            })
        };
        ready_rx.recv().unwrap();
        for i in 1..=16u64 {
            stm.atomically(|t2| t2.write(&v, i));
        }
        let camped_len = v.versions_retained();
        go_tx.send(()).unwrap();
        let (last, attempts) = camper.join().unwrap();
        (last, attempts, camped_len)
    });
    assert_eq!(last, 0, "the camped read resolves to its snapshot");
    assert_eq!(attempts, 1, "a read-only attempt never aborts");
    assert!(
        camped_len >= 17,
        "the camped snapshot keeps every later version, got {camped_len}"
    );
    stm.atomically(|t2| t2.write(&v, 17));
    assert_eq!(v.versions_retained(), 1, "no snapshot left to serve");

    let d = stm.stats().snapshot();
    assert_eq!(d.aborts, 0, "nothing aborted");
    assert!(d.max_chain_len >= 17, "growth was observed");

    let h = History::from_log(&rec.drain()).expect("recorded history is well-formed");
    assert!(h.is_complete(), "every attempt is t-complete");
    assert!(is_opaque(&h), "a camped run must stay opaque");
}

/// The deterministic two-phase workload behind the mid-switch tests,
/// over `n` accounts on two threads, `per_phase` transactions per
/// thread and phase: a scan phase (read-only transactions over every
/// account drive Adaptive into multiversion mode) followed by a
/// write-heavy transfer phase (no read-only commit: back to invisible).
/// Transfer amounts are a pure function of the per-thread streams and
/// never balance-capped, so the final balances are schedule-independent
/// — identical across algorithms and across any number of mode switches.
fn phase_shifting_run(stm: &Arc<Stm>, n: usize, per_phase: u64) -> Vec<u64> {
    const THREADS: usize = 2;
    let accounts: Vec<TVar<u64>> = (0..n).map(|_| TVar::new(1_000)).collect();
    // Phase 1: scans (balances unchanged).
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let stm = Arc::clone(stm);
            let accounts = accounts.clone();
            s.spawn(move || {
                for _ in 0..per_phase {
                    let sum = stm.atomically(|tx| {
                        let mut acc = 0u64;
                        for a in &accounts {
                            acc += tx.read(a)?;
                        }
                        Ok(acc)
                    });
                    assert_eq!(sum, n as u64 * 1_000, "scan saw a torn total");
                }
            });
        }
    });
    // Phase 2: write-heavy transfers (2 reads / 2 writes per commit).
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = Arc::clone(stm);
            let accounts = accounts.clone();
            s.spawn(move || {
                for i in 0..per_phase {
                    let from = (t as u64 + i) as usize % n;
                    let to = (t as u64 + 5 * i + 1) as usize % n;
                    if from == to {
                        continue;
                    }
                    let amt = 1 + (t as u64 + i) % 7;
                    stm.atomically(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], a - amt)?;
                        tx.write(&accounts[to], b + amt)
                    });
                }
            });
        }
    });
    accounts.iter().map(TVar::load).collect()
}

/// An adaptive instance that samples every 4 commits, switches on a
/// single window's vote and counts a `scan_reads`-read transaction as a
/// scan — guaranteed to cross Tl2 → Mv → Tl2 inside
/// [`phase_shifting_run`]'s two phases over `scan_reads` accounts.
fn twitchy_adaptive(scan_reads: usize, rec: Option<HistoryRecorder>) -> Arc<Stm> {
    let mut b = Stm::builder(Algorithm::Adaptive).adaptive_config(AdaptiveConfig {
        window_commits: 4,
        hysteresis_windows: 1,
        mv_scan_reads: scan_reads as f64,
    });
    if let Some(rec) = rec {
        b = b.record_history(rec);
    }
    Arc::new(b.build())
}

#[test]
fn adaptive_mode_switch_mid_workload_preserves_balances() {
    // The same deterministic phase workload under a static algorithm and
    // under an adaptive instance that demonstrably switched modes must
    // land on identical final balances.
    let baseline = phase_shifting_run(&Arc::new(Stm::tl2()), 4, 12);
    let stm = twitchy_adaptive(4, None);
    let balances = phase_shifting_run(&stm, 4, 12);
    assert_eq!(baseline, balances, "mode switches changed the outcome");
    let snap = stm.stats().snapshot();
    assert!(
        snap.mode_transitions >= 2,
        "the workload must force a round trip, got {}",
        snap.mode_transitions
    );
    assert_eq!(
        stm.active_mode(),
        Algorithm::Tl2,
        "the write-heavy tail must land the engine back in invisible mode"
    );
}

#[test]
fn adaptive_mode_switch_mid_workload_records_an_opaque_history() {
    // Record the phase-shifting run through real mode switches: the
    // history must stay well-formed and pass the opacity checker, though
    // attempts begun on the old hooks run on past a switch beside
    // attempts on the new ones — every commit publishes the same way, so
    // both kinds serialize by timestamp.
    let rec = HistoryRecorder::new();
    let stm = twitchy_adaptive(4, Some(rec.clone()));
    let balances = phase_shifting_run(&stm, 4, 12);
    assert_eq!(balances.iter().sum::<u64>(), 4_000);
    let snap = stm.stats().snapshot();
    assert!(
        snap.mode_transitions >= 2,
        "a switch happened mid-recording"
    );
    let h = History::from_log(&rec.drain()).expect("recorded history is well-formed");
    assert!(h.is_complete(), "every attempt is t-complete");
    assert!(
        is_opaque(&h),
        "history recorded across a mode switch must be opaque"
    );
}

#[test]
fn adaptive_double_transition_through_multiversion_stays_opaque() {
    // Tl2 -> Mv -> Tl2 in one longer run: the scans over sixteen accounts
    // route the engine into multiversion mode, the transfers route it
    // back to invisible mode, and both transitions — which wait for
    // nothing and leave the orec table as it is — must preserve balances
    // and record an opaque history.
    let baseline = phase_shifting_run(&Arc::new(Stm::tl2()), 16, 24);
    let rec = HistoryRecorder::new();
    let stm = twitchy_adaptive(16, Some(rec.clone()));
    let balances = phase_shifting_run(&stm, 16, 24);
    assert_eq!(baseline, balances, "mode switches changed the outcome");
    let snap = stm.stats().snapshot();
    assert!(
        snap.mode_transitions >= 2,
        "the workload must cross two modes, got {}",
        snap.mode_transitions
    );
    assert!(
        snap.snapshot_reads > 0,
        "multiversion mode must have served reads along the way"
    );
    assert_eq!(
        stm.active_mode(),
        Algorithm::Tl2,
        "the write-heavy tail must land the engine back in invisible mode"
    );
    assert_opaque_or_dump(&rec.drain(), "Tl2 -> Mv -> Tl2");
}

/// Asserts that a drained recorder log is a well-formed, complete and
/// opaque history. On failure the message leaves the log on disk, one
/// entry per line, so the schedule can be replayed through the checker
/// instead of ending as a bare `false`.
fn assert_opaque_or_dump(log: &[LogEntry], what: &str) {
    let h = History::from_log(log).expect("recorded history is well-formed");
    assert!(h.is_complete(), "every attempt is t-complete");
    assert!(
        is_opaque(&h),
        "history recorded across {what} must be opaque; drained log: {}",
        {
            let path = format!(
                "{}/opacity-failure-{}.log",
                env!("CARGO_TARGET_TMPDIR"),
                std::process::id()
            );
            let lines: Vec<String> = log.iter().map(|entry| format!("{entry:?}")).collect();
            match std::fs::write(&path, lines.join("\n")) {
                Ok(()) => path,
                Err(e) => format!("(could not write {path}: {e})"),
            }
        }
    );
}

#[test]
fn adaptive_scan_straddling_a_switch_stays_opaque() {
    // The interleaving a quiescing switch would forbid: a scan opens on
    // the Mv hooks, the instance switches to Tl2 under it, and transfers
    // commit on the Tl2 hooks before the scan reads the rest and
    // commits. The scan must still read its start-time snapshot — the
    // balance sum intact, no abort — and the recorded history must be
    // opaque.
    const N: usize = 8;
    let rec = HistoryRecorder::new();
    let stm = Stm::builder(Algorithm::Adaptive)
        .adaptive_config(AdaptiveConfig {
            window_commits: 1,
            hysteresis_windows: 1,
            mv_scan_reads: N as f64,
        })
        .record_history(rec.clone())
        .build();
    let accounts: Vec<TVar<u64>> = (0..N).map(|_| TVar::new(100)).collect();
    let total = |tx: &mut Transaction<'_>, part: &[TVar<u64>]| {
        part.iter().try_fold(0u64, |acc, a| Ok(acc + tx.read(a)?))
    };
    // A full scan votes multiversion.
    assert_eq!(stm.atomically(|tx| total(tx, &accounts)), N as u64 * 100);
    assert_eq!(stm.active_mode(), Algorithm::Mv);
    std::thread::scope(|s| {
        // Both channels live in this closure, so a failed assertion below
        // drops `resume` and the paused scan fails instead of hanging.
        let (opened, scan_opened) = mpsc::channel();
        let (resume, scan_resumes) = mpsc::channel::<()>();
        let scan = s.spawn(|| {
            let mut pause = Some((opened, scan_resumes));
            stm.atomically(|tx| {
                let head = total(tx, &accounts[..N / 2])?;
                if let Some((opened, resumes)) = pause.take() {
                    opened.send(()).expect("main thread waits for the scan");
                    resumes.recv().expect("main thread resumes the scan");
                }
                Ok(head + total(tx, &accounts[N / 2..])?)
            })
        });
        scan_opened.recv().expect("the scan opens");
        // Each transfer moves value from the scanned half into the
        // unscanned one; the first one's commit votes invisible.
        for i in 0..N / 2 {
            stm.atomically(|tx| {
                let (from, to) = (&accounts[i], &accounts[N / 2 + i]);
                let (a, b) = (tx.read(from)?, tx.read(to)?);
                tx.write(from, a - 10)?;
                tx.write(to, b + 10)
            });
            assert_eq!(stm.active_mode(), Algorithm::Tl2);
        }
        resume.send(()).expect("the scan waits to resume");
        assert_eq!(
            scan.join().expect("the scan thread"),
            N as u64 * 100,
            "the scan saw its start-time snapshot"
        );
    });
    let snap = stm.stats().snapshot();
    assert_eq!(snap.aborts, 0, "the straddling scan never aborted");
    assert_eq!(snap.mode_transitions, 3, "Tl2 -> Mv -> Tl2 -> Mv");
    assert!(snap.snapshot_reads >= N as u64, "the scan ran the Mv hooks");
    assert_opaque_or_dump(&rec.drain(), "a scan straddling a switch");
}

#[test]
fn norec_value_validation_survives_equal_write_back() {
    // ABA at the value level, asserted at NOrec's strength: a concurrent
    // commit bumps NOrec's sequence clock but writes back the *same*
    // value. Value-based validation must accept this (a version-based
    // check would abort), so the outer transaction commits on its first
    // and only attempt. The algorithm-generic counterpart (correct
    // results under equal write-back, any retry count) runs in the
    // conformance suite above.
    let stm = Stm::norec();
    let v = TVar::new(7u64);
    let w = TVar::new(0u64);
    let mut interfered = false;
    let (a, b) = stm.atomically(|tx| {
        let a = tx.read(&v)?;
        if !interfered {
            interfered = true;
            // Same-Stm commit from inside the body: bumps the sequence
            // lock, writes v := 7 (an equal value).
            stm.atomically(|tx2| tx2.write(&v, 7));
        }
        // The clock moved, so this read triggers full revalidation; the
        // snapshot of `v` still matches by value.
        let b = tx.read(&w)?;
        Ok((a, b))
    });
    assert_eq!((a, b), (7, 0));
    let stats = stm.stats().snapshot();
    // Two commits (inner + outer), zero aborts: the equal write-back was
    // absorbed, not retried.
    assert_eq!(stats.commits, 2);
    assert_eq!(
        stats.aborts, 0,
        "value validation must tolerate equal write-back"
    );

    // Contrast: an *unequal* write-back must abort the reader exactly once.
    let stm = Stm::norec();
    let v = TVar::new(7u64);
    let w = TVar::new(0u64);
    let mut interfered = false;
    stm.atomically(|tx| {
        let _ = tx.read(&v)?;
        if !interfered {
            interfered = true;
            stm.atomically(|tx2| tx2.write(&v, 8));
        }
        let _ = tx.read(&w)?;
        Ok(())
    });
    assert_eq!(
        stm.stats().snapshot().aborts,
        1,
        "changed value must force one retry"
    );
}

#[test]
fn a_one_attempt_budget_reports_exhaustion_without_retrying() {
    let stm = Stm::builder(Algorithm::Tl2).max_attempts(1).build();
    let v = TVar::new(1u64);
    // A transaction that always requests retry commits nothing.
    assert_eq!(
        stm.run(|tx| {
            tx.write(&v, 2)?;
            Err::<(), Retry>(Retry)
        }),
        Err(RetriesExhausted { attempts: 1 })
    );
    assert_eq!(v.load(), 1);
    assert_eq!(stm.stats().snapshot().aborts, 1, "one attempt, no retry");
    // A clean one commits.
    assert_eq!(stm.run(|tx| tx.read(&v)), Ok(1));
}

#[test]
fn heterogeneous_value_types() {
    for algo in Algorithm::ALL {
        let stm = Stm::new(algo);
        let name = TVar::new(String::from("alice"));
        let balance = TVar::new(10u64);
        let tags = TVar::new(vec![1u8, 2, 3]);
        let summary = stm.atomically(|tx| {
            let n = tx.read(&name)?;
            let b = tx.read(&balance)?;
            let mut t = tx.read(&tags)?;
            t.push(4);
            tx.write(&tags, t.clone())?;
            Ok(format!("{n}:{b}:{}", t.len()))
        });
        assert_eq!(summary, "alice:10:4", "{algo:?}");
        assert_eq!(tags.load(), vec![1, 2, 3, 4], "{algo:?}");
    }
}

#[test]
fn an_exhausted_budget_gives_up_without_waiting_or_parking() {
    // A budget of 66 attempts is spent by the 66th consecutive
    // conflict, deep in the schedule's yield tier. The budget check
    // comes before any backoff: the run gives up at that abort, and no
    // conflict ever parks.
    let stm = Stm::builder(Algorithm::Tl2).max_attempts(66).build();
    let v = TVar::new(0u64);
    let out = stm.run(|tx| {
        tx.read(&v)?;
        Err::<(), Retry>(Retry)
    });
    assert_eq!(out, Err(RetriesExhausted { attempts: 66 }));
    let snap = stm.stats().snapshot();
    assert_eq!((snap.aborts, snap.parks), (66, 0), "{snap}");
    // The instance advertises its budget.
    let dbg = format!("{stm:?}");
    assert!(dbg.contains("max_attempts: 66"), "{dbg}");
}
