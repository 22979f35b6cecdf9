//! Engine-level tests: generic behaviour across all six algorithms,
//! plus the lock-quiescence and adaptive-transition invariants that cut
//! across the builder / transaction / attempt submodules.

use super::*;
use crate::algo::adaptive::AdaptiveConfig;
use crate::orec;
use crate::stats::StatsSnapshot;
use crate::tvar::TVar;
use crate::txlog::{LogLoan, TxLog, POOL_DEPTH, POOL_RETAINED_CAP};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn engines() -> Vec<Stm> {
    vec![
        Stm::tl2(),
        Stm::incremental(),
        Stm::norec(),
        Stm::tlrw(),
        Stm::mv(),
        Stm::adaptive(),
    ]
}

/// [`engines`] with a budget of one attempt: `run` reports the first
/// conflict (or user `Retry`) as an error instead of retrying.
fn one_attempt_engines() -> Vec<Stm> {
    Algorithm::ALL.into_iter().map(one_attempt).collect()
}

fn one_attempt(algorithm: Algorithm) -> Stm {
    Stm::builder(algorithm).max_attempts(1).build()
}

/// An adaptive instance tuned to switch after a handful of commits,
/// counting 8-read transactions as scans.
fn twitchy_adaptive() -> Stm {
    Stm::builder(Algorithm::Adaptive)
        .adaptive_config(AdaptiveConfig {
            window_commits: 8,
            hysteresis_windows: 1,
            mv_scan_reads: 8.0,
        })
        .build()
}

/// Every orec word back to zero: no lock (versioned or RW) leaked.
fn assert_orecs_quiescent(stm: &Stm) {
    for s in 0..stm.orecs.len() {
        let w = stm.orecs.word(s).load(Ordering::Relaxed);
        assert!(
            !orec::is_locked(w) && !orec::rw_write_locked(w),
            "stripe {s} left locked: {w:#x}"
        );
        if stm.algorithm() == Algorithm::Tlrw {
            assert_eq!(w, 0, "stripe {s} leaked a reader count: {w:#x}");
        }
    }
}

#[test]
fn read_write_roundtrip_all_modes() {
    for stm in engines() {
        let v = TVar::new(1u64);
        stm.atomically(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 10)?;
            Ok(())
        });
        assert_eq!(v.load(), 11, "{:?}", stm.algorithm());
    }
}

#[test]
fn read_own_write_all_modes() {
    for stm in engines() {
        let v = TVar::new(5u64);
        let seen = stm.atomically(|tx| {
            tx.write(&v, 9)?;
            tx.read(&v)
        });
        assert_eq!(seen, 9);
    }
}

#[test]
fn aborted_attempt_leaves_no_trace() {
    for stm in one_attempt_engines() {
        let v = TVar::new(0u64);
        let out = stm.run(|tx| {
            tx.write(&v, 99)?;
            Err::<(), Retry>(Retry)
        });
        assert!(out.is_err());
        assert_eq!(v.load(), 0);
    }
}

#[test]
fn stats_track_commits_and_aborts() {
    let stm = one_attempt(Algorithm::Tl2);
    let v = TVar::new(0u64);
    stm.atomically(|tx| tx.write(&v, 1));
    let _ = stm.run(|tx| {
        tx.read(&v)?;
        Err::<(), Retry>(Retry)
    });
    let s = stm.stats().snapshot();
    assert_eq!(s.commits, 1);
    assert_eq!(s.aborts, 1);
    assert_eq!(s.writes, 1);
}

#[test]
fn incremental_mode_probes_quadratically() {
    let stm = Stm::incremental();
    let m = 32;
    let vars: Vec<TVar<u64>> = (0..m).map(|_| TVar::new(0)).collect();
    let before = stm.stats().snapshot();
    stm.atomically(|tx| {
        for v in &vars {
            tx.read(v)?;
        }
        Ok(())
    });
    let d = stm.stats().snapshot().since(&before);
    // Read i validates i-1 prior entries: m(m-1)/2 probes total.
    assert_eq!(d.validation_probes, (m * (m - 1) / 2) as u64);

    let stm2 = Stm::tl2();
    let before = stm2.stats().snapshot();
    stm2.atomically(|tx| {
        for v in &vars {
            tx.read(v)?;
        }
        Ok(())
    });
    let d2 = stm2.stats().snapshot().since(&before);
    // TL2 read-only transactions never probe the read set.
    assert_eq!(d2.validation_probes, 0);
}

#[test]
fn tlrw_read_only_transactions_validate_nothing() {
    let stm = Stm::tlrw();
    let vars: Vec<TVar<u64>> = (0..64).map(|_| TVar::new(1)).collect();
    let before = stm.stats().snapshot();
    let sum = stm.atomically(|tx| {
        let mut acc = 0;
        for v in &vars {
            acc += tx.read(v)?;
        }
        Ok(acc)
    });
    assert_eq!(sum, 64);
    let d = stm.stats().snapshot().since(&before);
    // The acceptance criterion of the visible-read design: zero
    // validation probes, reads O(1) each.
    assert_eq!(d.validation_probes, 0);
    assert_eq!(d.commits, 1);
    assert_eq!(d.reader_conflicts, 0);
    assert_orecs_quiescent(&stm);
}

#[test]
fn tlrw_upgrade_commit_and_abort_leave_locks_quiescent() {
    let stm = one_attempt(Algorithm::Tlrw);
    let v = TVar::new(3u64);
    let w = TVar::new(0u64);
    // Read-then-write upgrade: the commit CAS consumes the read lock.
    stm.atomically(|tx| {
        let x = tx.read(&v)?;
        tx.write(&v, x + 1)
    });
    assert_eq!(v.load(), 4);
    assert_orecs_quiescent(&stm);
    // A user-aborted attempt releases its read locks too.
    let out = stm.run(|tx| {
        tx.read(&v)?;
        tx.read(&w)?;
        Err::<(), Retry>(Retry)
    });
    assert!(out.is_err());
    assert_orecs_quiescent(&stm);
    // And so does a panicking body (the Drop path).
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.atomically(|tx| {
            tx.read(&v)?;
            panic!("body dies mid-transaction");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(res.is_err());
    assert_orecs_quiescent(&stm);
}

#[test]
fn tlrw_upgrade_rollback_restores_and_releases_read_locks() {
    // Force a multi-stripe upgrade whose second CAS fails: stripe A
    // upgrades fine, stripe B is held by a foreign reader. The
    // rollback must restore A's read lock AND release it at abort —
    // dropping it from the read set while restoring the count would
    // leak the lock and starve writers forever.
    let stm = Arc::new(
        Stm::builder(Algorithm::Tlrw)
            .orec_stripes(2)
            .max_attempts(1)
            .build(),
    );
    // Find two vars on different stripes; `a` must sort first so the
    // commit upgrades a's stripe before failing on b's. The pool
    // keeps rejected allocations alive so fresh addresses keep
    // coming.
    let x0 = TVar::new(0u64);
    let mut pool = Vec::new();
    let x1 = loop {
        let cand = TVar::new(0u64);
        if stm.orecs.stripe_of(cand.id()) != stm.orecs.stripe_of(x0.id()) {
            break cand;
        }
        pool.push(cand);
    };
    let (a, b) = if stm.orecs.stripe_of(x0.id()) < stm.orecs.stripe_of(x1.id()) {
        (x0, x1)
    } else {
        (x1, x0)
    };
    let hold = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let stm2 = Arc::clone(&stm);
        let b2 = b.clone();
        let (hold2, release2) = (Arc::clone(&hold), Arc::clone(&release));
        s.spawn(move || {
            // Foreign reader camps on b's stripe until released.
            stm2.atomically(|tx| {
                let x = tx.read(&b2)?;
                hold2.store(true, Ordering::SeqCst);
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(x)
            });
        });
        while !hold.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Reads both stripes, writes both: upgrade of a succeeds,
        // upgrade of b hits the foreign reader and rolls back.
        let out = stm.run(|tx| {
            let x = tx.read(&a)?;
            let y = tx.read(&b)?;
            tx.write(&a, x + 1)?;
            tx.write(&b, y + 1)
        });
        assert!(out.is_err(), "foreign reader must abort the upgrade");
        assert!(stm.stats().snapshot().reader_conflicts >= 1);
        release.store(true, Ordering::SeqCst);
    });
    assert_orecs_quiescent(&stm);
    // The stripes are free again: a writer commits on both.
    stm.atomically(|tx| {
        tx.write(&a, 7)?;
        tx.write(&b, 7)
    });
    assert_eq!((a.load(), b.load()), (7, 7));
}

#[test]
fn two_tlrw_upgraders_abort_each_other() {
    // The negative specimen of strong progressiveness (Definition 1):
    // two transactions conflict on one item only, and neither commits.
    // Each holds a read lock on `v`, so each one's upgrade finds the
    // other's reader and aborts instead of waiting.
    let stm = one_attempt(Algorithm::Tlrw);
    let v = TVar::new(5u64);
    let mut upgraders = [stm.transaction(), stm.transaction()];
    let seen: Vec<u64> = upgraders
        .iter_mut()
        .map(|tx| tx.read(&v).expect("a shared read lock"))
        .collect();
    for (tx, x) in upgraders.iter_mut().zip(seen) {
        tx.write(&v, x + 1).expect("buffer write");
    }
    // Each lock half runs as its own group, while the peer still holds
    // its read lock.
    for tx in &mut upgraders {
        let group = std::slice::from_mut(tx);
        assert_eq!(twophase::open(group), Ok(true), "an upgrader locks");
        assert_eq!(twophase::lock(group), Err(Retry), "the peer reads v");
    }
    for tx in &mut upgraders {
        tx.aborted();
    }
    let d = stm.stats().snapshot();
    assert_eq!((d.reader_conflicts, d.commits), (2, 0));
    assert_eq!(v.load(), 5);
    assert_orecs_quiescent(&stm);
}

#[test]
fn tlrw_writer_aborts_while_reader_holds_the_stripe() {
    let stm = Arc::new(Stm::builder(Algorithm::Tlrw).max_attempts(3).build());
    let v = TVar::new(0u64);
    let hold = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let stm2 = Arc::clone(&stm);
        let v2 = v.clone();
        let (hold2, release2) = (Arc::clone(&hold), Arc::clone(&release));
        s.spawn(move || {
            stm2.atomically(|tx| {
                let x = tx.read(&v2)?;
                hold2.store(true, Ordering::SeqCst);
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(x)
            });
        });
        while !hold.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let out = stm.run(|tx| tx.write(&v, 9));
        assert_eq!(out, Err(RetriesExhausted { attempts: 3 }));
        assert_eq!(stm.stats().snapshot().reader_conflicts, 3);
        release.store(true, Ordering::SeqCst);
    });
    // Reader gone: the same write now commits.
    stm.atomically(|tx| tx.write(&v, 9));
    assert_eq!(v.load(), 9);
    assert_orecs_quiescent(&stm);
}

#[test]
fn concurrent_counter_increments_are_exact() {
    for stm in engines() {
        let stm = Arc::new(stm);
        let v = TVar::new(0u64);
        let threads = 4;
        let per = 500;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        stm.atomically(|tx| {
                            let x = tx.read(&v)?;
                            tx.write(&v, x + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(v.load(), threads * per, "{:?}", stm.algorithm());
    }
}

#[test]
fn concurrent_bank_conserves_total() {
    for stm in engines() {
        let stm = Arc::new(stm);
        let accounts: Vec<TVar<u64>> = (0..8).map(|_| TVar::new(1000)).collect();
        let threads = 4;
        let per = 300;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut x = t as usize;
                    for i in 0..per {
                        let from = (x + i) % accounts.len();
                        let to = (x + i * 7 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        stm.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            let amt = a.min(17);
                            tx.write(&accounts[from], a - amt)?;
                            tx.write(&accounts[to], b + amt)
                        });
                    }
                });
            }
        });
        let total: u64 = accounts.iter().map(TVar::load).sum();
        assert_eq!(total, 8000, "{:?}", stm.algorithm());
    }
}

#[test]
fn snapshot_isolation_is_not_allowed_write_skew() {
    // Write skew: two transactions each read both vars and write one.
    // A serializable STM must not let both commit from the same
    // snapshot; run many racing pairs and check the invariant
    // x + y <= 1 is never violated.
    for stm in engines() {
        let stm = Arc::new(stm);
        for _ in 0..200 {
            let x = TVar::new(0u64);
            let y = TVar::new(0u64);
            std::thread::scope(|s| {
                let stm1 = Arc::clone(&stm);
                let (x1, y1) = (x.clone(), y.clone());
                s.spawn(move || {
                    stm1.atomically(|tx| {
                        let (a, b) = (tx.read(&x1)?, tx.read(&y1)?);
                        if a + b == 0 {
                            tx.write(&x1, 1)?;
                        }
                        Ok(())
                    });
                });
                let stm2 = Arc::clone(&stm);
                let (x2, y2) = (x.clone(), y.clone());
                s.spawn(move || {
                    stm2.atomically(|tx| {
                        let (a, b) = (tx.read(&x2)?, tx.read(&y2)?);
                        if a + b == 0 {
                            tx.write(&y2, 1)?;
                        }
                        Ok(())
                    });
                });
            });
            assert!(x.load() + y.load() <= 1, "{:?}", stm.algorithm());
        }
    }
}

#[test]
fn adaptive_switches_with_the_workload_and_stays_correct() {
    let stm = twitchy_adaptive();
    assert_eq!(stm.active_mode(), Algorithm::Tl2, "starts invisible");
    let vars: Vec<TVar<u64>> = (0..32).map(|_| TVar::new(1)).collect();
    // Scans: 16-read read-only transactions drive it multiversion.
    for _ in 0..64usize {
        let sum = stm.atomically(|tx| {
            let mut acc = 0u64;
            for v in vars.iter().take(16) {
                acc = acc.wrapping_add(tx.read(v)?);
            }
            Ok(acc)
        });
        assert_eq!(sum, 16);
    }
    assert_eq!(stm.active_mode(), Algorithm::Mv, "scans → multiversion");
    let after_first = stm.stats().snapshot();
    assert_eq!(after_first.mode_transitions, 1);
    assert_eq!(
        (after_first.ro_commits, after_first.ro_reads),
        (64, 64 * 16)
    );
    assert!(after_first.snapshot_reads > 0, "Mv hooks served the tail");
    // Write-heavy: transfers (2 reads / 2 writes, no read-only commit)
    // drive it back invisible.
    for i in 0..64usize {
        let (a, b) = (i % 32, (i + 7) % 32);
        stm.atomically(|tx| {
            let x = tx.read(&vars[a])?;
            let y = tx.read(&vars[b])?;
            tx.write(&vars[a], x.wrapping_sub(1))?;
            tx.write(&vars[b], y.wrapping_add(1))
        });
    }
    assert_eq!(stm.active_mode(), Algorithm::Tl2, "write-heavy → invisible");
    let snap = stm.stats().snapshot();
    assert_eq!(snap.mode_transitions, 2);
    assert_eq!(snap.ro_commits, 64, "transfers are not read-only");
    // The sum is conserved across both regimes and the switches.
    assert_eq!(vars.iter().map(TVar::load).sum::<u64>(), 32);
    assert_orecs_quiescent(&stm);
}

#[test]
fn adaptive_switch_is_correct_under_concurrent_mixed_load() {
    // Hammer an adaptive instance with racing read-mostly and
    // write-heavy threads so transitions happen *during* traffic;
    // the exact mode history is scheduling-dependent, but counter
    // exactness and lock quiescence must not be.
    let stm = Arc::new(twitchy_adaptive());
    let counters: Vec<TVar<u64>> = (0..8).map(|_| TVar::new(0)).collect();
    let threads = 4;
    let per = 400;
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = Arc::clone(&stm);
            let counters = counters.clone();
            s.spawn(move || {
                for i in 0..per {
                    if (i / 50) % 2 == 0 {
                        // Write-heavy burst: increment one counter.
                        let c = (t + i) % counters.len();
                        stm.atomically(|tx| tx.modify(&counters[c], |x| x + 1));
                    } else {
                        // Read burst: scan everything, write every
                        // 16th iteration.
                        stm.atomically(|tx| {
                            let mut acc = 0u64;
                            for v in &counters {
                                acc = acc.wrapping_add(tx.read(v)?);
                            }
                            if i % 16 == 0 {
                                let c = (t + i) % counters.len();
                                tx.modify(&counters[c], |x| x + 1)?;
                            }
                            Ok(acc)
                        });
                    }
                }
            });
        }
    });
    let expected: u64 = (0..threads as u64)
        .map(|_| {
            (0..per as u64)
                .map(|i| u64::from((i / 50) % 2 == 0 || i % 16 == 0))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(counters.iter().map(TVar::load).sum::<u64>(), expected);
    assert_orecs_quiescent(&stm);
}

#[test]
fn adaptive_windows_still_trigger_when_counters_land_in_many_shards() {
    // Regression for the stats sharding: worker threads flush their
    // operation tallies into *different* counter shards, so the
    // controller's windowed deltas only see the workload if snapshots
    // sum the shards correctly. Drive the phases from spawned threads
    // (never the main thread, so the main thread's shard stays cold)
    // and require the switch to land both ways.
    let stm = Arc::new(twitchy_adaptive());
    let vars: Vec<TVar<u64>> = (0..32).map(|_| TVar::new(1)).collect();
    assert_eq!(stm.active_mode(), Algorithm::Tl2, "starts invisible");
    let transfer = |i: usize| {
        let (a, b) = (i % 32, (i + 7) % 32);
        stm.atomically(|tx| {
            let x = tx.read(&vars[a])?;
            let y = tx.read(&vars[b])?;
            tx.write(&vars[a], x.wrapping_sub(1))?;
            tx.write(&vars[b], y.wrapping_add(1))
        });
    };
    let scan = || {
        stm.atomically(|tx| {
            let mut acc = 0u64;
            for v in vars.iter().take(16) {
                acc = acc.wrapping_add(tx.read(v)?);
            }
            Ok(acc)
        });
    };
    // Scans from 4 threads: 16-read read-only transactions.
    std::thread::scope(|s| {
        for _ in 0..4usize {
            s.spawn(|| {
                for _ in 0..64usize {
                    scan();
                }
            });
        }
    });
    // Exactness across shards: 4 threads × 64 committed scans, all
    // flushed by the time the scope joins; a read-only scan is counted
    // towards the vote once, however many attempts it took.
    let mid = stm.stats().snapshot();
    assert_eq!(
        (mid.commits, mid.ro_commits, mid.ro_reads),
        (256, 256, 256 * 16)
    );
    // No switch waits for anything, so the first sampled window has
    // already landed it.
    assert_eq!(
        stm.active_mode(),
        Algorithm::Mv,
        "sharded read-only deltas still drive the instance multiversion"
    );
    assert!(stm.stats().snapshot().mode_transitions >= 1);
    // Write-heavy from fresh threads (fresh shard slots): transfers
    // (2 reads / 2 writes).
    std::thread::scope(|s| {
        let transfer = &transfer;
        for t in 0..2usize {
            s.spawn(move || {
                for i in 0..64usize {
                    transfer(t + i);
                }
            });
        }
    });
    assert_eq!(stm.active_mode(), Algorithm::Tl2, "and back invisible");
    let snap = stm.stats().snapshot();
    assert!(snap.mode_transitions >= 2);
    assert!(
        snap.writes >= 2 * (snap.commits - snap.ro_commits),
        "2 writes per committed transfer: {snap}"
    );
    assert_eq!(vars.iter().map(TVar::load).sum::<u64>(), 32);
    assert_orecs_quiescent(&stm);
}

#[test]
fn adaptive_switch_lands_while_a_transaction_on_the_switching_thread_is_open() {
    // One-commit windows, one-window hysteresis, and every read-only
    // commit counts as a scan: the inner read-only commit below votes
    // multiversion and must switch while the outer transaction — on the
    // same thread, already begun on the Tl2 hooks and holding a buffered
    // write — is still open. Nothing waits for the outer one to finish.
    let stm = Stm::builder(Algorithm::Adaptive)
        .adaptive_config(AdaptiveConfig {
            window_commits: 1,
            hysteresis_windows: 1,
            mv_scan_reads: 1.0,
        })
        .build();
    let v = TVar::new(0u64);
    let w = TVar::new(5u64);
    let mut mode_before_outer_commit = None;
    stm.atomically(|tx| {
        tx.write(&v, 1)?;
        assert_eq!(stm.atomically(|tx2| tx2.read(&w)), 5);
        mode_before_outer_commit = Some(stm.active_mode());
        tx.write(&v, 2)
    });
    assert_eq!(mode_before_outer_commit, Some(Algorithm::Mv));
    assert_eq!(v.load(), 2);
    // The outer commit, an updater, voted invisible again.
    assert_eq!(stm.active_mode(), Algorithm::Tl2);
    assert_eq!(stm.stats().snapshot().mode_transitions, 2);
    assert_orecs_quiescent(&stm);
}

#[test]
fn run_reports_exhaustion_instead_of_panicking() {
    let stm = Stm::builder(Algorithm::Tl2).max_attempts(3).build();
    let v = TVar::new(0u64);
    let out = stm.run(|tx| {
        tx.read(&v)?;
        Err::<(), Retry>(Retry)
    });
    assert_eq!(out, Err(RetriesExhausted { attempts: 3 }));
    assert_eq!(stm.stats().snapshot().aborts, 3);
}

#[test]
#[should_panic(expected = "failed to commit after 1 attempts")]
fn atomically_panics_when_budget_runs_out() {
    let stm = Stm::builder(Algorithm::Tl2).max_attempts(1).build();
    stm.atomically(|_tx| Err::<(), Retry>(Retry));
}

#[test]
fn debug_output_names_algorithm_and_budget() {
    let stm = Stm::builder(Algorithm::Incremental)
        .max_attempts(42)
        .build();
    let s = format!("{stm:?}");
    assert!(s.contains("max_attempts: 42"), "{s}");
    assert!(s.contains("Incremental"), "{s}");
}

#[test]
fn values_whose_drop_reenters_the_epoch_machinery() {
    // Regression: the collector used to drop displaced value boxes
    // while holding the thread-local epoch borrow, so a value whose
    // `Drop` pins the epoch again (here: `TVar::load` on a peer)
    // panicked with a RefCell BorrowMutError mid-commit.
    #[derive(Clone)]
    struct PinsOnDrop {
        peer: TVar<u64>,
        tag: u64,
    }
    impl PartialEq for PinsOnDrop {
        fn eq(&self, other: &Self) -> bool {
            self.tag == other.tag
        }
    }
    impl Drop for PinsOnDrop {
        fn drop(&mut self) {
            let _ = self.peer.load(); // pins the epoch
        }
    }

    let stm = Stm::tl2();
    let peer = TVar::new(0u64);
    let var = TVar::new(PinsOnDrop {
        peer: peer.clone(),
        tag: 0,
    });
    // Enough writing commits to push the thread bag past the collect
    // threshold several times over.
    for i in 1..=300u64 {
        stm.atomically(|tx| {
            tx.write(
                &var,
                PinsOnDrop {
                    peer: peer.clone(),
                    tag: i,
                },
            )
        });
    }
    assert_eq!(var.load().tag, 300);
}

#[test]
fn tiny_orec_table_still_serializes_correctly() {
    // One stripe: every variable conflicts with every other. The
    // engine must stay correct (if slower).
    let stm = Arc::new(Stm::builder(Algorithm::Tl2).orec_stripes(1).build());
    let a = TVar::new(0u64);
    let b = TVar::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..200 {
                    stm.atomically(|tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.write(&a, x + 1)?;
                        tx.write(&b, y + 1)
                    });
                }
            });
        }
    });
    assert_eq!(a.load(), 800);
    assert_eq!(b.load(), 800);
}

// ---------------------------------------------------------------------
// Group commit (engine/twophase.rs): lock all → validate all → stage →
// publish all, public through `Transaction::commit_all` and driven here
// phase by phase where a test needs a commit held open.
// ---------------------------------------------------------------------

/// Everything of a group commit that can fail, and no more: on `Ok` the
/// group holds every commit lock until [`publish_held`]. On `Err` it is
/// rolled back and poisoned, for the caller to resolve.
fn hold(group: &mut [Transaction<'_>]) -> Result<(), Retry> {
    assert!(
        twophase::open(group)?,
        "a held window needs a group that locks"
    );
    twophase::lock(group)?;
    twophase::validate(group)
}

/// Publishes and resolves a group [`hold`] left holding its locks.
fn publish_held(group: &mut [Transaction<'_>]) {
    twophase::publish(group);
    twophase::resolve(group);
}

#[test]
fn a_conflict_yields_past_every_tier_and_never_parks() {
    // Every attempt reads `w` (its snapshot), then finds `v` stamped
    // past that snapshot by a nested commit, while its read set stays
    // valid. Past the spin tier a conflict keeps yielding until its
    // budget runs out; parked on its footprint instead, nothing would
    // wake it before the safety net.
    let stm = Stm::builder(Algorithm::Tl2).max_attempts(80).build();
    let (v, w) = (TVar::new(0u64), TVar::new(0u64));
    let out = stm.run(|tx| {
        tx.read(&w)?;
        stm.atomically(|t| t.modify(&v, |y| y + 1));
        tx.read(&v)
    });
    assert_eq!(out, Err(RetriesExhausted { attempts: 80 }));
    let snap = stm.stats().snapshot();
    assert_eq!((snap.parks, snap.spurious_wakes), (0, 0), "{snap}");
}

#[test]
fn group_commit_of_one_publishes_and_stages_once_all_modes() {
    for stm in engines() {
        let v = TVar::new(1u64);
        let mut tx = stm.transaction();
        let seen = tx.read(&v).expect("fresh read");
        tx.write(&v, seen + 10).expect("buffer write");
        let mut staged = 0;
        Transaction::commit_all(vec![tx], |group| {
            staged += 1;
            assert_eq!(group.len(), 1);
            assert_eq!(v.load(), 1, "stage runs before the publish");
        })
        .expect("uncontended commit");
        assert_eq!(staged, 1, "{:?}", stm.algorithm());
        assert_eq!(v.load(), 11, "{:?}", stm.algorithm());
        assert_orecs_quiescent(&stm);
        assert_eq!(stm.stats().snapshot().commits, 1);
    }
}

#[test]
fn a_failed_group_commit_observes_nothing_all_modes() {
    // The first participant locks; the second fails — at validation
    // under invisible reads (a commit overwrote what it read), at its
    // lock half under Tlrw (a foreign read lock on what it writes). The
    // first participant's locks go back as they were: nothing published,
    // nothing wedged, one abort counted on each instance.
    for algo in Algorithm::ALL {
        let (a, b) = (Stm::new(algo), Stm::new(algo));
        let (v, w) = (TVar::new(1u64), TVar::new(0u64));
        let mut first = a.transaction();
        first.write(&v, 99).expect("buffer write");
        let mut second = b.transaction();
        second.read(&w).expect("fresh read");
        let mut reader = b.transaction();
        if algo == Algorithm::Tlrw {
            second.write(&w, 5).expect("buffer write");
            reader.read(&w).expect("a second read lock");
        } else {
            b.atomically(|t| t.write(&w, 7));
        }
        let out = Transaction::commit_all(vec![first, second], |_| {
            unreachable!("stage runs only once the commit cannot fail")
        });
        assert_eq!(out, Err(Retry), "{algo:?}");
        reader.rollback();
        assert_eq!(v.load(), 1, "{algo:?}: a failed group publishes nothing");
        assert_orecs_quiescent(&a);
        assert_orecs_quiescent(&b);
        assert_eq!(a.stats().snapshot().aborts, 1, "{algo:?}");
        a.atomically(|t| t.write(&v, 2));
        assert_eq!(v.load(), 2, "{algo:?}: the instance is not wedged");
    }
}

#[test]
fn twophase_rollback_closes_the_attempt_all_modes() {
    for stm in engines() {
        let v = TVar::new(1u64);
        let mut tx = stm.transaction();
        let seen = tx.read(&v).expect("fresh read");
        tx.write(&v, seen + 99).expect("buffer write");
        tx.rollback();
        assert_eq!(v.load(), 1, "{:?}", stm.algorithm());
        assert_orecs_quiescent(&stm);
        assert_eq!(stm.stats().snapshot().aborts, 1);
    }
}

#[test]
fn group_commit_detects_overlapping_commits_all_modes() {
    // The invariant cuts two ways, depending on whether the algorithm
    // uses invisible or visible reads:
    //
    // * invisible (Tl2/Incremental/NOrec/Mv, and so Adaptive): the
    //   nested bump commits, so the outer commit's validation must fail;
    // * visible (Tlrw): the outer read lock physically excludes the
    //   bump, so the bump fails and the outer commit must succeed.
    //
    // Either way, exactly one of the two writers wins.
    for stm in one_attempt_engines() {
        let v = TVar::new(0u64);
        let w = TVar::new(0u64);
        let mut tx = stm.transaction();
        let seen = tx.read(&v).expect("fresh read");
        let bumped = stm.run(|t2| t2.modify(&v, |y| y + 1)).is_ok();
        tx.write(&w, seen + 1).expect("buffer write");
        let mut group = [tx];
        let committed = twophase::commit_group(&mut group, |_| {}).is_ok();
        assert_ne!(
            committed,
            bumped,
            "{:?}: exactly one writer wins",
            stm.algorithm()
        );
        if !committed {
            // The failed commit rolled its locks back and poisoned the
            // attempt; committing it again stays refused.
            assert_eq!(twophase::commit_group(&mut group, |_| {}), Err(Retry));
            let [tx] = group;
            tx.rollback();
        }
        assert_orecs_quiescent(&stm);
    }
}

#[test]
fn a_read_only_participant_validates_all_modes() {
    // A lone read-only attempt is already serialized and skips both
    // halves, but a read-only participant of a group is the group's
    // torn-cut detector: if an invisible-read algorithm saw a snapshot
    // that a later commit invalidated, the group must fail. (Visible
    // readers exclude the overlapping commit instead, so the group
    // commits.)
    for algo in Algorithm::ALL {
        let (stm, other) = (one_attempt(algo), Stm::new(algo));
        let (v, w) = (TVar::new(0u64), TVar::new(0u64));
        let mut tx = stm.transaction();
        tx.read(&v).expect("fresh read");
        let mut writer = other.transaction();
        writer.write(&w, 1).expect("buffer write");
        let bumped = stm.run(|t2| t2.modify(&v, |y| y + 1)).is_ok();
        let committed = Transaction::commit_all(vec![tx, writer], |_| {}).is_ok();
        assert_ne!(committed, bumped, "{algo:?}: a torn cut committed");
        assert_eq!(w.load(), u64::from(committed), "{algo:?}");
        assert_orecs_quiescent(&stm);
        assert_orecs_quiescent(&other);
    }
}

#[test]
fn twophase_held_group_excludes_a_second_writer() {
    // A group held between validation and publish owns the commit
    // locks; a second writer on the same stripes must fail its commit
    // (try-lock, no waiting) until the first publishes. NOrec is left
    // to the write-skew script below, which runs each group on its own
    // thread: a commit there *spins* on the held sequence lock, which
    // single-threaded would self-deadlock.
    for stm in engines() {
        if stm.algorithm() == Algorithm::Norec {
            continue;
        }
        let v = TVar::new(0u64);
        let mut first = stm.transaction();
        first.write(&v, 1).expect("buffer write");
        let mut held = [first];
        hold(&mut held).expect("uncontended lock and validate");

        let mut second = stm.transaction();
        let blocked = match second.write(&v, 2) {
            // Tlrw takes the write lock eagerly, so the conflict can
            // surface at write time rather than commit time.
            Err(Retry) => true,
            Ok(()) => Transaction::commit_all(vec![second], |_| {}).is_err(),
        };
        assert!(
            blocked,
            "{:?}: second writer got past held locks",
            stm.algorithm()
        );

        publish_held(&mut held);
        assert_eq!(v.load(), 1, "{:?}", stm.algorithm());
        assert_orecs_quiescent(&stm);
    }
}

#[test]
fn beside_reads_at_the_openers_snapshot() {
    let first = Stm::mv();
    let second = StmBuilder::new(Algorithm::Mv).build_beside(&first);
    let (a, b) = (TVar::new(1u64), TVar::new(2u64));

    // A commit on the second instance after the opener's first read is
    // past the opener's snapshot, so the sibling does not see it.
    let mut tx = first.transaction();
    assert_eq!(tx.read(&a), Ok(1));
    second.atomically(|t| t.write(&b, 20));
    let mut sibling = tx.beside(&second);
    assert_eq!(sibling.rv, tx.rv);
    assert_eq!(
        sibling.read(&b),
        Ok(2),
        "the sibling reads the opener's cut"
    );

    // The read-only group is one cut at one `rv`: it commits without
    // a single validation probe, on both instances.
    let before = [first.stats().snapshot(), second.stats().snapshot()];
    Transaction::commit_all(vec![tx, sibling], |_| {}).expect("read-only group");
    for (stm, before) in [&first, &second].into_iter().zip(&before) {
        let d = stm.stats().snapshot().since(before);
        assert_eq!((d.commits, d.aborts), (1, 0));
        assert_eq!(d.validation_probes, 0, "a one-cut group validates nothing");
    }

    // An updating group publishes both instances at one tick.
    let tick = first.clock.load(Ordering::SeqCst);
    let mut tx = first.transaction();
    let x = tx.read(&a).expect("fresh read");
    let mut sibling = tx.beside(&second);
    let y = sibling.read(&b).expect("fresh read");
    tx.write(&a, x + y).expect("buffer write");
    sibling.write(&b, x + y).expect("buffer write");
    Transaction::commit_all(vec![tx, sibling], |_| {}).expect("uncontended group");
    assert_eq!((a.load(), b.load()), (21, 21));
    assert_eq!(first.clock.load(Ordering::SeqCst), tick + 1, "one draw");
    for (stm, var) in [(&first, &a), (&second, &b)] {
        let word = stm.orecs.word(stm.orecs.stripe_of(var.id()));
        assert_eq!(orec::version_of(word.load(Ordering::SeqCst)), tick + 1);
        assert_eq!(var.versions_retained(), 1, "no pin outlives the group");
        assert_orecs_quiescent(stm);
    }

    // Instances in separate domains open an ordinary transaction, which
    // the group commit validates like any read-only participant.
    let other = Stm::mv();
    let mut tx = first.transaction();
    tx.read(&a).expect("fresh read");
    let mut stranger = tx.beside(&other);
    stranger.read(&b).expect("fresh read");
    let before = other.stats().snapshot();
    Transaction::commit_all(vec![tx, stranger], |_| {}).expect("read-only group");
    assert_eq!(other.stats().snapshot().since(&before).validation_probes, 1);
}

#[test]
fn a_mixed_group_stamps_its_domain_members_alike_all_outsiders() {
    // Two members of one domain with an outsider between them in lock
    // order — any algorithm; an Mv or Adaptive one is a domain of its
    // own — publish the domain at one draw: both writes carry one stamp.
    for outsider in Algorithm::ALL {
        let first = Stm::mv();
        let second = StmBuilder::new(Algorithm::Mv).build_beside(&first);
        let third = Stm::new(outsider);
        let (x, y, z) = (TVar::new(0u64), TVar::new(0u64), TVar::new(0u64));
        let tick = first.clock.load(Ordering::SeqCst);
        let mut tx = first.transaction();
        tx.write(&x, 1).expect("buffer write");
        let mut sibling = tx.beside(&second);
        sibling.write(&y, 1).expect("buffer write");
        let mut other = third.transaction();
        other.write(&z, 1).expect("buffer write");
        Transaction::commit_all(vec![tx, other, sibling], |_| {}).expect("uncontended group");
        assert_eq!((x.load(), y.load(), z.load()), (1, 1, 1), "{outsider:?}");
        let stamp = |stm: &Stm, var: &TVar<u64>| {
            let word = stm.orecs.word(stm.orecs.stripe_of(var.id()));
            orec::version_of(word.load(Ordering::SeqCst))
        };
        assert_eq!(
            [stamp(&first, &x), stamp(&second, &y)],
            [tick + 1; 2],
            "{outsider:?}: one stamp for the domain"
        );
        assert_eq!(first.clock.load(Ordering::SeqCst), tick + 1, "{outsider:?}");
        for stm in [&first, &second, &third] {
            assert_orecs_quiescent(stm);
        }
    }
}

/// One updating group in `first`'s timestamp domain: writes `n` to `a`
/// on `first` and to `b` on `second`, beside it.
fn group_write(first: &Stm, second: &Stm, (a, b): (&TVar<u64>, &TVar<u64>), n: u64) {
    let mut tx = first.transaction();
    tx.write(a, n).expect("buffer write");
    let mut sibling = tx.beside(second);
    sibling.write(b, n).expect("buffer write");
    Transaction::commit_all(vec![tx, sibling], |_| {}).expect("uncontended group");
}

#[test]
fn a_group_trims_every_writers_chain_like_lone_commits() {
    // The group reads the watermark once, after both writers withdrew
    // their snapshots: with no reader live, each chain trims to its new
    // head, and each instance counts what its lone commits would.
    let trims = |grouped: bool| {
        let first = Stm::mv();
        let second = StmBuilder::new(Algorithm::Mv).build_beside(&first);
        let (a, b) = (TVar::new(0u64), TVar::new(0u64));
        for n in 1..=3 {
            if grouped {
                group_write(&first, &second, (&a, &b), n);
            } else {
                first.atomically(|tx| tx.write(&a, n));
                second.atomically(|tx| tx.write(&b, n));
            }
            assert_eq!((a.versions_retained(), b.versions_retained()), (1, 1));
        }
        [&first, &second].map(|stm| {
            let s = stm.stats().snapshot();
            (s.max_chain_len, s.versions_trimmed)
        })
    };
    assert_eq!(trims(true), trims(false));
    assert_eq!(trims(true), [(2, 3); 2]);
}

#[test]
fn a_group_keeps_the_versions_a_live_snapshot_names() {
    use std::sync::mpsc;
    let first = Stm::mv();
    let second = StmBuilder::new(Algorithm::Mv).build_beside(&first);
    let (a, b) = (TVar::new(0u64), TVar::new(0u64));
    let (domain, vars) = ((&first, &second), (&a, &b));
    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (wrote_tx, wrote_rx) = mpsc::channel();
    // The main thread asserts after the scope: a panic inside it would
    // hold `wrote_tx` while the scope joins the waiting reader.
    let retained = std::thread::scope(|s| {
        s.spawn(move || {
            let mut reader = domain.0.transaction();
            assert_eq!(reader.read(vars.0), Ok(0));
            pinned_tx.send(()).expect("main thread");
            wrote_rx.recv().expect("main thread");
            let mut sibling = reader.beside(domain.1);
            assert_eq!(sibling.read(vars.1), Ok(0), "the snapshot's version");
            assert_eq!(reader.read(vars.0), Ok(0), "the snapshot's version");
            Transaction::commit_all(vec![reader, sibling], |_| {}).expect("read-only group");
        });
        pinned_rx.recv().expect("reader");
        group_write(&first, &second, (&a, &b), 1);
        let retained = (a.versions_retained(), b.versions_retained());
        wrote_tx.send(()).expect("reader");
        retained
    });
    assert_eq!(
        retained,
        (2, 2),
        "the reader's snapshot holds the superseded versions"
    );
    group_write(&first, &second, (&a, &b), 2);
    assert_eq!((a.versions_retained(), b.versions_retained()), (1, 1));
}

#[test]
#[should_panic(expected = "both instances must serve snapshots")]
fn build_beside_refuses_an_instance_that_serves_no_snapshots() {
    let first = Stm::mv();
    let _ = StmBuilder::new(Algorithm::Norec).build_beside(&first);
}

// ---------------------------------------------------------------------
// Cross-instance write skew: the script a lock-then-validate per
// instance commits twice, and lock all → validate all at most once.
// ---------------------------------------------------------------------

/// One group of the write-skew script, on its own thread: reads `x` (on
/// `a`) and `y` (on `b`, beside `a`) and, if `x + y == 0`, writes 1 to
/// `x` (`writes_x`) or to `y`. It then waits for two steps — lock all,
/// then validate all and publish — reporting each step's outcome on
/// `done`, and returns whether it committed.
fn skew_group(
    (a, b): (&Stm, &Stm),
    (x, y): (&TVar<u64>, &TVar<u64>),
    writes_x: bool,
    steps: std::sync::mpsc::Receiver<()>,
    done: std::sync::mpsc::Sender<bool>,
) -> bool {
    let mut first = a.transaction();
    let seen_x = first.read(x).expect("fresh read");
    let mut second = first.beside(b);
    let seen_y = second.read(y).expect("fresh read");
    if seen_x + seen_y == 0 {
        let out = if writes_x {
            first.write(x, 1)
        } else {
            second.write(y, 1)
        };
        out.expect("buffer write");
    }
    let mut group = [first, second];
    done.send(true).expect("driver alive");
    steps.recv().expect("lock step");
    let locked = twophase::open(&mut group).and_then(|locks| {
        assert!(locks, "an updating group locks");
        twophase::lock(&mut group)
    });
    done.send(locked.is_ok()).expect("driver alive");
    steps.recv().expect("validate step");
    let committed = locked.and_then(|()| twophase::validate(&mut group)).is_ok();
    if committed {
        publish_held(&mut group);
    } else {
        for tx in &mut group {
            tx.aborted();
        }
    }
    done.send(committed).expect("driver alive");
    committed
}

/// Runs the write-skew script on instances `a` and `b`: two groups *T*
/// (writes `y`) and *C* (writes `x`) both read `x = y = 0`, then step
/// as *T*@a, *C*@a, *C*@b, *T*@b: *T*'s first step, *C*'s first and
/// second, *T*'s second. The one step that can block — a NOrec lock
/// half spinning on a sequence lock the other group holds — is left to
/// finish in the background while the script goes on; every other step
/// is waited out. Returns how many groups committed, and `x + y`.
fn write_skew_script(a: &Stm, b: &Stm) -> (usize, u64) {
    use std::sync::mpsc::channel;
    use std::time::Duration;
    let (x, y) = (TVar::new(0u64), TVar::new(0u64));
    let seqlock_held = |stm: &Stm| {
        stm.algorithm() == Algorithm::Norec && stm.clock.load(Ordering::SeqCst) % 2 == 1
    };
    let committed = std::thread::scope(|s| {
        let mut groups = Vec::new();
        for writes_x in [false, true] {
            let (step_tx, step_rx) = channel();
            let (done_tx, done_rx) = channel();
            let (stms, vars) = ((a, b), (&x, &y));
            let h = s.spawn(move || skew_group(stms, vars, writes_x, step_rx, done_tx));
            done_rx.recv().expect("the group has read");
            groups.push((step_tx, done_rx, h, 0usize));
        }
        for g in [0, 1, 1, 0] {
            let (steps, done, _, pending) = &mut groups[g];
            steps.send(()).expect("group alive");
            *pending += 1;
            while *pending > 0 {
                match done.recv_timeout(Duration::from_millis(1)) {
                    Ok(_) => *pending -= 1,
                    // Blocked behind the other group: go on with the
                    // script. (A group's own sequence locks held just
                    // before its reply are as good as its reply.)
                    Err(_) if seqlock_held(a) || seqlock_held(b) => break,
                    Err(_) => {}
                }
            }
        }
        groups
            .into_iter()
            .map(|(_, _, h, _)| h.join().expect("group thread"))
            .filter(|&c| c)
            .count()
    });
    (committed, x.load() + y.load())
}

#[test]
fn write_skew_across_two_instances_commits_at_most_one_group() {
    for algo in Algorithm::ALL {
        let (a, b) = (Stm::new(algo), Stm::new(algo));
        let (committed, sum) = write_skew_script(&a, &b);
        assert!(committed <= 1, "{algo:?}: both groups committed a skew");
        assert_eq!(sum, committed as u64, "{algo:?}");
        assert_orecs_quiescent(&a);
        assert_orecs_quiescent(&b);
    }
}

#[test]
fn write_skew_in_one_domain_commits_at_most_one_group() {
    for algo in [Algorithm::Mv, Algorithm::Adaptive] {
        let a = Stm::new(algo);
        let b = StmBuilder::new(algo).build_beside(&a);
        let (committed, sum) = write_skew_script(&a, &b);
        assert!(committed <= 1, "{algo:?}: both groups committed a skew");
        assert_eq!(sum, committed as u64, "{algo:?}");
        assert_orecs_quiescent(&a);
        assert_orecs_quiescent(&b);
    }
}

// ---------------------------------------------------------------------
// Batched reads: `Transaction::read_each` is defined as the `read_with`
// loop, whichever of its two bodies runs.
// ---------------------------------------------------------------------

/// How a scan reads its variables: the batched call, or the loop it is
/// defined as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    Batch,
    Loop,
}

/// Reads every variable of `vars` the `how` way, pushing what each read
/// saw onto `seen`.
fn scan(
    tx: &mut Transaction<'_>,
    how: Scan,
    vars: &[TVar<u64>],
    seen: &mut Vec<u64>,
) -> Result<(), Retry> {
    match how {
        Scan::Batch => tx.read_each(vars, |v| seen.push(*v)),
        Scan::Loop => {
            for var in vars {
                tx.read_with(var, |v| seen.push(*v))?;
            }
            Ok(())
        }
    }
}

fn scan_vars() -> Vec<TVar<u64>> {
    (0..16).map(TVar::new).collect()
}

/// [`scan_vars`], each on a stripe of `stm` that no other and not
/// `anchor` maps to. A variable's stripe follows its address, so two
/// runs' variables collide differently, and a Tl2-hook scan aborts at
/// the first variable sharing a stripe with an overwritten one: on
/// private stripes it aborts exactly at the first overwritten variable
/// in every run. (NOrec's table is one stripe, which no read consults.)
fn scan_vars_on_own_stripes(stm: &Stm, anchor: &TVar<u64>) -> Vec<TVar<u64>> {
    if stm.orecs.len() == 1 {
        return scan_vars();
    }
    let mut taken = vec![stm.orecs.stripe_of(anchor.id())];
    // Rejected variables stay alive until the end, so their addresses —
    // and stripes — are not handed out again.
    let (mut vars, mut rejected) = (Vec::new(), Vec::new());
    while vars.len() < 16 {
        let var = TVar::new(vars.len() as u64);
        let stripe = stm.orecs.stripe_of(var.id());
        if taken.contains(&stripe) {
            rejected.push(var);
        } else {
            taken.push(stripe);
            vars.push(var);
        }
    }
    vars
}

/// What one scripted scan left behind: its outcome, the values it saw in
/// order, and the instance's stats once the attempt resolved.
type ScanTrace = (Result<(), Retry>, Vec<u64>, StatsSnapshot);

/// A fresh `algo` instance; one attempt that draws its snapshot on an
/// unrelated variable, lets three commits overwrite scanned variables,
/// scans them all the `how` way, then commits (a quiet scan) or rolls
/// back.
fn scripted_scan(algo: Algorithm, how: Scan, overwrite: bool) -> ScanTrace {
    let stm = Stm::new(algo);
    let anchor = TVar::new(0u64);
    let vars = scan_vars_on_own_stripes(&stm, &anchor);
    let mut tx = stm.transaction();
    tx.read(&anchor).expect("fresh read");
    if overwrite {
        for i in [3, 7, 11] {
            stm.atomically(|t| t.write(&vars[i], 100 + i as u64));
        }
    }
    let mut seen = Vec::new();
    let out = scan(&mut tx, how, &vars, &mut seen);
    if out.is_ok() && !overwrite {
        Transaction::commit_all(vec![tx], |_| {}).expect("read-only commit");
    } else {
        tx.rollback();
    }
    assert_orecs_quiescent(&stm);
    (out, seen, stm.stats().snapshot())
}

#[test]
fn read_each_is_the_read_with_loop_all_modes() {
    // Same values in the same order, same outcome, and the same stats —
    // `reads`, `snapshot_reads`, `chain_walk_steps`, `validation_probes`
    // and every other counter — on a quiet scan and on one whose
    // snapshot three commits overtook (Mv walks back a version for each,
    // the Tl2 hooks abort at the first, Incremental, NOrec and Tlrw read
    // the new values on).
    for algo in Algorithm::ALL {
        for overwrite in [false, true] {
            let batch = scripted_scan(algo, Scan::Batch, overwrite);
            let looped = scripted_scan(algo, Scan::Loop, overwrite);
            assert_eq!(batch, looped, "{algo:?}, overwrite: {overwrite}");
            let (out, seen, stats) = batch;
            if !overwrite {
                assert_eq!(out, Ok(()), "{algo:?}");
                assert_eq!(seen, (0..16).collect::<Vec<_>>(), "{algo:?}");
                assert_eq!(stats.reads, 17, "{algo:?}");
            }
            if overwrite {
                let expect: Vec<u64> = match algo {
                    Algorithm::Tl2 | Algorithm::Adaptive => vec![0, 1, 2],
                    Algorithm::Mv => (0..16).collect(),
                    _ => (0..16)
                        .map(|i| if [3, 7, 11].contains(&i) { 100 + i } else { i })
                        .collect(),
                };
                assert_eq!(seen, expect, "{algo:?}");
            }
            if algo == Algorithm::Mv {
                assert_eq!(stats.snapshot_reads, 17);
                assert_eq!(stats.chain_walk_steps, if overwrite { 3 } else { 0 });
                assert_eq!(stats.validation_probes, 0);
            }
        }
    }
}

#[test]
fn read_each_leaves_the_read_with_loops_footprint_all_modes() {
    // An attempt that batch-reads and then writes is as exposed as one
    // that read the same variables one by one: a commit on any of them
    // aborts it (invisible reads), or cannot land (Tlrw's read locks).
    for algo in Algorithm::ALL {
        for i in [0, 7, 15] {
            let outcomes = [Scan::Batch, Scan::Loop].map(|how| {
                let stm = one_attempt(algo);
                let (vars, out) = (scan_vars(), TVar::new(0u64));
                let mut tx = stm.transaction();
                scan(&mut tx, how, &vars, &mut Vec::new()).expect("fresh scan");
                tx.write(&out, 1).expect("buffer write");
                let bumped = stm.run(|t| t.modify(&vars[i], |x| x + 1)).is_ok();
                let committed = Transaction::commit_all(vec![tx], |_| {}).is_ok();
                assert_ne!(committed, bumped, "{algo:?} {how:?}: var {i}");
                assert_orecs_quiescent(&stm);
                committed
            });
            assert_eq!(outcomes[0], outcomes[1], "{algo:?}: var {i}");
            assert_eq!(outcomes[0], algo == Algorithm::Tlrw, "{algo:?}: var {i}");
        }
    }
}

#[test]
fn read_each_on_a_poisoned_attempt_skips_the_closure_all_modes() {
    for stm in engines() {
        let vars = scan_vars();
        let mut tx = stm.transaction();
        assert_eq!(tx.retry::<()>(), Err(Retry));
        let mut called = false;
        assert_eq!(tx.read_each(&vars, |_| called = true), Err(Retry));
        assert!(!called, "{:?}", stm.algorithm());
        tx.rollback();
    }
}

#[test]
fn read_each_sees_the_attempts_own_write_all_modes() {
    for stm in engines() {
        let vars = scan_vars();
        let mut seen = Vec::new();
        let mut tx = stm.transaction();
        tx.write(&vars[2], 99).expect("buffer write");
        tx.read_each(&vars, |v| seen.push(*v)).expect("fresh scan");
        Transaction::commit_all(vec![tx], |_| {}).expect("uncontended commit");
        let mut want: Vec<u64> = (0..16).collect();
        want[2] = 99;
        assert_eq!(seen, want, "{:?}", stm.algorithm());
    }
}

/// Where a transaction's log lives — the identity of its loan.
fn log_addr(tx: &Transaction<'_>) -> *const TxLog {
    &*tx.log
}

#[test]
fn live_transactions_hold_distinct_logs_and_all_come_back() {
    // `ShardedKv::scan`'s shape: one manual transaction per shard, all
    // alive at once on one thread.
    let stm = Stm::tl2();
    let v = TVar::new(1u64);
    assert!(LogLoan::pooled_read_capacities().is_empty(), "fresh thread");
    let mut live: Vec<Transaction<'_>> = (0..4).map(|_| stm.transaction()).collect();
    for tx in &mut live {
        assert_eq!(tx.read(&v), Ok(1));
    }
    let mut addrs: Vec<_> = live.iter().map(log_addr).collect();
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), 4, "two live transactions share a log");
    drop(live);
    let pooled = LogLoan::pooled_read_capacities();
    assert_eq!(pooled.len(), 4, "every loan returns to the pool");
    assert!(
        pooled.iter().all(|&c| c > 0),
        "with its capacity: {pooled:?}"
    );
    // The next four are those same four logs, and they come back empty.
    let again: Vec<Transaction<'_>> = (0..4).map(|_| stm.transaction()).collect();
    assert!(LogLoan::pooled_read_capacities().is_empty());
    for tx in &again {
        assert!(addrs.contains(&log_addr(tx)), "a pooled log was not reused");
        assert!(tx.log.reads.is_empty() && tx.log.reads.capacity() > 0);
    }
    // The pool is bounded: more loans than `POOL_DEPTH` return, only
    // `POOL_DEPTH` are kept.
    let many: Vec<Transaction<'_>> = (0..2 * POOL_DEPTH).map(|_| stm.transaction()).collect();
    drop((again, many));
    assert_eq!(LogLoan::pooled_read_capacities().len(), POOL_DEPTH);
}

#[test]
fn a_panicking_tlrw_body_leaves_no_reader_and_an_empty_log() {
    // Release before reset: the dropped attempt's read locks are undone
    // from `rw_reads` first, and only then does the log — wiped — go
    // back to the pool for the thread's next transaction.
    let stm = Stm::tlrw();
    let v = TVar::new(3u64);
    let w = TVar::new(4u64);
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.atomically(|tx| {
            tx.read(&v)?;
            tx.write(&w, 5)?;
            panic!("body dies holding a read lock");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(res.is_err());
    assert_orecs_quiescent(&stm);
    assert_eq!(LogLoan::pooled_read_capacities().len(), 1, "log came back");
    let tx = stm.transaction();
    assert!(
        LogLoan::pooled_read_capacities().is_empty(),
        "and is reused"
    );
    assert!(tx.log.rw_reads.is_empty() && tx.log.writes.is_empty() && tx.log.reads.is_empty());
    drop(tx);
    assert_eq!(w.load(), 4, "the dead attempt's write never published");
}

#[test]
fn a_log_grown_past_the_cap_is_not_pooled() {
    let stm = Stm::tl2();
    let vars: Vec<TVar<u64>> = (0..=POOL_RETAINED_CAP as u64).map(TVar::new).collect();
    let sum = stm.atomically(|tx| {
        let mut sum = 0;
        for v in &vars {
            sum += tx.read(v)?;
        }
        Ok(sum)
    });
    assert_eq!(sum, (0..=POOL_RETAINED_CAP as u64).sum::<u64>());
    assert!(
        LogLoan::pooled_read_capacities().is_empty(),
        "a {}-read log was kept",
        vars.len()
    );
    // An ordinary transaction's log is.
    stm.atomically(|tx| tx.read(&vars[0]));
    let pooled = LogLoan::pooled_read_capacities();
    assert_eq!(pooled.len(), 1);
    assert!(pooled[0] > 0 && pooled[0] <= POOL_RETAINED_CAP);
}

#[test]
fn a_transaction_in_a_thread_local_destructor_falls_back_to_a_fresh_log() {
    // Thread-local destructors run newest-registered first. The thread
    // below registers the epoch slot (a `load`), then `AtExit`, then —
    // with its first transaction — the log pool; at exit the pool is
    // therefore already gone when `AtExit::drop` runs a transaction,
    // which must build a fresh log (and drop it afterwards) instead of
    // panicking on the dead thread-local.
    struct AtExit(Arc<Stm>, TVar<u64>);
    impl Drop for AtExit {
        fn drop(&mut self) {
            let (stm, v) = (&self.0, &self.1);
            stm.atomically(|tx| tx.modify(v, |x| x + 1));
        }
    }
    thread_local! {
        static AT_EXIT: std::cell::RefCell<Option<AtExit>> =
            const { std::cell::RefCell::new(None) };
    }
    let stm = Arc::new(Stm::tl2());
    let v = TVar::new(0u64);
    let (stm2, v2) = (Arc::clone(&stm), v.clone());
    std::thread::spawn(move || {
        assert_eq!(v2.load(), 0);
        AT_EXIT.with(|slot| *slot.borrow_mut() = Some(AtExit(Arc::clone(&stm2), v2.clone())));
        stm2.atomically(|tx| tx.modify(&v2, |x| x + 10));
    })
    .join()
    .expect("neither the thread nor its destructors panic");
    assert_eq!(v.load(), 11, "the destructor's transaction committed");
}
