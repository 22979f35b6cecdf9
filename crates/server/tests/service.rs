//! Service-tier integration tests: routing, cross-shard atomicity under
//! concurrency (the group-commit acceptance test), cross-shard
//! serializability (a write-skew stress), and a mixed closed loop that
//! must conserve the store's total.

use ptm_server::{ServiceConfig, ShardedKv};
use ptm_stm::Algorithm;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// The tests' PRNG: an LCG, PCG-style step.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Puts `initial` under every key of `0..keys`, so a conserved sum is
/// `keys * initial` and no transfer goes through a missing key.
fn preload(kv: &ShardedKv<u64, u64>, keys: u64, initial: u64) {
    for k in 0..keys {
        kv.put(k, initial);
    }
}

/// One consistent scan of a store preloaded with `0..keys`, checked to
/// hold every key exactly once — a retried scan that kept part of a
/// failed attempt would show a key twice — and summed.
fn scan_sum(kv: &ShardedKv<u64, u64>, keys: u64, what: &str) -> u64 {
    let entries = kv.scan();
    assert_eq!(entries.len(), keys as usize, "{what}: scan length");
    let mut seen = vec![false; keys as usize];
    for &(k, _) in &entries {
        assert!(
            !std::mem::replace(&mut seen[k as usize], true),
            "{what}: key {k} scanned twice"
        );
    }
    entries.iter().map(|&(_, v)| v).sum()
}

#[test]
fn single_key_roundtrip_every_algorithm_and_shard_count() {
    for algo in Algorithm::ALL {
        for shards in [1, 4] {
            let kv: ShardedKv<u64, u64> = ShardedKv::new(shards, algo);
            assert_eq!(kv.shard_count(), shards);
            assert_eq!(kv.get(&7), None);
            assert_eq!(kv.put(7, 70), None);
            assert_eq!(kv.put(7, 71), Some(70), "{algo:?}/{shards}");
            assert_eq!(kv.get(&7), Some(71));
            assert_eq!(kv.remove(&7), Some(71));
            assert_eq!(kv.get(&7), None, "{algo:?}/{shards}");
        }
    }
}

#[test]
fn scan_sees_every_entry_once() {
    let kv = ShardedKv::with_config(ServiceConfig {
        shards: 4,
        algorithm: Algorithm::Tl2,
        buckets_per_shard: 8,
        adaptive: None,
    });
    for k in 0u64..100 {
        kv.put(k, k * 2);
    }
    let mut entries = kv.scan();
    entries.sort_unstable();
    assert_eq!(entries.len(), 100);
    for (i, (k, v)) in entries.into_iter().enumerate() {
        assert_eq!((k, v), (i as u64, i as u64 * 2));
    }
}

#[test]
fn transact_reruns_on_logical_retry() {
    let kv: ShardedKv<u64, u64> = ShardedKv::new(2, Algorithm::Tl2);
    kv.put(1, 10);
    let mut first = true;
    let out = kv.transact(|tx| {
        if std::mem::take(&mut first) {
            // First run declines: the coordinator must roll the open
            // shard transactions back and run the body again.
            tx.get(&1)?;
            return Err(ptm_stm::Retry);
        }
        tx.get(&1)
    });
    assert_eq!(out, Some(10));
    assert!(!first, "body ran at least twice");
}

/// The acceptance test: concurrent cross-shard transfers against
/// concurrent consistent scans, for **every algorithm** and two shard
/// counts. Every scan must observe the invariant total — a torn
/// multi-shard commit (one shard published, its partner not yet) would
/// show up as a sum off by the transfer amount.
#[test]
fn cross_shard_transfers_are_never_observed_torn() {
    const KEYS: u64 = 128;
    const INITIAL: u64 = 100;
    const WRITERS: usize = 3;
    const TRANSFERS: u64 = 400;

    for algo in Algorithm::ALL {
        for shards in [2, 5] {
            let kv: ShardedKv<u64, u64> = ShardedKv::new(shards, algo);
            preload(&kv, KEYS, INITIAL);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let kv = &kv;
                        s.spawn(move || {
                            let mut state = (w as u64 + 1) * 0x9E37_79B9;
                            for _ in 0..TRANSFERS {
                                let a = next_rand(&mut state) % KEYS;
                                let mut b = next_rand(&mut state) % KEYS;
                                if b == a {
                                    b = (b + 1) % KEYS;
                                }
                                kv.transact(|tx| {
                                    let from = tx.get(&a)?.unwrap_or(0);
                                    let to = tx.get(&b)?.unwrap_or(0);
                                    let moved = from.min(3);
                                    tx.put(a, from - moved)?;
                                    tx.put(b, to + moved)?;
                                    Ok(())
                                });
                            }
                        })
                    })
                    .collect();
                let scanner = {
                    let (kv, done) = (&kv, &done);
                    s.spawn(move || {
                        let what = format!("{algo:?}/{shards} shards");
                        let mut scans = 0u64;
                        loop {
                            // Load *before* the scan so the last scan
                            // runs entirely after the writers stopped
                            // and checks the final state too.
                            let finished = done.load(Ordering::Acquire);
                            let total = scan_sum(kv, KEYS, &what);
                            assert_eq!(
                                total,
                                KEYS * INITIAL,
                                "{algo:?}/{shards} shards: torn cross-shard read"
                            );
                            scans += 1;
                            if finished {
                                return scans;
                            }
                        }
                    })
                };
                for h in writers {
                    h.join().expect("writer thread");
                }
                done.store(true, Ordering::Release);
                let scans = scanner.join().expect("scanner thread");
                assert!(scans >= 1, "{algo:?}/{shards}: scanner never completed");
            });
            let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
            assert_eq!(total, KEYS * INITIAL, "{algo:?}/{shards}: final sum");
        }
    }
}

/// Write skew, the anomaly sum conservation cannot see: pairs of keys
/// on different shards, and for each pair one transaction per thread
/// that reads both keys and writes its own key to 1 only if the pair
/// sums to 0. Serializable commits let at most one such write land per
/// pair, so every pair ends at a sum of at most 1; a cross-shard commit
/// that validated one shard before locking the other lets two land.
/// The threads meet at a barrier before each pair, so every pair is
/// raced.
#[test]
fn cross_shard_write_skew_never_commits_both_halves() {
    const PAIRS: usize = 1000;
    const THREADS: usize = 4;

    for algo in Algorithm::ALL {
        let kv: ShardedKv<u64, u64> = ShardedKv::new(2, algo);
        let mut pairs = Vec::with_capacity(PAIRS);
        let mut k = 0u64;
        while pairs.len() < PAIRS {
            if kv.shard_of(&k) != kv.shard_of(&(k + 1)) {
                pairs.push((k, k + 1));
            }
            k += 2;
        }
        for &(a, b) in &pairs {
            kv.put(a, 0);
            kv.put(b, 0);
        }
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (kv, pairs, barrier) = (&kv, &pairs, &barrier);
                s.spawn(move || {
                    for &(a, b) in pairs {
                        barrier.wait();
                        let mine = if t % 2 == 0 { a } else { b };
                        kv.transact(|tx| {
                            let sum = tx.get(&a)?.unwrap_or(0) + tx.get(&b)?.unwrap_or(0);
                            if sum == 0 {
                                tx.put(mine, 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let skewed = pairs
            .iter()
            .filter(|&&(a, b)| kv.get(&a).unwrap_or(0) + kv.get(&b).unwrap_or(0) > 1)
            .count();
        assert_eq!(skewed, 0, "{algo:?}: pairs that committed both halves");
    }
}

/// A closed loop over the whole surface at once: gets, consistent scans
/// and 3-key transfers (debit the first key, credit the last, pin the
/// middle one into the footprint) on uniformly drawn keys, from three
/// threads, for every algorithm. Transfers move balance and never
/// create it, so every scan — each concurrent with the other threads'
/// transfers — and the final state must show the preloaded total.
#[test]
fn closed_loop_of_gets_scans_and_transfers_conserves_the_sum() {
    const KEYS: u64 = 64;
    const INITIAL: u64 = 10;
    const THREADS: u64 = 3;
    const OPS: usize = 500;

    for algo in Algorithm::ALL {
        let kv: ShardedKv<u64, u64> = ShardedKv::new(3, algo);
        preload(&kv, KEYS, INITIAL);
        let (mut scans, mut cross_shard) = (0u32, 0u32);
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..THREADS)
                .map(|t| {
                    let kv = &kv;
                    s.spawn(move || {
                        let mut state = (t + 1) * 0x9E37_79B9;
                        let (mut scans, mut cross_shard) = (0u32, 0u32);
                        for _ in 0..OPS {
                            let roll = next_rand(&mut state) % 100;
                            let a = next_rand(&mut state) % KEYS;
                            if roll < 80 {
                                assert!(kv.get(&a).is_some(), "{algo:?}: preloaded key {a}");
                            } else if roll < 82 {
                                let total = scan_sum(kv, KEYS, &format!("{algo:?}"));
                                assert_eq!(total, KEYS * INITIAL, "{algo:?}: torn scan");
                                scans += 1;
                            } else {
                                let (mid, to) = ((a + 1) % KEYS, (a + 2) % KEYS);
                                kv.transact(|tx| {
                                    let from = tx.get(&a)?.unwrap_or(0);
                                    tx.get(&mid)?;
                                    let credit = tx.get(&to)?.unwrap_or(0);
                                    let moved = from.min(1);
                                    tx.put(a, from - moved)?;
                                    tx.put(to, credit + moved)?;
                                    Ok(())
                                });
                                cross_shard += u32::from(kv.shard_of(&a) != kv.shard_of(&to));
                            }
                        }
                        (scans, cross_shard)
                    })
                })
                .collect();
            for h in clients {
                let (s, c) = h.join().expect("client thread");
                scans += s;
                cross_shard += c;
            }
        });
        assert!(scans > 0, "{algo:?}: no scan ran");
        assert!(cross_shard > 0, "{algo:?}: no transfer crossed shards");
        let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
        assert_eq!(total, KEYS * INITIAL, "{algo:?}: transfers moved, not lost");
    }
}

/// The shards of an Mv store share one timestamp domain, so a scan
/// reads every shard at one snapshot and a put on any shard cannot
/// invalidate it: 200 scans against a put storm commit at their first
/// attempt, and the only writer never conflicts either.
#[test]
fn mv_scans_never_abort_under_a_put_storm() {
    const KEYS: u64 = 256;
    const SCANS: usize = 200;

    let kv: ShardedKv<u64, u64> = ShardedKv::new(4, Algorithm::Mv);
    preload(&kv, KEYS, 1);
    let before: u64 = (0..kv.shard_count())
        .map(|s| kv.shard_stats(s).snapshot().aborts)
        .sum();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut state = 0x9E37_79B9u64;
            while !done.load(Ordering::Acquire) {
                kv.put(next_rand(&mut state) % KEYS, 1);
            }
        });
        for _ in 0..SCANS {
            assert_eq!(kv.scan().len(), KEYS as usize);
        }
        done.store(true, Ordering::Release);
    });
    let aborts: u64 = (0..kv.shard_count())
        .map(|s| kv.shard_stats(s).snapshot().aborts)
        .sum();
    assert_eq!(aborts - before, 0, "a one-domain scan never aborts");
}
