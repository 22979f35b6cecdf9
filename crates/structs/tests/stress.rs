//! Multi-threaded stress for all four structures under all six
//! validation algorithms (visible Tlrw reads and the adaptive mode
//! controller included): determinate invariants after concurrent churn,
//! plus a commit-order linearizability check driven by an in-transaction
//! stamp counter.

use ptm_stm::{Algorithm, Stm, TVar};
use ptm_structs::{TArray, THashMap, TQueue, TSet};
use std::collections::HashMap;
use std::sync::Arc;

/// Small deterministic PRNG so the stress mixes are reproducible.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

#[test]
fn array_transfers_conserve_sum_under_contention() {
    for algo in Algorithm::ALL {
        let stm = Arc::new(Stm::new(algo));
        let arr = TArray::new(8, 1_000u64);
        let threads = 4;
        let per = 400;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let arr = arr.clone();
                s.spawn(move || {
                    let mut rng = t as u64 + 1;
                    for _ in 0..per {
                        let from = next_rand(&mut rng) as usize % arr.len();
                        let to = next_rand(&mut rng) as usize % arr.len();
                        if from == to {
                            continue;
                        }
                        stm.atomically(|tx| {
                            let a = arr.get(tx, from)?;
                            let amt = a.min(3);
                            arr.update(tx, from, |x| x - amt)?;
                            arr.update(tx, to, |x| x + amt)
                        });
                    }
                });
            }
        });
        let total: u64 = arr.load_all().iter().sum();
        assert_eq!(total, 8_000, "{algo:?}");
    }
}

#[test]
fn map_disjoint_key_ranges_survive_concurrent_churn() {
    for algo in Algorithm::ALL {
        let stm = Arc::new(Stm::new(algo));
        let map: THashMap<u64, u64> = THashMap::with_buckets(16);
        let threads = 4u64;
        let keys_per_thread = 64u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let map = map.clone();
                s.spawn(move || {
                    let base = t * 1_000;
                    // Insert a private key range, then delete the odd half.
                    for k in 0..keys_per_thread {
                        stm.atomically(|tx| map.insert(tx, base + k, k * k));
                    }
                    for k in (1..keys_per_thread).step_by(2) {
                        let gone = stm.atomically(|tx| map.remove(tx, &(base + k)));
                        assert_eq!(gone, Some(k * k));
                    }
                });
            }
        });
        let survivors = (threads * keys_per_thread / 2) as usize;
        assert_eq!(stm.atomically(|tx| map.len(tx)), survivors, "{algo:?}");
        for t in 0..threads {
            for k in (0..keys_per_thread).step_by(2) {
                let got = stm.atomically(|tx| map.get(tx, &(t * 1_000 + k)));
                assert_eq!(got, Some(k * k), "{algo:?}");
            }
        }
    }
}

#[test]
fn queue_producers_consumers_deliver_exactly_once_in_fifo_order() {
    for algo in Algorithm::ALL {
        let stm = Arc::new(Stm::new(algo));
        let q: TQueue<u64> = TQueue::new();
        let producers = 3u64;
        let consumers = 3usize;
        let per_producer = 200u64;
        let total = producers * per_producer;
        let consumed: Vec<Vec<u64>> = std::thread::scope(|s| {
            for p in 0..producers {
                let stm = Arc::clone(&stm);
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        // Tag each element with its producer and sequence.
                        stm.atomically(|tx| q.enqueue(tx, p * 1_000_000 + i));
                    }
                });
            }
            let done = TVar::new(0u64);
            let handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let stm = Arc::clone(&stm);
                    let q = q.clone();
                    let done = done.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let item = stm.atomically(|tx| match q.dequeue(tx)? {
                                Some(x) => Ok(Some(x)),
                                None => {
                                    // Count the pops so far to decide completion.
                                    let d = tx.read(&done)?;
                                    Ok(if d >= total { None } else { Some(u64::MAX) })
                                }
                            });
                            match item {
                                None => break,
                                Some(u64::MAX) => std::thread::yield_now(),
                                Some(x) => {
                                    stm.atomically(|tx| tx.modify(&done, |d| d + 1));
                                    got.push(x);
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = consumed.iter().flatten().copied().collect();
        assert_eq!(all.len() as u64, total, "{algo:?}");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, total, "duplicated delivery in {algo:?}");
        // FIFO per producer: within one consumer's stream, elements of any
        // single producer must appear in increasing sequence order.
        for stream in &consumed {
            let mut last: HashMap<u64, u64> = HashMap::new();
            for &x in stream {
                let (p, i) = (x / 1_000_000, x % 1_000_000);
                if let Some(&prev) = last.get(&p) {
                    assert!(prev < i, "producer {p} reordered in {algo:?}");
                }
                last.insert(p, i);
            }
        }
        assert!(stm.atomically(|tx| q.is_empty(tx)));
    }
}

#[test]
fn set_concurrent_insert_remove_reaches_expected_membership() {
    for algo in Algorithm::ALL {
        let stm = Arc::new(Stm::new(algo));
        let set: TSet<u64> = TSet::new();
        let threads = 4u64;
        let per = 48u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let set = set.clone();
                s.spawn(move || {
                    // Interleaved key space: thread t owns keys ≡ t (mod threads).
                    for i in 0..per {
                        assert!(stm.atomically(|tx| set.insert(tx, i * threads + t)));
                    }
                    for i in (0..per).step_by(3) {
                        assert!(stm.atomically(|tx| set.remove(tx, &(i * threads + t))));
                    }
                });
            }
        });
        let snap = stm.atomically(|tx| set.snapshot(tx));
        let expected: Vec<u64> = (0..per * threads)
            .filter(|k| !(k / threads).is_multiple_of(3))
            .collect();
        assert_eq!(snap, expected, "{algo:?}");
        // Range scans agree with the snapshot on a sub-interval.
        let lo = expected[expected.len() / 4];
        let hi = expected[expected.len() / 2];
        let want: Vec<u64> = expected
            .iter()
            .copied()
            .filter(|k| (lo..=hi).contains(k))
            .collect();
        assert_eq!(
            stm.atomically(|tx| set.range(tx, &lo, &hi)),
            want,
            "{algo:?}"
        );
    }
}

#[test]
fn map_ops_linearize_in_commit_stamp_order() {
    // Every transaction bumps a shared stamp TVar *inside* the same
    // transaction as its map operation, so the stamp order IS the
    // serialization order. Replaying the ops against a std HashMap in
    // stamp order must reproduce every observed result exactly.
    for algo in Algorithm::ALL {
        let stm = Arc::new(Stm::new(algo));
        let map: THashMap<u64, u64> = THashMap::with_buckets(8);
        let stamp = TVar::new(0u64);
        let threads = 4;
        let per = 150;
        // Per-thread op log: (stamp, kind, key, value, observed result).
        type OpLog = Vec<(u64, u8, u64, u64, Option<u64>)>;
        let logs: Vec<OpLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let stm = Arc::clone(&stm);
                    let map = map.clone();
                    let stamp = stamp.clone();
                    s.spawn(move || {
                        let mut rng = 0xACE0 + t as u64;
                        let mut log = Vec::new();
                        for _ in 0..per {
                            let kind = (next_rand(&mut rng) % 3) as u8;
                            let key = next_rand(&mut rng) % 16;
                            let val = next_rand(&mut rng) % 1_000;
                            let (at, out) = stm.atomically(|tx| {
                                let at = tx.read(&stamp)?;
                                tx.write(&stamp, at + 1)?;
                                let out = match kind {
                                    0 => map.insert(tx, key, val)?,
                                    1 => map.remove(tx, &key)?,
                                    _ => map.get(tx, &key)?,
                                };
                                Ok((at, out))
                            });
                            log.push((at, kind, key, val, out));
                        }
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<_> = logs.into_iter().flatten().collect();
        all.sort_unstable_by_key(|e| e.0);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (at, kind, key, val, out) in all {
            let expected = match kind {
                0 => reference.insert(key, val),
                1 => reference.remove(&key),
                _ => reference.get(&key).copied(),
            };
            assert_eq!(out, expected, "stamp {at} diverged under {algo:?}");
        }
    }
}
