//! E13 — transactional data-structure workloads with a JSON baseline.
//!
//! Four workload families over `ptm-structs`, each swept across the
//! six native algorithms and a thread ladder of 1, 2, 4, … up to the
//! machine's hardware threads by the one measurement policy of
//! [`crate::harness`], emitting
//! `BENCH_structs.json` so successive PRs can compare structure-level
//! throughput (the raw-`TVar` suite in [`crate::native`] measures the
//! engine; this suite measures the layer users actually program
//! against):
//!
//! * `map_read_mostly/<algo>/<threads>` — 90% `get` / 10% `insert` over
//!   a pre-filled bucket-striped [`THashMap`]: the payoff of striping is
//!   that disjoint keys do not conflict;
//! * `queue_prod_cons/<algo>/<threads>` — half producers, half
//!   consumers on one [`TQueue`] (rungs from two threads up): the
//!   sentinel keeps head and tail traffic disjoint while the queue is
//!   non-empty;
//! * `set_mix/<algo>/<threads>` — insert/remove/contains on a [`TSet`]
//!   with a range scan every 32nd operation (scans pull a long prefix
//!   into the read set — incremental validation pays quadratically,
//!   which is the paper's bound surfacing at the structure level);
//! * `array_transfer/<algo>/<threads>` — two-slot transfers on a
//!   [`TArray`], the structure-level bank workload.

use crate::harness::{next_rand, run_threads, thread_ladder, timed, Algo, Cells, Family, Spec};
use crate::native::ALGOS;
use ptm_stm::Stm;
use ptm_structs::{TArray, THashMap, TQueue, TSet};

/// 90% lookups / 10% inserts over a pre-filled map of `keys` keys.
fn bench_map_read_mostly(rung: &[Spec], algos: &[Algo], ops_per_thread: u64) -> Cells {
    let (_, keys, threads) = rung[0];
    let keys = keys as u64;
    let setup = |stm: &Stm| {
        let map: THashMap<u64, u64> = THashMap::with_buckets(256);
        stm.atomically(|tx| (0..keys).try_for_each(|k| map.insert(tx, k, k).map(drop)));
        map
    };
    let body = |stm: &Stm, map: &THashMap<u64, u64>, ops| {
        run_threads(threads, |t| {
            let mut rng = t as u64 + 1;
            for _ in 0..ops {
                // Independent draws: deriving op and key from one draw
                // would correlate their parities (an insert could only
                // ever hit even keys).
                let r = next_rand(&mut rng);
                let key = next_rand(&mut rng) % keys;
                if r.is_multiple_of(10) {
                    stm.atomically(|tx| map.insert(tx, key, r).map(drop));
                } else {
                    let got = stm.atomically(|tx| map.get(tx, &key));
                    assert!(got.is_some());
                }
            }
        })
    };
    let total = ops_per_thread * threads as u64;
    timed(algos, ops_per_thread, total, setup, body)
}

/// `threads / 2` producers and `threads / 2` consumers moving
/// `items_per_producer` elements each through one queue, fresh per
/// pass. `threads` must be even: the rung reports the threads spawned.
fn bench_queue_prod_cons(rung: &[Spec], algos: &[Algo], items_per_producer: u64) -> Cells {
    let threads = rung[0].2;
    assert!(
        threads >= 2 && threads.is_multiple_of(2),
        "queue_prod_cons runs producer/consumer pairs"
    );
    let pairs = threads / 2;
    let body = |stm: &Stm, _: &(), items| {
        let q: TQueue<u64> = TQueue::new();
        run_threads(threads, |t| {
            if t < pairs {
                for i in 0..items {
                    stm.atomically(|tx| q.enqueue(tx, t as u64 * 1_000_000 + i));
                }
            } else {
                let mut got = 0;
                while got < items {
                    match stm.atomically(|tx| q.dequeue(tx)) {
                        Some(_) => got += 1,
                        None => std::thread::yield_now(),
                    }
                }
            }
        })
    };
    let total = 2 * items_per_producer * pairs as u64;
    timed(algos, items_per_producer, total, |_| (), body)
}

/// Insert/remove/contains mix over a `TSet` of up to `keys` keys, with
/// an inclusive range scan every 32nd operation.
fn bench_set_mix(rung: &[Spec], algos: &[Algo], ops_per_thread: u64) -> Cells {
    let (_, keys, threads) = rung[0];
    let keys = keys as u64;
    let setup = |stm: &Stm| {
        let set: TSet<u64> = TSet::new();
        stm.atomically(|tx| {
            (0..keys)
                .step_by(2)
                .try_for_each(|k| set.insert(tx, k).map(drop))
        });
        set
    };
    let body = |stm: &Stm, set: &TSet<u64>, ops| {
        run_threads(threads, |t| {
            let mut rng = 0xBEEF + t as u64;
            for op in 0..ops {
                let key = next_rand(&mut rng) % keys;
                if op % 32 == 31 {
                    let lo = key.saturating_sub(8);
                    let scanned = stm.atomically(|tx| set.range(tx, &lo, &key));
                    assert!(scanned.len() as u64 <= keys);
                } else {
                    match next_rand(&mut rng) % 3 {
                        0 => {
                            stm.atomically(|tx| set.insert(tx, key));
                        }
                        1 => {
                            stm.atomically(|tx| set.remove(tx, &key));
                        }
                        _ => {
                            stm.atomically(|tx| set.contains(tx, &key));
                        }
                    }
                }
            }
        })
    };
    let total = ops_per_thread * threads as u64;
    timed(algos, ops_per_thread, total, setup, body)
}

/// Two-slot transfers over a `TArray` — the structure-level bank, with
/// conservation asserted after every pass.
fn bench_array_transfer(rung: &[Spec], algos: &[Algo], ops_per_thread: u64) -> Cells {
    let (_, slots, threads) = rung[0];
    let body = |stm: &Stm, arr: &TArray<u64>, ops| {
        let nanos = run_threads(threads, |t| {
            let mut rng = 7 + t as u64;
            for _ in 0..ops {
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
        let total: u64 = arr.load_all().iter().sum();
        assert_eq!(total, slots as u64 * 1_000, "conservation violated");
        nanos
    };
    let total = ops_per_thread * threads as u64;
    let setup = |_: &Stm| TArray::new(slots, 1_000u64);
    timed(algos, ops_per_thread, total, setup, body)
}

/// The suite, in emission order. `quick` shrinks every workload for CI,
/// never the row set.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "map_read_mostly",
        algos: ALGOS,
        ladder: |hw| thread_ladder("map_read_mostly", 512, hw),
        algo_major: true,
        run: |rung, algos, quick| {
            bench_map_read_mostly(rung, algos, if quick { 400 } else { 20_000 })
        },
    },
    Family {
        name: "queue_prod_cons",
        algos: ALGOS,
        // The queue workload needs at least one producer/consumer pair,
        // so its ladder starts at two threads, even on one.
        ladder: |hw| thread_ladder("queue_prod_cons", 0, hw.max(2)).split_off(1),
        algo_major: true,
        run: |rung, algos, quick| {
            bench_queue_prod_cons(rung, algos, if quick { 300 } else { 10_000 })
        },
    },
    Family {
        name: "set_mix",
        algos: ALGOS,
        ladder: |hw| thread_ladder("set_mix", 128, hw),
        algo_major: true,
        run: |rung, algos, quick| bench_set_mix(rung, algos, if quick { 200 } else { 5_000 }),
    },
    Family {
        name: "array_transfer",
        algos: ALGOS,
        ladder: |hw| thread_ladder("array_transfer", 16, hw),
        algo_major: true,
        run: |rung, algos, quick| {
            bench_array_transfer(rung, algos, if quick { 400 } else { 20_000 })
        },
    },
];
