//! The allocation budget of the hot paths, counted — not timed — so it
//! holds on any machine: a committed read-only operation touches the
//! heap **zero** times once its thread is warm, and an updating commit
//! only for the version nodes it publishes. Reads borrow
//! (`Transaction::read_with`), the transaction log is a per-thread
//! recycled loan, the commit's garbage buffer lives in that log, a
//! write boxes its value once, as the node the commit links, and the
//! epoch collector frees through a per-thread scratch list.
//!
//! Every budget is exact. The epoch is process-wide, so the tests run
//! one at a time (a neighbour's transactions holding it back would let
//! this thread's epoch bag outgrow its warmed-up size), and an updating
//! budget is the least count over three windows: garbage an exiting
//! thread hands over can still grow the collector's scratch list once,
//! which counts one window high, never low. A change that removes an
//! allocation moves a number down here; one that adds an allocation
//! fails here first.

use progressive_tm::server::{ServiceConfig, ShardedKv};
use progressive_tm::stm::{Algorithm, Stm, TVar};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Allocations made by this thread. Per thread, so the test
    /// harness's other threads cannot disturb a count; `const` and
    /// without a destructor, so the allocator may touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread requested (a `realloc` counts its new size),
    /// kept like `ALLOCATIONS`.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request of `size` bytes on the calling thread.
fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counters are
// plain thread-local `Cell`s whose access neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `dealloc`, and the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OPS: u64 = 1_000;
const KEYS: u64 = 256;

/// Runs the calling test alone among this file's tests. A failed test
/// poisons the lock; the others still run, and report their own counts.
fn alone() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations this thread makes while `work` runs.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes this thread requests while `work` runs.
fn bytes_in(work: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    work();
    BYTES.with(Cell::get) - before
}

/// A 4-shard store holding keys `0..KEYS`, warmed by one get per key on
/// this thread (thread-locals registered, the log pool stocked).
fn warm_store(algorithm: Algorithm) -> ShardedKv<u64, u64> {
    let kv = ShardedKv::with_config(ServiceConfig {
        shards: 4,
        algorithm,
        buckets_per_shard: 16,
        adaptive: None,
    });
    for k in 0..KEYS {
        kv.put(k, k * 10);
    }
    for k in 0..KEYS {
        assert_eq!(kv.get(&k), Some(k * 10));
    }
    kv
}

#[test]
fn a_get_allocates_nothing() {
    let _alone = alone();
    // Parent commit: 2 per get (the bucket `Vec` clone, the fresh log's
    // first read-set push).
    for algorithm in [Algorithm::Tl2, Algorithm::Mv] {
        let kv = warm_store(algorithm);
        let n = allocations_in(|| {
            for i in 0..OPS {
                // Hits and misses alike.
                std::hint::black_box(kv.get(&(i % (2 * KEYS))));
            }
        });
        assert_eq!(n, 0, "{algorithm:?}: {OPS} gets allocated {n} times");
    }
}

#[test]
fn a_read_only_transaction_allocates_nothing_except_norecs_snapshot() {
    let _alone = alone();
    let v = TVar::new(7u64);
    for (algorithm, per_read) in [
        (Algorithm::Tl2, 0),
        (Algorithm::Incremental, 0),
        (Algorithm::Tlrw, 0),
        (Algorithm::Mv, 0),
        // NOrec validates by value, so each read boxes a snapshot of
        // what it saw; that box is the read-set entry.
        (Algorithm::Norec, 1),
    ] {
        let stm = Stm::new(algorithm);
        for _ in 0..8 {
            assert_eq!(stm.atomically(|tx| tx.read(&v)), 7);
        }
        let n = allocations_in(|| {
            for _ in 0..OPS {
                std::hint::black_box(stm.atomically(|tx| tx.read(&v)));
            }
        });
        assert_eq!(
            n,
            per_read * OPS,
            "{algorithm:?}: {OPS} one-read transactions allocated {n} times"
        );
    }
}

/// The least number of allocations this thread makes over three runs of
/// `work`: the steady per-run count, with a one-off buffer growth
/// discarded.
fn steady_allocations_in(mut work: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| allocations_in(&mut work))
        .min()
        .expect("three windows")
}

#[test]
fn a_one_write_commit_allocates_only_its_node() {
    let _alone = alone();
    // Parent commit: 2 per commit (the write-set box, and the version
    // node the commit copied it into).
    let v = TVar::new(0u64);
    for algorithm in [
        Algorithm::Tl2,
        Algorithm::Incremental,
        Algorithm::Norec,
        Algorithm::Tlrw,
        Algorithm::Mv,
    ] {
        let stm = Stm::new(algorithm);
        for i in 0..4 * OPS {
            stm.atomically(|tx| tx.write(&v, i));
        }
        let n = steady_allocations_in(|| {
            for i in 0..OPS {
                stm.atomically(|tx| tx.write(&v, i));
            }
        });
        assert_eq!(
            n, OPS,
            "{algorithm:?}: {OPS} one-write commits allocated {n} times"
        );
    }
}

#[test]
fn an_in_memory_put_is_pinned_at_two() {
    let _alone = alone();
    // Overwriting an existing key on a Tl2 store: the copy-on-write
    // bucket clone, and the version node the write set holds and the
    // commit publishes. Parent commit: 3 (the write set boxed the bucket
    // apart from the node), plus the epoch collector's fresh list of
    // what each sweep freed.
    const PER_PUT: u64 = 2;
    let kv = warm_store(Algorithm::Tl2);
    // Grow the epoch bag and its scratch list to their steady size.
    for i in 0..4 * OPS {
        kv.put(i % KEYS, i);
    }
    let n = steady_allocations_in(|| {
        for i in 0..OPS {
            std::hint::black_box(kv.put(i % KEYS, i));
        }
    });
    assert_eq!(n, PER_PUT * OPS, "{OPS} puts allocated {n} times");
}

/// The least number of bytes this thread requests over three runs of
/// `work`, as [`steady_allocations_in`] counts allocations.
fn steady_bytes_in(mut work: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| bytes_in(&mut work))
        .min()
        .expect("three windows")
}

/// A bucket's value: the `Vec` a node holds.
const BUCKET: u64 = std::mem::size_of::<Vec<(u64, u64)>>() as u64;
/// What a versioned node adds to the value: its stamp and its link.
const VERSION_WORDS: u64 = 16;

#[test]
fn a_put_requests_its_bucket_clone_and_one_node_of_the_instances_kind() {
    let _alone = alone();
    // A one-key store, so the bucket a put clones holds one entry. Tl2
    // serves no snapshots and publishes the bucket alone; Mv publishes
    // it with a stamp and a link. Parent commit: 56 bytes a put on
    // both (every node was versioned).
    const ENTRY: u64 = std::mem::size_of::<(u64, u64)>() as u64;
    for (algorithm, node) in [
        (Algorithm::Tl2, BUCKET),
        (Algorithm::Mv, BUCKET + VERSION_WORDS),
    ] {
        let kv = ShardedKv::with_config(ServiceConfig {
            shards: 1,
            algorithm,
            buckets_per_shard: 16,
            adaptive: None,
        });
        for i in 0..4 * OPS {
            kv.put(0, i);
        }
        let n = steady_bytes_in(|| {
            for i in 0..OPS {
                std::hint::black_box(kv.put(0, i));
            }
        });
        assert_eq!(
            n,
            (ENTRY + node) * OPS,
            "{algorithm:?}: {OPS} puts requested {n} bytes"
        );
    }
}

#[test]
fn a_new_variable_requests_one_word_of_cell_and_a_bare_node() {
    let _alone = alone();
    // The `Arc`'s two counts and the head word, then the value alone.
    // Parent commit: 56 bytes (an eviction flag beside the head, and a
    // versioned node).
    const CELL: u64 = 3 * 8;
    let n = bytes_in(|| drop(std::hint::black_box(TVar::new(0u64))));
    assert_eq!(n, CELL + 8, "TVar::new(0u64) requested {n} bytes");
}

#[test]
fn a_scan_fills_one_buffer() {
    let _alone = alone();
    // One warm `scan()` of the 256-key store: the result vector, sized
    // from the last scan's length, and the cross-shard transaction's
    // slot table, which its group commit reuses in place as the group.
    // Mv siblings share nothing on the heap: the group commit reads
    // "wrote nothing, one `rv`" off its members. Parent commit: 8 (the
    // result vector doubled from 4 to 256 entries, 7 calls).
    const SCANS: u64 = 100;
    for algorithm in [Algorithm::Tl2, Algorithm::Mv] {
        let kv = warm_store(algorithm);
        for _ in 0..8 {
            assert_eq!(kv.scan().len(), KEYS as usize);
        }
        let n = allocations_in(|| {
            for _ in 0..SCANS {
                std::hint::black_box(kv.scan());
            }
        });
        assert_eq!(
            n,
            2 * SCANS,
            "{algorithm:?}: {SCANS} scans allocated {n} times"
        );
    }
}

/// One scan of `kv`, sorted by key, and the allocations it made.
fn counted_scan(kv: &ShardedKv<u64, u64>) -> (Vec<(u64, u64)>, u64) {
    let mut out = Vec::new();
    let n = allocations_in(|| out = kv.scan());
    out.sort_unstable();
    (out, n)
}

#[test]
fn the_scan_size_hint_never_changes_what_a_scan_returns() {
    let _alone = alone();
    // The store grows by a quarter, past the hint's 1/16 slack: the
    // next scan regrows its vector once and still returns every key
    // exactly once. It shrinks by half: the scan after the one that
    // saw it is sized to the survivors.
    for algorithm in [Algorithm::Tl2, Algorithm::Mv] {
        let kv = warm_store(algorithm);
        assert_eq!(kv.scan().len(), KEYS as usize);

        const GROWN: u64 = KEYS + KEYS / 4;
        for k in KEYS..GROWN {
            kv.put(k, k * 10);
        }
        let all: Vec<(u64, u64)> = (0..GROWN).map(|k| (k, k * 10)).collect();
        let (out, n) = counted_scan(&kv);
        assert_eq!(out, all, "{algorithm:?}: the first scan after growth");
        assert!(
            n <= 3,
            "{algorithm:?}: the first scan after growth allocated {n} times"
        );
        let (out, n) = counted_scan(&kv);
        assert_eq!(out, all, "{algorithm:?}: the second scan after growth");
        assert_eq!(
            n, 2,
            "{algorithm:?}: the second scan after growth allocated {n} times"
        );

        for k in (0..GROWN).step_by(2) {
            assert_eq!(kv.remove(&k), Some(k * 10));
        }
        let survivors: Vec<(u64, u64)> = (1..GROWN).step_by(2).map(|k| (k, k * 10)).collect();
        let (out, _) = counted_scan(&kv);
        assert_eq!(
            out, survivors,
            "{algorithm:?}: the first scan after removal"
        );
        let (out, _) = counted_scan(&kv);
        let (len, capacity) = (out.len(), out.capacity());
        assert_eq!(
            out, survivors,
            "{algorithm:?}: the second scan after removal"
        );
        assert!(
            capacity <= len + len / 16 + 1,
            "{algorithm:?}: {len} survivors in a vector of capacity {capacity}"
        );
    }
}

/// Stripes per instance in the space tests: the default.
const STRIPES: usize = 1024;

/// What building an instance may request besides its lock words: the
/// statistics' 16 cache-padded counter shards (4 KB), the padded clock,
/// and an Mv or Adaptive instance's snapshot registry and adaptive
/// state, a few hundred bytes between them. The waiter list is an empty
/// `Vec` and requests nothing until the first park. Less than 40 bytes
/// of waiter state per stripe (40 KB at 1 024 stripes), so waiter state
/// that grew with the stripe count again fails here.
const INSTANCE_ALLOWANCE: u64 = 8 * 1024;

#[test]
fn an_instance_requests_its_lock_words_and_a_fixed_allowance() {
    let _alone = alone();
    // Parent commit: 131 072 bytes of padded words and 40 960 of waiter
    // buckets per instance, NOrec's one-stripe table aside.
    for algorithm in Algorithm::ALL {
        // One 8-byte word a stripe; Tlrw's readers RMW their words, so
        // its table keeps one word per 128-byte line pair.
        let per_stripe = if algorithm == Algorithm::Tlrw { 128 } else { 8 };
        let words = per_stripe * STRIPES as u64;
        let n = bytes_in(|| drop(Stm::builder(algorithm).orec_stripes(STRIPES).build()));
        assert!(
            n <= words + INSTANCE_ALLOWANCE,
            "{algorithm:?}: building an instance requested {n} bytes, \
             over {words} of words and {INSTANCE_ALLOWANCE} allowed besides"
        );
    }
}

#[test]
fn the_first_park_stays_under_1_kb_and_a_second_requests_nothing() {
    let _alone = alone();
    // A waiter table built at the first park, or anything allocated per
    // park, fails here.
    let mut stm = None;
    let built = bytes_in(|| stm = Some(Stm::builder(Algorithm::Tl2).orec_stripes(STRIPES).build()));
    let words = 8 * STRIPES as u64;
    assert!(
        built <= words + INSTANCE_ALLOWANCE,
        "building the instance and its waiter list requested {built} bytes, \
         over {words} of words and {INSTANCE_ALLOWANCE} allowed besides"
    );
    let stm = Arc::new(stm.expect("built"));
    let v = Arc::new(TVar::new(0u64));
    let waiter = {
        let (stm, v) = (Arc::clone(&stm), Arc::clone(&v));
        std::thread::spawn(move || {
            // Warm: the thread's log pool and epoch record.
            assert_eq!(stm.atomically(|tx| tx.read(&v)), 0);
            let wait_for = |target: u64| {
                bytes_in(|| {
                    stm.atomically(|tx| {
                        if tx.read(&v)? < target {
                            tx.retry()
                        } else {
                            Ok(())
                        }
                    })
                })
            };
            [wait_for(1), wait_for(2)]
        })
    };
    // Each commit comes once the waiter is parked on it.
    for target in 1..=2 {
        while stm.stats().snapshot().parks < target {
            std::thread::yield_now();
        }
        stm.atomically(|tx| tx.write(&v, target));
    }
    let [first, second] = waiter.join().expect("waiter");
    let snap = stm.stats().snapshot();
    assert_eq!((snap.parks, snap.spurious_wakes), (2, 0), "{snap}");
    // The first park grows the list to hold its entry; the second finds
    // the room it left.
    assert!(
        first < 1024,
        "the first park requested {first} bytes: a table built at the park?"
    );
    assert_eq!(second, 0, "the second park requested {second} bytes");
}
