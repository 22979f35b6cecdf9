//! The cost ladder: what one call costs at each layer boundary, from
//! the outside in.
//!
//! Single-threaded, on fresh stores of the workload's own algorithm
//! and geometry, over the workload's own key stream. Each rung times
//! batches of calls between one pair of clock reads and reports the
//! median batch, per call. A rung's *self* time is its median minus
//! its child rung's: the outside-in stand-in for a span's self time,
//! until a later change puts spans inside the program.

use crate::gen::{Spec, SHARDS};
use crate::hist;
use crate::store::Store;
use ptm_stm::wal::Wal;
use ptm_stm::{Stm, TVar};
use ptm_structs::THashMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls between two clock reads on the cheap rungs.
const BATCH: usize = 1024;

/// Nanoseconds per call: the median batch, and the first and third
/// quartile of the batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    pub ns: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn per(self, n: f64) -> Reading {
        Reading {
            ns: self.ns / n,
            q1: self.q1 / n,
            q3: self.q3 / n,
        }
    }
}

/// A self time: this rung less its child. The range is the widest the
/// two rungs' quartiles allow.
impl std::ops::Sub for Reading {
    type Output = Reading;
    fn sub(self, child: Reading) -> Reading {
        Reading {
            ns: self.ns - child.ns,
            q1: self.q1 - child.q3,
            q3: self.q3 - child.q1,
        }
    }
}

struct Budget {
    /// Stop after this long, once `min_batches` are in.
    time: Duration,
    min_batches: usize,
    max_batches: usize,
}

/// Ns per call of `f(i)` over batches of `calls`.
fn rung(calls: usize, budget: &Budget, f: impl FnMut(usize)) -> Reading {
    rung_with(calls, budget, f, || {})
}

/// [`rung`] with `between` run after every batch, off the clock.
fn rung_with(
    calls: usize,
    budget: &Budget,
    mut f: impl FnMut(usize),
    mut between: impl FnMut(),
) -> Reading {
    let mut i = 0usize;
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        let ns = t.elapsed().as_nanos() as f64 / calls as f64;
        between();
        ns
    };
    batch(); // warm: first touch of the rung's data and code
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < budget.max_batches
        && (per_call.len() < budget.min_batches || started.elapsed() < budget.time)
    {
        per_call.push(batch());
    }
    let (q1, q3) = hist::quartiles(&per_call);
    Reading {
        ns: hist::median(&per_call),
        q1,
        q3,
    }
}

/// Key pairs from the stream, one list on a single shard and one
/// across two, found through the public router.
fn pairs(store: &Store, keys: &[u64]) -> (Vec<[u64; 2]>, Vec<[u64; 2]>) {
    let (mut same, mut cross) = (Vec::new(), Vec::new());
    for w in keys.windows(2) {
        if w[0] == w[1] {
            continue;
        }
        if store.kv().shard_of(&w[0]) == store.kv().shard_of(&w[1]) {
            same.push([w[0], w[1]]);
        } else {
            cross.push([w[0], w[1]]);
        }
    }
    (same, cross)
}

/// Climbs every rung for `spec`; absent rungs (the WAL and durability
/// ones off `durable_put`) read 0.
pub fn climb(
    spec: &Spec,
    keys: &[u64],
    wal_root: &Path,
    smoke: bool,
) -> io::Result<Vec<(&'static str, Reading)>> {
    let cheap = Budget {
        time: Duration::from_millis(if smoke { 2 } else { 100 }),
        min_batches: 5,
        max_batches: 4096,
    };
    // A scan or a sync ack costs what a thousand cheap calls do.
    let dear = Budget {
        time: Duration::from_millis(if smoke { 5 } else { 200 }),
        min_batches: 5,
        max_batches: 64,
    };
    let n = keys.len();
    let key = |i: usize| keys[i % n];
    let mut out: Vec<(&'static str, Reading)> = Vec::new();

    let empty = |x: usize| x;
    let call = rung(BATCH, &cheap, |i| {
        black_box(empty(black_box(i)));
    });
    out.push(("harness.call_ns", call));

    // Engine: an empty transaction, then one read, then one write.
    let stm = Stm::new(spec.algorithm);
    let vars: Vec<TVar<u64>> = (0..spec.keys).map(TVar::new).collect();
    let noop = rung(BATCH, &cheap, |_| stm.atomically(|_| Ok(())));
    let read1 = rung(BATCH, &cheap, |i| {
        black_box(stm.atomically(|tx| tx.read(&vars[key(i) as usize])));
    });
    let write1 = rung(BATCH, &cheap, |i| {
        stm.atomically(|tx| tx.write(&vars[key(i) as usize], i as u64));
    });
    out.push(("stm.engine.txn_noop_ns", noop));
    out.push(("stm.engine.txn_read1_ns", read1));
    out.push(("stm.engine.txn_write1_ns", write1));
    out.push(("stm.engine.read_self_ns", read1 - noop));
    out.push(("stm.engine.write_commit_self_ns", write1 - noop));

    // Map: every key in one map with the store's total bucket count,
    // so bucket occupancy and memory footprint match the sharded store.
    let map: THashMap<u64, u64> = THashMap::with_buckets(SHARDS * spec.buckets_per_shard());
    for chunk in (0..spec.keys).collect::<Vec<_>>().chunks(256) {
        stm.atomically(|tx| {
            for &k in chunk {
                map.insert(tx, k, spec.preload_value(k))?;
            }
            Ok(())
        });
    }
    let map_get = rung(BATCH, &cheap, |i| {
        black_box(stm.atomically(|tx| map.get(tx, &key(i))));
    });
    let map_insert = rung(BATCH, &cheap, |i| {
        black_box(stm.atomically(|tx| map.insert(tx, key(i), i as u64)));
    });
    out.push(("structs.map.txn_get_ns", map_get));
    out.push(("structs.map.txn_insert_ns", map_insert));
    out.push(("structs.map.get_self_ns", map_get - read1));
    out.push(("structs.map.insert_self_ns", map_insert - write1));
    drop((map, vars, stm));

    // Service: the same ops through the shard router, then the
    // coordinator on one shard and on two, then a whole-store scan.
    let mem = Spec {
        durable: false,
        ..*spec
    };
    let kv = Store::build(&mem, wal_root, false)?;
    let kv_get = rung(BATCH, &cheap, |i| {
        black_box(kv.get(key(i)));
    });
    let kv_put = rung(BATCH, &cheap, |i| kv.put(key(i), i as u64));
    let (same, cross) = pairs(&kv, keys);
    let transact1 = rung(BATCH, &cheap, |i| kv.transfer(&same[i % same.len()]));
    let transact2 = rung(BATCH, &cheap, |i| kv.transfer(&cross[i % cross.len()]));
    let scan = rung(1, &dear, |_| {
        black_box(kv.scan());
    });
    out.push(("server.kv.get_ns", kv_get));
    out.push(("server.kv.put_ns", kv_put));
    out.push(("server.kv.get_self_ns", kv_get - map_get));
    out.push(("server.kv.put_self_ns", kv_put - map_insert));
    out.push(("server.kv.transact1_ns", transact1));
    out.push(("server.kv.transact2_ns", transact2));
    out.push(("server.kv.twophase_self_ns", transact2 - transact1));
    out.push(("server.kv.scan_ns_per_key", scan.per(spec.keys as f64)));
    drop(kv);

    let mut durable = [Reading::default(); 6];
    if spec.durable {
        let dir = wal_root.join(format!("ladder-{}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        // A payload the size of one logged u64 -> u64 put.
        let payload = [0x5au8; 32];
        let wal = Wal::open(dir.join("ladder.wal"))?;
        let mut flush = Ok(());
        let append = rung_with(
            BATCH,
            &dear,
            |i| {
                black_box(wal.append(i as u64, 0, &payload));
            },
            // Off the clock: keeps the pending batch bounded.
            || {
                if let Err(e) = wal.flush() {
                    flush = Err(e);
                }
            },
        );
        let append_sync = rung(16, &dear, |i| {
            let lsn = wal.append(i as u64, 0, &payload);
            if let Err(e) = wal.wait_durable(lsn) {
                flush = Err(e);
            }
        });
        flush?;
        drop(wal);
        let put_ns = |sync_acks: bool| -> io::Result<Reading> {
            let sub = dir.join(if sync_acks { "sync" } else { "buffered" });
            let d = Store::build(spec, &sub, sync_acks)?;
            let calls = if sync_acks { 16 } else { BATCH };
            Ok(rung(calls, &dear, |i| d.put(key(i), i as u64)))
        };
        let buffered = put_ns(false)?;
        let sync = put_ns(true)?;
        std::fs::remove_dir_all(&dir)?;
        durable = [
            append,
            append_sync,
            buffered,
            sync,
            buffered - kv_put,
            sync - buffered,
        ];
    }
    for (name, v) in [
        "stm.wal.append_ns",
        "stm.wal.append_sync_ns",
        "server.durability.put_buffered_ns",
        "server.durability.put_sync_ns",
        "server.durability.log_self_ns",
        "server.durability.sync_ack_self_ns",
    ]
    .into_iter()
    .zip(durable)
    {
        out.push((name, v));
    }
    Ok(out)
}
