//! The contract benchmark's view of the public API, as a compile check.
//!
//! `benchmark/` (declared by `BENCHMARK.json`) builds against
//! `ptm-stm`, `ptm-structs` and `ptm-server` through their public API,
//! and no PR but the benchmark PR may edit it. This file writes every
//! item and call shape `benchmark/src` uses, once, with the harness's
//! argument and result types, so a change that would break the harness
//! fails `cargo test` here instead: a new public field on `ServiceConfig`
//! or `DurabilityConfig` (the harness writes both as full literals), a
//! renamed method, a `StatsSnapshot` field the harness sums, or a
//! `Retry` that `?` no longer propagates. Each shape also runs once, on
//! a tiny store.
//!
//! Derived from `benchmark/src` with
//!
//! ```text
//! grep -rn "ptm_\(stm\|structs\|server\)" benchmark/src
//! grep -rnE "ShardedKv|DurableKv|Stm::|Algorithm::|THashMap|wal\.|total\.|\
//!   \.(transact|shard_of|shard_count|shard_stats|store|checkpoint|recovery_report|since)\(" benchmark/src
//! ```
//!
//! and the `tx.get` / `tx.put` / `map.get` / `map.insert` calls inside
//! the closures those lines open. Rerun both when `benchmark/` changes.

use ptm_server::{DurabilityConfig, DurableKv, ServiceConfig, ShardedKv};
use ptm_stm::wal::Wal;
use ptm_stm::{Algorithm, StatsSnapshot, Stm, TVar};
use ptm_structs::THashMap;
use std::io;
use std::path::{Path, PathBuf};

/// `store.rs`: the service config, as a complete literal.
fn service_config(algorithm: Algorithm) -> ServiceConfig {
    let (shards, buckets_per_shard): (usize, usize) = (2, 4);
    ServiceConfig {
        shards,
        algorithm,
        buckets_per_shard,
        adaptive: None,
    }
}

/// `store.rs`: the durable store, its config a complete literal.
fn open_durable(dir: &Path, sync_acks: bool) -> io::Result<DurableKv<u64, u64>> {
    DurableKv::open(DurabilityConfig {
        service: service_config(Algorithm::Tl2),
        dir: dir.to_path_buf(),
        sync_acks,
    })
}

/// `store.rs`: the balance-preserving transfer, `?` on every operation.
fn transfer(kv: &ShardedKv<u64, u64>, keys: &[u64]) {
    kv.transact(|tx| {
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        let from = tx.get(&first)?.unwrap_or(0);
        let to = tx.get(&last)?.unwrap_or(0);
        for k in &keys[1..keys.len() - 1] {
            tx.get(k)?;
        }
        let moved = from.min(1);
        tx.put(first, from - moved)?;
        tx.put(last, to + moved)?;
        Ok(())
    })
}

/// `store.rs`: engine counters summed over shards — the fourteen fields
/// the harness reads.
fn stats(kv: &ShardedKv<u64, u64>) -> StatsSnapshot {
    let mut total = StatsSnapshot::default();
    for s in 0..kv.shard_count() {
        let d = kv.shard_stats(s).snapshot();
        total.commits += d.commits;
        total.aborts += d.aborts;
        total.validation_probes += d.validation_probes;
        total.reads += d.reads;
        total.snapshot_reads += d.snapshot_reads;
        total.chain_walk_steps += d.chain_walk_steps;
        total.versions_trimmed += d.versions_trimmed;
        total.parks += d.parks;
        total.spurious_wakes += d.spurious_wakes;
        total.log_appends += d.log_appends;
        total.fsyncs += d.fsyncs;
        total.group_commit_records += d.group_commit_records;
        total.max_chain_len = total.max_chain_len.max(d.max_chain_len);
        total.versions_retained = total.versions_retained.max(d.versions_retained);
    }
    total
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("contract-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn the_in_memory_store_takes_every_harness_call() {
    for algorithm in [Algorithm::Tl2, Algorithm::Mv] {
        let kv: ShardedKv<u64, u64> = ShardedKv::with_config(service_config(algorithm));
        kv.transact(|tx| {
            for k in 0..8u64 {
                tx.put(k, 10)?;
            }
            Ok(())
        });
        let _: Option<u64> = kv.put(7, 10);
        let before = stats(&kv);
        transfer(&kv, &[0, 3, 5]);
        let got: Option<u64> = kv.get(&5);
        assert_eq!(got, Some(11), "{algorithm:?}");
        let all: Vec<(u64, u64)> = kv.scan();
        assert_eq!(all.iter().map(|&(_, v)| v).sum::<u64>(), 80);
        let shard: usize = kv.shard_of(&3);
        assert!(shard < kv.shard_count());
        let d = stats(&kv).since(&before);
        assert!(d.commits >= 1, "{algorithm:?}: {d}");
    }
}

#[test]
fn the_durable_store_takes_every_harness_call() {
    let dir = scratch_dir("store");
    let mut kv = open_durable(&dir, true).expect("open");
    let store: &ShardedKv<u64, u64> = kv.store();
    store.put(1, 5);
    transfer(&kv, &[1, 2]);
    kv.checkpoint().expect("checkpoint");
    kv.put(2, 9);
    drop(kv);
    let reopened = open_durable(&dir, true).expect("reopen");
    let applied = reopened.recovery_report().records_applied as u64;
    assert_eq!(applied, 1, "one put since the checkpoint");
    assert_eq!(reopened.get(&2), Some(9));
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn the_ladder_takes_every_engine_map_and_log_call() -> io::Result<()> {
    // Engine: `Stm::new`, `atomically`, `read`, `write`.
    let stm = Stm::new(Algorithm::Tl2);
    let vars: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
    stm.atomically(|_| Ok(()));
    stm.atomically(|tx| tx.write(&vars[1], 7));
    let read: u64 = stm.atomically(|tx| tx.read(&vars[1]));
    assert_eq!(read, 7);

    // Map: `with_buckets`, then `insert` and `get` with `?`.
    let map: THashMap<u64, u64> = THashMap::with_buckets(8);
    stm.atomically(|tx| {
        for k in 0..4u64 {
            map.insert(tx, k, k + 1)?;
        }
        Ok(())
    });
    let old: Option<u64> = stm.atomically(|tx| map.insert(tx, 3, 9));
    assert_eq!(old, Some(4));
    let got: Option<u64> = stm.atomically(|tx| map.get(tx, &3));
    assert_eq!(got, Some(9));

    // Log: `open`, `append`, `flush`, `wait_durable`.
    let dir = scratch_dir("wal");
    std::fs::create_dir_all(&dir)?;
    let wal = Wal::open(dir.join("ladder.wal"))?;
    let payload = [0x5au8; 32];
    let _: u64 = wal.append(1, 0, &payload);
    wal.flush()?;
    let lsn: u64 = wal.append(2, 0, &payload);
    wal.wait_durable(lsn)?;
    drop(wal);
    std::fs::remove_dir_all(&dir)
}
