//! The store under test, built and driven through public API only.

use crate::gen::{Spec, SHARDS};
use ptm_server::{DurabilityConfig, DurableKv, ServiceConfig, ShardedKv};
use ptm_stm::StatsSnapshot;
use std::io;
use std::path::Path;

pub enum Store {
    Mem(ShardedKv<u64, u64>),
    Durable(DurableKv<u64, u64>),
}

/// The balance-preserving transfer a multi runs: move 1 from the first
/// key to the last (saturating at zero), pinning the middle keys into
/// the footprint. One body for both transaction types.
macro_rules! transfer {
    ($kv:expr, $keys:expr) => {
        $kv.transact(|tx| {
            let keys: &[u64] = $keys;
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
    };
}

macro_rules! preload {
    ($kv:expr, $spec:expr, $chunk:expr) => {
        $kv.transact(|tx| {
            for &k in $chunk {
                tx.put(k, $spec.preload_value(k))?;
            }
            Ok(())
        })
    };
}

fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        algorithm: spec.algorithm,
        buckets_per_shard: spec.buckets_per_shard(),
        adaptive: None,
    }
}

impl Store {
    /// Builds the workload's store and preloads every key. A durable
    /// store logs under `wal_dir`; the workload runs it with
    /// `sync_acks` (the flush policy of the benchmark: every
    /// acknowledged write has been written with O_DSYNC,
    /// group-committed), only the ladder's buffered rung without.
    pub fn build(spec: &Spec, wal_dir: &Path, sync_acks: bool) -> io::Result<Store> {
        let store = if spec.durable {
            Store::Durable(Store::open_durable(spec, wal_dir, sync_acks)?)
        } else {
            Store::Mem(ShardedKv::with_config(service_config(spec)))
        };
        // 256 keys per transaction: a per-key preload of the durable
        // store would be 16 384 sync acks of set-up.
        let keys: Vec<u64> = (0..spec.keys).collect();
        for chunk in keys.chunks(256) {
            match &store {
                Store::Mem(kv) => preload!(kv, spec, chunk),
                Store::Durable(kv) => preload!(kv, spec, chunk),
            }
        }
        Ok(store)
    }

    pub fn open_durable(
        spec: &Spec,
        wal_dir: &Path,
        sync_acks: bool,
    ) -> io::Result<DurableKv<u64, u64>> {
        DurableKv::open(DurabilityConfig {
            service: service_config(spec),
            dir: wal_dir.to_path_buf(),
            sync_acks,
        })
    }

    pub fn kv(&self) -> &ShardedKv<u64, u64> {
        match self {
            Store::Mem(kv) => kv,
            Store::Durable(d) => d.store(),
        }
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        self.kv().get(&key)
    }

    pub fn put(&self, key: u64, value: u64) {
        match self {
            Store::Mem(kv) => kv.put(key, value),
            Store::Durable(d) => d.put(key, value),
        };
    }

    pub fn scan(&self) -> Vec<(u64, u64)> {
        self.kv().scan()
    }

    pub fn transfer(&self, keys: &[u64]) {
        match self {
            Store::Mem(kv) => transfer!(kv, keys),
            Store::Durable(d) => transfer!(d, keys),
        }
    }

    /// Engine counters summed over shards.
    pub fn stats(&self) -> StatsSnapshot {
        let kv = self.kv();
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
            // High-water marks: the store's is the worst shard's.
            total.max_chain_len = total.max_chain_len.max(d.max_chain_len);
            total.versions_retained = total.versions_retained.max(d.versions_retained);
        }
        total
    }
}
