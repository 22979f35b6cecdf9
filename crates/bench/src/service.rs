//! The service-tier benchmark family: YCSB-style workloads against
//! `ptm-server`'s sharded KV, emitting the `BENCH_service.json`
//! baseline.
//!
//! Unlike the native microbenchmark families, the interesting output
//! here is not just throughput: each configuration also reports the
//! **p50 and p99 per-operation latency** of its best pass, because a
//! serving tier is judged by its tail — a conflict storm that costs
//! little average throughput still shows up as a p99 cliff.
//!
//! Discipline is the one policy of [`crate::harness`]: for each shard
//! count, passes are interleaved across algorithms and the reported
//! pass is the best of [`crate::harness::PHASE_PASSES`], carrying its
//! own latency percentiles. The warm-up is the preload: stores are
//! shared across passes, so every pass runs against a fully populated
//! store.

use crate::harness::{measure, Algo, Cell, Cells, Family, Spec};
use ptm_server::{
    preload, run_workload, DurabilityConfig, Mix, ServiceConfig, ShardedKv, Workload,
    WorkloadConfig,
};
use ptm_stm::Algorithm;
use std::path::{Path, PathBuf};

/// The algorithms the serving tier sweeps. On the committed six-way
/// data tl2 led every service family, norec trailed every update-heavy
/// row, and incremental and tlrw sat between the two on every row, so
/// they ordered nothing the remaining three do not: the single-version
/// leader, the multi-version engine and the controller carry the
/// comparison. The engine conformance suite, the crash-point matrix and
/// the durability tests keep all six of [`crate::native::ALGOS`].
pub const SERVICE_ALGOS: &[Algo] = &[
    ("tl2", Algorithm::Tl2),
    ("mv", Algorithm::Mv),
    ("adaptive", Algorithm::Adaptive),
];

/// One store type built three ways: without a log, opened with
/// synchronous acks (the full contract), and opened buffered
/// (`sync_acks: false`). The variant lands in the `algo` column.
const DURABILITY_VARIANTS: &[Algo] = &[
    ("tl2/off", Algorithm::Tl2),
    ("tl2/wal-sync", Algorithm::Tl2),
    ("tl2/wal-buffered", Algorithm::Tl2),
];

/// The measurement every family shares: preload each store, then hand
/// `ops_per_thread` operations of `mix` per thread to
/// [`measure`], one seed per pass; each store's best pass becomes one
/// cell with its latency percentiles.
fn bench_stores(
    stores: Vec<ShardedKv<u64, u64>>,
    mix: Mix,
    quick: bool,
    threads: usize,
    ops_per_thread: u64,
) -> Cells {
    let keys = if quick { 1_024 } else { 4_096 };
    let workload = Workload::new(WorkloadConfig {
        keys,
        zipf_theta: 0.99,
        mix,
        multi_span: 2,
    });
    let mut instances: Vec<(ShardedKv<u64, u64>, u64)> =
        stores.into_iter().map(|kv| (kv, 0x5eed)).collect();
    let best = measure(
        &mut instances,
        |(kv, _)| preload(kv, keys, 100),
        |(kv, seed)| {
            let mut stats = run_workload(kv, &workload, threads, ops_per_thread, *seed);
            *seed += 1;
            let latency = (
                stats.latencies.percentile(50.0),
                stats.latencies.percentile(99.0),
            );
            (stats.nanos, stats.ops, latency)
        },
    );
    let cell = |(nanos, ops, latency)| {
        vec![Cell {
            latency_ns: Some(latency),
            ..Cell::new(ops, nanos)
        }]
    };
    best.into_iter().map(cell).collect()
}

/// One workload shape on a plain in-memory store per algorithm.
fn bench_service_family(rung: &[Spec], algos: &[Algo], mix: Mix, quick: bool) -> Cells {
    let (_, shards, threads) = rung[0];
    let store = |&(_, algo): &Algo| ShardedKv::new(shards, algo);
    let stores = algos.iter().map(store).collect();
    let ops = if quick { 4_000 } else { 25_000 };
    bench_stores(stores, mix, quick, threads, ops)
}

/// Where the durability bench keeps its logs: a RAM-backed filesystem
/// when one exists, so the numbers measure the WAL's group-commit and
/// ack machinery rather than the benchmark host's disk.
fn durability_bench_root() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// The durability cost of one workload shape: the
/// [`DURABILITY_VARIANTS`] of one tl2 store, interleaved per pass like
/// the algorithm families.
fn bench_durability_family(rung: &[Spec], variants: &[Algo], mix: Mix, quick: bool) -> Cells {
    let (name, shards, threads) = rung[0];
    let root = durability_bench_root();
    let mut dirs = Vec::new();
    let store = |&(variant, algorithm): &Algo| {
        if variant == "tl2/off" {
            return ShardedKv::new(shards, algorithm);
        }
        let tag = variant.replace('/', "-");
        let dir = root.join(format!("ptm-bench-{name}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dirs.push(dir.clone());
        ShardedKv::open(DurabilityConfig {
            service: ServiceConfig {
                shards,
                algorithm,
                buckets_per_shard: 64,
                adaptive: None,
            },
            dir,
            sync_acks: variant == "tl2/wal-sync",
        })
        .expect("open bench WAL store")
    };
    let stores = variants.iter().map(store).collect();
    let ops = if quick { 2_000 } else { 12_000 };
    let cells = bench_stores(stores, mix, quick, threads, ops);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    cells
}

/// Shard-count ladder of the algorithm families at 4 threads; `quick`
/// drops the largest count.
fn shard_ladder(name: &'static str, quick: bool) -> Vec<Vec<Spec>> {
    let shards: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    shards.iter().map(|&s| vec![(name, s, 4)]).collect()
}

/// The suite, in emission order: an update-heavy and a read-mostly
/// shape across [`SERVICE_ALGOS`] and the shard ladder, then the
/// `durability` families (4 shards, 8 threads, both shapes), which the
/// binary's `--durability-only` flag selects by name.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "service_update_heavy",
        algos: SERVICE_ALGOS,
        ladder: |quick| shard_ladder("service_update_heavy", quick),
        algo_major: false,
        sharded: true,
        run: |rung, algos, quick| bench_service_family(rung, algos, Mix::UPDATE_HEAVY, quick),
    },
    Family {
        name: "service_read_mostly",
        algos: SERVICE_ALGOS,
        ladder: |quick| shard_ladder("service_read_mostly", quick),
        algo_major: false,
        sharded: true,
        run: |rung, algos, quick| bench_service_family(rung, algos, Mix::READ_MOSTLY, quick),
    },
    Family {
        name: "durability",
        algos: DURABILITY_VARIANTS,
        ladder: |_| vec![vec![("durability_read_mostly", 4, 8)]],
        algo_major: false,
        sharded: true,
        run: |rung, algos, quick| bench_durability_family(rung, algos, Mix::READ_MOSTLY, quick),
    },
    Family {
        name: "durability",
        algos: DURABILITY_VARIANTS,
        ladder: |_| vec![vec![("durability_update_heavy", 4, 8)]],
        algo_major: false,
        sharded: true,
        run: |rung, algos, quick| bench_durability_family(rung, algos, Mix::UPDATE_HEAVY, quick),
    },
];
