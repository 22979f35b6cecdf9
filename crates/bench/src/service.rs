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
//! Discipline matches the other baselines: for each shard count, passes
//! are **interleaved across algorithms** (pass k of every algorithm
//! before pass k+1 of any, so a bursty background neighbour taxes all
//! algorithms alike) and the reported pass is the best of
//! [`PHASE_PASSES`] by throughput, carrying its own latency
//! percentiles.

use crate::native::{baseline_path, ALGOS, PHASE_PASSES};
use ptm_server::{
    preload, run_workload, DurabilityConfig, Mix, ServiceConfig, ShardedKv, Workload,
    WorkloadConfig, WorkloadStats,
};
use ptm_stm::Algorithm;
use std::path::{Path, PathBuf};

/// One measured service configuration, with latency percentiles.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Bench family name (`service_update_heavy`, ...).
    pub name: String,
    /// Algorithm name.
    pub algo: String,
    /// Shard count.
    pub shards: usize,
    /// Worker thread count.
    pub threads: usize,
    /// Completed operations across all threads (best pass).
    pub ops: u64,
    /// Wall-clock nanoseconds of the best pass.
    pub nanos: u128,
    /// Median per-operation latency of the best pass, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-operation latency of the best pass.
    pub p99_ns: u64,
}

impl ServiceResult {
    /// Operations per second of the best pass.
    pub fn ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 * 1e9 / self.nanos as f64
    }
}

/// The committed baseline's canonical path.
pub fn service_baseline_path() -> String {
    baseline_path("BENCH_service.json")
}

fn best_pass(mut passes: Vec<WorkloadStats>) -> WorkloadStats {
    passes
        .drain(..)
        .max_by(|a, b| {
            a.ops_per_sec()
                .partial_cmp(&b.ops_per_sec())
                .expect("finite throughput")
        })
        .expect("at least one pass")
}

/// The measurement every family shares, now that every store is one
/// type: preload each labelled store, run [`PHASE_PASSES`] passes of
/// `workload` interleaved across the stores, and report each store's
/// best pass as a `name` row with its label in the `algo` column.
fn measure(
    name: &str,
    stores: &[(&str, ShardedKv<u64, u64>)],
    workload: &Workload,
    threads: usize,
    ops_per_thread: u64,
) -> Vec<ServiceResult> {
    // Stores are shared across passes, so later passes run against a
    // warmed (fully populated) store.
    for (_, kv) in stores {
        preload(kv, workload.config().keys, 100);
    }
    let mut passes: Vec<Vec<WorkloadStats>> = stores.iter().map(|_| Vec::new()).collect();
    for pass in 0..PHASE_PASSES {
        for (i, (_, kv)) in stores.iter().enumerate() {
            let seed = 0x5eed + pass as u64;
            passes[i].push(run_workload(kv, workload, threads, ops_per_thread, seed));
        }
    }
    let rows = stores
        .iter()
        .zip(passes)
        .map(|((label, kv), store_passes)| {
            let mut best = best_pass(store_passes);
            ServiceResult {
                name: name.to_string(),
                algo: (*label).to_string(),
                shards: kv.shard_count(),
                threads,
                ops: best.ops,
                nanos: best.nanos,
                p50_ns: best.latencies.percentile(50.0),
                p99_ns: best.latencies.percentile(99.0),
            }
        });
    rows.collect()
}

/// Runs one named workload shape across every algorithm and the given
/// shard counts, passes interleaved across algorithms per shard count.
pub fn bench_service_family(
    name: &str,
    mix: Mix,
    shard_counts: &[usize],
    threads: usize,
    ops_per_thread: u64,
    keys: u64,
) -> Vec<ServiceResult> {
    let workload = Workload::new(WorkloadConfig {
        keys,
        zipf_theta: 0.99,
        mix,
        multi_span: 2,
    });
    let mut out = Vec::new();
    for &shards in shard_counts {
        let stores: Vec<(&str, ShardedKv<u64, u64>)> = ALGOS
            .iter()
            .map(|&(algo_name, algo)| (algo_name, ShardedKv::new(shards, algo)))
            .collect();
        out.extend(measure(name, &stores, &workload, threads, ops_per_thread));
    }
    out
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

/// The durability cost benchmark: one algorithm (tl2), 4 shards, 8
/// threads, both workload shapes, one store type built three ways —
/// without a log, opened with synchronous acks (the full contract), and
/// opened buffered (`sync_acks: false`). Variants are interleaved per
/// pass like the algorithm families, and the variant lands in the
/// `algo` column (`tl2/off`, `tl2/wal-sync`, `tl2/wal-buffered`).
pub fn bench_durability_family(quick: bool) -> Vec<ServiceResult> {
    let threads = 8;
    let shards = 4;
    let ops: u64 = if quick { 2_000 } else { 12_000 };
    let keys: u64 = if quick { 1_024 } else { 4_096 };
    let root = durability_bench_root();
    let mut out = Vec::new();
    for (mix_name, mix) in [
        ("read_mostly", Mix::READ_MOSTLY),
        ("update_heavy", Mix::UPDATE_HEAVY),
    ] {
        let workload = Workload::new(WorkloadConfig {
            keys,
            zipf_theta: 0.99,
            mix,
            multi_span: 2,
        });
        let mut dirs = Vec::new();
        let mut open_wal = |tag: &str, sync_acks: bool| {
            let dir = root.join(format!(
                "ptm-bench-durab-{mix_name}-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dirs.push(dir.clone());
            ShardedKv::open(DurabilityConfig {
                service: ServiceConfig {
                    shards,
                    algorithm: Algorithm::Tl2,
                    buckets_per_shard: 64,
                    adaptive: None,
                },
                dir,
                sync_acks,
            })
            .expect("open bench WAL store")
        };
        let stores: [(&str, ShardedKv<u64, u64>); 3] = [
            ("tl2/off", ShardedKv::new(shards, Algorithm::Tl2)),
            ("tl2/wal-sync", open_wal("sync", true)),
            ("tl2/wal-buffered", open_wal("buf", false)),
        ];
        let name = format!("durability_{mix_name}");
        out.extend(measure(&name, &stores, &workload, threads, ops));
        drop(stores);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    out
}

/// The full service suite: an update-heavy and a read-mostly shape, two
/// (or three) shard counts, all six algorithms, plus the durability
/// cost family. `quick` shrinks the op counts and drops the largest
/// shard count for CI smoke runs.
pub fn run_all(quick: bool) -> Vec<ServiceResult> {
    let threads = 4;
    let ops: u64 = if quick { 4_000 } else { 25_000 };
    let keys: u64 = if quick { 1_024 } else { 4_096 };
    let shard_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let mut out = bench_service_family(
        "service_update_heavy",
        Mix::UPDATE_HEAVY,
        shard_counts,
        threads,
        ops,
        keys,
    );
    out.extend(bench_service_family(
        "service_read_mostly",
        Mix::READ_MOSTLY,
        shard_counts,
        threads,
        ops,
        keys,
    ));
    out.extend(bench_durability_family(quick));
    out
}

/// Renders results as an aligned text table.
pub fn render_table(results: &[ServiceResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<24} {:>12} {:>7} {:>8} {:>10} {:>12} {:>10} {:>10}\n",
        "bench", "algo", "shards", "threads", "ops", "ops/sec", "p50(ns)", "p99(ns)"
    ));
    for r in results {
        s.push_str(&format!(
            "{:<24} {:>12} {:>7} {:>8} {:>10} {:>12.0} {:>10} {:>10}\n",
            r.name,
            r.algo,
            r.shards,
            r.threads,
            r.ops,
            r.ops_per_sec(),
            r.p50_ns,
            r.p99_ns
        ));
    }
    s
}

/// Serializes results as the `BENCH_service.json` baseline document
/// (same envelope as the other baselines, plus the latency fields).
pub fn to_json(results: &[ServiceResult], quick: bool) -> String {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"service\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"algo\": \"{}\", \"shards\": {}, \"threads\": {}, \"ops\": {}, \"nanos\": {}, \"ops_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}{sep}\n",
            r.name, r.algo, r.shards, r.threads, r.ops, r.nanos, r.ops_per_sec(), r.p50_ns, r.p99_ns
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Run, print, and write the baseline to `path`.
pub fn run_and_emit(quick: bool, path: &str) {
    eprintln!(
        "running service benchmarks ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let results = run_all(quick);
    print!("{}", render_table(&results));
    let json = to_json(&results, quick);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_json_has_the_latency_fields() {
        let r = ServiceResult {
            name: "service_update_heavy".into(),
            algo: "tl2".into(),
            shards: 4,
            threads: 4,
            ops: 1000,
            nanos: 2_000_000,
            p50_ns: 900,
            p99_ns: 12_000,
        };
        let json = to_json(&[r], true);
        assert!(json.contains("\"bench\": \"service\""), "{json}");
        assert!(json.contains("\"p50_ns\": 900"), "{json}");
        assert!(json.contains("\"p99_ns\": 12000"), "{json}");
        assert!(json.contains("\"shards\": 4"), "{json}");
    }

    #[test]
    fn family_reports_every_algorithm_per_shard_count() {
        let out = bench_service_family("service_smoke", Mix::READ_MOSTLY, &[1, 2], 2, 50, 128);
        assert_eq!(out.len(), 2 * ALGOS.len());
        for r in &out {
            assert!(r.ops > 0);
            assert!(r.p99_ns >= r.p50_ns, "{r:?}");
        }
    }
}
