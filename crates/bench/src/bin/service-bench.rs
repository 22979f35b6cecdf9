//! Emits the `BENCH_service.json` baseline: YCSB-style workloads over
//! the sharded KV service, tl2 / mv / adaptive × shard counts, with
//! p50/p99 latency, plus the durability cost rows. `cargo run --release
//! -p ptm-bench --bin service-bench [-- --quick] [-- --out PATH]`;
//! `--quick` shrinks the sweep for CI smoke runs, without `--out` the
//! canonical workspace-root baseline is rewritten.

use ptm_bench::harness::{baseline_path, cli, emit, run};
use ptm_bench::service::FAMILIES;

fn main() {
    let (quick, out) = cli();
    if std::env::args().any(|a| a == "--durability-only") {
        // Iterating on the durability family (or a CI durability job)
        // without paying for the algorithm sweep; table only, the
        // canonical baseline is not rewritten.
        let durability = FAMILIES.iter().filter(|f| f.name == "durability");
        emit("service", &run(durability, quick), quick, None);
        return;
    }
    let out = out.unwrap_or_else(|| baseline_path("BENCH_service.json"));
    emit("service", &run(FAMILIES, quick), quick, Some(&out));
}
