//! E13 — transactional data-structure benchmarks (custom harness; the
//! build environment has no criterion).
//!
//! Run with `cargo bench -p ptm-bench --bench structs`; pass `quick` to
//! shrink workloads. Emits the canonical `BENCH_structs.json` at the
//! workspace root — the structure-level throughput baseline successive
//! PRs compare against.

use ptm_bench::harness::{baseline_path, cli, emit, run};

fn main() {
    let (quick, _) = cli();
    let rows = run(ptm_bench::structs::FAMILIES, quick);
    let out = baseline_path("BENCH_structs.json");
    emit("structs", &rows, quick, Some(&out));
}
