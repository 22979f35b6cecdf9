//! E11 / E12 — native-STM microbenchmarks (custom harness; the build
//! environment has no criterion).
//!
//! Run with `cargo bench -p ptm-bench --bench native_stm`; pass `quick`
//! to shrink workloads. Emits the canonical `BENCH_native_stm.json` at
//! the workspace root — the read-heavy throughput baseline successive
//! PRs compare against.

use ptm_bench::harness::{baseline_path, cli, emit, run};

fn main() {
    let (quick, _) = cli();
    let rows = run(ptm_bench::native::FAMILIES, quick);
    let out = baseline_path("BENCH_native_stm.json");
    emit("native_stm", &rows, quick, Some(&out));
}
