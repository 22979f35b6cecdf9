//! Standalone runner for the native-STM benchmarks: `cargo run --release
//! -p ptm-bench --bin native-stm-bench [-- --quick] [-- --out PATH]`;
//! without `--out` the canonical workspace-root baseline is rewritten.

use ptm_bench::harness::{baseline_path, cli, emit, run};

fn main() {
    let (quick, out) = cli();
    let out = out.unwrap_or_else(|| baseline_path("BENCH_native_stm.json"));
    let rows = run(ptm_bench::native::FAMILIES, quick);
    emit("native_stm", &rows, quick, Some(&out));
}
