//! Standalone runner for the data-structure benchmarks: `cargo run
//! --release -p ptm-bench --bin structs-bench [-- --quick] [-- --out PATH]`;
//! without `--out` the canonical workspace-root baseline is rewritten.

use ptm_bench::harness::{baseline_path, cli, emit, run};

fn main() {
    let (quick, out) = cli();
    let out = out.unwrap_or_else(|| baseline_path("BENCH_structs.json"));
    let rows = run(ptm_bench::structs::FAMILIES, quick);
    emit("structs", &rows, quick, Some(&out));
}
