//! Standalone runner for the native-STM benchmarks: `cargo run --release
//! -p ptm-bench --bin native-stm-bench [-- --quick] [-- --out PATH]
//! [-- --thread-scaling]`; without `--out` the canonical workspace-root
//! baseline is rewritten. `--thread-scaling` runs only the
//! thread-scaling families and prints the table without touching the
//! baseline file (unless `--out` names one) — the shape before/after
//! engine comparisons want.

use ptm_bench::harness::{baseline_path, cli, emit, run};
use ptm_bench::native::FAMILIES;

fn main() {
    let (quick, out) = cli();
    if std::env::args().any(|a| a == "--thread-scaling") {
        let scaling = FAMILIES.iter().filter(|f| f.name == "thread_scaling");
        emit("native_stm", &run(scaling, quick), quick, out.as_deref());
        return;
    }
    let out = out.unwrap_or_else(|| baseline_path("BENCH_native_stm.json"));
    emit("native_stm", &run(FAMILIES, quick), quick, Some(&out));
}
