//! Binary entry point for the paper tables:
//! `cargo run --release -p ptm-bench --bin paper-tables [-- --quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ptm_bench::print_all_tables(quick);
}
