//! # ptm-bench — the experiment harness
//!
//! One module per paper-table experiment (the E-numbers are this
//! repo's experiment index; ARCHITECTURE.md maps them to the paper's
//! claims):
//!
//! * [`figure1`] — E1/E2: the executions of Figure 1 and Claim 4,
//!   replayed step by step;
//! * [`validation`] — E3/E7/E8: Theorem 3(1)'s step-complexity sweep with
//!   the DAP and read-visibility ablations;
//! * [`space`] — E4: Theorem 3(2)'s distinct-base-objects sweep;
//! * [`rmr`] — E5/E6: Theorem 9's RMR accounting of the Algorithm 1
//!   reduction against the classic mutex baselines.
//!
//! The `paper_tables` bench target (`cargo bench -p ptm-bench --bench
//! paper_tables`, or `cargo run -p ptm-bench --bin paper-tables`) renders
//! every table.
//!
//! The wall-clock suites are family tables over one [`harness`] (one
//! row type, one thread spawner, one warm-up + interleaved best-of-five
//! measurement, one emitter): [`native`] holds the microbenchmarks of
//! the native STM (E11/E12) and [`structs`] the transactional
//! data-structure workloads (E13). Each emits one JSON baseline at the
//! workspace root. The serving tier (`ptm-server`) is not measured
//! here: the repo benchmark under `benchmark/` (declared by
//! `BENCHMARK.json`) owns its workloads, bounds and per-layer cost
//! ladder.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figure1;
pub mod harness;
pub mod native;
pub mod rmr;
pub mod space;
pub mod structs;
pub mod table;
pub mod validation;

/// Renders every paper table to stdout with the given sweep parameters
/// (`quick` shrinks the sweeps for CI-speed runs).
pub fn print_all_tables(quick: bool) {
    let sizes: &[usize] = if quick {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let ns: &[usize] = if quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let passages = if quick { 4 } else { 6 };

    println!("# Paper tables — Progressive Transactional Memory in Time and Space\n");

    println!("## E1/E2 — Figure 1 executions (ir-progressive)\n");
    for (name, e) in [
        (
            "Figure 1a",
            figure1::figure1a(ptm_core::TmKind::Progressive, 4),
        ),
        (
            "Figure 1b",
            figure1::figure1b(ptm_core::TmKind::Progressive, 4),
        ),
        (
            "Claim 4",
            figure1::claim4(ptm_core::TmKind::Progressive, 4, 1),
        ),
    ] {
        println!("{name}: final read -> {}", e.final_read);
        println!(
            "  opaque: {}, strictly serializable: {}",
            e.opaque, e.strictly_serializable
        );
        for line in e.trace().lines() {
            println!("    {line}");
        }
        println!();
    }

    let (totals, per_read, exponents) = validation::validation_tables(sizes);
    totals.print();
    per_read.print();
    exponents.print();

    space::space_table(sizes).print();

    for t in rmr::rmr_tables(ns, passages, 0xC0FFEE) {
        t.print();
    }

    // The adversarial sweep deliberately drives spin-heavy interleavings;
    // cap n so the slowest arms stay within the step budget.
    let adv_ns: Vec<usize> = ns.iter().copied().filter(|&n| n <= 8).collect();
    rmr::adversary_table(&adv_ns, passages, 0xC0FFEE).print();
}
