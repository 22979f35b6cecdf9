//! The adaptive runtime, watched live: one `Algorithm::Adaptive`
//! instance is driven through a `scans → write_heavy → read_mostly`
//! workload (via `ptm_bench::native`'s pass drivers) while the program
//! prints the controller's decisions — the active mode, the per-phase
//! scan length it votes on, and every mode transition.
//!
//! ```bash
//! cargo run --release --example adaptive
//! ```

use progressive_tm::stm::{AdaptiveConfig, Algorithm, Stm, TVar};
use ptm_bench::native::{pass_read_mostly, pass_window_scans, pass_write_heavy};
use std::sync::Arc;

fn main() {
    let threads = 2;
    let txns: u64 = 10_000;
    // Sample every 128 commits and switch after one agreeing window, so
    // the transitions are visible within short phases.
    let stm = Arc::new(
        Stm::builder(Algorithm::Adaptive)
            .adaptive_config(AdaptiveConfig {
                window_commits: 128,
                hysteresis_windows: 1,
                ..AdaptiveConfig::default()
            })
            .build(),
    );
    let vars: Vec<TVar<u64>> = (0..256).map(|_| TVar::new(1)).collect();
    let accounts: Vec<TVar<u64>> = (0..16).map(|_| TVar::new(1_000_000)).collect();

    println!("adaptive STM, phase-shifting workload ({threads} threads)\n");
    let mut last = stm.stats().snapshot();
    let phases: [(&str, &dyn Fn() -> u128); 3] = [
        // 128-read windows, every 8th transaction also writing.
        ("scans      ", &|| {
            pass_window_scans(&stm, &vars, 128, threads, txns)
        }),
        ("write_heavy", &|| {
            pass_write_heavy(&stm, &accounts, threads, txns)
        }),
        // 32-read windows: too short to vote multiversion.
        ("read_mostly", &|| {
            pass_read_mostly(&stm, &vars, threads, txns)
        }),
    ];
    for (name, pass) in phases {
        let nanos = pass();
        let snap = stm.stats().snapshot();
        let d = snap.since(&last);
        last = snap;
        println!(
            "{name}  {:>8.0} txn/s   reads per read-only commit {:>5.1}   {} transition(s) -> {:?}",
            d.commits as f64 * 1e9 / nanos as f64,
            d.ro_reads as f64 / d.ro_commits.max(1) as f64,
            d.mode_transitions,
            stm.active_mode(),
        );
    }
    let total: u64 = accounts.iter().map(TVar::load).sum();
    assert_eq!(total, 16_000_000, "transfers conserved the total");
    let snap = stm.stats().snapshot();
    println!("\nfinal: {snap}");
    assert!(
        snap.mode_transitions >= 2,
        "the workload shift must move the engine across the tradeoff"
    );
    println!(
        "\nThe controller crossed the paper's time-space tradeoff {} times:\n\
         multiversion reads (Mv hooks) while read-only transactions were long\n\
         scans, invisible reads (Tl2 hooks) otherwise — one engine, both cost\n\
         profiles.",
        snap.mode_transitions
    );
}
