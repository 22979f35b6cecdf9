//! Concurrent bank transfers on the native STM — the classic STM demo,
//! run on all five static validation algorithms with statistics (the
//! adaptive sixth gets its own phase-shifting demo in
//! `examples/adaptive.rs`, and the multi-version scan payoff its own in
//! `examples/snapshot_scan.rs`).
//!
//! Eight threads shuffle money between 32 accounts; the invariant (total
//! balance) is checked at the end, and the per-algorithm commit/abort/
//! validation-probe counters show the cost structure the paper analyses.
//!
//! ```text
//! cargo run --release --example bank
//! ```

use progressive_tm::stm::{Algorithm, Stm, TVar};
use std::sync::Arc;
use std::time::Instant;

const ACCOUNTS: usize = 32;
const THREADS: usize = 8;
const TRANSFERS_PER_THREAD: usize = 20_000;
const INITIAL: u64 = 1_000;

fn run(algorithm: Algorithm) {
    // The builder exposes the orec geometry; this is the default, spelled
    // out.
    let stm = Arc::new(Stm::builder(algorithm).orec_stripes(1024).build());
    let accounts: Vec<TVar<u64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect();

    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = Arc::clone(&stm);
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (next() as usize) % ACCOUNTS;
                    let to = (next() as usize) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = next() % 20;
                    stm.atomically(|tx| {
                        let a = tx.read(&accounts[from])?;
                        let b = tx.read(&accounts[to])?;
                        let amt = a.min(amount);
                        tx.write(&accounts[from], a - amt)?;
                        tx.write(&accounts[to], b + amt)
                    });
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let total: u64 = accounts.iter().map(TVar::load).sum();
    assert_eq!(total, ACCOUNTS as u64 * INITIAL, "money conservation");

    let s = stm.stats().snapshot();
    let throughput = s.commits as f64 / elapsed.as_secs_f64();
    println!(
        "{:<12} commits {:>8}  aborts {:>7}  probes {:>9}  rw-conflicts {:>7}  {:>9.0} txn/s  (total = {total}, conserved)",
        format!("{algorithm:?}"),
        s.commits,
        s.aborts,
        s.validation_probes,
        s.reader_conflicts,
        throughput,
    );
}

fn main() {
    println!(
        "Bank: {THREADS} threads x {TRANSFERS_PER_THREAD} transfers over {ACCOUNTS} accounts\n"
    );
    for algorithm in [
        Algorithm::Tl2,
        Algorithm::Incremental,
        Algorithm::Norec,
        Algorithm::Tlrw,
        Algorithm::Mv,
    ] {
        run(algorithm);
    }
    println!("\nAll runs conserve the total balance: the STM is serializable.");
}
