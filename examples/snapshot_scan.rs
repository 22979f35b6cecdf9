//! The multi-version payoff, watched live: one `Algorithm::Mv` instance
//! runs a long consistent scan — every slot of a shared array, over and
//! over — while writer threads storm the same array. The scans commit
//! with **zero aborts and zero validation probes** (each one reads the
//! consistent snapshot its start time names), and the program prints
//! what that costs: versions retained while scanners are live, versions
//! trimmed once the low-watermark collector catches up, and the same
//! storm's abort bill under single-version TL2 for contrast.
//!
//! ```bash
//! cargo run --release --example snapshot_scan
//! ```

use progressive_tm::stm::{Stm, TVar};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const VARS: usize = 256;
const SCANS: u64 = 400;
const WRITERS: usize = 4;

/// Runs the storm: `WRITERS` blind-writer threads vs one scanning
/// thread doing `SCANS` full-array read-only transactions. Writer pairs
/// keep `vars[2k] == vars[2k+1]`, so every scan can check its own
/// snapshot for tears. Returns (scan nanos, scan attempts, max chain
/// length seen by the scanner).
fn storm(stm: &Arc<Stm>) -> (u128, u64, usize) {
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let attempts = Arc::new(AtomicU64::new(0));
    let mut max_chain = 1;
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let stm = Arc::clone(stm);
            let vars = vars.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = w as u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = 2 * ((i as usize + w) % (VARS / 2));
                    i = i.wrapping_add(1);
                    stm.atomically(|tx| {
                        tx.write(&vars[k], i)?;
                        tx.write(&vars[k + 1], i)
                    });
                }
            });
        }
        let attempts = Arc::clone(&attempts);
        for _ in 0..SCANS {
            let consistent = stm.atomically(|tx| {
                attempts.fetch_add(1, Ordering::Relaxed);
                let mut ok = true;
                for k in 0..(VARS / 2) {
                    ok &= tx.read(&vars[2 * k])? == tx.read(&vars[2 * k + 1])?;
                }
                Ok(ok)
            });
            assert!(consistent, "a scan observed a torn writer pair");
            max_chain = max_chain.max(vars[0].versions_retained());
        }
        stop.store(true, Ordering::Relaxed);
    });
    (
        start.elapsed().as_nanos(),
        attempts.load(Ordering::Relaxed),
        max_chain,
    )
}

fn main() {
    println!("long consistent scans ({VARS} reads each) racing {WRITERS} writer threads\n");

    let mv = Arc::new(Stm::mv());
    let before = mv.stats().snapshot();
    let (nanos, attempts, max_chain) = storm(&mv);
    let d = mv.stats().snapshot().since(&before);
    println!(
        "mv   {:>8.0} scans/s   {} aborts, {} probes over {} scans",
        SCANS as f64 * 1e9 / nanos as f64,
        attempts - SCANS,
        d.validation_probes,
        SCANS,
    );
    println!(
        "     space bill: up to {} versions retained on a hot slot, {} trimmed overall\n     (low-watermark collector; high-water chain length {})",
        max_chain, d.versions_trimmed, d.max_chain_len,
    );
    assert_eq!(attempts, SCANS, "mv read-only scans never abort");
    assert_eq!(d.validation_probes, 0, "and never validate");

    let tl2 = Arc::new(Stm::tl2());
    let before = tl2.stats().snapshot();
    let (nanos, attempts, _) = storm(&tl2);
    let d = tl2.stats().snapshot().since(&before);
    println!(
        "\ntl2  {:>8.0} scans/s   {} scan retries, {} instance aborts over {} scans",
        SCANS as f64 * 1e9 / nanos as f64,
        attempts - SCANS,
        d.aborts,
        SCANS,
    );

    println!(
        "\nSame storm, opposite currencies: the single-version engine re-runs\n\
         scans whenever a writer outruns them (time), the multi-version engine\n\
         keeps superseded versions alive exactly as long as a live snapshot\n\
         can still read them (space) — Theorem 3's tradeoff, chosen per read."
    );
}
