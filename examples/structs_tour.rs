//! Tour of the transactional data-structure layer, ending with the
//! run-to-proof loop: a concurrent workload over `ptm-structs` is
//! recorded as a t-operation history and validated by the `ptm-model`
//! opacity checker — the same checker the simulator's logs go through.
//!
//! ```text
//! cargo run --release --example structs_tour
//! ```

use progressive_tm::model::{is_opaque, History};
use progressive_tm::stm::{Algorithm, HistoryRecorder, Stm, TVar};
use progressive_tm::structs::{TArray, THashMap, TQueue, TSet};
use std::sync::Arc;

fn main() {
    // --- Part 1: throughput-shaped concurrent churn, no recording. ---
    // Workers *block* on the queue with `dequeue_wait` (parked on the
    // queue's stripes, zero CPU while idle) and compose it with a
    // shutdown flag through `or_else` — the CMT idiom for "take a job,
    // or notice we're done". `dequeue`'s `Ok(None)` stays available as
    // the explicit non-blocking opt-out for polling-shaped code.
    let stm = Arc::new(Stm::tl2());
    let jobs: TQueue<u64> = TQueue::new();
    let results: THashMap<u64, u64> = THashMap::new();
    let finished: TSet<u64> = TSet::new();
    let done: TVar<bool> = TVar::new(false);
    let total_jobs = 512u64;

    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = Arc::clone(&stm);
            let (jobs, results, finished) = (jobs.clone(), results.clone(), finished.clone());
            let done = done.clone();
            s.spawn(move || loop {
                // One atomic step: pop a job (or sleep until one exists),
                // record its result, mark it done — falling through to
                // the shutdown flag only when the queue is empty.
                let job = stm.atomically(|tx| {
                    tx.or_else(
                        |tx| {
                            let j = jobs.dequeue_wait(tx)?;
                            results.insert(tx, j, j * j)?;
                            finished.insert(tx, j)?;
                            Ok(Some(j))
                        },
                        |tx| {
                            if tx.read(&done)? {
                                Ok(None)
                            } else {
                                tx.retry() // queue empty, not done: sleep
                            }
                        },
                    )
                });
                if job.is_none() {
                    break;
                }
            });
        }
        // Produce with the workers already live: a parked worker is woken
        // by each batch as it commits.
        for batch in (0..total_jobs).collect::<Vec<_>>().chunks(64) {
            stm.atomically(|tx| {
                for &j in batch {
                    jobs.enqueue(tx, j)?;
                }
                Ok(())
            });
        }
        // Wait for the queue to drain, then flip the flag — the write
        // wakes every worker still parked on the empty queue.
        stm.atomically(|tx| {
            if jobs.is_empty(tx)? && finished.len(tx)? as u64 == total_jobs {
                tx.write(&done, true)
            } else {
                tx.retry()
            }
        });
    });

    let done = stm.atomically(|tx| finished.len(tx));
    assert_eq!(done as u64, total_jobs);
    assert_eq!(
        stm.atomically(|tx| results.get(tx, &31)),
        Some(31 * 31),
        "every job's result is indexed"
    );
    println!(
        "processed {total_jobs} jobs across 4 workers: {}",
        stm.stats().snapshot()
    );

    // --- Part 2: the same idea, recorded and formally checked. ---
    let rec = HistoryRecorder::new();
    let stm = Arc::new(
        Stm::builder(Algorithm::Tl2)
            .record_history(rec.clone())
            .build(),
    );
    let cells = TArray::new(4, 100u64); // non-zero initials: preamble at work
    std::thread::scope(|s| {
        for t in 0..3usize {
            let stm = Arc::clone(&stm);
            let cells = cells.clone();
            s.spawn(move || {
                for i in 0..4usize {
                    stm.atomically(|tx| {
                        let from = (t + i) % cells.len();
                        let to = (t + i + 1) % cells.len();
                        let a = cells.get(tx, from)?;
                        let amt = a.min(5);
                        cells.update(tx, from, |x| x - amt)?;
                        cells.update(tx, to, |x| x + amt)
                    });
                }
            });
        }
    });
    assert_eq!(cells.load_all().iter().sum::<u64>(), 400);

    let log = rec.drain();
    let history = History::from_log(&log).expect("recorded histories are well-formed");
    // The opacity search is exponential and caps out at 128 transactions
    // per quiescent segment (every aborted attempt counts; a run with no
    // idle moment is one segment); keep recorded runs small, like the
    // 12-transaction workload above.
    assert!(history.len() <= 128, "keep recorded runs checker-sized");
    assert!(is_opaque(&history), "the native engine's run is opaque");
    println!(
        "recorded {} markers / {} transactions; opacity checker: PASS ({})",
        log.len(),
        history.len(),
        stm.stats().snapshot()
    );
}
