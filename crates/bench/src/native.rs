//! E11/E12 — native-STM microbenchmarks with a JSON baseline.
//!
//! Measures the six native algorithms on real threads and emits
//! `BENCH_native_stm.json` so successive PRs can compare read-path
//! throughput against a recorded baseline:
//!
//! * `read_only_txn/<algo>/<m>` — wall-clock cost of a single-thread
//!   read-only transaction over `m` TVars: the hardware echo of Theorem
//!   3(1) (incremental mode scales quadratically, TL2/NOrec linearly);
//! * `read_mostly/<algo>/<threads>` — the paper's time–space tradeoff,
//!   measured: a read-dominated mix (16-variable scans, every 8th
//!   transaction also writes) contrasting Tlrw's O(1) visible reads
//!   against Tl2's snapshot validation and Incremental's quadratic
//!   re-validation across a thread ladder;
//! * `long_scan/<algo>/<threads>` — the multi-version experiment: one
//!   reader's large read-only scans (every variable of a 256-slot array)
//!   racing `threads − 1` blind writers. `Algorithm::Mv` is the
//!   acceptance picture: its scans resolve against start-time snapshots,
//!   so the `long_scan_ro_aborts` and `long_scan_probes` companion rows
//!   are 0 while every single-version algorithm pays retries
//!   (`long_scan_aborts`, `long_scan_ro_aborts`) or validation probes
//!   under the same storm;
//! * `blocking_queue*/<algo>` — the parking-tier experiment: a
//!   producer/consumer pipeline over `ptm_structs::TQueue`, consumers
//!   either *blocking* (`dequeue_wait`, parked on the queue's stripes)
//!   or *polling* (`dequeue` in a hot re-run loop). The throughput pair
//!   (`blocking_queue` vs `polling_queue`) shows parking costs nothing
//!   while the queue is non-empty; the idle pair
//!   (`{blocking,polling}_queue_idle_work`, ops = commits + aborts +
//!   validation probes + reads accumulated while consumers face an
//!   *empty* queue for a fixed window) is the CPU-waste picture — ≈ 0
//!   parked, thousands polling — and `blocking_queue_idle_parks`
//!   confirms the consumers really were parked rather than lucky;
//! * `phase_shift_*/<algo>` — the adaptive-runtime experiment: one
//!   shared instance driven through `read_mostly → write_heavy →
//!   read_mostly` phases, each phase timed separately. The acceptance
//!   picture is `Algorithm::Adaptive` tracking the best static
//!   algorithm per phase (invisible Tl2 on the scans, visible Tlrw on
//!   the transfers) within its controller's switching lag; the
//!   `phase_shift_mode_transitions` row records (in `ops`) how many
//!   switches the adaptive controller performed across the three
//!   measured phases — at least one per phase boundary when adapting.
//! * `phase_scan_*/<algo>` — the **three-mode** adaptive experiment:
//!   one shared instance driven through `scan_heavy → write_heavy →
//!   mixed` phases. The scan-heavy phase (full-array read-only scans
//!   racing one blind writer) routes Adaptive into multiversion mode,
//!   the transfer phase into visible mode, the mixed tail back to
//!   invisible — the acceptance picture is Adaptive at or above the
//!   best static algorithm per phase, with the
//!   `phase_scan_mode_transitions` row ≥ 2 and the
//!   `phase_scan_snapshot_reads` row > 0 as proof the route really went
//!   through Mv;
//! * `long_scan_camped/mv/<chain>` — the skip-pointer experiment: a
//!   camped reader pins its snapshot, nested commits grow every version
//!   chain to `<chain>` links above it, and the camper then re-scans at
//!   its old snapshot. The companion `long_scan_camped_walk_steps` row
//!   carries the engine's `chain_walk_steps` counter: with the
//!   Fenwick-shaped skip links the steps per read grow ~log²(chain),
//!   not linearly, so doubling `<chain>` barely moves the row.
//!
//! Every family is an entry of [`FAMILIES`] measured by the one policy of
//! [`crate::harness`]: a warm-up, then [`crate::harness::PHASE_PASSES`] passes
//! interleaved across algorithms, best pass reported. Companion rows
//! carry a counter, not a rate, in `ops`. The multi-threaded families
//! are sized to the machine's hardware threads `hw`: `read_mostly` climbs
//! 1, 2, 4, … ≤ `hw`; the phases, the queue pipeline and the idle pair
//! spawn `hw.max(2)` threads; `long_scan` runs one reader against 1, 2,
//! 4, … writers while the total stays within `hw.max(2)`.

use crate::harness::{
    doublings, measure, next_rand, run_threads, thread_ladder, timed, Algo, Cell, Cells, Family,
    Spec,
};
use ptm_stm::{Algorithm, Retry, StatsSnapshot, Stm, TVar, Transaction};
use ptm_structs::TQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The algorithms under measurement, with their report names.
pub const ALGOS: &[Algo] = &[
    ("tl2", Algorithm::Tl2),
    ("incremental", Algorithm::Incremental),
    ("norec", Algorithm::Norec),
    ("tlrw", Algorithm::Tlrw),
    ("mv", Algorithm::Mv),
    ("adaptive", Algorithm::Adaptive),
];

fn vars(n: usize, init: u64) -> Vec<TVar<u64>> {
    (0..n).map(|_| TVar::new(init)).collect()
}

/// Reads every variable and returns the sum.
fn sum_all(tx: &mut Transaction<'_>, vars: &[TVar<u64>]) -> Result<u64, Retry> {
    vars.iter()
        .try_fold(0u64, |acc, v| Ok(acc.wrapping_add(tx.read(v)?)))
}

/// One timed pass of the scan shape: each of `readers` threads completes
/// `txns` full-array read-only scans while `writers` blind-writer
/// threads storm the array until the last reader reports in
/// (equal-value writes, so the scan sum stays invariant and the only
/// traffic is the synchronization itself; blind, so writer commits add
/// no validation probes and the probe counter isolates the read-only
/// side). The storm is what separates the engines: multi-version scans
/// resolve against start-time snapshots and never retry, single-version
/// scans revalidate or abort. Returns `(nanos, reader aborts)` —
/// attempts minus commits, counted reader-side.
fn pass_scans(
    stm: &Stm,
    vars: &[TVar<u64>],
    writers: usize,
    readers: usize,
    txns: u64,
) -> (u128, u64) {
    let readers_done = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let nanos = run_threads(writers + readers, |t| {
        if t < writers {
            let mut seed = t as u64 + 1;
            while readers_done.load(Ordering::Relaxed) < readers as u64 {
                let j = next_rand(&mut seed) as usize % vars.len();
                stm.atomically(|tx| tx.write(&vars[j], 1));
            }
        } else {
            let mut attempts = 0u64;
            for _ in 0..txns {
                let sum = stm.atomically(|tx| {
                    attempts += 1;
                    sum_all(tx, vars)
                });
                assert_eq!(sum, vars.len() as u64);
            }
            aborts.fetch_add(attempts - txns, Ordering::Relaxed);
            readers_done.fetch_add(1, Ordering::Relaxed);
        }
    });
    (nanos, aborts.into_inner())
}

/// One timed pass of uncontested read-only scans: `txns` full-array
/// scans on each of `threads` threads.
fn pass_read_only(stm: &Stm, vars: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    pass_scans(stm, vars, 0, threads, txns).0
}

/// One timed pass of the scan-heavy phase shape: [`pass_scans`] with
/// one blind writer against `threads − 1` scanners.
fn pass_scan_heavy(stm: &Stm, vars: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    pass_scans(stm, vars, 1, threads - 1, txns).0
}

/// One timed pass of the read-mostly shape over one shared array: every
/// transaction scans a `window` of variables from a random start; every
/// 8th transaction per thread also writes one slot (the same value, so
/// the scan invariant holds and the only traffic is the synchronization
/// itself). This is the paper's tradeoff as a ladder: Tlrw pays an RMW
/// per first-touch stripe but never validates; Tl2 validates each read
/// against its snapshot; Incremental re-validates the whole read set per
/// read. Returns elapsed nanoseconds.
pub fn pass_window_scans(
    stm: &Stm,
    vars: &[TVar<u64>],
    window: usize,
    threads: usize,
    txns: u64,
) -> u128 {
    let m = vars.len();
    run_threads(threads, |t| {
        let mut seed = t as u64 + 1;
        for i in 0..txns {
            let base = next_rand(&mut seed) as usize % m;
            let writing = i % 8 == 7;
            let sum = stm.atomically(|tx| {
                let mut acc = 0u64;
                for k in 0..window {
                    acc = acc.wrapping_add(tx.read(&vars[(base + k) % m])?);
                }
                if writing {
                    tx.write(&vars[base], 1)?;
                }
                Ok(acc)
            });
            assert_eq!(sum, window as u64);
        }
    })
}

/// [`pass_window_scans`] at the 32-variable window of the phase
/// families. Public so demos (e.g.
/// `examples/adaptive.rs`) drive the *same* workload the baseline
/// measures.
pub fn pass_read_mostly(stm: &Stm, vars: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    pass_window_scans(stm, vars, 32, threads, txns)
}

/// One timed pass of the write-heavy shape (2-read / 2-write transfers
/// between random accounts). Public for the same reason as
/// [`pass_read_mostly`]. Returns elapsed nanoseconds.
pub fn pass_write_heavy(stm: &Stm, accounts: &[TVar<u64>], threads: usize, txns: u64) -> u128 {
    let m = accounts.len();
    run_threads(threads, |t| {
        let mut seed = (t as u64 + 1) * 7919;
        for _ in 0..txns {
            let r = next_rand(&mut seed);
            let from = (r >> 20) as usize % m;
            let to = (r >> 3) as usize % m;
            if from == to {
                continue;
            }
            stm.atomically(|tx| {
                let a = tx.read(&accounts[from])?;
                let b = tx.read(&accounts[to])?;
                let amt = a.min(3);
                tx.write(&accounts[from], a - amt)?;
                tx.write(&accounts[to], b + amt)
            });
        }
    })
}

/// The single-array family shape: per algorithm a fresh array of the
/// rung's `m` variables holding 1, one timed row of `txns` transactions
/// on each of the rung's threads.
fn over_vars(
    rung: &[Spec],
    algos: &[Algo],
    txns: u64,
    body: impl Fn(&Stm, &[TVar<u64>], usize, u64) -> u128,
) -> Cells {
    let (_, m, threads) = rung[0];
    timed(
        algos,
        txns,
        txns * threads as u64,
        |_| vars(m, 1),
        |stm, vars, n| body(stm, vars, threads, n),
    )
}

/// One algorithm's live state across a multi-pass experiment.
struct Instance {
    stm: Stm,
    vars: Vec<TVar<u64>>,
    accounts: Vec<TVar<u64>>,
    /// Counters as of the end of the warm-up.
    before: StatsSnapshot,
    /// Reader-side aborts accumulated over the timed passes.
    ro_aborts: u64,
}

impl Instance {
    fn new(algo: Algorithm, vars_len: usize, accounts_len: usize) -> Instance {
        Instance {
            stm: Stm::new(algo),
            vars: vars(vars_len, 1),
            accounts: vars(accounts_len, 1_000_000),
            before: StatsSnapshot::default(),
            ro_aborts: 0,
        }
    }

    /// Counter movement since the warm-up ended.
    fn delta(&self) -> StatsSnapshot {
        self.stm.stats().snapshot().since(&self.before)
    }
}

/// One phase shape of the phase-shifting experiments.
#[derive(Clone, Copy)]
enum Phase {
    ReadMostly,
    WriteHeavy,
    ScanHeavy,
}

impl Phase {
    fn pass(self, inst: &Instance, threads: usize, txns: u64) -> u128 {
        match self {
            Phase::ReadMostly => pass_read_mostly(&inst.stm, &inst.vars, threads, txns),
            Phase::WriteHeavy => pass_write_heavy(&inst.stm, &inst.accounts, threads, txns),
            Phase::ScanHeavy => pass_scan_heavy(&inst.stm, &inst.vars, threads, txns),
        }
    }

    /// Transactions one pass commits (the scan-heavy writer's are not
    /// counted).
    fn ops(self, threads: usize, txns: u64) -> u64 {
        let workers = match self {
            Phase::ScanHeavy => threads - 1,
            _ => threads,
        };
        txns * workers as u64
    }
}

/// Accounts of the write-heavy phase.
const PHASE_ACCOUNTS: usize = 16;

/// The paper's tradeoff as a *runtime* decision: every algorithm's
/// instance is driven through `phases` in order, each phase measured
/// across all instances before the next begins. Static algorithms pay
/// their fixed cost profile in every phase; `Algorithm::Adaptive`
/// re-decides per phase at the price of its controller overhead — the
/// switching lag of a few sampling windows lands in each phase's first
/// pass, which best-of excludes along with scheduler noise. Phase
/// *order* per instance is preserved, so the adaptive controller still
/// experiences a genuine workload shift; only the first phase warms up
/// (for Adaptive a short read-mostly pass leaves the engine where a
/// fresh instance starts anyway, a short scan-heavy pass may already
/// route it into multiversion).
///
/// Two experiments share it. `phase_shift` is `read_mostly →
/// write_heavy → read_mostly` (invisible for the scans, visible for the
/// transfers). `phase_scan` is the *three-mode* one, `scan_heavy →
/// write_heavy → mixed`: long read-only scans under a blind-write storm
/// route Adaptive into **multiversion** mode, the transfers into
/// visible, the read-mostly tail back to invisible.
///
/// Per algorithm: one timed cell per phase, then one companion cell per
/// entry of `counters` carrying that counter's movement across the
/// measured phases in `ops` — `mode_transitions` is 0 for the static
/// algorithms and ≥ 2 for a healthy adaptive run, `snapshot_reads` is
/// > 0 only if reads were actually served by the multiversion hooks.
fn bench_phases(
    algos: &[Algo],
    threads: usize,
    txns: u64,
    scan_vars: usize,
    phases: &[Phase],
    counters: &[fn(&StatsSnapshot) -> u64],
) -> Cells {
    let mut instances: Vec<Instance> = algos
        .iter()
        .map(|&(_, algo)| Instance::new(algo, scan_vars, PHASE_ACCOUNTS))
        .collect();
    let best: Vec<Vec<u128>> = phases
        .iter()
        .enumerate()
        .map(|(p, phase)| {
            measure(
                &mut instances,
                |inst| {
                    if p == 0 {
                        phase.pass(inst, threads, txns / 10 + 1);
                        inst.before = inst.stm.stats().snapshot();
                    }
                },
                |inst| phase.pass(inst, threads, txns),
            )
        })
        .collect();
    let cells = |(a, inst): (usize, &Instance)| {
        let delta = inst.delta();
        let total: u128 = best.iter().map(|phase| phase[a]).sum();
        let timed = phases
            .iter()
            .zip(&best)
            .map(|(phase, best)| Cell::new(phase.ops(threads, txns), best[a]));
        let companions = counters.iter().map(|count| Cell::new(count(&delta), total));
        timed.chain(companions).collect()
    };
    instances.iter().enumerate().map(cells).collect()
}

/// The multi-version experiment: one reader's large read-only scans
/// (every variable of an `m`-slot array) racing `writers` blind
/// writers, a fresh instance per algorithm.
///
/// Besides the timing cell, three companion cells per algorithm carry
/// the storm's cost accounting in `ops`, accumulated over all timed
/// passes:
///
/// * `long_scan_ro_aborts` — retries the *read-only* scans paid
///   (counted reader-side). The multi-version acceptance criterion: 0
///   for `mv`, whose snapshot reads cannot abort.
/// * `long_scan_probes` — validation probes (writers are blind, so
///   every probe belongs to the read-only side). 0 for `mv` and the
///   never-validating `tlrw`.
/// * `long_scan_aborts` — instance-wide aborts including the writers'
///   lock conflicts; nonzero for every single-version algorithm under
///   the storm.
fn bench_long_scan(algos: &[Algo], m: usize, writers: usize, txns: u64) -> Cells {
    let mut instances: Vec<Instance> = algos
        .iter()
        .map(|&(_, algo)| Instance::new(algo, m, 0))
        .collect();
    let pass = |inst: &Instance, txns| pass_scans(&inst.stm, &inst.vars, writers, 1, txns);
    let best = measure(
        &mut instances,
        |inst| {
            pass(inst, txns / 10 + 1);
            inst.before = inst.stm.stats().snapshot();
        },
        |inst| {
            let (nanos, aborts) = pass(inst, txns);
            inst.ro_aborts += aborts;
            nanos
        },
    );
    let cells = |(inst, nanos): (&Instance, u128)| {
        let delta = inst.delta();
        let ops = [txns, inst.ro_aborts, delta.validation_probes, delta.aborts];
        ops.iter().map(|&ops| Cell::new(ops, nanos)).collect()
    };
    instances.iter().zip(best).map(cells).collect()
}

/// Variable count of the camped-reader experiment: small, so the chain
/// *length* — not the variable count — dominates each scan.
const CAMPED_VARS: usize = 8;

/// One pass of the skip-pointer experiment (`long_scan_camped/mv/<chain>`):
/// on a fresh instance a multi-version reader pins its snapshot, then
/// nested equal-value commits grow every variable's version chain
/// `chain` links above that snapshot — the camper's own pin holds the
/// low watermark down, so nothing trims. The camper then re-reads the
/// whole array `txns` times; every read must descend from the chain
/// head past all `chain` newer versions to the pinned one. Returns the
/// nanoseconds of those reads and the engine's `chain_walk_steps` over
/// the pass, the direct evidence that the Fenwick-shaped skip links
/// make the descent ~log²(chain), not linear. Deterministic and
/// single-threaded: the ladder compares chain lengths, not schedulers.
fn pass_camped(algo: Algorithm, chain: usize, txns: u64) -> (u128, u64) {
    let stm = Stm::new(algo);
    let vars = vars(CAMPED_VARS, 1);
    let mut elapsed = 0;
    let mut grown = false;
    stm.atomically(|tx| {
        // Pin the snapshot with one full scan.
        assert_eq!(sum_all(tx, &vars)?, CAMPED_VARS as u64);
        // Grow the chains under the camper's feet (once: a
        // multi-version read-only attempt never retries, and the
        // guard keeps a surprise re-run from doubling the chains).
        if !grown {
            grown = true;
            for _ in 0..chain {
                stm.atomically(|tx2| vars.iter().try_for_each(|v| tx2.write(v, 1)));
            }
        }
        let start = Instant::now();
        for _ in 0..txns {
            let sum = sum_all(tx, &vars)?;
            assert_eq!(sum, CAMPED_VARS as u64, "camped snapshot drifted");
        }
        elapsed = start.elapsed().as_nanos();
        Ok(())
    });
    (elapsed, stm.stats().snapshot().chain_walk_steps)
}

/// Sentinel telling a bench queue consumer to stop.
const QSTOP: u64 = u64::MAX;

/// Producer/consumer wall clock on `threads` threads: `threads / 2`
/// producers push `items` in total, the rest drain — blocking
/// (`dequeue_wait`) or polling (`dequeue` re-run on empty). The last
/// producer to finish stops every consumer.
fn queue_throughput(stm: &Stm, threads: usize, items: u64, blocking: bool) -> u128 {
    let q: TQueue<u64> = TQueue::new();
    let producers = threads / 2;
    let consumers = threads - producers;
    let producers_done = AtomicUsize::new(0);
    run_threads(threads, |t| {
        if t < consumers {
            loop {
                let v = if blocking {
                    stm.atomically(|tx| q.dequeue_wait(tx))
                } else {
                    match stm.atomically(|tx| q.dequeue(tx)) {
                        Some(v) => v,
                        None => continue,
                    }
                };
                if v == QSTOP {
                    break;
                }
            }
        } else {
            for i in ((t - consumers) as u64..items).step_by(producers) {
                stm.atomically(|tx| q.enqueue(tx, i));
            }
            if producers_done.fetch_add(1, Ordering::AcqRel) + 1 == producers {
                for _ in 0..consumers {
                    stm.atomically(|tx| q.enqueue(tx, QSTOP));
                }
            }
        }
    })
}

/// Transactional work (commits + aborts + validation probes + reads)
/// `threads − 1` consumers accumulate over an idle `window` against an
/// **empty** queue, plus the instance's park count: the CPU-waste
/// comparison the parking tier exists to win. The last thread holds the
/// stopwatch. Returns `(idle_work, parks)`.
fn queue_idle_work(stm: &Stm, threads: usize, blocking: bool, window: Duration) -> (u64, u64) {
    let q: TQueue<u64> = TQueue::new();
    let consumers = threads - 1;
    let stop = AtomicBool::new(false);
    let measured = Mutex::new((0, 0));
    run_threads(threads, |t| {
        if t == consumers {
            // Let the consumers reach their steady state (parked, for
            // the blocking pair) before opening the measurement window.
            std::thread::sleep(Duration::from_millis(30));
            let before = stm.stats().snapshot();
            std::thread::sleep(window);
            let after = stm.stats().snapshot();
            let idle = after.since(&before);
            *measured.lock().expect("only this thread locks") = (
                idle.commits + idle.aborts + idle.validation_probes + idle.reads,
                after.parks,
            );
            stop.store(true, Ordering::Relaxed);
            if blocking {
                for _ in 0..consumers {
                    stm.atomically(|tx| q.enqueue(tx, QSTOP));
                }
            }
        } else if blocking {
            while stm.atomically(|tx| q.dequeue_wait(tx)) != QSTOP {}
        } else {
            while !stop.load(Ordering::Relaxed) {
                let _ = stm.atomically(|tx| q.dequeue(tx));
            }
        }
    });
    measured.into_inner().expect("stopwatch thread finished")
}

/// The `blocking_queue` family (see the module docs) on `threads`
/// threads: per algorithm the throughput pair, measured interleaved
/// across algorithms and both consumer kinds, then the idle-waste pair
/// and the park count. The idle cells are counters over a fixed window,
/// read once on a fresh instance; their `nanos` is the window.
fn bench_blocking_queue(
    algos: &[Algo],
    threads: usize,
    items: u64,
    idle_window: Duration,
) -> Cells {
    let mut instances: Vec<(Stm, bool)> = algos
        .iter()
        .flat_map(|&(_, algo)| [true, false].map(|blocking| (Stm::new(algo), blocking)))
        .collect();
    let best = measure(
        &mut instances,
        |(stm, blocking)| {
            queue_throughput(stm, threads, items / 10 + 1, *blocking);
        },
        |(stm, blocking)| queue_throughput(stm, threads, items, *blocking),
    );
    let window = idle_window.as_nanos();
    let cells = |(&(_, algo), pair): (&Algo, &[u128])| {
        let idle = |blocking| queue_idle_work(&Stm::new(algo), threads, blocking, idle_window);
        let ((parked_work, parks), (polling_work, _)) = (idle(true), idle(false));
        vec![
            Cell::new(items, pair[0]),
            Cell::new(items, pair[1]),
            Cell::new(parked_work, window),
            Cell::new(parks, window),
            Cell::new(polling_work, window),
        ]
    };
    algos.iter().zip(best.chunks(2)).map(cells).collect()
}

/// The one-rung ladder of a role-shaped family: every row at the
/// `hw.max(2)` threads its pass spawns.
fn role_rung(hw: usize, rows: &[(&'static str, usize)]) -> Vec<Vec<Spec>> {
    let threads = hw.max(2);
    vec![rows.iter().map(|&(name, m)| (name, m, threads)).collect()]
}

/// The suite, in emission order. `quick` shrinks every workload for CI,
/// never the row set.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "read_only_txn",
        algos: ALGOS,
        ladder: |_| {
            let rung = |&m| vec![("read_only_txn", m, 1)];
            [16, 64, 256].iter().map(rung).collect()
        },
        algo_major: false,
        run: |rung, algos, quick| {
            let txns = if quick { 300 } else { 5_000 };
            over_vars(rung, algos, txns, pass_read_only)
        },
    },
    Family {
        name: "read_mostly",
        algos: ALGOS,
        ladder: |hw| thread_ladder("read_mostly", 128, hw),
        algo_major: true,
        run: |rung, algos, quick| {
            let txns = if quick { 200 } else { 2_000 };
            over_vars(rung, algos, txns, |stm, vars, threads, txns| {
                pass_window_scans(stm, vars, 16, threads, txns)
            })
        },
    },
    Family {
        name: "phase_shift",
        algos: ALGOS,
        ladder: |hw| {
            role_rung(
                hw,
                &[
                    ("phase_shift_read_mostly_1", 128),
                    ("phase_shift_write_heavy", PHASE_ACCOUNTS),
                    ("phase_shift_read_mostly_2", 128),
                    ("phase_shift_mode_transitions", 0),
                ],
            )
        },
        algo_major: false,
        run: |rung, algos, quick| {
            let (_, scan_vars, threads) = rung[0];
            let txns = if quick { 2_500 } else { 25_000 };
            bench_phases(
                algos,
                threads,
                txns,
                scan_vars,
                SHIFT_PHASES,
                &[|d| d.mode_transitions],
            )
        },
    },
    Family {
        name: "phase_scan",
        algos: ALGOS,
        ladder: |hw| {
            role_rung(
                hw,
                &[
                    ("phase_scan_scan_heavy", 256),
                    ("phase_scan_write_heavy", PHASE_ACCOUNTS),
                    ("phase_scan_mixed", 256),
                    ("phase_scan_mode_transitions", 0),
                    ("phase_scan_snapshot_reads", 0),
                ],
            )
        },
        algo_major: false,
        // Quick mode shrinks the scans per phase so CI stays fast while
        // still crossing the controller's windows in every phase.
        run: |rung, algos, quick| {
            let (_, scan_vars, threads) = rung[0];
            let txns = if quick { 300 } else { 3_000 };
            bench_phases(
                algos,
                threads,
                txns,
                scan_vars,
                SCAN_PHASES,
                &[|d| d.mode_transitions, |d| d.snapshot_reads],
            )
        },
    },
    Family {
        name: "long_scan_camped",
        algos: &[("mv", Algorithm::Mv)],
        ladder: |_| {
            let rung = |&chain| {
                vec![
                    ("long_scan_camped", chain, 1),
                    ("long_scan_camped_walk_steps", chain, 1),
                ]
            };
            [64, 256, 1024].iter().map(rung).collect()
        },
        algo_major: false,
        run: |rung, algos, quick| {
            let chain = rung[0].1;
            let txns = if quick { 100 } else { 400 };
            let best = measure(
                &mut algos.to_vec(),
                |&mut (_, algo)| {
                    pass_camped(algo, chain, txns / 10 + 1);
                },
                |&mut (_, algo)| pass_camped(algo, chain, txns),
            );
            let reads = txns * CAMPED_VARS as u64;
            let cells = |(nanos, steps)| vec![Cell::new(reads, nanos), Cell::new(steps, nanos)];
            best.into_iter().map(cells).collect()
        },
    },
    Family {
        name: "long_scan",
        algos: ALGOS,
        // One reader plus 1, 2, 4, … writers.
        ladder: |hw| {
            let rung = |writers: usize| {
                let threads = writers + 1;
                vec![
                    ("long_scan", 256, threads),
                    ("long_scan_ro_aborts", 256, threads),
                    ("long_scan_probes", 256, threads),
                    ("long_scan_aborts", 256, threads),
                ]
            };
            doublings(hw.max(2) - 1).map(rung).collect()
        },
        algo_major: false,
        run: |rung, algos, quick| {
            let (_, m, threads) = rung[0];
            bench_long_scan(algos, m, threads - 1, if quick { 60 } else { 400 })
        },
    },
    Family {
        name: "blocking_queue",
        algos: ALGOS,
        ladder: |hw| {
            role_rung(
                hw,
                &[
                    ("blocking_queue", 0),
                    ("polling_queue", 0),
                    ("blocking_queue_idle_work", 0),
                    ("blocking_queue_idle_parks", 0),
                    ("polling_queue_idle_work", 0),
                ],
            )
        },
        algo_major: false,
        run: |rung, algos, quick| {
            let items = if quick { 2_000 } else { 20_000 };
            let idle_window = Duration::from_millis(if quick { 20 } else { 100 });
            bench_blocking_queue(algos, rung[0].2, items, idle_window)
        },
    },
];

const SHIFT_PHASES: &[Phase] = &[Phase::ReadMostly, Phase::WriteHeavy, Phase::ReadMostly];
const SCAN_PHASES: &[Phase] = &[Phase::ScanHeavy, Phase::WriteHeavy, Phase::ReadMostly];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_consumers_idle_far_cheaper_than_polling() {
        // The acceptance picture in miniature: over the same idle window
        // against an empty queue, parked consumers must do (almost) no
        // transactional work while polling consumers churn.
        let window = Duration::from_millis(50);
        let (parked_work, parks) = queue_idle_work(&Stm::tl2(), 3, true, window);
        let (polling_work, _) = queue_idle_work(&Stm::tl2(), 3, false, window);
        assert!(parks >= 2, "both consumers should have parked ({parks})");
        assert!(
            polling_work >= 100,
            "polling should churn visibly ({polling_work})"
        );
        assert!(
            parked_work * 10 < polling_work,
            "parked idle work ({parked_work}) must be an order of magnitude \
             below polling ({polling_work})"
        );
    }

    #[test]
    fn phase_shift_reports_adaptive_transitions() {
        // Enough commits per phase for several default sampling windows:
        // the adaptive run must record at least one switch, the static
        // run exactly zero.
        let cells = bench_phases(
            &[("adaptive", Algorithm::Adaptive), ("tlrw", Algorithm::Tlrw)],
            2,
            1_500,
            128,
            SHIFT_PHASES,
            &[|d| d.mode_transitions],
        );
        let [adaptive, tlrw] = &cells[..] else {
            panic!("one cell list per algorithm");
        };
        assert_eq!(adaptive.len(), 4, "3 phases + transitions");
        assert!(adaptive[3].ops >= 1, "adaptive never switched");
        assert_eq!(
            tlrw[3].ops, 0,
            "static algorithms must report zero transitions"
        );
    }

    #[test]
    fn long_scan_isolates_the_multi_version_acceptance_counters() {
        // A short storm: mv scans must record zero read-only aborts and
        // zero probes, no matter the interleaving. The single-version
        // contrast in this unit test is incremental, whose per-read
        // revalidation probes are structural (every scan pays
        // m(m-1)/2), so the assertion cannot be starved by scheduling
        // the way storm-dependent tl2 aborts can; the storm-dependent
        // rows for all six algorithms land in BENCH_native_stm.json.
        let cells = bench_long_scan(
            &[
                ("mv", Algorithm::Mv),
                ("incremental", Algorithm::Incremental),
            ],
            256,
            2,
            40,
        );
        let [mv, incremental] = &cells[..] else {
            panic!("one cell list per algorithm");
        };
        // Cell order: long_scan, ro_aborts, probes, aborts.
        assert_eq!(mv.len(), 4);
        assert!(mv[0].ops > 0);
        assert_eq!(mv[1].ops, 0, "mv readers abort-free");
        assert_eq!(mv[2].ops, 0, "mv readers never probe");
        assert!(
            incremental[2].ops > 0,
            "a single-version engine must pay under the storm"
        );
    }

    #[test]
    fn phase_scan_routes_the_adaptive_instance_through_multiversion() {
        // Enough commits per phase for several default sampling windows:
        // the adaptive run must cross at least two modes and serve some
        // reads from the multiversion hooks; the static contrast must
        // report zero transitions.
        let cells = bench_phases(
            &[("adaptive", Algorithm::Adaptive), ("tl2", Algorithm::Tl2)],
            2,
            400,
            256,
            SCAN_PHASES,
            &[|d| d.mode_transitions, |d| d.snapshot_reads],
        );
        let [adaptive, tl2] = &cells[..] else {
            panic!("one cell list per algorithm");
        };
        assert_eq!(adaptive.len(), 5, "3 phases + 2 companion cells");
        assert!(adaptive[3].ops >= 2, "adaptive never crossed two modes");
        assert!(
            adaptive[4].ops > 0,
            "no reads were served by the multiversion hooks"
        );
        assert_eq!((tl2[3].ops, tl2[4].ops), (0, 0));
    }

    #[test]
    fn camped_scan_walks_are_sublinear_in_chain_length() {
        // The skip-pointer acceptance picture in miniature: growing the
        // chain 16x (64 -> 1024) must leave the walk-steps-per-read far
        // below the linear count — a prev-only descent would pay ~1024
        // steps per read at the long rung.
        let per_read = |chain: usize| {
            let txns = 50;
            let (_, steps) = pass_camped(Algorithm::Mv, chain, txns);
            assert!(steps > 0);
            steps / (txns * CAMPED_VARS as u64)
        };
        let (short, long) = (per_read(64), per_read(1024));
        assert!(
            long < 1024 / 4,
            "walks at chain 1024 look linear: {long} steps/read"
        );
        assert!(
            long < short * 8,
            "16x the chain must cost well under 16x the steps \
             (chain 64: {short}/read, chain 1024: {long}/read)"
        );
    }

    #[test]
    fn role_shaped_rows_count_every_thread_they_spawn() {
        // `Family::run` asserts that every rung's `threads` equals the
        // threads its pass spawned. These are the two families whose
        // labels used to undercount: writers only, consumers only.
        let hw = crate::harness::hardware_threads();
        for name in ["long_scan", "blocking_queue"] {
            let family = FAMILIES.iter().find(|f| f.name == name).expect(name);
            let small = Family {
                algos: &[("tl2", Algorithm::Tl2)],
                ..*family
            };
            for r in small.run(true) {
                assert!(r.threads >= 2 && r.threads <= hw.max(2), "{r:?}");
            }
        }
    }
}
