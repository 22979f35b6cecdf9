//! YCSB-style workload generation and measurement.
//!
//! The driver side of the service benchmark: a [`Workload`] draws
//! operations from a configurable read/write/scan/multi-key [`Mix`]
//! with zipfian key skew (the YCSB default of `theta = 0.99` makes a
//! handful of keys hot, which is what stresses contention management
//! and the cross-shard commit path), and [`run_workload`] drives a
//! [`ShardedKv`] with it from N threads, recording **per-operation
//! latency** so the report can show p50/p99 tails, not just throughput
//! — a service that commits fast on average but stalls its tail behind
//! a conflict storm fails its users either way. The store may or may
//! not carry a log: the durability on/off bench rows differ only in how
//! it was built.
//!
//! Everything is deterministic per thread: a seeded LCG supplies both
//! the op choice and the zipfian uniform draw, so two runs of the same
//! configuration replay the same operation streams.

use crate::kv::ShardedKv;
use std::time::Instant;

/// The balance-preserving multi-key transfer the mix's `multi` ops run:
/// move 1 from `keys[0]` to `keys[last]` (saturating at zero), pinning
/// the middle keys into the footprint.
fn transfer(kv: &ShardedKv<u64, u64>, keys: &[u64]) {
    kv.transact(|tx| {
        let from = tx.get(&keys[0])?.unwrap_or(0);
        let to_key = *keys.last().expect("span >= 2");
        let to = tx.get(&to_key)?.unwrap_or(0);
        for k in &keys[1..keys.len() - 1] {
            tx.get(k)?;
        }
        let moved = from.min(1);
        tx.put(keys[0], from - moved)?;
        tx.put(to_key, to + moved)?;
        Ok(())
    });
}

/// Operation mix, in percent. Must sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Single-key reads.
    pub read: u32,
    /// Single-key writes.
    pub write: u32,
    /// Consistent cross-shard scans.
    pub scan: u32,
    /// Multi-key (cross-shard) transfer transactions.
    pub multi: u32,
}

impl Mix {
    /// YCSB-A-flavoured update-heavy default with a sliver of scans and
    /// cross-shard transfers: 70/24/1/5.
    pub const UPDATE_HEAVY: Mix = Mix {
        read: 70,
        write: 24,
        scan: 1,
        multi: 5,
    };

    /// YCSB-B-flavoured read-mostly mix: 93/5/0/2.
    pub const READ_MOSTLY: Mix = Mix {
        read: 93,
        write: 5,
        scan: 0,
        multi: 2,
    };

    fn total(&self) -> u32 {
        self.read + self.write + self.scan + self.multi
    }
}

/// Workload shape: key population, skew, and mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Key space size (keys are `0..keys`).
    pub keys: u64,
    /// Zipfian skew parameter; `0.0` means uniform. YCSB default 0.99.
    pub zipf_theta: f64,
    /// Operation mix.
    pub mix: Mix,
    /// Keys per multi-key transaction (a transfer chain). Minimum 2.
    pub multi_span: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            keys: 1024,
            zipf_theta: 0.99,
            mix: Mix::UPDATE_HEAVY,
            multi_span: 2,
        }
    }
}

/// One drawn operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Read one key.
    Read(u64),
    /// Write `value` to one key.
    Write(u64, u64),
    /// Consistent scan over the whole store.
    Scan,
    /// Balance-preserving transfer across the listed keys (debit the
    /// first, credit the last) — the op the atomicity test watches.
    Multi(Vec<u64>),
}

/// A prepared workload: the mix plus the precomputed zipfian constants
/// (the `zeta(n)` sum is O(n), paid once here, never per draw).
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    zeta_n: f64,
    zeta_two: f64,
    alpha: f64,
    eta: f64,
}

/// The LCG (PCG-style step) the workload generator and the bench crate
/// (which re-exports it) share; seed with the thread index.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A uniform draw in `[0, 1)` from the LCG (53 usable bits).
fn next_f64(state: &mut u64) -> f64 {
    (next_rand(state) & ((1u64 << 53) - 1)) as f64 / (1u64 << 53) as f64
}

impl Workload {
    /// Prepares a workload, precomputing the zipfian tables.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not sum to 100, `keys` is zero, or
    /// `zipf_theta >= 1` (the YCSB formulation requires `theta < 1`).
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert_eq!(cfg.mix.total(), 100, "mix percentages must sum to 100");
        assert!(cfg.keys > 0, "empty key space");
        assert!(
            (0.0..1.0).contains(&cfg.zipf_theta),
            "zipf theta must be in [0, 1)"
        );
        assert!(
            cfg.mix.multi == 0 || cfg.keys >= cfg.multi_span.max(2) as u64,
            "multi-key ops need at least multi_span distinct keys"
        );
        let n = cfg.keys;
        let theta = cfg.zipf_theta;
        let zeta_n: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta_two = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_two / zeta_n);
        Workload {
            cfg,
            zeta_n,
            zeta_two,
            alpha,
            eta,
        }
    }

    /// Draws the next key: a zipfian *rank* (rank 0 hottest), then a
    /// multiplicative scramble so the hot ranks scatter across the key
    /// space (and therefore across shards) instead of clustering at 0 —
    /// standard YCSB "scrambled zipfian".
    pub fn next_key(&self, state: &mut u64) -> u64 {
        let rank = if self.cfg.zipf_theta == 0.0 {
            next_rand(state) % self.cfg.keys
        } else {
            let u = next_f64(state);
            let uz = u * self.zeta_n;
            if uz < 1.0 {
                0
            } else if uz < self.zeta_two {
                1
            } else {
                let r = (self.cfg.keys as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha))
                    as u64;
                r.min(self.cfg.keys - 1)
            }
        };
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.cfg.keys
    }

    /// Draws the next operation.
    pub fn next_op(&self, state: &mut u64) -> WorkloadOp {
        let roll = (next_rand(state) % 100) as u32;
        let m = &self.cfg.mix;
        if roll < m.read {
            WorkloadOp::Read(self.next_key(state))
        } else if roll < m.read + m.write {
            let key = self.next_key(state);
            WorkloadOp::Write(key, next_rand(state))
        } else if roll < m.read + m.write + m.scan {
            WorkloadOp::Scan
        } else {
            let span = self.cfg.multi_span.max(2);
            let mut keys = Vec::with_capacity(span);
            while keys.len() < span {
                let k = self.next_key(state);
                // Distinct keys: a transfer from a key to itself tests
                // nothing.
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            WorkloadOp::Multi(keys)
        }
    }
}

/// Per-operation latency samples, merged across threads at the end of a
/// run.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
}

impl LatencyRecorder {
    /// Records one operation's latency in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Absorbs another recorder's samples.
    pub fn merge(&mut self, other: LatencyRecorder) {
        self.samples.extend(other.samples);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (`0.0..=100.0`) in nanoseconds, or 0 with
    /// no samples. Sorts in place (call after the run, not during).
    pub fn percentile(&mut self, p: f64) -> u64 {
        percentile(&mut self.samples, p)
    }
}

/// Nearest-rank percentile of `samples` (`p` in `0.0..=100.0`); sorts
/// the slice in place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// The outcome of one [`run_workload`] pass.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// Completed operations across all threads.
    pub ops: u64,
    /// Wall-clock nanoseconds for the whole pass.
    pub nanos: u128,
    /// Per-kind completion counts: reads, writes, scans, multis.
    pub reads: u64,
    /// Single-key writes completed.
    pub writes: u64,
    /// Consistent scans completed.
    pub scans: u64,
    /// Multi-key transactions completed.
    pub multis: u64,
    /// Merged per-operation latency samples.
    pub latencies: LatencyRecorder,
}

impl WorkloadStats {
    /// Operations per second over the pass.
    pub fn ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 * 1e9 / self.nanos as f64
    }
}

/// Preloads every key with `initial` so the balance invariant the
/// atomicity test checks (`sum == keys * initial`) holds from the start
/// and transfers never go through missing keys.
pub fn preload(kv: &ShardedKv<u64, u64>, keys: u64, initial: u64) {
    for k in 0..keys {
        kv.put(k, initial);
    }
}

/// Runs `ops_per_thread` operations of `workload` on `kv` from each of
/// `threads` threads, timing every operation. Thread `t` seeds its
/// stream with `seed + t`, so a repeated call replays identical
/// streams.
///
/// Multi-key ops transfer 1 from the first drawn key to the last
/// (saturating at zero so balances stay non-negative), keeping the
/// store's total sum invariant — concurrent scans can assert it.
pub fn run_workload(
    kv: &ShardedKv<u64, u64>,
    workload: &Workload,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> WorkloadStats {
    let start = Instant::now();
    let per_thread: Vec<(u64, u64, u64, u64, LatencyRecorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut state = seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9) | 1;
                    let mut lat = LatencyRecorder::default();
                    let (mut reads, mut writes, mut scans, mut multis) = (0u64, 0u64, 0u64, 0u64);
                    for _ in 0..ops_per_thread {
                        let op = workload.next_op(&mut state);
                        let t0 = Instant::now();
                        match op {
                            WorkloadOp::Read(k) => {
                                std::hint::black_box(kv.get(&k));
                                reads += 1;
                            }
                            WorkloadOp::Write(k, v) => {
                                kv.put(k, v);
                                writes += 1;
                            }
                            WorkloadOp::Scan => {
                                std::hint::black_box(kv.scan());
                                scans += 1;
                            }
                            WorkloadOp::Multi(keys) => {
                                transfer(kv, &keys);
                                multis += 1;
                            }
                        }
                        lat.record(t0.elapsed().as_nanos() as u64);
                    }
                    (reads, writes, scans, multis, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread"))
            .collect()
    });
    let nanos = start.elapsed().as_nanos();
    let mut stats = WorkloadStats {
        ops: 0,
        nanos,
        reads: 0,
        writes: 0,
        scans: 0,
        multis: 0,
        latencies: LatencyRecorder::default(),
    };
    for (reads, writes, scans, multis, lat) in per_thread {
        stats.reads += reads;
        stats.writes += writes;
        stats.scans += scans;
        stats.multis += multis;
        stats.latencies.merge(lat);
    }
    stats.ops = stats.reads + stats.writes + stats.scans + stats.multis;
    stats
}
