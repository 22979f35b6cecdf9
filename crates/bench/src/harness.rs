//! The one wall-clock bench harness behind `BENCH_native_stm.json` and
//! `BENCH_structs.json`.
//!
//! A suite is a table of [`Family`] entries. An entry declares its
//! algorithms and its ladder — which names every row it will emit, so
//! [`keys`] can list a suite's rows without running anything — and a
//! `run` function holding the family's setup and the pass body it hands
//! to [`measure`]. [`run`] walks a table; [`emit`] prints, flags and
//! writes the result. Every thread a family spawns goes through
//! [`run_threads`].
//!
//! Ladders come from the machine: a family's ladder is a function of
//! [`hardware_threads`], so no committed row runs more threads than the
//! machine has (thread ladders climb 1, 2, 4, … up to it; role-shaped
//! families spawn `hw.max(2)` threads in total). `quick` shrinks the
//! work per row, never the row set, and every row's `threads` is the
//! number of threads its pass really spawned — [`Family::run`] asserts
//! it.
//!
//! The harness is deliberately criterion-free (the build environment is
//! offline): fixed-size workloads, wall-clock timing. There is one
//! measurement policy, [`measure`]: a warm-up, then [`PHASE_PASSES`]
//! passes **interleaved across a family's algorithms** (pass k of every
//! algorithm before pass k+1 of any), keeping each algorithm's best. On
//! a machine with bursty background load, sequential per-algorithm runs
//! would hand one algorithm a quiet window and another a stolen CPU, and
//! the comparison would measure the neighbours, not the algorithms.

use ptm_stm::{Algorithm, Stm};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Passes per measurement: the first pass absorbs an adaptive
/// instance's switching lag and the best pass rejects scheduler noise,
/// so the reported number is the steady-state cost of the mode the
/// algorithm (or controller) runs in.
pub const PHASE_PASSES: usize = 5;

/// An algorithm under measurement, with its report label.
pub type Algo = (&'static str, Algorithm);

/// One row a rung emits per algorithm: row name, `m` and the threads
/// the rung's pass spawns.
pub type Spec = (&'static str, usize, usize);

/// A row's identity: `(name, algo, m, threads)`.
pub type Key = (&'static str, &'static str, usize, usize);

/// What a family measured for one [`Spec`] and one algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Committed transactions (or, for a companion row, the counter the
    /// row carries).
    pub ops: u64,
    /// Wall-clock nanoseconds of the best pass.
    pub nanos: u128,
}

impl Cell {
    /// A cell of `ops` operations in `nanos` nanoseconds.
    pub fn new(ops: u64, nanos: u128) -> Cell {
        Cell { ops, nanos }
    }
}

/// What a family measured for one rung: per algorithm, one [`Cell`] per
/// [`Spec`] of the rung.
pub type Cells = Vec<Vec<Cell>>;

/// One measured configuration, as emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row name (`read_only_txn`, `map_read_mostly`, ...).
    pub name: &'static str,
    /// Algorithm label (one of [`crate::native::ALGOS`]).
    pub algo: &'static str,
    /// Read-set size, variable count or chain length, where applicable
    /// (0 otherwise).
    pub m: usize,
    /// Threads the pass spawned (1 for an inline pass).
    pub threads: usize,
    /// Committed transactions (or completed operations) across all
    /// threads in the best pass; companion rows carry a counter here.
    pub ops: u64,
    /// Wall-clock nanoseconds of the best pass.
    pub nanos: u128,
}

impl Row {
    /// Operations per second; infinite for an unmeasured (zero-nanos)
    /// row, which [`emit`] writes as `null`.
    pub fn ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return f64::INFINITY;
        }
        self.ops as f64 * 1e9 / self.nanos as f64
    }

    /// This row's identity.
    pub fn key(&self) -> Key {
        (self.name, self.algo, self.m, self.threads)
    }
}

/// One bench family: a table entry.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// Family name; bins select sub-suites by it.
    pub name: &'static str,
    /// The algorithms swept.
    pub algos: &'static [Algo],
    /// The ladder on a machine of `hw` hardware threads: one rung per
    /// configuration, each rung listing the rows it emits per algorithm.
    pub ladder: fn(hw: usize) -> Vec<Vec<Spec>>,
    /// Row order: algorithm-outer, rung-inner when set; otherwise
    /// rung-outer. Measurement is interleaved per rung either way.
    pub algo_major: bool,
    /// Setup plus pass body for one rung.
    pub run: fn(rung: &[Spec], algos: &[Algo], quick: bool) -> Cells,
}

impl Family {
    /// `(rung, algorithm)` index pairs in emission order.
    fn order(&self, rungs: usize) -> Vec<(usize, usize)> {
        let algos = self.algos.len();
        if self.algo_major {
            (0..algos)
                .flat_map(|a| (0..rungs).map(move |r| (r, a)))
                .collect()
        } else {
            (0..rungs)
                .flat_map(|r| (0..algos).map(move |a| (r, a)))
                .collect()
        }
    }

    /// The rows this family emits on a machine of `hw` hardware
    /// threads, without running anything.
    pub fn keys(&self, hw: usize) -> Vec<Key> {
        let ladder = (self.ladder)(hw);
        let order = self.order(ladder.len());
        let key = |(r, a): (usize, usize)| {
            let rung: &Vec<Spec> = &ladder[r];
            let algo = self.algos[a].0;
            rung.iter()
                .map(move |&(name, m, threads)| (name, algo, m, threads))
        };
        order.into_iter().flat_map(key).collect()
    }

    /// Measures every rung of this machine's ladder and returns the rows
    /// in emission order.
    ///
    /// # Panics
    ///
    /// Panics if a rung's `threads` column differs from the most threads
    /// one [`run_threads`] call of its pass spawned.
    pub fn run(&self, quick: bool) -> Vec<Row> {
        let ladder = (self.ladder)(hardware_threads());
        let measure_rung = |rung: &Vec<Spec>| {
            SPAWNED.set(1);
            let cells = (self.run)(rung, self.algos, quick);
            let spawned = SPAWNED.get();
            for &(name, _, threads) in rung {
                assert_eq!(
                    threads, spawned,
                    "{name}: threads must count the spawned threads"
                );
            }
            cells
        };
        let cells: Vec<Cells> = ladder.iter().map(measure_rung).collect();
        let mut rows = Vec::new();
        for (r, a) in self.order(ladder.len()) {
            assert_eq!(cells[r][a].len(), ladder[r].len(), "{}", self.name);
            for (&(name, m, threads), cell) in ladder[r].iter().zip(&cells[r][a]) {
                rows.push(Row {
                    name,
                    algo: self.algos[a].0,
                    m,
                    threads,
                    ops: cell.ops,
                    nanos: cell.nanos,
                });
            }
        }
        rows
    }
}

/// The row keys of `families` on a machine of `hw` hardware threads, in
/// emission order, without running anything.
pub fn keys<'a>(families: impl IntoIterator<Item = &'a Family>, hw: usize) -> Vec<Key> {
    let keys = |f: &Family| f.keys(hw);
    families.into_iter().flat_map(keys).collect()
}

/// Runs `families` in table order, on this machine's ladders.
pub fn run<'a>(families: impl IntoIterator<Item = &'a Family>, quick: bool) -> Vec<Row> {
    let run = |f: &Family| f.run(quick);
    families.into_iter().flat_map(run).collect()
}

/// The hardware threads of this machine: what every ladder is sized to
/// and what [`emit`] flags rows against.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

thread_local! {
    /// The most threads one [`run_threads`] call on this thread used
    /// since [`Family::run`] last reset it to 1 (an inline pass).
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(1) };
}

/// Runs `f(t)` for `t in 0..n` on `n` scoped threads (inline for
/// `n == 1`, so single-thread rows carry no spawn cost) and returns the
/// wall-clock nanoseconds from before the first spawn to after the last
/// join. A family with several roles dispatches on `t`.
pub fn run_threads(n: usize, f: impl Fn(usize) + Sync) -> u128 {
    SPAWNED.set(SPAWNED.get().max(n));
    let start = Instant::now();
    if n == 1 {
        f(0);
    } else {
        std::thread::scope(|s| {
            for t in 0..n {
                let f = &f;
                s.spawn(move || f(t));
            }
        });
    }
    start.elapsed().as_nanos()
}

/// The measurement policy: `warm` every instance once, then
/// [`PHASE_PASSES`] rounds of `pass` interleaved across the instances,
/// keeping each instance's smallest sample. Samples order by their
/// first component, so a pass returns nanoseconds, or a tuple leading
/// with them when the best pass carries more than its time.
pub fn measure<I, S: Ord>(
    instances: &mut [I],
    warm: impl FnMut(&mut I),
    mut pass: impl FnMut(&mut I) -> S,
) -> Vec<S> {
    instances.iter_mut().for_each(warm);
    let mut best: Vec<Option<S>> = instances.iter().map(|_| None).collect();
    for _ in 0..PHASE_PASSES {
        for (inst, best) in instances.iter_mut().zip(&mut best) {
            let sample = pass(inst);
            if best.as_ref().is_none_or(|b| sample < *b) {
                *best = Some(sample);
            }
        }
    }
    let taken = |b: Option<S>| b.expect("PHASE_PASSES is positive");
    best.into_iter().map(taken).collect()
}

/// The common family shape: per algorithm one fresh [`Stm`] plus what
/// `setup` builds for it, `body(stm, state, work)` as the pass (a tenth
/// of `work` as the warm-up), one timed row of `ops` operations.
pub fn timed<I>(
    algos: &[Algo],
    work: u64,
    ops: u64,
    setup: impl Fn(&Stm) -> I,
    body: impl Fn(&Stm, &I, u64) -> u128,
) -> Cells {
    let instance = |&(_, algo): &Algo| {
        let stm = Stm::new(algo);
        let state = setup(&stm);
        (stm, state)
    };
    let mut instances: Vec<(Stm, I)> = algos.iter().map(instance).collect();
    let best = measure(
        &mut instances,
        |(stm, state)| {
            body(stm, state, work / 10 + 1);
        },
        |(stm, state)| body(stm, state, work),
    );
    let row = |nanos| vec![Cell::new(ops, nanos)];
    best.into_iter().map(row).collect()
}

/// 1, 2, 4, … up to `max` inclusive (nothing for `max == 0`).
pub(crate) fn doublings(max: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |t| t.checked_mul(2)).take_while(move |&t| t <= max)
}

/// A one-row-per-rung ladder at a fixed `m` over 1, 2, 4, … ≤ `hw`
/// threads.
pub fn thread_ladder(name: &'static str, m: usize, hw: usize) -> Vec<Vec<Spec>> {
    doublings(hw).map(|t| vec![(name, m, t)]).collect()
}

/// The small deterministic PRNG (an LCG, PCG-style step) every bench
/// workload draws from; seed it with the thread index for reproducible
/// per-thread streams.
pub fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Canonical location of a baseline file: the workspace root, wherever
/// the user stands when invoking a bin (or the package directory `cargo
/// test` runs from). The root is found at runtime by walking up from the
/// current directory to the nearest ancestor holding a `Cargo.lock`, so
/// a moved or copied checkout still writes next to its own code;
/// out-of-tree invocations fall back to this crate's compile-time
/// workspace.
pub fn baseline_path(file: &str) -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        // Only accept a root that is *this* workspace (its manifest
        // lists the bench crate), so running from inside some unrelated
        // Cargo project does not drop the baseline there.
        if d.join("Cargo.lock").exists()
            && std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|m| m.contains("crates/bench"))
        {
            return d.join(file).to_string_lossy().into_owned();
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The flags both suite bins share: `--quick` shrinks the workloads,
/// `--out PATH` redirects the JSON.
pub fn cli() -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args.iter().position(|a| a == "--out");
    (quick, out.and_then(|i| args.get(i + 1)).cloned())
}

/// The one emitter: prints `rows` as an aligned table, warns about rows
/// that ran with more threads than the machine has, and — given a
/// `path` — writes the baseline document there.
///
/// Rows whose `threads` exceed the hardware threads measure the
/// scheduler, not the algorithm: they carry `"oversubscribed": true` so
/// baseline comparisons can discount (or reject) them. The ladders never
/// ask for such a row except for a role-shaped family's two threads on a
/// one-thread machine. An unmeasured row's rate is `null`, never the
/// non-JSON `inf`.
pub fn emit(bench: &str, rows: &[Row], quick: bool, path: Option<&str>) {
    let hw = hardware_threads();
    let mut table = format!(
        "{:<28} {:>16} {:>7} {:>8} {:>12} {:>14}\n",
        "bench", "algo", "m", "threads", "ops", "ops/sec"
    );
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"quick\": {quick},\n  \"hardware_threads\": {hw},\n  \"results\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let (name, algo, m, threads) = r.key();
        let Row { ops, nanos, .. } = *r;
        let rate = r.ops_per_sec();
        table.push_str(&format!(
            "{name:<28} {algo:>16} {m:>7} {threads:>8} {ops:>12} {rate:>14.0}\n"
        ));
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"algo\": \"{algo}\", \"m\": {m}, \"threads\": {threads}, \"ops\": {ops}, \"nanos\": {nanos}, \"ops_per_sec\": "
        ));
        if rate.is_finite() {
            json.push_str(&format!("{rate:.1}"));
        } else {
            json.push_str("null");
        }
        if threads > hw {
            json.push_str(", \"oversubscribed\": true");
        }
        json.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ]\n}\n");
    print!("{table}");
    let over = rows.iter().filter(|r| r.threads > hw).count();
    if over > 0 {
        eprintln!(
            "warning: {over} result rows ran oversubscribed (threads > {hw} \
             hardware threads); their timings measure scheduling, not the \
             algorithm, and are flagged \"oversubscribed\" in the JSON"
        );
    }
    if let Some(path) = path {
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("baseline written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_path_resolves_to_this_workspace_root() {
        // Under `cargo test` the CWD is the package dir; the walk-up
        // must land on the workspace root (which holds the bench crate),
        // not merely the nearest Cargo.lock of whatever project.
        let p = std::path::PathBuf::from(baseline_path("PROBE.json"));
        assert_eq!(p.file_name().unwrap(), "PROBE.json");
        let root = p.parent().unwrap();
        assert!(root.join("Cargo.lock").exists(), "{}", root.display());
        assert!(root.join("crates/bench").is_dir(), "{}", root.display());
    }

    #[test]
    fn measure_warms_up_then_interleaves_and_keeps_the_best() {
        // Instance i's k-th pass costs `samples[i][k]`.
        let samples = [[5u128, 3, 9, 4, 8], [2, 7, 6, 1, 9]];
        let calls = std::cell::RefCell::new(Vec::new());
        let mut instances = [(0usize, 0usize), (1, 0)];
        let best = measure(
            &mut instances,
            |&mut (i, _)| calls.borrow_mut().push(("warm", i)),
            |(i, k)| {
                calls.borrow_mut().push(("pass", *i));
                *k += 1;
                samples[*i][*k - 1]
            },
        );
        assert_eq!(best, [3, 1]);
        let calls = calls.into_inner();
        assert_eq!(calls[..2], [("warm", 0), ("warm", 1)]);
        assert_eq!(calls.len(), 2 + 2 * PHASE_PASSES);
        for round in calls[2..].chunks(2) {
            assert_eq!(round, [("pass", 0), ("pass", 1)]);
        }
    }
}
