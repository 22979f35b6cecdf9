//! One run of one workload: set-up, warm-up, measured passes, checks,
//! and (traced) the per-layer numbers.

use crate::gen::{self, Class, Op, Spec, BLOCK, CLASS_NAMES, CLIENTS};
use crate::hist::{self, Hist};
use crate::json::Json;
use crate::ladder;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::store::Store;
use ptm_server::ShardedKv;
use ptm_stm::StatsSnapshot;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Length of one slice of an untraced run's measured pass, in seconds:
/// a run of `--seconds 30` is 120 of them. The clients run through;
/// each closes its slice at the first clock read past the slice's end.
/// Short against the seconds-long spells in which the host slows this
/// machine's memory (see [`QUIET`]), long against an op: the scarcest
/// timed class, `put` on `scan_mv`, still leaves a thousand samples in
/// one.
const SLICE_S: f64 = 0.25;
/// An end-to-end timing is the value the quietest tenth of a run's
/// slices reach: the ninth decile of their throughputs, the first
/// decile of their latency medians. Interference on a shared host only
/// ever slows a slice down, and it comes in spells of seconds: in two
/// sets of ten 30-second runs the median of the slices spread by
/// 0.17-0.28 on `point_read` where this spread by 0.05-0.14, and by no
/// more on any workload. What the decile leaves out lasts a quarter of
/// a second or more, which nothing in the store does.
const QUIET: f64 = 0.1;
/// Set-ups before the measured pass, which runs on the last one's
/// store, and after it. `setup_s` is the quiet decile (see [`QUIET`])
/// of what each of the nine spent building and preloading its store: a
/// build works on memory the op generation before it pushed out of L2,
/// so a slow spell of the host costs it a half, and the half a minute
/// between the two groups is longer than most such spells. Generating
/// the op streams, nine tenths of a set-up's time, is the harness's
/// own work, which no change to the repository moves: it is
/// `harness.generator_ns_per_op`.
const SETUPS: [usize; 2] = [5, 4];
/// `get`/`put` are timed on every 8th op, so the two clock reads cost
/// under 5 % of even a cheap op; `multi` and `scan` on every op.
const SAMPLE_MASK: u64 = 7;
/// Spans kept in memory per client in the traced pass (the dump holds
/// at most `CLIENTS` times this).
const SPAN_CAP: usize = 100_000;

pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A hundredth of the load and two passes: exercises every code
    /// path, measures nothing.
    pub smoke: bool,
    /// Result files and traces go here.
    pub out_dir: PathBuf,
    /// Write-ahead logs go under here: by default `out_dir`, inside
    /// the checkout, on whatever disk that is.
    pub wal_root: PathBuf,
}

impl Config {
    fn block(&self) -> usize {
        if self.smoke {
            BLOCK / 64
        } else {
            BLOCK
        }
    }

    fn wal_dir(&self) -> PathBuf {
        self.wal_root
            .join(format!("wal-{}-{}", self.spec.name, std::process::id()))
    }
}

/// One reported number. `passes` holds the per-pass values behind a
/// median (empty for a single measurement); `batches` the quartile
/// range behind a ladder reading.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub passes: Vec<f64>,
    pub batches: Option<(f64, f64)>,
}

impl Metric {
    /// Min, median, max and MAD of the per-pass values, if there are
    /// any.
    pub fn pass_spread(&self) -> Option<(f64, f64, f64, f64)> {
        let min = self.passes.iter().copied().reduce(f64::min)?;
        let max = self.passes.iter().copied().reduce(f64::max)?;
        let median = hist::median(&self.passes);
        Some((min, median, max, hist::mad(&self.passes)))
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub detail: Json,
}

struct Loaded {
    store: Store,
    /// Building and preloading the store: the part of set-up that is
    /// the system's.
    store_s: f64,
    streams: Vec<Vec<Op>>,
    generator_ns_per_op: f64,
}

fn setup(cfg: &Config) -> io::Result<Loaded> {
    let dir = cfg.wal_dir();
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let t = Instant::now();
    let mut store = Store::build(cfg.spec, &dir, true)?;
    if let Store::Durable(d) = &mut store {
        // The measured passes start from a rebaselined log, not from
        // the preload's.
        d.checkpoint()?;
    }
    let store_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let streams: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| gen::generate(cfg.spec, cfg.seed, c, cfg.block()))
        .collect();
    let generator_ns_per_op = t.elapsed().as_nanos() as f64 / (CLIENTS * cfg.block()) as f64;
    Ok(Loaded {
        store,
        store_s,
        streams,
        generator_ns_per_op,
    })
}

/// One timed operation of the traced pass.
pub struct Span {
    pub client: u8,
    pub class: Class,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct ClientOut {
    start: Instant,
    end: Instant,
    next: u64,
    failed: u64,
    per_class: [u64; 4],
    /// Of the whole pass; of its unfinished last slice if it is sliced.
    hists: [Hist; 4],
    slices: Vec<Slice>,
    spans: Vec<Span>,
}

/// What one client, or all of them, did in one slice: numbers, not
/// histograms, 120 sets of which would be 8 MB of harness in the heap
/// reading.
struct Slice {
    throughput: f64,
    get_p50: Option<f64>,
    put_p50: Option<f64>,
    samples: [u64; 4],
}

impl Slice {
    /// All clients' slice from each one's: throughputs add up, a
    /// median is the mean of the clients' medians.
    fn sum(of: &[&Slice]) -> Slice {
        let mean = |f: fn(&Slice) -> Option<f64>| {
            let vs = of.iter().map(|s| f(s)).collect::<Option<Vec<f64>>>()?;
            Some(vs.iter().sum::<f64>() / vs.len() as f64)
        };
        Slice {
            throughput: of.iter().map(|s| s.throughput).sum(),
            get_p50: mean(|s| s.get_p50),
            put_p50: mean(|s| s.put_p50),
            samples: [0, 1, 2, 3].map(|k| of.iter().map(|s| s.samples[k]).sum()),
        }
    }
}

enum Reply {
    Got(Option<u64>),
    Scanned(Vec<(u64, u64)>),
    Done,
}

/// A scan is right if it holds every key exactly once and the account
/// balances still sum to what was preloaded.
fn scan_ok(spec: &Spec, entries: &[(u64, u64)], seen: &mut [u64]) -> bool {
    if entries.len() as u64 != spec.keys {
        return false;
    }
    seen.fill(0);
    let accounts = spec.accounts();
    let mut sum = 0u64;
    for &(k, v) in entries {
        if k >= spec.keys {
            return false;
        }
        let (word, bit) = ((k / 64) as usize, 1u64 << (k % 64));
        if seen[word] & bit != 0 {
            return false;
        }
        seen[word] |= bit;
        if k < accounts {
            sum += v;
        }
    }
    sum == accounts * gen::ACCOUNT_START
}

/// The closed loop of one client: next op only after the previous one
/// returned, until a clock read the loop takes anyway passes `dur`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    store: &Store,
    spec: &Spec,
    client: usize,
    ops: &[Op],
    mut next: u64,
    dur: Duration,
    slice: Option<Duration>,
    traced: bool,
    barrier: &Barrier,
) -> ClientOut {
    let mask = ops.len() as u64 - 1;
    let mut seen = vec![0u64; (spec.keys as usize).div_ceil(64)];
    let mut out = ClientOut {
        start: Instant::now(),
        end: Instant::now(),
        next,
        failed: 0,
        per_class: [0; 4],
        hists: Default::default(),
        slices: Vec::with_capacity(slice.map_or(0, |len| dur.div_duration_f64(len) as usize + 1)),
        spans: Vec::with_capacity(if traced { SPAN_CAP } else { 0 }),
    };
    barrier.wait();
    out.start = Instant::now();
    let deadline = out.start + dur;
    let (mut slice_start, mut slice_first) = (out.start, next);
    loop {
        let op = ops[(next & mask) as usize];
        let timed = traced || op.class() as u8 >= Class::Scan as u8 || next & SAMPLE_MASK == 0;
        let t0 = timed.then(Instant::now);
        let reply = match op.class() {
            Class::Get => Reply::Got(store.get(op.key())),
            Class::Put => {
                store.put(op.key(), gen::put_value(client, next));
                Reply::Done
            }
            Class::Scan => Reply::Scanned(store.scan()),
            Class::Multi => {
                store.transfer(&op.keys()[..spec.span]);
                Reply::Done
            }
        };
        let t1 = timed.then(Instant::now);
        // Checks run after the op's end timestamp.
        let ok = match black_box(reply) {
            Reply::Got(v) => v.is_some(),
            Reply::Scanned(entries) => scan_ok(spec, &entries, &mut seen),
            Reply::Done => true,
        };
        out.failed += u64::from(!ok);
        out.per_class[op.class() as usize] += 1;
        next += 1;
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let dur_ns = (t1 - t0).as_nanos() as u64;
            out.hists[op.class() as usize].record(dur_ns);
            if traced && out.spans.len() < SPAN_CAP {
                out.spans.push(Span {
                    client: client as u8,
                    class: op.class(),
                    start_ns: (t0 - out.start).as_nanos() as u64,
                    dur_ns,
                });
            }
            if t1 >= deadline {
                out.end = t1;
                break;
            }
            if slice.is_some_and(|len| t1 >= slice_start + len) {
                out.slices.push(Slice {
                    throughput: (next - slice_first) as f64 / (t1 - slice_start).as_secs_f64(),
                    get_p50: out.hists[Class::Get as usize].quantile(0.50),
                    put_p50: out.hists[Class::Put as usize].quantile(0.50),
                    samples: [0, 1, 2, 3].map(|k| out.hists[k].len()),
                });
                out.hists.iter_mut().for_each(Hist::clear);
                (slice_start, slice_first) = (t1, next);
            }
        }
    }
    out.next = next;
    out
}

struct Pass {
    ops: u64,
    seconds: f64,
    failed: u64,
    per_class: [u64; 4],
    hists: [Hist; 4],
    /// The slices every client finished, if the pass was sliced.
    slices: Vec<Slice>,
    spans: Vec<Span>,
}

impl Pass {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.seconds
    }

    /// Percentile of one class in ns, under the ten-beyond rule.
    fn quantile(&self, class: Class, q: f64) -> Option<f64> {
        self.hists[class as usize].quantile(q)
    }
}

/// Runs all clients for `dur`, advancing `cursors`. A client that
/// panics fails the run: `Err` carries its message.
fn run_pass(
    store: &Store,
    spec: &Spec,
    streams: &[Vec<Op>],
    cursors: &mut [u64],
    dur: Duration,
    slice: Option<Duration>,
    traced: bool,
) -> Result<Pass, String> {
    let barrier = Barrier::new(streams.len());
    let outs: Vec<Result<ClientOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (barrier, next) = (&barrier, cursors[c]);
                s.spawn(move || client_loop(store, spec, c, ops, next, dur, slice, traced, barrier))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(c, h)| h.join().map_err(|_| format!("client {c} panicked")))
            .collect()
    });
    let outs: Vec<ClientOut> = outs.into_iter().collect::<Result<_, _>>()?;
    let start = outs.iter().map(|o| o.start).min().expect("clients");
    let end = outs.iter().map(|o| o.end).max().expect("clients");
    let whole_slices = outs.iter().map(|o| o.slices.len()).min().expect("clients");
    let mut pass = Pass {
        ops: 0,
        seconds: (end - start).as_secs_f64(),
        failed: 0,
        per_class: [0; 4],
        hists: Default::default(),
        slices: (0..whole_slices)
            .map(|k| Slice::sum(&outs.iter().map(|o| &o.slices[k]).collect::<Vec<_>>()))
            .collect(),
        spans: Vec::new(),
    };
    for (c, o) in outs.into_iter().enumerate() {
        pass.ops += o.next - cursors[c];
        cursors[c] = o.next;
        pass.failed += o.failed;
        for k in 0..4 {
            pass.per_class[k] += o.per_class[k];
            pass.hists[k].merge(&o.hists[k]);
        }
        pass.spans.extend(o.spans);
    }
    Ok(pass)
}

/// Sentinel in a last-writer table: this client never put the key.
const NEVER: u64 = u64::MAX;

/// Replays the generated streams: per client, the last value it put to
/// each key among its first `cursors[client]` ops. Indices congruent
/// modulo the block hold the same op, so the last block's worth of
/// indices covers every put ever issued.
pub fn last_puts(spec: &Spec, streams: &[Vec<Op>], cursors: &[u64]) -> Vec<Vec<u64>> {
    streams
        .iter()
        .zip(cursors)
        .enumerate()
        .map(|(c, (ops, &end))| {
            let mut last = vec![NEVER; spec.keys as usize];
            for i in end.saturating_sub(ops.len() as u64)..end {
                let op = ops[(i % ops.len() as u64) as usize];
                if op.class() == Class::Put {
                    last[op.key() as usize] = gen::put_value(c, i);
                }
            }
            last
        })
        .collect()
}

/// Violations in a quiescent store's contents: a missing, duplicate or
/// foreign key; account balances that no longer sum to the preload; a
/// blob that holds neither a client's last put nor (if nobody put it)
/// its preload.
pub fn check_final(spec: &Spec, entries: &[(u64, u64)], last: &[Vec<u64>]) -> u64 {
    let mut held = vec![None; spec.keys as usize];
    let mut bad = 0u64;
    for &(k, v) in entries {
        match held.get_mut(k as usize) {
            Some(slot @ None) => *slot = Some(v),
            _ => bad += 1,
        }
    }
    let accounts = spec.accounts();
    let mut sum = 0u64;
    for (k, v) in held.iter().enumerate() {
        let Some(v) = *v else {
            bad += 1;
            continue;
        };
        if (k as u64) < accounts {
            sum += v;
            continue;
        }
        let mut writers = last.iter().map(|l| l[k]).filter(|&p| p != NEVER).peekable();
        let ok = if writers.peek().is_none() {
            v == spec.preload_value(k as u64)
        } else {
            writers.any(|p| p == v)
        };
        bad += u64::from(!ok);
    }
    bad + u64::from(sum != accounts * gen::ACCOUNT_START)
}

/// What the write-ahead logs must hold for the ops in
/// `from[c]..to[c]`, and how the multis among them spread over shards.
#[derive(Default)]
struct Written {
    /// Log records: one per put, one per *writing* shard of a multi.
    records: u64,
    /// Key-value pairs written (a multi writes its first and last key).
    pairs: u64,
    multis: u64,
    /// Multis whose keys (read or written) span more than one shard.
    cross_shard: u64,
}

fn written(
    kv: &ShardedKv<u64, u64>,
    spec: &Spec,
    streams: &[Vec<Op>],
    from: &[u64],
    to: &[u64],
) -> Written {
    let mut w = Written::default();
    for (c, ops) in streams.iter().enumerate() {
        for i in from[c]..to[c] {
            let op = ops[(i % ops.len() as u64) as usize];
            match op.class() {
                Class::Put => {
                    w.records += 1;
                    w.pairs += 1;
                }
                Class::Multi => {
                    let shards = op.keys().map(|k| kv.shard_of(&k));
                    let shards = &shards[..spec.span];
                    let (first, last) = (shards[0], shards[spec.span - 1]);
                    w.records += if first == last { 1 } else { 2 };
                    w.pairs += 2;
                    w.multis += 1;
                    w.cross_shard += u64::from(shards.iter().any(|&s| s != first));
                }
                Class::Get | Class::Scan => {}
            }
        }
    }
    w
}

fn dir_log_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|e| e == "wal") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Heap bytes this process has allocated and not freed, in MB, as
/// glibc's allocator counts them over all its arenas (`uordblks`) plus
/// what it mapped directly for large blocks (`hblkhd`). Read while no
/// client runs, so it costs the timed loops nothing; and unlike the resident
/// set it does not depend on which freed pages the allocator happens to
/// have kept: the RSS growth of `update_multi` read 4.3-4.8 MB over six
/// runs, this reads the same to a hundredth.
fn heap_in_use_mb() -> f64 {
    /// `struct mallinfo2` of `<malloc.h>` (glibc 2.33).
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: `mallinfo2` takes no argument, locks each arena while it
    // reads it, and returns a plain struct of ten `size_t` by value.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1 << 20) as f64
}

/// What one `Instant::now()` pair reads with nothing between: the bias
/// every sampled latency carries.
fn timer_overhead_ns() -> f64 {
    let mut h = Hist::default();
    for _ in 0..200_000 {
        let a = Instant::now();
        let b = Instant::now();
        h.record((b - a).as_nanos() as u64);
    }
    h.quantile(0.5).expect("200 000 samples")
}

struct Recovery {
    seconds: f64,
    records_applied: u64,
    log_bytes: u64,
    failed: u64,
}

/// Drops the durable store without a flush, re-opens it from its
/// directory, and checks that recovery replayed exactly the records
/// written since the last checkpoint and rebuilt exactly the contents
/// the clients were acknowledged.
fn crash_and_recover(
    cfg: &Config,
    store: Store,
    before: &[(u64, u64)],
    expect_records: u64,
) -> io::Result<Recovery> {
    let dir = cfg.wal_dir();
    let log_bytes = dir_log_bytes(&dir)?;
    drop(store);
    let t = Instant::now();
    let reopened = Store::open_durable(cfg.spec, &dir, true)?;
    let seconds = t.elapsed().as_secs_f64();
    let records_applied = reopened.recovery_report().records_applied as u64;
    let mut after = reopened.scan();
    after.sort_unstable();
    let mut failed = before.iter().zip(&after).filter(|(a, b)| a != b).count() as u64
        + before.len().abs_diff(after.len()) as u64;
    failed += u64::from(records_applied != expect_records);
    drop(reopened);
    std::fs::remove_dir_all(&dir)?;
    Ok(Recovery {
        seconds,
        records_applied,
        log_bytes,
        failed,
    })
}

/// Everything one run measured, before it is turned into metrics.
struct Measured {
    timer_ns: f64,
    generator_ns_per_op: f64,
    setup_s: Vec<f64>,
    /// Heap in use after the last pass, less what was in use before the
    /// first set-up and the op streams.
    store_heap_mb: f64,
    /// The measured passes: the sliced one of an untraced run, or one
    /// untraced and then the traced one.
    passes: Vec<Pass>,
    checkpoint_s: Vec<f64>,
    /// Counters over the traced pass.
    layers: Option<Layers>,
    /// What was written since the last checkpoint.
    logged: Written,
    recovery: Option<Recovery>,
    attempted: u64,
    failed: u64,
    class_ops: [u64; 4],
    streams: Vec<Vec<Op>>,
}

struct Layers {
    stats: StatsSnapshot,
    shard_commits: Vec<u64>,
    work: Written,
}

fn measure(cfg: &Config) -> Result<Measured, String> {
    let io_err = |e: io::Error| format!("{}: i/o error: {e}", cfg.spec.name);
    std::fs::create_dir_all(&cfg.out_dir).map_err(io_err)?;
    let spec = cfg.spec;
    let timer_ns = timer_overhead_ns();

    // Set-up, several times over; the passes run on the last store.
    // The earlier ones are not only for `setup_s`, and generate their
    // op streams although nothing reads them: freeing those raises
    // glibc's adaptive trim threshold, without which every 64 KB scan
    // result grows and shrinks the heap (`scan_mv` then runs a tenth
    // slower and three times less steadily).
    let mut setup_s = Vec::new();
    let mut loaded = None;
    let before_mb = heap_in_use_mb();
    for _ in 0..SETUPS[0] {
        drop(loaded.take());
        let set_up = setup(cfg).map_err(io_err)?;
        setup_s.push(set_up.store_s);
        loaded = Some(set_up);
    }
    let Loaded {
        mut store,
        store_s: _,
        streams,
        generator_ns_per_op,
    } = loaded.expect("at least one set-up");

    // The plan: a discarded warm-up tenth, then either one measured
    // pass, sliced, or one untraced and one traced pass of equal
    // length.
    let n_passes = if cfg.trace { 2 } else { 1 };
    let pass_dur = Duration::from_secs_f64(cfg.seconds / n_passes as f64);
    let slice = (!cfg.trace).then(|| {
        // A smoke run is too short for slices of the real length.
        let smoke = pass_dur / 4;
        Duration::from_secs_f64(SLICE_S).min(if cfg.smoke { smoke } else { pass_dur })
    });
    let warm_dur = Duration::from_secs_f64(cfg.seconds / 10.0);
    let mut cursors = vec![0u64; CLIENTS];
    let mut since_checkpoint = cursors.clone();
    let warm = run_pass(&store, spec, &streams, &mut cursors, warm_dur, None, false)?;

    let mut passes: Vec<Pass> = Vec::new();
    let mut checkpoint_s = Vec::new();
    let mut layers = None;
    for i in 0..n_passes {
        if i > 0 {
            if let Store::Durable(d) = &mut store {
                // One checkpoint between passes: background work gets
                // its cycles, and the log the recovery replays is
                // exactly the last pass.
                let t = Instant::now();
                d.checkpoint().map_err(io_err)?;
                checkpoint_s.push(t.elapsed().as_secs_f64());
                since_checkpoint = cursors.clone();
            }
        }
        let traced = cfg.trace && i == n_passes - 1;
        let before = (store.stats(), shard_commits(store.kv()), cursors.clone());
        passes.push(run_pass(
            &store,
            spec,
            &streams,
            &mut cursors,
            pass_dur,
            slice,
            traced,
        )?);
        if traced {
            let (stats, commits, from) = before;
            let now = shard_commits(store.kv());
            layers = Some(Layers {
                stats: store.stats().since(&stats),
                shard_commits: now.iter().zip(&commits).map(|(a, b)| a - b).collect(),
                work: written(store.kv(), spec, &streams, &from, &cursors),
            });
        }
    }

    // The op streams are the harness's memory, not the store's.
    let stream_bytes: usize = streams.iter().map(|s| size_of_val(&s[..])).sum();
    let store_heap_mb = heap_in_use_mb() - before_mb - stream_bytes as f64 / (1 << 20) as f64;
    let mut m = Measured {
        timer_ns,
        generator_ns_per_op,
        setup_s,
        store_heap_mb,
        passes,
        checkpoint_s,
        layers,
        logged: written(store.kv(), spec, &streams, &since_checkpoint, &cursors),
        recovery: None,
        attempted: 0,
        failed: 0,
        class_ops: [0; 4],
        streams: Vec::new(),
    };
    for p in std::iter::once(&warm).chain(&m.passes) {
        m.attempted += p.ops;
        m.failed += p.failed;
        for (total, n) in m.class_ops.iter_mut().zip(p.per_class) {
            *total += n;
        }
    }

    // The clock has stopped: check what the store ended up holding,
    // and that a crash here loses none of it.
    let mut contents = store.scan();
    contents.sort_unstable();
    m.failed += check_final(spec, &contents, &last_puts(spec, &streams, &cursors));
    if spec.durable {
        let r = crash_and_recover(cfg, store, &contents, m.logged.records).map_err(io_err)?;
        m.failed += r.failed;
        m.recovery = Some(r);
    } else {
        drop(store);
    }
    for _ in 0..SETUPS[1] {
        m.setup_s.push(setup(cfg).map_err(io_err)?.store_s);
    }
    if spec.durable {
        std::fs::remove_dir_all(cfg.wal_dir()).map_err(io_err)?;
    }
    m.streams = streams;
    Ok(m)
}

/// A measured metric, before it is matched to its listed unit.
struct Value {
    name: &'static str,
    value: Option<f64>,
    passes: Vec<f64>,
    batches: Option<(f64, f64)>,
}

fn single(name: &'static str, v: f64) -> Value {
    Value {
        name,
        value: Some(v),
        passes: Vec::new(),
        batches: None,
    }
}

/// The value at share `p` of a per-slice value over `slices` (see
/// [`QUIET`]). One slice without enough samples withholds the metric:
/// a value over the slices that happened to qualify would flatter it.
fn quiet_of(
    name: &'static str,
    slices: &[Slice],
    p: f64,
    f: impl Fn(&Slice) -> Option<f64>,
) -> Value {
    let passes = (slices.iter().map(f).collect::<Option<Vec<f64>>>()).unwrap_or_default();
    Value {
        name,
        value: (!passes.is_empty()).then(|| hist::quantile_of(&passes, p)),
        passes,
        batches: None,
    }
}

fn end_to_end(m: &Measured) -> Vec<Value> {
    let s = &m.passes[0].slices[..];
    vec![
        Value {
            passes: m.setup_s.clone(),
            ..single("setup_s", hist::quantile_of(&m.setup_s, QUIET))
        },
        quiet_of("throughput_ops_s", s, 1.0 - QUIET, |s| Some(s.throughput)),
        quiet_of("get_p50_ns", s, QUIET, |s| s.get_p50),
        quiet_of("put_p50_ns", s, QUIET, |s| s.put_p50),
        single("store_heap_mb", m.store_heap_mb),
    ]
}

fn per_layer(cfg: &Config, m: &Measured) -> io::Result<Vec<Value>> {
    let (untraced, traced) = (&m.passes[0], &m.passes[1]);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // Client-side numbers that cannot be bounded end-to-end metrics:
    // the tails of `get` and `put`, which do not repeat to a third of
    // any bound the contract allows, and numbers an op class or store
    // kind may lack, 0 where absent.
    let q = |name, class: Class, q: f64, scale: f64| {
        single(name, untraced.quantile(class, q).map_or(0.0, |v| v / scale))
    };
    let recovery = |f: fn(&Recovery) -> f64| m.recovery.as_ref().map_or(0.0, f);
    let log_bytes = m.recovery.as_ref().map_or(0, |r| r.log_bytes);
    let recovered = m.recovery.as_ref().map_or(0, |r| r.records_applied);
    let Layers {
        stats: d,
        shard_commits,
        work,
    } = m.layers.as_ref().expect("a traced pass");
    let mean_commits = shard_commits.iter().sum::<u64>() as f64 / shard_commits.len() as f64;
    let max_commits = shard_commits.iter().copied().max().unwrap_or(0);

    let mut out = vec![
        q("client.get_p99_ns", Class::Get, 0.99, 1.0),
        q("client.put_p99_ns", Class::Put, 0.99, 1.0),
        q("client.multi_p50_ns", Class::Multi, 0.50, 1.0),
        q("client.multi_p99_ns", Class::Multi, 0.99, 1.0),
        q("client.scan_p50_us", Class::Scan, 0.50, 1e3),
        q("client.scan_p99_us", Class::Scan, 0.99, 1e3),
        single("client.recover_s", recovery(|r| r.seconds)),
        single(
            "client.log_bytes_per_user_byte",
            ratio(log_bytes, 16 * m.logged.pairs),
        ),
        single(
            "client.failed_ops_share",
            m.failed as f64 / m.attempted as f64,
        ),
        single("stm.engine.commits", d.commits as f64),
        single("stm.engine.aborts", d.aborts as f64),
        single(
            "stm.engine.commit_ratio",
            ratio(d.commits, d.commits + d.aborts),
        ),
        single("stm.engine.reads_per_commit", ratio(d.reads, d.commits)),
        single(
            "stm.engine.validation_probes_per_read",
            ratio(d.validation_probes, d.reads),
        ),
        single("stm.waiter.parks", d.parks as f64),
        single("stm.waiter.spurious_wakes", d.spurious_wakes as f64),
        single("stm.tvar.snapshot_reads", d.snapshot_reads as f64),
        single(
            "stm.tvar.chain_walk_steps_per_snapshot_read",
            ratio(d.chain_walk_steps, d.snapshot_reads),
        ),
        single("stm.tvar.max_chain_len", d.max_chain_len as f64),
        single("stm.tvar.versions_retained", d.versions_retained as f64),
        single("stm.epoch.versions_trimmed", d.versions_trimmed as f64),
        single("stm.wal.log_appends", d.log_appends as f64),
        single("stm.wal.fsyncs", d.fsyncs as f64),
        single(
            "stm.wal.records_per_fsync",
            ratio(d.group_commit_records, d.fsyncs),
        ),
        single(
            "stm.wal.bytes_per_record",
            ratio(log_bytes, m.logged.records),
        ),
        single(
            "server.kv.cross_shard_share",
            ratio(work.cross_shard, work.multis),
        ),
        single(
            "server.kv.shard_imbalance",
            max_commits as f64 / mean_commits,
        ),
        single(
            "server.durability.checkpoint_s",
            m.checkpoint_s.first().copied().unwrap_or(0.0),
        ),
        single("server.durability.records_applied", recovered as f64),
        single(
            "server.durability.recover_us_per_record",
            if recovered == 0 {
                0.0
            } else {
                recovery(|r| r.seconds) * 1e6 / recovered as f64
            },
        ),
        single("harness.timer_overhead_ns", m.timer_ns),
        single("harness.generator_ns_per_op", m.generator_ns_per_op),
        single(
            "harness.trace_overhead_share",
            1.0 - traced.throughput() / untraced.throughput(),
        ),
    ];
    // The ladder climbs over the workload's own key stream: client 0's
    // `get` keys.
    let get_keys: Vec<u64> = (m.streams[0].iter())
        .filter(|op| op.class() == Class::Get)
        .map(|op| op.key())
        .collect();
    let rungs = ladder::climb(cfg.spec, &get_keys, &cfg.wal_root, cfg.smoke)?;
    out.extend(rungs.into_iter().map(|(name, r)| Value {
        batches: Some((r.q1, r.q3)),
        ..single(name, r.ns)
    }));
    dump_trace(cfg, &traced.spans)?;
    Ok(out)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = cfg.spec;
    let m = measure(cfg)?;
    let (mut values, listed): (Vec<Value>, Vec<(&str, &str)>) = if cfg.trace {
        let values = per_layer(cfg, &m).map_err(|e| format!("{}: i/o error: {e}", spec.name))?;
        (values, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    } else {
        let listed = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        (end_to_end(&m), listed)
    };
    // Exactly the metrics the contract lists, in its order, with its
    // units.
    assert_eq!(values.len(), listed.len(), "measured and listed differ");
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let at = (values.iter().position(|v| v.name == name))
            .ok_or(format!("metric {name} was not measured"))?;
        let v = values.swap_remove(at);
        metrics.push(Metric {
            name,
            unit,
            value: v.value,
            passes: v.passes,
            batches: v.batches,
        });
    }

    let hardware_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flush_policy = if spec.durable {
        "sync_acks: every acknowledged write waited for its group-committed O_DSYNC write"
    } else {
        "none (in-memory store)"
    };
    let by_class = |f: &dyn Fn(usize) -> Json| {
        Json::obj(CLASS_NAMES.iter().enumerate().map(|(k, n)| (*n, f(k))))
    };
    let detail = Json::obj([
        ("workload", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("trace", cfg.trace.into()),
        ("smoke", cfg.smoke.into()),
        ("load", Json::str("closed loop")),
        ("clients", (CLIENTS as u64).into()),
        ("hardware_threads", (hardware_threads as u64).into()),
        ("oversubscribed", (hardware_threads < CLIENTS).into()),
        ("algorithm", Json::str(format!("{:?}", spec.algorithm))),
        ("keys", spec.keys.into()),
        ("flush_policy", Json::str(flush_policy)),
        ("wal_root", Json::str(cfg.wal_root.display().to_string())),
        ("attempted", m.attempted.into()),
        ("failed", m.failed.into()),
        ("ops_by_class", by_class(&|k| m.class_ops[k].into())),
        (
            "timed_samples_per_pass",
            by_class(&|k| {
                let sliced = m.passes.iter().flat_map(|p| &p.slices);
                let whole = m.passes.iter().filter(|p| p.slices.is_empty());
                let counts = (sliced.map(|s| s.samples[k])).chain(whole.map(|p| p.hists[k].len()));
                Json::nums(&counts.map(|n| n as f64).collect::<Vec<_>>())
            }),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                let mut fields = vec![
                    ("value", m.value.map_or(Json::Null, Json::Num)),
                    ("unit", Json::str(m.unit)),
                ];
                if let Some((min, median, max, mad)) = m.pass_spread() {
                    fields.push(("min", min.into()));
                    fields.push(("median", median.into()));
                    fields.push(("max", max.into()));
                    fields.push(("mad", mad.into()));
                    fields.push(("passes", Json::nums(&m.passes)));
                }
                if let Some((q1, q3)) = m.batches {
                    fields.push(("batches_q1", q1.into()));
                    fields.push(("batches_q3", q3.into()));
                }
                (m.name, Json::obj(fields))
            })),
        ),
    ]);
    Ok(Outcome {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        detail,
    })
}

fn shard_commits(kv: &ShardedKv<u64, u64>) -> Vec<u64> {
    (0..kv.shard_count())
        .map(|s| kv.shard_stats(s).snapshot().commits)
        .collect()
}

/// Writes the traced pass's spans, one JSON object per line.
fn dump_trace(cfg: &Config, spans: &[Span]) -> io::Result<()> {
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.spec.name));
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"client\": {}, \"class\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
            s.client, CLASS_NAMES[s.class as usize], s.start_ns, s.dur_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (&'static Spec, Store, Vec<Vec<Op>>, Vec<u64>) {
        let spec = Spec::by_name("scan_mv").unwrap();
        let store = Store::build(spec, Path::new("unused"), false).unwrap();
        let streams: Vec<Vec<Op>> = (0..CLIENTS)
            .map(|c| gen::generate(spec, 11, c, 1 << 12))
            .collect();
        // Single-threaded replay of more than one block per client.
        let cursors = vec![5_000u64, 4_500];
        for (c, ops) in streams.iter().enumerate() {
            for i in 0..cursors[c] {
                let op = ops[(i % ops.len() as u64) as usize];
                match op.class() {
                    Class::Put => store.put(op.key(), gen::put_value(c, i)),
                    Class::Multi => store.transfer(&op.keys()[..spec.span]),
                    Class::Get | Class::Scan => {}
                }
            }
        }
        (spec, store, streams, cursors)
    }

    #[test]
    fn checkers_accept_a_faithful_store_and_reject_a_corrupted_one() {
        let (spec, store, streams, cursors) = tiny();
        let last = last_puts(spec, &streams, &cursors);
        let mut seen = vec![0u64; (spec.keys as usize).div_ceil(64)];
        // Client 1 replayed last, so only its puts may stand where both
        // wrote; the checker allows either, and this store satisfies it.
        assert_eq!(check_final(spec, &store.scan(), &last), 0);
        assert!(scan_ok(spec, &store.scan(), &mut seen));

        // A blob that holds a value no client put last.
        let blob = (spec.accounts()..spec.keys)
            .find(|&k| last[0][k as usize] != NEVER)
            .unwrap();
        store.put(blob, gen::put_value(0, 1 << 40));
        assert_eq!(check_final(spec, &store.scan(), &last), 1);
        assert!(
            scan_ok(spec, &store.scan(), &mut seen),
            "scans do not judge blobs"
        );
        store.put(blob, last[0][blob as usize]);

        // A never-written blob must still hold its preload.
        let quiet = (spec.accounts()..spec.keys)
            .find(|&k| last.iter().all(|l| l[k as usize] == NEVER))
            .unwrap();
        store.put(quiet, 7);
        assert_eq!(check_final(spec, &store.scan(), &last), 1);
        store.put(quiet, spec.preload_value(quiet));

        // Money created from nothing breaks conservation for both.
        let balance = store.get(0).unwrap();
        store.put(0, balance + 1);
        assert_eq!(check_final(spec, &store.scan(), &last), 1);
        assert!(!scan_ok(spec, &store.scan(), &mut seen));
        store.put(0, balance);
        assert_eq!(check_final(spec, &store.scan(), &last), 0);

        // A lost key and a duplicated key.
        let mut entries = store.scan();
        let lost = entries.pop().unwrap();
        assert!(check_final(spec, &entries, &last) >= 1);
        assert!(!scan_ok(spec, &entries, &mut seen));
        entries.push(entries[0]);
        assert!(check_final(spec, &entries, &last) >= 2, "{lost:?}");
        assert!(!scan_ok(spec, &entries, &mut seen));
    }

    #[test]
    fn written_counts_one_record_per_writing_shard() {
        let (spec, store, streams, cursors) = tiny();
        let w = written(store.kv(), spec, &streams, &[0, 0], &cursors);
        let multis: u64 = streams
            .iter()
            .zip(&cursors)
            .map(|(ops, &n)| {
                (0..n)
                    .filter(|i| ops[(i % ops.len() as u64) as usize].class() == Class::Multi)
                    .count() as u64
            })
            .sum();
        assert_eq!(w.multis, multis);
        assert!(w.cross_shard > 0 && w.cross_shard < multis);
        // Span 2: a multi is cross-shard exactly when it writes two shards.
        assert_eq!(w.records, (w.pairs - 2 * multis) + multis + w.cross_shard);
    }

    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        let out_dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        for (i, spec) in gen::specs().enumerate() {
            for trace in [false, true] {
                let cfg = Config {
                    spec,
                    seed: 11 + i as u64,
                    seconds: 0.4,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                    wal_root: out_dir.clone(),
                };
                let out = run(&cfg).unwrap();
                assert!(
                    out.correct,
                    "{} trace={trace}: {} failed",
                    spec.name, out.failed
                );
                assert!(out.attempted > 0);
                let n = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(out.metrics.len(), n);
                if trace {
                    let get = |name: &str| {
                        let m = out.metrics.iter().find(|m| m.name == name).unwrap();
                        m.value.unwrap()
                    };
                    // The layer predictions: idle layers read zero.
                    assert_eq!(get("stm.wal.log_appends") > 0.0, spec.durable);
                    assert_eq!(get("server.durability.records_applied") > 0.0, spec.durable);
                    assert_eq!(get("stm.tvar.snapshot_reads") > 0.0, spec.name == "scan_mv");
                    assert!(get("harness.timer_overhead_ns") > 0.0);
                    assert_eq!(get("client.failed_ops_share"), 0.0);
                }
            }
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}
