//! Progress statistics, the native-side instrument for Theorem 3(1).
//!
//! The simulator counts steps exactly; on real hardware we count the
//! analogous quantities: commits, aborts, and — crucially — *validation
//! probes* (one per read-set entry re-checked). The
//! `bench_native_validation` experiment shows probes growing
//! quadratically with the read-set size in incremental mode and linearly
//! in TL2 mode, the hardware echo of the paper's bound.
//!
//! ## Why the counters are sharded
//!
//! The instrument must not distort what it measures. A single shared
//! counter block would put one RMW (`fetch_add`) on a globally shared
//! cache line inside *every* t-read — exactly the expensive
//! synchronization pattern the paper's RMR metric charges algorithms
//! for, paid here by algorithms whose whole point is to avoid it (a Tl2
//! read is two plain loads). Two layers remove that cost:
//!
//! * **per-transaction tallies** ([`OpTally`]): the per-operation
//!   counters (reads, writes, probes, snapshot reads, reader conflicts,
//!   recorder markers) are plain non-atomic bumps on the transaction's
//!   own stack, flushed into the shared counters exactly once when the
//!   attempt resolves — so the per-read cost is an add on an
//!   already-hot line, zero RMWs;
//! * **thread-hashed shards**: the shared counters themselves are a
//!   fixed array of cache-line-padded slots indexed by a hash of the
//!   thread id (uniform under thread churn — see [`SHARDS`]), so the
//!   once-per-attempt flush (and the per-commit `commits` bump) lands
//!   on a line that, with high probability, no other thread is
//!   hammering.
//!   [`StmStats::snapshot`] sums the slots; since every slot is
//!   monotonic, two snapshots taken by one thread (or otherwise ordered
//!   by happens-before) still difference cleanly through
//!   [`StatsSnapshot::since`].
//!
//! The visible consequence: a snapshot observes a transaction's
//! operation counts when the attempt resolves (commit, abort, or drop),
//! not mid-flight. Every windowed consumer — the adaptive controller
//! samples *after* the committing transaction is dropped — already
//! orders itself after the flush.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counter shards per [`StmStats`] instance (power of two). Slots are
/// hashed from the thread id, so collisions between concurrent threads
/// are possible but uniform — and, unlike a round-robin assignment,
/// independent of thread-creation order, so thread churn (short-lived
/// pool workers burning through slots) cannot pile the long-lived
/// threads onto one shard. A collision costs line sharing only;
/// counts stay exact either way.
const SHARDS: usize = 16;

std::thread_local! {
    /// This thread's shard slot, hashed once per thread from its id.
    static THREAD_SLOT: usize = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as usize % SHARDS
    };
}

/// The calling thread's shard slot.
fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// Monotonic event counters for one [`Stm`](crate::Stm) instance,
/// sharded across cache-padded slots (see the module docs).
#[derive(Debug)]
pub struct StmStats {
    shards: Box<[Shard]>,
}

impl Default for StmStats {
    fn default() -> Self {
        StmStats {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }
}

/// Per-transaction operation tallies: plain (non-atomic) counters bumped
/// on the hot path and flushed into the instance's sharded counters
/// exactly once, by the transaction's `Drop`. `Cell`-based so the
/// validation helpers, which hold the transaction by shared reference,
/// can still tally probes.
#[derive(Debug, Default)]
pub(crate) struct OpTally {
    reads: Cell<u64>,
    writes: Cell<u64>,
    validation_probes: Cell<u64>,
    reader_conflicts: Cell<u64>,
    snapshot_reads: Cell<u64>,
    chain_walk_steps: Cell<u64>,
    recorded_events: Cell<u64>,
}

fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get().wrapping_add(n));
}

impl OpTally {
    pub(crate) fn read(&self) {
        bump(&self.reads, 1);
    }

    pub(crate) fn write(&self) {
        bump(&self.writes, 1);
    }

    pub(crate) fn probes(&self, n: u64) {
        bump(&self.validation_probes, n);
    }

    pub(crate) fn reader_conflict(&self) {
        bump(&self.reader_conflicts, 1);
    }

    pub(crate) fn snapshot_read(&self) {
        bump(&self.snapshot_reads, 1);
    }

    pub(crate) fn chain_walk(&self, steps: u64) {
        bump(&self.chain_walk_steps, steps);
    }

    pub(crate) fn recorded(&self, n: u64) {
        bump(&self.recorded_events, n);
    }

    /// The attempt's read count if it performed no write: the scan
    /// length the adaptive controller votes on.
    pub(crate) fn read_only_reads(&self) -> Option<u64> {
        (self.writes.get() == 0).then(|| self.reads.get())
    }
}

/// Declares every counter exactly once — public field name and docs,
/// how shards fold (`sum` for monotonic counters, `max` for high-water
/// marks) and the [`Display`](fmt::Display) label — and generates from
/// that one table the per-shard atomics (`Shard`), [`StatsSnapshot`],
/// [`StmStats::snapshot`], [`StatsSnapshot::since`] and the `Display`
/// line, in table order.
macro_rules! counters {
    (@fold sum $acc:expr, $v:expr) => { $acc += $v };
    (@fold max $acc:expr, $v:expr) => { $acc = $acc.max($v) };
    (@since sum $later:expr, $earlier:expr) => {
        $later.checked_sub($earlier).expect("snapshot order")
    };
    // High-water marks, not counters: the delta reports the later
    // snapshot's mark.
    (@since max $later:expr, $earlier:expr) => { $later };
    ($($(#[$doc:meta])* $name:ident: $kind:ident, $label:literal;)*) => {
        /// One cache-line-padded block of monotonic counters. All
        /// increments stay `fetch_add`s (`fetch_max` for the high-water
        /// marks) — but on a line private to (at most) one running
        /// thread, so they never ping-pong.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        struct Shard {
            $($name: AtomicU64,)*
        }

        /// A point-in-time copy of the counters.
        ///
        /// # Examples
        ///
        /// Windowed deltas via [`StatsSnapshot::since`] — the idiom the
        /// adaptive controller itself uses:
        ///
        /// ```
        /// use ptm_stm::{Stm, TVar};
        ///
        /// let stm = Stm::tl2();
        /// let v = TVar::new(0u64);
        /// let before = stm.stats().snapshot();
        /// stm.atomically(|tx| tx.modify(&v, |x| x + 1));
        /// let d = stm.stats().snapshot().since(&before);
        /// assert_eq!((d.commits, d.reads, d.writes), (1, 1, 1));
        /// assert!(d.to_string().contains("commits=1"));
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StmStats {
            /// Takes a snapshot of all counters: counters sum across
            /// the shards, high-water marks take their max.
            pub fn snapshot(&self) -> StatsSnapshot {
                let mut out = StatsSnapshot::default();
                for s in self.shards.iter() {
                    $(counters!(@fold $kind out.$name, s.$name.load(Ordering::Relaxed));)*
                }
                out
            }
        }

        impl StatsSnapshot {
            /// Counter-wise difference from an earlier snapshot.
            ///
            /// # Panics
            ///
            /// Panics if `earlier` is not actually earlier.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: counters!(@since $kind self.$name, earlier.$name),)*
                }
            }
        }

        impl fmt::Display for StatsSnapshot {
            /// One-line counter summary, so bench output and tests do
            /// not format counters by hand.
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let fields = [$(($label, self.$name)),*];
                for (i, (label, n)) in fields.into_iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{label}={n}")?;
                }
                Ok(())
            }
        }
    };
}

counters! {
    /// Transactions that committed.
    commits: sum, "commits";
    /// Transaction attempts that aborted.
    aborts: sum, "aborts";
    /// `read` operations executed.
    reads: sum, "reads";
    /// `write` operations executed.
    writes: sum, "writes";
    /// Individual read-set entries re-checked during validation.
    validation_probes: sum, "probes";
    /// Aborts forced by visible-read lock conflicts (`Algorithm::Tlrw`):
    /// a t-read that hit a write-locked stripe, or a committing writer
    /// that found foreign readers (or another writer) on a write stripe.
    /// Always 0 under the invisible-read algorithms.
    reader_conflicts: sum, "reader_conflicts";
    /// Reads served from a version chain by snapshot timestamp
    /// ([`Algorithm::Mv`](crate::Algorithm::Mv)): zero orec probes, zero
    /// validation, never an abort. Always 0 under the single-version
    /// algorithms.
    snapshot_reads: sum, "snapshot_reads";
    /// Version-chain hops snapshot reads performed past the head
    /// ([`Algorithm::Mv`](crate::Algorithm::Mv)): 0 when every read was
    /// served by the newest version. The cost of camping — with skip
    /// pointers it grows logarithmically in the chain length, not
    /// linearly (see the `long_scan` camped-reader bench rung).
    chain_walk_steps: sum, "walk_steps";
    /// Superseded versions detached from their chains by the
    /// low-watermark collector (`Algorithm::Mv` commits). The space the
    /// multi-version design pays — and reclaims.
    versions_trimmed: sum, "trimmed";
    /// Versions cut *past* the low watermark by the
    /// [`MvConfig::max_versions`](crate::MvConfig::max_versions) bound —
    /// versions an active snapshot might still have needed. Always 0
    /// without the bound.
    versions_evicted: sum, "evicted";
    /// Snapshot reads aborted because the version their snapshot named
    /// had been evicted by the space bound (the oldest-snapshot-abort
    /// rule; the retried attempt draws a fresh snapshot and succeeds).
    /// Always 0 without the bound.
    eviction_aborts: sum, "eviction_aborts";
    /// The longest version chain any trim pass observed — a high-water
    /// mark, not a counter: [`since`](StatsSnapshot::since) carries the
    /// *later* snapshot's value through unchanged. Bounded by the span
    /// between the oldest active snapshot and the newest commit; stays 0
    /// under the single-version algorithms (only Mv commits trim, and
    /// their chains never grow).
    max_chain_len: max, "max_chain";
    /// The longest *post-trim* chain any trim pass left behind — the
    /// standing space bill (versions no watermark could free), where
    /// `max_chain_len` is the pre-trim spike. A high-water mark like
    /// `max_chain_len`: [`since`](StatsSnapshot::since) carries the
    /// later snapshot's value through. Watch it against
    /// [`MvConfig::max_versions`](crate::MvConfig::max_versions) to see
    /// eviction pressure building.
    versions_retained: max, "retained";
    /// History markers captured by an attached
    /// [`HistoryRecorder`](crate::HistoryRecorder) (0 when recording is
    /// off).
    recorded_events: sum, "recorded";
    /// Mode switches performed by the
    /// [`Algorithm::Adaptive`](crate::Algorithm::Adaptive) controller
    /// (always 0 for the static algorithms).
    mode_transitions: sum, "transitions";
    /// Commits of attempts that performed no write, counted by the
    /// [`Algorithm::Adaptive`](crate::Algorithm::Adaptive) controller
    /// only (always 0 for the static algorithms): the denominator of its
    /// scan-length vote.
    ro_commits: sum, "ro_commits";
    /// Reads performed by those read-only commits (snapshot reads
    /// included): `ro_reads / ro_commits` is the mean scan length, which
    /// blind-writer commits cannot dilute. Adaptive only, like
    /// `ro_commits`.
    ro_reads: sum, "ro_reads";
    /// Attempts that parked on the orec table's waiter lists instead of
    /// re-running: logical waits (`Transaction::retry`) and
    /// contention-manager [`Decision::Park`](crate::Decision::Park)
    /// escalations. A parked attempt does no spinning and no validation
    /// probing until woken.
    parks: sum, "parks";
    /// Parked waiters actually woken by a committing writer's wake sweep
    /// over an overlapping stripe.
    wakes: sum, "wakes";
    /// Parks that ended by safety-net timeout rather than a writer's
    /// wake — the lost-wakeup canary (≈ 0 in a healthy run; an idle
    /// `retry` with nothing ever committing also lands here).
    spurious_wakes: sum, "spurious";
    /// Committed write sets appended to an attached write-ahead log
    /// ([`crate::wal`]): one per durable commit. Always 0 without a
    /// durability hook.
    log_appends: sum, "log_appends";
    /// Fsync batches the log performed. Under group commit this stays
    /// well below `log_appends` — the ratio is the whole point.
    fsyncs: sum, "fsyncs";
    /// Records covered by those fsync batches (every record is covered
    /// exactly once, so this equals `log_appends` once quiescent);
    /// [`StatsSnapshot::group_commit_size`] derives the mean batch.
    group_commit_records: sum, "group_commit";
}

impl StmStats {
    /// The calling thread's shard.
    fn local(&self) -> &Shard {
        &self.shards[thread_slot() & (self.shards.len() - 1)]
    }

    /// Folds a resolved attempt's operation tallies into the shared
    /// counters: one shard lookup, at most one RMW per non-zero counter,
    /// on a thread-private line.
    pub(crate) fn flush(&self, t: &OpTally) {
        let s = self.local();
        let add = |counter: &AtomicU64, cell: &Cell<u64>| {
            let n = cell.get();
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&s.reads, &t.reads);
        add(&s.writes, &t.writes);
        add(&s.validation_probes, &t.validation_probes);
        add(&s.reader_conflicts, &t.reader_conflicts);
        add(&s.snapshot_reads, &t.snapshot_reads);
        add(&s.chain_walk_steps, &t.chain_walk_steps);
        add(&s.recorded_events, &t.recorded_events);
    }

    pub(crate) fn commit(&self) {
        self.local().commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn abort(&self) {
        self.local().aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a trim pass: `trimmed` versions detached from a chain
    /// that held `chain_len` versions before the trim (so `chain_len -
    /// trimmed` survive, feeding the retained high-water mark).
    pub(crate) fn trim(&self, chain_len: u64, trimmed: u64) {
        let s = self.local();
        s.versions_trimmed.fetch_add(trimmed, Ordering::Relaxed);
        s.max_chain_len.fetch_max(chain_len, Ordering::Relaxed);
        s.versions_retained
            .fetch_max(chain_len.saturating_sub(trimmed), Ordering::Relaxed);
    }

    /// Records `evicted` versions cut past the watermark by the
    /// `max_versions` bound.
    pub(crate) fn evict(&self, evicted: u64) {
        if evicted != 0 {
            self.local()
                .versions_evicted
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Records a snapshot read aborted by eviction (cold path — the
    /// attempt is about to retry — so it writes the shard directly).
    pub(crate) fn eviction_abort(&self) {
        self.local().eviction_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one attempt parking on the waiter lists. Cold path by
    /// construction (the attempt is about to sleep), so it writes the
    /// shard directly instead of riding an [`OpTally`].
    pub(crate) fn park(&self) {
        self.local().parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` waiters woken by a commit's wake sweep.
    pub(crate) fn woke(&self, n: u64) {
        if n != 0 {
            self.local().wakes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a park that ended by timeout instead of a wake.
    pub(crate) fn spurious_wake(&self) {
        self.local().spurious_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one write set appended to the attached write-ahead log
    /// (memory-only; the fsync is counted separately when a batch
    /// flushes).
    pub(crate) fn log_append(&self) {
        self.local().log_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fsync batch covering `records` appended records.
    pub(crate) fn fsync_batch(&self, records: u64) {
        let s = self.local();
        s.fsyncs.fetch_add(1, Ordering::Relaxed);
        s.group_commit_records.fetch_add(records, Ordering::Relaxed);
    }

    /// Records an adaptive mode switch.
    pub(crate) fn mode_transition(&self) {
        self.local()
            .mode_transitions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records an adaptive instance's read-only commit of `reads` reads.
    pub(crate) fn read_only_commit(&self, reads: u64) {
        let s = self.local();
        s.ro_commits.fetch_add(1, Ordering::Relaxed);
        s.ro_reads.fetch_add(reads, Ordering::Relaxed);
    }

    /// The bare commit count, for hot paths that must not pay a full
    /// snapshot (the adaptive controller's window check): one plain load
    /// per shard, no RMW.
    pub(crate) fn commit_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.commits.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

impl StatsSnapshot {
    /// Mean records per fsync batch — the group-commit amortization
    /// factor (1.0 means every commit paid its own fsync; 0.0 means no
    /// batch has flushed yet).
    pub fn group_commit_size(&self) -> f64 {
        if self.fsyncs == 0 {
            return 0.0;
        }
        self.group_commit_records as f64 / self.fsyncs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flushes a one-off tally built by `f`, the way a transaction's
    /// drop does.
    fn tally(s: &StmStats, f: impl FnOnce(&OpTally)) {
        let t = OpTally::default();
        f(&t);
        s.flush(&t);
    }

    #[test]
    fn counters_accumulate() {
        let s = StmStats::default();
        s.commit();
        s.commit();
        s.abort();
        tally(&s, |t| {
            t.probes(5);
            t.reader_conflict();
            t.read();
            t.write();
            t.recorded(4);
            t.snapshot_read();
            t.snapshot_read();
            t.chain_walk(7);
        });
        s.trim(5, 3);
        s.trim(2, 1);
        s.evict(2);
        s.evict(0);
        s.eviction_abort();
        s.mode_transition();
        s.read_only_commit(256);
        s.read_only_commit(0);
        s.park();
        s.park();
        s.woke(3);
        s.woke(0);
        s.spurious_wake();
        s.log_append();
        s.log_append();
        s.log_append();
        s.fsync_batch(3);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.validation_probes, 5);
        assert_eq!(snap.reader_conflicts, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.recorded_events, 4);
        assert_eq!(snap.snapshot_reads, 2);
        assert_eq!(snap.chain_walk_steps, 7);
        assert_eq!(snap.versions_trimmed, 4);
        assert_eq!(snap.versions_evicted, 2);
        assert_eq!(snap.eviction_aborts, 1);
        assert_eq!(snap.max_chain_len, 5, "high-water mark, not a sum");
        assert_eq!(snap.versions_retained, 2, "post-trim high-water mark");
        assert_eq!(snap.mode_transitions, 1);
        assert_eq!((snap.ro_commits, snap.ro_reads), (2, 256));
        assert_eq!(snap.parks, 2);
        assert_eq!(snap.wakes, 3);
        assert_eq!(snap.spurious_wakes, 1);
        assert_eq!(snap.log_appends, 3);
        assert_eq!(snap.fsyncs, 1);
        assert_eq!(snap.group_commit_records, 3);
        assert_eq!(snap.group_commit_size(), 3.0);
    }

    #[test]
    fn display_summarizes_every_counter() {
        let s = StmStats::default();
        s.commit();
        tally(&s, |t| {
            t.probes(2);
            t.reader_conflict();
            t.recorded(6);
        });
        s.park();
        s.woke(1);
        let line = s.snapshot().to_string();
        assert_eq!(
            line,
            "commits=1 aborts=0 reads=0 writes=0 probes=2 reader_conflicts=1 snapshot_reads=0 \
             walk_steps=0 trimmed=0 evicted=0 eviction_aborts=0 max_chain=0 retained=0 \
             recorded=6 transitions=0 ro_commits=0 ro_reads=0 parks=1 wakes=1 spurious=0 \
             log_appends=0 fsyncs=0 group_commit=0"
        );
        s.mode_transition();
        s.read_only_commit(64);
        s.log_append();
        s.fsync_batch(1);
        let line = s.snapshot().to_string();
        assert!(
            line.ends_with(
                "transitions=1 ro_commits=1 ro_reads=64 parks=1 wakes=1 spurious=0 \
                 log_appends=1 fsyncs=1 group_commit=1"
            ),
            "{line}"
        );
    }

    #[test]
    fn since_differences() {
        let s = StmStats::default();
        s.commit();
        let a = s.snapshot();
        s.commit();
        tally(&s, |t| t.probes(3));
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.validation_probes, 3);
    }

    #[test]
    fn sharded_counters_aggregate_exactly_across_threads() {
        // N threads (more than there are shards, so slots are shared)
        // hammer one instance through the same tally-and-flush path a
        // transaction uses; the summed snapshot must be exact — sharding
        // may never lose or double-count an event.
        let s = StmStats::default();
        let threads = SHARDS + 4;
        let per: u64 = 2_000;
        std::thread::scope(|sc| {
            for i in 0..threads {
                let s = &s;
                sc.spawn(move || {
                    for k in 0..per {
                        tally(s, |t| {
                            t.read();
                            t.read();
                            t.read();
                            t.write();
                            t.probes(2);
                            if k % 4 == 0 {
                                t.reader_conflict();
                                t.snapshot_read();
                                t.recorded(3);
                            }
                        });
                        s.commit();
                        if k % 8 == 0 {
                            s.abort();
                        }
                    }
                    s.trim(i as u64, 1);
                });
            }
        });
        let n = threads as u64;
        let snap = s.snapshot();
        assert_eq!(snap.reads, 3 * per * n);
        assert_eq!(snap.writes, per * n);
        assert_eq!(snap.validation_probes, 2 * per * n);
        assert_eq!(snap.commits, per * n);
        assert_eq!(snap.aborts, per.div_ceil(8) * n);
        assert_eq!(snap.reader_conflicts, per.div_ceil(4) * n);
        assert_eq!(snap.snapshot_reads, per.div_ceil(4) * n);
        assert_eq!(snap.recorded_events, 3 * per.div_ceil(4) * n);
        assert_eq!(snap.versions_trimmed, n);
        assert_eq!(snap.max_chain_len, threads as u64 - 1, "max across shards");
        assert_eq!(snap.versions_retained, threads as u64 - 2);
    }

    #[test]
    fn empty_tallies_flush_nothing() {
        let s = StmStats::default();
        tally(&s, |_| {});
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
