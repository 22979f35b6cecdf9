//! The transaction engine: six validation algorithms behind one API.
//!
//! * [`Algorithm::Tl2`] — global version clock plus the striped orec
//!   table ([`crate::orec`]): reads validate in O(1) against the snapshot
//!   time with an optimistic word-check/read/re-check and **acquire no
//!   lock**; commit locks the write set's stripes in sorted order,
//!   validates the read set once, and stamps the stripes with a commit
//!   timestamp drawn by one `fetch_add` on the clock.
//! * [`Algorithm::Incremental`] — no clock read on the read path; every
//!   t-read re-validates the entire read set by version equality. This is
//!   the paper's invisible-read weak-DAP progressive TM transplanted to
//!   real hardware: quadratic validation work, observable in
//!   [`StmStats::snapshot`] and in wall-clock time.
//! * [`Algorithm::Norec`] — a single global sequence lock and value-based
//!   validation; no per-variable version traffic on commit besides the
//!   value itself.
//! * [`Algorithm::Tlrw`] — TLRW-style **visible reads**: the first read
//!   of a stripe announces a reader on its reader–writer word and holds
//!   that read lock to commit, so reads cost O(1) with **zero
//!   validation** and writers abort on foreign readers. The other side
//!   of the paper's time–space tradeoff, measurable against the three
//!   invisible-read designs above.
//! * [`Algorithm::Mv`] — **multi-version** invisible reads: commits
//!   append timestamped versions to each variable's chain instead of
//!   replacing the value, so a read-only transaction reads the
//!   consistent snapshot named by its start time — zero orec probes,
//!   zero validation, **zero aborts**, under any write storm. The space
//!   the chain costs is reclaimed by the low-watermark collector
//!   ([`crate::epoch`]); the paper's *space* axis, on real threads.
//! * [`Algorithm::Adaptive`] — a mode controller that samples windowed
//!   [`StatsSnapshot`](crate::StatsSnapshot) deltas and, on a
//!   scan-length vote, moves new attempts between the Tl2 (invisible)
//!   and Mv (multi-version) read hooks, while every commit publishes the
//!   Mv way; see [`crate::AdaptiveConfig`] for the knobs.
//!
//! The algorithm-specific read/commit/snapshot behaviour lives in the
//! [`crate::algo`] strategy layer (one module per algorithm, four hooks
//! each); this module owns everything generic, split by concern:
//!
//! * [`builder`] — [`StmBuilder`]: configuration and instance assembly;
//! * [`transaction`] — [`Transaction`]: the per-attempt state machine
//!   (operations, poisoning, instrumentation) and the one resolve point
//!   every attempt ends in — release what it holds, flush its tallies,
//!   then count the outcome and run the adaptive hook, in that order
//!   everywhere;
//! * [`attempt`] — the attempt lifecycle, written once: a step machine
//!   that runs one attempt (begin → body → commit → resolve) and owns
//!   the attempt budget, the contention-manager consultation and the
//!   park protocol, under two thin drivers that differ only in whether
//!   they wait — [`Stm::run`] / [`Stm::atomically`] block the thread,
//!   [`Stm::try_once`] does not wait;
//! * [`twophase`] — the one commit pipeline, prepare then publish: run
//!   back to back by the attempt step, and split
//!   ([`Transaction::prepare_commit`] / [`Prepared`]) for a coordinator
//!   that holds several instances' commit locks open and publishes them
//!   together (the `ptm-server` cross-shard commit);
//! * this file — [`Stm`] itself, the [`Algorithm`] selector, and the
//!   error types.
//!
//! All modes buffer writes in the shared transaction log
//! ([`crate::txlog`]) and publish them only at commit, so a failed
//! transaction never dirties shared state. Retry behaviour is a pluggable
//! [`ContentionManager`] chosen through [`StmBuilder`]; past its park
//! threshold (and always for [`Transaction::retry`] logical waits) the
//! transaction stops consuming CPU entirely and blocks on the orec
//! table's per-stripe waiter lists until a committing writer overlaps
//! the attempt's footprint.

mod attempt;
mod builder;
#[cfg(test)]
mod tests;
mod transaction;
mod twophase;

pub use builder::StmBuilder;
pub use transaction::Transaction;
pub use twophase::Prepared;

use crate::algo::adaptive::AdaptiveState;
use crate::algo::Hooks;
use crate::cm::ContentionManager;
use crate::epoch::SnapshotRegistry;
use crate::orec::{CachePadded, OrecTable};
use crate::recorder::HistoryRecorder;
use crate::stats::StmStats;
use crate::wal::Wal;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The validation algorithm an [`Stm`] instance runs.
///
/// Five static design points span the paper's time–space tradeoff —
/// [`Algorithm::Mv`] holds down the *space* end (keep versions, never
/// abort a reader) — and [`Algorithm::Adaptive`] moves between Tl2's
/// time end and Mv's space end at runtime.
///
/// # Examples
///
/// ```
/// use ptm_stm::{Algorithm, Stm, TVar};
///
/// let v = TVar::new(0u64);
/// for algo in [
///     Algorithm::Tl2,
///     Algorithm::Incremental,
///     Algorithm::Norec,
///     Algorithm::Tlrw,
///     Algorithm::Mv,
///     Algorithm::Adaptive,
/// ] {
///     let stm = Stm::new(algo);
///     stm.atomically(|tx| tx.modify(&v, |x| x + 1));
/// }
/// assert_eq!(v.load(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Global version clock, O(1) lock-free read validation (default).
    Tl2,
    /// Full read-set re-validation on every read (paper's tight upper
    /// bound for weak-DAP + invisible reads; Θ(m²) total read cost).
    Incremental,
    /// Global sequence lock with value-based validation.
    Norec,
    /// TLRW-style visible reads (Dice–Shavit): per-stripe reader–writer
    /// lock words, O(1) reads with **no validation at all** — paid for
    /// with one shared-memory RMW inside every first read of a stripe,
    /// and with writers aborting whenever foreign readers are present.
    /// Progressive but *not* strongly progressive (two read-to-write
    /// upgraders on one stripe abort each other). The native twin of
    /// `ptm-core`'s simulated `TlrwTm`.
    Tlrw,
    /// Multi-version invisible reads (Perelman–Fan–Keidar style): every
    /// read resolves against the transaction's start-time snapshot by
    /// walking the variable's version chain, so **read-only transactions
    /// never probe an orec, never validate, and never abort** — they pay
    /// in *space* (retained versions) instead of time, the axis the
    /// paper's Theorem 3 trades against. Updating transactions commit
    /// through the usual lock–validate–stamp path but *append* a version
    /// rather than replacing it; superseded versions are reclaimed by
    /// the low-watermark collector once no live snapshot can reach them
    /// (watch `snapshot_reads` / `versions_trimmed` / `max_chain_len` in
    /// [`StatsSnapshot`](crate::StatsSnapshot)). The native twin of
    /// `ptm-core`'s simulated `MvTm` — with chains trimmed by liveness
    /// instead of a fixed ring, so snapshots are never evicted.
    Mv,
    /// Workload-driven switching across the paper's time–space
    /// separation: a controller samples stats deltas over commit windows
    /// and moves the live engine between the invisible-read (Tl2) and
    /// multi-version (Mv) read hooks — Mv while the window's read-only
    /// transactions are long scans, Tl2 otherwise. Every commit appends
    /// a version the Mv way, so a switch waits for nothing: attempts
    /// already running finish on the hooks they began with, side by
    /// side with attempts on the new ones. Starts invisible; tune with
    /// [`StmBuilder::adaptive_config`], observe through
    /// [`StatsSnapshot`](crate::StatsSnapshot)'s `mode_transitions` and
    /// [`Stm::active_mode`].
    Adaptive,
}

impl Algorithm {
    /// Every algorithm, for exhaustive test/bench matrices.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Tl2,
        Algorithm::Incremental,
        Algorithm::Norec,
        Algorithm::Tlrw,
        Algorithm::Mv,
        Algorithm::Adaptive,
    ];
}

/// Space-budget knobs for [`Algorithm::Mv`]'s version chains, set
/// through [`StmBuilder::mv_config`]; also governs the Mv mode of
/// [`Algorithm::Adaptive`].
///
/// # Examples
///
/// ```
/// use ptm_stm::{Algorithm, MvConfig, Stm};
///
/// let stm = Stm::builder(Algorithm::Mv)
///     .mv_config(MvConfig {
///         max_versions: Some(8),
///     })
///     .build();
/// assert_eq!(stm.algorithm(), Algorithm::Mv);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MvConfig {
    /// Hard cap on versions retained per variable. `None` (the default)
    /// trims purely by liveness: the snapshot-registry low watermark,
    /// under which a retained snapshot is never evicted — but a camped
    /// reader holds every later version alive on every chain it shadows.
    /// `Some(k)` bounds each chain to `k` versions by evicting the
    /// oldest suffix at commit (the simulator's ring semantics as a
    /// config point): a snapshot older than the cut **aborts at its next
    /// read** of that chain and retries on a fresh snapshot
    /// (`eviction_aborts` in [`StatsSnapshot`](crate::StatsSnapshot)),
    /// so a pathological camper can cost retries, never unbounded
    /// memory.
    pub max_versions: Option<usize>,
}

/// The transaction aborted and should be retried; returned by
/// transactional operations so user code can propagate it with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry;

impl fmt::Display for Retry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction conflict; retry")
    }
}

impl std::error::Error for Retry {}

/// The retry budget ran out before the transaction committed: either the
/// instance's `max_attempts` was reached or its contention manager gave
/// up. Returned by [`Stm::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetriesExhausted {
    /// Attempts consumed before giving up.
    pub attempts: u64,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction failed to commit after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for RetriesExhausted {}

/// Software transactional memory instance.
///
/// All transactions created from one `Stm` coordinate through its clock /
/// sequence lock and its orec table; variables
/// ([`TVar`](crate::TVar)) are free-standing and may be used with any
/// `Stm`, but must not be shared between instances running concurrently.
/// Instances that serve snapshots (Mv, Adaptive) may share one
/// *timestamp domain* — the clock and the snapshot registry — while
/// keeping their own orec tables ([`StmBuilder::build_beside`]); a
/// transaction then reads several of them at one snapshot
/// ([`Transaction::beside`]) and publishes them at one tick
/// ([`Transaction::commit_prepared_all`]).
pub struct Stm {
    pub(crate) algorithm: Algorithm,
    /// TL2/Incremental/Mv: version clock. NOrec: sequence lock (odd =
    /// busy). Tlrw: unused (consistency comes from held read locks).
    /// On its own cache line, and shared by every instance of one
    /// timestamp domain ([`StmBuilder::build_beside`]).
    pub(crate) clock: Arc<CachePadded<AtomicU64>>,
    /// Striped metadata words: versioned locks (TL2/Incremental/Mv) or
    /// reader–writer locks (Tlrw); unused by NOrec.
    pub(crate) orecs: OrecTable,
    pub(crate) stats: Arc<StmStats>,
    pub(super) max_attempts: u64,
    pub(super) cm: Box<dyn ContentionManager>,
    /// Present when this instance records t-operation histories.
    pub(super) recorder: Option<HistoryRecorder>,
    /// Present on `Algorithm::Adaptive` instances: the live mode and the
    /// window controller.
    pub(crate) adaptive: Option<AdaptiveState>,
    /// Present on the instances that serve snapshots, `Algorithm::Mv`
    /// and `Algorithm::Adaptive`: the active snapshots whose minimum is
    /// the version-chain low watermark (see [`crate::epoch`]), shared
    /// like the clock by every instance of one timestamp domain. Its
    /// presence also selects the append publish for every commit of the
    /// instance.
    pub(crate) snapshots: Option<SnapshotRegistry>,
    /// Space-budget knobs for the Mv hooks ([`StmBuilder::mv_config`]).
    pub(crate) mv: MvConfig,
    /// Present when this instance logs committed write sets for
    /// durability ([`StmBuilder::durability_hook`]): appended to inside
    /// each publish critical section with the commit tick (see
    /// [`crate::wal`] for the ordering argument).
    pub(crate) durability: Option<Arc<Wal>>,
}

impl fmt::Debug for Stm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stm")
            .field("algorithm", &self.algorithm)
            .field("active_mode", &self.active_mode())
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .field("orec_stripes", &self.orecs.len())
            .field("max_attempts", &self.max_attempts)
            .field("contention_manager", &self.cm)
            .field("recording", &self.recorder.is_some())
            .field("durable", &self.durability.is_some())
            .finish()
    }
}

impl Stm {
    /// Creates an instance running the given algorithm with default
    /// settings (see [`StmBuilder::new`]).
    pub fn new(algorithm: Algorithm) -> Self {
        StmBuilder::new(algorithm).build()
    }

    /// Starts configuring an instance.
    pub fn builder(algorithm: Algorithm) -> StmBuilder {
        StmBuilder::new(algorithm)
    }

    /// TL2 instance (the default algorithm).
    pub fn tl2() -> Self {
        Stm::new(Algorithm::Tl2)
    }

    /// Incremental-validation instance.
    pub fn incremental() -> Self {
        Stm::new(Algorithm::Incremental)
    }

    /// NOrec instance.
    pub fn norec() -> Self {
        Stm::new(Algorithm::Norec)
    }

    /// Tlrw (visible-reads) instance.
    pub fn tlrw() -> Self {
        Stm::new(Algorithm::Tlrw)
    }

    /// Mv (multi-version) instance: abort-free read-only transactions.
    pub fn mv() -> Self {
        Stm::new(Algorithm::Mv)
    }

    /// Adaptive instance (workload-driven switching between the Tl2 and
    /// Mv modes) with default tuning.
    pub fn adaptive() -> Self {
        Stm::new(Algorithm::Adaptive)
    }

    /// The algorithm this instance runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The read/commit machinery currently in force: the algorithm
    /// itself for static instances; for [`Algorithm::Adaptive`], the
    /// live mode — [`Algorithm::Tl2`] (invisible) or [`Algorithm::Mv`]
    /// (multi-version).
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Algorithm, Stm};
    ///
    /// assert_eq!(Stm::norec().active_mode(), Algorithm::Norec);
    /// assert_eq!(Stm::adaptive().active_mode(), Algorithm::Tl2);
    /// ```
    pub fn active_mode(&self) -> Algorithm {
        self.hooks().into()
    }

    /// The hook set an attempt beginning now runs: the algorithm itself,
    /// or an adaptive instance's live mode.
    pub(crate) fn hooks(&self) -> Hooks {
        match self.algorithm {
            Algorithm::Tl2 => Hooks::Tl2,
            Algorithm::Incremental => Hooks::Incremental,
            Algorithm::Norec => Hooks::Norec,
            Algorithm::Tlrw => Hooks::Tlrw,
            Algorithm::Mv => Hooks::Mv,
            Algorithm::Adaptive => self
                .adaptive
                .as_ref()
                .expect("Algorithm::Adaptive instances carry adaptive state")
                .mode(),
        }
    }

    /// The per-transaction attempt ceiling.
    pub fn max_attempts(&self) -> u64 {
        self.max_attempts
    }

    /// Progress statistics for this instance.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// The history recorder attached via [`StmBuilder::record_history`],
    /// if any.
    pub fn recorder(&self) -> Option<&HistoryRecorder> {
        self.recorder.as_ref()
    }

    /// Whether `other` shares this instance's timestamp domain: both
    /// serve snapshots from one clock and one registry
    /// ([`StmBuilder::build_beside`]).
    pub(crate) fn shares_domain(&self, other: &Stm) -> bool {
        self.snapshots.is_some() && Arc::ptr_eq(&self.clock, &other.clock)
    }

    /// Wakes every waiter parked on one of `stripes` (a committing
    /// writer's write set): the commit-side half of the parking
    /// protocol. Cheap when nobody waits — one fence and one counter
    /// load.
    pub(crate) fn wake_stripes(&self, stripes: &[usize]) {
        let n = self.orecs.waiters().wake_stripes(stripes);
        self.stats.woke(n);
    }
}
