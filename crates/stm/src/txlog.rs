//! The transaction log: read set and write set shared by every algorithm.
//!
//! One [`TxLog`] per in-flight transaction holds
//!
//! * `reads` — per-read `(stripe, observed orec word)` pairs, 16 bytes
//!   each, used by TL2 and Incremental for version validation (no `Arc`
//!   bump, no allocation on the hot read path); Mv reuses the same
//!   entries with `meta` carrying the snapshot bound instead of an
//!   observed word (its reads probe no orec);
//! * `value_reads` — `(variable, value snapshot)` pairs, used by NOrec's
//!   value-based validation;
//! * `rw_reads` — stripes read-locked by Tlrw's visible reads, held to
//!   commit (nothing to validate, everything to release);
//! * `writes` — buffered `(variable, node)` updates: each value
//!   already sits in the node its commit will publish (see
//!   [`WriteNode`]).
//!
//! The log outlives its transaction: [`TxLog::reset`] clears entries but
//! keeps the vector capacity, and a [`LogLoan`] hands the emptied log
//! back to a per-thread free list, so neither a retry nor the thread's
//! next transaction reallocates anything.

use crate::epoch::Retired;
use crate::orec::OrecTable;
use crate::tvar::{AnyTVar, WriteNode};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A versioned read observation (TL2 / Incremental / Mv).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VersionedRead {
    /// Orec stripe the read validated against (will validate against,
    /// for Mv).
    pub stripe: usize,
    /// TL2/Incremental: the full orec word observed (unlocked, by
    /// construction), validated by equality. Mv: the snapshot timestamp
    /// the read resolved under, validated as an upper version bound at
    /// commit.
    pub meta: u64,
}

/// A value-snapshot read observation (NOrec).
pub(crate) struct ValueRead {
    /// The variable, kept alive for revalidation.
    pub var: Arc<dyn AnyTVar>,
    /// Clone of the value as first read.
    pub snapshot: Box<dyn Any + Send>,
}

/// A buffered write, keyed by variable identity.
pub(crate) struct WriteEntry {
    /// Stable identity of the cell (orders and keys the write set).
    pub id: usize,
    /// The variable, used to publish at commit.
    pub var: Arc<dyn AnyTVar>,
    /// The buffered value, in the node the commit publishes.
    pub node: WriteNode,
}

/// Held-stripe counts up to this scan linearly on the Tlrw read path;
/// beyond it a hash index takes over (see `TxLog::rw_index`).
const RW_INDEX_THRESHOLD: usize = 64;

/// Write sets up to this size answer `lookup_write`/`buffer_write` by
/// linear scan; beyond it a hash index takes over (see
/// `TxLog::write_index`). Smaller than `RW_INDEX_THRESHOLD` because the
/// write-set scan runs on **every** read (the read-after-own-write
/// check), not just the visible-read path.
const WRITE_INDEX_THRESHOLD: usize = 32;

/// Read-set / write-set storage for one transaction, recycled through
/// the thread's pool (see [`LogLoan`]).
#[derive(Default)]
pub(crate) struct TxLog {
    pub reads: Vec<VersionedRead>,
    pub value_reads: Vec<ValueRead>,
    /// Stripes whose reader–writer read lock this transaction holds
    /// (`Algorithm::Tlrw` only). Each entry is one `fetch_add(+RW_READER)`
    /// on the stripe's word that must be undone exactly once; the engine
    /// releases them at commit, abort cleanup, or the transaction's
    /// `Drop` — never through [`TxLog::reset`] alone. Mutate only through
    /// the `rw_*` helpers, which keep the membership index in sync.
    pub rw_reads: Vec<usize>,
    /// Position index (`stripe -> index in rw_reads`), rebuilt lazily
    /// whenever the set outgrows [`RW_INDEX_THRESHOLD`]: a large-read-set
    /// Tlrw transaction would otherwise pay Θ(m²) local scan work on
    /// membership checks (and O(m) per upgrade removal) — the very cost
    /// profile visible reads exist to avoid — while small sets keep the
    /// cache-hot linear scan, which beats hashing by ~50 ns/read.
    /// Invariant: while the index is active
    /// (`rw_reads.len() > RW_INDEX_THRESHOLD`), it maps exactly the
    /// stripes in `rw_reads` to their current positions; in linear mode
    /// its contents are stale and unused (the next crossing rebuilds).
    rw_index: HashMap<usize, usize>,
    pub writes: Vec<WriteEntry>,
    /// Position index (`variable id -> index in writes`), built when the
    /// write set outgrows [`WRITE_INDEX_THRESHOLD`]: every t-read checks
    /// the write set first, so a large transaction would otherwise pay
    /// Θ(reads × writes) on its own buffered values. Positions stay
    /// valid because entries are only appended or replaced in place —
    /// the set drains wholesale at commit. Invariant: while active
    /// (`writes.len() > WRITE_INDEX_THRESHOLD`) it maps exactly the
    /// buffered ids to their positions; in linear mode its contents are
    /// stale and unused (the next crossing rebuilds).
    write_index: HashMap<usize, usize>,
    /// The write set's stripes, sorted and deduplicated, filled by
    /// [`TxLog::collect_write_stripes`] by the lock half and read by the
    /// publish half (kept so retries do not reallocate).
    pub stripe_buf: Vec<usize>,
    /// The commit locks a successful lock half holds until its publish or
    /// abort: `(stripe, pre-lock word)` for the versioned algorithms,
    /// `(stripe, was_read)` for Tlrw. Empty outside that window.
    pub held_buf: Vec<(usize, u64)>,
    /// Open `or_else` checkpoint frames, innermost last. While a frame is
    /// open, `buffer_write` records displaced pre-frame values into
    /// `undo` so [`TxLog::rollback_to_checkpoint`] can restore the write
    /// set exactly. Reads are deliberately *not* framed: an `or_else`
    /// alternative keeps the first branch's read set (the union is what
    /// makes a double-retry wait on both footprints, and what keeps
    /// validation sound — the branch choice depended on those reads).
    frames: Vec<CheckFrame>,
    /// Displaced pre-frame nodes, `(index in writes, old node)`, shared
    /// by all open frames and partitioned by each frame's `undo_base`.
    undo: Vec<(usize, WriteNode)>,
    /// The commit's garbage: version nodes displaced by
    /// [`TxLog::publish_writes`] or detached by Mv's trims, handed to
    /// [`epoch::retire_batch`](crate::epoch::retire_batch) (which drains
    /// it) once every swap of the commit is done. Empty outside a
    /// publish.
    pub retired: Vec<Retired>,
    /// The variables [`TxLog::append_writes`] pushed a pending version
    /// onto, for Mv's publish to stamp and trim. Empty outside a publish.
    pub written: Vec<Arc<dyn AnyTVar>>,
}

/// Logs a thread keeps for reuse. `ptm-server`'s `ShardedKv::scan` holds
/// one transaction per shard on one thread, so anything under its shard
/// count (4 by default) would send every scan back to the allocator.
pub(crate) const POOL_DEPTH: usize = 8;
const _: () = assert!(POOL_DEPTH >= 4);

/// Largest capacity (in entries) any one of a log's buffers may keep
/// into the pool. A log some giant transaction grew past this is dropped
/// instead of pooled, so an idle thread retains at most
/// `POOL_DEPTH` × a few buffers × this many entries (16–32 bytes each).
pub(crate) const POOL_RETAINED_CAP: usize = 1024;

thread_local! {
    /// This thread's free list of emptied logs, newest last. Boxed so a
    /// loan moves one pointer in and out, not the log's dozen buffers.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<TxLog>>> = const { RefCell::new(Vec::new()) };
}

/// A transaction's loan of a [`TxLog`] from its thread's pool: taken at
/// `Transaction::begin`, reset and returned when the transaction drops.
/// One mechanism covers retry-to-retry and transaction-to-transaction
/// reuse, for the attempt loop and [`Stm::transaction`](crate::Stm::transaction)
/// alike.
///
/// Invariants:
///
/// * **Release before reset.** `reset` forgets `rw_reads` without
///   undoing the `fetch_add`s it stands for, so the read locks must be
///   released first. `Transaction` keeps the order structurally: its
///   `Drop` (which releases an unresolved attempt) runs before its
///   fields — this loan among them — are dropped.
/// * **Same thread.** `Transaction` is `!Send` (it holds an epoch pin),
///   so a log always returns to the pool it came from.
/// * **Bounded.** At most [`POOL_DEPTH`] logs per thread, none with a
///   buffer over [`POOL_RETAINED_CAP`] entries.
/// * **Teardown-safe.** Both directions use `try_with`: a transaction
///   run while the thread's locals are being destroyed builds a fresh
///   log and drops it afterwards.
pub(crate) struct LogLoan(Option<Box<TxLog>>);

impl LogLoan {
    /// Takes a log from this thread's pool, or builds one if the pool is
    /// empty (or already destroyed).
    pub(crate) fn take() -> LogLoan {
        let pooled = POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten();
        LogLoan(Some(pooled.unwrap_or_default()))
    }
}

#[cfg(test)]
impl LogLoan {
    /// The `reads` capacity of every log in this thread's pool, oldest
    /// first — how the pool tests see what came back and how big.
    pub(crate) fn pooled_read_capacities() -> Vec<usize> {
        POOL.with(|p| p.borrow().iter().map(|l| l.reads.capacity()).collect())
    }
}

impl Deref for LogLoan {
    type Target = TxLog;
    #[inline]
    fn deref(&self) -> &TxLog {
        self.0.as_deref().expect("log is on loan until drop")
    }
}

impl DerefMut for LogLoan {
    #[inline]
    fn deref_mut(&mut self) -> &mut TxLog {
        self.0.as_deref_mut().expect("log is on loan until drop")
    }
}

impl Drop for LogLoan {
    fn drop(&mut self) {
        let Some(mut log) = self.0.take() else {
            return;
        };
        // Outside the pool borrow: dropping buffered user values may run
        // transactions of its own.
        log.reset();
        if log.oversized() {
            return;
        }
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_DEPTH {
                p.push(log);
            }
        });
    }
}

/// One open `or_else` checkpoint: enough to restore the write set to its
/// state at [`TxLog::checkpoint`] time. Entries at `writes_len..` were
/// created inside the frame (dropped wholesale on rollback); replacements
/// of entries below it are journaled in `undo` from `undo_base`.
struct CheckFrame {
    writes_len: usize,
    undo_base: usize,
}

impl std::fmt::Debug for TxLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxLog")
            .field("reads", &self.reads.len())
            .field("value_reads", &self.value_reads.len())
            .field("writes", &self.writes.len())
            .finish()
    }
}

impl TxLog {
    /// Clears all entries, keeping allocated capacity for the next
    /// attempt.
    ///
    /// The caller must have released any read locks tracked in
    /// `rw_reads` first (clearing the vector does not undo the
    /// `fetch_add`s it stands for).
    pub(crate) fn reset(&mut self) {
        self.reads.clear();
        self.value_reads.clear();
        self.rw_reads.clear();
        self.rw_index.clear();
        self.writes.clear();
        self.write_index.clear();
        self.stripe_buf.clear();
        self.held_buf.clear();
        self.frames.clear();
        self.undo.clear();
        self.retired.clear();
        self.written.clear();
    }

    /// Whether any buffer grew past [`POOL_RETAINED_CAP`].
    fn oversized(&self) -> bool {
        let caps = [
            self.reads.capacity(),
            self.value_reads.capacity(),
            self.rw_reads.capacity(),
            self.rw_index.capacity(),
            self.writes.capacity(),
            self.write_index.capacity(),
            self.stripe_buf.capacity(),
            self.held_buf.capacity(),
            self.frames.capacity(),
            self.undo.capacity(),
            self.retired.capacity(),
            self.written.capacity(),
        ];
        caps.into_iter().any(|c| c > POOL_RETAINED_CAP)
    }

    /// Opens an `or_else` checkpoint over the write set.
    pub(crate) fn checkpoint(&mut self) {
        self.frames.push(CheckFrame {
            writes_len: self.writes.len(),
            undo_base: self.undo.len(),
        });
    }

    /// Closes the innermost checkpoint, keeping the writes made since.
    pub(crate) fn commit_checkpoint(&mut self) {
        self.frames.pop();
        if self.frames.is_empty() {
            // No outer frame can roll back past this point; the journal
            // is dead weight.
            self.undo.clear();
        }
    }

    /// Restores the write set to the innermost checkpoint: replays the
    /// frame's undo journal (newest first, so multiple replacements of
    /// one cell land on the pre-frame value) and drops entries created
    /// inside the frame.
    pub(crate) fn rollback_to_checkpoint(&mut self) {
        let f = self.frames.pop().expect("rollback without checkpoint");
        for (i, old) in self.undo.drain(f.undo_base..).rev() {
            self.writes[i].node = old;
        }
        for w in self.writes.drain(f.writes_len..) {
            self.write_index.remove(&w.id);
        }
    }

    /// Journals a displaced value if the innermost open frame predates
    /// the entry (entries born inside the frame are simply truncated on
    /// rollback).
    fn record_undo(&mut self, index: usize, old: WriteNode) {
        if let Some(f) = self.frames.last() {
            if index < f.writes_len {
                self.undo.push((index, old));
            }
        }
    }

    /// Whether this transaction holds the read lock on `stripe`.
    pub(crate) fn rw_contains(&self, stripe: usize) -> bool {
        if self.rw_reads.len() <= RW_INDEX_THRESHOLD {
            self.rw_reads.contains(&stripe)
        } else {
            self.rw_index.contains_key(&stripe)
        }
    }

    /// Registers a newly acquired read lock.
    pub(crate) fn rw_insert(&mut self, stripe: usize) {
        self.rw_reads.push(stripe);
        match self.rw_reads.len().cmp(&(RW_INDEX_THRESHOLD + 1)) {
            // Crossing the threshold: index everything held so far (a
            // clean rebuild — linear-mode removals may have left the
            // previous index stale).
            std::cmp::Ordering::Equal => {
                self.rw_index.clear();
                self.rw_index
                    .extend(self.rw_reads.iter().enumerate().map(|(i, &s)| (s, i)));
            }
            std::cmp::Ordering::Greater => {
                self.rw_index.insert(stripe, self.rw_reads.len() - 1);
            }
            std::cmp::Ordering::Less => {}
        }
    }

    /// Deregisters a read lock consumed by a write-lock upgrade: a short
    /// scan in linear mode, position lookup + `swap_remove` under the
    /// index — commit work stays O(write set), not O(read set).
    pub(crate) fn rw_remove(&mut self, stripe: usize) {
        if self.rw_reads.len() <= RW_INDEX_THRESHOLD {
            self.rw_reads.retain(|&s| s != stripe);
            return;
        }
        if let Some(i) = self.rw_index.remove(&stripe) {
            self.rw_reads.swap_remove(i);
            if let Some(&moved) = self.rw_reads.get(i) {
                self.rw_index.insert(moved, i);
            }
        }
    }

    /// Hands out the held stripes for release, clearing the registry.
    pub(crate) fn rw_drain(&mut self) -> std::vec::Drain<'_, usize> {
        self.rw_index.clear();
        self.rw_reads.drain(..)
    }

    /// The buffered value for `id`, if this transaction wrote it: a
    /// cache-hot linear scan for small write sets, one hash probe past
    /// the threshold.
    pub(crate) fn lookup_write(&self, id: usize) -> Option<&WriteEntry> {
        if self.writes.len() <= WRITE_INDEX_THRESHOLD {
            self.writes.iter().find(|w| w.id == id)
        } else {
            self.write_index.get(&id).map(|&i| &self.writes[i])
        }
    }

    /// Buffers a write, replacing any earlier value for the same cell.
    pub(crate) fn buffer_write(&mut self, id: usize, var: Arc<dyn AnyTVar>, node: WriteNode) {
        if self.writes.len() <= WRITE_INDEX_THRESHOLD {
            if let Some(i) = self.writes.iter().position(|w| w.id == id) {
                let old = std::mem::replace(&mut self.writes[i].node, node);
                self.record_undo(i, old);
                return;
            }
            self.writes.push(WriteEntry { id, var, node });
            // Crossing the threshold: index everything buffered so far
            // (a clean rebuild — the index is stale in linear mode).
            if self.writes.len() == WRITE_INDEX_THRESHOLD + 1 {
                self.write_index.clear();
                self.write_index
                    .extend(self.writes.iter().enumerate().map(|(i, w)| (w.id, i)));
            }
            return;
        }
        match self.write_index.get(&id) {
            Some(&i) => {
                let old = std::mem::replace(&mut self.writes[i].node, node);
                self.record_undo(i, old);
            }
            None => {
                self.writes.push(WriteEntry { id, var, node });
                self.write_index.insert(id, self.writes.len() - 1);
            }
        }
    }

    /// Fills `stripe_buf` with the write set's stripes, sorted and
    /// deduplicated (several variables may share a stripe): the lock
    /// order of every stripe-locking lock half.
    pub(crate) fn collect_write_stripes(&mut self, orecs: &OrecTable) {
        debug_assert!(self.held_buf.is_empty(), "a lock half already holds locks");
        self.stripe_buf.clear();
        self.stripe_buf
            .extend(self.writes.iter().map(|w| orecs.stripe_of(w.id)));
        self.stripe_buf.sort_unstable();
        self.stripe_buf.dedup();
    }

    /// Swaps every buffered node into its variable, consuming the write
    /// set. The displaced nodes land in `retired`, for the caller to
    /// hand to the epoch collector after its release stores.
    ///
    /// The caller must hold whatever exclusion the algorithm requires
    /// (orec stripe locks, or the NOrec sequence lock).
    pub(crate) fn publish_writes(&mut self) {
        self.retired
            .extend(self.writes.drain(..).map(|w| w.var.publish_boxed(w.node)));
    }

    /// Links every buffered node onto its variable's version chain with
    /// a pending stamp, consuming the write set (`Algorithm::Mv`). The
    /// written variables land in `written` so the committer can resolve
    /// the stamps and trim the chains.
    ///
    /// The caller must hold the write set's stripe locks and be past
    /// validation: appended versions are never unlinked by their own
    /// commit.
    pub(crate) fn append_writes(&mut self) {
        for w in self.writes.drain(..) {
            w.var.append_boxed(w.node);
            self.written.push(w.var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch;
    use crate::tvar::TVar;

    #[test]
    fn buffer_write_replaces_in_place() {
        let mut log = TxLog::default();
        let v = TVar::new(1u64);
        log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(10u64));
        log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(20u64));
        assert_eq!(log.writes.len(), 1);
        let entry = log.lookup_write(v.id()).expect("buffered");
        assert_eq!(*entry.node.value::<u64>(), 20);
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut log = TxLog::default();
        let vars: Vec<TVar<u64>> = (0..32).map(TVar::new).collect();
        for v in &vars {
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(0u64));
            log.reads.push(VersionedRead { stripe: 0, meta: 0 });
        }
        let (rc, wc) = (log.reads.capacity(), log.writes.capacity());
        log.reset();
        assert!(log.reads.is_empty() && log.writes.is_empty());
        assert_eq!(log.reads.capacity(), rc);
        assert_eq!(log.writes.capacity(), wc);
    }

    #[test]
    fn rw_registry_stays_consistent_across_the_index_threshold() {
        let mut log = TxLog::default();
        // Grow past the linear-scan threshold: membership must answer
        // identically on both sides of the crossing.
        for s in 0..(RW_INDEX_THRESHOLD + 40) {
            assert!(!log.rw_contains(s), "{s} not yet held");
            log.rw_insert(s);
            assert!(log.rw_contains(s), "{s} just acquired");
        }
        assert!(log.rw_contains(0), "pre-threshold entries survive indexing");
        assert!(!log.rw_contains(RW_INDEX_THRESHOLD + 40));
        // Upgrades deregister wherever the entry lives.
        log.rw_remove(3);
        log.rw_remove(RW_INDEX_THRESHOLD + 5);
        assert!(!log.rw_contains(3));
        assert!(!log.rw_contains(RW_INDEX_THRESHOLD + 5));
        // Shrink below the threshold (linear mode) and regrow across it:
        // the rebuilt index must match the vector exactly.
        let held: Vec<usize> = log.rw_drain().collect();
        assert_eq!(held.len(), RW_INDEX_THRESHOLD + 40 - 2);
        for s in 0..RW_INDEX_THRESHOLD {
            log.rw_insert(2 * s);
        }
        log.rw_remove(0);
        for s in 0..8 {
            log.rw_insert(1001 + s);
        }
        assert!(!log.rw_contains(0));
        assert!(log.rw_contains(2));
        assert!(log.rw_contains(1008));
        assert_eq!(log.rw_drain().count(), RW_INDEX_THRESHOLD - 1 + 8);
        assert!(!log.rw_contains(2), "drain empties the registry");
    }

    #[test]
    fn write_set_stays_consistent_across_the_index_threshold() {
        // TVars to key the set with real, stable ids.
        let vars: Vec<TVar<usize>> = (0..(WRITE_INDEX_THRESHOLD + 40)).map(TVar::new).collect();
        let val_of = |log: &TxLog, v: &TVar<usize>| {
            log.lookup_write(v.id()).map(|w| *w.node.value::<usize>())
        };
        let mut log = TxLog::default();
        // Grow past the linear-scan threshold: lookups must answer
        // identically on both sides of the crossing, and replacement
        // must hit the buffered entry wherever it lives.
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(val_of(&log, v), None, "{i} not yet buffered");
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(i));
            assert_eq!(val_of(&log, v), Some(i), "{i} just buffered");
        }
        assert_eq!(
            val_of(&log, &vars[0]),
            Some(0),
            "pre-threshold entries survive indexing"
        );
        log.buffer_write(
            vars[3].id(),
            vars[3].as_dyn(),
            WriteNode::versioned(333usize),
        );
        log.buffer_write(
            vars[WRITE_INDEX_THRESHOLD + 5].id(),
            vars[WRITE_INDEX_THRESHOLD + 5].as_dyn(),
            WriteNode::versioned(555usize),
        );
        assert_eq!(
            val_of(&log, &vars[3]),
            Some(333),
            "indexed replace, linear-era entry"
        );
        assert_eq!(val_of(&log, &vars[WRITE_INDEX_THRESHOLD + 5]), Some(555));
        assert_eq!(log.writes.len(), vars.len(), "replacements never duplicate");
        // Shrink below the threshold (an aborted attempt resets the log)
        // and regrow across it with different keys: the rebuilt index
        // must match the vector exactly, with no ghosts of the old era.
        log.reset();
        assert_eq!(val_of(&log, &vars[3]), None, "reset empties the set");
        for (i, v) in vars.iter().enumerate().skip(2) {
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(10 * i));
        }
        assert_eq!(val_of(&log, &vars[0]), None, "pre-reset key stays gone");
        assert_eq!(val_of(&log, &vars[2]), Some(20));
        assert_eq!(
            val_of(&log, vars.last().expect("nonempty")),
            Some(10 * (vars.len() - 1))
        );
        assert_eq!(log.writes.len(), vars.len() - 2);
    }

    #[test]
    fn rollback_restores_pre_checkpoint_writes() {
        let mut log = TxLog::default();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(10u64));
        log.checkpoint();
        // Replace a pre-frame entry and create a new one inside the frame.
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(11u64));
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(12u64));
        log.buffer_write(b.id(), b.as_dyn(), WriteNode::versioned(20u64));
        log.rollback_to_checkpoint();
        assert_eq!(log.writes.len(), 1);
        let w = log.lookup_write(a.id()).expect("kept");
        assert_eq!(*w.node.value::<u64>(), 10);
        assert!(log.lookup_write(b.id()).is_none());
    }

    #[test]
    fn commit_checkpoint_keeps_branch_writes() {
        let mut log = TxLog::default();
        let a = TVar::new(1u64);
        log.checkpoint();
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(5u64));
        log.commit_checkpoint();
        let w = log.lookup_write(a.id()).expect("kept");
        assert_eq!(*w.node.value::<u64>(), 5);
    }

    #[test]
    fn nested_frames_roll_back_independently() {
        let mut log = TxLog::default();
        let a = TVar::new(0u64);
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(1u64));
        log.checkpoint(); // outer
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(2u64));
        log.checkpoint(); // inner
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(3u64));
        log.rollback_to_checkpoint(); // undo inner
        let val = |log: &TxLog| {
            *log.lookup_write(a.id())
                .expect("buffered")
                .node
                .value::<u64>()
        };
        assert_eq!(val(&log), 2);
        log.rollback_to_checkpoint(); // undo outer
        assert_eq!(val(&log), 1);
    }

    #[test]
    fn rollback_prunes_the_write_index_past_the_threshold() {
        // Entries dropped by a rollback must disappear from the hash
        // index too, or a later lookup would resurrect a ghost.
        let vars: Vec<TVar<usize>> = (0..(WRITE_INDEX_THRESHOLD + 10)).map(TVar::new).collect();
        let mut log = TxLog::default();
        for (i, v) in vars.iter().take(WRITE_INDEX_THRESHOLD).enumerate() {
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(i));
        }
        log.checkpoint();
        for (i, v) in vars.iter().enumerate().skip(WRITE_INDEX_THRESHOLD) {
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(i));
        }
        assert!(log.writes.len() > WRITE_INDEX_THRESHOLD);
        log.rollback_to_checkpoint();
        assert_eq!(log.writes.len(), WRITE_INDEX_THRESHOLD);
        assert!(log
            .lookup_write(vars[WRITE_INDEX_THRESHOLD + 2].id())
            .is_none());
        // Regrow across the threshold: the rebuilt index must be exact.
        for (i, v) in vars.iter().enumerate().skip(WRITE_INDEX_THRESHOLD) {
            log.buffer_write(v.id(), v.as_dyn(), WriteNode::versioned(100 + i));
        }
        let w = log
            .lookup_write(vars[WRITE_INDEX_THRESHOLD + 2].id())
            .expect("rebuffered");
        assert_eq!(*w.node.value::<usize>(), 100 + WRITE_INDEX_THRESHOLD + 2);
    }

    #[test]
    fn publish_writes_installs_values_and_drains() {
        let mut log = TxLog::default();
        let a = TVar::new(1u64);
        let b = TVar::new(String::from("old"));
        log.buffer_write(a.id(), a.as_dyn(), WriteNode::versioned(7u64));
        log.buffer_write(
            b.id(),
            b.as_dyn(),
            WriteNode::versioned(String::from("new")),
        );
        log.publish_writes();
        assert_eq!(log.retired.len(), 2);
        assert!(log.writes.is_empty());
        assert_eq!(a.load(), 7);
        assert_eq!(b.load(), "new");
        epoch::retire_batch(&mut log.retired);
        assert!(log.retired.is_empty(), "retiring drains the buffer");
    }
}
