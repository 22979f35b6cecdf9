//! [`Transaction`]: the per-attempt state machine — operations,
//! poisoning, history-marker placement, epoch pinning, and the one
//! resolve point ([`Transaction::committed`] / [`Transaction::aborted`])
//! every way an attempt can end goes through.

use super::{Retry, Stm};
use crate::algo::{self, adaptive, versioned, Hooks};
use crate::epoch;
use crate::orec;
use crate::recorder::{word_of, HistoryRecorder, RecTx};
use crate::stats::OpTally;
use crate::tvar::{TVar, TxValue, WriteNode};
use crate::txlog::LogLoan;
use crate::waiter::footprint;
use crate::wal::DurableTicket;
use ptm_sim::{TOpDesc, TOpResult};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// An in-flight transaction; created by [`Stm::atomically`].
pub struct Transaction<'s> {
    pub(crate) stm: &'s Stm,
    /// Snapshot time (TL2/Mv: clock at begin; NOrec: sequence-lock
    /// value; Incremental/Tlrw: unused). The NOrec read path advances it.
    pub(crate) rv: u64,
    started: bool,
    /// Set when an operation returned [`Retry`]: the attempt is doomed
    /// (and t-complete in any recorded history), so every later operation
    /// short-circuits to `Retry` and commit refuses. User code that
    /// swallows a `Retry` instead of propagating it therefore cannot
    /// commit an attempt the engine already aborted. (`pub(super)` so the
    /// group commit can refuse a doomed attempt and doom one whose
    /// commit failed.)
    pub(super) poisoned: bool,
    /// Set by [`Transaction::retry`]: the attempt aborted because the
    /// *data* said wait, not because a conflict said hurry. The attempt
    /// loop parks such attempts on the waiter list, with their read
    /// footprint, instead of running the retry schedule (a logical wait is
    /// not contention — it must not consume backoff or attempt budget).
    pub(super) waiting: bool,
    /// Set by the resolve point: the attempt's outcome is counted and
    /// everything it held is released, so `Drop` has nothing left to do
    /// and a second resolution counts nothing twice.
    resolved: bool,
    /// Read set, write set and commit scratch, on loan from this
    /// thread's pool: the loan's own `Drop` resets the log and hands it
    /// back, and — being a field — runs after `Transaction::drop` has
    /// released whatever an unresolved attempt still held (read locks
    /// first, reset second; see [`LogLoan`]).
    pub(crate) log: LogLoan,
    /// The hook set this attempt runs ([`Stm::hooks`]: the instance's
    /// algorithm, or an adaptive instance's live mode when the attempt
    /// began), so the per-operation dispatch costs one match. A switch
    /// mid-flight leaves it be: every commit of an adaptive instance
    /// publishes the same way, whichever hooks read (see
    /// `algo::adaptive`).
    pub(crate) mode: Hooks,
    /// The published snapshot slot of an Mv-hook attempt: keeps
    /// the low-watermark collector from trimming versions this
    /// transaction's snapshot can still reach. Withdrawn when the attempt
    /// resolves.
    pub(crate) snap: Option<epoch::SnapshotGuard<'s>>,
    /// History-recording state for this attempt, when the instance has a
    /// recorder attached.
    rec: Option<RecTx>,
    /// Per-attempt operation counters (plain, non-atomic): bumped on the
    /// hot path, folded into the instance's sharded [`StmStats`] exactly
    /// once when this attempt resolves ([`Transaction::committed`] /
    /// [`Transaction::aborted`]) — so a t-read costs zero shared RMWs of
    /// instrumentation.
    ///
    /// [`StmStats`]: crate::stats::StmStats
    pub(crate) tally: OpTally,
    /// The durability payload staged by [`Transaction::stage_durable`]
    /// and the ticket its LSN is delivered through; consumed by the
    /// publish critical section via [`Transaction::durability_record`].
    /// `None` on instances without a durability hook and on attempts
    /// that staged nothing.
    staged: Option<(Arc<[u8]>, DurableTicket)>,
    /// Epoch pin: keeps every pointer this transaction may dereference
    /// alive for its whole lifetime (also makes `Transaction: !Send`).
    pub(crate) pin: epoch::Guard,
}

impl Drop for Transaction<'_> {
    /// Last resort for an attempt that never reached the resolve point —
    /// a panicking body, a manual [`Stm::transaction`] the caller simply
    /// dropped: it must not leave reader counts behind (a leaked read
    /// lock would starve every later writer on the stripe). Such an
    /// attempt has no outcome to count. (The log goes back to the
    /// thread's pool right after, when the `log` field drops.)
    fn drop(&mut self) {
        if !self.resolved {
            self.release();
        }
    }
}

impl fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("rv", &self.rv)
            .field("poisoned", &self.poisoned)
            .field("log", &*self.log)
            .finish()
    }
}

impl<'s> Transaction<'s> {
    pub(super) fn begin(stm: &'s Stm) -> Self {
        Transaction {
            stm,
            rv: 0,
            started: false,
            poisoned: false,
            waiting: false,
            resolved: false,
            log: LogLoan::take(),
            mode: stm.hooks(),
            snap: None,
            rec: stm.recorder.as_ref().map(HistoryRecorder::begin_tx),
            tally: OpTally::default(),
            staged: None,
            pin: epoch::pin(),
        }
    }

    /// Opens a transaction on `other` that reads at this transaction's
    /// snapshot: a *sibling*. When `other` shares this instance's
    /// timestamp domain ([`StmBuilder::build_beside`]), the sibling
    /// takes this attempt's `rv` and read hooks — drawing the snapshot
    /// here first if no operation has yet — and pins it as a nested pin
    /// of the shared snapshot registry, which costs no shared write. Its
    /// reads and this attempt's then form one cut: a read-only group
    /// commits without locking or validating, as does any group that
    /// wrote nothing and read at one `rv` of one domain, and an updating
    /// group publishes each domain at one clock tick through
    /// [`Transaction::commit_all`]. Otherwise the sibling is an ordinary
    /// [`Stm::transaction`] on `other`, which the group commit locks and
    /// validates as any participant.
    ///
    /// A sibling's snapshot is its opener's, so it predates the
    /// sibling's first recorded history marker: histories recorded
    /// across instances are not yet checked for opacity.
    ///
    /// [`StmBuilder::build_beside`]: crate::StmBuilder::build_beside
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Algorithm, Stm, TVar, Transaction};
    ///
    /// let (a, b) = (TVar::new(1u64), TVar::new(2u64));
    /// let first = Stm::mv();
    /// let second = Stm::builder(Algorithm::Mv).build_beside(&first);
    /// let mut tx = first.transaction();
    /// let x = tx.read(&a).unwrap();
    /// let mut sibling = tx.beside(&second);
    /// sibling.write(&b, x + 10).unwrap();
    /// Transaction::commit_all(vec![tx, sibling], |_| {}).unwrap();
    /// assert_eq!(b.load(), 11);
    /// ```
    pub fn beside<'o>(&mut self, other: &'o Stm) -> Transaction<'o> {
        let mut sibling = Transaction::begin(other);
        if !self.stm.shares_domain(other) {
            return sibling;
        }
        debug_assert!(!self.resolved, "a sibling needs a live opener");
        self.ensure_started();
        sibling.rv = self.rv;
        sibling.mode = self.mode;
        sibling.started = true;
        if self.mode == Hooks::Mv {
            let reg = other
                .snapshots
                .as_ref()
                .expect("instances of one domain share its snapshot registry");
            sibling.snap = Some(reg.nest());
        }
        sibling
    }

    /// Lazily samples the snapshot time at the first operation.
    ///
    /// Call it *after* recording the operation's invocation marker:
    /// opacity's real-time order is judged on the recorded markers, so
    /// the sample must fall inside the attempt's recorded interval. Drawn
    /// before the attempt's first marker, a commit landing between the
    /// two is real-time-before this attempt in the history yet invisible
    /// to its snapshot — and Mv, which returns the superseded value
    /// instead of aborting, turns that into a recorded opacity violation
    /// the engine never committed.
    pub(super) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        algo::begin(self);
        self.started = true;
    }

    /// Records an invocation marker (no-op without a recorder).
    pub(super) fn rec_invoke(&mut self, op: TOpDesc) {
        if let Some(rec) = self.rec.as_mut() {
            rec.invoke(op);
            self.tally.recorded(1);
        }
    }

    /// Records a response marker (no-op without a recorder).
    pub(super) fn rec_respond(&mut self, op: TOpDesc, res: TOpResult) {
        if let Some(rec) = self.rec.as_mut() {
            rec.respond(op, res);
            self.tally.recorded(1);
        }
    }

    /// Releases, in place, everything an attempt holds that must not
    /// outlive it, and flushes its operation tallies.
    fn release(&mut self) {
        // Visible-read locks (none under the invisible-read algorithms,
        // whose `rw_reads` stays empty). Arithmetic release: transient
        // foreign increments survive.
        for stripe in self.log.rw_drain() {
            self.stm
                .orecs
                .word(stripe)
                .fetch_sub(orec::RW_READER, Ordering::AcqRel);
        }
        self.snap = None;
        self.stm.stats.flush(&self.tally);
        self.resolved = true;
    }

    /// The resolve point, commit side: every committed attempt, lone or
    /// in a group, arrives here from the one commit body
    /// (`twophase::resolve`).
    ///
    /// One order, here and in [`Transaction::aborted`]: release what the
    /// attempt holds (flushing its tallies), *then* count the outcome,
    /// *then* run the adaptive hook — so a stats sample taken at the
    /// count includes this attempt's operations. `&mut self`, released
    /// in place: moving the attempt state into a consuming resolver
    /// measured +20 ns on every commit.
    pub(super) fn committed(&mut self) {
        self.release();
        self.stm.stats.commit();
        adaptive::after_commit(self);
    }

    /// The resolve point, abort side: a failed body or commit in the
    /// attempt loop, a failed [`Transaction::commit_all`],
    /// [`Transaction::rollback`]. An abort's *cause* belongs here.
    ///
    /// Closes the recorded history first if the attempt left it open: a
    /// user body that returned its own error never reaches commit, but
    /// the history needs every transaction t-complete (`tryC -> A_k`)
    /// before its process starts the next one. Idempotent: a resolved
    /// attempt counts nothing twice.
    pub(super) fn aborted(&mut self) {
        if self.resolved {
            return;
        }
        if self.rec.as_ref().is_some_and(RecTx::needs_close) {
            self.rec_invoke(TOpDesc::TryCommit);
            self.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
        }
        self.release();
        self.stm.stats.abort();
    }

    /// Reads a variable, returning a clone of its value:
    /// [`read_with`](Self::read_with)`(var, T::clone)`.
    ///
    /// # Errors
    ///
    /// [`Retry`] if a concurrent commit made a consistent snapshot
    /// impossible, or if this attempt already returned [`Retry`] once;
    /// propagate it with `?`.
    pub fn read<T: TxValue>(&mut self, var: &TVar<T>) -> Result<T, Retry> {
        self.read_with(var, T::clone)
    }

    /// Reads a variable **in place**: applies `f` to the value where it
    /// lives — the version node, or this attempt's own buffered write —
    /// and returns what `f` made of it. Nothing is cloned unless `f`
    /// clones it, so looking one entry up in a `TVar<Vec<_>>`, or testing
    /// an `Option<Arc<_>>` for `None`, costs no allocation and no
    /// reference-count traffic. It is *the* read path: the probes, the
    /// read-set entry and the recorded history are exactly
    /// [`read`](Self::read)'s, which is this with `T::clone`.
    ///
    /// `R` cannot borrow from the value (the signature forbids it): the
    /// node is only guaranteed alive, and only known consistent, while
    /// the read is in progress.
    ///
    /// `f` runs *inside* the algorithm's read window — between Tl2's and
    /// Incremental's orec check and re-check, under Tlrw's read lock, on
    /// Mv's chain node — so keep it short, and as tolerant of being run
    /// for nothing as the transaction body itself: when the re-check
    /// fails the result is dropped and the read returns [`Retry`]. It
    /// must not touch the transaction (it cannot: `self` is borrowed).
    /// NOrec applies `f` to the value snapshot it keeps for validation.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read); a poisoned attempt returns [`Retry`]
    /// without calling `f`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::tl2();
    /// let names = TVar::new(vec!["ada".to_string(), "grace".to_string()]);
    /// // One length and one flag: the strings are never cloned.
    /// let (n, has_ada) = stm.atomically(|tx| {
    ///     tx.read_with(&names, |v| (v.len(), v.iter().any(|s| s == "ada")))
    /// });
    /// assert_eq!((n, has_ada), (2, true));
    /// ```
    pub fn read_with<T: TxValue, R>(
        &mut self,
        var: &TVar<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, Retry> {
        if self.poisoned {
            return Err(Retry);
        }
        self.tally.read();
        let op = self.rec.as_ref().map(|r| TOpDesc::Read(r.object_of(var)));
        if let Some(op) = op {
            self.rec_invoke(op);
        }
        // After the invocation marker (see `ensure_started`).
        self.ensure_started();
        // The recorded response carries the word of the *whole* value —
        // what the history checker compares against writes — never of
        // `f`'s projection, so it is taken inside the same closure.
        match self.read_raw(var, |v| (op.map(|_| word_of(v)), f(v))) {
            Ok((word, out)) => {
                if let Some((op, word)) = op.zip(word) {
                    self.rec_respond(op, TOpResult::Value(word));
                }
                Ok(out)
            }
            Err(Retry) => {
                if let Some(op) = op {
                    self.rec_respond(op, TOpResult::Aborted);
                }
                self.poisoned = true;
                Err(Retry)
            }
        }
    }

    /// Reads every variable of `vars`, in order, applying `f` to each
    /// value in place: exactly `for v in vars { self.read_with(v, &mut f)? }`
    /// — the same values, read-set entries, recorded history markers,
    /// tallies and poisoning. It is how a whole-structure scan reads. On
    /// an attempt that records no history and has buffered no write,
    /// under every algorithm, the engine's per-read checks (poisoned,
    /// recorder, snapshot start, own-write lookup) run once per call and
    /// the scan is one loop of the read hook, each variable costing its
    /// read tally and the hook's read; an attempt that records or wrote
    /// runs the loop above.
    ///
    /// `f` runs inside each variable's read window, as
    /// [`read_with`](Self::read_with)'s closure does, and may have run on
    /// a prefix of `vars` when the call returns [`Retry`]: whatever it
    /// gathered is then to be discarded.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read), at the first variable whose read fails;
    /// a poisoned attempt returns [`Retry`] without calling `f`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::mv();
    /// let slots: Vec<TVar<u64>> = (1..=4).map(TVar::new).collect();
    /// let total = stm.atomically(|tx| {
    ///     let mut sum = 0;
    ///     tx.read_each(&slots, |v| sum += v)?;
    ///     Ok(sum)
    /// });
    /// assert_eq!(total, 10);
    /// ```
    pub fn read_each<T: TxValue>(
        &mut self,
        vars: &[TVar<T>],
        mut f: impl FnMut(&T),
    ) -> Result<(), Retry> {
        // An empty batch, like an empty loop, neither checks nor starts
        // the attempt.
        if self.rec.is_some() || !self.log.writes.is_empty() || vars.is_empty() {
            for var in vars {
                self.read_with(var, &mut f)?;
            }
            return Ok(());
        }
        if self.poisoned {
            return Err(Retry);
        }
        self.ensure_started();
        for var in vars {
            self.tally.read();
            if algo::read_inline(self, var, &mut f).is_err() {
                self.poisoned = true;
                return Err(Retry);
            }
        }
        Ok(())
    }

    /// The algorithm-specific read path (the [`crate::algo`] read hook),
    /// without instrumentation: `f` on this attempt's own buffered value
    /// if it wrote `var`, on the shared one otherwise.
    fn read_raw<T: TxValue, R>(
        &mut self,
        var: &TVar<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, Retry> {
        if let Some(w) = self.log.lookup_write(var.id()) {
            return Ok(f(w.node.value::<T>()));
        }
        algo::read(self, var, f)
    }

    /// Reads, applies `f`, and writes back — the read-modify-write
    /// shorthand.
    ///
    /// # Errors
    ///
    /// [`Retry`] if the underlying read conflicts.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::tl2();
    /// let v = TVar::new(10u64);
    /// stm.atomically(|tx| tx.modify(&v, |x| x * 2));
    /// assert_eq!(v.load(), 20);
    /// ```
    pub fn modify<T: TxValue>(
        &mut self,
        var: &TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<(), Retry> {
        let v = self.read(var)?;
        self.write(var, f(v))
    }

    /// Buffers a write; visible to this transaction's later reads and
    /// published at commit.
    ///
    /// # Errors
    ///
    /// [`Retry`] if this attempt already returned [`Retry`] once
    /// (buffering itself never conflicts).
    pub fn write<T: TxValue>(&mut self, var: &TVar<T>, value: T) -> Result<(), Retry> {
        if self.poisoned {
            return Err(Retry);
        }
        self.tally.write();
        let op = self
            .rec
            .as_ref()
            .map(|r| TOpDesc::Write(r.object_of(var), word_of(&value)));
        if let Some(op) = op {
            self.rec_invoke(op);
        }
        // After the invocation marker (see `ensure_started`).
        self.ensure_started();
        // Boxed once, as the node the commit will publish: a bare value
        // where the instance swaps, a versioned node where it appends.
        let node = if self.stm.snapshots.is_some() {
            WriteNode::versioned(value)
        } else {
            WriteNode::bare(value)
        };
        self.log.buffer_write(var.id(), var.as_dyn(), node);
        if let Some(op) = op {
            self.rec_respond(op, TOpResult::Ok);
        }
        Ok(())
    }

    /// Stages the durability payload this attempt will log if it
    /// commits: the publish critical section appends `payload` to the
    /// instance's [`Wal`](crate::wal::Wal), stamped with the commit
    /// tick, and delivers the resulting LSN through `ticket` — the
    /// caller then makes the commit durable with
    /// [`Wal::wait_durable`](crate::wal::Wal::wait_durable) before
    /// acknowledging it.
    ///
    /// `Arc<[u8]>` so a retried transaction restages the same encoded
    /// bytes without re-encoding; staging again replaces the previous
    /// payload. No-op on instances without a durability hook, and on
    /// attempts that end up read-only or aborted (the ticket then stays
    /// unfilled).
    pub fn stage_durable(&mut self, payload: Arc<[u8]>, ticket: &DurableTicket) {
        if self.stm.durability.is_some() {
            self.staged = Some((payload, ticket.clone()));
        }
    }

    /// Whether a durability payload is staged — the algorithms whose
    /// commit path never draws a clock tick (Tlrw) consult this to draw
    /// one only when there is something to stamp.
    pub(crate) fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// The publish-side half of [`Transaction::stage_durable`]: logs the
    /// staged payload under `stamp` (the commit tick the algorithm just
    /// drew) and fills the ticket. Called by each algorithm's publish
    /// function *inside* the critical section, before the write set
    /// becomes reader-visible — the placement the log-order guarantee
    /// in [`crate::wal`] rests on. Memory-only (group commit fsyncs
    /// later), so the critical section stays I/O-free.
    pub(crate) fn durability_record(&mut self, stamp: u64) {
        if let Some((payload, ticket)) = self.staged.take() {
            let wal = self
                .stm
                .durability
                .as_ref()
                .expect("staged payload implies a durability hook");
            ticket.set(wal.append(stamp, 0, &payload));
        }
    }

    /// Abandons this attempt because the data is not ready: the engine
    /// blocks the thread until another transaction commits a write that
    /// overlaps this attempt's read set, then re-runs the body —
    /// Composable-Memory-Transactions-style `retry`.
    ///
    /// Unlike a conflict abort, a logical wait consumes no attempt
    /// budget and no retry-schedule backoff: the thread parks on the
    /// instance's waiter list with its read footprint until a commit
    /// writes a stripe of it (a safety-net timeout bounds the sleep even
    /// if no writer ever shows up). An attempt that retries before
    /// reading anything has an empty footprint and simply sleeps out the
    /// timeout.
    ///
    /// Returns [`Retry`] so it slots into any return position; the
    /// attempt is poisoned either way, so swallowing the error cannot
    /// commit the attempt.
    ///
    /// # Errors
    ///
    /// Always returns [`Retry`] — propagate it with `?` or return it.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    /// use std::thread;
    ///
    /// let stm = Stm::tl2();
    /// let inbox = TVar::new(None::<u64>);
    ///
    /// thread::scope(|s| {
    ///     s.spawn(|| {
    ///         // Blocks — without spinning — until the write below lands.
    ///         let got = stm.atomically(|tx| match tx.read(&inbox)? {
    ///             Some(v) => Ok(v),
    ///             None => tx.retry(),
    ///         });
    ///         assert_eq!(got, 7);
    ///     });
    ///     stm.atomically(|tx| tx.write(&inbox, Some(7)));
    /// });
    /// ```
    pub fn retry<A>(&mut self) -> Result<A, Retry> {
        if !self.poisoned {
            // No `ensure_started` here: a logical wait records no history
            // marker, so a snapshot drawn now could predate the attempt's
            // first recorded event if `or_else` revives it. An attempt
            // that waits before any operation parks on an empty footprint
            // (see `revalidate_for_park`).
            self.waiting = true;
            self.poisoned = true;
        }
        // An attempt that already conflicted stays a conflict: its read
        // set is broken, so parking on it would wait on garbage.
        Err(Retry)
    }

    /// Runs `first`; if it called [`Transaction::retry`], rolls its
    /// writes back and runs `second` instead — the Composable Memory
    /// Transactions `orElse` combinator.
    ///
    /// Only a *logical* retry falls through: a conflict abort in either
    /// branch aborts the whole attempt (the snapshot is broken, so no
    /// alternative can be trusted). If both branches retry, the attempt
    /// waits on the **union** of their read footprints — whichever side
    /// becomes ready first wakes it.
    ///
    /// Reads performed by `first` stay in the read set after the
    /// fallback (the branch decision depended on them); only its
    /// buffered writes are rolled back.
    ///
    /// # Errors
    ///
    /// [`Retry`] if both branches retried, either branch conflicted, or
    /// the attempt was already poisoned.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::tl2();
    /// let fast = TVar::new(None::<u64>);
    /// let slow = TVar::new(Some(9u64));
    ///
    /// let got = stm.atomically(|tx| {
    ///     tx.or_else(
    ///         |tx| match tx.read(&fast)? {
    ///             Some(v) => Ok(v),
    ///             None => tx.retry(),
    ///         },
    ///         |tx| match tx.read(&slow)? {
    ///             Some(v) => Ok(v),
    ///             None => tx.retry(),
    ///         },
    ///     )
    /// });
    /// assert_eq!(got, 9);
    /// ```
    pub fn or_else<A>(
        &mut self,
        first: impl FnOnce(&mut Self) -> Result<A, Retry>,
        second: impl FnOnce(&mut Self) -> Result<A, Retry>,
    ) -> Result<A, Retry> {
        if self.poisoned {
            return Err(Retry);
        }
        self.log.checkpoint();
        match first(self) {
            Ok(v) => {
                self.log.commit_checkpoint();
                Ok(v)
            }
            Err(Retry) if self.waiting => {
                // Un-poisoning is sound precisely because the poison came
                // from retry(): the snapshot is still consistent and the
                // logical wait recorded no history markers — the attempt
                // merely chose to wait, and now chooses the alternative.
                self.waiting = false;
                self.poisoned = false;
                self.log.rollback_to_checkpoint();
                self.log.checkpoint();
                let out = second(self);
                self.log.commit_checkpoint();
                out
            }
            Err(Retry) => {
                // Conflict: the attempt is dead whatever we do.
                self.log.commit_checkpoint();
                Err(Retry)
            }
        }
    }

    /// The footprint a logical wait parks with: that of its read
    /// stripes, which a commit must overwrite to ready it.
    pub(super) fn wait_footprint(&self) -> u64 {
        match self.mode {
            Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => {
                footprint(self.log.reads.iter().map(|r| r.stripe))
            }
            Hooks::Tlrw => footprint(self.log.rw_reads.iter().copied()),
            // NOrec has one conflict channel — the global sequence lock —
            // so every waiter waits on stripe 0 and every commit sweeps
            // it.
            Hooks::Norec => footprint([0]),
        }
    }

    /// Re-checks, after registering on the waiter list but before
    /// sleeping, that a logical wait still has something to wait for: no
    /// commit has already invalidated (= readied) its read set. Parking
    /// on a stale snapshot would sleep through a wake-up that already
    /// happened.
    ///
    /// Deliberately tallies no validation probes: a parked-idle instance
    /// must read as idle in the stats.
    pub(super) fn revalidate_for_park(&self) -> bool {
        match self.mode {
            Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => self.log.reads.iter().all(|r| {
                let word = self.stm.orecs.word(r.stripe).load(Ordering::Acquire);
                versioned::still_current(self.mode, word, r.meta)
            }),
            // An attempt that waits before its first operation never
            // sampled the sequence lock and has read nothing to go stale.
            Hooks::Norec => !self.started || self.stm.clock.load(Ordering::Acquire) == self.rv,
            // Visible reads still hold their stripe locks at this point
            // (the resolve point releases them *after* registration): no
            // writer can have committed past them, so the snapshot cannot
            // be stale.
            Hooks::Tlrw => true,
        }
    }
}
