//! The commit pipeline: every commit is a *prepare* half (acquire the
//! commit locks, validate — everything that can fail) followed by a
//! *publish* half (write back and release — infallible). The attempt
//! loop's one-shot commit runs the two back to back
//! ([`Transaction::prepare`] then [`Transaction::publish`]); the
//! two-phase surface ([`Transaction::prepare_commit`]) hands the window
//! in between to a coordinator, which can hold several instances'
//! prepares open and publish them together. Both go through the same
//! two per-algorithm dispatches below — there is no second commit path
//! — and every outcome, one-shot or two-phase, ends in the one resolve
//! point ([`Transaction::committed`] / [`Transaction::aborted`]).
//!
//! This is what makes a **cross-instance atomic commit** possible: each
//! [`Stm`] keeps its own orec table, and a coordinator that prepares
//! every instance before publishing any reuses each algorithm's
//! single-instance commit protocol unchanged — the stripe locks (or
//! NOrec's sequence lock) a prepare acquires are exactly the locks the
//! one-shot commit would have held across its own publish, just held a
//! little longer. Instances that serve snapshots may also share one
//! **timestamp domain** — one clock, one snapshot registry
//! ([`StmBuilder::build_beside`](crate::StmBuilder::build_beside)) —
//! and then a coordinator reads them at one snapshot
//! ([`Transaction::beside`]) and publishes them at one tick
//! ([`Transaction::commit_prepared_all`]); every other instance keeps
//! its own clock.
//!
//! ## Why a multi-instance commit is never observed torn
//!
//! **In one timestamp domain** (Mv, Adaptive) a cut is a timestamp. A
//! group publishes at one tick `wv`, drawn after it appended on every
//! participant: a reader whose `rv >= wv` loaded the clock after that
//! draw, which synchronizes with it, so it finds every participant's
//! new version (pending until stamped, and then stamped `wv`); a reader
//! with `rv < wv` skips them all. A group of siblings reads every
//! instance at one `rv`, so a read-only group is one cut at one
//! timestamp and prepares without revalidating, as a lone read-only
//! attempt commits. A Tl2-hook read of an adaptive instance sees the
//! same cut: a stripe the group still holds, or stamped past `rv`,
//! aborts it.
//!
//! **Across separate clocks** an updating coordinator holds **every**
//! instance's commit locks from before its first publish until after
//! that instance's own publish. A reader that could observe instance
//! *i* post-publish and instance *j* pre-publish must therefore get its
//! reads of *j* past metadata the coordinator still owns:
//!
//! * **Tl2 / Incremental** — the *j*-stripes are either still locked
//!   (read/validation fails on the lock bit) or already restamped past
//!   the reader's snapshot (version check fails). A reader that
//!   validates *every* instance after reading all of them — which is
//!   exactly what a read-only [`prepare_commit`] does — cannot pass
//!   both checks on a torn cut. (Mv and Adaptive instances in separate
//!   domains prepare the same way.)
//! * **NOrec** — the *j*-instance's sequence lock is odd (held) until
//!   its publish, so value validation spins until the publish lands
//!   and then sees the changed values.
//! * **Tlrw** — visible read locks exclude the coordinator's prepare
//!   physically: a reader holding any conflicting stripe's read lock
//!   blocks the whole multi-instance commit from reaching its first
//!   publish, so there is no window to tear.
//!
//! Deadlock freedom is the coordinator's obligation: prepare instances
//! in one global order (`ptm-server` uses ascending shard index). The
//! stripe-locking prepares are try-lock fail-fast — they never wait —
//! and NOrec's sequence-lock spin only waits on a holder that either
//! publishes promptly or aborts; with one prepare order there is no
//! cycle to wait on.
//!
//! [`prepare_commit`]: Transaction::prepare_commit

use super::{Retry, Stm, Transaction};
use crate::algo::{mv, norec, tlrw, versioned, Hooks};
use ptm_sim::{TOpDesc, TOpResult};

/// A successfully prepared commit: locks held, validation passed, nothing
/// published. Consume it with [`Transaction::commit_prepared`] (publish)
/// or [`Transaction::abort_prepared`] (undo); dropping it without either
/// **leaks the held commit locks** and will wedge the instance — the
/// type is `#[must_use]` to make that hard to do by accident.
#[must_use = "a prepared commit holds the instance's commit locks; publish or abort it"]
#[derive(Debug)]
pub struct Prepared {
    plan: Plan,
    /// Identity of the instance that prepared this commit, for the
    /// debug-mode guard against crossing `Prepared` tokens between
    /// shards. Never dereferenced.
    stm: *const Stm,
}

/// What the publish/abort half must do, per algorithm family. The locks
/// a plan stands for live in the attempt's own log
/// (`TxLog::{stripe_buf, held_buf}`, filled by the prepare half), so a
/// commit allocates nothing to carry them from prepare to publish.
#[derive(Debug, Clone, Copy)]
pub(super) enum Plan {
    /// No writes: the attempt is already serialized (at its last
    /// validation, under its held read locks, or at its snapshot time);
    /// nothing is locked and nothing needs publishing.
    ReadOnly,
    /// Versioned stripe locks held on an instance that serves no
    /// snapshots (static Tl2/Incremental); publishes by swapping values.
    Swap,
    /// Versioned stripe locks held on an instance that serves snapshots
    /// (Mv, Adaptive); publishes by appending versions.
    Append,
    /// Tlrw write locks held.
    Tlrw,
    /// The instance's sequence lock is held (clock parked at the odd
    /// `rv + 1`).
    Norec,
}

impl Stm {
    /// Begins a transaction whose attempts the *caller* drives —
    /// the manual counterpart of [`Stm::atomically`], for coordinators
    /// that need to hold the commit open across instances (see
    /// [`Transaction::prepare_commit`]).
    ///
    /// The caller owns the outcome: finish with
    /// [`Transaction::prepare_commit`] +
    /// [`Transaction::commit_prepared`] / [`Transaction::abort_prepared`],
    /// or discard with [`Transaction::rollback`]. There is no automatic
    /// retry — on [`Retry`] build a fresh transaction and re-run the
    /// reads/writes.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    ///
    /// let stm = Stm::tl2();
    /// let v = TVar::new(1u64);
    /// let mut tx = stm.transaction();
    /// let seen = tx.read(&v).unwrap();
    /// tx.write(&v, seen + 1).unwrap();
    /// let prepared = tx.prepare_commit().unwrap();
    /// tx.commit_prepared(prepared);
    /// assert_eq!(v.load(), 2);
    /// ```
    pub fn transaction(&self) -> Transaction<'_> {
        Transaction::begin(self)
    }
}

impl Transaction<'_> {
    /// First commit half: acquire this attempt's commit locks and
    /// validate its read set, publishing nothing. On `Ok` the attempt
    /// holds whatever its algorithm's commit holds across the write back
    /// (write-stripe locks, the sequence lock, Tlrw's still-held read
    /// locks) and *cannot fail anymore* — the returned [`Prepared`]
    /// must be resolved promptly with [`Transaction::commit_prepared`]
    /// or [`Transaction::abort_prepared`], since other transactions
    /// conflict against the held locks in the meantime.
    ///
    /// A read-only attempt acquires nothing but **revalidates its whole
    /// read set** (where the algorithm has anything to validate) — that
    /// re-check at prepare time is what lets a coordinator rule out torn
    /// cuts across instances (see the module docs). The exception is a
    /// sibling group ([`Transaction::beside`]) none of whose members
    /// wrote: it read one cut at one timestamp, and revalidates nothing.
    ///
    /// # Errors
    ///
    /// [`Retry`] if the locks could not be acquired or validation found
    /// a conflicting commit. The attempt is poisoned and its acquired
    /// locks are already rolled back; drop it or [`Transaction::rollback`]
    /// it and start over.
    pub fn prepare_commit(&mut self) -> Result<Prepared, Retry> {
        // An attempt that was already doomed failed (and was counted)
        // at the operation that doomed it, not here.
        if self.poisoned {
            return Err(Retry);
        }
        match self.prepare(true) {
            Some(plan) => Ok(Prepared {
                plan,
                stm: self.stm as *const Stm,
            }),
            None => {
                self.aborted();
                Err(Retry)
            }
        }
    }

    /// The prepare half of every commit, one-shot or two-phase: opens
    /// the `tryC` history marker and runs the algorithm's prepare hook.
    /// `None` means the attempt aborted — every acquired commit lock is
    /// rolled back, the marker is closed aborted, and the attempt is
    /// poisoned; the caller resolves it ([`Transaction::aborted`]).
    ///
    /// A read-only attempt is already serialized (see
    /// [`Plan::ReadOnly`]) and prepares trivially, unless `revalidate`
    /// asks for the read-set re-check a cross-instance coordinator
    /// needs.
    pub(super) fn prepare(&mut self, revalidate: bool) -> Option<Plan> {
        if self.poisoned {
            return None;
        }
        // Marker first: an attempt whose first operation is its commit
        // samples its snapshot inside the `tryC` interval (see
        // `ensure_started`).
        self.rec_invoke(TOpDesc::TryCommit);
        self.ensure_started();
        let read_only = self.log.writes.is_empty();
        // A sibling group no member of which wrote read one cut at one
        // `rv` of one clock: already serialized, like a lone attempt.
        let one_cut = self.group.as_ref().is_some_and(|wrote| !wrote.get());
        if read_only && (!revalidate || one_cut) {
            return Some(Plan::ReadOnly);
        }
        // With an empty write set each hook locks nothing and only
        // revalidates the read set.
        let (ok, plan) = match self.mode {
            // The read hooks are the attempt's, the publish is the
            // instance's: one that serves snapshots (it carries the
            // registry) appends every commit, so its Tl2-hook and Mv-hook
            // attempts serialize by timestamp (see `algo::adaptive`).
            Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => {
                let plan = if self.stm.snapshots.is_some() {
                    Plan::Append
                } else {
                    Plan::Swap
                };
                (versioned::prepare(self), plan)
            }
            Hooks::Tlrw => (tlrw::prepare(self), Plan::Tlrw),
            Hooks::Norec => (norec::prepare(self), Plan::Norec),
        };
        if !ok {
            self.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
            self.poisoned = true;
            return None;
        }
        Some(if read_only { Plan::ReadOnly } else { plan })
    }

    /// The publish half of every commit: write the buffered values back
    /// under the locks `plan` holds, close the `tryC` marker committed,
    /// and resolve the attempt ([`Transaction::committed`], which
    /// releases the read locks visible-read algorithms hold until the
    /// outcome is decided). Infallible.
    pub(super) fn publish(&mut self, plan: Plan) {
        match plan {
            Plan::ReadOnly => {}
            Plan::Swap => versioned::publish(self),
            Plan::Append => mv::publish(self),
            Plan::Tlrw => tlrw::publish(self),
            Plan::Norec => norec::publish(self),
        }
        self.rec_respond(TOpDesc::TryCommit, TOpResult::Committed);
        self.committed();
    }

    /// Second commit half: publish the write set under the locks
    /// `prepared` holds, release everything, and retire the transaction
    /// as committed. Infallible — [`Transaction::prepare_commit`]
    /// already decided the outcome.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `prepared` came from a different [`Stm`]
    /// instance's transaction.
    pub fn commit_prepared(mut self, prepared: Prepared) {
        debug_assert!(
            std::ptr::eq(prepared.stm, self.stm),
            "Prepared token crossed between Stm instances"
        );
        self.publish(prepared.plan);
    }

    /// Publishes a coordinator's prepared participants together, then
    /// retires each as committed. When every participant shares one
    /// timestamp domain ([`Transaction::beside`]) and every plan is
    /// read-only or appending (Mv, Adaptive), the group publishes at
    /// **one** clock tick: it appends on every participant, draws one
    /// `fetch_add`, withdraws every participant's snapshot, then
    /// stamps, trims and releases each — so a snapshot reader sees all
    /// of the group's writes or none. Any other group publishes part by
    /// part, as [`Transaction::commit_prepared`] would. Infallible.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a [`Prepared`] came from a different
    /// [`Stm`] instance's transaction than the one it is paired with.
    pub fn commit_prepared_all(mut parts: Vec<(Transaction<'_>, Prepared)>) {
        let one_tick = parts.first().is_some_and(|(first, _)| {
            parts.iter().all(|(tx, p)| {
                matches!(p.plan, Plan::ReadOnly | Plan::Append) && first.stm.shares_domain(tx.stm)
            })
        });
        if !one_tick {
            for (tx, p) in parts {
                tx.commit_prepared(p);
            }
            return;
        }
        let appending = |p: &Prepared| matches!(p.plan, Plan::Append);
        for (tx, p) in &mut parts {
            debug_assert!(
                std::ptr::eq(p.stm, tx.stm),
                "Prepared token crossed between Stm instances"
            );
            if appending(p) {
                mv::append(tx);
            }
        }
        if let Some((tx, _)) = parts.iter().find(|(_, p)| appending(p)) {
            let wv = mv::draw(tx.stm);
            // Every participant's snapshot goes before the first trim,
            // or a sibling's nested pin would keep the superseded
            // versions the trim could otherwise take.
            for (tx, _) in &mut parts {
                tx.snap = None;
            }
            for (tx, p) in &mut parts {
                if appending(p) {
                    mv::finish(tx, wv);
                }
            }
        }
        // The writes are out: what is left of each publish is the
        // read-only plan's — close the marker and resolve.
        for (mut tx, _) in parts {
            tx.publish(Plan::ReadOnly);
        }
    }

    /// Abandons a prepared commit: every lock `prepared` holds is
    /// released to its pre-prepare state — other transactions observe
    /// nothing — and the attempt retires as aborted. A coordinator calls
    /// this on instances that prepared successfully when a later
    /// instance's prepare failed.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `prepared` came from a different [`Stm`]
    /// instance's transaction.
    pub fn abort_prepared(mut self, prepared: Prepared) {
        debug_assert!(
            std::ptr::eq(prepared.stm, self.stm),
            "Prepared token crossed between Stm instances"
        );
        match prepared.plan {
            Plan::ReadOnly => {}
            Plan::Swap | Plan::Append => versioned::rollback(&mut self),
            Plan::Tlrw => tlrw::rollback(&mut self),
            Plan::Norec => norec::release_seqlock(&self),
        }
        self.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
        self.aborted();
    }

    /// Abandons an unprepared transaction: nothing was published, so
    /// this only closes the attempt (read locks released, history marker
    /// closed aborted, abort counted). Equivalent to dropping it, plus
    /// the bookkeeping the attempt loop would have done; after a failed
    /// [`Transaction::prepare_commit`], which already resolved the
    /// attempt, it counts nothing a second time.
    pub fn rollback(mut self) {
        self.aborted();
    }
}
