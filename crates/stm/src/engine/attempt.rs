//! The attempt lifecycle, written once: begin → body → commit →
//! resolve → run again / wait / give up.
//!
//! [`Attempts::step`] runs exactly one attempt and says what the
//! transaction does next ([`Step`]); it owns the attempt budget, the
//! contention-manager consultation and the park protocol. The two
//! drivers — [`Stm::run`] and [`Stm::try_once`] — differ only in
//! *whether they wait* between steps: `run` blocks the thread,
//! `try_once` stops after one step.

use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::cm::Decision;
use crate::tvar::{TVar, TxValue};
use crate::waiter::{WaitCell, CONFLICT_PARK_TIMEOUT, RETRY_PARK_TIMEOUT};
use std::sync::Arc;

/// One logical transaction's run of attempts.
pub(super) struct Attempts<'s> {
    pub(super) stm: &'s Stm,
    /// Conflict aborts so far — what `max_attempts` and the contention
    /// manager count. Logical waits are not conflicts.
    pub(super) conflicts: u64,
}

/// What one attempt came to, and so what its driver does next.
pub(super) enum Step<A> {
    Committed(A),
    /// Run the body again: after the policy's [`wait`]`(n)` if this was
    /// the `n`-th consecutive conflict (`Some(n)`: the policy's `decide`
    /// said retry), at once otherwise (`None`: a park found its footprint
    /// already overwritten, or the driver may not park).
    ///
    /// [`wait`]: crate::ContentionManager::wait
    Again(Option<u64>),
    /// Registered on `stripes`' waiter lists, revalidated, resolved and
    /// counted: the only thing left is to sleep until `cell` is
    /// notified, then deregister. `conflict` tells a [`Decision::Park`]
    /// escalation — whose wake is only likely, the winner may have
    /// committed and gone — from a logical wait.
    Parked {
        cell: Arc<WaitCell>,
        stripes: Vec<usize>,
        conflict: bool,
    },
    /// `max_attempts` conflicts, or the policy gave up.
    Exhausted(RetriesExhausted),
}

impl<'s> Attempts<'s> {
    pub(super) fn new(stm: &'s Stm) -> Self {
        Attempts { stm, conflicts: 0 }
    }

    /// Runs `body` in one attempt and resolves it. `may_park` is the
    /// driver's answer to whether it can sleep: `run` parks the calling
    /// thread, `try_once` never parks.
    ///
    /// Generic over the body and inlined into each driver, so a first
    /// attempt that commits touches no cell, no stripe list, no policy.
    #[inline]
    pub(super) fn step<A>(
        &mut self,
        body: impl FnOnce(&mut Transaction<'s>) -> Result<A, Retry>,
        may_park: bool,
    ) -> Step<A> {
        let mut tx = Transaction::begin(self.stm);
        if let Ok(out) = body(&mut tx) {
            if let Some(plan) = tx.prepare(false) {
                tx.publish(plan);
                return Step::Committed(out);
            }
        }
        // A logical wait (`tx.retry()`) is not contention: no budget, no
        // contention manager — it parks on its read footprint and re-runs
        // when a writer overlaps it. A conflict spends budget and asks
        // the policy's non-blocking tier; the driver does whatever
        // waiting the answer implies after this attempt is resolved, so
        // backoff never holds visible-read locks other transactions are
        // trying to write through.
        let decision = if tx.waiting {
            Decision::Park
        } else {
            self.conflicts += 1;
            if self.conflicts >= self.stm.max_attempts {
                Decision::GiveUp
            } else {
                self.stm.cm.decide(self.conflicts - 1)
            }
        };
        let next = match decision {
            Decision::GiveUp => Step::Exhausted(RetriesExhausted {
                attempts: self.conflicts,
            }),
            Decision::Retry => Step::Again(Some(self.conflicts - 1)),
            Decision::Park if may_park => self.park(&tx, !tx.waiting),
            Decision::Park => Step::Again(None),
        };
        tx.aborted();
        next
    }

    /// The park protocol, up to the sleep. Ordering is the whole point —
    /// register, *then* revalidate, *then* (the driver) sleep: a writer
    /// that commits after registration finds the cell on the lists and
    /// notifies it; a writer that committed before registration shows up
    /// in the revalidation, which then skips the sleep. (The SeqCst
    /// fences pairing register's tail with `wake_stripes`' head close the
    /// remaining store-buffering window — see the proof in
    /// `crate::waiter`.) The caller resolves the attempt *after* this
    /// registration — Tlrw's still-held read locks are what order any
    /// conflicting commit after it — and *before* the driver sleeps, so
    /// a parked thread pins no epoch, holds no read lock, blocks no
    /// adaptive mode switch, and anchors no Mv snapshot.
    fn park<A>(&self, tx: &Transaction<'_>, conflict: bool) -> Step<A> {
        let cell = WaitCell::for_thread();
        // A conflict park waits on reads ∪ writes: the winner is as
        // likely to have beaten us on a write stripe.
        let stripes = tx.wait_stripes(conflict);
        let waiters = self.stm.orecs.waiters();
        waiters.register(&stripes, &cell);
        if tx.revalidate_for_park() {
            self.stm.stats.park();
            Step::Parked {
                cell,
                stripes,
                conflict,
            }
        } else {
            waiters.deregister(&stripes, &cell);
            Step::Again(None)
        }
    }
}

impl Stm {
    /// Runs `body` in a transaction, retrying on conflict until it
    /// commits, and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the retry budget runs out — `max_attempts` is reached
    /// (default: ten million) or the contention manager gives up. Use
    /// [`Stm::run`] to handle exhaustion as a value instead.
    pub fn atomically<A>(&self, body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>) -> A {
        match self.run(body) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `body` in a transaction, retrying on conflict, and reports
    /// retry-budget exhaustion as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RetriesExhausted`] if `max_attempts` attempts all aborted or the
    /// contention manager returned [`Decision::GiveUp`].
    pub fn run<A>(
        &self,
        mut body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Result<A, RetriesExhausted> {
        // The blocking driver: between steps it waits on this thread.
        let mut attempts = Attempts::new(self);
        loop {
            match attempts.step(&mut body, true) {
                Step::Committed(out) => return Ok(out),
                Step::Again(Some(n)) => self.cm.wait(n),
                Step::Again(None) => {}
                Step::Parked {
                    cell,
                    stripes,
                    conflict,
                } => {
                    // A conflict park's weaker wake guarantee gets the
                    // short safety net.
                    let timeout = if conflict {
                        CONFLICT_PARK_TIMEOUT
                    } else {
                        RETRY_PARK_TIMEOUT
                    };
                    if !cell.park(timeout) {
                        self.stats.spurious_wake();
                    }
                    self.orecs.waiters().deregister(&stripes, &cell);
                }
                Step::Exhausted(e) => return Err(e),
            }
        }
    }

    /// Runs `body` once, committing if it succeeds; returns `None` on
    /// conflict instead of retrying.
    pub fn try_once<A>(
        &self,
        body: impl FnOnce(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Option<A> {
        // The driver that may not wait: one step, nothing to park on.
        match Attempts::new(self).step(body, false) {
            Step::Committed(out) => Some(out),
            _ => None,
        }
    }

    /// Reads a variable outside any transaction (single-variable
    /// snapshot).
    pub fn read_now<T: TxValue>(&self, var: &TVar<T>) -> T {
        var.load()
    }
}
