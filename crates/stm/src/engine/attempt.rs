//! The attempt loop: retry-until-commit, contention-manager
//! consultation, and the parking tier (both logical `retry` waits and
//! [`Decision::Park`] conflict escalations). An attempt commits through
//! the one pipeline in `twophase`: `prepare`, then `publish`.

use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::cm::Decision;
use crate::tvar::{TVar, TxValue};
use crate::txlog::TxLog;
use crate::waiter::{WaitCell, CONFLICT_PARK_TIMEOUT, RETRY_PARK_TIMEOUT};

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
        let mut log = TxLog::default();
        let mut attempt: u64 = 0;
        loop {
            let mut tx = Transaction::begin(self, log);
            if let Ok(out) = body(&mut tx) {
                if tx.commit() {
                    drop(tx);
                    self.retire_committed();
                    return Ok(out);
                }
            }
            tx.close_aborted();
            self.stats.abort();
            if tx.waiting() {
                // A logical wait (`tx.retry()`) is not contention: skip
                // the contention manager and the attempt budget, park on
                // the read footprint, and re-run when a writer overlaps
                // it.
                log = self.park_attempt(tx, false);
                continue;
            }
            attempt += 1;
            if attempt >= self.max_attempts {
                return Err(RetriesExhausted { attempts: attempt });
            }
            // Release visible-read locks *before* the contention manager
            // waits: backoff must not hold stripes other transactions
            // are trying to write.
            tx.release_read_locks();
            match self.cm.on_abort(attempt - 1) {
                Decision::Retry => log = tx.into_log(),
                Decision::Park => log = self.park_attempt(tx, true),
                Decision::GiveUp => return Err(RetriesExhausted { attempts: attempt }),
            }
        }
    }

    /// Parks an aborted attempt on its footprint's waiter lists until an
    /// overlapping commit (or a safety-net timeout) wakes it; returns
    /// the recycled log for the next attempt.
    ///
    /// Ordering is the whole point — register, *then* revalidate, *then*
    /// sleep: a writer that commits after registration finds the cell on
    /// the lists and notifies it; a writer that committed before
    /// registration shows up in the revalidation, which then skips the
    /// sleep. (The SeqCst fences pairing register's tail with
    /// `wake_stripes`' head close the remaining store-buffering window —
    /// see the proof in `crate::waiter`.) The transaction is dropped via
    /// `into_log` *before* sleeping so a parked thread pins no epoch,
    /// holds no Tlrw read locks (released *after* registration — the
    /// lock word itself orders any conflicting commit after our
    /// registration), blocks no adaptive mode switch, and anchors no Mv
    /// snapshot.
    fn park_attempt(&self, tx: Transaction<'_>, conflict: bool) -> TxLog {
        let stripes = tx.wait_stripes(conflict);
        let cell = WaitCell::for_thread();
        self.orecs.waiters().register(&stripes, &cell);
        let consistent = tx.revalidate_for_park();
        let log = tx.into_log();
        if consistent {
            self.stats.park();
            let timeout = if conflict {
                // A conflict park has a weaker wake guarantee (the winner
                // may already have committed and gone), so the safety net
                // is short.
                CONFLICT_PARK_TIMEOUT
            } else {
                RETRY_PARK_TIMEOUT
            };
            if !cell.park(timeout) {
                self.stats.spurious_wake();
            }
        }
        self.orecs.waiters().deregister(&stripes, &cell);
        log
    }

    /// Runs `body` once, committing if it succeeds; returns `None` on
    /// conflict instead of retrying.
    pub fn try_once<A>(
        &self,
        body: impl FnOnce(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Option<A> {
        let mut tx = Transaction::begin(self, TxLog::default());
        if let Ok(out) = body(&mut tx) {
            if tx.commit() {
                drop(tx);
                self.retire_committed();
                return Some(out);
            }
        }
        tx.rollback();
        None
    }

    /// Reads a variable outside any transaction (single-variable
    /// snapshot).
    pub fn read_now<T: TxValue>(&self, var: &TVar<T>) -> T {
        var.load()
    }
}
