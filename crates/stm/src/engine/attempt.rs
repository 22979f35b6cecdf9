//! The attempt lifecycle, written once: begin → body → commit →
//! resolve → run again / back off / park / give up, as one loop in
//! [`Stm::run`] over the engine's one retry schedule ([`Tier`]).

use super::twophase::commit_group;
use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::waiter::{Buckets, WaitCell, PARK_TIMEOUT};
use std::sync::Arc;

/// Conflicts at or below this attempt index retry without waiting.
const SPIN_AFTER: u64 = 2;
/// Cap on the spin exponent: no spin runs longer than 2^12 iterations.
const MAX_SPIN_SHIFT: u64 = 12;
/// Conflicts beyond this attempt index yield instead of spinning.
const YIELD_AFTER: u64 = 16;
/// Conflicts beyond this attempt index park instead of yielding.
const PARK_AFTER: u64 = 64;

/// What the retry schedule does after a conflict abort. Each tier
/// *replaces* the cheaper one rather than stacking on top of it: once
/// the conflict has outlived a spin window, spinning before the yield is
/// pure CPU waste.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Run again at once.
    Now,
    /// Busy-wait this many iterations, then run again.
    Spin(u64),
    /// Yield the scheduler, then run again.
    Yield,
    /// Get out of the way: register on the orec table's waiter lists
    /// — the footprint (read ∪ write stripes) and the stripe whose lock
    /// the attempt lost to — and sleep until that lock's holder
    /// releases it or a commit touches an overlapping stripe, then run
    /// again. A transaction that keeps losing stops costing the winners
    /// CPU. A conflict that lost to no held lock has no holder to wait
    /// for, and yields instead.
    Park,
}

impl Tier {
    /// The schedule: the tier for the `attempt`-th consecutive conflict
    /// abort of one transaction, counting from 0. Pure, so the tier is
    /// chosen before the attempt is resolved and waited out after.
    fn after(attempt: u64) -> Tier {
        if attempt <= SPIN_AFTER {
            Tier::Now
        } else if attempt <= YIELD_AFTER {
            Tier::Spin(1 << attempt.min(MAX_SPIN_SHIFT))
        } else if attempt <= PARK_AFTER {
            Tier::Yield
        } else {
            Tier::Park
        }
    }

    /// Waits as the tier says. The park tier waits on the waiter lists,
    /// not here: it comes here only when it found no lock holder to
    /// park on, and then yields.
    fn wait(self) {
        match self {
            Tier::Spin(n) => (0..n).for_each(|_| std::hint::spin_loop()),
            Tier::Yield | Tier::Park => std::thread::yield_now(),
            Tier::Now => {}
        }
    }
}

impl Stm {
    /// Runs `body` in a transaction, retrying on conflict until it
    /// commits, and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` attempts all conflict (default: ten
    /// million). Use [`Stm::run`] to handle exhaustion as a value
    /// instead.
    pub fn atomically<A>(&self, body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>) -> A {
        match self.run(body) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `body` in a transaction, retrying on conflict, and reports
    /// retry-budget exhaustion as an error instead of panicking.
    ///
    /// Between conflicts it backs off on a fixed schedule: attempts 0–2
    /// (counting conflicts from 0) run again at once, attempts up to 16
    /// spin `2^min(attempt, 12)` iterations, attempts up to 64 yield the
    /// thread, and later ones park until the holder of the lock they
    /// lost to releases it (or yield, if they lost to no held lock).
    /// [`Transaction::retry`] is not a conflict: it parks on the read
    /// footprint and spends no budget.
    ///
    /// # Errors
    ///
    /// [`RetriesExhausted`] if `max_attempts` attempts all conflicted.
    pub fn run<A>(
        &self,
        mut body: impl FnMut(&mut Transaction<'_>) -> Result<A, Retry>,
    ) -> Result<A, RetriesExhausted> {
        // Conflict aborts so far: what the budget and the schedule count.
        // Logical waits are not conflicts.
        let mut conflicts = 0;
        loop {
            // A first attempt that commits touches no cell, no stripe
            // list and no schedule.
            let mut tx = Transaction::begin(self);
            if let Ok(out) = body(&mut tx) {
                // The one commit body, on a group of one.
                if commit_group(std::slice::from_mut(&mut tx), |_| {}).is_ok() {
                    return Ok(out);
                }
            }
            // A logical wait (`tx.retry()`) parks on its read footprint
            // and re-runs when a writer overlaps it. A conflict spends
            // budget — checked first, so the exhausting abort waits for
            // nothing — and then picks its tier. Whatever waiting the
            // tier implies happens after this attempt is resolved, so a
            // backoff never holds visible-read locks other transactions
            // are trying to write through.
            let conflict = !tx.waiting;
            let tier = if conflict {
                conflicts += 1;
                if conflicts >= self.max_attempts {
                    tx.aborted();
                    return Err(RetriesExhausted {
                        attempts: conflicts,
                    });
                }
                Tier::after(conflicts - 1)
            } else {
                Tier::Park
            };
            let parked = if tier == Tier::Park {
                self.register_park(&tx, conflict)
            } else {
                None
            };
            tx.aborted();
            // The epoch pin goes with the transaction: nothing below
            // sleeps pinned.
            drop(tx);
            match parked {
                Some((cell, buckets)) => {
                    if !cell.park(PARK_TIMEOUT) {
                        self.stats.spurious_wake();
                    }
                    self.orecs.waiters().deregister(buckets, &cell);
                }
                // A logical wait whose data already changed runs again
                // at once.
                None if !conflict => {}
                None => tier.wait(),
            }
        }
    }

    /// The park protocol, up to the sleep; `None` if there is nothing to
    /// wait for: a logical wait's footprint was already overwritten, or
    /// a conflict's lock is already released (or was never recorded —
    /// such a conflict registers nothing). Ordering is the whole point —
    /// register, *then* revalidate, *then* (the caller) resolve, sleep
    /// and deregister: a holder that releases (or a writer that commits)
    /// after registration finds the cell on the lists and notifies it;
    /// one that did before registration shows up in the revalidation,
    /// which then skips the sleep. (The SeqCst fences pairing register's
    /// tail with `wake_stripes`' head close the remaining
    /// store-buffering window — see the proof in `crate::waiter`.) The
    /// attempt is resolved *after* this
    /// registration — Tlrw's still-held read locks are what order any
    /// conflicting commit after it — and *before* the sleep, so a parked
    /// thread pins no epoch, holds no read lock, blocks no adaptive mode
    /// switch, and anchors no Mv snapshot.
    #[cold]
    fn register_park(
        &self,
        tx: &Transaction<'_>,
        conflict: bool,
    ) -> Option<(Arc<WaitCell>, Buckets)> {
        if conflict && tx.log.conflict.is_none() {
            return None;
        }
        let cell = WaitCell::for_thread();
        let buckets = tx.wait_stripes(conflict);
        let waiters = self.orecs.waiters();
        waiters.register(buckets, &cell);
        if tx.revalidate_for_park(conflict) {
            self.stats.park();
            Some((cell, buckets))
        } else {
            waiters.deregister(buckets, &cell);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_keeps_its_tier_boundaries() {
        assert_eq!(Tier::after(0), Tier::Now);
        assert_eq!(Tier::after(2), Tier::Now);
        assert_eq!(Tier::after(3), Tier::Spin(8));
        assert_eq!(Tier::after(12), Tier::Spin(1 << 12));
        assert_eq!(Tier::after(16), Tier::Spin(1 << 12), "the shift is capped");
        // The yield tier replaces the spin: 2^12 spins before every
        // yield would burn a core per hopeless attempt.
        assert_eq!(Tier::after(17), Tier::Yield);
        assert_eq!(Tier::after(64), Tier::Yield);
        assert_eq!(Tier::after(65), Tier::Park);
        assert_eq!(Tier::after(u64::MAX), Tier::Park);
    }

    #[test]
    fn every_tier_waits_and_returns() {
        for attempt in [0, 3, 16, 17, 65] {
            Tier::after(attempt).wait();
        }
    }
}
