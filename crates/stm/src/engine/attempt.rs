//! The attempt lifecycle, written once: begin → body → commit →
//! resolve → run again / back off / give up, or park a logical wait,
//! as one loop in [`Stm::run`] over the engine's one retry schedule
//! ([`Tier`]).

use super::twophase::commit_group;
use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::waiter::PARK_TIMEOUT;

/// Conflicts at or below this attempt index retry without waiting.
const SPIN_AFTER: u64 = 2;
/// Cap on the spin exponent: no spin runs longer than 2^12 iterations.
const MAX_SPIN_SHIFT: u64 = 12;
/// Conflicts beyond this attempt index yield instead of spinning.
const YIELD_AFTER: u64 = 16;

/// What the retry schedule does after a conflict abort. Each tier
/// *replaces* the cheaper one rather than stacking on top of it: once
/// the conflict has outlived a spin window, spinning before the yield is
/// pure CPU waste. No tier sleeps: a conflict waits on no transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Run again at once.
    Now,
    /// Busy-wait this many iterations, then run again.
    Spin(u64),
    /// Yield the scheduler, then run again.
    Yield,
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
        } else {
            Tier::Yield
        }
    }

    /// Waits as the tier says.
    fn wait(self) {
        match self {
            Tier::Spin(n) => (0..n).for_each(|_| std::hint::spin_loop()),
            Tier::Yield => std::thread::yield_now(),
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
    /// spin `2^min(attempt, 12)` iterations, and later ones yield the
    /// thread. A conflict never sleeps. [`Transaction::retry`] is not a
    /// conflict: it parks on the read footprint until a commit overlaps
    /// it, and spends no budget.
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
            // A first attempt that commits touches no waiter list and no
            // schedule.
            let mut tx = Transaction::begin(self);
            if let Ok(out) = body(&mut tx) {
                // The one commit body, on a group of one.
                if commit_group(std::slice::from_mut(&mut tx), |_| {}).is_ok() {
                    return Ok(out);
                }
            }
            if tx.waiting {
                // A logical wait (`tx.retry()`) parks on its read
                // footprint and re-runs when a writer overlaps it — at
                // once if one already has.
                let parked = self.register_park(&tx);
                tx.aborted();
                // The epoch pin goes with the transaction: nothing below
                // sleeps pinned.
                drop(tx);
                if parked && !self.waiters.park(PARK_TIMEOUT) {
                    self.stats.spurious_wake();
                }
                continue;
            }
            // A conflict spends budget — checked first, so the exhausting
            // abort waits for nothing — and then backs off. The backoff
            // comes after this attempt is resolved, so it never holds
            // visible-read locks other transactions are trying to write
            // through.
            conflicts += 1;
            tx.aborted();
            if conflicts >= self.max_attempts {
                return Err(RetriesExhausted {
                    attempts: conflicts,
                });
            }
            drop(tx);
            Tier::after(conflicts - 1).wait();
        }
    }

    /// A logical wait's park protocol, up to the sleep; `false` (and
    /// withdrawn) if the footprint was already overwritten. Ordering is
    /// the whole point — register, *then* revalidate, *then* (the
    /// caller) resolve and sleep: a writer that commits after
    /// registration finds the thread on the list and unparks it; one
    /// that committed before registration shows up in the revalidation,
    /// which then skips the sleep. (The SeqCst fences pairing register's
    /// tail with `wake_stripes`' head close the remaining store-buffering
    /// window — see the proof in `crate::waiter`.) The attempt is
    /// resolved *after* this registration — Tlrw's still-held read locks
    /// are what order any conflicting commit after it — and *before* the
    /// sleep, so a parked thread pins no epoch, holds no read lock,
    /// blocks no adaptive mode switch, and anchors no Mv snapshot.
    #[cold]
    fn register_park(&self, tx: &Transaction<'_>) -> bool {
        self.waiters.register(tx.wait_footprint());
        if tx.revalidate_for_park() {
            self.stats.park();
            true
        } else {
            self.waiters.withdraw();
            false
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
        // No tier parks: a conflict that keeps losing keeps yielding.
        assert_eq!(Tier::after(65), Tier::Yield);
        assert_eq!(Tier::after(u64::MAX), Tier::Yield);
    }

    #[test]
    fn every_tier_waits_and_returns() {
        for attempt in [0, 3, 16, 17] {
            Tier::after(attempt).wait();
        }
    }
}
