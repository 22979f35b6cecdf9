//! Pluggable contention management.
//!
//! The seed engine hard-coded its retry policy: spin exponentially, yield
//! late, give up after a buried `10_000_000` attempts. This module makes
//! the policy a value: a [`ContentionManager`] decides, after each
//! aborted attempt, whether to retry (after waiting however it likes),
//! to hand the attempt to the engine's parking tier
//! ([`Decision::Park`]: the thread sleeps on the orec table's per-stripe
//! waiter lists until a committing writer overlaps its footprint,
//! instead of burning cycles), or to give up. Select one per
//! [`Stm`](crate::Stm) instance through
//! [`StmBuilder::contention_manager`](crate::StmBuilder::contention_manager).
//!
//! Two policies ship with the crate:
//!
//! * [`ImmediateRetry`] — retry instantly; best when conflicts are rare
//!   and short, worst under sustained contention;
//! * [`ExponentialBackoff`] — the default; escalates spin → yield →
//!   park, each tier *replacing* the cheaper one rather than stacking on
//!   top of it.
//!
//! The attempt budget is not a policy: latency-bounded callers set
//! [`StmBuilder::max_attempts`](crate::StmBuilder::max_attempts), which
//! gives up at that many aborts whichever policy runs, without waiting
//! out the last backoff.

use std::fmt;

/// What to do after an aborted attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run the transaction again.
    Retry,
    /// Get out of the way: the engine registers the attempt's footprint
    /// (read ∪ write stripes) on the orec table's waiter lists and parks
    /// the thread until a committing writer touches an overlapping
    /// stripe (bounded by a short safety-net timeout), then reruns. The
    /// escalation past yielding — a transaction that keeps losing stops
    /// costing the winners CPU.
    Park,
    /// Stop retrying; `Stm::atomically` panics, `Stm::run` reports the
    /// exhaustion to the caller.
    GiveUp,
}

/// A retry policy consulted between transaction attempts.
///
/// The policy is split into a **pure decision** and an **optional
/// blocking wait**, so that the engine can resolve an aborted attempt
/// between the two. Its one attempt step calls
/// [`ContentionManager::decide`] after every conflict abort, then
/// releases what the attempt holds — Tlrw read locks, its epoch pin, an
/// Mv snapshot — and only then does the blocking driver
/// ([`Stm::run`](crate::Stm::run)) follow a [`Decision::Retry`] with
/// [`ContentionManager::wait`]. A backoff therefore never holds a lock
/// another transaction is trying to write through.
///
/// Deciding before waiting (rather than waiting, then deciding) is sound
/// because `decide` is pure: it depends on `attempt` alone, so the
/// answer cannot change across the wait — and a backoff whose answer is
/// [`Decision::Park`] or [`Decision::GiveUp`] is never waited out for
/// nothing.
///
/// Both are called after the `attempt`-th consecutive conflict abort of
/// one logical transaction (counting from 0).
pub trait ContentionManager: Send + Sync + fmt::Debug {
    /// Decides what the engine should do next, **without blocking** —
    /// no spinning, yielding, or sleeping. Called before the aborted
    /// attempt is resolved.
    fn decide(&self, attempt: u64) -> Decision;

    /// Waits as the policy dictates before a [`Decision::Retry`] is acted
    /// on (busy-spin, `yield_now`, sleep — anything goes). The blocking
    /// driver only; the default waits not at all.
    fn wait(&self, attempt: u64) {
        let _ = attempt;
    }
}

/// Retry immediately, forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImmediateRetry;

impl ContentionManager for ImmediateRetry {
    fn decide(&self, _attempt: u64) -> Decision {
        Decision::Retry
    }
}

/// Exponential busy-wait backoff escalating through yield to park.
///
/// Attempts `0..=spin_threshold` retry immediately; attempts up to
/// `yield_threshold` spin `2^min(attempt, max_spin_shift)` iterations;
/// attempts up to `park_threshold` *only* yield the scheduler (no spin —
/// once the policy has decided the conflict outlives a spin window,
/// burning the spin budget on top of the yield is pure CPU waste);
/// attempts beyond that answer [`Decision::Park`], and the engine puts
/// the thread to sleep on the conflict footprint's waiter lists.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialBackoff {
    /// Attempts at or below this retry without waiting.
    pub spin_threshold: u64,
    /// Cap on the spin exponent. Values above
    /// [`ExponentialBackoff::SHIFT_CEILING`] are treated as the ceiling
    /// (a ~10⁶-iteration spin), keeping a stray configuration from
    /// overflowing the shift or busy-waiting for hours.
    pub max_spin_shift: u32,
    /// Attempts beyond this yield the thread instead of spinning.
    pub yield_threshold: u64,
    /// Attempts beyond this answer [`Decision::Park`] instead of
    /// yielding.
    pub park_threshold: u64,
}

impl ExponentialBackoff {
    /// Largest effective spin exponent, whatever `max_spin_shift` says.
    pub const SHIFT_CEILING: u32 = 20;

    /// Busy-wait iterations `wait` performs for the given attempt:
    /// `2^min(attempt, max_spin_shift, SHIFT_CEILING)` inside the spin
    /// tier, and **zero** everywhere else — in particular past
    /// `yield_threshold`, where earlier versions of this policy kept
    /// burning the full spin budget before yielding.
    pub fn spin_iterations(&self, attempt: u64) -> u64 {
        if attempt <= self.spin_threshold || attempt > self.yield_threshold {
            return 0;
        }
        let shift = attempt
            .min(self.max_spin_shift as u64)
            .min(Self::SHIFT_CEILING as u64) as u32;
        1u64 << shift
    }
}

impl Default for ExponentialBackoff {
    fn default() -> Self {
        ExponentialBackoff {
            spin_threshold: 2,
            max_spin_shift: 12,
            yield_threshold: 16,
            park_threshold: 64,
        }
    }
}

impl ContentionManager for ExponentialBackoff {
    fn decide(&self, attempt: u64) -> Decision {
        if attempt > self.park_threshold {
            Decision::Park
        } else {
            Decision::Retry
        }
    }

    fn wait(&self, attempt: u64) {
        if attempt > self.park_threshold {
            // The park tier waits on the waiter lists, not here.
            return;
        }
        for _ in 0..self.spin_iterations(attempt) {
            std::hint::spin_loop();
        }
        if attempt > self.yield_threshold {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_always_retries() {
        for a in [0, 1, 1 << 40] {
            assert_eq!(ImmediateRetry.decide(a), Decision::Retry);
        }
    }

    #[test]
    fn backoff_always_retries_but_waits() {
        let cm = ExponentialBackoff::default();
        for a in [0, 20] {
            cm.wait(a);
            assert_eq!(cm.decide(a), Decision::Retry);
        }
    }

    #[test]
    fn oversized_spin_shift_is_clamped_not_overflowed() {
        // A shift >= 64 would overflow `1u64 << shift`; the ceiling keeps
        // this both panic-free and bounded (2^20 spins, not 2^63). The
        // thresholds are raised so attempt 100 still lands in the spin
        // tier.
        let cm = ExponentialBackoff {
            spin_threshold: 2,
            max_spin_shift: 64,
            yield_threshold: 1 << 30,
            park_threshold: u64::MAX,
        };
        assert_eq!(
            cm.spin_iterations(100),
            1 << ExponentialBackoff::SHIFT_CEILING
        );
        cm.wait(100);
        assert_eq!(cm.decide(100), Decision::Retry);
    }

    #[test]
    fn late_attempts_never_busy_spin_and_eventually_park() {
        // Regression: past `yield_threshold` the policy used to burn the
        // full exponential spin budget (2^12 iterations by default) and
        // *then* yield, wasting a core per hopeless attempt. The yield
        // tier must replace the spin, and sustained losing must escalate
        // to parking.
        let cm = ExponentialBackoff::default();
        assert_eq!(cm.spin_iterations(0), 0, "immediate tier spins nothing");
        assert!(cm.spin_iterations(10) > 0, "spin tier spins");
        assert_eq!(cm.spin_iterations(17), 0, "yield tier must not spin");
        assert_eq!(cm.spin_iterations(100), 0, "park tier must not spin");
        assert_eq!(cm.decide(17), Decision::Retry);
        assert_eq!(cm.decide(100), Decision::Park);
    }

    #[test]
    fn decide_is_pure_across_the_tiers() {
        // `try_once` never calls `wait`, and `run` calls it only after
        // the attempt is resolved; `decide` must reproduce the tier
        // boundaries without any of its side effects.
        let cm = ExponentialBackoff::default();
        assert_eq!(cm.decide(0), Decision::Retry);
        assert_eq!(cm.decide(cm.park_threshold), Decision::Retry);
        assert_eq!(cm.decide(cm.park_threshold + 1), Decision::Park);
    }

    #[test]
    fn policies_are_debuggable() {
        let boxed: Box<dyn ContentionManager> = Box::new(ExponentialBackoff::default());
        let s = format!("{boxed:?}");
        assert!(s.contains("ExponentialBackoff"), "{s}");
    }
}
