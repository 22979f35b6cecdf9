//! [`Stm::run_async`]: the async driver of the step machine.
//!
//! The blocking driver parks a *thread* on the orec table's waiter
//! lists; this one parks a *task* — the same [`Attempts::step`], hence
//! the same lists and the same register → revalidate → sleep protocol,
//! but the [`WaitCell`] it hands the step carries the task's
//! [`Waker`](std::task::Waker) instead of a thread handle, and "sleep"
//! is returning [`Poll::Pending`]. A committing writer that overlaps the
//! footprint wakes the waker exactly once; the executor re-polls; the
//! poll deregisters the spent cell and steps again.
//!
//! Two rules keep the driver executor-friendly; both exist because a
//! poll runs on a thread the engine does not own:
//!
//! * **The contention manager is consulted, never obeyed bodily.** The
//!   step calls the policy's non-blocking [`decide`] tier; this driver
//!   never calls [`wait`] — the spin/yield tiers a blocking attempt
//!   would burn through are translated into waker-mediated yields: each
//!   poll runs at most [`MAX_ATTEMPTS_PER_POLL`] steps inline, then
//!   reschedules itself (`wake_by_ref` + `Pending`, counted as
//!   `async_yields` in [`StmStats`](crate::StmStats)) so the executor
//!   can run other tasks between retry bursts. Per-poll work is
//!   therefore bounded by the body's own cost times a small constant —
//!   no `2^k` spin ever runs on an executor thread.
//! * **[`Decision::Park`](crate::Decision::Park) parks for real, with a
//!   watchdog.** A [`Step::Parked`] conflict footprint (read ∪ write
//!   stripes) is already on the waiter lists when the step returns, and,
//!   because a conflict wake is only a heuristic (the winning writer may
//!   have committed and gone before registration), the global timer
//!   thread ([`crate::waiter`]) re-fires the waker after
//!   [`CONFLICT_PARK_TIMEOUT`] as a safety net; a timeout-mediated wake
//!   is counted `spurious_wakes`, mirroring the blocking ledger. Earlier
//!   versions degraded Park to an *unthrottled* self-wake (`wake_by_ref`
//!   on every poll), which pegged a core at executor speed for the whole
//!   storm.
//!
//! Logical waits (`tx.retry()`) suspend without the watchdog: their wake
//! condition is "some overlapping commit happens later", which is
//! exactly what the lists deliver, and the step's register-then-
//! revalidate closes the "it already happened" window.
//!
//! [`decide`]: crate::cm::ContentionManager::decide
//! [`wait`]: crate::cm::ContentionManager::wait

use super::attempt::{Attempts, Step};
use super::{RetriesExhausted, Retry, Stm, Transaction};
use crate::waiter::{self, WaitCell, CONFLICT_PARK_TIMEOUT};
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

impl Stm {
    /// Runs `body` transactionally as a future: conflicts re-run it,
    /// [`Transaction::retry`] suspends the task (no thread blocks, no
    /// executor worker is lost) until an overlapping commit wakes it.
    ///
    /// The future is executor-agnostic — it uses only the standard
    /// [`Waker`](std::task::Waker) contract — and cancel-safe: dropping
    /// it deregisters any standing wait and publishes nothing (writes
    /// only ever land through a successful commit).
    ///
    /// # Examples
    ///
    /// A minimal single-future executor is enough to drive it:
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar};
    /// use std::future::Future;
    /// use std::sync::Arc;
    /// use std::task::{Context, Poll, Wake, Waker};
    ///
    /// struct Unpark(std::thread::Thread);
    /// impl Wake for Unpark {
    ///     fn wake(self: Arc<Self>) {
    ///         self.0.unpark();
    ///     }
    /// }
    ///
    /// let stm = Stm::tl2();
    /// let inbox = TVar::new(Some(5u64));
    /// let mut fut = std::pin::pin!(stm.run_async(|tx| match tx.read(&inbox)? {
    ///     Some(v) => Ok(v),
    ///     None => tx.retry(),
    /// }));
    /// let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    /// let mut cx = Context::from_waker(&waker);
    /// let got = loop {
    ///     match fut.as_mut().poll(&mut cx) {
    ///         Poll::Ready(v) => break v,
    ///         Poll::Pending => std::thread::park(),
    ///     }
    /// };
    /// assert_eq!(got, Ok(5));
    /// ```
    pub fn run_async<A, F>(&self, body: F) -> RunAsync<'_, A, F>
    where
        F: FnMut(&mut Transaction<'_>) -> Result<A, Retry> + Unpin,
    {
        RunAsync {
            attempts: Attempts::new(self),
            body,
            registration: None,
            _out: PhantomData,
        }
    }
}

/// Future returned by [`Stm::run_async`]; resolves to the body's result
/// once an attempt commits, or to [`RetriesExhausted`] if the retry
/// budget runs out.
///
/// The body must be [`Unpin`] (every closure without self-references is)
/// because the future moves it on each poll; the crate forbids the
/// `unsafe` a pin projection would need.
pub struct RunAsync<'s, A, F> {
    attempts: Attempts<'s>,
    body: F,
    /// A standing waiter-list registration from the last poll, voided
    /// (deregistered) at the top of the next poll and on drop.
    registration: Option<(Arc<WaitCell>, Vec<usize>)>,
    /// `A` only appears in the output position.
    _out: PhantomData<fn() -> A>,
}

impl<A, F> RunAsync<'_, A, F> {
    fn deregister(&mut self) {
        if let Some((cell, stripes)) = self.registration.take() {
            self.attempts
                .stm
                .orecs
                .waiters()
                .deregister(&stripes, &cell);
        }
    }
}

/// Ceiling on full attempts (body + commit try) one `poll` runs inline
/// before rescheduling itself. Small: it bounds per-poll work at a few
/// body executions, which keeps a conflict storm from monopolising the
/// executor thread while still amortising the wake-up cost across a
/// short burst of retries.
const MAX_ATTEMPTS_PER_POLL: u32 = 4;

impl<A, F> Future for RunAsync<'_, A, F>
where
    F: FnMut(&mut Transaction<'_>) -> Result<A, Retry> + Unpin,
{
    type Output = Result<A, RetriesExhausted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        // Whatever woke us (an overlapping commit, the timer watchdog, a
        // spurious executor poll), the old registration is spent. A
        // watchdog-delivered wake is the async analogue of a blocking
        // park timing out; keep the same ledger.
        if let Some((cell, _)) = &this.registration {
            if cell.was_timeout() {
                this.attempts.stm.stats.spurious_wake();
            }
        }
        this.deregister();
        for _ in 0..MAX_ATTEMPTS_PER_POLL {
            let new_cell = || Some(WaitCell::for_waker(cx.waker().clone()));
            match this.attempts.step(&mut this.body, new_cell) {
                Step::Committed(out) => return Poll::Ready(Ok(out)),
                // The policy's wait tiers must not run on the executor
                // thread (see the module docs): whatever backoff the
                // step reports, the per-poll budget stands in for it.
                Step::Again(_) => {}
                Step::Parked {
                    cell,
                    stripes,
                    conflict,
                } => {
                    if conflict {
                        // The timer watchdog stands in for the blocking
                        // driver's `park_timeout` as the missed-wake
                        // safety net.
                        waiter::watchdog(&cell, CONFLICT_PARK_TIMEOUT);
                    }
                    this.registration = Some((cell, stripes));
                    return Poll::Pending;
                }
                Step::Exhausted(e) => return Poll::Ready(Err(e)),
            }
        }
        // Cooperative reschedule: the per-poll attempt budget is spent, so
        // hand the thread back to the executor and ask to be polled
        // again. Counted, so a contention storm is observable as
        // `async_yields` instead of as an inexplicably hot core.
        this.attempts.stm.stats.async_yield();
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

impl<A, F> Drop for RunAsync<'_, A, F> {
    /// Cancel safety: a dropped (timed-out, `select!`-ed away) wait must
    /// not leave its cell on the lists.
    fn drop(&mut self) {
        self.deregister();
    }
}

impl<A, F> fmt::Debug for RunAsync<'_, A, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunAsync")
            .field("attempts", &self.attempts.conflicts)
            .field("parked", &self.registration.is_some())
            .finish()
    }
}
