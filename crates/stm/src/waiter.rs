//! Per-stripe waiter parking: the blocking half of `retry`/`or_else`.
//!
//! A transaction that cannot proceed — logically (`Transaction::retry`:
//! the data it read says "wait") or physically (the contention manager
//! answered [`Decision::Park`](crate::Decision::Park)) — must get out of
//! the way instead of stealing cycles from the transaction that can
//! proceed. This module supplies the mechanism: one [`WaitBucket`] per
//! orec stripe (hung off the [`OrecTable`](crate::orec::OrecTable), so
//! the wait channels are keyed exactly like the conflict metadata), a
//! [`WaitCell`] per parked attempt, and a wake sweep that committing
//! writers run over their write stripes after releasing their locks.
//!
//! ## The lost-wakeup argument
//!
//! The parker and the committing writer race: the parker decides "no
//! relevant commit has happened" and sleeps; the writer decides "nobody
//! is waiting" and skips the wake. The protocol closes the window with a
//! registration-then-revalidate handshake ordered by `SeqCst` fences —
//! the classic store-buffering shape:
//!
//! * **parker**: push cell + bump `count` (under the bucket lock) for
//!   every footprint stripe, `fence(SeqCst)` (the tail of
//!   [`WaiterTable::register`]), then *revalidate* the read set against
//!   the orec words / clock, and only park if still consistent;
//! * **writer**: release-store its stripe words (the commit's normal
//!   lock release), `fence(SeqCst)` (the head of
//!   [`WaiterTable::wake_stripes`]), then load the waiter counts.
//!
//! Sequentially-consistent fences forbid the outcome where *both* the
//! parker misses the writer's stripe stamps *and* the writer misses the
//! parker's count increment. So either the parker's revalidation fails
//! (it reruns immediately — no sleep, nothing to wake) or the writer
//! observes `count > 0` and drains the bucket, whose mutex guarantees
//! the pushed cell is visible to the drain. Tlrw needs no fence argument
//! at all: registration happens while the parker still *holds* its read
//! locks, so a conflicting writer can only commit after the release that
//! follows registration in program order — its count load is ordered
//! after the push by the lock-word synchronization itself.
//!
//! Parks still carry a timeout ([`RETRY_PARK_TIMEOUT`] /
//! [`CONFLICT_PARK_TIMEOUT`]) purely as a safety net — a timeout expiry
//! is counted as a `spurious_wake` in [`StmStats`](crate::StmStats), and
//! the torture suite asserts the net stays unused.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Safety-net ceiling on a logical wait (`Transaction::retry`): a parked
/// thread re-checks its predicate at least this often even if every wake
/// were lost. Long, because the wake path makes expiry the exception.
pub(crate) const RETRY_PARK_TIMEOUT: Duration = Duration::from_millis(250);

/// Park slice for a contention-manager
/// [`Decision::Park`](crate::Decision::Park): short, because a conflict
/// park has a weaker wake guarantee — the conflicting commit may already
/// be finished, with no later commit due on any overlapping stripe.
pub(crate) const CONFLICT_PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// One parked attempt: a notification flag plus the thread to unpark.
/// Shared between the waiter buckets it is registered in and the parked
/// attempt itself; `notify` delivers at most once however many buckets
/// drain it.
pub(crate) struct WaitCell {
    notified: AtomicBool,
    thread: std::thread::Thread,
}

impl WaitCell {
    /// A cell that wakes the calling thread (`thread::unpark`).
    pub(crate) fn for_thread() -> Arc<Self> {
        Arc::new(WaitCell {
            notified: AtomicBool::new(false),
            thread: std::thread::current(),
        })
    }

    /// Whether the cell has been notified.
    pub(crate) fn is_notified(&self) -> bool {
        self.notified.load(Ordering::Acquire)
    }

    /// Delivers the wake exactly once; returns whether this call was the
    /// delivering one (a cell drained from several buckets is woken by
    /// the first and counted once).
    pub(crate) fn notify(&self) -> bool {
        if self.notified.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.thread.unpark();
        true
    }

    /// Parks the calling thread until notified or `timeout` elapses.
    /// Returns `true` on a real wake, `false` on timeout. Tolerates the
    /// spurious returns `park_timeout` permits and stray unpark tokens
    /// left by late notifiers of *previous* cells.
    pub(crate) fn park(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.notified.load(Ordering::Acquire) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                // Deadline passed; one last look so a wake that raced the
                // clock still counts as a wake.
                return self.notified.load(Ordering::Acquire);
            };
            std::thread::park_timeout(remaining);
        }
        true
    }
}

impl std::fmt::Debug for WaitCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitCell")
            .field("notified", &self.is_notified())
            .finish_non_exhaustive()
    }
}

/// One stripe's waiter list. `count` mirrors `cells.len()` so the commit
/// hot path can skip cold stripes with one relaxed load instead of a
/// lock acquisition.
#[derive(Debug, Default)]
struct WaitBucket {
    count: AtomicUsize,
    cells: Mutex<Vec<Arc<WaitCell>>>,
}

/// The waiter lists for one orec table: one bucket per stripe, plus a
/// table-wide population count that lets an uncontended commit skip the
/// whole sweep with a single load. Buckets are deliberately *not*
/// cache-padded: they are touched only by parking transactions and by
/// the (read-mostly) skip loads, never on the per-read hot path.
#[derive(Debug)]
pub(crate) struct WaiterTable {
    buckets: Box<[WaitBucket]>,
    population: AtomicUsize,
}

impl WaiterTable {
    /// A table with one bucket per stripe.
    pub(crate) fn new(stripes: usize) -> Self {
        WaiterTable {
            buckets: (0..stripes).map(|_| WaitBucket::default()).collect(),
            population: AtomicUsize::new(0),
        }
    }

    /// Registers `cell` on every stripe in `stripes`, then issues the
    /// `SeqCst` fence that orders the registration before the caller's
    /// revalidation loads (the parker's half of the store-buffering
    /// handshake — see the module docs).
    pub(crate) fn register(&self, stripes: &[usize], cell: &Arc<WaitCell>) {
        for &s in stripes {
            let b = &self.buckets[s];
            let mut cells = b.cells.lock().expect("waiter bucket poisoned");
            cells.push(Arc::clone(cell));
            b.count.fetch_add(1, Ordering::SeqCst);
            self.population.fetch_add(1, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
    }

    /// Removes `cell` from whichever of `stripes` still hold it: a woken
    /// (or timed-out) attempt must not leave dangling registrations for
    /// later commits to re-notify.
    pub(crate) fn deregister(&self, stripes: &[usize], cell: &Arc<WaitCell>) {
        for &s in stripes {
            let b = &self.buckets[s];
            let mut cells = b.cells.lock().expect("waiter bucket poisoned");
            if let Some(i) = cells.iter().position(|c| Arc::ptr_eq(c, cell)) {
                cells.swap_remove(i);
                b.count.fetch_sub(1, Ordering::Relaxed);
                self.population.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// The committing writer's wake sweep: fence (its half of the
    /// handshake), then drain and notify every waiter on the given
    /// stripes. Returns how many waiters this call actually woke. With
    /// nobody parked anywhere the cost is the fence plus one load.
    pub(crate) fn wake_stripes(&self, stripes: &[usize]) -> u64 {
        fence(Ordering::SeqCst);
        if self.population.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut woken = 0;
        for &s in stripes {
            let b = &self.buckets[s];
            if b.count.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let drained = {
                let mut cells = b.cells.lock().expect("waiter bucket poisoned");
                let n = cells.len();
                if n > 0 {
                    b.count.fetch_sub(n, Ordering::Relaxed);
                    self.population.fetch_sub(n, Ordering::Relaxed);
                }
                std::mem::take(&mut *cells)
            };
            // Notify outside the bucket lock: the woken thread's first
            // act is to deregister, which takes bucket locks.
            for cell in drained {
                if cell.notify() {
                    woken += 1;
                }
            }
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_delivers_exactly_once() {
        let cell = WaitCell::for_thread();
        assert!(!cell.is_notified());
        assert!(cell.notify(), "first delivery");
        assert!(!cell.notify(), "second delivery suppressed");
        assert!(cell.is_notified());
        assert!(
            cell.park(Duration::from_secs(5)),
            "already-notified park returns at once"
        );
    }

    #[test]
    fn park_times_out_without_a_notifier() {
        let cell = WaitCell::for_thread();
        let start = Instant::now();
        assert!(!cell.park(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn register_wake_deregister_keep_counts_balanced() {
        let t = WaiterTable::new(8);
        let a = WaitCell::for_thread();
        let b = WaitCell::for_thread();
        t.register(&[1, 3], &a);
        t.register(&[3, 5], &b);
        assert_eq!(t.population.load(Ordering::Relaxed), 4);
        // Waking stripe 3 drains both cells there; each is notified once.
        assert_eq!(t.wake_stripes(&[3]), 2);
        assert_eq!(t.population.load(Ordering::Relaxed), 2);
        // Re-waking their other stripes drains the cells but delivers
        // nothing new.
        assert_eq!(t.wake_stripes(&[1, 5]), 0);
        assert_eq!(t.population.load(Ordering::Relaxed), 0);
        // Deregistration after the drain is a no-op, not a double-count.
        t.deregister(&[1, 3], &a);
        t.deregister(&[3, 5], &b);
        assert_eq!(t.population.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deregister_removes_only_the_given_cell() {
        let t = WaiterTable::new(4);
        let a = WaitCell::for_thread();
        let b = WaitCell::for_thread();
        t.register(&[2], &a);
        t.register(&[2], &b);
        t.deregister(&[2], &a);
        assert_eq!(t.population.load(Ordering::Relaxed), 1);
        assert_eq!(t.wake_stripes(&[2]), 1, "only b remains to wake");
        assert!(b.is_notified());
        assert!(!a.is_notified());
    }

    #[test]
    fn cross_thread_wake_unparks() {
        let t = Arc::new(WaiterTable::new(1));
        let cell = WaitCell::for_thread();
        t.register(&[0], &cell);
        let waker = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.wake_stripes(&[0]))
        };
        assert!(cell.park(Duration::from_secs(30)), "woken, not timed out");
        assert_eq!(waker.join().expect("waker thread"), 1);
    }
}
