//! Per-stripe waiter parking: the blocking half of `retry`/`or_else`.
//!
//! A transaction whose data says "wait" (`Transaction::retry`) must get
//! out of the way instead of stealing cycles from the transactions that
//! can proceed. This module supplies the mechanism: a fixed table of
//! [`BUCKETS`] wait buckets per orec table (stripe `s` waits in bucket
//! `s % BUCKETS`, so the wait channels are keyed by the conflict
//! metadata's stripes), a [`WaitCell`] per parked attempt, and a wake
//! sweep that every commit runs over the stripes it wrote, right after
//! its publish releases them.
//!
//! ## What a park waits for
//!
//! There is one kind of park: a logical wait, on its read footprint.
//! Any commit that overwrites what it read may ready it. A conflict
//! never parks — the retry schedule spins and yields, and waits on no
//! transaction — so a lock holder that rolls back instead of publishing
//! wakes nobody: restoring the words it locked leaves every read a
//! waiter made current.
//!
//! ## The lost-wakeup argument
//!
//! The parker and the publishing writer race: the parker decides "no
//! relevant commit has happened" and sleeps; the writer decides "nobody
//! is waiting" and skips the wake. The protocol closes the window with a
//! registration-then-revalidate handshake ordered by `SeqCst` fences —
//! the classic store-buffering shape:
//!
//! * **parker**: push cell + bump `count` (under the bucket lock) for
//!   every bucket its stripes hash to, `fence(SeqCst)` (the tail of
//!   [`WaiterTable::register`]), then *revalidate* — the read set is
//!   still current against the orec words / clock — and only park if
//!   so;
//! * **writer**: publish and release its stripe words (the commit's
//!   release-store; Tlrw: the `fetch_sub` of its writer flag; NOrec: the
//!   clock store), `fence(SeqCst)` (the head of
//!   [`WaiterTable::wake_stripes`]), then load the waiter counts of the
//!   buckets its written stripes hash to.
//!
//! Sequentially-consistent fences forbid the outcome where *both* the
//! parker misses the writer's publish *and* the writer misses the
//! parker's count increment. So either the parker's revalidation fails
//! (it reruns — no sleep, nothing to wake) or the writer observes
//! `count > 0` and drains the bucket, whose mutex guarantees the pushed
//! cell is visible to the drain.
//!
//! **Hashed buckets** change none of this. Stripe `s` registers in and
//! is swept from the one bucket `s % BUCKETS`, so a sweep of `s` drains
//! every cell registered on `s`; what the sharing adds is cells of
//! *other* stripes in the same bucket, woken along with them. Such a
//! waiter runs again and, if still blocked, parks again: a hashed
//! bucket can wake extra waiters, never miss one.
//!
//! Tlrw's logical waits need no fence argument at all: registration
//! happens while the parker still *holds* its read locks, so a
//! conflicting writer can only commit after the release that follows
//! registration in program order — its count load is ordered after the
//! push by the lock-word synchronization itself.
//!
//! ## The buckets come with the instance
//!
//! The table is [`BUCKETS`] buckets of 40 bytes, built with its
//! instance (about 640 bytes), whatever the stripe count. An instance
//! that never parks pays that and nothing more; a park allocates only
//! its cell and a bucket list's slot. The commit path's skip stays one
//! load of `population` after the fence.
//!
//! Parks still carry a timeout ([`PARK_TIMEOUT`]) purely as a safety
//! net: the commit that readies a waiter wakes it. A timeout expiry is
//! counted as a `spurious_wake` in [`StmStats`](crate::StmStats), and
//! the torture suite asserts the net stays unused.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Safety-net ceiling on a park: a parked thread re-checks at least this
/// often even if every wake were lost. Long, because the wake path makes
/// expiry the exception.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(250);

/// Wait buckets per table. Stripe `s` waits in bucket `s % BUCKETS`.
const BUCKETS: usize = 16;

/// A set of wait buckets, one bit each: the stripes a parked attempt
/// waits on, hashed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Buckets(u16);

impl Buckets {
    /// The buckets `stripes` hash to.
    pub(crate) fn of(stripes: impl IntoIterator<Item = usize>) -> Self {
        Buckets(
            stripes
                .into_iter()
                .fold(0, |mask, s| mask | 1 << (s % BUCKETS)),
        )
    }

    /// The bucket indices, ascending.
    fn iter(self) -> impl Iterator<Item = usize> {
        (0..BUCKETS).filter(move |&b| self.0 >> b & 1 == 1)
    }
}

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

/// One bucket's waiter list. `count` mirrors `cells.len()` so the
/// commit hot path can skip cold buckets with one relaxed load instead
/// of a lock acquisition.
#[derive(Debug, Default)]
struct WaitBucket {
    count: AtomicUsize,
    cells: Mutex<Vec<Arc<WaitCell>>>,
}

/// The waiter lists for one orec table: [`BUCKETS`] buckets that the
/// stripes hash to, built with the table, plus a table-wide population
/// count that lets an uncontended commit skip the whole sweep with a
/// single load. Buckets are deliberately *not* cache-padded: they are
/// touched only by parking transactions and by the (read-mostly) skip
/// loads, never on the per-read hot path.
#[derive(Debug)]
pub(crate) struct WaiterTable {
    buckets: Box<[WaitBucket; BUCKETS]>,
    population: AtomicUsize,
}

impl WaiterTable {
    /// A table with every bucket empty.
    pub(crate) fn new() -> Self {
        WaiterTable {
            buckets: Box::default(),
            population: AtomicUsize::new(0),
        }
    }

    /// Registers `cell` in every bucket of `buckets`, then issues the
    /// `SeqCst` fence that orders the registration before the caller's
    /// revalidation loads (the parker's half of the store-buffering
    /// handshake — see the module docs).
    pub(crate) fn register(&self, buckets: Buckets, cell: &Arc<WaitCell>) {
        for b in buckets.iter() {
            let b = &self.buckets[b];
            let mut cells = b.cells.lock().expect("waiter bucket poisoned");
            cells.push(Arc::clone(cell));
            b.count.fetch_add(1, Ordering::SeqCst);
            self.population.fetch_add(1, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
    }

    /// Removes `cell` from whichever of `buckets` still hold it: a woken
    /// (or timed-out) attempt must not leave dangling registrations for
    /// later sweeps to re-notify.
    pub(crate) fn deregister(&self, buckets: Buckets, cell: &Arc<WaitCell>) {
        for b in buckets.iter() {
            let b = &self.buckets[b];
            let mut cells = b.cells.lock().expect("waiter bucket poisoned");
            if let Some(i) = cells.iter().position(|c| Arc::ptr_eq(c, cell)) {
                cells.swap_remove(i);
                b.count.fetch_sub(1, Ordering::Relaxed);
                self.population.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// A publishing writer's wake sweep: fence (its half of the
    /// handshake), then drain and notify every waiter in the buckets the
    /// released `stripes` hash to. Returns how many waiters this call
    /// actually woke. With nobody parked anywhere the cost is the fence
    /// plus one load; the stripes are not even hashed.
    pub(crate) fn wake_stripes(&self, stripes: impl IntoIterator<Item = usize>) -> u64 {
        fence(Ordering::SeqCst);
        if self.population.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut woken = 0;
        for b in Buckets::of(stripes).iter() {
            let b = &self.buckets[b];
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

    /// The buckets of `stripes`.
    fn on(stripes: &[usize]) -> Buckets {
        Buckets::of(stripes.iter().copied())
    }

    #[test]
    fn register_wake_deregister_keep_counts_balanced() {
        let t = WaiterTable::new();
        let a = WaitCell::for_thread();
        let b = WaitCell::for_thread();
        t.register(on(&[1, 3]), &a);
        t.register(on(&[3, 5]), &b);
        assert_eq!(t.population.load(Ordering::Relaxed), 4);
        // Waking stripe 3 drains both cells there; each is notified once.
        assert_eq!(t.wake_stripes([3]), 2);
        assert_eq!(t.population.load(Ordering::Relaxed), 2);
        // Re-waking their other stripes drains the cells but delivers
        // nothing new.
        assert_eq!(t.wake_stripes([1, 5]), 0);
        assert_eq!(t.population.load(Ordering::Relaxed), 0);
        // Deregistration after the drain is a no-op, not a double-count.
        t.deregister(on(&[1, 3]), &a);
        t.deregister(on(&[3, 5]), &b);
        assert_eq!(t.population.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stripes_sharing_a_bucket_register_once_and_wake_together() {
        let t = WaiterTable::new();
        let a = WaitCell::for_thread();
        let b = WaitCell::for_thread();
        // 2 and 2 + BUCKETS hash alike: one registration for both.
        t.register(on(&[2, 2 + BUCKETS]), &a);
        assert_eq!(t.population.load(Ordering::Relaxed), 1);
        t.register(on(&[3]), &b);
        // A sweep of a third stripe in the bucket wakes `a` (an extra
        // wake, never a missed one) and leaves `b`'s bucket alone.
        assert_eq!(t.wake_stripes([2 + 7 * BUCKETS]), 1);
        assert!(a.is_notified());
        assert!(!b.is_notified());
        assert_eq!(t.wake_stripes([3 + BUCKETS]), 1);
        assert!(b.is_notified());
    }

    #[test]
    fn deregister_removes_only_the_given_cell() {
        let t = WaiterTable::new();
        let a = WaitCell::for_thread();
        let b = WaitCell::for_thread();
        t.register(on(&[2]), &a);
        t.register(on(&[2]), &b);
        t.deregister(on(&[2]), &a);
        assert_eq!(t.population.load(Ordering::Relaxed), 1);
        assert_eq!(t.wake_stripes([2]), 1, "only b remains to wake");
        assert!(b.is_notified());
        assert!(!a.is_notified());
    }

    #[test]
    fn cross_thread_wake_unparks() {
        let t = Arc::new(WaiterTable::new());
        let cell = WaitCell::for_thread();
        t.register(on(&[0]), &cell);
        let waker = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.wake_stripes([0]))
        };
        assert!(cell.park(Duration::from_secs(30)), "woken, not timed out");
        assert_eq!(waker.join().expect("waker thread"), 1);
    }
}
