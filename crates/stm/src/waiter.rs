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

use std::collections::BinaryHeap;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock, Weak};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Safety-net ceiling on a logical wait (`Transaction::retry`): a parked
/// thread re-checks its predicate at least this often even if every wake
/// were lost. Long, because the wake path makes expiry the exception.
pub(crate) const RETRY_PARK_TIMEOUT: Duration = Duration::from_millis(250);

/// Park slice for a contention-manager [`Decision::Park`]
/// (crate::Decision::Park): short, because a conflict park has a weaker
/// wake guarantee — the conflicting commit may already be finished, with
/// no later commit due on any overlapping stripe.
pub(crate) const CONFLICT_PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// What a wake delivers to: a parked thread or a pending future's waker.
enum WakeTarget {
    Thread(std::thread::Thread),
    Waker(Waker),
}

/// One parked (or pending) attempt: a notification flag plus the wake
/// target. Shared between the waiter buckets it is registered in and the
/// parked attempt itself; `notify` delivers at most once however many
/// buckets drain it.
pub(crate) struct WaitCell {
    notified: AtomicBool,
    /// Set (before the wake fires) when the delivering notifier was the
    /// timer watchdog rather than a committing writer, so an async park
    /// can count the expiry as a spurious wake — the same ledger the
    /// blocking path keeps via `park`'s return value.
    timed_out: AtomicBool,
    target: WakeTarget,
}

impl WaitCell {
    /// A cell that wakes the calling thread (`thread::unpark`).
    pub(crate) fn for_thread() -> Arc<Self> {
        Arc::new(WaitCell {
            notified: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            target: WakeTarget::Thread(std::thread::current()),
        })
    }

    /// A cell that wakes a future (`Waker::wake_by_ref`).
    pub(crate) fn for_waker(waker: Waker) -> Arc<Self> {
        Arc::new(WaitCell {
            notified: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            target: WakeTarget::Waker(waker),
        })
    }

    /// Whether the cell has been notified (a pending future polls this
    /// indirectly by being woken; tests poll it directly).
    pub(crate) fn is_notified(&self) -> bool {
        self.notified.load(Ordering::Acquire)
    }

    /// Whether the delivering notifier was the timer watchdog. Read
    /// after the wake arrived.
    pub(crate) fn was_timeout(&self) -> bool {
        self.timed_out.load(Ordering::Acquire)
    }

    /// Delivers the wake exactly once; returns whether this call was the
    /// delivering one (a cell drained from several buckets is woken by
    /// the first and counted once).
    pub(crate) fn notify(&self) -> bool {
        self.deliver(false)
    }

    /// The timer watchdog's notify: same once-only delivery, but labels
    /// the wake a timeout so the woken poll can count it spurious. A
    /// cell a real commit already woke stays labelled real.
    pub(crate) fn notify_timeout(&self) -> bool {
        self.deliver(true)
    }

    fn deliver(&self, timed_out: bool) -> bool {
        if self.notified.swap(true, Ordering::SeqCst) {
            return false;
        }
        if timed_out {
            // Labelled before the wake fires, so the woken side's load
            // (which the wake itself orders after this store) sees it.
            self.timed_out.store(true, Ordering::Release);
        }
        match &self.target {
            WakeTarget::Thread(t) => t.unpark(),
            WakeTarget::Waker(w) => w.wake_by_ref(),
        }
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
            // Notify outside the bucket lock: an async wake can run
            // arbitrary waker code.
            for cell in drained {
                if cell.notify() {
                    woken += 1;
                }
            }
        }
        woken
    }
}

/// The async parking path's safety net: a lazily-started global timer
/// thread that [`WaitCell::notify_timeout`]s registered cells when their
/// deadline passes.
///
/// A *blocking* park carries its own timeout (`park_timeout`), but a
/// pending future is only re-polled when something fires its waker — and
/// a conflict park's wake guarantee is weak (the conflicting winner may
/// have committed and gone before the registration landed). Without a
/// runtime to lean on (the engine is executor-agnostic), this thread is
/// what re-polls such a future if no commit ever does. Cells are held
/// weakly, so a cancelled (dropped) future costs the timer nothing but a
/// failed upgrade; an already-woken cell's `notify_timeout` is a no-op.
/// One thread serves every `Stm` instance in the process — it spends its
/// life asleep in `Condvar::wait` and wakes at most once per outstanding
/// async conflict park.
struct TimerQueue {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    cv: Condvar,
}

struct TimerEntry {
    deadline: Instant,
    cell: Weak<WaitCell>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    /// Reversed: `BinaryHeap` is a max-heap and the timer wants the
    /// earliest deadline on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.deadline.cmp(&self.deadline)
    }
}

/// Arms the watchdog for `cell`: after `timeout`, the timer thread
/// delivers [`WaitCell::notify_timeout`] unless a real wake (or a
/// dropped future) got there first.
pub(crate) fn watchdog(cell: &Arc<WaitCell>, timeout: Duration) {
    let q = timer();
    let mut heap = q.heap.lock().expect("timer heap poisoned");
    heap.push(TimerEntry {
        deadline: Instant::now() + timeout,
        cell: Arc::downgrade(cell),
    });
    drop(heap);
    q.cv.notify_one();
}

fn timer() -> &'static TimerQueue {
    static TIMER: OnceLock<TimerQueue> = OnceLock::new();
    static SPAWN: Once = Once::new();
    let q = TIMER.get_or_init(|| TimerQueue {
        heap: Mutex::new(BinaryHeap::new()),
        cv: Condvar::new(),
    });
    SPAWN.call_once(|| {
        std::thread::Builder::new()
            .name("ptm-stm-timer".into())
            .spawn(move || timer_loop(q))
            .expect("spawn timer thread");
    });
    q
}

fn timer_loop(q: &'static TimerQueue) -> ! {
    let mut due: Vec<Arc<WaitCell>> = Vec::new();
    let mut heap = q.heap.lock().expect("timer heap poisoned");
    loop {
        let now = Instant::now();
        while heap.peek().is_some_and(|e| e.deadline <= now) {
            let entry = heap.pop().expect("peeked entry");
            // A dead Weak is a cancelled or already-resolved future.
            if let Some(cell) = entry.cell.upgrade() {
                due.push(cell);
            }
        }
        if !due.is_empty() {
            // Notify outside the heap lock: a waker can run arbitrary
            // executor code, and `watchdog` must never block behind it.
            drop(heap);
            for cell in due.drain(..) {
                cell.notify_timeout();
            }
            heap = q.heap.lock().expect("timer heap poisoned");
            continue;
        }
        heap = match heap.peek() {
            Some(e) => {
                let wait = e.deadline.saturating_duration_since(now);
                q.cv.wait_timeout(heap, wait).expect("timer condvar").0
            }
            None => q.cv.wait(heap).expect("timer condvar"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

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
    fn waker_cells_fire_the_waker() {
        struct CountingWaker(AtomicUsize);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let cell = WaitCell::for_waker(Waker::from(Arc::clone(&counter)));
        let t = WaiterTable::new(2);
        t.register(&[0, 1], &cell);
        assert_eq!(t.wake_stripes(&[0, 1]), 1);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "woken exactly once");
    }

    #[test]
    fn timeout_label_rides_only_the_delivering_wake() {
        // A real wake first: the later timeout delivery is suppressed
        // and must not relabel the cell.
        let real = WaitCell::for_thread();
        assert!(real.notify());
        assert!(!real.notify_timeout(), "second delivery suppressed");
        assert!(!real.was_timeout(), "a commit-delivered wake stays real");

        // A timeout first: labelled before the wake fires.
        let timed = WaitCell::for_thread();
        assert!(timed.notify_timeout());
        assert!(timed.was_timeout());
        assert!(!timed.notify(), "late real wake suppressed");
    }

    #[test]
    fn watchdog_delivers_a_timeout_wake() {
        let cell = WaitCell::for_thread();
        watchdog(&cell, Duration::from_millis(5));
        assert!(
            cell.park(Duration::from_secs(30)),
            "the timer thread's notify counts as a wake"
        );
        assert!(cell.was_timeout(), "watchdog wakes are labelled timeouts");
    }

    #[test]
    fn watchdog_tolerates_a_dropped_cell() {
        // A cancelled future drops its cell; the timer's Weak upgrade
        // fails and the expiry is a no-op. Arm a sibling afterwards to
        // prove the thread survived the dead entry.
        let doomed = WaitCell::for_thread();
        watchdog(&doomed, Duration::from_millis(1));
        drop(doomed);
        let cell = WaitCell::for_thread();
        watchdog(&cell, Duration::from_millis(10));
        assert!(cell.park(Duration::from_secs(30)));
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
