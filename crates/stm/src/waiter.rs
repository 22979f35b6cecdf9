//! Waiter parking: the blocking half of `retry`/`or_else`.
//!
//! A transaction whose data says "wait" (`Transaction::retry`) must get
//! out of the way instead of stealing cycles from the transactions that
//! can proceed. This module supplies the mechanism: one list of parked
//! threads per instance ([`Waiters`]), each listed with its
//! [`footprint`] — a 64-bit mask where stripe `s` sets bit `s % 64` —
//! and a wake sweep that every commit runs over the stripes it wrote,
//! right after its publish releases them.
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
//! * **parker**: push its entry and `fetch_or` its footprint into
//!   `registered` (under the list lock), `fence(SeqCst)` (the tail of
//!   [`Waiters::register`]), then *revalidate* — the read set is still
//!   current against the orec words / clock — and only park if so;
//! * **writer**: publish and release its stripe words (the commit's
//!   release-store; Tlrw: the `fetch_sub` of its writer flag; NOrec: the
//!   clock store), `fence(SeqCst)` (the head of [`Waiters::wake`]), then
//!   load `registered`.
//!
//! Sequentially-consistent fences forbid the outcome where *both* the
//! parker misses the writer's publish *and* the writer's load reads a
//! value of `registered` from before the parker's `fetch_or`. So either
//! the parker's revalidation fails (it withdraws and reruns — no sleep,
//! nothing to wake) or the writer's load reads the `fetch_or` or a later
//! write.
//!
//! **Why a later write still carries the parker's bits.** Every write to
//! `registered` happens under the list lock: the register's `fetch_or`,
//! and the store of the union of what is left that ends every sweep and
//! every withdraw. A store under the lock while the parker is still
//! listed includes its footprint, so a later store can drop the parker's
//! bits only after a sweep has drained and unparked the parker, or after
//! the parker withdrew — both of which end its wait. So the writer sees
//! the footprint whenever the parker still waits; if the mask of its
//! written stripes meets it, the writer takes the lock, which it can only
//! take after the parker's push (its load read that critical section's
//! write or a later one), and finds the entry. Folding stripes into 64
//! bits can wake extra waiters — stripes `s` and `s + 64` share a bit —
//! but never miss one: such a waiter runs again and, if still blocked,
//! parks again.
//!
//! Tlrw's logical waits need no fence argument at all: registration
//! happens while the parker still *holds* its read locks, so a
//! conflicting writer can only commit after the release that follows
//! registration in program order — its load of `registered` is ordered
//! after the push by the lock-word synchronization itself.
//!
//! ## What it costs
//!
//! The list comes with the instance: one word and an empty `Vec` behind
//! a mutex, whatever the stripe count. A park allocates nothing once the
//! list has held as many entries before. A commit with nobody parked
//! pays the fence and one load of `registered`; its stripes are not even
//! folded.
//!
//! Parks still carry a timeout ([`PARK_TIMEOUT`]) purely as a safety
//! net: the commit that readies a waiter wakes it. A timeout expiry is
//! counted as a `spurious_wake` in [`StmStats`](crate::StmStats), and
//! the torture suite asserts the net stays unused.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Safety-net ceiling on a park: a parked thread re-checks at least this
/// often even if every wake were lost. Long, because the wake path makes
/// expiry the exception.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(250);

/// The footprint of `stripes`: bit `s % 64` for each stripe `s`.
pub(crate) fn footprint(stripes: impl IntoIterator<Item = usize>) -> u64 {
    stripes.into_iter().fold(0, |mask, s| mask | 1 << (s % 64))
}

/// One instance's parked threads, each with its footprint, and the union
/// of the listed footprints, which a commit reads to skip the list.
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    registered: AtomicU64,
    list: Mutex<Vec<(u64, Thread)>>,
}

impl Waiters {
    fn lock(&self) -> MutexGuard<'_, Vec<(u64, Thread)>> {
        self.list.lock().expect("waiter list poisoned")
    }

    /// Lists the calling thread with footprint `mask`, then issues the
    /// `SeqCst` fence that orders the registration before the caller's
    /// revalidation loads (the parker's half of the store-buffering
    /// handshake — see the module docs).
    pub(crate) fn register(&self, mask: u64) {
        let mut list = self.lock();
        list.push((mask, thread::current()));
        self.registered.fetch_or(mask, Ordering::SeqCst);
        drop(list);
        fence(Ordering::SeqCst);
    }

    /// Takes the calling thread off the list; `false` if a sweep already
    /// did. A thread is listed at most once: it parks one attempt at a
    /// time.
    pub(crate) fn withdraw(&self) -> bool {
        let me = thread::current().id();
        let mut list = self.lock();
        let Some(i) = list.iter().position(|(_, t)| t.id() == me) else {
            return false;
        };
        list.swap_remove(i);
        self.registered.store(union(&list), Ordering::Relaxed);
        true
    }

    /// Parks the calling thread until a sweep takes it off the list
    /// (`true`) or `timeout` elapses, when it withdraws itself (`false`,
    /// unless a sweep won that race). A spurious return, or a stray
    /// unpark from the sweep that ended an earlier park, only re-checks
    /// the list.
    pub(crate) fn park(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let me = thread::current().id();
        while self.lock().iter().any(|(_, t)| t.id() == me) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return !self.withdraw();
            };
            thread::park_timeout(remaining);
        }
        true
    }

    /// A publishing writer's wake sweep: fence (its half of the
    /// handshake), then take off the list and unpark every thread whose
    /// footprint meets the released `stripes`. Returns how many it woke.
    /// With nobody parked the cost is the fence plus one load.
    pub(crate) fn wake(&self, stripes: impl IntoIterator<Item = usize>) -> u64 {
        fence(Ordering::SeqCst);
        let registered = self.registered.load(Ordering::Relaxed);
        if registered == 0 {
            return 0;
        }
        let mask = footprint(stripes);
        if mask & registered == 0 {
            return 0;
        }
        let mut woken = 0;
        let mut list = self.lock();
        list.retain(|(m, t)| {
            let hit = m & mask != 0;
            if hit {
                t.unpark();
                woken += 1;
            }
            !hit
        });
        self.registered.store(union(&list), Ordering::Relaxed);
        woken
    }
}

/// The union of the listed footprints.
fn union(list: &[(u64, Thread)]) -> u64 {
    list.iter().fold(0, |u, (m, _)| u | m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn registered(w: &Waiters) -> u64 {
        w.registered.load(Ordering::Relaxed)
    }

    fn listed(w: &Waiters) -> usize {
        w.lock().len()
    }

    #[test]
    fn park_times_out_without_a_waker_and_withdraws() {
        let w = Waiters::default();
        w.register(footprint([0]));
        let start = Instant::now();
        assert!(!w.park(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!((listed(&w), registered(&w)), (0, 0));
    }

    #[test]
    fn register_wake_withdraw_keep_the_union_exact() {
        let w = Waiters::default();
        w.register(footprint([1, 3]));
        assert_eq!(registered(&w), 0b1010);
        // Waking stripe 3 takes the entry off and clears its bits.
        assert_eq!(w.wake([3]), 1);
        assert_eq!((listed(&w), registered(&w)), (0, 0));
        // Nobody left: a sweep of its other stripe wakes nothing, and a
        // withdraw after the drain finds nothing to remove.
        assert_eq!(w.wake([1]), 0);
        assert!(!w.withdraw());
        assert!(
            w.park(Duration::from_secs(5)),
            "already woken: returns at once"
        );
    }

    #[test]
    fn footprints_fold_stripes_modulo_64() {
        // `s` and `s + 64` share a bit; `s` and `s + 16` do not.
        assert_eq!(footprint([2]), footprint([2 + 64]));
        assert_eq!(footprint([2, 2 + 7 * 64]), 1 << 2);
        assert_eq!(footprint([2]) & footprint([2 + 16]), 0);
        let w = Waiters::default();
        w.register(footprint([2]));
        assert_eq!(w.wake([2 + 16]), 0, "a neighbour 16 away is not woken");
        assert_eq!(w.wake([2 + 64]), 1, "one 64 away shares the bit");
    }

    #[test]
    fn withdraw_removes_only_the_callers_entry() {
        let w = Arc::new(Waiters::default());
        let other = {
            let w = Arc::clone(&w);
            thread::spawn(move || {
                w.register(footprint([5]));
                assert!(w.park(Duration::from_secs(30)), "woken, not timed out");
            })
        };
        while listed(&w) == 0 {
            thread::yield_now();
        }
        w.register(footprint([2]));
        assert!(w.withdraw());
        assert_eq!(
            (listed(&w), registered(&w)),
            (1, 1 << 5),
            "the union is recomputed"
        );
        assert!(!w.withdraw(), "listed at most once");
        assert_eq!(w.wake([5]), 1, "only the other thread remains to wake");
        other.join().expect("other thread");
    }

    #[test]
    fn a_sweep_that_misses_every_footprint_changes_nothing() {
        let w = Waiters::default();
        w.register(footprint([1, 3]));
        assert_eq!(w.wake([0, 2, 4, 63]), 0);
        assert_eq!((listed(&w), registered(&w)), (1, 0b1010));
        assert!(w.withdraw());
        assert_eq!((listed(&w), registered(&w)), (0, 0));
    }

    #[test]
    fn a_stray_unpark_does_not_end_a_listed_park() {
        let w = Arc::new(Waiters::default());
        let parked = {
            let w = Arc::clone(&w);
            thread::spawn(move || {
                w.register(footprint([4]));
                let start = Instant::now();
                let woken = w.park(Duration::from_millis(200));
                (woken, start.elapsed())
            })
        };
        while listed(&w) == 0 {
            thread::yield_now();
        }
        // An unpark with no sweep behind it, as an earlier sweep's late
        // unpark would be: the thread re-checks the list and parks on.
        parked.thread().unpark();
        let (woken, waited) = parked.join().expect("parked thread");
        assert!(!woken, "it timed out, still listed");
        assert!(
            waited >= Duration::from_millis(200),
            "returned after {waited:?}"
        );
        assert_eq!((listed(&w), registered(&w)), (0, 0));
    }

    #[test]
    fn cross_thread_wake_unparks() {
        let w = Arc::new(Waiters::default());
        w.register(footprint([0]));
        let waker = {
            let w = Arc::clone(&w);
            thread::spawn(move || w.wake([0]))
        };
        assert!(w.park(Duration::from_secs(30)), "woken, not timed out");
        assert_eq!(waker.join().expect("waker thread"), 1);
    }
}
