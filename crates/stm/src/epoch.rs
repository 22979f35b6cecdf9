//! Epoch-based memory reclamation for the lock-free read path.
//!
//! [`TVar`](crate::TVar) values are immutable heap boxes published through
//! an atomic pointer; a transactional read is therefore just
//! *load-pointer, clone* with no lock acquired. The hazard is the writer
//! side: a commit swaps the pointer and must not free the old box while
//! some reader is still cloning it.
//!
//! This module runs Fraser's three-epoch scheme, the way crossbeam-epoch
//! runs it:
//!
//! * every transaction **pins**: it copies the global epoch into a
//!   per-thread, cache-padded slot and issues a `SeqCst` fence — once per
//!   transaction, *not* per read, so reads stay invisible in the paper's
//!   sense ([`pin`]);
//! * a committing writer swaps its pointers first and only then
//!   **retires** the displaced boxes: a `SeqCst` fence, then a plain load
//!   of the global epoch, which tags the batch ([`retire_batch`]). No
//!   commit writes the global epoch, so writers on disjoint stores share
//!   no cache line through it;
//! * a thread **collects** once it has retired [`COLLECT_THRESHOLD`]
//!   boxes since its last collection. The collector advances the global
//!   epoch one CAS at a time, and only when every pinned slot shows the
//!   current epoch; a box tagged `t` is freed once the epoch reaches
//!   `t + 2`.
//!
//! A thread collects only while unpinned — at its outermost unpin, or
//! when it retires outside any transaction. Garbage retired inside a
//! transaction cannot be freed before that transaction unpins anyway
//! (the thread's own slot holds the epoch back), and at the unpin the
//! collector may take both advances the bag needs, so a transaction's
//! garbage does not outlive it by an extra epoch window. While the bag
//! still holds [`COLLECT_THRESHOLD`] boxes after a collection (another
//! thread held the epoch back), each unpin counts toward the next one:
//! a reading thread retries every `COLLECT_THRESHOLD` operations, not
//! on every unpin.
//!
//! ## Why two advances are enough
//!
//! Three `SeqCst` fences carry the argument; the C++20 / Rust memory
//! model orders all of them in one total order `S`:
//!
//! * `F_R`, a reader R's pin fence: after R's store to its slot, before
//!   any pointer R loads;
//! * `F_W`, a writer W's retire fence: after W unlinked a box `G`,
//!   before W loads the epoch `t` that tags `G`;
//! * `F_C`, a collector C's fence: after C loads the epoch, before it
//!   scans the slots.
//!
//! The pairings rest on one rule ([atomics.order] p4): if `X` is a
//! `SeqCst` fence sequenced before an access `A`, `Y` one sequenced
//! after an access `B` to the same location, and `A` is coherence-ordered
//! before `B`, then `X` precedes `Y` in `S`. Suppose R, pinned at epoch
//! `e`, dereferences `G`, and let C be the collector whose CAS moved the
//! epoch from `t + 1` to `t + 2`; C loaded `t + 1` before `F_C`.
//!
//! 1. **`F_W` precedes `F_C`.** W's load read `t`, older than the
//!    `t + 1` that C's load read: pairing W's load (after `F_W`) with
//!    C's load (before `F_C`).
//! 2. **If `F_W` precedes `F_R`, R never sees `G`.** W's unlink comes
//!    before `F_W` and R's pointer loads after `F_R`, so those loads see
//!    the unlink or something newer: pairing W's unlink store with R's
//!    pointer loads.
//! 3. **Otherwise `F_R` precedes `F_W`, and then `e <= t`.** Had R's
//!    epoch load (before `F_R`) read something newer than W's (after
//!    `F_W`), `F_W` would precede `F_R`: pairing W's epoch load with
//!    R's.
//! 4. **And then C did not see R pinned.** `F_R` precedes `F_W`, which
//!    precedes `F_C` (step 1), so C's slot scan reads R's pin store or a
//!    newer value: pairing R's slot store with C's slot load. Had C read
//!    R still pinned at `e <= t < t + 1`, it would not have advanced. So
//!    C read R's unpin, or a later pin, both `Release` stores R made
//!    after its last dereference of `G`; C's `Acquire` slot load, C's
//!    `Release` CAS and the freeing thread's `Acquire` epoch load (which
//!    reads C's CAS or a later one in its release sequence) order that
//!    dereference before the free.
//!
//! A slot that registers after C's scan took the registry lock is the
//! late case of step 2: its pin fence follows `F_C` through the lock.
//! The orderings this needs are exactly these: pin = load, `Release`
//! store, `fence(SeqCst)`; unpin = `Release` store; retire =
//! `fence(SeqCst)`, load; collect = `Acquire` load, `fence(SeqCst)`,
//! `Acquire` slot loads, `AcqRel` CAS.
//!
//! ## Snapshot low-watermark (multi-version reclamation)
//!
//! [`Algorithm::Mv`](crate::Algorithm::Mv) adds a second reclamation
//! question the epoch scan cannot answer: a superseded value box is not
//! garbage merely because no thread still *dereferences* it — a snapshot
//! reader may legitimately come back for it as long as its transaction
//! is live. [`SnapshotRegistry`] answers it: every Mv transaction
//! publishes its snapshot timestamp in a per-thread, cache-padded slot
//! for its duration, and the **low watermark** — the minimum over all
//! active slots, floored by the clock of the timestamp domain (an
//! instance and those built beside it) read *before* the scan —
//! bounds which versions any live or future snapshot can still reach.
//! Committers trim version chains against it
//! ([`AnyTVar::trim_chain`](crate::tvar::AnyTVar::trim_chain)) and
//! retire the detached suffix through the ordinary epoch machinery
//! above, which handles the (already-traversing) dereference hazard.
//!
//! The registration protocol is *read clock, store slot, re-check clock
//! unchanged* — and the watermark scan reads the
//! clock floor **before** the slots. Together these order every
//! missed-slot race: a scanner that missed a just-registering reader
//! read its floor before the reader's final store, so the reader's
//! re-checked snapshot is at least that floor and everything the scanner
//! trims is older than what the reader can reach.
//!
//! ### Finding the slot
//!
//! A thread keeps its snapshot slots in a thread-local `Vec`, one entry
//! per registry it has pinned, searched linearly by registry id: a
//! thread pins a handful of domains (a sharded store is one), so the
//! search is a compare or two, with no hashing. The first pin on a
//! registry registers a slot under the registry's lock, pruning the
//! entries (and slots) of registries dropped since. After that a pin or
//! an unpin writes only the thread's own slot — no shared
//! read-modify-write — so the watermark cannot know that nothing is
//! pinned without looking: [`SnapshotRegistry::watermark`] always takes
//! the slot lock and runs the floor-first scan above. Committers compute
//! it once per publish group, inside their stripe-locked section.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Epoch value meaning "this slot's thread is not inside a transaction".
const QUIESCENT: u64 = u64::MAX;

/// Collect once this many boxes were retired since the last collection.
const COLLECT_THRESHOLD: usize = 64;

/// Global epoch; only collectors write it, one CAS per advance.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// All live participant slots; scanned (under the lock) by collectors.
static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// Garbage from threads that exited before their bag drained.
static ORPHANS: Mutex<Vec<Retired>> = Mutex::new(Vec::new());

/// Cheap-to-read size of [`ORPHANS`], so the retire path can trigger an
/// orphan sweep without taking the lock just to look.
static ORPHAN_PRESSURE: AtomicU64 = AtomicU64::new(0);

/// One participant's published epoch; padded so pin/unpin stores never
/// false-share with a neighbour's.
#[repr(align(128))]
struct Slot {
    epoch: AtomicU64,
}

/// A value box swapped out of a `TVar`, awaiting a safe free.
pub(crate) struct Retired {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
    epoch: u64,
}

// SAFETY: `ptr` is the sole remaining owner of the boxed value (it was
// swapped out of the `TVar` and exists only in one bag at a time), and
// `Retired::new` requires `T: Send`, so dropping on another thread is fine.
unsafe impl Send for Retired {}

impl Retired {
    /// Takes ownership of a box previously leaked with `Box::into_raw`.
    pub(crate) fn new<T: Send + 'static>(ptr: *mut T) -> Self {
        unsafe fn drop_box<T>(p: *mut ()) {
            // SAFETY: `p` came from `Box::into_raw::<T>` in `Retired::new`
            // and is dropped exactly once, by `Retired::drop`.
            drop(unsafe { Box::from_raw(p.cast::<T>()) });
        }
        Retired {
            ptr: ptr.cast(),
            drop_fn: drop_box::<T>,
            epoch: 0,
        }
    }
}

impl Drop for Retired {
    fn drop(&mut self) {
        // SAFETY: see `Retired::new`; the collector only drops a `Retired`
        // once its epoch is provably unreachable by pinned readers.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

struct Local {
    slot: Arc<Slot>,
    bag: Vec<Retired>,
    /// What a collection frees, kept between collections so collecting
    /// allocates nothing; sized on the retire path to hold the whole
    /// bag. Taken out while its contents drop (see [`collect`]).
    scratch: Vec<Retired>,
    /// Boxes retired, plus unpins with [`COLLECT_THRESHOLD`] boxes still
    /// bagged, since the last collection.
    pending: usize,
    pins: usize,
}

impl Local {
    fn register() -> Local {
        let slot = Arc::new(Slot {
            epoch: AtomicU64::new(QUIESCENT),
        });
        REGISTRY
            .lock()
            .expect("epoch registry poisoned")
            .push(Arc::clone(&slot));
        Local {
            slot,
            bag: Vec::new(),
            scratch: Vec::new(),
            pending: 0,
            pins: 0,
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Hand unfinished garbage to the global orphan list and retire the
        // slot so it no longer blocks collection.
        self.slot.epoch.store(QUIESCENT, Ordering::Release);
        if !self.bag.is_empty() {
            // Do not drop user values here: thread-local storage is being
            // torn down, and a value's `Drop` may legitimately pin the
            // epoch again. Hand everything to the orphan list; the next
            // collection on any live thread sweeps it (ORPHAN_PRESSURE
            // makes sure small bags still trigger that sweep).
            ORPHAN_PRESSURE.fetch_add(self.bag.len() as u64, Ordering::Relaxed);
            if let Ok(mut orphans) = ORPHANS.lock() {
                orphans.append(&mut self.bag);
            }
        }
        if let Ok(mut registry) = REGISTRY.lock() {
            registry.retain(|s| !Arc::ptr_eq(s, &self.slot));
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::register());
}

/// Proof of participation: while alive, this thread's slot publishes an
/// epoch no newer than any pointer it may have loaded. Not `Send` — the
/// pin lives in a thread-local slot.
pub(crate) struct Guard {
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pins the current thread. Reentrant: nested pins keep the outermost
/// (oldest, most conservative) published epoch.
pub(crate) fn pin() -> Guard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.pins == 0 {
            // A stale epoch is fine: it only holds collectors back. The
            // fence is `F_R` of the module docs — it orders the slot store
            // before every pointer this pin protects.
            l.slot
                .epoch
                .store(EPOCH.load(Ordering::Relaxed), Ordering::Release);
            fence(Ordering::SeqCst);
        }
        l.pins += 1;
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // A thread-local can be torn down before late guards on the same
        // thread; losing the unpin store then is harmless (the slot was
        // already retired from the registry).
        let due = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.pins -= 1;
            if l.pins > 0 {
                return false;
            }
            // Release: every dereference this pin covered happens before
            // a collector that reads this store frees anything.
            l.slot.epoch.store(QUIESCENT, Ordering::Release);
            if l.bag.len() >= COLLECT_THRESHOLD {
                l.pending += 1;
            }
            l.pending >= COLLECT_THRESHOLD
        });
        if due == Ok(true) {
            collect();
        }
    }
}

/// Retires value boxes swapped out by one commit, draining `retired`
/// (the caller keeps the emptied buffer — the commit path's lives in the
/// recycled transaction log, so retiring allocates nothing). Must be
/// called *after* all the pointer swaps it covers: the fence below is
/// `F_W` of the module docs, and the tag it reads must postdate them.
pub(crate) fn retire_batch(retired: &mut Vec<Retired>) {
    if retired.is_empty() {
        return;
    }
    fence(Ordering::SeqCst);
    let tag = EPOCH.load(Ordering::Relaxed);
    for r in retired.iter_mut() {
        r.epoch = tag;
    }
    let due = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.pending += retired.len();
        l.bag.append(retired);
        // Grow the scratch list here, with the bag, so that no collection
        // allocates — not even one an unpin starts on a read-only
        // operation. A no-op once the bag has reached its steady size.
        let bagged = l.bag.len();
        l.scratch.reserve(bagged);
        if ORPHAN_PRESSURE.load(Ordering::Relaxed) >= COLLECT_THRESHOLD as u64 {
            l.pending = l.pending.max(COLLECT_THRESHOLD);
        }
        // Inside a transaction, the outermost unpin collects instead.
        l.pins == 0 && l.pending >= COLLECT_THRESHOLD
    });
    if due {
        collect();
    }
}

/// Frees what this thread's bag and the orphan list no longer need:
/// advances the epoch as far as the bag's newest tag requires (at most
/// two steps, fewer if some pinned thread holds it back), then moves
/// every box tagged two advances back into the scratch list and drops it
/// there — outside the thread-local borrow and the orphan lock, since a
/// value's `Drop` may itself pin or retire. Called unpinned.
fn collect() {
    let Ok(mut to_free) = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        l.pending = 0;
        let newest = l.bag.iter().map(|r| r.epoch).max().unwrap_or(0);
        let epoch = advance_to(newest + 2);
        let mut to_free = std::mem::take(&mut l.scratch);
        take_freeable(&mut l.bag, epoch, &mut to_free);
        drop(l);
        if let Ok(mut orphans) = ORPHANS.lock() {
            let freed = take_freeable(&mut orphans, epoch, &mut to_free);
            if freed > 0 {
                ORPHAN_PRESSURE.fetch_sub(freed as u64, Ordering::Relaxed);
            }
        }
        to_free
    }) else {
        return;
    };
    to_free.clear();
    let _ = LOCAL.try_with(|l| l.borrow_mut().scratch = to_free);
}

/// Advances the global epoch toward `target`, one CAS per step, each
/// step only if every pinned slot shows the current epoch. Returns the
/// epoch reached (possibly moved further by a rival collector).
fn advance_to(target: u64) -> u64 {
    let mut epoch = EPOCH.load(Ordering::Acquire);
    if epoch >= target {
        return epoch;
    }
    let registry = REGISTRY.lock().expect("epoch registry poisoned");
    while epoch < target {
        // `F_C` of the module docs: after the load of `epoch` (the one
        // above, or the CAS below), before the slot scan.
        fence(Ordering::SeqCst);
        let lagging = registry.iter().any(|s| {
            let e = s.epoch.load(Ordering::Acquire);
            e != QUIESCENT && e != epoch
        });
        if lagging {
            break;
        }
        epoch = match EPOCH.compare_exchange(epoch, epoch + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => epoch + 1,
            Err(now) => now,
        };
    }
    epoch
}

/// Moves every box of `from` that two advances have passed (`tag + 2 <=
/// epoch`) into `out`; returns how many.
fn take_freeable(from: &mut Vec<Retired>, epoch: u64, out: &mut Vec<Retired>) -> usize {
    let before = out.len();
    let mut i = 0;
    while i < from.len() {
        if from[i].epoch + 2 <= epoch {
            out.push(from.swap_remove(i));
        } else {
            i += 1;
        }
    }
    out.len() - before
}

/// Slot value meaning "this thread holds no active snapshot here".
const NO_SNAPSHOT: u64 = u64::MAX;

static SNAP_REGISTRY_IDS: AtomicU64 = AtomicU64::new(0);

/// One thread's published snapshot timestamp for one registry; padded so
/// begin/end stores never false-share with a neighbour's.
#[repr(align(128))]
struct SnapSlot {
    rv: AtomicU64,
}

struct SnapShared {
    /// Distinguishes registries (one per timestamp domain) in the
    /// per-thread slot cache.
    id: u64,
    /// All live slots; scanned (under the lock) by `watermark`.
    slots: Mutex<Vec<Arc<SnapSlot>>>,
}

/// This thread's cached slot for one registry, with its reentrancy
/// depth (nested transactions on one instance share the outer — older,
/// more conservative — snapshot).
struct SnapEntry {
    /// The registry's `id`, the key a pin searches for.
    id: u64,
    registry: Weak<SnapShared>,
    slot: Arc<SnapSlot>,
    depth: usize,
}

impl Drop for SnapEntry {
    fn drop(&mut self) {
        // Thread teardown, or a pruned entry of a dropped registry: make
        // sure the slot never clamps the watermark forever, and
        // deregister it so a long-lived instance serving many
        // short-lived threads does not accumulate dead slots (each one
        // padded, and scanned by every watermark computation) — the same
        // discipline `Local::drop` applies to the epoch registry above.
        self.slot.rv.store(NO_SNAPSHOT, Ordering::SeqCst);
        if let Some(reg) = self.registry.upgrade() {
            if let Ok(mut slots) = reg.slots.lock() {
                slots.retain(|s| !Arc::ptr_eq(s, &self.slot));
            }
        }
    }
}

thread_local! {
    /// This thread's slot per registry, searched linearly by registry
    /// id: a thread pins a handful of timestamp domains at most (a
    /// `ShardedKv` store is one), so the search is a compare or two.
    static SNAPSHOTS: RefCell<Vec<SnapEntry>> = const { RefCell::new(Vec::new()) };
}

/// Active-snapshot registry of one timestamp domain — a multi-version
/// [`Stm`](crate::Stm) instance and the instances built beside it,
/// which share it by cloning: who is reading at which timestamp, and
/// therefore how far back version chains must reach (the low
/// watermark).
#[derive(Clone)]
pub(crate) struct SnapshotRegistry {
    shared: Arc<SnapShared>,
}

impl std::fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field(
                "slots",
                &self.shared.slots.lock().map(|s| s.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        SnapshotRegistry {
            shared: Arc::new(SnapShared {
                id: SNAP_REGISTRY_IDS.fetch_add(1, Ordering::Relaxed),
                slots: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Publishes this thread's snapshot timestamp (drawn from `clock`)
    /// and returns it with a guard that withdraws it. Reentrant: a
    /// nested transaction on the same instance keeps the slot publishing
    /// the **outer** (older, more conservative) snapshot — which
    /// protects both — but draws its own rv fresh from the clock, so an
    /// inner attempt retried after a conflicting commit sees that
    /// commit and can validate (reusing the stale outer rv would retry
    /// forever against a stripe stamped past it).
    ///
    /// The store/re-check loop makes the published value at least as new
    /// as any watermark floor a concurrent scanner read before missing
    /// this slot (see the module docs); it retries only when a commit
    /// ticks the clock inside the three-instruction window. The nested
    /// path needs no such loop: the slot already publishes a value no
    /// newer than any rv returned here. Neither path writes a location
    /// another thread writes.
    pub(crate) fn pin(&self, clock: &AtomicU64) -> (u64, SnapshotGuard<'_>) {
        let rv = SNAPSHOTS.with(|m| {
            let mut m = m.borrow_mut();
            let i = match m.iter().position(|e| e.id == self.shared.id) {
                Some(i) => i,
                None => self.register(&mut m),
            };
            let e = &mut m[i];
            if e.depth > 0 {
                e.depth += 1;
                return clock.load(Ordering::SeqCst);
            }
            let rv = loop {
                let rv = clock.load(Ordering::SeqCst);
                e.slot.rv.store(rv, Ordering::SeqCst);
                if clock.load(Ordering::SeqCst) == rv {
                    break rv;
                }
            };
            e.depth = 1;
            rv
        });
        (
            rv,
            SnapshotGuard {
                shared: &self.shared,
                _not_send: std::marker::PhantomData,
            },
        )
    }

    /// This thread's first pin here: prunes the entries of dropped
    /// registries (their slots go with them), then adds a slot to the
    /// registry and an entry for it to `cache`; returns the entry's
    /// index.
    fn register(&self, cache: &mut Vec<SnapEntry>) -> usize {
        cache.retain(|e| e.registry.strong_count() > 0);
        let slot = Arc::new(SnapSlot {
            rv: AtomicU64::new(NO_SNAPSHOT),
        });
        self.shared
            .slots
            .lock()
            .expect("snapshot registry poisoned")
            .push(Arc::clone(&slot));
        cache.push(SnapEntry {
            id: self.shared.id,
            registry: Arc::downgrade(&self.shared),
            slot,
            depth: 0,
        });
        cache.len() - 1
    }

    /// One more pin under the snapshot this thread already publishes
    /// here: no clock read, no shared write — the slot keeps publishing
    /// the outer (older, more conservative) snapshot until the last
    /// guard goes. What a sibling transaction
    /// ([`Transaction::beside`](crate::Transaction::beside)) pins with,
    /// since it reads at its opener's `rv`, which the slot already
    /// protects.
    ///
    /// # Panics
    ///
    /// Panics if this thread holds no pin on the registry.
    pub(crate) fn nest(&self) -> SnapshotGuard<'_> {
        SNAPSHOTS.with(|m| {
            let mut m = m.borrow_mut();
            let e = m
                .iter_mut()
                .find(|e| e.id == self.shared.id && e.depth > 0)
                .expect("a nested snapshot pin needs an outer one on this thread");
            e.depth += 1;
        });
        SnapshotGuard {
            shared: &self.shared,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The oldest snapshot any live transaction of this domain may be
    /// reading under — floored by the clock read *before* the slot scan,
    /// so a registering reader the scan misses is provably protected
    /// (its re-checked snapshot postdates this floor; see the module
    /// docs). One lock and one load per slot of the domain.
    pub(crate) fn watermark(&self, clock: &AtomicU64) -> u64 {
        let floor = clock.load(Ordering::SeqCst);
        let slots = self
            .shared
            .slots
            .lock()
            .expect("snapshot registry poisoned");
        slots
            .iter()
            .map(|s| s.rv.load(Ordering::SeqCst))
            .min()
            .unwrap_or(NO_SNAPSHOT)
            .min(floor)
    }
}

/// Withdraws a snapshot published by [`SnapshotRegistry::pin`] when
/// dropped. Borrows the registry it pinned, whose id finds the slot.
/// Not `Send` — the snapshot lives in a thread-local slot.
pub(crate) struct SnapshotGuard<'a> {
    shared: &'a SnapShared,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        // Thread-local teardown before a late guard is handled by
        // `SnapEntry::drop`, which clears and deregisters the slot.
        let _ = SNAPSHOTS.try_with(|m| {
            let mut m = m.borrow_mut();
            if let Some(e) = m.iter_mut().find(|e| e.id == self.shared.id) {
                e.depth -= 1;
                if e.depth == 0 {
                    e.slot.rv.store(NO_SNAPSHOT, Ordering::SeqCst);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Increments its counter on drop; counters are per-test so parallel
    /// tests sharing the global epoch machinery do not interfere.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retired_boxes_are_eventually_freed() {
        let drops = Arc::new(AtomicUsize::new(0));
        // This thread holds no pin, so our garbage becomes collectible as
        // soon as every *other* thread's transient pin moves past its tag;
        // keep retiring until the collector catches up.
        for round in 0.. {
            let b = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
            retire_batch(&mut vec![Retired::new(b)]);
            if drops.load(Ordering::SeqCst) > 0 {
                break;
            }
            assert!(round < 100_000, "garbage was never collected");
            if round % 1_000 == 0 {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn pinned_reader_blocks_collection_of_newer_garbage() {
        let _guard = pin();
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..(COLLECT_THRESHOLD * 2) {
            let b = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
            retire_batch(&mut vec![Retired::new(b)]);
        }
        // Everything retired after our pin carries a newer epoch than our
        // slot publishes, so nothing may be freed while we are pinned.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pin_is_reentrant() {
        let a = pin();
        let b = pin();
        drop(a);
        drop(b);
        let _c = pin();
    }

    #[test]
    fn garbage_retired_in_a_transaction_is_freed_after_the_thread_leaves_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let retired = 2 * COLLECT_THRESHOLD;
        {
            let _in_transaction = pin();
            for _ in 0..retired {
                let b = Box::into_raw(Box::new(Counted(Arc::clone(&drops))));
                retire_batch(&mut vec![Retired::new(b)]);
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under the pin");
        }
        // The unpin above collected, taking both advances this garbage
        // needs unless another test's thread held the epoch back; then
        // every `COLLECT_THRESHOLD` unpins retry. No further retirement
        // is needed — this thread retires nothing more.
        for round in 0.. {
            if drops.load(Ordering::SeqCst) == retired {
                break;
            }
            assert!(round < 100_000, "garbage outlived the transaction");
            drop(pin());
            if round % 1_000 == 999 {
                std::thread::yield_now();
            }
        }
    }

    /// A value whose `Drop` overwrites its magic word: a reader that
    /// ever sees the poison read a node the collector freed (or was
    /// freeing) under it.
    #[derive(Clone, PartialEq)]
    struct Canary {
        word: u64,
        n: u64,
    }

    const MAGIC: u64 = 0x5afe_5afe_5afe_5afe;

    impl Drop for Canary {
        fn drop(&mut self) {
            // Volatile, so the dead store is kept.
            // SAFETY: `&mut self.word` is valid, aligned and exclusive.
            unsafe { std::ptr::write_volatile(&mut self.word, 0xdead) };
        }
    }

    #[test]
    fn readers_never_see_a_reclaimed_value() {
        use crate::{Algorithm, Stm, TVar};
        use std::sync::atomic::AtomicBool;
        const WRITES: u64 = 5_000;
        const HOLD: usize = 1_000;
        for algorithm in [Algorithm::Tl2, Algorithm::Mv] {
            let stm = Stm::new(algorithm);
            let var = TVar::new(Canary { word: MAGIC, n: 0 });
            // A writer on a second instance: its collections advance the
            // same process-wide epoch under the readers' pins.
            let other = Stm::tl2();
            let elsewhere = TVar::new(0u64);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            // Keep the node in hand a while, re-reading
                            // the word each time, to widen the window in
                            // which a premature free would land.
                            stm.atomically(|tx| {
                                tx.read_with(&var, |c| {
                                    // Checked inside the read: a read the
                                    // re-check discards may still have
                                    // touched a freed node.
                                    for _ in 0..HOLD {
                                        // SAFETY: `c.word` is a valid,
                                        // aligned `u64` behind a live `&`.
                                        let word = unsafe { std::ptr::read_volatile(&c.word) };
                                        assert_eq!(
                                            word, MAGIC,
                                            "{algorithm:?}: read a reclaimed value"
                                        );
                                    }
                                })
                            });
                        }
                    });
                }
                s.spawn(|| {
                    for i in 0..WRITES {
                        other.atomically(|tx| tx.write(&elsewhere, i));
                    }
                });
                // Each commit retires a collection's worth of nodes, so
                // its own unpin collects the `var` node it displaced.
                let fillers: Vec<TVar<u64>> =
                    (0..COLLECT_THRESHOLD as u64).map(TVar::new).collect();
                for n in 1..=WRITES {
                    stm.atomically(|tx| {
                        for f in &fillers {
                            tx.write(f, n)?;
                        }
                        tx.write(&var, Canary { word: MAGIC, n })
                    });
                }
                done.store(true, Ordering::Release);
            });
            assert_eq!(var.load().n, WRITES);
        }
    }

    #[test]
    fn active_snapshots_clamp_the_watermark() {
        let reg = SnapshotRegistry::new();
        let clock = AtomicU64::new(5);
        let (rv, g) = reg.pin(&clock);
        assert_eq!(rv, 5);
        clock.store(40, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 5, "pinned snapshot holds it");
        drop(g);
        assert_eq!(reg.watermark(&clock), 40, "released: clock floor");
    }

    #[test]
    fn nested_pins_publish_the_outer_snapshot_but_read_fresh() {
        let reg = SnapshotRegistry::new();
        let clock = AtomicU64::new(3);
        let (outer, g1) = reg.pin(&clock);
        clock.store(9, Ordering::SeqCst);
        let (inner, g2) = reg.pin(&clock);
        assert_eq!(outer, 3);
        assert_eq!(
            inner, 9,
            "a nested attempt draws its snapshot fresh (a retry must be \
             able to see the commit that aborted it)"
        );
        assert_eq!(
            reg.watermark(&clock),
            3,
            "the slot keeps publishing the outer snapshot, protecting both"
        );
        drop(g2);
        assert_eq!(reg.watermark(&clock), 3, "outer still active");
        drop(g1);
        assert_eq!(reg.watermark(&clock), 9);
    }

    #[test]
    fn dead_threads_deregister_their_snapshot_slots() {
        let reg = Arc::new(SnapshotRegistry::new());
        let clock = AtomicU64::new(4);
        let slot_count = |r: &SnapshotRegistry| r.shared.slots.lock().unwrap().len();
        for _ in 0..8 {
            let reg2 = Arc::clone(&reg);
            std::thread::spawn(move || {
                let c = AtomicU64::new(9);
                let (_, _g) = reg2.pin(&c);
            })
            .join()
            .expect("worker");
        }
        assert_eq!(
            slot_count(&reg),
            0,
            "exited threads must not leave slots behind"
        );
        let (_, _g) = reg.pin(&clock);
        assert_eq!(slot_count(&reg), 1, "this thread's slot is live");
    }

    #[test]
    fn watermark_is_the_clock_with_no_active_snapshot() {
        let reg = SnapshotRegistry::new();
        let clock = AtomicU64::new(17);
        assert_eq!(reg.watermark(&clock), 17, "no pin: clock floor");
        clock.store(99, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 99);
        // A pin/unpin cycle leaves nothing behind.
        let (_, g) = reg.pin(&clock);
        drop(g);
        clock.store(120, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 120);
    }

    #[test]
    fn watermark_under_two_pins_is_exact() {
        use std::sync::mpsc;
        let reg = Arc::new(SnapshotRegistry::new());
        let clock = AtomicU64::new(5);
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let reg2 = Arc::clone(&reg);
        let camper = std::thread::spawn(move || {
            let c = AtomicU64::new(5);
            let (rv, _g) = reg2.pin(&c);
            pinned_tx.send(rv).unwrap();
            release_rx.recv().unwrap();
        });
        assert_eq!(pinned_rx.recv().unwrap(), 5);
        let (rv, g) = reg.pin(&clock);
        assert_eq!(rv, 5);
        clock.store(40, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 5, "the camper holds it at 5");
        release_tx.send(()).unwrap();
        camper.join().unwrap();
        assert_eq!(reg.watermark(&clock), 5, "our own pin still holds it");
        drop(g);
        assert_eq!(reg.watermark(&clock), 40, "no pin: clock floor");
    }

    #[test]
    fn nested_pins_hold_the_watermark_until_the_outermost_unpin() {
        let reg = SnapshotRegistry::new();
        let clock = AtomicU64::new(2);
        let (_, g1) = reg.pin(&clock);
        clock.store(7, Ordering::SeqCst);
        let (_, g2) = reg.pin(&clock);
        let g3 = reg.nest();
        clock.store(50, Ordering::SeqCst);
        assert_eq!(reg.watermark(&clock), 2);
        drop(g2);
        assert_eq!(reg.watermark(&clock), 2, "the nest still holds the slot");
        drop(g3);
        assert_eq!(reg.watermark(&clock), 2, "the outer pin still holds it");
        drop(g1);
        assert_eq!(reg.watermark(&clock), 50, "released once, at the last");
    }

    #[test]
    fn dead_threads_release_the_watermark() {
        let reg = Arc::new(SnapshotRegistry::new());
        let clock = AtomicU64::new(30);
        for _ in 0..4 {
            let reg2 = Arc::clone(&reg);
            std::thread::spawn(move || {
                let c = AtomicU64::new(9);
                let (_, g) = reg2.pin(&c);
                // The guard outlives nothing: the thread exits pinned, and
                // its slot's teardown must release the snapshot.
                std::mem::forget(g);
            })
            .join()
            .expect("worker");
        }
        assert_eq!(
            reg.watermark(&clock),
            30,
            "exited threads must not hold the watermark back"
        );
    }

    #[test]
    fn two_domains_on_one_thread_keep_their_own_slots() {
        let (a, b) = (SnapshotRegistry::new(), SnapshotRegistry::new());
        let (ca, cb) = (AtomicU64::new(1), AtomicU64::new(100));
        let marks = |want: (u64, u64)| {
            assert_eq!((a.watermark(&ca), b.watermark(&cb)), want);
        };
        let (ra, ga) = a.pin(&ca);
        ca.store(5, Ordering::SeqCst);
        marks((1, 100));
        let (rb, gb) = b.pin(&cb);
        cb.store(200, Ordering::SeqCst);
        assert_eq!((ra, rb), (1, 100));
        marks((1, 100));
        let ga2 = a.nest();
        marks((1, 100));
        drop(ga);
        marks((1, 100));
        drop(gb);
        marks((1, 200));
        let (rb, gb) = b.pin(&cb);
        assert_eq!(rb, 200);
        drop(ga2);
        marks((5, 200));
        cb.store(300, Ordering::SeqCst);
        drop(gb);
        marks((5, 300));
    }

    #[test]
    fn a_dropped_registrys_entry_leaves_at_the_next_registration() {
        let cached = || SNAPSHOTS.with(|m| m.borrow().iter().map(|e| e.id).collect::<Vec<_>>());
        let clock = AtomicU64::new(3);
        let gone = SnapshotRegistry::new();
        let gone_id = gone.shared.id;
        drop(gone.pin(&clock));
        assert!(cached().contains(&gone_id));
        drop(gone);
        assert!(cached().contains(&gone_id), "pruned at registration only");
        let next = SnapshotRegistry::new();
        drop(next.pin(&clock));
        let ids = cached();
        assert!(!ids.contains(&gone_id), "the dead entry left the cache");
        assert!(ids.contains(&next.shared.id));
    }

    #[test]
    fn registries_are_independent() {
        let a = SnapshotRegistry::new();
        let b = SnapshotRegistry::new();
        let ca = AtomicU64::new(1);
        let cb = AtomicU64::new(100);
        let (_, _g) = a.pin(&ca);
        assert_eq!(a.watermark(&ca), 1);
        assert_eq!(b.watermark(&cb), 100, "b never saw a's snapshot");
    }

    #[test]
    fn cross_thread_snapshots_feed_one_watermark() {
        let reg = Arc::new(SnapshotRegistry::new());
        let clock = Arc::new(AtomicU64::new(7));
        let hold = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Asserted after the scope: a panic inside it would leave the
        // pinner spinning on `release` while the scope joins it.
        let seen = std::thread::scope(|s| {
            let (reg2, clock2) = (Arc::clone(&reg), Arc::clone(&clock));
            let (hold2, release2) = (Arc::clone(&hold), Arc::clone(&release));
            s.spawn(move || {
                let (rv, g) = reg2.pin(&clock2);
                assert_eq!(rv, 7);
                hold2.store(true, Ordering::SeqCst);
                while !release2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(g);
            });
            while !hold.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            clock.store(30, Ordering::SeqCst);
            let seen = reg.watermark(&clock);
            release.store(true, Ordering::SeqCst);
            seen
        });
        assert_eq!(seen, 7, "remote pin visible");
        assert_eq!(reg.watermark(&clock), 30);
    }
}
