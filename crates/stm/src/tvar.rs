//! Transactional variables.
//!
//! A [`TVar<T>`] is a shared mutable cell readable and writable inside a
//! transaction. Its cell is one word: a tagged `head` pointer to the
//! newest value (the latest-pointer fast path — single-version
//! algorithms load it, mask the tag and hand the reader's closure a
//! reference to the value, **no lock, no reference-count traffic, no
//! tearing, no clone the reader did not ask for**, exactly the one-load
//! read of the previous single-cell design). Behind it hang one of two
//! node kinds:
//!
//! * a **bare node** — the value alone, what [`TVar::new`] installs and
//!   what the instances that serve no snapshots publish (Tl2,
//!   Incremental, NOrec, Tlrw). It carries no version metadata, is
//!   always the tail of its chain, and a snapshot walk reads it as
//!   stamped 0 (visible to every snapshot);
//! * a **versioned node** — the value, then the commit timestamp that
//!   published it and a link to the version it superseded: the
//!   **timestamped version chain** [`Algorithm::Mv`](crate::Algorithm::Mv)
//!   and `Algorithm::Adaptive` append to. A snapshot reader traverses to
//!   the newest version no newer than its start time and never
//!   validates, never aborts.
//!
//! Both are `#[repr(C)]` with the value first, so a bare node is a
//! prefix of a versioned one and the value sits at the node's address
//! whatever its kind; both are aligned to at least 8, so a node pointer
//! has three free low bits. One is a tag, `VERSIONED` (bit 0), on the
//! head and on every `prev` link: the node is a versioned one. Set by
//! whoever leaks the node into the chain ([`WriteNode`]'s kind decides
//! it), never changed after.
//!
//! A transactional write allocates the node it will publish: the write
//! set holds a [`WriteNode`] — the value already inside an unlinked node
//! of the kind the instance publishes — and the commit links that very
//! node, so a written value is boxed once and never copied. An aborted
//! attempt drops its nodes directly: no reader ever saw them.
//!
//! Writers publish under the algorithm's exclusion (orec stripe locks or
//! the NOrec sequence lock), in one of two ways:
//!
//! * **swap** ([`AnyTVar::publish_boxed`], the instances that serve no
//!   snapshots): the node replaces the head and the displaced
//!   chain goes to the epoch collector ([`crate::epoch`]) — chains never
//!   grow;
//! * **append** ([`AnyTVar::append_boxed`] + [`AnyTVar::stamp_head`],
//!   `Algorithm::Mv` and `Algorithm::Adaptive`): the node is linked
//!   over the old head with a *pending* stamp, the commit draws its write
//!   timestamp, resolves the stamp, and then [`AnyTVar::trim_chain`]
//!   detaches every version no active or future snapshot can reach (the
//!   low-watermark rule, see [`crate::epoch::SnapshotRegistry`]),
//!   retiring the suffix through the same epoch machinery.
//!
//! Every chain, whatever its mix of kinds, is freed by one function
//! (`free_chain`): the cell's drop, and every retired head and trimmed
//! suffix through the epoch collector.
//!
//! This grew out of the seed design (value under a `parking_lot::Mutex`
//! beside a per-variable version word, replaced in PR 1 by a single
//! immutable box behind an `AtomicPtr`): per-read locking was the
//! shared-memory cost the paper condemns invisible-read TMs to pay, and
//! the single box was the *space* floor — one version — that made
//! abort-free read-only transactions impossible. The chain buys the
//! paper's space axis back, and only the instances that serve snapshots
//! pay for it.

use crate::epoch::{Guard, Retired};
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Values storable in a [`TVar`]: cloneable (reads snapshot), comparable
/// (NOrec validates by value), and thread-safe.
///
/// Implemented automatically for every eligible type.
pub trait TxValue: Any + Send + Sync + Clone + PartialEq {}

impl<T: Any + Send + Sync + Clone + PartialEq> TxValue for T {}

/// Stamp of a version whose committing transaction has appended it but
/// not yet drawn its write timestamp. Readers that reach a pending
/// version spin the few instructions until the committer resolves it:
/// the version *may* belong to their snapshot (the committer's timestamp
/// is not knowable yet), so neither taking nor skipping it is sound.
const PENDING: u64 = u64::MAX;

/// Tag of a node pointer (the head or a `prev` link): the node is a
/// [`Version`]. Clear: a [`Bare`] node.
const VERSIONED: usize = 1;

/// A single-version node: the value and nothing else. Always the tail
/// of its chain; a snapshot walk reads it as stamped 0.
#[repr(C, align(8))]
struct Bare<T> {
    value: T,
}

/// One link of a [`TVar`]'s version chain: an immutable value, the
/// commit timestamp that published it, and the version it superseded.
/// `value` first, so a [`Bare`] node is a prefix of this one.
#[repr(C, align(8))]
struct Version<T> {
    /// Never mutated after the node is reachable.
    value: T,
    /// The publishing commit's clock tick ([`PENDING`] while the
    /// committer is between appending and stamping); 0 on a node a swap
    /// published, which every snapshot may read, as it may a bare node.
    stamp: AtomicU64,
    /// Next-older retained node, tagged [`VERSIONED`] by its kind; null
    /// at the chain's end.
    prev: AtomicPtr<()>,
}

impl<T> Version<T> {
    /// An unlinked node: stamp 0, no `prev` — what an append links in
    /// place.
    fn unlinked(value: T) -> Self {
        Version {
            value,
            stamp: AtomicU64::new(0),
            prev: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The resolved stamp, waiting out a committer mid-stamp. The
    /// pending window spans the committer's remaining appends, its clock
    /// `fetch_add`, and one store per written variable — short, but a
    /// preempted committer (which still holds the stripe locks) can
    /// stretch it to a scheduling quantum, so after a bounded spin the
    /// reader yields its timeslice toward the committer instead of
    /// burning it.
    #[inline(always)]
    fn stamp(&self) -> u64 {
        let s = self.stamp.load(Ordering::Acquire);
        if s != PENDING {
            return s;
        }
        self.wait_stamp()
    }

    /// [`Self::stamp`]'s wait for a committer mid-stamp, kept out of
    /// the snapshot walk it would otherwise bloat.
    #[cold]
    fn wait_stamp(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            let s = self.stamp.load(Ordering::Acquire);
            if s != PENDING {
                return s;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Whether the tagged node pointer `p` names a [`Version`].
#[inline(always)]
fn is_versioned(p: *mut ()) -> bool {
    p.addr() & VERSIONED != 0
}

/// The node `p` names, its tag masked off.
#[inline(always)]
fn untag<N>(p: *mut ()) -> *mut N {
    p.map_addr(|a| a & !VERSIONED).cast()
}

/// The value of the node `p` names, whatever its kind.
///
/// # Safety
///
/// `p` must be a non-null tagged pointer to a live node holding a `T`.
#[inline(always)]
unsafe fn value_at<'a, T>(p: *mut ()) -> &'a T {
    // SAFETY: both node kinds are `repr(C)` with `value` first, so the
    // value sits at the node's address; the caller vouches it is live.
    unsafe { &*untag::<T>(p) }
}

/// Frees the chain `p` heads — every node it links, of either kind,
/// iteratively (a recursive drop would overflow the stack on a
/// long-unreclaimed chain). The one way a chain is freed: the cell's
/// drop calls it, and every retirement hands it to the epoch collector.
///
/// # Safety
///
/// `p` (tags allowed, null allowed) must be the sole owner of its chain,
/// leaked from boxes of `Bare<T>` / `Version<T>` as its tags say, and no
/// reader may reach it any more.
unsafe fn free_chain<T>(mut p: *mut ()) {
    while !p.is_null() {
        if !is_versioned(p) {
            // SAFETY: an untagged node is a leaked `Bare<T>`, the tail.
            drop(unsafe { Box::from_raw(untag::<Bare<T>>(p)) });
            return;
        }
        // SAFETY: a tagged node is a leaked `Version<T>`; each node is
        // owned by exactly one link, so it is freed exactly once.
        let mut node = unsafe { Box::from_raw(untag::<Version<T>>(p)) };
        p = *node.prev.get_mut();
    }
}

/// A chain hand-off to the epoch collector, which frees it with
/// [`free_chain`].
///
/// # Safety
///
/// As [`free_chain`], except that pinned readers may still reach the
/// chain: the collector frees it only once none can.
unsafe fn retire_chain<T: Send + 'static>(p: *mut ()) -> Retired {
    // SAFETY: `T: Send`, so freeing the chain on any thread is fine, and
    // `free_chain::<T>` frees exactly what `p` owns.
    unsafe { Retired::from_raw(p, free_chain::<T>) }
}

/// A buffered write: the value inside the unlinked node its commit will
/// publish ([`AnyTVar::publish_boxed`] swaps this node in,
/// [`AnyTVar::append_boxed`] links it). A [`Bare`] node on the
/// instances that serve no snapshots, a [`Version`] on those that do.
/// Type-erased for the heterogeneous write set; [`WriteNode::bare`] and
/// [`WriteNode::versioned`] are the only ways to make one, so every node
/// a publisher receives is still unlinked.
pub(crate) struct WriteNode(Box<dyn Any + Send>);

impl WriteNode {
    /// A node a swap publishes as is: the value alone.
    pub(crate) fn bare<T: TxValue>(value: T) -> Self {
        WriteNode(Box::new(Bare { value }))
    }

    /// A node an append links in place: stamp 0, no `prev` yet.
    pub(crate) fn versioned<T: TxValue>(value: T) -> Self {
        WriteNode(Box::new(Version::unlinked(value)))
    }

    /// The buffered value — what a read of the attempt's own write sees.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the type the node was built with
    /// (transaction-engine bug, not reachable from the public API).
    pub(crate) fn value<T: TxValue>(&self) -> &T {
        match self.0.downcast_ref::<Bare<T>>() {
            Some(node) => &node.value,
            None => {
                &self
                    .0
                    .downcast_ref::<Version<T>>()
                    .expect("write-set type")
                    .value
            }
        }
    }

    /// Leaks the node as a tagged pointer, tagged [`VERSIONED`] by its
    /// kind.
    fn into_link<T: TxValue>(self) -> *mut () {
        match self.0.downcast::<Bare<T>>() {
            Ok(node) => Box::into_raw(node).cast(),
            Err(node) => {
                let node = node.downcast::<Version<T>>().expect("write-set type");
                Box::into_raw(node).cast::<()>().map_addr(|a| a | VERSIONED)
            }
        }
    }

    /// The node as the [`Version`] an appending instance's writes build.
    fn into_version<T: TxValue>(self) -> Box<Version<T>> {
        self.0.downcast().expect("an appended node is versioned")
    }
}

/// Type-erased view of a `TVarInner<T>`, used by transaction logs, which
/// are heterogeneous.
pub(crate) trait AnyTVar: Send + Sync {
    /// Single-version publish: swaps `node` in as the sole retained
    /// version and returns the displaced chain for epoch retirement.
    ///
    /// The caller must hold the exclusion covering this variable (its
    /// orec stripe lock, or the NOrec sequence lock) and must retire the
    /// returned garbage *after* all the swaps of its commit.
    ///
    /// # Panics
    ///
    /// Panics if the node holds the wrong type (transaction-engine bug,
    /// not reachable from the public API).
    fn publish_boxed(&self, node: WriteNode) -> Retired;

    /// Multi-version publish, step 1: links `node` over the head with a
    /// pending stamp. The caller must hold the stripe lock and must be
    /// past the point of no return (validation done — an appended
    /// version is never unlinked by its own commit).
    fn append_boxed(&self, node: WriteNode);

    /// Multi-version publish, step 2: resolves the head's pending stamp
    /// to the commit's write timestamp. Caller still holds the stripe
    /// lock, so the head is the version it appended.
    fn stamp_head(&self, wv: u64);

    /// Detaches every version unreachable under `watermark` (the oldest
    /// active snapshot): the suffix strictly below the newest version
    /// stamped `<= watermark`. Detached versions go to `out` for epoch
    /// retirement. Returns `(retained, trimmed)` chain lengths; the
    /// pre-trim length is their sum. Caller holds the stripe lock (the
    /// chain has exactly one mutator at a time).
    fn trim_chain(&self, watermark: u64, out: &mut Vec<Retired>) -> (usize, usize);

    /// Whether the current (newest) value equals the given snapshot.
    fn value_eq(&self, pin: &Guard, snapshot: &(dyn Any + Send)) -> bool;
}

pub(crate) struct TVarInner<T> {
    /// Always a tagged pointer to a live, fully initialized node — the
    /// newest (see the module docs for the tag). Only
    /// `publish_boxed`/`append_boxed` replace it (under the writer's
    /// exclusion); displaced or trimmed nodes are freed by the epoch
    /// collector, and the final chain by `Drop`.
    head: AtomicPtr<()>,
    /// The chain owns `T`s.
    values: PhantomData<T>,
}

impl<T: TxValue> TVarInner<T> {
    fn new(value: T) -> Self {
        TVarInner {
            head: AtomicPtr::new(Box::into_raw(Box::new(Bare { value })).cast()),
            values: PhantomData,
        }
    }

    /// Applies `f` to the newest value in place, without any lock — the
    /// latest-pointer fast path: one load, a tag mask and one
    /// dereference, exactly the cost the single-cell design paid, chain
    /// or no chain, and no clone unless `f` makes one.
    ///
    /// The `pin` witness proves an epoch guard is held, which is what
    /// keeps the loaded node alive across the dereference — and so for
    /// as long as `f` runs; `R` cannot borrow from the node.
    #[inline(always)]
    pub(crate) fn read_snapshot<R>(&self, _pin: &Guard, f: impl FnOnce(&T) -> R) -> R {
        let p = self.head.load(Ordering::Acquire);
        // SAFETY: `p` was published by `new`, `publish_boxed` or
        // `append_boxed` (Acquire pairs with their Release, so the node
        // is fully initialized), its value is never mutated in place, and
        // it cannot be freed while this thread is pinned: retirement tags
        // postdate the unlink, and the collector only frees tags newer
        // than every pinned epoch.
        f(unsafe { value_at(p) })
    }

    /// Clones the newest version stamped `<= rv` — the multi-version
    /// snapshot read without walk accounting. Thin wrapper over
    /// [`Self::read_at_counted`] for tests.
    #[cfg(test)]
    pub(crate) fn read_at(&self, pin: &Guard, rv: u64) -> T {
        self.read_at_counted(pin, rv, T::clone).0
    }

    /// The snapshot read proper: applies `f` in place to the newest
    /// version stamped `<= rv` and reports how many chain hops past the
    /// head the walk took. No orec probe, no validation, no abort: the
    /// trim rule keeps the chain's oldest retained version at or below
    /// every snapshot drawn from this instance's clock, so in-instance
    /// walks always find their version. Walking off the end only arises
    /// when a variable written under one timestamp domain is later read
    /// under another whose (fresh, smaller) clock is below every
    /// retained stamp: the walk then falls back to the head. That
    /// covers only a walk that falls off the chain; one whose chain still
    /// holds a stamp-0 tail (the initial version, or a bare node) stops
    /// there and reads that tail, however stale. Snapshot reads are
    /// defined within one timestamp domain (see [`TVar`]).
    ///
    /// The walk follows `prev`, so it visits one node per retained
    /// version stamped after `rv`: free at the head (the common case, a
    /// snapshot no commit has overtaken), linear in how far a camped
    /// reader has fallen behind. A bare node ends the walk (stamp 0).
    ///
    /// Forced inline: `Transaction::read_each`'s batch loop runs it per
    /// key, and a call there slows a warm Mv scan (CI's benchmark job
    /// checks that it stays inlined).
    #[inline(always)]
    pub(crate) fn read_at_counted<R>(
        &self,
        _pin: &Guard,
        rv: u64,
        f: impl FnOnce(&T) -> R,
    ) -> (R, u64) {
        let mut steps = 0u64;
        let mut p = self.head.load(Ordering::Acquire);
        loop {
            if !is_versioned(p) {
                // SAFETY: as in `read_snapshot` — every node reachable
                // from the head was fully published and is kept alive
                // by the pin.
                return (f(unsafe { value_at(p) }), steps);
            }
            // SAFETY: as above; trimming detaches only suffixes no
            // snapshot `>= watermark` can walk into, and this snapshot
            // is `>= watermark` by the registry's floor-first scan (see
            // `SnapshotRegistry`).
            let node = unsafe { &*untag::<Version<T>>(p) };
            if node.stamp() <= rv {
                return (f(&node.value), steps);
            }
            steps += 1;
            let prev = node.prev.load(Ordering::Acquire);
            if prev.is_null() {
                // Off the end: a cross-domain handoff (see above).
                let head = self.head.load(Ordering::Acquire);
                // SAFETY: as in `read_snapshot`.
                return (f(unsafe { value_at(head) }), steps);
            }
            p = prev;
        }
    }

    /// Makes `tail` the chain's oldest retained version and returns how
    /// many nodes that detached. The detached suffix goes to `out`
    /// for epoch retirement; in-flight readers that already loaded a
    /// pointer into it hold epoch pins, which keep it alive until they
    /// unpin.
    ///
    /// # Safety
    ///
    /// `tail` must be reachable from the head, and the caller must be the
    /// chain's only mutator (it holds the stripe lock).
    unsafe fn detach_below(&self, tail: &Version<T>, out: &mut Vec<Retired>) -> usize {
        // The detached suffix is this thread's alone once the swap
        // unlinks it.
        let dropped = tail.prev.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if dropped.is_null() {
            return 0;
        }
        let mut n = 1;
        let mut p = dropped;
        while is_versioned(p) {
            // SAFETY: detached nodes stay live until the collector
            // frees them, after `out` is retired.
            p = unsafe { (*untag::<Version<T>>(p)).prev.load(Ordering::Relaxed) };
            if p.is_null() {
                break;
            }
            n += 1;
        }
        // SAFETY: `dropped` owns the detached suffix alone, and pinned
        // readers are what the epoch collector waits out.
        out.push(unsafe { retire_chain::<T>(dropped) });
        n
    }

    /// Number of versions currently retained (racy snapshot; exact when
    /// no writer is active).
    pub(crate) fn chain_len(&self) -> usize {
        let mut n = 1;
        let mut p = self.head.load(Ordering::Acquire);
        while is_versioned(p) {
            // SAFETY: reachable nodes are live (see `read_snapshot`);
            // callers hold an epoch pin via `TVar::versions_retained`.
            p = unsafe { (*untag::<Version<T>>(p)).prev.load(Ordering::Acquire) };
            if p.is_null() {
                break;
            }
            n += 1;
        }
        n
    }
}

impl<T> Drop for TVarInner<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access (`&mut self` on the last owner); no
        // reader can hold this pointer without an `Arc` keeping the cell
        // alive, and displaced versions live in epoch bags, not here.
        unsafe { free_chain::<T>(*self.head.get_mut()) }
    }
}

impl<T: TxValue> AnyTVar for TVarInner<T> {
    fn publish_boxed(&self, node: WriteNode) -> Retired {
        // The node goes in as the write built it: bare on the instances
        // that serve no snapshots, which read no stamps. Either kind
        // reads as stamp 0 with nothing below it, so the value is
        // visible to every snapshot if the variable is later handed
        // (sequentially) to an Mv instance, and no walk can fall off
        // the chain.
        let old = self.head.swap(node.into_link::<T>(), Ordering::AcqRel);
        // The displaced node still owns its `prev` chain; retiring it
        // frees the whole suffix once no pinned reader remains.
        // SAFETY: the swap unlinked `old`; pinned readers are what the
        // epoch collector waits out.
        unsafe { retire_chain::<T>(old) }
    }

    fn append_boxed(&self, node: WriteNode) {
        let mut node = node.into_version::<T>();
        let head = self.head.load(Ordering::Relaxed);
        // The node is still this committer's alone: plain field writes.
        *node.stamp.get_mut() = PENDING;
        *node.prev.get_mut() = head;
        // Plain store, not a swap: the stripe lock gives this committer
        // sole write access to the chain; Release publishes the node's
        // initialization to readers.
        let link = Box::into_raw(node).cast::<()>().map_addr(|a| a | VERSIONED);
        self.head.store(link, Ordering::Release);
    }

    fn stamp_head(&self, wv: u64) {
        let p = self.head.load(Ordering::Relaxed);
        debug_assert!(is_versioned(p), "stamp_head on a bare head");
        // SAFETY: the head is this committer's own appended node (stripe
        // lock still held), so it is a live `Version`.
        unsafe { (*untag::<Version<T>>(p)).stamp.store(wv, Ordering::Release) };
    }

    fn trim_chain(&self, watermark: u64, out: &mut Vec<Retired>) -> (usize, usize) {
        let mut keep = self.head.load(Ordering::Relaxed);
        let mut retained = 1;
        // Find the newest version every live snapshot can settle on: the
        // first (walking newest to oldest) stamped `<= watermark`. Only
        // the head can be pending, and the caller (its own committer)
        // has already stamped it. A bare node is stamped 0 and ends the
        // chain: nothing below it to trim.
        let keep = loop {
            if !is_versioned(keep) {
                return (retained, 0);
            }
            // SAFETY: reachable nodes are live; the stripe lock makes
            // this thread the only mutator.
            let node = unsafe { &*untag::<Version<T>>(keep) };
            if node.stamp.load(Ordering::Acquire) <= watermark {
                break node;
            }
            let prev = node.prev.load(Ordering::Acquire);
            if prev.is_null() {
                // Every retained version is newer than the watermark
                // (sequential-handoff leftovers); nothing is provably
                // unreachable.
                return (retained, 0);
            }
            retained += 1;
            keep = prev;
        };
        // Everything below `keep` is unreachable: an active snapshot has
        // `rv >= watermark >= stamp(keep)`, so its walk stops at `keep`
        // or newer.
        // SAFETY: `keep` is reachable from the head; the stripe lock
        // makes this thread the only mutator.
        let trimmed = unsafe { self.detach_below(keep, out) };
        (retained, trimmed)
    }

    fn value_eq(&self, pin: &Guard, snapshot: &(dyn Any + Send)) -> bool {
        snapshot
            .downcast_ref::<T>()
            .is_some_and(|snap| self.read_snapshot(pin, |v| v == snap))
    }
}

/// A transactional variable holding a `T`.
///
/// Cheap to clone (it is an `Arc` handle); clones refer to the same cell.
///
/// Snapshot reads (`Algorithm::Mv`, and `Algorithm::Adaptive` in its Mv
/// mode) are defined within one timestamp domain: the instances that
/// share a clock ([`StmBuilder::build_beside`](crate::StmBuilder::build_beside)).
/// A version carries a tick of the clock that stamped it, so a variable
/// written under one domain and then read at a snapshot of another may
/// read an older version its chain still holds instead of the current
/// value. The single-version algorithms and
/// [`TVar::load`] read the current value under any instance.
///
/// # Examples
///
/// ```
/// use ptm_stm::{Stm, TVar};
///
/// let stm = Stm::tl2();
/// let acct = TVar::new(100u64);
/// stm.atomically(|tx| {
///     let v = tx.read(&acct)?;
///     tx.write(&acct, v + 1)?;
///     Ok(())
/// });
/// assert_eq!(acct.load(), 101);
/// ```
pub struct TVar<T> {
    pub(crate) inner: Arc<TVarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug + TxValue> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar").field("value", &self.load()).finish()
    }
}

impl<T: TxValue> TVar<T> {
    /// Creates a variable with an initial value.
    pub fn new(value: T) -> Self {
        TVar {
            inner: Arc::new(TVarInner::new(value)),
        }
    }

    /// Stable identity of the cell (keys read/write sets and maps the
    /// cell to its orec stripe).
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Type-erased handle for transaction logs.
    pub(crate) fn as_dyn(&self) -> Arc<dyn AnyTVar> {
        Arc::clone(&self.inner) as Arc<dyn AnyTVar>
    }

    /// Reads the value non-transactionally (a consistent snapshot of this
    /// single variable). Useful for inspecting results after the
    /// concurrent phase is over.
    pub fn load(&self) -> T {
        let pin = crate::epoch::pin();
        self.inner.read_snapshot(&pin, T::clone)
    }

    /// How many versions of this variable are currently retained: 1
    /// under the single-version algorithms, up to the span between the
    /// oldest active snapshot and the newest commit under
    /// [`Algorithm::Mv`](crate::Algorithm::Mv). Introspection for GC
    /// tests and capacity monitoring; racy when writers are active.
    pub fn versions_retained(&self) -> usize {
        let _pin = crate::epoch::pin();
        self.inner.chain_len()
    }

    /// Whether two handles refer to the same cell (identity, not value).
    /// Useful when building linked structures out of `TVar`s, where a
    /// node's `PartialEq` should compare pointer identity.
    pub fn same_cell(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<T: TxValue + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch;

    #[test]
    fn new_and_load() {
        let v = TVar::new(41u32);
        assert_eq!(v.load(), 41);
        assert_eq!(v.versions_retained(), 1);
    }

    #[test]
    fn clones_share_the_cell() {
        let a = TVar::new(String::from("x"));
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        epoch::retire_batch(&mut vec![a
            .inner
            .publish_boxed(WriteNode::bare(String::from("y")))]);
        assert_eq!(b.load(), "y");
    }

    #[test]
    fn distinct_vars_have_distinct_ids() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn publish_roundtrip_and_value_eq() {
        let v = TVar::new(7i64);
        let pin = epoch::pin();
        let snap: Box<dyn Any + Send> = Box::new(7i64);
        assert!(v.inner.value_eq(&pin, snap.as_ref()));
        epoch::retire_batch(&mut vec![v.inner.publish_boxed(WriteNode::bare(9i64))]);
        assert!(!v.inner.value_eq(&pin, snap.as_ref()));
        assert_eq!(v.load(), 9);
        assert_eq!(v.versions_retained(), 1, "publish swaps, never chains");
        // Wrong-type snapshots never compare equal.
        let wrong: Box<dyn Any + Send> = Box::new("9");
        assert!(!v.inner.value_eq(&pin, wrong.as_ref()));
    }

    #[test]
    fn append_builds_a_chain_and_read_at_selects_by_stamp() {
        let v = TVar::new(10u64);
        let pin = epoch::pin();
        for (wv, val) in [(3u64, 13u64), (5, 15), (9, 19)] {
            v.inner.append_boxed(WriteNode::versioned(val));
            v.inner.stamp_head(wv);
        }
        assert_eq!(v.versions_retained(), 4);
        // Newest fast path sees the newest value.
        assert_eq!(v.load(), 19);
        // Snapshot reads land on the newest version <= rv.
        assert_eq!(v.inner.read_at(&pin, 0), 10);
        assert_eq!(v.inner.read_at(&pin, 2), 10);
        assert_eq!(v.inner.read_at(&pin, 3), 13);
        assert_eq!(v.inner.read_at(&pin, 4), 13);
        assert_eq!(v.inner.read_at(&pin, 5), 15);
        assert_eq!(v.inner.read_at(&pin, 8), 15);
        assert_eq!(v.inner.read_at(&pin, 9), 19);
        assert_eq!(v.inner.read_at(&pin, u64::MAX - 1), 19);
    }

    #[test]
    fn trim_detaches_exactly_the_unreachable_suffix() {
        let v = TVar::new(0u64);
        for wv in [2u64, 4, 6, 8] {
            v.inner.append_boxed(WriteNode::versioned(wv * 10));
            v.inner.stamp_head(wv);
        }
        assert_eq!(v.versions_retained(), 5);
        let mut out = Vec::new();
        // Watermark 5: keep 8, 6, and 4 (the newest <= 5); drop 2, 0.
        let (retained, trimmed) = v.inner.trim_chain(5, &mut out);
        assert_eq!((retained, trimmed), (3, 2));
        assert_eq!(out.len(), 1, "one retirement frees the whole suffix");
        assert_eq!(v.versions_retained(), 3);
        let pin = epoch::pin();
        // Snapshots at or above the watermark still resolve.
        assert_eq!(v.inner.read_at(&pin, 5), 40);
        assert_eq!(v.inner.read_at(&pin, 7), 60);
        // Trimming to the same watermark again is a no-op.
        let (retained, trimmed) = v.inner.trim_chain(5, &mut out);
        assert_eq!((retained, trimmed), (3, 0));
        // Watermark past the head keeps only the head.
        let (retained, trimmed) = v.inner.trim_chain(100, &mut out);
        assert_eq!((retained, trimmed), (1, 2));
        assert_eq!(v.versions_retained(), 1);
        drop(pin);
        epoch::retire_batch(&mut out);
    }

    #[test]
    fn trim_with_no_version_under_the_watermark_keeps_everything() {
        // Sequential-handoff shape: every retained stamp exceeds the
        // watermark. Nothing is provably unreachable, nothing is freed,
        // and snapshot reads fall back to the oldest version.
        let v = TVar::new(1u64);
        let mut out = Vec::new();
        {
            let pin = epoch::pin();
            v.inner.append_boxed(WriteNode::versioned(2u64));
            v.inner.stamp_head(50);
            let (retained, trimmed) = v.inner.trim_chain(60, &mut out);
            assert_eq!((retained, trimmed), (1, 1)); // initial 0-stamp trimmed
                                                     // The chain is now the single version stamped 50; a watermark
                                                     // below it can prove nothing unreachable.
            let (retained, trimmed) = v.inner.trim_chain(10, &mut out);
            assert_eq!((retained, trimmed), (1, 0));
            assert_eq!(v.inner.read_at(&pin, 10), 2, "oldest retained wins");
        }
        epoch::retire_batch(&mut out);
    }

    #[test]
    fn default_impl() {
        let v: TVar<u64> = TVar::default();
        assert_eq!(v.load(), 0);
    }

    #[test]
    fn tvar_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TVar<u64>>();
        assert_send_sync::<TVar<String>>();
    }

    #[test]
    fn dropping_vars_with_history_does_not_leak_or_crash() {
        // Publish a few generations, then drop the var while garbage from
        // its history is still in epoch bags.
        let v = TVar::new(vec![0u8; 64]);
        for i in 0..10u8 {
            epoch::retire_batch(&mut vec![v
                .inner
                .publish_boxed(WriteNode::bare(vec![i; 64]))]);
        }
        assert_eq!(v.load(), vec![9u8; 64]);
        drop(v);
    }

    #[test]
    fn dropping_a_var_with_a_long_retained_chain_is_iterative() {
        // A chain long enough that recursive dropping would overflow the
        // stack; `Version::drop` must walk it iteratively.
        let v = TVar::new(vec![0u8; 16]);
        for i in 0..200_000u64 {
            v.inner
                .append_boxed(WriteNode::versioned(vec![(i % 251) as u8; 16]));
            v.inner.stamp_head(i + 1);
        }
        drop(v);
    }

    #[test]
    fn version_nodes_are_three_words() {
        // Value, stamp, `prev`: a `u64` bucket node is 24 bytes.
        assert_eq!(std::mem::size_of::<Version<u64>>(), 24);
    }

    #[test]
    fn a_cell_is_one_word_and_a_bare_node_the_value_alone() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<TVarInner<u64>>(), size_of::<usize>());
        assert_eq!(size_of::<TVarInner<String>>(), size_of::<usize>());
        assert_eq!(size_of::<Bare<u64>>(), 8);
        // Three free low bits on every node pointer, whatever `T`.
        assert!(align_of::<Bare<u8>>() >= 8);
        assert!(align_of::<Bare<()>>() >= 8);
        assert!(align_of::<Version<u8>>() >= 8);
        // A bare node is a prefix of a versioned one.
        assert_eq!(std::mem::offset_of!(Bare<String>, value), 0);
        assert_eq!(std::mem::offset_of!(Version<String>, value), 0);
    }

    #[test]
    fn zero_sized_and_byte_values_round_trip_through_both_kinds() {
        let unit = TVar::new(());
        let byte = TVar::new(7u8);
        let mut out = Vec::new();
        out.push(unit.inner.publish_boxed(WriteNode::bare(())));
        out.push(byte.inner.publish_boxed(WriteNode::bare(8u8)));
        byte.inner.append_boxed(WriteNode::versioned(9u8));
        byte.inner.stamp_head(5);
        unit.inner.append_boxed(WriteNode::versioned(()));
        unit.inner.stamp_head(5);
        let pin = epoch::pin();
        assert_eq!(byte.inner.read_at(&pin, 4), 8);
        assert_eq!(byte.inner.read_at(&pin, 5), 9);
        assert_eq!(byte.versions_retained(), 2);
        unit.inner.read_at(&pin, 4);
        assert_eq!(unit.versions_retained(), 2);
        drop(pin);
        epoch::retire_batch(&mut out);
    }

    #[test]
    fn snapshot_walks_take_one_hop_per_newer_version() {
        // A reader camped at the chain's old end pays one hop per
        // retained version stamped after its snapshot.
        let v = TVar::new(0u64);
        for wv in 1..=1024u64 {
            v.inner.append_boxed(WriteNode::versioned(wv));
            v.inner.stamp_head(wv);
        }
        let pin = epoch::pin();
        let read = |rv| v.inner.read_at_counted(&pin, rv, |v| *v);
        assert_eq!(read(0), (0, 1024));
        assert_eq!(read(512), (512, 512));
        // The head costs nothing.
        assert_eq!(read(1024), (1024, 0));
    }

    #[test]
    fn reads_resolve_across_interleaved_trims() {
        // Interleave appends with trims so later appends and snapshot
        // reads traverse chains cut at many points — and whose detached
        // suffixes were really freed.
        let v = TVar::new(0u64);
        let mut out = Vec::new();
        for wv in 1..=96u64 {
            v.inner.append_boxed(WriteNode::versioned(wv));
            v.inner.stamp_head(wv);
            if wv % 16 == 0 {
                v.inner.trim_chain(wv - 5, &mut out);
                epoch::retire_batch(&mut out);
            } else if wv % 7 == 0 {
                v.inner.trim_chain(wv - 2, &mut out);
                epoch::retire_batch(&mut out);
            }
        }
        let pin = epoch::pin();
        for rv in 91..=97u64 {
            assert_eq!(v.inner.read_at_counted(&pin, rv, |v| *v).0, rv.min(96));
        }
    }

    mod chain_model {
        use super::*;
        use proptest::prelude::*;

        /// One scripted chain mutation: `(kind, magnitude)`.
        fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
            proptest::collection::vec((0u8..4, 0u64..12), 1..60)
        }

        /// What a chain should hold: its `(stamp, value)` versions,
        /// newest first.
        struct Model {
            versions: Vec<(u64, u64)>,
        }

        impl Model {
            fn trim(&mut self, watermark: u64) {
                if let Some(keep) = self.versions.iter().position(|&(s, _)| s <= watermark) {
                    self.versions.truncate(keep + 1);
                }
            }

            /// A single-version publish: one bare node, read as stamp
            /// 0.
            fn publish(&mut self, value: u64) {
                self.versions = vec![(0, value)];
            }

            /// The snapshot read at `rv`: the newest version stamped
            /// `<= rv` and one hop per newer one; off the end, the head
            /// after every hop.
            fn read(&self, rv: u64) -> (u64, u64) {
                match self.versions.iter().position(|&(s, _)| s <= rv) {
                    Some(i) => (self.versions[i].1, i as u64),
                    None => (self.versions[0].1, self.versions.len() as u64),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Over arbitrary append/trim/publish histories (with the
            // monotone stamps real commits produce, and chains that mix
            // bare and versioned nodes), every snapshot read returns the
            // model's value and hop count, and falls back to the head
            // exactly where the model does.
            #[test]
            fn reads_match_the_chain_model(ops in ops_strategy()) {
                let v = TVar::new(0u64);
                let mut model = Model { versions: vec![(0, 0)] };
                let mut clock = 0u64;
                let mut out = Vec::new();
                for (kind, arg) in ops {
                    match kind {
                        // Appends dominate the mix so chains get long.
                        0 | 1 => {
                            clock += 1 + arg % 3;
                            v.inner.append_boxed(WriteNode::versioned(clock * 10));
                            v.inner.stamp_head(clock);
                            model.versions.insert(0, (clock, clock * 10));
                        }
                        2 => {
                            let watermark = clock.saturating_sub(arg);
                            v.inner.trim_chain(watermark, &mut out);
                            model.trim(watermark);
                        }
                        _ => {
                            let value = clock * 10 + 1 + arg;
                            out.push(v.inner.publish_boxed(WriteNode::bare(value)));
                            model.publish(value);
                        }
                    }
                    epoch::retire_batch(&mut out);
                    prop_assert_eq!(v.versions_retained(), model.versions.len());
                    let pin = epoch::pin();
                    for rv in 0..=clock + 1 {
                        let got = v.inner.read_at_counted(&pin, rv, |v| *v);
                        prop_assert_eq!(got, model.read(rv), "rv {}", rv);
                    }
                }
            }
        }
    }
}
