//! The commit pipeline, written once. Every commit — a lone attempt of
//! [`Stm::run`] or a coordinator's group over several instances
//! ([`Transaction::commit_all`]) — is one body over a group of
//! transactions, taken in the caller's lock order: **open** (refuse a
//! doomed group, open every `tryC` marker) → **lock all** → **validate
//! all** → **stage** (the caller's closure, once, with every lock held
//! and nothing able to fail) → **publish all** (infallible; at one
//! clock draw per timestamp domain the group spans) → resolve each
//! ([`Transaction::committed`]). A failed open, lock or validation
//! unlocks what the group took, closes every marker aborted and poisons
//! every participant, for the caller to resolve
//! ([`Transaction::aborted`]). Each algorithm's lock and validate halves
//! are in `crate::algo`'s hook table.
//!
//! Two rules, each about every member rather than about the group's
//! shape, decide what a group skips and how it publishes:
//!
//! * **A group that wrote nothing is already serialized** — and skips
//!   lock and validate — when it is one attempt (serialized at its last
//!   validation, under its held read locks, or at its snapshot), or when
//!   every member read at one `rv` of one timestamp domain: siblings
//!   opened with [`Transaction::beside`] do, and so do attempts begun
//!   apart with no commit between their draws. Every other participant
//!   locks and validates, read-only ones included: their validation is
//!   what rules out a torn or skewed cut across instances.
//! * **Each timestamp domain publishes once** — every member of the
//!   domain at one clock draw, through `mv::publish` — whatever else the
//!   group spans; every participant outside a domain publishes on its
//!   own.
//!
//! ## Why a read-only group at one `rv` needs no validation
//!
//! One `rv` of one clock is one cut, whoever drew it: the state after
//! exactly the commits stamped `wv <= rv`. An Mv snapshot read walks to
//! the newest version stamped at or before `rv`. A Tl2-hook read of an
//! adaptive instance returns the head only while its stripe is unlocked
//! and stamped at or before `rv`, and aborts otherwise; a commit with
//! `wv <= rv` took its locks before its draw, which the reader's load of
//! the clock synchronizes with, so the reader finds that commit's lock
//! or its stamp, never the value before it. Both hook sets thus return
//! the same value at one `rv`, and members reading at one `rv` of one
//! domain read one cut — there is nothing left for validation to find.
//! Members at different `rv`s, or in different domains, share no
//! timestamp, so they lock and validate.
//!
//! ## Why a group commit is serializable
//!
//! Locking and validating one instance, then the next, would validate
//! instance *a*'s reads before locking instance *b*'s writes. That is
//! not two-phase locking, and it commits write skew: two groups each
//! read `x` (on *a*) and `y` (on *b*) and each writes one of them; run
//! *T@a, C@a, C@b, T@b* and both pass, neither seeing the other's write.
//!
//! Lock all, then validate all, closes it. Every read of a group
//! happened in the body, before its lock phase; every validation runs
//! after its *last* lock. A validated read's stripe was unlocked and
//! unchanged from the read to its validation, so at the instant `L` the
//! group took its last lock **every read is current and every write
//! stripe is held** — held until publish. The group serializes at `L`.
//! In particular no group validates against a write another group has
//! not yet locked: if group *C* writes `x`, which *T* read, either *C*
//! locked `x` before *T* validated it — and *T*'s validation sees the
//! lock or *C*'s new stamp and fails — or *C* locked `x` after, so
//! `L_C > L_T`. In the second case every read of *C*'s validated after
//! `L_T`, when *T* held all its write stripes (or had published them
//! past *C*'s reads): if *C* read anything *T* writes, *C* fails. A
//! cycle *T* → *C* → *T* would need `L_T < L_C < L_T`.
//!
//! NOrec's halves give the same instant: once a group holds every
//! participant's sequence lock, each instance is frozen at a state its
//! reads were validated against.
//!
//! ## Why a group commit is never observed torn
//!
//! **In one timestamp domain** (Mv, Adaptive) a cut is a timestamp. A
//! group publishes each domain at one tick `wv`, drawn after it appended
//! on every member of that domain: a reader whose `rv >= wv` loaded the
//! clock after that draw, which synchronizes with it, so it finds every
//! member's new version (pending until stamped, and then stamped `wv`);
//! a reader with `rv < wv` skips them all. A read-only group at one
//! `rv` (above) therefore never sees part of a group. So does a *mixed*
//! group — two members of one domain beside a Tl2, NOrec or Tlrw member,
//! or a member of another domain: the domain still draws once, so no
//! snapshot falls between two of its members.
//!
//! **Across separate clocks** an updating group holds **every**
//! instance's commit locks from before its first publish until after
//! that instance's own publish — for the members of a domain, the
//! domain's one publish, taken at its first member's place in the
//! group. A reader that could observe instance
//! *i* post-publish and instance *j* pre-publish must therefore get its
//! reads of *j* past metadata the group still owns:
//!
//! * **Tl2 / Incremental** — the *j*-stripes are either still locked
//!   (read/validation fails on the lock bit) or already restamped past
//!   the reader's snapshot (version check fails). A reader that
//!   validates *every* instance after reading all of them — which is
//!   what a read-only participant of a group does — cannot pass both
//!   checks on a torn cut. (Mv and Adaptive instances in separate
//!   domains commit the same way.)
//! * **NOrec** — the *j*-instance's sequence lock is odd (held) until
//!   its publish, so the reader's lock half spins until the publish
//!   lands and then sees the changed values.
//! * **Tlrw** — visible read locks exclude the group's lock half
//!   physically: a reader holding any conflicting stripe's read lock
//!   blocks the whole group from reaching its first publish, so there
//!   is no window to tear.
//!
//! ## Why a group commit never deadlocks
//!
//! Deadlock freedom is the caller's obligation: every group takes its
//! instances in one global order (`ptm-server` uses ascending shard
//! index). The stripe-locking halves are try-lock fail-fast — they never
//! wait. NOrec's lock half waits, spinning on a held (odd) sequence
//! lock, but only in the lock phase and only in group order: a group
//! waits for instance *j* holding only instances before *j*, and the
//! holder of *j* is either past its lock phase or itself waiting on an
//! instance after *j*. The chain of waits climbs the order and ends at a
//! group free to validate and publish; a lone commit holds one lock and
//! waits while holding none.
//! That is why NOrec locks its read-only participants too: left
//! unlocked, a read-only participant's validation would spin on its
//! instance *out of order* — group *T* holding *b* and spinning on *a*,
//! group *C* holding *a* and spinning on *b* — and neither would ever
//! publish.

use super::{Retry, Stm, Transaction};
use crate::algo::{mv, norec, tlrw, versioned, Hooks};
use ptm_sim::{TOpDesc, TOpResult};

impl Stm {
    /// Begins a transaction whose commit the *caller* drives — the
    /// manual counterpart of [`Stm::atomically`], for coordinators that
    /// commit several instances' transactions as one group (see
    /// [`Transaction::commit_all`]).
    ///
    /// The caller owns the outcome: finish with
    /// [`Transaction::commit_all`], or discard with
    /// [`Transaction::rollback`]. There is no automatic retry — on
    /// [`Retry`] build a fresh transaction and re-run the reads/writes.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar, Transaction};
    ///
    /// let stm = Stm::tl2();
    /// let v = TVar::new(1u64);
    /// let mut tx = stm.transaction();
    /// let seen = tx.read(&v).unwrap();
    /// tx.write(&v, seen + 1).unwrap();
    /// Transaction::commit_all(vec![tx], |_| {}).unwrap();
    /// assert_eq!(v.load(), 2);
    /// ```
    pub fn transaction(&self) -> Transaction<'_> {
        Transaction::begin(self)
    }
}

impl<'s> Transaction<'s> {
    /// Commits `group` as one atomic transaction over every instance
    /// its members run on: lock all, validate all, `stage`, publish all
    /// (see the module docs). `group` is in the caller's lock order,
    /// which must be one global order across every group that can run
    /// concurrently — a coordinator over shards takes them in ascending
    /// shard index.
    ///
    /// `stage` runs once, after validation and before the first
    /// publish: the commit can no longer fail and every participant's
    /// locks are held, so whatever it stages
    /// ([`Transaction::stage_durable`]) is ordered like the commit
    /// itself. Each timestamp domain the group spans
    /// ([`Transaction::beside`]) publishes at one clock tick, whatever
    /// else the group holds: a snapshot reader sees all of the group's
    /// writes in that domain or none. A group that wrote nothing commits
    /// without locking or validating when it is one attempt, or when
    /// every member read at one `rv` of one domain.
    ///
    /// # Errors
    ///
    /// [`Retry`] if a member was already doomed, a lock could not be
    /// acquired, or validation found a conflicting commit. Every
    /// participant is then rolled back and resolved as aborted; start
    /// over with fresh transactions.
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Stm, TVar, Transaction};
    ///
    /// let (a, b) = (Stm::tl2(), Stm::tl2());
    /// let (x, y) = (TVar::new(1u64), TVar::new(2u64));
    /// // Move y's value onto x, across the two instances.
    /// let mut first = a.transaction();
    /// let mut second = b.transaction();
    /// let moved = second.read(&y).unwrap();
    /// first.modify(&x, |v| v + moved).unwrap();
    /// second.write(&y, 0).unwrap();
    /// Transaction::commit_all(vec![first, second], |_| {}).unwrap();
    /// assert_eq!((x.load(), y.load()), (3, 0));
    /// ```
    pub fn commit_all(
        mut group: Vec<Transaction<'s>>,
        stage: impl FnOnce(&mut [Transaction<'s>]),
    ) -> Result<(), Retry> {
        let out = commit_group(&mut group, stage);
        if out.is_err() {
            for tx in &mut group {
                tx.aborted();
            }
        }
        out
    }

    /// Abandons an uncommitted transaction: nothing was published, so
    /// this only closes the attempt (read locks released, history marker
    /// closed aborted, abort counted). Equivalent to dropping it, plus
    /// the bookkeeping the attempt loop would have done.
    pub fn rollback(mut self) {
        self.aborted();
    }
}

/// The one commit body: [`Transaction::commit_all`]'s, and
/// [`Stm::run`]'s on a group of one. On `Ok` every participant has
/// committed and resolved; on `Err` every participant is rolled back,
/// poisoned and left for the caller to resolve.
///
/// Only this shell is generic (over `stage`), so it compiles into each
/// caller's `Stm::run`; the phases it calls are plain functions, each
/// compiled once here with the marker, snapshot and resolve helpers
/// inlined into it. Marked `#[inline]`, the phases moved into the
/// caller's crate and every helper became a cross-crate call: `point_read`
/// lost 9 % throughput (median of eight alternating 5 s pairs, 2
/// hardware threads).
pub(super) fn commit_group<'s>(
    group: &mut [Transaction<'s>],
    stage: impl FnOnce(&mut [Transaction<'s>]),
) -> Result<(), Retry> {
    if open(group)? {
        lock(group)?;
        validate(group)?;
        stage(group);
        publish(group);
    } else {
        stage(group);
    }
    resolve(group);
    Ok(())
}

/// Step 1: refuses a group with a doomed member, then opens every
/// participant's `tryC` marker. Returns whether the group must lock and
/// validate — `false` for a group already serialized: one that wrote
/// nothing and is one attempt, or read at one `rv` of one domain.
pub(super) fn open(group: &mut [Transaction<'_>]) -> Result<bool, Retry> {
    // An attempt that was already doomed failed (and is counted) where
    // it was doomed, not here.
    if group.iter().any(|tx| tx.poisoned) {
        for tx in group.iter_mut() {
            tx.poisoned = true;
        }
        return Err(Retry);
    }
    for tx in group.iter_mut() {
        // Marker first: an attempt whose first operation is its commit
        // samples its snapshot inside the `tryC` interval (see
        // `ensure_started`).
        tx.rec_invoke(TOpDesc::TryCommit);
        tx.ensure_started();
    }
    let serialized = match &*group {
        [first, rest @ ..] => {
            group.iter().all(|tx| tx.log.writes.is_empty())
                && rest
                    .iter()
                    .all(|tx| first.stm.shares_domain(tx.stm) && tx.rv == first.rv)
        }
        [] => true,
    };
    Ok(!serialized)
}

/// Step 2: takes every participant's commit locks, in group order.
pub(super) fn lock(group: &mut [Transaction<'_>]) -> Result<(), Retry> {
    for i in 0..group.len() {
        // A failed lock half has already released what it took.
        if !lock_one(&mut group[i]) {
            return Err(fail(group, i));
        }
    }
    Ok(())
}

/// Step 3: validates every participant's read set under the group's
/// held locks.
pub(super) fn validate(group: &mut [Transaction<'_>]) -> Result<(), Retry> {
    if group.iter().all(validate_one) {
        Ok(())
    } else {
        Err(fail(group, group.len()))
    }
}

/// Step 5: writes every participant's buffered values back under the
/// held locks and releases them. Infallible. Each timestamp domain
/// publishes all of its members at one draw, at its first member's
/// place in the group; every other participant publishes on its own.
pub(super) fn publish(group: &mut [Transaction<'_>]) {
    for i in 0..group.len() {
        let stm = group[i].stm;
        // The read hooks are the attempt's, the publish is the
        // instance's: one that serves snapshots (it carries the
        // registry) appends every commit, so its Tl2-hook and Mv-hook
        // attempts serialize by timestamp (see `algo::adaptive`).
        if stm.snapshots.is_some() {
            if !group[..i].iter().any(|tx| tx.stm.shares_domain(stm)) {
                mv::publish(group, stm);
            }
            continue;
        }
        let tx = &mut group[i];
        if tx.log.writes.is_empty() {
            // Nothing to write back: drop whatever the lock half took
            // (NOrec's sequence lock; nothing, elsewhere).
            unlock_one(tx);
            continue;
        }
        match tx.mode {
            Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => versioned::publish(tx),
            Hooks::Tlrw => tlrw::publish(tx),
            Hooks::Norec => norec::publish(tx),
        }
    }
}

/// Closes every participant's marker committed and resolves it
/// ([`Transaction::committed`], which releases the read locks
/// visible-read algorithms hold until the outcome is decided).
pub(super) fn resolve(group: &mut [Transaction<'_>]) {
    for tx in group {
        tx.rec_respond(TOpDesc::TryCommit, TOpResult::Committed);
        tx.committed();
    }
}

/// Ends a failed commit: unlocks the first `locked` participants,
/// closes every marker aborted and poisons every participant.
fn fail(group: &mut [Transaction<'_>], locked: usize) -> Retry {
    for tx in &mut group[..locked] {
        unlock_one(tx);
    }
    for tx in group.iter_mut() {
        tx.rec_respond(TOpDesc::TryCommit, TOpResult::Aborted);
        tx.poisoned = true;
    }
    Retry
}

/// One participant's lock half; on `false` it holds nothing.
fn lock_one(tx: &mut Transaction<'_>) -> bool {
    match tx.mode {
        Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => versioned::lock_write_stripes(tx),
        Hooks::Tlrw => tlrw::lock(tx),
        Hooks::Norec => norec::lock(tx),
    }
}

/// One participant's validate half.
fn validate_one(tx: &Transaction<'_>) -> bool {
    match tx.mode {
        Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => versioned::validate(tx).is_ok(),
        // Tlrw's read locks, and NOrec's sequence lock taken at a
        // validated `rv`, already exclude every conflicting commit.
        Hooks::Tlrw | Hooks::Norec => true,
    }
}

/// Undoes one participant's lock half, restoring every lock word it
/// took to its pre-lock state.
fn unlock_one(tx: &mut Transaction<'_>) {
    match tx.mode {
        Hooks::Tl2 | Hooks::Incremental | Hooks::Mv => versioned::rollback(tx),
        Hooks::Tlrw => tlrw::rollback(tx),
        Hooks::Norec => norec::release_seqlock(tx),
    }
}
