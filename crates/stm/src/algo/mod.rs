//! The algorithm-strategy layer: one module per validation algorithm,
//! four hooks each.
//!
//! The engine ([`crate::Stm`] / [`crate::Transaction`]) owns everything
//! algorithm-*independent* — the transaction log, the attempt loop and
//! its retry schedule, the group commit's phase order, epoch pinning,
//! history recording, statistics — and delegates the
//! algorithm-*specific* steps to this layer: two hooks for running an
//! attempt and three halves of its commit, dispatched once each.
//!
//! | hook | contract |
//! |------|----------|
//! | `begin(tx)` | sample the snapshot time (clock, sequence lock, or nothing) at the transaction's first operation |
//! | `read(tx, var, f) -> Result<R, Retry>` | apply `f`, in place, to a value consistent with every earlier read of the attempt (no clone unless `f` makes one), recording whatever validation needs (versioned read, value snapshot, or a held read lock) |
//! | lock `(tx) -> bool` | acquire the write set's commit locks (recorded in `TxLog::{stripe_buf, held_buf}`; NOrec: the sequence lock), publishing nothing; on `false` every lock taken is already rolled back |
//! | validate `(tx) -> bool` | the read set is still current under the held locks (versioned only: Tlrw's read locks and NOrec's sequence lock leave nothing to check) |
//! | `publish(tx)` | infallible: write the buffered values back under the held locks, log the staged durability payload, release, wake waiters |
//!
//! A commit is every participant's lock, then every participant's
//! validate, then every participant's publish — always, whether the
//! group is [`Stm::run`](crate::Stm::run)'s lone attempt or a
//! coordinator's [`Transaction::commit_all`](crate::Transaction::commit_all)
//! over several instances. The phase order lives in the engine's
//! `twophase` module, so there is one commit path per algorithm to cost.
//!
//! Read-only lone commits are generic: an attempt whose last read
//! validated (invisible-read algorithms), whose read locks are still
//! held (Tlrw), or whose every read resolved against its start-time
//! snapshot (Mv) is already serialized, so the engine commits it
//! without calling back in here. A read-only participant of a larger
//! group does lock and validate — with an empty write set the lock half
//! takes nothing but NOrec's sequence lock — which is what rules out a
//! torn or skewed cut across instances, unless the group wrote nothing
//! and every member read at one `rv` of one timestamp domain.
//! Likewise generic is read-lock release — the engine undoes
//! `TxLog::rw_reads` on every exit path, including `Drop`, so a
//! panicking body cannot leak a visible read's lock.
//!
//! The hooks dispatch on the attempt's [`Hooks`], not on the instance's
//! [`Algorithm`]: `Algorithm::Adaptive` is not a hook set but a choice
//! between two, made when each attempt begins (`Stm::hooks`). The
//! publish hook is the one exception — it is the instance's: an
//! instance that serves snapshots (Mv, Adaptive) appends every commit,
//! whichever read hooks the committing attempt ran (see [`adaptive`]).
//!
//! Validation helpers shared between algorithms live in [`versioned`]
//! (the per-read currency check and the stripe-locking half, used by
//! Tl2, Incremental and Mv) and in the modules that own them; a new
//! algorithm is one new module plus one arm in each dispatch — exactly
//! how [`mv`] arrived, swapping the read hook for a version-chain
//! snapshot walk and the publish hook for an appending variant of the
//! versioned one without touching the engine's generic machinery.

pub(crate) mod adaptive;
pub(crate) mod incremental;
pub(crate) mod mv;
pub(crate) mod norec;
pub(crate) mod tl2;
pub(crate) mod tlrw;
pub(crate) mod versioned;

use crate::engine::{Algorithm, Retry, Transaction};
use crate::tvar::{TVar, TxValue};

/// The hook set one attempt runs: an [`Algorithm`] with `Adaptive`
/// resolved, when the attempt begins, to its controller's live mode —
/// so every dispatch below covers exactly the hook sets that exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hooks {
    Tl2,
    Incremental,
    Norec,
    Tlrw,
    Mv,
}

impl From<Hooks> for Algorithm {
    fn from(hooks: Hooks) -> Algorithm {
        match hooks {
            Hooks::Tl2 => Algorithm::Tl2,
            Hooks::Incremental => Algorithm::Incremental,
            Hooks::Norec => Algorithm::Norec,
            Hooks::Tlrw => Algorithm::Tlrw,
            Hooks::Mv => Algorithm::Mv,
        }
    }
}

/// Begin hook: samples the attempt's snapshot time into `tx.rv` lazily
/// at its first operation.
pub(crate) fn begin(tx: &mut Transaction<'_>) {
    tx.rv = match tx.mode {
        Hooks::Tl2 => tl2::begin(tx.stm),
        Hooks::Incremental => incremental::begin(tx.stm),
        Hooks::Norec => norec::begin(tx.stm),
        Hooks::Tlrw => tlrw::begin(tx.stm),
        Hooks::Mv => mv::begin(tx),
    };
}

/// Read hook: the algorithm-specific consistent-read path (the engine
/// has already consulted the write set).
///
/// `f` runs on the version node itself, under the attempt's epoch pin,
/// inside whatever window the algorithm brackets the value load with —
/// so it may see a value the hook then rejects (its result is dropped
/// and the read returns [`Retry`]).
///
/// Kept out of line, so a single read (`Transaction::read_with`) calls
/// one dispatch instead of carrying all five hooks' reads inline (left
/// to the heuristic, it inlined them); [`read_inline`] is the batch
/// loop's copy.
#[inline(never)]
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    read_inline(tx, var, f)
}

/// [`read`], always inlined: in `Transaction::read_each`'s batch loop,
/// so the Mv arm's read inlines there too (left to the heuristic, the
/// dispatch stayed a call in the loop).
#[inline(always)]
pub(crate) fn read_inline<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    match tx.mode {
        Hooks::Tl2 => tl2::read(tx, var, f),
        Hooks::Incremental => incremental::read(tx, var, f),
        Hooks::Norec => norec::read(tx, var, f),
        Hooks::Tlrw => tlrw::read(tx, var, f),
        Hooks::Mv => Ok(mv::read(tx, var, f)),
    }
}
