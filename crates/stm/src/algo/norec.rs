//! NOrec: a single global sequence lock and value-based validation.
//!
//! No per-variable version traffic on commit besides the value itself;
//! reads snapshot values and revalidate the whole read set *by value*
//! whenever the sequence clock moves, which makes equal-value
//! write-backs (value-level ABA) invisible instead of abort-inducing.

use crate::engine::{Retry, Stm, Transaction};
use crate::epoch;
use crate::tvar::{TVar, TxValue};
use crate::txlog::ValueRead;
use std::sync::atomic::Ordering;

/// Snapshot time: the sequence lock, spun to an even (quiescent) value.
pub(crate) fn begin(stm: &Stm) -> u64 {
    loop {
        let t = stm.clock.load(Ordering::Acquire);
        if t & 1 == 0 {
            return t;
        }
        std::hint::spin_loop();
    }
}

/// Value-snapshot read: consistent as long as the sequence clock has not
/// moved; otherwise revalidate everything by value and retry the read.
/// The one read hook that still clones (and boxes) the value: validation
/// compares against that snapshot later, so `f` is applied to it.
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    loop {
        let v = var.inner.read_snapshot(&tx.pin, T::clone);
        let t = tx.stm.clock.load(Ordering::Acquire);
        if t == tx.rv {
            let out = f(&v);
            tx.log.value_reads.push(ValueRead {
                var: var.as_dyn(),
                snapshot: Box::new(v),
            });
            return Ok(out);
        }
        tx.rv = validate(tx)?;
    }
}

/// Waits for an even sequence value, then compares every read snapshot
/// with the current value. Returns the validated time.
pub(crate) fn validate(tx: &Transaction<'_>) -> Result<u64, Retry> {
    loop {
        let t = loop {
            let t = tx.stm.clock.load(Ordering::Acquire);
            if t & 1 == 0 {
                break t;
            }
            std::hint::spin_loop();
        };
        tx.tally.probes(tx.log.value_reads.len() as u64);
        for r in &tx.log.value_reads {
            if !r.var.value_eq(&tx.pin, r.snapshot.as_ref()) {
                return Err(Retry);
            }
        }
        if tx.stm.clock.load(Ordering::Acquire) == t {
            return Ok(t);
        }
    }
}

/// Lock half: win the sequence lock (CAS even `rv` to the odd
/// `rv + 1`), revalidating by value after every lost race; `false`
/// means validation proved a conflicting commit. The CAS only lands at
/// an `rv` the read set was validated at, and the held lock freezes the
/// instance, so there is no validate half. On success the instance's
/// clock is odd and owned by this transaction — every other reader and
/// committer of the instance waits — so the caller must promptly
/// [`publish`] or [`release_seqlock`]. A group commit locks its
/// read-only participants too (see the engine's `twophase` module).
pub(crate) fn lock(tx: &mut Transaction<'_>) -> bool {
    loop {
        let rv = tx.rv;
        if tx
            .stm
            .clock
            .compare_exchange(rv, rv + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return true;
        }
        let Ok(t) = validate(tx) else {
            return false;
        };
        tx.rv = t;
    }
}

/// Publish half: write back under the held sequence lock and bump the
/// clock to the next even value. Infallible.
pub(crate) fn publish(tx: &mut Transaction<'_>) {
    tx.log.publish_writes();
    // Log the staged durability payload, stamped with the commit's
    // even sequence value, before the clock store below lets any other
    // transaction proceed: the sequence lock serializes all commits, so
    // log order is exactly commit order (see `crate::wal`).
    let stamp = tx.rv + 2;
    tx.durability_record(stamp);
    tx.stm.clock.store(tx.rv + 2, Ordering::Release);
    epoch::retire_batch(&mut tx.log.retired);
    // One sequence lock means one conflict channel: every commit may
    // ready every waiter (they all wait on the clock, registered under
    // stripe 0 — see `Transaction::wait_stripes`).
    tx.stm.wake_stripes([0]);
}

/// Abandons a won sequence lock without publishing: restore the even
/// pre-acquire value so readers and committers proceed as if the lock
/// half never happened. For a failed group commit, and for a read-only
/// participant of a committed one.
pub(crate) fn release_seqlock(tx: &Transaction<'_>) {
    tx.stm.clock.store(tx.rv, Ordering::Release);
}
