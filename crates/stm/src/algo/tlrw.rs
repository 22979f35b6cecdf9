//! Tlrw: TLRW-style **visible reads** (Dice–Shavit, SPAA'10) — the other
//! side of the paper's time–space tradeoff, on real hardware.
//!
//! Where the invisible-read algorithms pay validation work (up to Θ(m²)
//! for Incremental), Tlrw pays **synchronization inside every read**: the
//! first read of a stripe announces itself with one `fetch_add` on the
//! stripe's reader–writer word and holds that read lock until the
//! transaction resolves. A held read lock excludes writers from the whole
//! stripe, so reads are trivially consistent — **no validation, ever**;
//! read-only transactions commit with zero probes
//! (`StatsSnapshot::validation_probes` stays 0).
//!
//! ## Protocol (per stripe word, see [`crate::orec`])
//!
//! * **read**: if the stripe is already read-locked by this transaction,
//!   just load the value. Otherwise `fetch_add(+RW_READER)`; if the
//!   writer flag was set, undo with `fetch_add(-RW_READER)` and abort.
//! * **write**: buffered (generic engine path).
//! * **commit**: for each write stripe in sorted order, CAS the word from
//!   exactly "no foreign owner" (our own read lock, or nothing) to the
//!   writer flag — any other state proves a concurrent reader or writer
//!   and aborts. Publish values, release write locks, then the engine
//!   releases the remaining read locks.
//!
//! All lock releases are arithmetic (`fetch_add`/`fetch_sub`, never blind
//! stores), so transient reader increments racing with a rollback
//! survive. A failed upgrade CAS restores the consumed read lock *and*
//! re-registers it in `TxLog::rw_reads` — dropping it from the set while
//! restoring the count would leak the lock and starve every later writer
//! on the stripe.
//!
//! Aborts happen only when the lock word proves a concurrent conflicting
//! transaction — progressive. It is **not strongly progressive**: two
//! read-to-write upgraders on the same stripe each see the other's read
//! lock and both abort; the retry schedule's backoff is what makes them
//! eventually diverge.

use crate::engine::{Retry, Stm, Transaction};
use crate::epoch;
use crate::orec::{rw_write_locked, RW_READER, RW_WRITER};
use crate::tvar::{TVar, TxValue};
use std::sync::atomic::Ordering;

/// No snapshot clock: consistency comes from the held read locks.
pub(crate) fn begin(_stm: &Stm) -> u64 {
    0
}

/// Visible read: announce a reader on the stripe (one `fetch_add`), then
/// apply `f` to the value under the held lock. O(1), no validation.
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    let stripe = tx.stm.orecs.stripe_of(var.id());
    if !tx.log.rw_contains(stripe) {
        let word = tx.stm.orecs.word(stripe);
        let prev = word.fetch_add(RW_READER, Ordering::AcqRel);
        if rw_write_locked(prev) {
            // A writer owns the stripe: undo the announcement and abort.
            word.fetch_sub(RW_READER, Ordering::AcqRel);
            tx.tally.reader_conflict();
            return Err(Retry);
        }
        tx.log.rw_insert(stripe);
    }
    // The held read lock excludes writers until this transaction
    // resolves, so the loaded value cannot be concurrently replaced.
    Ok(var.inner.read_snapshot(&tx.pin, f))
}

/// Lock half (Tlrw's whole commit-time check): upgrade/acquire the
/// write set's locks stripe by stripe in sorted order, publishing
/// nothing. `TxLog::held_buf` entries are
/// `(stripe, was_read)`: whether the write lock was acquired by
/// upgrading our own read lock (1) or from an unowned word (0) —
/// rollback and release must undo exactly what was done. On failure
/// every acquired lock is rolled back (consumed read locks restored and
/// re-registered). A read-only attempt acquires nothing: its held read
/// locks already are its validation, so there is no validate half.
pub(crate) fn lock(tx: &mut Transaction<'_>) -> bool {
    tx.log.collect_write_stripes(&tx.stm.orecs);
    for i in 0..tx.log.stripe_buf.len() {
        let stripe = tx.log.stripe_buf[i];
        let upgrading = tx.log.rw_contains(stripe);
        let expected = if upgrading { RW_READER } else { 0 };
        let word = tx.stm.orecs.word(stripe);
        if word
            .compare_exchange(expected, RW_WRITER, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Foreign readers or a writer hold the stripe: roll back.
            rollback(tx);
            tx.tally.reader_conflict();
            return false;
        }
        if upgrading {
            // The CAS consumed our read lock; track it as a write lock.
            tx.log.rw_remove(stripe);
        }
        tx.log.held_buf.push((stripe, u64::from(upgrading)));
    }
    true
}

/// Publish half: write back under the write locks [`lock`] acquired
/// and drop them. Infallible. (Read locks that were not upgraded stay
/// held; the engine releases them right after.)
pub(crate) fn publish(tx: &mut Transaction<'_>) {
    // Tlrw's own protocol never touches the clock; a durable commit
    // draws a tick here purely as a log stamp, while the write locks
    // still exclude every conflicting transaction — so stamps (and log
    // order) respect conflict order (see `crate::wal`). Non-durable
    // commits skip the draw entirely.
    if tx.has_staged() {
        let stamp = tx.stm.clock.fetch_add(1, Ordering::AcqRel) + 1;
        tx.durability_record(stamp);
    }
    tx.log.publish_writes();
    for &(stripe, _) in &tx.log.held_buf {
        tx.stm
            .orecs
            .word(stripe)
            .fetch_sub(RW_WRITER, Ordering::AcqRel);
    }
    epoch::retire_batch(&mut tx.log.retired);
    // Wake waiters parked on the written stripes — after the write
    // locks drop, so a woken reader can immediately re-acquire.
    tx.stm.wake_stripes(tx.log.stripe_buf.iter().copied());
}

/// Undoes the write locks a failed lock half, or a failed group commit,
/// acquired: upgraded stripes get their read lock back (and
/// re-registered), fresh acquisitions drop to unowned. It wakes
/// nobody: a restored word readies no logical wait.
pub(crate) fn rollback(tx: &mut Transaction<'_>) {
    for i in 0..tx.log.held_buf.len() {
        let (stripe, was_read) = tx.log.held_buf[i];
        let word = tx.stm.orecs.word(stripe);
        if was_read == 1 {
            // Restore the consumed read lock (writer flag off, our
            // reader back) and re-register it so abort cleanup releases
            // it — restoring the count without re-registering would leak
            // the lock.
            word.fetch_add(RW_READER.wrapping_sub(RW_WRITER), Ordering::AcqRel);
            tx.log.rw_insert(stripe);
        } else {
            word.fetch_sub(RW_WRITER, Ordering::AcqRel);
        }
    }
    tx.log.held_buf.clear();
}
