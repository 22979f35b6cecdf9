//! Shared machinery of the versioned-orec hook sets (Tl2, Incremental
//! and Mv): the two halves of their commit — lock the write set's
//! stripes, validate the read set — and the swap publish of the
//! instances that serve no snapshots.

use super::Hooks;
use crate::engine::{Retry, Stm, Transaction};
use crate::orec;
use crate::{epoch, txlog::VersionedRead};
use std::sync::atomic::Ordering;

/// Pushes one versioned read observation into the log.
pub(super) fn record_read(tx: &mut Transaction<'_>, stripe: usize, meta: u64) {
    tx.log.reads.push(VersionedRead { stripe, meta });
}

/// Held-stripe counts up to this are probed by linear scan during
/// validation; larger sets binary-search (the list is sorted — see
/// [`held_word`]). Same hybrid rationale as the log's registries: tiny
/// scans are cache-hot, big ones must not turn validation into an
/// O(reads × writes) corner.
const HELD_LINEAR_MAX: usize = 8;

/// The pre-lock word for `stripe`, if it is among this commit's held
/// locks. `held` is in ascending stripe order by construction
/// ([`lock_write_stripes`] walks the sorted, deduplicated write
/// stripes), so sets past [`HELD_LINEAR_MAX`] resolve in O(log w).
fn held_word(held: &[(usize, u64)], stripe: usize) -> Option<u64> {
    debug_assert!(
        held.windows(2).all(|w| w[0].0 < w[1].0),
        "held-lock list must be strictly sorted by stripe"
    );
    if held.len() <= HELD_LINEAR_MAX {
        held.iter()
            .find(|&&(s, _)| s == stripe)
            .map(|&(_, pre)| pre)
    } else {
        held.binary_search_by_key(&stripe, |&(s, _)| s)
            .ok()
            .map(|i| held[i].1)
    }
}

/// Whether a read recorded as `meta` under the `mode` hooks is still
/// current against its stripe's `word`. A Tl2 or Incremental read
/// recorded the word it observed, and is current while the word is
/// unchanged. An Mv snapshot read recorded its snapshot bound, and is
/// current while the stripe is unlocked and stamped no later than that:
/// a lock or a later stamp proves a commit the snapshot did not see.
pub(crate) fn still_current(mode: Hooks, word: u64, meta: u64) -> bool {
    if mode == Hooks::Mv {
        !orec::is_locked(word) && orec::version_of(word) <= meta
    } else {
        word == meta
    }
}

/// Validate half: the read set, [`still_current`] per read. Stripes
/// this transaction has locked (`TxLog::held_buf`, empty outside a
/// commit) validate against their pre-lock words.
pub(crate) fn validate(tx: &Transaction<'_>) -> Result<(), Retry> {
    tx.tally.probes(tx.log.reads.len() as u64);
    for r in &tx.log.reads {
        let word = match held_word(&tx.log.held_buf, r.stripe) {
            Some(pre) => pre,
            None => tx.stm.orecs.word(r.stripe).load(Ordering::Acquire),
        };
        if !still_current(tx.mode, word, r.meta) {
            return Err(Retry);
        }
    }
    Ok(())
}

/// Swap publish, for instances that serve no snapshots (static Tl2 and
/// Incremental): write back under the locks [`lock_write_stripes`]
/// acquired and release them stamped with a commit timestamp drawn by
/// one `fetch_add` on the clock, as `mv::publish` draws it. Infallible —
/// validation already decided the outcome.
pub(crate) fn publish(tx: &mut Transaction<'_>) {
    let wv = tx.stm.clock.fetch_add(1, Ordering::AcqRel) + 1;
    // Log the staged durability payload before the release below makes
    // the write set reader-visible: a conflicting commit serializes on
    // the held stripes, so log order respects conflict order (see
    // `crate::wal`). Memory-only — no I/O under the locks.
    tx.durability_record(wv);
    tx.log.publish_writes();
    release(tx.stm, &tx.log.held_buf, Some(orec::stamped(wv)));
    // Retire only after every swap above: the epoch tag must postdate
    // the last moment a reader could have loaded an old pointer.
    epoch::retire_batch(&mut tx.log.retired);
    // Wake waiters parked on the written stripes — after the release
    // stores above, so a woken reader re-reading the stripe sees the
    // new stamp (and the SeqCst fence inside pairs with registration;
    // see `crate::waiter`).
    tx.stm.wake_stripes(tx.log.stripe_buf.iter().copied());
}

/// Lock half: collects the write set's stripes into `TxLog::stripe_buf`
/// (sorted, deduplicated) and try-locks them in that order, recording
/// each `(stripe, pre-lock word)` in `TxLog::held_buf`. On any
/// already-locked word or lost CAS, releases everything taken so far
/// and returns `false`. A read-only attempt locks nothing.
pub(crate) fn lock_write_stripes(tx: &mut Transaction<'_>) -> bool {
    tx.log.collect_write_stripes(&tx.stm.orecs);
    for i in 0..tx.log.stripe_buf.len() {
        let stripe = tx.log.stripe_buf[i];
        let word = tx.stm.orecs.word(stripe);
        let m = word.load(Ordering::Acquire);
        if !orec::is_locked(m)
            && word
                .compare_exchange(m, m | 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            tx.log.held_buf.push((stripe, m));
            continue;
        }
        rollback(tx);
        return false;
    }
    true
}

/// Abandons the held stripe locks, restoring every pre-lock word: the
/// cleanup of a failed lock half, and of a group commit that failed
/// after this participant locked. It wakes nobody: a restored word
/// readies no logical wait.
pub(crate) fn rollback(tx: &mut Transaction<'_>) {
    release(tx.stm, &tx.log.held_buf, None);
    tx.log.held_buf.clear();
}

/// Stores each held stripe's release word: its pre-lock word (abort) or
/// a new stamped word (commit).
pub(super) fn release(stm: &Stm, held: &[(usize, u64)], stamp: Option<u64>) {
    for &(stripe, pre) in held {
        stm.orecs
            .word(stripe)
            .store(stamp.unwrap_or(pre), Ordering::Release);
    }
}
