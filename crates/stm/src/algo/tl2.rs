//! Tl2: global version clock, invisible O(1) reads.
//!
//! A read validates in O(1) against the snapshot time with an optimistic
//! word-check / read / re-check and **acquires no lock**; commit is the
//! shared versioned-orec path ([`super::versioned`]): lock the write
//! set's stripes in sorted order, validate the read set once, stamp the
//! stripes with a commit timestamp drawn by one `fetch_add` on the global
//! clock, as the simulated `ptm_core` Tl2 draws it.

use crate::engine::{Retry, Stm, Transaction};
use crate::orec;
use crate::tvar::{TVar, TxValue};
use std::sync::atomic::Ordering;

/// Snapshot time: the global version clock at transaction begin.
pub(crate) fn begin(stm: &Stm) -> u64 {
    stm.clock.load(Ordering::Acquire)
}

/// Optimistic invisible read: any stripe version newer than the
/// snapshot (or a held lock) means a concurrent commit and aborts. `f`
/// runs between the check and the re-check; a failed re-check drops its
/// result.
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    let stripe = tx.stm.orecs.stripe_of(var.id());
    let word = tx.stm.orecs.word(stripe);
    let m1 = word.load(Ordering::Acquire);
    if orec::is_locked(m1) || orec::version_of(m1) > tx.rv {
        return Err(Retry);
    }
    let out = var.inner.read_snapshot(&tx.pin, f);
    let m2 = word.load(Ordering::Acquire);
    if m2 != m1 {
        return Err(Retry);
    }
    super::versioned::record_read(tx, stripe, m1);
    Ok(out)
}
