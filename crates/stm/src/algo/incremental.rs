//! Incremental: the paper's invisible-read weak-DAP progressive TM
//! transplanted to real hardware.
//!
//! No clock read on the read path; every t-read re-validates the entire
//! read set by version equality — quadratic validation work, observable
//! in [`StmStats::snapshot`](crate::StmStats::snapshot) and in
//! wall-clock time. Commit is the shared versioned-orec path
//! ([`super::versioned`]).

use crate::engine::{Retry, Stm, Transaction};
use crate::orec;
use crate::tvar::{TVar, TxValue};
use std::sync::atomic::Ordering;

/// No snapshot clock: consistency comes from re-validation alone.
pub(crate) fn begin(_stm: &Stm) -> u64 {
    0
}

/// Invisible read followed by full read-set re-validation — every prior
/// read, every time (the Θ(m²) signature of Theorem 3(1)). A held lock
/// on the read's stripe aborts, as in Tl2's read.
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> Result<R, Retry> {
    let stripe = tx.stm.orecs.stripe_of(var.id());
    let word = tx.stm.orecs.word(stripe);
    let m1 = word.load(Ordering::Acquire);
    if orec::is_locked(m1) {
        return Err(Retry);
    }
    let out = var.inner.read_snapshot(&tx.pin, f);
    let m2 = word.load(Ordering::Acquire);
    if m2 != m1 {
        return Err(Retry);
    }
    super::versioned::validate(tx)?;
    super::versioned::record_read(tx, stripe, m1);
    Ok(out)
}
