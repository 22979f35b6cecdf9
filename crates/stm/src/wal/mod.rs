//! Opt-in durability: a group-committed, checksummed write-ahead log
//! the engine appends to from inside each algorithm's publish critical
//! section.
//!
//! ## The commit → log → fsync ordering argument
//!
//! The one invariant everything downstream (snapshots, recovery,
//! cross-shard roll-forward) leans on is:
//!
//! > **Log order on one instance respects that instance's conflict
//! > order.** If committed transaction B read or overwrote anything A
//! > wrote, A's record precedes B's record, and A's stamp < B's stamp.
//!
//! It holds because the engine calls [`Wal::append`] *inside the publish
//! critical section, after the commit tick is drawn but before the write
//! set becomes reader-visible*:
//!
//! * **Tl2 / Incremental** — between drawing `wv` and releasing the
//!   write stripes. B conflicting with A must acquire or validate a
//!   stripe A still holds, so B's entire commit (tick and append) runs
//!   after A's release, hence after A's append.
//! * **Mv** — between the clock `fetch_add` and stamping the version
//!   heads (readers spin on a pending stamp, so versions are not
//!   consumable before the append). Writer-writer conflicts serialize
//!   on the held stripes as above.
//! * **Tlrw** — before the writer bits are released; conflicting
//!   transactions are excluded physically until then.
//! * **NOrec** — before the sequence lock is released (the even clock
//!   store); the single lock serializes all commits, so log order is
//!   exactly commit order.
//!
//! The consequence for crash safety: a torn tail is a *suffix* in
//! conflict order, so replaying the surviving prefix (what
//! [`codec::decode_stream`] yields) reproduces a state the pre-crash
//! system actually passed through — the prefix-closure property the
//! crash-point harness in `ptm-server` asserts.
//!
//! Acknowledgement is the caller's second step: [`Wal::append`] only
//! buffers (so the critical section stays I/O-free) and returns an LSN;
//! the caller acks its client after [`Wal::wait_durable`] on that LSN —
//! commit, then log, then fsync, then ack.
//!
//! The pieces: [`codec`] (record framing, CRC-64, clean-prefix
//! decoding, the [`WalValue`] wire trait), [`sink`] (file / memory /
//! fault-injection byte sinks, and [`replace_file`], the one atomic file
//! replace), and [`Wal`] (the two-lock group-commit writer).

pub mod codec;
pub mod sink;
mod writer;

pub use codec::{Corruption, Decoded, Record, WalValue, FLAG_META};
pub use sink::{replace_file, FaultPlan, FaultSink, LogSink, MemSink};
pub use writer::Wal;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Carries a staged commit's LSN from the publish critical section back
/// to the committer: cloneable, cheap, and reusable across retried
/// attempts (only the attempt that publishes writes it).
///
/// # Examples
///
/// ```
/// use ptm_stm::wal::{DurableTicket, MemSink, Wal};
/// use ptm_stm::{Algorithm, Stm, TVar};
/// use std::sync::Arc;
///
/// let wal = Arc::new(Wal::with_sink(Box::new(MemSink::new())));
/// let stm = Stm::builder(Algorithm::Tl2)
///     .durability_hook(wal.clone())
///     .build();
/// let v = TVar::new(0u64);
/// let ticket = DurableTicket::new();
/// stm.atomically(|tx| {
///     tx.write(&v, 7)?;
///     tx.stage_durable(Arc::from(&b"v=7"[..]), &ticket);
///     Ok(())
/// });
/// let lsn = ticket.lsn().expect("commit published the staged payload");
/// wal.wait_durable(lsn).unwrap(); // fsync before acknowledging
/// ```
#[derive(Debug, Clone, Default)]
pub struct DurableTicket(Arc<AtomicU64>);

/// Sentinel for "not logged (yet)".
const UNSET: u64 = u64::MAX;

impl DurableTicket {
    /// A fresh, unfilled ticket.
    pub fn new() -> Self {
        DurableTicket(Arc::new(AtomicU64::new(UNSET)))
    }

    /// The LSN the publishing commit logged under, once it has.
    pub fn lsn(&self) -> Option<u64> {
        match self.0.load(Ordering::Acquire) {
            UNSET => None,
            lsn => Some(lsn),
        }
    }

    /// Clears a ticket for reuse by an unrelated commit.
    pub fn reset(&self) {
        self.0.store(UNSET, Ordering::Release);
    }

    pub(crate) fn set(&self, lsn: u64) {
        self.0.store(lsn, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_starts_unset_and_resets() {
        let t = DurableTicket::new();
        assert_eq!(t.lsn(), None);
        t.set(3);
        assert_eq!(t.lsn(), Some(3));
        let clone = t.clone();
        assert_eq!(clone.lsn(), Some(3), "clones share the slot");
        t.reset();
        assert_eq!(clone.lsn(), None);
    }
}
