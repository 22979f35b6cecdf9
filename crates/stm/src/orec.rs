//! Striped ownership records (orecs): the per-stripe metadata words
//! behind every orec-based algorithm.
//!
//! Instead of a lock word *inside* every [`TVar`](crate::TVar) (the seed
//! design, which also kept the value under a mutex), each
//! [`Stm`](crate::Stm) owns a fixed, cache-padded table of words. A
//! variable maps to a stripe by hashing its address, the way production
//! TL2 implementations key their global lock table. The same table serves
//! two word formats, chosen by the instance's algorithm (one instance
//! runs one algorithm, so the formats never mix):
//!
//! * **Versioned lock** (`Tl2` / `Incremental` / `Mv`, and both modes of
//!   `Adaptive`): `version << 1 | locked`, the version a clock tick.
//!   Reads validate optimistically — load word, read value, re-check
//!   word — and acquire nothing; only commits lock stripes, in sorted
//!   order, for the duration of write-back.
//! * **Reader–writer lock** (`Tlrw`): bit 0 is the writer flag, the
//!   remaining bits count announced readers in units of [`RW_READER`].
//!   Every t-read `fetch_add`s itself into the count (a *visible* read),
//!   holds the stripe to commit, and never validates; writers CAS the
//!   word from "no foreign owner" to the writer flag and abort otherwise.
//!
//! Striping trades false conflicts (two variables hashing to one stripe
//! abort each other) for constant space and zero per-variable metadata.
//! The stripe count is a power of two, tunable per instance via
//! [`StmBuilder::orec_stripes`](crate::StmBuilder::orec_stripes).

use crate::waiter::WaiterTable;
use std::sync::atomic::AtomicU64;

/// Default number of stripes per [`Stm`](crate::Stm) instance.
pub(crate) const DEFAULT_STRIPES: usize = 1024;

/// Pads a word to its own cache line pair so stripe traffic never
/// false-shares.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Whether the lock bit of an orec word is set.
pub(crate) fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

/// The version stamped into an orec word.
pub(crate) fn version_of(word: u64) -> u64 {
    word >> 1
}

/// An unlocked orec word carrying `version`.
pub(crate) fn stamped(version: u64) -> u64 {
    version << 1
}

/// The writer flag of a reader–writer word (`Algorithm::Tlrw`).
pub(crate) const RW_WRITER: u64 = 1;

/// One announced reader in a reader–writer word: readers arrive and
/// leave with `fetch_add(±RW_READER)`, so the count occupies the bits
/// above the writer flag.
pub(crate) const RW_READER: u64 = 2;

/// Whether the writer flag of a reader–writer word is set.
pub(crate) fn rw_write_locked(word: u64) -> bool {
    word & RW_WRITER != 0
}

/// Announced readers in a reader–writer word.
#[cfg(test)]
pub(crate) fn rw_reader_count(word: u64) -> u64 {
    word >> 1
}

/// A power-of-two table of versioned lock words, with a waiter bucket
/// per stripe for parked `retry`/`or_else` transactions.
pub(crate) struct OrecTable {
    words: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
    /// Per-stripe parked-waiter lists, keyed exactly like the words
    /// above so a committing writer's write stripes name the wait
    /// channels it must sweep — whichever algorithm (or adaptive mode)
    /// stamped the stripe.
    waiters: WaiterTable,
}

impl OrecTable {
    /// Builds a table of at least `stripes` words (rounded up to a power
    /// of two, minimum 1).
    pub(crate) fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        let words = (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect();
        OrecTable {
            words,
            mask: n - 1,
            waiters: WaiterTable::new(n),
        }
    }

    /// The per-stripe waiter lists.
    pub(crate) fn waiters(&self) -> &WaiterTable {
        &self.waiters
    }

    /// Number of stripes.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Maps a variable identity (its heap address) to a stripe index.
    ///
    /// Fibonacci hashing spreads the aligned, allocator-clustered
    /// addresses across stripes; equal ids always collapse to the same
    /// stripe, which is what gives commit-time locking its meaning.
    pub(crate) fn stripe_of(&self, id: usize) -> usize {
        (((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    /// The lock word of a stripe.
    pub(crate) fn word(&self, stripe: usize) -> &AtomicU64 {
        &self.words[stripe].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn word_format_roundtrips() {
        assert!(!is_locked(stamped(7)));
        assert!(is_locked(stamped(7) | 1));
        assert_eq!(version_of(stamped(7)), 7);
        assert_eq!(version_of(stamped(7) | 1), 7);
    }

    #[test]
    fn rw_word_format_counts_readers_above_the_writer_flag() {
        assert!(!rw_write_locked(0));
        assert!(rw_write_locked(RW_WRITER));
        assert_eq!(rw_reader_count(0), 0);
        assert_eq!(rw_reader_count(3 * RW_READER), 3);
        // A transient reader increment on a write-locked word keeps the
        // flag visible and the count intact.
        assert!(rw_write_locked(RW_WRITER + 2 * RW_READER));
        assert_eq!(rw_reader_count(RW_WRITER + 2 * RW_READER), 2);
    }

    #[test]
    fn table_rounds_to_power_of_two() {
        assert_eq!(OrecTable::new(1000).len(), 1024);
        assert_eq!(OrecTable::new(1).len(), 1);
        assert_eq!(OrecTable::new(0).len(), 1);
    }

    #[test]
    fn stripe_mapping_is_stable_and_in_range() {
        let t = OrecTable::new(64);
        for id in (8..8_000).step_by(8) {
            let s = t.stripe_of(id);
            assert!(s < t.len());
            assert_eq!(s, t.stripe_of(id));
        }
    }

    #[test]
    fn stripes_spread_aligned_addresses() {
        // Heap addresses are 8/16-byte aligned; the hash must not collapse
        // them onto a few stripes.
        let t = OrecTable::new(64);
        let mut hit = vec![false; t.len()];
        for id in (0..(64 * 16)).map(|i| 0x7f00_0000_0000usize + i * 16) {
            hit[t.stripe_of(id)] = true;
        }
        let used = hit.iter().filter(|h| **h).count();
        assert!(used > t.len() / 2, "only {used}/{} stripes used", t.len());
    }

    #[test]
    fn words_start_unlocked_at_version_zero() {
        let t = OrecTable::new(4);
        for s in 0..t.len() {
            assert_eq!(t.word(s).load(Ordering::Relaxed), 0);
        }
    }
}
