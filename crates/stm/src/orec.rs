//! Striped ownership records (orecs): the per-stripe metadata words
//! behind every orec-based algorithm.
//!
//! Instead of a lock word *inside* every [`TVar`](crate::TVar) (the seed
//! design, which also kept the value under a mutex), each
//! [`Stm`](crate::Stm) owns a fixed, dense table of words. A
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
//!
//! ## Why the words are dense
//!
//! The words sit eight to a 64-byte line, 8 bytes a stripe (8 KB at the
//! default 1 024 stripes, where one word per 128-byte line pair took
//! 128 KB). A versioned word is written only by commits — the lock CAS
//! and the releasing store — so a neighbour sharing the line costs a
//! reader at most one extra coherence miss when that neighbour commits;
//! TL2 and TinySTM ship the same dense lock array. The stripe, not the
//! line, stays the conflict unit: which attempts abort, progressiveness
//! and every ordering argument are unchanged by the layout. The price is
//! paid by writers of neighbouring stripes, whose commits now pass one
//! line back and forth: two threads committing one-write Tl2
//! transactions on stripes `s` and `s ^ 1` took about 30 % longer per
//! commit than on padded words (a two-core x86-64 probe), a pair that
//! two given variables form with probability 7 in 1 023 at 1 024
//! stripes.
//!
//! Tlrw is the exception. Its reads are visible: each one `fetch_add`s
//! its word and the release `fetch_sub`s it, so two readers of
//! neighbouring stripes write one line on every read, and in the same
//! probe a Tlrw read-only transaction took twice as long on dense words.
//! A Tlrw table is therefore [`spread out`](OrecTable::spread_out), one
//! word per 128-byte line pair, and read at par with the padded table.

use std::sync::atomic::AtomicU64;

/// Default number of stripes per [`Stm`](crate::Stm) instance.
pub(crate) const DEFAULT_STRIPES: usize = 1024;

/// How far apart [`OrecTable::spread_out`] puts two stripes' words: 16
/// words, 128 bytes, one word per cache line pair.
const SPREAD_SHIFT: u32 = 4;

/// Pads a value to its own cache line pair so traffic on it never
/// false-shares: the version clock, which every commit draws from.
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

/// A power-of-two table of versioned lock words.
pub(crate) struct OrecTable {
    words: Box<[AtomicU64]>,
    mask: usize,
    /// A stripe's word is `words[stripe << spread]`: 0 (dense) but in a
    /// [`spread_out`](Self::spread_out) table.
    spread: u32,
}

impl OrecTable {
    /// Builds a table of at least `stripes` words (rounded up to a power
    /// of two, minimum 1).
    pub(crate) fn new(stripes: usize) -> Self {
        Self::with_spread(stripes, 0)
    }

    /// [`new`](Self::new), with each word alone on its cache line pair:
    /// for Tlrw, whose every read RMWs its stripe's word, so two readers
    /// of neighbouring stripes would otherwise pass one line back and
    /// forth (see the module docs). 16 times the words' space.
    pub(crate) fn spread_out(stripes: usize) -> Self {
        Self::with_spread(stripes, SPREAD_SHIFT)
    }

    fn with_spread(stripes: usize, spread: u32) -> Self {
        let n = stripes.max(1).next_power_of_two();
        let words = (0..n << spread).map(|_| AtomicU64::new(0)).collect();
        OrecTable {
            words,
            mask: n - 1,
            spread,
        }
    }

    /// Number of stripes.
    pub(crate) fn len(&self) -> usize {
        self.mask + 1
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
        &self.words[stripe << self.spread]
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
        for t in [OrecTable::new(4), OrecTable::spread_out(4)] {
            for s in 0..t.len() {
                assert_eq!(t.word(s).load(Ordering::Relaxed), 0);
            }
        }
    }

    #[test]
    fn dense_words_share_lines_spread_words_do_not() {
        let line = |t: &OrecTable, s: usize| t.word(s) as *const AtomicU64 as usize / 128;
        let (dense, spread) = (OrecTable::new(64), OrecTable::spread_out(64));
        assert_eq!(spread.len(), 64);
        assert_eq!(
            (0..64)
                .filter(|&s| line(&dense, s) == line(&dense, 0))
                .count(),
            16 - (dense.word(0) as *const AtomicU64 as usize % 128) / 8,
            "dense: 16 words to a 128-byte line pair"
        );
        for s in 1..64 {
            assert_ne!(line(&spread, s), line(&spread, s - 1));
        }
    }
}
