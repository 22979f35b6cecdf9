//! A bucket-striped transactional hash map.

use ptm_stm::{Retry, TVar, Transaction, TxValue};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default number of buckets (power of two).
const DEFAULT_BUCKETS: usize = 64;

/// A transactional hash map, striped across a fixed set of buckets.
///
/// Each bucket is one `TVar` holding a small association list, so two
/// transactions conflict only when their keys share a bucket: disjoint
/// keys commit in parallel, which is the disjoint-access-parallel
/// behaviour the paper's model prices. More buckets mean fewer false
/// conflicts; the count is fixed at construction (no transactional
/// resize), so size it for the expected key population.
///
/// `len` is computed by scanning the buckets rather than kept in a
/// counter `TVar`: a shared counter would serialize every insert/remove
/// pair on one hot variable and destroy the parallelism striping buys.
///
/// Reads borrow: `get`, `contains_key`, `len`, `is_empty` and `snapshot`
/// look at each bucket in place and clone only what they return — `get`
/// one `V`, the tests nothing, `snapshot` each entry once. `get` and
/// `contains_key` read their one bucket with [`Transaction::read_with`];
/// `len`, `is_empty` and `snapshot` read every bucket in one
/// [`Transaction::read_each`] call, which runs the engine's per-read
/// checks once per scan instead of once per bucket (on an attempt that
/// records no history and has written nothing).
/// [`snapshot_into`](THashMap::snapshot_into) appends
/// those entries to a buffer the caller owns, so a scan over several
/// maps fills one vector instead of copying one per map. Writers are
/// copy-on-write: `insert` / `remove` clone the bucket once, edit the
/// copy and buffer it.
///
/// # Examples
///
/// ```
/// use ptm_stm::Stm;
/// use ptm_structs::THashMap;
///
/// let stm = Stm::tl2();
/// let m: THashMap<String, u64> = THashMap::new();
/// stm.atomically(|tx| {
///     m.insert(tx, "a".into(), 1)?;
///     m.insert(tx, "b".into(), 2)
/// });
/// assert_eq!(stm.atomically(|tx| m.get(tx, &"a".into())), Some(1));
/// assert_eq!(stm.atomically(|tx| m.len(tx)), 2);
/// ```
pub struct THashMap<K, V> {
    buckets: Arc<[Bucket<K, V>]>,
}

/// One bucket: a small association list behind a single `TVar`.
type Bucket<K, V> = TVar<Vec<(K, V)>>;

/// The bucket-index hasher: folds the `Hash` stream eight bytes at a
/// time with rotate–xor–multiply (one multiply per word) and finishes
/// with an xorshift–multiply–xorshift avalanche, so every input bit
/// reaches the low bits [`THashMap::bucket_of`] keeps.
///
/// **Memory-only**: bucket indices are never persisted or compared
/// across processes, so — unlike `ptm-server`'s frozen shard router —
/// this function may change freely. It is deliberately *not* that
/// router's function (FNV-1a + splitmix64): a sharded store sends a key
/// to shard `router(key) % shards`, so a map that bucketed by the same
/// hash would see only keys whose low bits are already fixed, and leave
/// all but `1 / shards` of its buckets empty. It is unkeyed, like the
/// zero-keyed SipHash it replaces: no HashDoS resistance was or is on
/// offer here.
#[derive(Default)]
struct BucketHasher(u64);

impl BucketHasher {
    /// 2^64 / φ, odd.
    const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
    /// The second multiplier of MurmurHash3's 64-bit finalizer.
    const FINISH: u64 = 0xc4ce_b9fe_1a85_ec53;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::FOLD);
    }
}

impl Hasher for BucketHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    // The common key: one fold, no byte loop. (Every other integer
    // width reaches `write` as a fixed-size slice and folds as one
    // zero-padded word there.)
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z ^= z >> 32;
        z = z.wrapping_mul(Self::FINISH);
        z ^ (z >> 29)
    }
}

impl<K, V> Clone for THashMap<K, V> {
    fn clone(&self) -> Self {
        THashMap {
            buckets: Arc::clone(&self.buckets),
        }
    }
}

impl<K, V> fmt::Debug for THashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("THashMap")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<K: TxValue + Hash + Eq, V: TxValue> Default for THashMap<K, V> {
    fn default() -> Self {
        THashMap::new()
    }
}

impl<K: TxValue + Hash + Eq, V: TxValue> THashMap<K, V> {
    /// A map with the default bucket count (64).
    pub fn new() -> Self {
        THashMap::with_buckets(DEFAULT_BUCKETS)
    }

    /// A map striped across `n` buckets (rounded up to a power of two,
    /// minimum 1).
    pub fn with_buckets(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        THashMap {
            buckets: (0..n).map(|_| TVar::new(Vec::new())).collect(),
        }
    }

    /// Number of buckets (fixed at construction).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Index of `key`'s bucket: the low bits of its [`BucketHasher`]
    /// hash (the bucket count is a power of two).
    fn bucket_index(&self, key: &K) -> usize {
        let mut h = BucketHasher::default();
        key.hash(&mut h);
        (h.finish() as usize) & (self.buckets.len() - 1)
    }

    fn bucket_of(&self, key: &K) -> &Bucket<K, V> {
        &self.buckets[self.bucket_index(key)]
    }

    /// The value for `key`, if present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn get(&self, tx: &mut Transaction<'_>, key: &K) -> Result<Option<V>, Retry> {
        tx.read_with(self.bucket_of(key), |bucket| {
            bucket
                .iter()
                .find_map(|(k, v)| (k == key).then(|| v.clone()))
        })
    }

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn contains_key(&self, tx: &mut Transaction<'_>, key: &K) -> Result<bool, Retry> {
        tx.read_with(self.bucket_of(key), |bucket| {
            bucket.iter().any(|(k, _)| k == key)
        })
    }

    /// The value for `key`, **blocking** (via [`Transaction::retry`])
    /// until some transaction inserts it: the waiter parks on the key's
    /// bucket stripe and re-runs when a commit touches it. Use
    /// [`THashMap::get`]'s `Ok(None)` when absence is an answer rather
    /// than a reason to wait.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict, and whenever `key` is absent (the engine
    /// turns that into a parked wait).
    pub fn get_wait(&self, tx: &mut Transaction<'_>, key: &K) -> Result<V, Retry> {
        match self.get(tx, key)? {
            Some(v) => Ok(v),
            None => tx.retry(),
        }
    }

    /// Inserts `key -> value`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn insert(&self, tx: &mut Transaction<'_>, key: K, value: V) -> Result<Option<V>, Retry> {
        let var = self.bucket_of(&key);
        let mut bucket = tx.read(var)?;
        let old = match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => Some(std::mem::replace(&mut entry.1, value)),
            None => {
                bucket.push((key, value));
                None
            }
        };
        tx.write(var, bucket)?;
        Ok(old)
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn remove(&self, tx: &mut Transaction<'_>, key: &K) -> Result<Option<V>, Retry> {
        let var = self.bucket_of(key);
        let mut bucket = tx.read(var)?;
        match bucket.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let (_, v) = bucket.swap_remove(i);
                tx.write(var, bucket)?;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Number of entries (scans every bucket; the whole map joins the
    /// read set).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn len(&self, tx: &mut Transaction<'_>) -> Result<usize, Retry> {
        let mut n = 0;
        tx.read_each(&self.buckets, |bucket| n += bucket.len())?;
        Ok(n)
    }

    /// Whether the map has no entries (scans every bucket, even past the
    /// first non-empty one: the scan is one batched read).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn is_empty(&self, tx: &mut Transaction<'_>) -> Result<bool, Retry> {
        let mut empty = true;
        tx.read_each(&self.buckets, |bucket| empty &= bucket.is_empty())?;
        Ok(empty)
    }

    /// A consistent snapshot of every entry, in unspecified order.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn snapshot(&self, tx: &mut Transaction<'_>) -> Result<Vec<(K, V)>, Retry> {
        let mut out = Vec::new();
        self.snapshot_into(tx, &mut out)?;
        Ok(out)
    }

    /// [`snapshot`](Self::snapshot) appended to `out`: one
    /// [`Transaction::read_each`] over the buckets clones each entry in
    /// place, once, into the caller's buffer, and allocates nothing
    /// itself when `out` has room. A caller gathering several maps (or
    /// re-running) reuses one allocation; one that sizes `out` up front
    /// makes it the only one.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict. `out` may then hold a partial prefix of
    /// this map's entries after what it held before; the caller
    /// discards it.
    pub fn snapshot_into(
        &self,
        tx: &mut Transaction<'_>,
        out: &mut Vec<(K, V)>,
    ) -> Result<(), Retry> {
        // Entry by entry: `extend_from_slice` would make one `memcpy`
        // call per bucket, dearer than copying its few entries inline.
        tx.read_each(&self.buckets, |bucket| out.extend(bucket.iter().cloned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::{AdaptiveConfig, Algorithm, Stm};

    /// All six algorithms: `get_wait`'s park/wake path must work under
    /// visible reads (Tlrw), mode switching (Adaptive) and snapshot
    /// reads (Mv), not just the invisible-read trio.
    fn engines() -> Vec<Stm> {
        vec![
            Stm::tl2(),
            Stm::incremental(),
            Stm::norec(),
            Stm::tlrw(),
            Stm::mv(),
            Stm::adaptive(),
        ]
    }

    #[test]
    fn get_wait_blocks_until_the_key_arrives_all_modes() {
        for stm in engines() {
            let m: THashMap<u64, String> = THashMap::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let v = stm.atomically(|tx| m.get_wait(tx, &1));
                    assert_eq!(v, "ready", "{:?}", stm.algorithm());
                });
                std::thread::sleep(std::time::Duration::from_millis(20));
                stm.atomically(|tx| m.insert(tx, 1, "ready".to_string()));
            });
        }
    }

    #[test]
    fn insert_get_remove_roundtrip_all_modes() {
        for stm in engines() {
            let m: THashMap<u64, String> = THashMap::new();
            let prev = stm.atomically(|tx| m.insert(tx, 1, "one".into()));
            assert_eq!(prev, None);
            let prev = stm.atomically(|tx| m.insert(tx, 1, "uno".into()));
            assert_eq!(prev, Some("one".into()));
            assert_eq!(stm.atomically(|tx| m.get(tx, &1)), Some("uno".to_string()));
            assert_eq!(stm.atomically(|tx| m.remove(tx, &1)), Some("uno".into()));
            assert_eq!(stm.atomically(|tx| m.get(tx, &1)), None);
            assert_eq!(stm.atomically(|tx| m.remove(tx, &1)), None);
        }
    }

    #[test]
    fn len_and_snapshot_cover_all_buckets() {
        let stm = Stm::tl2();
        let m: THashMap<u64, u64> = THashMap::with_buckets(4);
        assert_eq!(m.bucket_count(), 4);
        stm.atomically(|tx| {
            for k in 0..32 {
                m.insert(tx, k, k * 10)?;
            }
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| m.len(tx)), 32);
        assert!(!stm.atomically(|tx| m.is_empty(tx)));
        let mut snap = stm.atomically(|tx| m.snapshot(tx));
        snap.sort_unstable();
        assert_eq!(snap.len(), 32);
        assert_eq!(snap[31], (31, 310));
    }

    #[test]
    fn batched_snapshots_still_vote_an_adaptive_instance_to_mv() {
        // A snapshot reads its buckets through `read_each`, which counts
        // each bucket as a read whichever body runs: 64-bucket read-only
        // scans switch the instance to Mv (reads counted on the Tl2
        // hooks), and keep it there once every scan takes the batched
        // Mv body — a scan that tallied no reads would vote it back.
        let stm = Stm::builder(Algorithm::Adaptive)
            .adaptive_config(AdaptiveConfig {
                window_commits: 8,
                hysteresis_windows: 1,
                mv_scan_reads: 32.0,
            })
            .build();
        let m: THashMap<u64, u64> = THashMap::with_buckets(64);
        stm.atomically(|tx| m.insert(tx, 1, 10));
        for _ in 0..32 {
            assert_eq!(stm.atomically(|tx| m.snapshot(tx)), vec![(1, 10)]);
        }
        assert_eq!(stm.active_mode(), Algorithm::Mv);
        let before = stm.stats().snapshot();
        for _ in 0..64 {
            stm.atomically(|tx| m.snapshot(tx));
        }
        let d = stm.stats().snapshot().since(&before);
        assert_eq!(stm.active_mode(), Algorithm::Mv, "the vote stayed Mv");
        assert_eq!(d.mode_transitions, 0);
        assert_eq!((d.reads, d.snapshot_reads), (64 * 64, 64 * 64));
    }

    #[test]
    fn bucket_count_rounds_up_to_power_of_two() {
        let m: THashMap<u64, u64> = THashMap::with_buckets(3);
        assert_eq!(m.bucket_count(), 4);
        let m: THashMap<u64, u64> = THashMap::with_buckets(0);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn single_bucket_still_correct() {
        let stm = Stm::norec();
        let m: THashMap<u64, u64> = THashMap::with_buckets(1);
        stm.atomically(|tx| {
            m.insert(tx, 1, 10)?;
            m.insert(tx, 2, 20)?;
            m.remove(tx, &1)?;
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| m.get(tx, &2)), Some(20));
        assert_eq!(stm.atomically(|tx| m.len(tx)), 1);
    }

    /// `ptm-server`'s frozen shard router, copied: FNV-1a 64 over the
    /// little-endian bytes, splitmix64 finisher.
    fn shard_router(key: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bucket_hash_is_independent_of_the_shard_router() {
        // A sharded store hands each shard's map only the keys with
        // `router(key) % shards == shard`. A bucket hash correlated with
        // the router would crowd them into `1 / shards` of the buckets;
        // this one must spread every shard's quarter of the key space
        // like a random function would (expected: ~98 % of 1 024 buckets
        // occupied by ~4 096 keys, longest bucket around a dozen).
        const SHARDS: u64 = 4;
        const BUCKETS: usize = 1_024;
        let m: THashMap<u64, u64> = THashMap::with_buckets(BUCKETS);
        for shard in 0..SHARDS {
            let mut load = [0usize; BUCKETS];
            for key in (0..16_384u64).filter(|&k| shard_router(k) % SHARDS == shard) {
                load[m.bucket_index(&key)] += 1;
            }
            let filled = load.iter().filter(|&&n| n > 0).count();
            let longest = load.iter().copied().max().unwrap_or(0);
            assert!(
                filled * 100 >= BUCKETS * 95,
                "shard {shard}: only {filled} of {BUCKETS} buckets used"
            );
            assert!(
                longest <= 16,
                "shard {shard}: a bucket holds {longest} keys"
            );
        }
    }

    #[test]
    fn bucket_hash_reads_every_byte_of_a_key() {
        // Byte-stream keys: the tail shorter than a word, and the word
        // boundaries, all reach the index.
        let m: THashMap<String, u64> = THashMap::with_buckets(1 << 16);
        let keys = [
            "",
            "a",
            "b",
            "abcdefgh",
            "abcdefgi",
            "abcdefgh1",
            "abcdefgh2",
        ];
        let mut idx: Vec<usize> = keys
            .iter()
            .map(|k| m.bucket_index(&k.to_string()))
            .collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(
            idx.len(),
            keys.len(),
            "distinct keys collided in 65 536 buckets"
        );
    }

    #[test]
    fn clones_share_state() {
        let stm = Stm::tl2();
        let a: THashMap<u64, u64> = THashMap::new();
        let b = a.clone();
        stm.atomically(|tx| a.insert(tx, 9, 9));
        assert_eq!(stm.atomically(|tx| b.get(tx, &9)), Some(9));
    }
}
