//! The shard router and cross-shard group commit coordinator.
//!
//! A [`ShardedKv`] owns N [`Stm`] instances, each carrying a
//! [`THashMap`] partition: in one timestamp domain (one clock, one
//! snapshot registry) when the algorithm serves snapshots (Mv,
//! Adaptive), each with its own clock otherwise. Keys are routed by
//! hash; single-key operations run as ordinary one-shot transactions on
//! the owning shard and never pay any cross-shard cost. Multi-key transactions
//! ([`ShardedKv::transact`]) and consistent scans ([`ShardedKv::scan`])
//! span shards and commit as one group through the coordinator in this
//! module.
//!
//! Durability is a property of the store, not a second store: a
//! `ShardedKv` opened over a directory ([`ShardedKv::open`]) carries a
//! per-shard write-ahead log, and every write through this one surface
//! — `put`, `remove`, and [`ServiceTx`] writes — is journaled, logged
//! inside the publish critical section and acknowledged only once
//! durable. The on-disk format, recovery and checkpoints live in
//! [`crate::durability`]; a store built with [`ShardedKv::new`] has no
//! log and pays one `Option` test per write for the possibility.
//!
//! ## The coordinator's protocol
//!
//! 1. run the body, lazily opening one [`Transaction`] per touched
//!    shard (a shard untouched by the body costs nothing), every one
//!    after the first beside the first ([`Transaction::beside`]): at
//!    its snapshot `rv` in one timestamp domain;
//! 2. commit them as one group, in ascending shard index
//!    ([`Transaction::commit_all`]): **lock** every shard's commit
//!    locks, then **validate** every shard's read set, then **stage**
//!    the journaled write set on every writing shard (durable stores
//!    only), then **publish** every shard — at one clock tick in one
//!    timestamp domain, shard by shard otherwise;
//! 3. if any lock or validation failed, the group commit has already
//!    rolled every shard back — no shard observes anything — and the
//!    body re-runs.
//!
//! Serializability comes from the order of step 2: every shard's
//! write locks are held before any shard's reads are validated, so the
//! group is two-phase across shards and no two transactions can each
//! validate against a write the other has not yet locked (the write
//! skew a lock-then-validate per shard would commit). Atomicity (no
//! torn cross-shard reads) comes from the publish: in one timestamp
//! domain a transaction reads every shard at one `rv` and publishes
//! every shard at one tick `wv`, so a snapshot sees all of a commit or
//! none of it, and a consistent scan — a read-only group — is one
//! snapshot that commits without locking or validating; under the Mv
//! hooks it cannot abort on a concurrent put. Across separate clocks
//! the group holds *every* shard's commit locks from before its first
//! publish until after that shard's own publish, and a scan validates
//! every shard. The per-algorithm arguments live in `ptm_stm`'s
//! `twophase` module docs. Deadlock freedom is this module's
//! obligation and comes from the single global lock order: the
//! stripe-locking halves are try-lock fail-fast, and NOrec's
//! sequence-lock spin only ever waits on a lower-indexed holder chain
//! that terminates at a group free to publish.

use crate::durability::{Journal, LoggedOp};
use ptm_stm::wal::{DurableTicket, Wal};
use ptm_stm::{AdaptiveConfig, Algorithm, Retry, Stm, StmStats, Transaction, TxValue};
use ptm_structs::THashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies the shard-routing hash algorithm. Shard assignment is
/// persisted (snapshots and WAL records carry shard indices), so the
/// durable tier stamps this id into its on-disk geometry and refuses to
/// open a store routed by a different algorithm — bump it whenever
/// [`ShardHasher`] changes.
pub(crate) const SHARD_HASHER_ID: u64 = 1;

/// The pinned shard-routing hasher (id [`SHARD_HASHER_ID`]): FNV-1a 64
/// over the `Hash` byte stream, finished with the splitmix64 mixer so
/// small keys spread across all bits before the shard modulus.
///
/// std's `DefaultHasher` is explicitly allowed to change algorithms
/// between Rust releases; routing through it would let a store written
/// by one toolchain recover under a binary that routes the same keys to
/// *different* shards, silently orphaning the recovered data. This
/// algorithm is frozen by the on-disk format instead.
struct ShardHasher(u64);

impl ShardHasher {
    fn new() -> Self {
        // FNV-1a 64-bit offset basis.
        ShardHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            // FNV-1a 64-bit prime.
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    // The std defaults feed integers in native-endian order and hash
    // usize at its native width; pin both so the routing is identical
    // across architectures, not just across toolchains. (The signed and
    // length-prefix defaults forward to these.)
    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }
    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }
    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }
    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // splitmix64 finisher (Steele et al.), fixed constants.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Geometry and policy knobs for a [`ShardedKv`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of shards (independent `Stm` instances). Minimum 1.
    pub shards: usize,
    /// The STM algorithm every shard runs.
    pub algorithm: Algorithm,
    /// `THashMap` buckets per shard (rounded up to a power of two).
    /// More buckets, fewer false conflicts within a shard.
    pub buckets_per_shard: usize,
    /// Controller tuning applied to every shard when `algorithm` is
    /// [`Algorithm::Adaptive`]; `None` keeps the engine defaults.
    /// Ignored by the static algorithms.
    pub adaptive: Option<AdaptiveConfig>,
}

impl ServiceConfig {
    /// The shard count a store is actually built with (`shards`,
    /// minimum 1).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.max(1)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            algorithm: Algorithm::Tl2,
            buckets_per_shard: 64,
            adaptive: None,
        }
    }
}

/// One shard: an `Stm` instance plus its key partition.
struct Shard<K, V> {
    stm: Stm,
    map: THashMap<K, V>,
}

/// A sharded transactional key-value store.
///
/// # Examples
///
/// ```
/// use ptm_server::ShardedKv;
/// use ptm_stm::Algorithm;
///
/// let kv = ShardedKv::new(4, Algorithm::Tl2);
/// kv.put(1u64, 10u64);
/// kv.put(2u64, 20u64);
/// // A cross-shard transfer: atomic however the keys are partitioned.
/// kv.transact(|tx| {
///     let a = tx.get(&1)?.unwrap_or(0);
///     let b = tx.get(&2)?.unwrap_or(0);
///     tx.put(1, a - 5)?;
///     tx.put(2, b + 5)?;
///     Ok(())
/// });
/// assert_eq!(kv.get(&1), Some(5));
/// assert_eq!(kv.get(&2), Some(25));
/// let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
/// assert_eq!(total, 30);
/// ```
pub struct ShardedKv<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// The store's write-ahead log set, present on a store opened with
    /// [`ShardedKv::open`]: every write is journaled into it.
    pub(crate) journal: Option<Journal<K, V>>,
    /// The length of the last scan's result, which sizes the next
    /// scan's buffer. Only a hint: read and written `Relaxed`, and
    /// written only when it changes, so scans of a steady store share
    /// no written line.
    last_scan_len: AtomicUsize,
}

impl<K, V> fmt::Debug for ShardedKv<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedKv")
            .field("shards", &self.shards.len())
            .field("algorithm", &self.shards[0].stm.algorithm())
            .field("journal", &self.journal)
            .finish()
    }
}

impl<K: TxValue + Hash + Eq, V: TxValue> ShardedKv<K, V> {
    /// A store with `shards` shards all running `algorithm`, default
    /// bucket count.
    pub fn new(shards: usize, algorithm: Algorithm) -> Self {
        ShardedKv::with_config(ServiceConfig {
            shards,
            algorithm,
            ..ServiceConfig::default()
        })
    }

    /// A store with explicit geometry.
    pub fn with_config(cfg: ServiceConfig) -> Self {
        ShardedKv::build(cfg, &[])
    }

    /// A store without a journal whose shard `i` logs staged payloads
    /// to `wals[i]` (none when `wals` is empty): what
    /// [`ShardedKv::open`] replays recovered records into — unlogged —
    /// before attaching its journal.
    ///
    /// The shards of a store whose algorithm serves snapshots (Mv,
    /// Adaptive) are built beside shard 0, in one timestamp domain: one
    /// clock and one snapshot registry, so a cross-shard transaction
    /// reads every shard at one snapshot and publishes at one tick. The
    /// other algorithms keep a clock per shard.
    pub(crate) fn build(cfg: ServiceConfig, wals: &[Arc<Wal>]) -> Self {
        let one_domain = matches!(cfg.algorithm, Algorithm::Mv | Algorithm::Adaptive);
        let mut shards: Vec<Shard<K, V>> = Vec::with_capacity(cfg.shard_count());
        for i in 0..cfg.shard_count() {
            let mut b = Stm::builder(cfg.algorithm);
            if let Some(a) = cfg.adaptive {
                b = b.adaptive_config(a);
            }
            if let Some(wal) = wals.get(i) {
                b = b.durability_hook(Arc::clone(wal));
            }
            let stm = match shards.first() {
                Some(first) if one_domain => b.build_beside(&first.stm),
                _ => b.build(),
            };
            shards.push(Shard {
                stm,
                map: THashMap::with_buckets(cfg.buckets_per_shard),
            });
        }
        ShardedKv {
            shards: shards.into_boxed_slice(),
            journal: None,
            last_scan_len: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `key` (pinned algorithm — see
    /// `ShardHasher`; stable across toolchains and restarts).
    pub fn shard_of(&self, key: &K) -> usize {
        let mut h = ShardHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The statistics ledger of one shard's `Stm` instance.
    pub fn shard_stats(&self, shard: usize) -> &StmStats {
        self.shards[shard].stm.stats()
    }

    /// Reads one key. Single-shard: an ordinary transaction on the
    /// owning shard.
    pub fn get(&self, key: &K) -> Option<V> {
        let s = &self.shards[self.shard_of(key)];
        s.stm.atomically(|tx| s.map.get(tx, key))
    }

    /// Writes one key, returning the previous value. Single-shard; on a
    /// durable store, logged in commit order and (with `sync_acks`)
    /// fsynced before this returns.
    pub fn put(&self, key: K, value: V) -> Option<V> {
        let shard = self.shard_of(&key);
        let op = || LoggedOp::Put {
            shard,
            key: key.clone(),
            value: value.clone(),
        };
        self.write_one(shard, op, |tx, map| {
            map.insert(tx, key.clone(), value.clone())
        })
    }

    /// Removes one key, returning its value. Single-shard; durable like
    /// [`put`](Self::put).
    pub fn remove(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        let op = || LoggedOp::Remove {
            shard,
            key: key.clone(),
        };
        self.write_one(shard, op, |tx, map| map.remove(tx, key))
    }

    /// One single-key write: an ordinary one-shot transaction on the
    /// owning shard. With a journal, `op` is encoded under a fresh
    /// global id and staged on the transaction — the engine logs it
    /// inside the publish critical section — and the return waits for
    /// the ack.
    fn write_one<T>(
        &self,
        shard: usize,
        op: impl FnOnce() -> LoggedOp<K, V>,
        mut body: impl FnMut(&mut Transaction<'_>, &THashMap<K, V>) -> Result<T, Retry>,
    ) -> T {
        let s = &self.shards[shard];
        let Some(journal) = &self.journal else {
            return s.stm.atomically(|tx| body(tx, &s.map));
        };
        // One ticket per thread, reset per op: the previous op on this
        // thread was acked before we got here, so its slot is free.
        thread_local! {
            static TICKET: DurableTicket = DurableTicket::new();
        }
        let payload = journal.encode(std::slice::from_ref(&op()));
        TICKET.with(|ticket| {
            ticket.reset();
            let out = s.stm.atomically(|tx| {
                let out = body(tx, &s.map)?;
                tx.stage_durable(Arc::clone(&payload), ticket);
                Ok(out)
            });
            journal.ack(shard, ticket);
            out
        })
    }

    /// A **consistent** snapshot of the whole store: every entry of
    /// every shard, as of one serialization point across all shards.
    ///
    /// Implemented as a read-only cross-shard transaction. In one
    /// timestamp domain (Mv, Adaptive) every shard is read at the
    /// snapshot the first drew, and the scan commits without locking or
    /// validating: under the Mv hooks it never aborts, whatever commits
    /// meanwhile. Otherwise each shard is read on its own clock and the
    /// group commit validates every shard's whole read set, so a
    /// multi-shard commit that landed between two of the snapshots
    /// fails the validation and the scan re-runs. This is the operation the atomicity stress
    /// test aims at concurrent transfers: the returned entries never
    /// show a transfer half-applied.
    ///
    /// Every shard appends to one vector ([`ServiceTx::shard_snapshot`]),
    /// so each entry is written once. The vector is allocated once, at
    /// the last scan's length plus 1/16 (a store that grew a little
    /// still fits), and a re-run clears it and keeps its capacity; only
    /// a store that grew by more than the slack since the last scan
    /// pays a regrowth. A warm scan of a steady store therefore
    /// allocates twice: this vector and the cross-shard transaction's
    /// slot table.
    pub fn scan(&self) -> Vec<(K, V)> {
        let last = self.last_scan_len.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(last + last / 16);
        self.transact(|tx| {
            out.clear();
            for s in 0..tx.kv.shard_count() {
                tx.shard_snapshot(s, &mut out)?;
            }
            Ok(())
        });
        if out.len() != last {
            self.last_scan_len.store(out.len(), Ordering::Relaxed);
        }
        out
    }

    /// Runs `body` as one atomic transaction over however many shards
    /// it touches, committing as one group in the order the module docs
    /// give. Re-runs the body on conflict ([`Retry`] from any operation,
    /// a failed commit, or an `Err(Retry)` return).
    ///
    /// On a durable store the full write set is logged on **every**
    /// shard it writes (inside the publish window, all locks held) and
    /// the return waits for every participant's fsync.
    ///
    /// The service tier has no blocking `retry` semantics: an
    /// `Err(Retry)` out of the body means "conflict, run me again", not
    /// "park until the data changes".
    pub fn transact<T>(
        &self,
        mut body: impl FnMut(&mut ServiceTx<'_, K, V>) -> Result<T, Retry>,
    ) -> T {
        let mut attempt = 0u64;
        loop {
            let mut stx = ServiceTx::begin(self);
            match body(&mut stx) {
                Ok(out) => {
                    if stx.commit() {
                        return out;
                    }
                }
                Err(Retry) => stx.rollback(),
            }
            attempt += 1;
            // Coordinator-level backoff: brief spins first, then hand
            // the core to whichever transaction is making progress.
            if attempt > 3 {
                std::thread::yield_now();
            } else {
                for _ in 0..(1u32 << attempt) {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// One in-flight cross-shard transaction: a lazily-opened
/// [`Transaction`] per touched shard. Handed to the body of
/// [`ShardedKv::transact`]; operations route to the owning shard's
/// transaction automatically.
pub struct ServiceTx<'kv, K, V> {
    kv: &'kv ShardedKv<K, V>,
    /// The open transactions, one per touched shard, in ascending shard
    /// index — the global lock order, so the commit hands this vector
    /// to the group commit as it is.
    open: Vec<Transaction<'kv>>,
    /// The shards `open` holds: a shard's transaction sits at the rank
    /// of its shard among them.
    touched: ShardSet,
    /// The first shard touched: every later one opens beside it.
    opener: Option<usize>,
    /// The mutations so far, which become the WAL record at commit.
    /// Stays empty on a store without a journal.
    ops: Vec<LoggedOp<K, V>>,
}

impl<'kv, K: TxValue + Hash + Eq, V: TxValue> ServiceTx<'kv, K, V> {
    /// Opens an empty cross-shard transaction on `kv`.
    fn begin(kv: &'kv ShardedKv<K, V>) -> Self {
        ServiceTx {
            kv,
            open: Vec::with_capacity(kv.shards.len()),
            touched: ShardSet::default(),
            opener: None,
            ops: Vec::new(),
        }
    }

    /// The shard's partition and this transaction's (lazily opened)
    /// attempt on it. Every shard after the first opens beside the
    /// first ([`Transaction::beside`]): at its snapshot when the store is
    /// one timestamp domain, as an ordinary transaction otherwise.
    fn on(&mut self, shard: usize) -> (&'kv THashMap<K, V>, &mut Transaction<'kv>) {
        let s = &self.kv.shards[shard];
        let at = self.touched.rank(shard);
        if !self.touched.contains(shard) {
            let tx = match self.opener {
                Some(first) => self.open[self.touched.rank(first)].beside(&s.stm),
                None => {
                    self.opener = Some(shard);
                    s.stm.transaction()
                }
            };
            self.open.insert(at, tx);
            self.touched.insert(shard);
        }
        (&s.map, &mut self.open[at])
    }

    /// Reads `key` within the transaction (never journaled).
    ///
    /// # Errors
    ///
    /// [`Retry`] if the owning shard's read validation failed; the
    /// coordinator re-runs the body.
    pub fn get(&mut self, key: &K) -> Result<Option<V>, Retry> {
        let (map, tx) = self.on(self.kv.shard_of(key));
        map.get(tx, key)
    }

    /// Writes `key` within the transaction, returning the previous
    /// value (buffered or committed). Journaled on a durable store.
    ///
    /// # Errors
    ///
    /// [`Retry`] on a shard-level conflict; the coordinator re-runs.
    pub fn put(&mut self, key: K, value: V) -> Result<Option<V>, Retry> {
        let shard = self.kv.shard_of(&key);
        if self.kv.journal.is_some() {
            self.ops.push(LoggedOp::Put {
                shard,
                key: key.clone(),
                value: value.clone(),
            });
        }
        let (map, tx) = self.on(shard);
        map.insert(tx, key, value)
    }

    /// Removes `key` within the transaction. Journaled on a durable
    /// store.
    ///
    /// # Errors
    ///
    /// [`Retry`] on a shard-level conflict; the coordinator re-runs.
    pub fn remove(&mut self, key: &K) -> Result<Option<V>, Retry> {
        let shard = self.kv.shard_of(key);
        if self.kv.journal.is_some() {
            self.ops.push(LoggedOp::Remove {
                shard,
                key: key.clone(),
            });
        }
        let (map, tx) = self.on(shard);
        map.remove(tx, key)
    }

    /// Appends every entry of one shard to `out`, read into this
    /// transaction's footprint: the shard map's buckets in one
    /// [`Transaction::read_each`] call.
    ///
    /// # Errors
    ///
    /// [`Retry`] on a shard-level conflict; the coordinator re-runs.
    /// `out` may then hold part of the shard after what it held before:
    /// clear it at the start of each attempt.
    pub fn shard_snapshot(&mut self, shard: usize, out: &mut Vec<(K, V)>) -> Result<(), Retry> {
        let (map, tx) = self.on(shard);
        map.snapshot_into(tx, out)
    }

    /// The group commit ([`Transaction::commit_all`]) over every touched
    /// shard, in ascending shard index. Returns whether the transaction
    /// committed; on failure every shard is already rolled back.
    ///
    /// Between validation and the first publish — the commit can no
    /// longer fail and every participant's locks are held — a durable
    /// store draws one global transaction id and stages the encoded
    /// write set on each writing shard, which is what makes WAL ids
    /// conflict-ordered per shard (two cross-shard transactions sharing
    /// a shard have disjoint lock-hold windows there, so id draw order
    /// matches publish order). The return then waits for every
    /// participant's ack.
    fn commit(self) -> bool {
        let ServiceTx {
            kv,
            open,
            touched,
            ops,
            ..
        } = self;
        let journal = kv.journal.as_ref().filter(|_| !ops.is_empty());
        // The participants' shard indices, for the journal only.
        let shards: Vec<usize> = match journal {
            Some(_) => touched.iter().collect(),
            None => Vec::new(),
        };
        let mut tickets = Vec::new();
        let committed = Transaction::commit_all(open, |group| {
            if let Some(journal) = journal {
                tickets = journal.stage(&ops, &shards, group);
            }
        })
        .is_ok();
        if let Some(journal) = journal {
            for (shard, ticket) in &tickets {
                journal.ack(*shard, ticket);
            }
        }
        committed
    }

    /// Abandons every open shard transaction (body said [`Retry`]).
    fn rollback(self) {
        for tx in self.open {
            tx.rollback();
        }
    }
}

/// A set of shard indices, one bit each: shards below 64 inline, any
/// others in `rest`, which stays empty (and unallocated) on a store of
/// up to 64 shards.
#[derive(Debug, Default)]
struct ShardSet {
    low: u64,
    rest: Vec<u64>,
}

impl ShardSet {
    /// The `i`-th 64-bit word of the set.
    fn word(&self, i: usize) -> u64 {
        match i {
            0 => self.low,
            _ => self.rest.get(i - 1).copied().unwrap_or(0),
        }
    }

    fn contains(&self, shard: usize) -> bool {
        self.word(shard / 64) >> (shard % 64) & 1 == 1
    }

    fn insert(&mut self, shard: usize) {
        let bit = 1 << (shard % 64);
        match shard / 64 {
            0 => self.low |= bit,
            i => {
                if self.rest.len() < i {
                    self.rest.resize(i, 0);
                }
                self.rest[i - 1] |= bit;
            }
        }
    }

    /// How many members are below `shard`.
    fn rank(&self, shard: usize) -> usize {
        let below = (0..shard / 64)
            .map(|i| self.word(i).count_ones())
            .sum::<u32>();
        let partial = self.word(shard / 64) & ((1 << (shard % 64)) - 1);
        (below + partial.count_ones()) as usize
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.low)
            .chain(self.rest.iter().copied())
            .enumerate()
            .flat_map(|(i, w)| {
                (0..64)
                    .filter(move |b| w >> b & 1 == 1)
                    .map(move |b| i * 64 + b)
            })
    }
}

impl<K, V> fmt::Debug for ServiceTx<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceTx")
            .field("touched", &self.open.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frozen outputs of [`ShardHasher`] (id [`SHARD_HASHER_ID`] = 1).
    /// Shard routing is persisted in snapshots and WAL records, so this
    /// test failing means recovered stores would route keys to the
    /// wrong shards — if the change is intentional, bump
    /// `SHARD_HASHER_ID` so old stores fail loudly instead of silently
    /// losing keys.
    #[test]
    fn shard_routing_hash_is_pinned() {
        fn hash_of(key: impl Hash) -> u64 {
            let mut h = ShardHasher::new();
            key.hash(&mut h);
            h.finish()
        }
        assert_eq!(hash_of(0u64), 0x5ba3_14b8_cfda_3b6b);
        assert_eq!(hash_of(1u64), 0xc2be_3627_c2bf_e353);
        assert_eq!(hash_of(7u64), 0xfe79_3e3c_e142_343a);
        assert_eq!(hash_of(123_456_789u64), 0x96a9_aabe_c69c_140c);
        // Strings go through the 0xff-terminated `write_str` default.
        assert_eq!(hash_of("ab"), 0xf35c_1011_c045_ae57);
        // usize routes identically to u64 on every architecture.
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn shard_of_spreads_and_is_stable_across_instances() {
        let a: ShardedKv<u64, u64> = ShardedKv::new(8, Algorithm::Tl2);
        let b: ShardedKv<u64, u64> = ShardedKv::new(8, Algorithm::Norec);
        let mut seen = [false; 8];
        for k in 0..256u64 {
            let s = a.shard_of(&k);
            assert_eq!(s, b.shard_of(&k), "routing must not depend on the instance");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 keys left a shard empty");
    }

    #[test]
    fn a_shard_set_ranks_its_members_past_the_inline_word() {
        let mut set = ShardSet::default();
        for shard in [130, 3, 64, 0, 63] {
            assert!(!set.contains(shard));
            set.insert(shard);
            assert!(set.contains(shard));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130]);
        let ranks: Vec<usize> = [0, 3, 4, 63, 64, 65, 130, 131]
            .into_iter()
            .map(|shard| set.rank(shard))
            .collect();
        assert_eq!(ranks, [0, 1, 2, 2, 3, 4, 4, 5]);
    }

    #[test]
    fn a_transaction_over_many_shards_commits_them_all() {
        // 130 shards: the shard set spills past its inline word, and the
        // open transactions must still reach the group in shard order.
        let kv: ShardedKv<u64, u64> = ShardedKv::new(130, Algorithm::Tl2);
        let keys: Vec<u64> = (0..2_000).collect();
        kv.transact(|tx| {
            for &k in keys.iter().rev() {
                tx.put(k, k + 1)?;
            }
            Ok(())
        });
        assert!(keys.iter().all(|k| kv.get(k) == Some(k + 1)));
        assert_eq!(kv.scan().len(), keys.len());
    }
}
