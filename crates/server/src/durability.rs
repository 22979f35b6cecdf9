//! Durability for [`ShardedKv`]: per-shard write-ahead logs,
//! point-in-time snapshots, and crash recovery.
//!
//! A store opened with [`ShardedKv::open`] (a [`DurableKv`] — the same
//! type) carries a `Journal`: one group-committed [`Wal`] per shard
//! (see `ptm_stm::wal` for the commit→log→fsync ordering argument). The
//! store's own write paths (`crate::kv`) journal into it, so each
//! acknowledged operation is **logged before it is acknowledged**: the
//! write set is staged on the shard transaction, the engine appends it
//! to the shard's log *inside* the publish critical section (so log
//! order is commit order), and the ack waits for the group-committed
//! fsync covering that append. Cross-shard transactions stage the
//! **full** record (every participant's ops) on every writing shard,
//! which is what recovery's roll-forward leans on. This module owns what
//! is durability's alone: the on-disk format, `open`/recovery,
//! `checkpoint`/rebaseline, and the ack.
//!
//! ## On-disk layout and the era protocol
//!
//! `dir/shard-<i>.wal` is shard `i`'s log; `dir/shard-<i>.snap` its
//! snapshot, in the log's own record format (`ptm_stm::wal::codec`): the
//! log's meta record, then one data record holding the shard's entries
//! (a count, then key/value pairs). A snapshot that is not exactly those
//! two intact records fails the open. `dir/LOCK` is an advisory `flock`
//! guard held for the store's lifetime: recovery and checkpoints rewrite
//! logs and replace snapshots, so two processes working the same
//! directory would destroy each other's evidence — the second
//! [`open`](ShardedKv::open) fails instead. (The kernel drops the lock
//! when the holder dies, so a SIGKILLed store never wedges the
//! directory.)
//!
//! Both files begin with the **meta record** (stamp 0, `FLAG_META`): the
//! store geometry, the shard-routing hasher id and the shard's **era** —
//! a monotone incarnation counter bumped by every checkpoint/recovery
//! rebaseline. The hasher id is there because shard assignment is itself
//! persisted state: a binary routing keys differently would recover
//! data it can no longer reach, so a mismatch fails the open loudly. The
//! rebaseline sequence is: quiesce, flush every log, write *all* shard
//! snapshots at the new era, then rewrite *all* logs as the new era's
//! meta record alone — each file through one atomic replace
//! (`ptm_stm::wal::replace_file`: tmp write, sync, rename, directory
//! fsync). Because snapshots always land before log rewrites, a crash
//! anywhere in the window leaves each shard either wholly at the old era
//! or with a new-era snapshot whose state is a superset of its old-era
//! log — so recovery can apply one uniform rule: **a shard's log
//! evidence counts only if its era equals the shard's effective era**
//! (`max(snapshot era, log era)`, an absent snapshot counting as era 0);
//! stale logs are discarded, already covered by the newer snapshot.
//!
//! The engine's commit stamps order records *within* one era (the WAL
//! stamp is drawn from the shard's clock — the store's one clock for Mv
//! and Adaptive — inside the publish window), but
//! clocks restart at process start, so stamps are **not** comparable
//! across eras — the era rule, not stamp comparison, is what fences
//! snapshot contents from log replay.
//!
//! ## Recovery
//!
//! 1. Read every shard's snapshot and log; decode each log to its
//!    **clean prefix** (a torn or bit-flipped tail truncates at the
//!    last intact record — `ptm_stm::wal::codec`), and validate log
//!    eras as above.
//! 2. Load snapshots, then replay each shard's own valid records in
//!    log order (log order is commit order per shard).
//! 3. **Roll forward** cross-shard records: a record durable on shard
//!    `i` but missing from participant `p`'s log (its suffix was lost)
//!    is applied at `p` too, so no transaction is ever half-recovered.
//!    Missing records sort by global transaction id — ids are drawn
//!    while *all* participants' commit locks are held, so id order
//!    matches `p`'s lost commit order — and a record is only rolled
//!    onto `p` if `p`'s era is not newer than the evidence (a newer
//!    snapshot already covers it). Rolled-forward transactions were
//!    never acknowledged (acks wait for *every* participant's fsync),
//!    so recovering them keeps the state a superset of the acked
//!    prefix without breaking atomicity.
//! 4. Rebaseline to `max(eras) + 1`: fresh snapshots of the recovered
//!    state, logs holding only their new meta record (a checkpoint).
//!    This also makes the restart of the global
//!    transaction-id counter safe — all old evidence is retired.
//!
//! The recovered state is therefore exactly: snapshot state, plus a
//! **prefix-closed** set of logged commits per shard (clean-prefix
//! decode loses only suffixes; group commit flushes in append order),
//! closed under cross-shard atomicity — which contains every
//! acknowledged operation.
//!
//! ## Failure discipline
//!
//! Log I/O errors poison the WAL and every subsequent ack **panics**
//! (fail-stop): a serving process that cannot make operations durable
//! must not keep acknowledging them, and recovery from the on-disk
//! prefix is the correctness path (the PANIC discipline databases use).

use crate::kv::{ServiceConfig, ShardedKv, SHARD_HASHER_ID};
use ptm_stm::wal::{codec, replace_file, DurableTicket, Wal, WalValue, FLAG_META};
use ptm_stm::{Transaction, TxValue};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Durability knobs for [`ShardedKv::open`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Geometry and algorithm of the underlying [`ShardedKv`].
    pub service: ServiceConfig,
    /// Directory holding the per-shard logs and snapshots.
    pub dir: PathBuf,
    /// If `true` (the default), every write acknowledgement waits for
    /// the group-committed fsync covering its log record — the full
    /// durability contract. If `false`, writes are logged in memory and
    /// flushed only by batch piggybacking, [`ShardedKv::flush`], or a
    /// checkpoint: a crash may lose the unflushed suffix (still a clean
    /// prefix), trading the contract for write latency.
    pub sync_acks: bool,
}

impl DurabilityConfig {
    /// Default service geometry, synchronous acks, logs under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            service: ServiceConfig::default(),
            dir: dir.into(),
            sync_acks: true,
        }
    }
}

/// What [`ShardedKv::open`] found and did; see the module docs for the
/// recovery procedure. All zero on a store that was never opened from
/// a directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The store's era after the post-recovery rebaseline.
    pub era: u64,
    /// Entries loaded from snapshots across all shards.
    pub snapshot_entries: usize,
    /// Log records replayed onto their own shard.
    pub records_applied: usize,
    /// Cross-shard records applied at a participant whose own log had
    /// lost them (per participant).
    pub rolled_forward: usize,
    /// Logs discarded because their era trailed the shard's snapshot.
    pub stale_logs: usize,
    /// Logs whose tail was torn or corrupt (decoded to a clean prefix).
    pub torn_tails: usize,
}

/// One logged mutation, tagged with its owning shard.
#[derive(Debug, Clone)]
pub(crate) enum LoggedOp<K, V> {
    Put { shard: usize, key: K, value: V },
    Remove { shard: usize, key: K },
}

impl<K, V> LoggedOp<K, V> {
    fn shard(&self) -> usize {
        match self {
            LoggedOp::Put { shard, .. } | LoggedOp::Remove { shard, .. } => *shard,
        }
    }
}

impl<K: WalValue, V: WalValue> LoggedOp<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LoggedOp::Put { shard, key, value } => {
                shard.encode_wal(out);
                0u8.encode_wal(out);
                key.encode_wal(out);
                value.encode_wal(out);
            }
            LoggedOp::Remove { shard, key } => {
                shard.encode_wal(out);
                1u8.encode_wal(out);
                key.encode_wal(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let shard = usize::decode_wal(buf)?;
        match u8::decode_wal(buf)? {
            0 => Some(LoggedOp::Put {
                shard,
                key: K::decode_wal(buf)?,
                value: V::decode_wal(buf)?,
            }),
            1 => Some(LoggedOp::Remove {
                shard,
                key: K::decode_wal(buf)?,
            }),
            _ => None,
        }
    }
}

/// `txn_id` then the op list, all [`WalValue`]-framed. Encodes into
/// thread-local scratch so the per-op cost is the one unavoidable
/// `Arc<[u8]>` allocation, not two.
fn encode_ops<K: WalValue, V: WalValue>(txn_id: u64, ops: &[LoggedOp<K, V>]) -> Arc<[u8]> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut out = cell.borrow_mut();
        out.clear();
        txn_id.encode_wal(&mut out);
        ops.len().encode_wal(&mut out);
        for op in ops {
            op.encode(&mut out);
        }
        Arc::from(&out[..])
    })
}

fn decode_ops<K: WalValue, V: WalValue>(mut buf: &[u8]) -> Option<(u64, Vec<LoggedOp<K, V>>)> {
    let txn_id = u64::decode_wal(&mut buf)?;
    let n = usize::decode_wal(&mut buf)?;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(LoggedOp::decode(&mut buf)?);
    }
    if buf.is_empty() {
        Some((txn_id, ops))
    } else {
        None
    }
}

/// Meta record payload: era, geometry, shard index, routing hasher id.
fn encode_meta(era: u64, shards: usize, shard: usize) -> Vec<u8> {
    let mut out = Vec::new();
    era.encode_wal(&mut out);
    shards.encode_wal(&mut out);
    shard.encode_wal(&mut out);
    SHARD_HASHER_ID.encode_wal(&mut out);
    out
}

/// Decodes a meta record, checks it against this store and returns its
/// era. Logs and snapshots begin with the same record, so this is the one
/// place a foreign routing hasher or a geometry change is caught.
fn meta_era(mut buf: &[u8], shard: usize, shards: usize) -> Result<u64, String> {
    let mut field = || u64::decode_wal(&mut buf).ok_or("undecodable meta record");
    let (era, got_shards, got_shard, hasher) = (field()?, field()?, field()?, field()?);
    if !buf.is_empty() {
        return Err("meta record has trailing bytes".into());
    }
    if hasher != SHARD_HASHER_ID {
        return Err(format!(
            "shard-hasher mismatch: routed with hasher {hasher}, this binary uses {SHARD_HASHER_ID}"
        ));
    }
    if (got_shards, got_shard) != (shards as u64, shard as u64) {
        return Err(format!(
            "geometry mismatch: file is shard {got_shard}/{got_shards}, store wants {shard}/{shards}"
        ));
    }
    Ok(era)
}

/// A snapshot's data record: the entry count, then key/value pairs.
fn decode_entries<K: WalValue, V: WalValue>(mut buf: &[u8]) -> Option<Vec<(K, V)>> {
    let n = usize::decode_wal(&mut buf)?;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        entries.push((K::decode_wal(&mut buf)?, V::decode_wal(&mut buf)?));
    }
    buf.is_empty().then_some(entries)
}

/// `dir/shard-<i>.<ext>`: the shard's log (`wal`) or snapshot (`snap`).
fn shard_file(dir: &Path, shard: usize, ext: &str) -> PathBuf {
    dir.join(format!("shard-{shard}.{ext}"))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads `dir/shard-<i>.snap` as its era and entries; an absent file
/// reads as era 0 with no entries, like a fresh log. A present file must
/// decode to exactly a meta record and one data record, intact and with
/// nothing after them; anything else is a hard error (snapshots are
/// replaced atomically, so a bad one means real damage or a geometry
/// change — dropping it would drop data).
fn read_snapshot<K: WalValue, V: WalValue>(
    dir: &Path,
    shard: usize,
    shards: usize,
) -> io::Result<(u64, Vec<(K, V)>)> {
    let path = shard_file(dir, shard, "snap");
    let bytes = match fs::read(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, Vec::new())),
        read => read?,
    };
    let fail = |what: String| bad_data(format!("snapshot {}: {what}", path.display()));
    let decoded = codec::decode_stream(&bytes);
    let (meta, data) = match (&decoded.records[..], decoded.corruption) {
        ([meta, data], None) if meta.is_meta() && !data.is_meta() => (meta, data),
        (records, corruption) => {
            return Err(fail(format!(
                "want one meta and one data record, found {} intact ({corruption:?})",
                records.len()
            )))
        }
    };
    let era = meta_era(&meta.payload, shard, shards).map_err(fail)?;
    let entries =
        decode_entries(&data.payload).ok_or_else(|| fail("undecodable entries".into()))?;
    Ok((era, entries))
}

/// Writes `dir/shard-<i>.snap` — the shard's meta record, then one data
/// record of its entries — through the one atomic file replace: durable,
/// directory entry included, on return.
fn write_snapshot<K: WalValue, V: WalValue>(
    dir: &Path,
    shard: usize,
    meta: &[u8],
    entries: &[(K, V)],
) -> io::Result<()> {
    let mut data = Vec::new();
    entries.len().encode_wal(&mut data);
    for (k, v) in entries {
        k.encode_wal(&mut data);
        v.encode_wal(&mut data);
    }
    if u32::try_from(data.len()).is_err() {
        let msg = "a shard snapshot over 4 GiB does not fit one record";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    let mut bytes = Vec::new();
    codec::encode_record(0, FLAG_META, meta, &mut bytes);
    codec::encode_record(0, 0, &data, &mut bytes);
    replace_file(&shard_file(dir, shard, "snap"), &bytes)
}

/// One parsed shard log: its era and clean-prefix data records.
struct ShardLog<K, V> {
    /// Era from the leading meta record; 0 for a fresh/empty log.
    era: u64,
    records: Vec<(u64, Vec<LoggedOp<K, V>>)>,
}

fn parse_log<K: WalValue, V: WalValue>(
    decoded: codec::Decoded,
    shard: usize,
    shards: usize,
) -> io::Result<ShardLog<K, V>> {
    let fail = |what: String| bad_data(format!("shard {shard} log: {what}"));
    let mut era = 0;
    let mut records = Vec::with_capacity(decoded.records.len());
    for (idx, rec) in decoded.records.iter().enumerate() {
        match (idx, rec.is_meta()) {
            (0, true) => {
                era = meta_era(&rec.payload, shard, shards).map_err(fail)?;
                continue;
            }
            (0, false) => return Err(fail("first record is not a meta record".into())),
            (_, true) => return Err(fail(format!("meta record at position {idx}"))),
            (_, false) => {}
        }
        let (txn_id, ops) = decode_ops::<K, V>(&rec.payload)
            .ok_or_else(|| fail(format!("undecodable record at position {idx}")))?;
        if ops.iter().any(|op| op.shard() >= shards) {
            return Err(fail(format!("record {idx} targets a nonexistent shard")));
        }
        records.push((txn_id, ops));
    }
    Ok(ShardLog { era, records })
}

/// [`encode_ops`] at a store's key/value types, captured at `open` so
/// the store's write paths need no [`WalValue`] bound.
type EncodeOps<K, V> = fn(u64, &[LoggedOp<K, V>]) -> Arc<[u8]>;

/// The log set that makes a [`ShardedKv`] durable: present on a store
/// opened with [`ShardedKv::open`], journaled into by every write.
pub(crate) struct Journal<K, V> {
    wals: Vec<Arc<Wal>>,
    dir: PathBuf,
    sync_acks: bool,
    era: AtomicU64,
    /// Global transaction-id allocator; ids order cross-shard
    /// roll-forward (drawn while all participants' locks are held).
    next_txn: AtomicU64,
    report: RecoveryReport,
    encode_ops: EncodeOps<K, V>,
    /// Holds the advisory `flock` on `dir/LOCK` for the store's
    /// lifetime; released on drop (or by the kernel on process death).
    _lock: fs::File,
}

impl<K, V> fmt::Debug for Journal<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("era", &self.era.load(Ordering::Relaxed))
            .field("sync_acks", &self.sync_acks)
            .finish()
    }
}

impl<K, V> Journal<K, V> {
    /// Encodes `ops` as one record under the next global transaction id.
    pub(crate) fn encode(&self, ops: &[LoggedOp<K, V>]) -> Arc<[u8]> {
        let txn_id = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        (self.encode_ops)(txn_id, ops)
    }

    /// Stages the full record of a cross-shard transaction on every
    /// participant that `ops` writes (`group[i]` is shard `shards[i]`'s),
    /// returning each one's ticket. Called from the group commit's stage
    /// step: the commit cannot fail and every participant's locks are
    /// held, so the id drawn here is conflict-ordered on each shard.
    pub(crate) fn stage(
        &self,
        ops: &[LoggedOp<K, V>],
        shards: &[usize],
        group: &mut [Transaction<'_>],
    ) -> Vec<(usize, DurableTicket)> {
        let payload = self.encode(ops);
        let mut tickets = Vec::new();
        for (shard, tx) in shards.iter().zip(group) {
            if ops.iter().any(|op| op.shard() == *shard) {
                let ticket = DurableTicket::new();
                tx.stage_durable(Arc::clone(&payload), &ticket);
                tickets.push((*shard, ticket));
            }
        }
        tickets
    }

    /// Blocks until the shard's log has fsynced past `ticket`, then
    /// returns; **panics** on a poisoned log (fail-stop, module docs).
    pub(crate) fn ack(&self, shard: usize, ticket: &DurableTicket) {
        if !self.sync_acks {
            return;
        }
        if let Some(lsn) = ticket.lsn() {
            if let Err(e) = self.wals[shard].wait_durable(lsn) {
                panic!("shard {shard} log failed ({e}); fail-stop: restart and recover");
            }
        }
    }
}

/// A durable, crash-recoverable [`ShardedKv`]: write-ahead logged,
/// snapshotted, recovered on [`open`](ShardedKv::open). The same type —
/// durability is a property a store acquires by being opened over a
/// directory.
///
/// # Examples
///
/// ```
/// use ptm_server::{DurabilityConfig, DurableKv};
///
/// let dir = std::env::temp_dir().join(format!("ptm-doc-{}", std::process::id()));
/// let cfg = DurabilityConfig::new(&dir);
///
/// {
///     let kv: DurableKv<u64, u64> = DurableKv::open(cfg.clone()).unwrap();
///     kv.put(1, 10);
///     kv.transact(|tx| {
///         let a = tx.get(&1)?.unwrap_or(0);
///         tx.put(1, a - 5)?;
///         tx.put(2, 5)?;
///         Ok(())
///     });
///     // Acks returned: both writes are on disk. Drop without flushing.
/// }
///
/// // "Restart": recovery rebuilds the store from snapshot + log.
/// let kv: DurableKv<u64, u64> = DurableKv::open(cfg).unwrap();
/// assert_eq!(kv.get(&1), Some(5));
/// assert_eq!(kv.get(&2), Some(5));
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub type DurableKv<K, V> = ShardedKv<K, V>;

/// Applies recovered ops to `kv`, atomically. `kv` has no journal yet,
/// so nothing is re-logged.
fn replay<'a, K, V>(kv: &ShardedKv<K, V>, ops: impl Iterator<Item = &'a LoggedOp<K, V>> + Clone)
where
    K: TxValue + Hash + Eq,
    V: TxValue,
{
    kv.transact(|tx| {
        for op in ops.clone() {
            match op {
                LoggedOp::Put { key, value, .. } => tx.put(key.clone(), value.clone())?,
                LoggedOp::Remove { key, .. } => tx.remove(key)?,
            };
        }
        Ok(())
    });
}

impl<K, V> ShardedKv<K, V>
where
    K: TxValue + WalValue + Hash + Eq,
    V: TxValue + WalValue,
{
    /// Opens (or creates) the durable store under `cfg.dir`, running the
    /// full recovery procedure from the module docs; the outcome is
    /// readable via [`recovery_report`](Self::recovery_report).
    ///
    /// # Errors
    ///
    /// I/O failure, a corrupt snapshot, an undecodable intact log
    /// record, a geometry change (different shard count than the
    /// on-disk store), or a shard-hasher mismatch all fail the open —
    /// torn/corrupt log *tails* are expected crash damage and are
    /// truncated, not errors. A directory already locked by a live
    /// store (this process or another) fails with
    /// [`io::ErrorKind::WouldBlock`].
    pub fn open(cfg: DurabilityConfig) -> io::Result<Self> {
        let shards = cfg.service.shard_count();
        fs::create_dir_all(&cfg.dir)?;
        // One live store per directory: recovery and checkpoints rewrite
        // logs and snapshots, so a second opener would truncate evidence
        // the first is still producing.
        let lock = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(cfg.dir.join("LOCK"))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "store directory {} is locked by another live store",
                        cfg.dir.display()
                    ),
                ));
            }
            Err(fs::TryLockError::Error(e)) => return Err(e),
        }
        let mut report = RecoveryReport::default();

        let mut snaps = Vec::with_capacity(shards);
        let mut wals: Vec<Arc<Wal>> = Vec::with_capacity(shards);
        let mut logs: Vec<ShardLog<K, V>> = Vec::with_capacity(shards);
        for i in 0..shards {
            snaps.push(read_snapshot::<K, V>(&cfg.dir, i, shards)?);
            let wal = Wal::open(shard_file(&cfg.dir, i, "wal"))?;
            let decoded = wal.read_records()?;
            if decoded.corruption.is_some() {
                report.torn_tails += 1;
            }
            logs.push(parse_log(decoded, i, shards)?);
            wals.push(Arc::new(wal));
        }

        // Effective era per shard; a log only counts at its shard's era.
        let eras: Vec<u64> = (0..shards).map(|i| logs[i].era.max(snaps[i].0)).collect();
        let valid: Vec<bool> = (0..shards).map(|i| logs[i].era == eras[i]).collect();
        for i in 0..shards {
            if !valid[i] && !logs[i].records.is_empty() {
                report.stale_logs += 1;
            }
        }

        // Recovery writes through the store's ordinary surface while it
        // still has no journal, so nothing below is re-logged.
        let mut kv = ShardedKv::build(cfg.service, &wals);

        // Snapshots first, then own-log replay in log order.
        let mut max_txn = 0u64;
        for i in 0..shards {
            report.snapshot_entries += snaps[i].1.len();
            for (k, v) in &snaps[i].1 {
                kv.put(k.clone(), v.clone());
            }
            if !valid[i] {
                continue;
            }
            for (txn_id, ops) in &logs[i].records {
                max_txn = max_txn.max(*txn_id);
                replay(&kv, ops.iter().filter(|op| op.shard() == i));
                report.records_applied += 1;
            }
        }

        // Roll-forward: records durable on one shard but lost from a
        // participant's log suffix, applied at the participant in
        // global-id order (see the module docs for why both the order
        // and the era guard are sound).
        let ids: Vec<HashSet<u64>> = (0..shards)
            .map(|i| {
                if valid[i] {
                    logs[i].records.iter().map(|(id, _)| *id).collect()
                } else {
                    HashSet::new()
                }
            })
            .collect();
        let mut missing: HashMap<(usize, u64), Vec<&LoggedOp<K, V>>> = HashMap::new();
        for i in 0..shards {
            if !valid[i] {
                continue;
            }
            for (txn_id, ops) in &logs[i].records {
                for p in 0..shards {
                    if p == i || eras[p] > eras[i] || ids[p].contains(txn_id) {
                        continue;
                    }
                    let targeted: Vec<&LoggedOp<K, V>> =
                        ops.iter().filter(|op| op.shard() == p).collect();
                    if !targeted.is_empty() {
                        missing.entry((p, *txn_id)).or_insert(targeted);
                    }
                }
            }
        }
        // Key: (participant shard, global txn id).
        type MissingEntry<'ops, K, V> = ((usize, u64), Vec<&'ops LoggedOp<K, V>>);
        let mut missing: Vec<MissingEntry<'_, K, V>> = missing.into_iter().collect();
        missing.sort_by_key(|((_, txn), _)| *txn);
        for (_, ops) in missing {
            replay(&kv, ops.into_iter());
            report.rolled_forward += 1;
        }

        // Rebaseline: the recovered state becomes the new snapshots,
        // logs restart empty at the next era — where the report says
        // the store landed.
        let era = eras.iter().copied().max().unwrap_or(0);
        report.era = era + 1;
        kv.journal = Some(Journal {
            wals,
            dir: cfg.dir,
            sync_acks: cfg.sync_acks,
            era: AtomicU64::new(era),
            next_txn: AtomicU64::new(max_txn),
            report,
            encode_ops,
            _lock: lock,
        });
        kv.checkpoint()?;
        Ok(kv)
    }

    /// What recovery found and did at [`open`](Self::open).
    pub fn recovery_report(&self) -> &RecoveryReport {
        const NOTHING: RecoveryReport = RecoveryReport {
            era: 0,
            snapshot_entries: 0,
            records_applied: 0,
            rolled_forward: 0,
            stale_logs: 0,
            torn_tails: 0,
        };
        self.journal.as_ref().map_or(&NOTHING, |j| &j.report)
    }

    /// The store itself: `DurableKv` *is* `ShardedKv`, so this is the
    /// identity, kept for callers written against the former wrapper.
    /// Writes through the returned reference are journaled and
    /// acknowledged exactly like writes through `self` — there is no
    /// unlogged side door.
    pub fn store(&self) -> &ShardedKv<K, V> {
        self
    }

    /// Forces every shard's pending log records to disk (useful with
    /// `sync_acks: false` before a graceful shutdown). Nothing to do on
    /// a store without a log.
    ///
    /// # Errors
    ///
    /// The first shard's I/O error; that log is poisoned (fail-stop).
    pub fn flush(&self) -> io::Result<()> {
        for wal in self.journal.iter().flat_map(|j| &j.wals) {
            wal.flush()?;
        }
        Ok(())
    }

    /// Checkpoint: snapshot every shard's current state and rewrite
    /// every log as a lone meta record, bumping the era — snapshot-all
    /// then rewrite-all at `era + 1`; that ordering (all snapshots
    /// durable before any log rewrite) is what the recovery era rule
    /// relies on. Nothing to do on a store without a log.
    ///
    /// **Requires quiescence** — the snapshot-then-rewrite window has
    /// no internal synchronization against writers (a record committed
    /// mid-checkpoint could land in a log about to be rewritten);
    /// `&mut self` enforces exclusivity against everything borrowing
    /// the store.
    ///
    /// # Errors
    ///
    /// Snapshot or log I/O failure, or a shard whose encoded entries
    /// pass a record's 4 GiB; the store remains recoverable (the
    /// old-era rule covers every crash window, and a failed open leaves
    /// disk state untouched for a retry).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let shards = self.shard_count();
        let era = journal.era.load(Ordering::Relaxed) + 1;
        // Every log durable before the first snapshot: a crash between
        // two snapshot writes then finds each cross-shard record that a
        // new snapshot absorbed on the old-era logs of the shards it has
        // not reached yet.
        self.flush()?;
        let mut entries = Vec::new();
        for i in 0..shards {
            self.transact(|tx| {
                entries.clear();
                tx.shard_snapshot(i, &mut entries)
            });
            write_snapshot(&journal.dir, i, &encode_meta(era, shards, i), &entries)?;
        }
        for (i, wal) in journal.wals.iter().enumerate() {
            wal.rewrite(0, FLAG_META, &encode_meta(era, shards, i))?;
        }
        journal.era.store(era, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::Algorithm;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ptm-dur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path, algorithm: Algorithm) -> DurabilityConfig {
        DurabilityConfig {
            service: ServiceConfig {
                shards: 4,
                algorithm,
                buckets_per_shard: 32,
                adaptive: None,
            },
            dir: dir.to_path_buf(),
            sync_acks: true,
        }
    }

    #[test]
    fn ops_roundtrip_through_the_codec() {
        let ops: Vec<LoggedOp<u64, u64>> = vec![
            LoggedOp::Put {
                shard: 2,
                key: 7,
                value: 9,
            },
            LoggedOp::Remove { shard: 0, key: 3 },
        ];
        let payload = encode_ops(41, &ops);
        let (txn, back) = decode_ops::<u64, u64>(&payload).unwrap();
        assert_eq!(txn, 41);
        assert_eq!(back.len(), 2);
        assert!(matches!(
            back[0],
            LoggedOp::Put {
                shard: 2,
                key: 7,
                value: 9
            }
        ));
        assert!(decode_ops::<u64, u64>(&payload[..payload.len() - 1]).is_none());
    }

    #[test]
    fn basic_put_survives_reopen() {
        let dir = temp_dir("basic");
        for algorithm in Algorithm::ALL {
            let _ = fs::remove_dir_all(&dir);
            {
                let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, algorithm)).unwrap();
                for k in 0..32u64 {
                    kv.put(k, k * 10);
                }
                kv.remove(&31);
            }
            let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, algorithm)).unwrap();
            for k in 0..31u64 {
                assert_eq!(kv.get(&k), Some(k * 10), "{algorithm:?} key {k}");
            }
            assert_eq!(kv.get(&31), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_transact_survives_reopen() {
        let dir = temp_dir("xshard");
        {
            let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
            for k in 0..16u64 {
                kv.put(k, 100);
            }
            for i in 0..50u64 {
                kv.transact(|tx| {
                    let a = tx.get(&(i % 16))?.unwrap_or(0);
                    let b = tx.get(&((i + 5) % 16))?.unwrap_or(0);
                    tx.put(i % 16, a.saturating_sub(1))?;
                    tx.put((i + 5) % 16, b + a.min(1))?;
                    Ok(())
                });
            }
        }
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
        let total: u64 = kv.scan().into_iter().map(|(_, v)| v).sum();
        assert_eq!(total, 1600);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_recovery_uses_the_snapshot() {
        let dir = temp_dir("ckpt");
        {
            let mut kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Norec)).unwrap();
            for k in 0..64u64 {
                kv.put(k, k);
            }
            kv.checkpoint().unwrap();
            kv.put(64, 64);
        }
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Norec)).unwrap();
        let report = kv.recovery_report();
        assert_eq!(report.snapshot_entries, 64, "{report:?}");
        assert_eq!(report.records_applied, 1, "{report:?}");
        assert_eq!(kv.get(&64), Some(64));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `store()` used to hand out the wrapped in-memory store, whose
    /// writes committed without touching the log.
    #[test]
    fn writes_through_store_are_logged_and_recovered() {
        let dir = temp_dir("sidedoor");
        {
            let mut kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
            kv.put(2, 20);
            kv.checkpoint().unwrap();
            kv.store().put(1, 10);
            kv.store().remove(&2);
            kv.store().transact(|tx| tx.put(3, 30));
        }
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
        assert_eq!(kv.get(&1), Some(10));
        assert_eq!(kv.get(&2), None);
        assert_eq!(kv.get(&3), Some(30));
        let report = kv.recovery_report();
        assert_eq!(report.snapshot_entries, 1, "{report:?}");
        assert_eq!(report.records_applied, 3, "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_acks_lose_only_a_suffix() {
        let dir = temp_dir("nosync");
        {
            let mut c = cfg(&dir, Algorithm::Tl2);
            c.sync_acks = false;
            let kv: DurableKv<u64, u64> = DurableKv::open(c).unwrap();
            for k in 0..8u64 {
                kv.put(k, 1);
            }
            // Dropped without flush: the in-memory batch is lost, which
            // is exactly the contract sync_acks=false trades away.
        }
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
        // Whatever survived is a prefix: no key k present without all
        // keys written before it (single-threaded writer).
        let present: Vec<bool> = (0..8u64).map(|k| kv.get(&k).is_some()).collect();
        let first_gap = present.iter().position(|p| !p).unwrap_or(8);
        assert!(
            present[first_gap..].iter().all(|p| !p),
            "non-prefix survival: {present:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_of_a_live_store_is_refused() {
        let dir = temp_dir("lock");
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
        kv.put(1, 1);
        let err = DurableKv::<u64, u64>::open(cfg(&dir, Algorithm::Tl2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        drop(kv);
        // Dropping the store releases the flock; the directory is
        // reusable without any manual cleanup.
        let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
        assert_eq!(kv.get(&1), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Logs and snapshots begin with the same meta record, and one check
    /// rejects a foreign routing hasher at the head of either.
    #[test]
    fn foreign_shard_hasher_is_rejected() {
        let mut meta = Vec::new();
        for field in [1, 4, 0, SHARD_HASHER_ID + 1] {
            field.encode_wal(&mut meta); // era, shards, shard, hasher
        }
        let mut log = Vec::new();
        codec::encode_record(0, FLAG_META, &meta, &mut log);
        let mut snap = log.clone();
        codec::encode_record(0, 0, &0u64.to_le_bytes(), &mut snap); // no entries
        for (what, file, bytes) in [
            ("snapshot", "shard-0.snap", snap),
            ("log", "shard-0.wal", log),
        ] {
            let dir = temp_dir(&format!("hasher-{what}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(file), bytes).unwrap();
            let err = DurableKv::<u64, u64>::open(cfg(&dir, Algorithm::Tl2)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("hasher"), "{what}: {err}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn geometry_change_is_rejected() {
        let dir = temp_dir("geom");
        {
            let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&dir, Algorithm::Tl2)).unwrap();
            kv.put(1, 1);
        }
        let mut c = cfg(&dir, Algorithm::Tl2);
        c.service.shards = 8;
        let err = DurableKv::<u64, u64>::open(c).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }
}
