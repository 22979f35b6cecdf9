//! [`Wal`]: the group-committed log writer.
//!
//! ## Two locks, one convoy
//!
//! Appends land in a memory buffer under the `pending` lock — that is
//! the whole cost a committing transaction pays inside its publish
//! critical section (an encode and a buffer extend; no I/O, no fsync).
//! Durability happens in [`Wal::wait_durable`]: the caller that wants
//! its LSN on disk takes the `io` lock, *steals the entire pending
//! buffer*, writes and fsyncs it as one batch, and publishes the new
//! durable watermark. Every other waiter queued on the `io` lock
//! re-checks the watermark when it gets the lock and usually finds a
//! predecessor already flushed its record — that convoy is the group
//! commit: under load, one fsync covers every commit that arrived while
//! the previous fsync was in flight, without timers or a dedicated
//! flusher thread.
//!
//! The watermark is stored *before* the `io` lock is released, so a
//! successor that finds the pending buffer empty can trust the
//! watermark it re-reads: pending-empty while holding the `io` lock
//! means every appended record has been flushed and published.
//!
//! ## Fail-stop on I/O error
//!
//! A failed write or fsync poisons the `Wal`: the batch's durability is
//! unknown, so pretending otherwise could acknowledge a commit the disk
//! never got. Every later [`Wal::wait_durable`] (and rewrite/read)
//! returns the original error; the serving layer above translates that
//! into a crash-and-recover (see `ptm-server`), the same discipline as
//! a database PANIC on WAL failure.

use super::codec::{self, Decoded};
use super::sink::{FileSink, LogSink};
use crate::stats::StmStats;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Appended-but-unflushed records.
#[derive(Debug, Default)]
struct Pending {
    buf: Vec<u8>,
    /// Records currently in `buf`.
    records: u64,
    /// Records ever appended — the LSN of the last one.
    appended: u64,
}

/// A group-committed, checksummed write-ahead log over a [`LogSink`].
/// See the module docs for the locking discipline.
#[derive(Debug)]
pub struct Wal {
    pending: Mutex<Pending>,
    io: Mutex<Box<dyn LogSink>>,
    /// LSN of the last record known durable (0 = none).
    durable: AtomicU64,
    poisoned: AtomicBool,
    /// The error that poisoned the log, kept for every later report.
    poison: Mutex<Option<String>>,
    /// Instance counters, attached when an `Stm` adopts this log.
    stats: OnceLock<Arc<StmStats>>,
}

impl Wal {
    /// A log writing through `sink`.
    pub fn with_sink(sink: Box<dyn LogSink>) -> Self {
        Wal {
            pending: Mutex::new(Pending::default()),
            io: Mutex::new(sink),
            durable: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            poison: Mutex::new(None),
            stats: OnceLock::new(),
        }
    }

    /// A log backed by the file at `path` (created if absent).
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Wal::with_sink(Box::new(FileSink::open(path)?)))
    }

    /// Attaches the instance counters new appends and fsyncs bump.
    /// First attach wins; later calls are ignored.
    pub(crate) fn attach_stats(&self, stats: Arc<StmStats>) {
        let _ = self.stats.set(stats);
    }

    /// Appends one record to the in-memory batch and returns its LSN
    /// (1-based). Memory-only and infallible — this is the half a
    /// publish critical section may call. Durability is a separate,
    /// later [`Wal::wait_durable`] on the returned LSN.
    pub fn append(&self, stamp: u64, flags: u8, payload: &[u8]) -> u64 {
        // Frame (and checksum) outside the lock: the pending mutex is
        // shared by every committing transaction on the instance, and
        // the caller is inside its publish critical section — keep the
        // hold down to one memcpy. The frame buffer is thread-local
        // scratch so the publish path never touches the allocator.
        thread_local! {
            static FRAME: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let lsn = FRAME.with(|cell| {
            let mut framed = cell.borrow_mut();
            framed.clear();
            codec::encode_record(stamp, flags, payload, &mut framed);
            let mut p = self.pending.lock().expect("wal pending lock");
            p.buf.extend_from_slice(&framed);
            p.records += 1;
            p.appended += 1;
            p.appended
        });
        if let Some(stats) = self.stats.get() {
            stats.log_append();
        }
        lsn
    }

    /// LSN of the last record known durable (0 before any fsync).
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// LSN of the last record appended (0 on an empty log).
    fn appended_lsn(&self) -> u64 {
        self.pending.lock().expect("wal pending lock").appended
    }

    fn poison_err(&self) -> io::Error {
        let msg = self
            .poison
            .lock()
            .expect("wal poison lock")
            .clone()
            .unwrap_or_else(|| "wal poisoned".to_string());
        io::Error::other(format!("wal poisoned by earlier I/O failure: {msg}"))
    }

    fn poison_with(&self, err: &io::Error) {
        let mut slot = self.poison.lock().expect("wal poison lock");
        if slot.is_none() {
            *slot = Some(err.to_string());
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// Flushes the stolen batch under the held `io` lock and publishes
    /// the watermark before the lock drops.
    fn flush_batch(
        &self,
        io: &mut Box<dyn LogSink>,
        buf: &[u8],
        records: u64,
        upto: u64,
    ) -> io::Result<()> {
        if let Err(e) = io.append(buf).and_then(|()| io.sync()) {
            self.poison_with(&e);
            return Err(e);
        }
        self.durable.store(upto, Ordering::Release);
        if let Some(stats) = self.stats.get() {
            stats.fsync_batch(records);
        }
        Ok(())
    }

    /// Blocks until the record at `lsn` is on stable storage, fsyncing
    /// the whole pending batch if no other caller got there first (the
    /// group-commit convoy — see the module docs).
    ///
    /// # Errors
    ///
    /// The poisoning I/O error, now or from an earlier failed flush.
    /// After an error the durability of recent records is unknown;
    /// callers must stop acknowledging.
    pub fn wait_durable(&self, lsn: u64) -> io::Result<()> {
        loop {
            if self.durable_lsn() >= lsn {
                return Ok(());
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(self.poison_err());
            }
            let mut io = self.io.lock().expect("wal io lock");
            // A convoy predecessor may have flushed our record while we
            // queued; the watermark is published before the lock drops,
            // so this re-check under the lock is authoritative.
            if self.durable_lsn() >= lsn {
                return Ok(());
            }
            let (buf, records, upto) = {
                let mut p = self.pending.lock().expect("wal pending lock");
                (
                    std::mem::take(&mut p.buf),
                    std::mem::take(&mut p.records),
                    p.appended,
                )
            };
            if records == 0 {
                // Nothing pending while holding the io lock: every
                // append is flushed, so the next durable load wins.
                continue;
            }
            self.flush_batch(&mut io, &buf, records, upto)?;
        }
    }

    /// Fsyncs everything appended so far (no-op on an empty batch).
    ///
    /// # Errors
    ///
    /// The poisoning I/O error, as for [`Wal::wait_durable`].
    pub fn flush(&self) -> io::Result<()> {
        let target = self.appended_lsn();
        if target == 0 {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(self.poison_err());
            }
            return Ok(());
        }
        self.wait_durable(target)
    }

    /// Flushes, reads the whole log back, and decodes it with
    /// clean-prefix semantics.
    ///
    /// # Errors
    ///
    /// I/O failure or a poisoned log.
    pub fn read_records(&self) -> io::Result<Decoded> {
        self.flush()?;
        let mut io = self.io.lock().expect("wal io lock");
        let bytes = io.read_all()?;
        Ok(codec::decode_stream(&bytes))
    }

    /// Atomically replaces the whole log with one record, durable on
    /// return (a checkpoint's rebaseline to a fresh meta record). Pending
    /// appends are flushed first, so every LSN handed out before the call
    /// is durable (then dropped) when it returns; the next append follows
    /// `payload`'s record.
    ///
    /// # Errors
    ///
    /// I/O failure or a poisoned log.
    pub fn rewrite(&self, stamp: u64, flags: u8, payload: &[u8]) -> io::Result<()> {
        self.flush()?;
        let mut bytes = Vec::new();
        codec::encode_record(stamp, flags, payload, &mut bytes);
        let mut io = self.io.lock().expect("wal io lock");
        if let Err(e) = io.reset_to(&bytes) {
            self.poison_with(&e);
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::sink::{FaultPlan, FaultSink, MemSink};

    fn mem_wal() -> (Wal, MemSink) {
        let sink = MemSink::new();
        (Wal::with_sink(Box::new(sink.clone())), sink)
    }

    #[test]
    fn appends_are_volatile_until_waited_on() {
        let (wal, sink) = mem_wal();
        let lsn = wal.append(5, 0, b"one");
        assert_eq!(lsn, 1);
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(sink.durable_bytes(), b"", "no fsync yet");
        wal.wait_durable(lsn).unwrap();
        assert_eq!(wal.durable_lsn(), 1);
        let d = codec::decode_stream(&sink.durable_bytes());
        assert_eq!(d.records.len(), 1);
        assert_eq!(d.records[0].stamp, 5);
        assert_eq!(d.records[0].payload, b"one");
    }

    #[test]
    fn one_wait_flushes_the_whole_batch() {
        let (wal, _sink) = mem_wal();
        let a = wal.append(1, 0, b"a");
        let b = wal.append(2, 0, b"b");
        let c = wal.append(3, 0, b"c");
        wal.wait_durable(a).unwrap();
        // The steal took everything pending, not just record `a`.
        assert_eq!(wal.durable_lsn(), c);
        wal.wait_durable(b).unwrap();
        wal.wait_durable(c).unwrap();
    }

    #[test]
    fn group_commit_batches_across_threads() {
        let (wal, _sink) = mem_wal();
        let threads = 8;
        let per = 50;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per {
                        let lsn = wal.append(i, 0, &i.to_le_bytes());
                        wal.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.durable_lsn(), threads * per);
        let d = wal.read_records().unwrap();
        assert_eq!(d.records.len(), (threads * per) as usize);
        assert_eq!(d.corruption, None);
    }

    #[test]
    fn group_commit_uses_fewer_fsyncs_than_commits() {
        let stats = Arc::new(StmStats::default());
        let (wal, _sink) = mem_wal();
        wal.attach_stats(stats.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        let lsn = wal.append(i, 0, b"x");
                        wal.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.log_appends, 400);
        assert_eq!(snap.group_commit_records, 400, "every record fsynced once");
        assert!(snap.fsyncs <= 400, "never more fsyncs than records");
        assert!(snap.fsyncs > 0);
    }

    #[test]
    fn io_failure_poisons_fail_stop() {
        let wal = Wal::with_sink(Box::new(FaultSink::new(FaultPlan {
            fail_sync_after: Some(1),
            ..FaultPlan::default()
        })));
        let a = wal.append(1, 0, b"a");
        wal.wait_durable(a).unwrap();
        let b = wal.append(2, 0, b"b");
        assert!(wal.wait_durable(b).is_err(), "failed fsync must surface");
        // Poisoned forever, even for already-durable LSNs reached via
        // the flush path.
        assert!(wal.flush().is_err());
        let c = wal.append(3, 0, b"c");
        assert!(wal.wait_durable(c).is_err());
        // The already-published watermark is still readable.
        assert_eq!(wal.durable_lsn(), 1);
    }

    #[test]
    fn rewrite_flushes_pending_appends_then_replaces_the_log() {
        let (wal, sink) = mem_wal();
        wal.append(1, 0, b"old");
        let pending = wal.append(2, 0, b"pending");
        wal.rewrite(0, codec::FLAG_META, b"meta").unwrap();
        assert_eq!(wal.durable_lsn(), pending, "the pending append was flushed");
        let d = codec::decode_stream(&sink.durable_bytes());
        assert_eq!(d.records.len(), 1, "and then replaced, durably");
        assert!(d.records[0].is_meta());
        let lsn = wal.append(9, 0, b"new");
        wal.wait_durable(lsn).unwrap();
        let d = wal.read_records().unwrap();
        let stamps: Vec<u64> = d.records.iter().map(|r| r.stamp).collect();
        assert_eq!(
            stamps,
            [0, 9],
            "the next append follows the rewritten record"
        );
        assert_eq!(d.corruption, None);
    }

    #[test]
    fn torn_write_surfaces_and_leaves_a_clean_prefix() {
        let sink = FaultSink::new(FaultPlan {
            tear_after_bytes: Some(40),
            ..FaultPlan::default()
        });
        let mem = sink.mem().clone();
        let wal = Wal::with_sink(Box::new(sink));
        let a = wal.append(1, 0, b"0123456789"); // framed: 35 bytes
        wal.wait_durable(a).unwrap();
        let b = wal.append(2, 0, b"0123456789");
        assert!(wal.wait_durable(b).is_err(), "torn batch must not ack");
        let d = codec::decode_stream(&mem.all_bytes());
        assert_eq!(d.records.len(), 1, "only the first record survives");
        assert_eq!(d.records[0].stamp, 1);
        assert!(d.corruption.is_some());
    }
}
