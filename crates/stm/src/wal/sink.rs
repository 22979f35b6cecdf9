//! Byte sinks a [`Wal`](super::Wal) writes through: a real file, an
//! in-memory buffer for tests, and a fault-injecting wrapper that tears
//! writes and flips bits on cue — the crash-point harness's way of
//! producing every torn-tail shape without actually crashing.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where a log's bytes go. Implementations are sequenced by the `Wal`'s
/// io lock, so they take `&mut self` and need no internal locking.
///
/// The contract recovery relies on: after a crash, the bytes
/// [`read_all`](LogSink::read_all) returns are some prefix of everything
/// appended, extended by at most one torn suffix of the remainder — and
/// everything appended before the last successful [`sync`](LogSink::sync)
/// is in that prefix.
pub trait LogSink: Send + fmt::Debug {
    /// Appends `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces every appended byte to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Reads the entire log back.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Replaces the log's contents wholesale (checkpoint rewrites).
    /// Implementations make the switch as atomic as the medium allows.
    fn reset_to(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// A log backed by one append-only file. Rewrites go through
/// [`replace_file`]'s write-new-then-rename sidecar so a crash
/// mid-rewrite leaves either the old log or the new one, never a splice.
///
/// On Linux the file is opened `O_DSYNC`, so the one batch write a
/// group commit issues carries datasync semantics itself and
/// [`sync`](LogSink::sync) is a no-op — one syscall per fsync batch
/// instead of two (the same trade `wal_sync_method = open_datasync`
/// makes). Elsewhere, `sync` falls back to `fdatasync`.
pub(crate) struct FileSink {
    path: PathBuf,
    file: File,
    /// Writes already carry datasync semantics (`O_DSYNC`).
    dsync: bool,
}

impl fmt::Debug for FileSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSink")
            .field("path", &self.path)
            .finish()
    }
}

/// Opens `path` append-only, `O_DSYNC` where supported; returns the
/// handle and whether it got the flag.
fn open_log(path: &Path, create: bool) -> io::Result<(File, bool)> {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::fs::OpenOptionsExt;
        const O_DSYNC: i32 = 0x1000;
        // A filesystem that refuses the flag still gets a correct
        // (two-syscall) sink below.
        if let Ok(f) = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .custom_flags(O_DSYNC)
            .open(path)
        {
            return Ok((f, true));
        }
    }
    let file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(create)
        .open(path)?;
    Ok((file, false))
}

/// Fsyncs the directory containing `path`, making a rename in it
/// durable. Rename atomicity alone only orders the *contents*; the
/// directory entry itself needs its own barrier on POSIX.
fn fsync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Atomically replaces the file at `path` with `bytes`: writes and
/// `sync_all`s a `<path>.tmp` sidecar, renames it over `path`, then
/// fsyncs the parent directory. A crash leaves the old file or the new
/// one, never a splice or a missing file; on return the new contents
/// and the directory entry naming them are both durable.
///
/// # Errors
///
/// The first failing create, write, sync or rename.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent_dir(path)
}

impl FileSink {
    /// Opens (creating if absent) the log file at `path`.
    pub(crate) fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let (file, dsync) = open_log(&path, true)?;
        Ok(FileSink { path, file, dsync })
    }
}

impl LogSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.dsync {
            return Ok(());
        }
        self.file.sync_data()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn reset_to(&mut self, bytes: &[u8]) -> io::Result<()> {
        replace_file(&self.path, bytes)?;
        // Reopen: the old handle still points at the unlinked inode.
        // Going through `open_log` keeps O_DSYNC semantics (or the
        // fdatasync fallback) on the new handle — `dsync` must describe
        // this handle, or every later sync() silently stops syncing.
        let (file, dsync) = open_log(&self.path, false)?;
        self.file = file;
        self.dsync = dsync;
        Ok(())
    }
}

/// An in-memory log that models a volatile write cache: bytes become
/// "durable" only at [`sync`](LogSink::sync). [`MemSink::durable_bytes`]
/// reads back what a crash right now would preserve, which is how the
/// in-process crash tests simulate power loss without a child process.
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    state: Arc<Mutex<MemState>>,
}

#[derive(Debug, Default)]
struct MemState {
    bytes: Vec<u8>,
    synced_len: usize,
}

impl MemSink {
    /// A fresh, empty in-memory log.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// Everything appended so far, synced or not.
    pub fn all_bytes(&self) -> Vec<u8> {
        self.state.lock().expect("mem sink lock").bytes.clone()
    }

    /// The prefix a crash at this instant would preserve: every byte up
    /// to the last [`sync`](LogSink::sync).
    pub fn durable_bytes(&self) -> Vec<u8> {
        let st = self.state.lock().expect("mem sink lock");
        st.bytes[..st.synced_len].to_vec()
    }
}

impl LogSink for MemSink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.state
            .lock()
            .expect("mem sink lock")
            .bytes
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("mem sink lock");
        st.synced_len = st.bytes.len();
        Ok(())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.all_bytes())
    }

    fn reset_to(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().expect("mem sink lock");
        st.bytes = bytes.to_vec();
        st.synced_len = st.bytes.len();
        Ok(())
    }
}

/// What a [`FaultSink`] should break, counted in bytes appended /
/// syncs performed through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Stop accepting bytes after this many have been appended: the
    /// append that crosses the limit writes only the bytes that fit
    /// (a torn write) and fails; later appends fail outright.
    pub tear_after_bytes: Option<u64>,
    /// XOR this mask into the byte at this append-stream offset as it
    /// goes through (silent corruption — the append still succeeds).
    pub flip: Option<(u64, u8)>,
    /// Fail every sync after this many have succeeded.
    pub fail_sync_after: Option<u64>,
}

/// A sink wrapper that injects the [`FaultPlan`]'s failures into an
/// inner [`MemSink`], for exercising recovery against torn and
/// corrupted logs deterministically.
#[derive(Debug)]
pub struct FaultSink {
    inner: MemSink,
    plan: FaultPlan,
    appended: u64,
    syncs: u64,
}

impl FaultSink {
    /// Wraps a fresh [`MemSink`] with `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSink {
            inner: MemSink::new(),
            plan,
            appended: 0,
            syncs: 0,
        }
    }

    /// The wrapped sink, for reading the surviving bytes back.
    pub fn mem(&self) -> &MemSink {
        &self.inner
    }
}

impl LogSink for FaultSink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut bytes = bytes.to_vec();
        if let Some((at, mask)) = self.plan.flip {
            let start = self.appended;
            if at >= start && at < start + bytes.len() as u64 {
                bytes[(at - start) as usize] ^= mask;
            }
        }
        if let Some(limit) = self.plan.tear_after_bytes {
            let room = limit.saturating_sub(self.appended);
            if (bytes.len() as u64) > room {
                let keep = &bytes[..room as usize];
                self.inner.append(keep)?;
                self.appended += keep.len() as u64;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "fault injection: torn write",
                ));
            }
        }
        self.appended += bytes.len() as u64;
        self.inner.append(&bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(budget) = self.plan.fail_sync_after {
            if self.syncs >= budget {
                return Err(io::Error::other("fault injection: sync failed"));
            }
        }
        self.syncs += 1;
        self.inner.sync()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn reset_to(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.reset_to(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sink_models_the_volatile_cache() {
        let mut s = MemSink::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.durable_bytes(), b"");
        s.sync().unwrap();
        s.append(b"def").unwrap();
        assert_eq!(s.durable_bytes(), b"abc");
        assert_eq!(s.all_bytes(), b"abcdef");
        s.reset_to(b"xy").unwrap();
        assert_eq!(s.durable_bytes(), b"xy");
    }

    #[test]
    fn fault_sink_tears_at_the_byte_limit() {
        let mut s = FaultSink::new(FaultPlan {
            tear_after_bytes: Some(4),
            ..FaultPlan::default()
        });
        s.append(b"ab").unwrap();
        let err = s.append(b"cdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(s.mem().all_bytes(), b"abcd", "torn mid-append");
        assert!(s.append(b"x").is_err(), "sink stays broken");
    }

    #[test]
    fn fault_sink_flips_the_planned_byte() {
        let mut s = FaultSink::new(FaultPlan {
            flip: Some((2, 0xFF)),
            ..FaultPlan::default()
        });
        s.append(b"\0\0\0\0").unwrap();
        assert_eq!(s.mem().all_bytes(), [0, 0, 0xFF, 0]);
    }

    #[test]
    fn fault_sink_fails_sync_on_budget() {
        let mut s = FaultSink::new(FaultPlan {
            fail_sync_after: Some(1),
            ..FaultPlan::default()
        });
        s.append(b"a").unwrap();
        s.sync().unwrap();
        assert!(s.sync().is_err());
    }

    #[test]
    fn file_sink_appends_reads_and_rewrites() {
        let dir = std::env::temp_dir().join(format!("ptm-wal-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = FileSink::open(&path).unwrap();
            s.append(b"hello ").unwrap();
            s.append(b"world").unwrap();
            s.sync().unwrap();
            assert_eq!(s.read_all().unwrap(), b"hello world");
            s.reset_to(b"fresh").unwrap();
            assert_eq!(s.read_all().unwrap(), b"fresh");
            s.append(b"!").unwrap();
            assert_eq!(s.read_all().unwrap(), b"fresh!");
        }
        // Reopen picks the rewritten contents back up.
        let mut s = FileSink::open(&path).unwrap();
        assert_eq!(s.read_all().unwrap(), b"fresh!");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn file_sink_rewrite_preserves_sync_mode() {
        let dir = std::env::temp_dir().join(format!("ptm-wal-dsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mode.wal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileSink::open(&path).unwrap();
        let opened_with = s.dsync;
        s.append(b"a").unwrap();
        s.reset_to(b"b").unwrap();
        // The reopened handle must carry the same durability mode the
        // original open negotiated: a handle without O_DSYNC but with
        // dsync == true would make sync() a permanent no-op.
        assert_eq!(
            s.dsync, opened_with,
            "reset_to changed the sink's sync mode"
        );
        s.append(b"c").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_all().unwrap(), b"bc");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
