//! Recovery robustness: determinism of recovery, and file-level fault
//! injection (truncations and bit flips) against the clean-prefix
//! contract — values may be lost from the tail, never invented or
//! reordered — and against snapshots, which must refuse to open.

use ptm_server::{DurabilityConfig, DurableKv, ServiceConfig};
use ptm_stm::Algorithm;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptm-durab-{tag}-{}", std::process::id()));
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

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn sorted_scan(kv: &DurableKv<u64, u64>) -> Vec<(u64, u64)> {
    let mut scan = kv.scan();
    scan.sort_unstable();
    scan
}

/// Seeds a store with single-key puts and cross-shard transfers, then
/// drops it mid-stream (no checkpoint), leaving a log-heavy directory.
fn seed(dir: &Path, algorithm: Algorithm) {
    let kv: DurableKv<u64, u64> = DurableKv::open(cfg(dir, algorithm)).unwrap();
    for k in 0..24u64 {
        kv.put(k, 1000 + k);
    }
    for i in 0..12u64 {
        kv.transact(|tx| {
            let a = tx.get(&(i % 24))?.unwrap_or(0);
            let b = tx.get(&((i + 9) % 24))?.unwrap_or(0);
            tx.put(i % 24, a - 1)?;
            tx.put((i + 9) % 24, b + 1)?;
            Ok(())
        });
    }
    kv.remove(&23);
}

/// Recovery is a pure function of the directory bytes: two recoveries
/// from identical copies produce identical stores and identical
/// reports — for every algorithm, including from a damaged directory.
#[test]
fn double_recovery_from_the_same_bytes_is_deterministic() {
    for algorithm in Algorithm::ALL {
        let base = temp_dir(&format!("det-{algorithm:?}"));
        let store = base.join("store");
        seed(&store, algorithm);
        // Simulate a torn tail on one shard so recovery has real work:
        // truncation, replay, and cross-shard roll-forward all run.
        let wal0 = store.join("shard-0.wal");
        let len = fs::metadata(&wal0).unwrap().len();
        let bytes = fs::read(&wal0).unwrap();
        fs::write(&wal0, &bytes[..(len as usize).saturating_sub(7)]).unwrap();

        let (copy_a, copy_b) = (base.join("a"), base.join("b"));
        copy_dir(&store, &copy_a);
        copy_dir(&store, &copy_b);
        let kv_a: DurableKv<u64, u64> = DurableKv::open(cfg(&copy_a, algorithm)).unwrap();
        let kv_b: DurableKv<u64, u64> = DurableKv::open(cfg(&copy_b, algorithm)).unwrap();
        assert_eq!(
            kv_a.recovery_report(),
            kv_b.recovery_report(),
            "{algorithm:?}: reports diverge"
        );
        assert_eq!(
            sorted_scan(&kv_a),
            sorted_scan(&kv_b),
            "{algorithm:?}: recovered contents diverge"
        );
        let _ = fs::remove_dir_all(&base);
    }
}

/// Writes `count` puts of distinct keys (key `i` → `100 + i`), returns
/// the keys in write order grouped by owning shard — the oracle for
/// prefix checks after tail damage.
fn seed_sequential(dir: &Path, algorithm: Algorithm, count: u64) -> Vec<Vec<u64>> {
    let kv: DurableKv<u64, u64> = DurableKv::open(cfg(dir, algorithm)).unwrap();
    let mut per_shard = vec![Vec::new(); 4];
    for i in 0..count {
        kv.put(i, 100 + i);
        per_shard[kv.store().shard_of(&i)].push(i);
    }
    per_shard
}

/// After damage to shard `s`'s log, the recovered store must hold a
/// *prefix* of shard `s`'s write sequence (never a gap, never a wrong
/// value) and every other shard's writes in full.
fn assert_prefix_semantics(
    dir: &Path,
    algorithm: Algorithm,
    per_shard: &[Vec<u64>],
    damaged: usize,
    what: &str,
) {
    let kv: DurableKv<u64, u64> = DurableKv::open(cfg(dir, algorithm)).unwrap();
    for (s, keys) in per_shard.iter().enumerate() {
        let mut gone = false;
        for &k in keys {
            match kv.get(&k) {
                Some(v) => {
                    assert_eq!(v, 100 + k, "{what}: key {k} has an invented value");
                    assert!(
                        !gone,
                        "{what}: shard {s} key {k} survived after an earlier key was lost (not a prefix)"
                    );
                }
                None => {
                    assert_eq!(s, damaged, "{what}: undamaged shard {s} lost key {k}");
                    gone = true;
                }
            }
        }
    }
}

/// Truncate shard 0's log at every byte offset from the tail down past
/// several records: recovery always succeeds and always yields a clean
/// prefix of that shard's acked writes.
#[test]
fn truncation_at_every_offset_recovers_a_clean_prefix() {
    let base = temp_dir("trunc");
    let store = base.join("store");
    let per_shard = seed_sequential(&store, Algorithm::Tl2, 32);
    let damaged = 0usize;
    let wal = store.join(format!("shard-{damaged}.wal"));
    let bytes = fs::read(&wal).unwrap();
    for cut in (0..bytes.len()).rev() {
        let copy = base.join("cut");
        let _ = fs::remove_dir_all(&copy);
        copy_dir(&store, &copy);
        fs::write(copy.join(format!("shard-{damaged}.wal")), &bytes[..cut]).unwrap();
        assert_prefix_semantics(
            &copy,
            Algorithm::Tl2,
            &per_shard,
            damaged,
            &format!("truncate at {cut}"),
        );
    }
    let _ = fs::remove_dir_all(&base);
}

/// Flip every byte of shard 0's log (one at a time): recovery succeeds,
/// the corruption is detected (decode truncates at the flipped record),
/// and no key ever reads back a value that was never written.
#[test]
fn bit_flip_at_every_offset_never_invents_a_value() {
    let base = temp_dir("flip");
    let store = base.join("store");
    let per_shard = seed_sequential(&store, Algorithm::Tl2, 16);
    let damaged = 0usize;
    let wal = store.join(format!("shard-{damaged}.wal"));
    let bytes = fs::read(&wal).unwrap();
    for off in 0..bytes.len() {
        let copy = base.join("flip");
        let _ = fs::remove_dir_all(&copy);
        copy_dir(&store, &copy);
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x40;
        fs::write(copy.join(format!("shard-{damaged}.wal")), &corrupt).unwrap();
        assert_prefix_semantics(
            &copy,
            Algorithm::Tl2,
            &per_shard,
            damaged,
            &format!("flip at {off}"),
        );
    }
    let _ = fs::remove_dir_all(&base);
}

/// A snapshot is replaced atomically, so any damage to one is real
/// corruption: truncated at any offset (a cut at a record boundary and
/// an empty file included), with any byte flipped or with a byte after
/// its two records, it must fail the open with `InvalidData` rather than
/// load a partial or altered state.
#[test]
fn a_damaged_snapshot_fails_the_open() {
    let store = temp_dir("snap");
    {
        let mut kv: DurableKv<u64, u64> = DurableKv::open(cfg(&store, Algorithm::Tl2)).unwrap();
        for k in 0..16u64 {
            kv.put(k, 100 + k);
        }
        kv.checkpoint().unwrap();
    }
    let snap = store.join("shard-0.snap");
    let bytes = fs::read(&snap).unwrap();
    let open_fails = |damaged: &[u8], what: String| {
        fs::write(&snap, damaged).unwrap();
        let err = DurableKv::<u64, u64>::open(cfg(&store, Algorithm::Tl2)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    };
    for cut in 0..bytes.len() {
        open_fails(&bytes[..cut], format!("truncate at {cut}"));
    }
    for off in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x40;
        open_fails(&corrupt, format!("flip at {off}"));
    }
    open_fails(&[&bytes[..], &[0]].concat(), "a trailing byte".into());
    // The undamaged file still opens: the failures above were the damage.
    fs::write(&snap, &bytes).unwrap();
    let kv: DurableKv<u64, u64> = DurableKv::open(cfg(&store, Algorithm::Tl2)).unwrap();
    assert_eq!(kv.recovery_report().snapshot_entries, 16);
    drop(kv);
    let _ = fs::remove_dir_all(&store);
}
