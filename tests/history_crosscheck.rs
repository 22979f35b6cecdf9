//! The bridge between the native engine and the paper's formal model:
//! record real multi-threaded executions of all six algorithms with
//! [`HistoryRecorder`], parse them with `ptm_model::History::from_log`,
//! and run the opacity / strict-serializability checkers on them — the
//! same checkers the simulator's logs go through. Hand-corrupted logs
//! (a flipped read value, a mismatched response, and the inconsistent
//! snapshot a leaked Tlrw read lock would admit) are rejected, proving
//! the cross-check is not vacuous.

use progressive_tm::model::{is_opaque, is_strictly_serializable, History};
use progressive_tm::sim::{
    LogEntry, LogPayload, Marker, ProcessId, TObjId, TOpDesc, TOpResult, TxId,
};
use progressive_tm::stm::wal::{codec, DurableTicket, MemSink, Wal, WalValue};
use progressive_tm::stm::{Algorithm, HistoryRecorder, Retry, Stm, TVar};
use progressive_tm::structs::TArray;
use std::collections::HashSet;
use std::sync::Arc;

/// Builds a recording instance and hands back the recorder for draining.
fn recording_stm(algo: Algorithm) -> (Arc<Stm>, HistoryRecorder) {
    let rec = HistoryRecorder::new();
    let stm = Stm::builder(algo).record_history(rec.clone()).build();
    (Arc::new(stm), rec)
}

/// Parses a drained log, requiring well-formedness.
fn history_of(log: &[LogEntry]) -> History {
    History::from_log(log).expect("recorded histories are well-formed")
}

/// Asserts the checker accepts `h`: opacity when the backtracking search
/// is in range, strict serializability of the (bounded) committed set
/// otherwise (abort storms can inflate the transaction count past the
/// search's 128-candidate limit).
fn assert_checker_accepts(h: &History, ctx: &str) {
    if h.len() <= 120 {
        assert!(is_opaque(h), "{ctx}: recorded history is not opaque");
    } else {
        assert!(
            is_strictly_serializable(h),
            "{ctx}: recorded history is not strictly serializable"
        );
    }
}

/// Total the counter workload must reach: the `(t + i) % 3 == 0`
/// transactions bump both counters, the rest bump one.
fn expected_counter_total(threads: usize, per: u64) -> u64 {
    (0..threads as u64)
        .flat_map(|t| (0..per).map(move |i| if (t + i) % 3 == 0 { 2 } else { 1 }))
        .sum()
}

/// Counter increments across `threads` threads; every committed read is
/// value-constrained, so the checker genuinely verifies the run.
fn record_counter_run(algo: Algorithm, threads: usize, per: u64) -> (Vec<LogEntry>, u64) {
    let (stm, rec) = recording_stm(algo);
    let a = TVar::new(0u64);
    let b = TVar::new(0u64);
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = Arc::clone(&stm);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 0..per {
                    stm.atomically(|tx| {
                        // Alternate between the shared counters, touching
                        // both on every third transaction.
                        if (t as u64 + i).is_multiple_of(3) {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            tx.write(&a, x + 1)?;
                            tx.write(&b, y + 1)
                        } else if (t as u64 + i).is_multiple_of(2) {
                            tx.modify(&a, |x| x + 1)
                        } else {
                            tx.modify(&b, |x| x + 1)
                        }
                    });
                }
            });
        }
    });
    let stats = stm.stats().snapshot();
    assert!(stats.recorded_events > 0, "recording was on");
    assert_eq!(
        rec.events_recorded(),
        stats.recorded_events,
        "one recorder, one instance: the counters must agree"
    );
    let log = rec.drain();
    // Counters start at zero, so no preamble: the drained log is exactly
    // the instance's recorded events.
    assert_eq!(log.len() as u64, stats.recorded_events);
    (log, a.load() + b.load())
}

#[test]
fn native_counter_histories_are_opaque_all_algorithms() {
    // Mv histories are the interesting multi-version case: a snapshot
    // reader may return values writers have long since superseded, and
    // the checker must still find the serialization its start time
    // names. Adaptive runs at default tuning: these short runs stay in
    // the invisible mode; the forced mid-switch recording lives in
    // `tests/native_stm.rs`.
    for algo in Algorithm::ALL {
        for threads in [2usize, 4] {
            let per = 4;
            let (log, total) = record_counter_run(algo, threads, per);
            assert_eq!(total, expected_counter_total(threads, per), "{algo:?}");
            let h = history_of(&log);
            assert!(h.is_complete(), "{algo:?}: every attempt is t-complete");
            assert_eq!(h.committed().len() as u64, (threads as u64) * per);
            assert_checker_accepts(&h, &format!("{algo:?}/{threads}t"));
        }
    }
}

#[test]
fn eight_thread_histories_parse_and_serialize() {
    for algo in Algorithm::ALL {
        let (log, total) = record_counter_run(algo, 8, 2);
        assert_eq!(total, expected_counter_total(8, 2), "{algo:?}");
        let h = history_of(&log);
        assert_eq!(h.committed().len(), 16, "{algo:?}");
        assert!(
            is_strictly_serializable(&h),
            "{algo:?}: 8-thread history must strictly serialize"
        );
        assert_checker_accepts(&h, &format!("{algo:?}/8t"));
    }
}

#[test]
fn projected_reads_record_the_whole_value() {
    // `read_with` hands the caller its closure's projection, but the
    // history must carry the value the read *saw*. A marker holding the
    // projection instead (here a bool: word 0 or 1) would make every
    // observation of a counter past 1 an illegal read.
    for algo in Algorithm::ALL {
        let (stm, rec) = recording_stm(algo);
        let counter = TVar::new(0u64);
        let sightings = TVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (stm, counter) = (Arc::clone(&stm), counter.clone());
                s.spawn(move || {
                    for _ in 0..4 {
                        stm.atomically(|tx| tx.modify(&counter, |x| x + 1));
                    }
                });
            }
            let (stm, counter, sightings) = (Arc::clone(&stm), counter.clone(), sightings.clone());
            s.spawn(move || {
                for _ in 0..4 {
                    stm.atomically(|tx| {
                        let nonzero = tx.read_with(&counter, |x| *x != 0)?;
                        tx.modify(&sightings, |n| n + u64::from(nonzero))
                    });
                }
            });
        });
        assert_eq!(counter.load(), 8, "{algo:?}");
        // One last projected read, alone: its marker is the log's last
        // read response and must name the counter's value.
        assert!(stm.atomically(|tx| tx.read_with(&counter, |x| *x != 0)));
        let log = rec.drain();
        let last_read = log
            .iter()
            .rev()
            .find_map(|e| match e.marker() {
                Some(Marker::TxResponse {
                    op: TOpDesc::Read(_),
                    res: TOpResult::Value(w),
                    ..
                }) => Some(*w),
                _ => None,
            })
            .expect("the run recorded reads");
        assert_eq!(last_read, 8, "{algo:?}: recorded the projection");
        assert_checker_accepts(&history_of(&log), &format!("{algo:?}/projected"));
    }
}

#[test]
fn nonzero_initial_values_are_installed_by_the_preamble() {
    for algo in Algorithm::ALL {
        let (stm, rec) = recording_stm(algo);
        let accounts: Vec<TVar<u64>> = (0..4).map(|_| TVar::new(100)).collect();
        std::thread::scope(|s| {
            for t in 0..3usize {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                s.spawn(move || {
                    for i in 0..3usize {
                        let from = (t + i) % accounts.len();
                        let to = (t + 2 * i + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        stm.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            let amt = a.min(7);
                            tx.write(&accounts[from], a - amt)?;
                            tx.write(&accounts[to], b + amt)
                        });
                    }
                });
            }
        });
        assert_eq!(accounts.iter().map(TVar::load).sum::<u64>(), 400);
        let log = rec.drain();
        // The preamble writes the four initial 100s: without it, the
        // first read of 100 would be illegal (the model starts at 0).
        let writes_of_100 = log
            .iter()
            .filter_map(LogEntry::marker)
            .filter(|m| {
                matches!(
                    m,
                    Marker::TxInvoke {
                        op: TOpDesc::Write(_, 100),
                        ..
                    }
                )
            })
            .count();
        assert!(writes_of_100 >= 4, "preamble installs initial balances");
        assert_checker_accepts(&history_of(&log), &format!("{algo:?}/bank"));
    }
}

#[test]
fn batched_reads_record_one_marker_per_variable() {
    // `read_each` with a recorder attached is the `read_with` loop: one
    // invoke/response pair per variable, so the checker sees every read
    // of a scan that races transfers, and the scans see a conserved sum.
    const N: usize = 8;
    for algo in Algorithm::ALL {
        let (stm, rec) = recording_stm(algo);
        let accounts: Vec<TVar<u64>> = (0..N).map(|_| TVar::new(10)).collect();
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (stm, accounts) = (Arc::clone(&stm), accounts.clone());
                s.spawn(move || {
                    for i in 0..3usize {
                        let (from, to) = ((t + i) % N, (t + 3 * i + 1) % N);
                        stm.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 1)?;
                            tx.write(&accounts[to], b + 1)
                        });
                    }
                });
            }
            let (stm, accounts) = (Arc::clone(&stm), accounts.clone());
            s.spawn(move || {
                for _ in 0..3 {
                    let mut sum = 0;
                    stm.atomically(|tx| {
                        sum = 0;
                        tx.read_each(&accounts, |v| sum += v)
                    });
                    assert_eq!(sum, 10 * N as u64, "{algo:?}: a torn scan");
                }
            });
        });
        // One last scan, alone: its transaction's markers are the log's
        // last reads.
        stm.atomically(|tx| tx.read_each(&accounts, |_| {}));
        let log = rec.drain();
        let reads: Vec<TxId> = log
            .iter()
            .filter_map(|e| match e.marker() {
                Some(Marker::TxInvoke {
                    tx,
                    op: TOpDesc::Read(_),
                }) => Some(*tx),
                _ => None,
            })
            .collect();
        let last = *reads.last().expect("the scans recorded reads");
        assert_eq!(
            reads.iter().filter(|&&tx| tx == last).count(),
            N,
            "{algo:?}: one read marker per variable"
        );
        assert_checker_accepts(&history_of(&log), &format!("{algo:?}/read_each"));
    }
}

#[test]
fn tarray_workload_histories_are_opaque() {
    // The data-structure layer over the recorder: TArray slots hold u64,
    // so recorded words are the real values and the checker validates
    // the structure's behaviour, not just its event shape.
    for algo in Algorithm::ALL {
        let (stm, rec) = recording_stm(algo);
        let arr = TArray::new(4, 5u64);
        std::thread::scope(|s| {
            for t in 0..3usize {
                let stm = Arc::clone(&stm);
                let arr = arr.clone();
                s.spawn(move || {
                    for i in 0..3usize {
                        let from = (t + i) % arr.len();
                        let to = (t + i + 1) % arr.len();
                        stm.atomically(|tx| {
                            let a = arr.get(tx, from)?;
                            let amt = a.min(2);
                            arr.update(tx, from, |x| x - amt)?;
                            arr.update(tx, to, |x| x + amt)
                        });
                    }
                });
            }
        });
        assert_eq!(arr.load_all().iter().sum::<u64>(), 20);
        let h = history_of(&rec.drain());
        assert_checker_accepts(&h, &format!("{algo:?}/tarray"));
    }
}

#[test]
fn user_retries_and_one_attempt_budgets_close_their_transactions() {
    for algo in Algorithm::ALL {
        let rec = HistoryRecorder::new();
        // Tiny attempt budget: the always-failing bodies below must not
        // spin for the default ten million attempts.
        let stm = Stm::builder(algo)
            .max_attempts(3)
            .record_history(rec.clone())
            .build();
        let v = TVar::new(0u64);
        // A body that gives up on odd values: the engine must close the
        // abandoned attempt in the history (tryC -> A) even though no
        // operation conflicted.
        let mut gave_up = 0u32;
        for i in 0..6u64 {
            let out = stm.run(|tx| {
                let x = tx.read(&v)?;
                if i % 2 == 1 {
                    return Err(Retry);
                }
                tx.write(&v, x + 1)
            });
            if out.is_err() {
                gave_up += 1;
            }
        }
        assert!(gave_up > 0, "odd iterations exhausted their budget");
        // A one-attempt budget's abort is closed the same way. (Its own
        // variable: instances with separate clocks must not share one.)
        let one_shot = Stm::builder(algo)
            .max_attempts(1)
            .record_history(rec.clone())
            .build();
        let w = TVar::new(0u64);
        let _ = one_shot.run(|tx| {
            tx.read(&w)?;
            Err::<(), Retry>(Retry)
        });
        let h = history_of(&rec.drain());
        assert!(h.is_complete(), "{algo:?}: abandoned attempts were closed");
        assert!(!h.aborted().is_empty(), "{algo:?}: aborts were recorded");
        assert_checker_accepts(&h, &format!("{algo:?}/user-retry"));
    }
}

#[test]
fn poisoned_transactions_cannot_commit_after_a_swallowed_retry() {
    let rec = HistoryRecorder::new();
    let stm = Stm::builder(Algorithm::Tl2)
        .max_attempts(2)
        .record_history(rec.clone())
        .build();
    let v = TVar::new(0u64);
    // The body swallows a (synthetic) failed read by ignoring the error
    // and blundering on; poisoning forces every later op and the commit
    // to fail, so the recorded history stays well-formed.
    let out = stm.run(|tx| {
        let _ = tx.read(&v)?; // records the read
        Err::<(), Retry>(Retry)
    });
    assert!(out.is_err());
    let h = history_of(&rec.drain());
    assert!(h.is_complete());
    assert!(is_opaque(&h));
}

#[test]
fn corrupted_read_value_is_rejected_by_the_checker() {
    for algo in Algorithm::ALL {
        let (mut log, _) = record_counter_run(algo, 2, 3);
        assert!(is_opaque(&history_of(&log)), "{algo:?}: pristine log");
        // Flip the first read response of a *committed* transaction to a
        // value nothing ever wrote. (An aborted attempt's reads constrain
        // opacity but not strict serializability, which judges committed
        // transactions only — corrupting one would leave the second
        // assertion below nothing to reject.)
        let committed: HashSet<TxId> = log
            .iter()
            .filter_map(|e| match e.marker() {
                Some(Marker::TxResponse {
                    tx,
                    res: TOpResult::Committed,
                    ..
                }) => Some(*tx),
                _ => None,
            })
            .collect();
        let target = log
            .iter_mut()
            .find_map(|e| match &mut e.payload {
                LogPayload::Marker(Marker::TxResponse {
                    tx,
                    op: TOpDesc::Read(_),
                    res: res @ TOpResult::Value(_),
                }) if committed.contains(tx) => Some(res),
                _ => None,
            })
            .expect("committed counter transactions contain read responses");
        *target = TOpResult::Value(1_000_003);
        let h = history_of(&log);
        assert!(
            !is_opaque(&h),
            "{algo:?}: corrupted read value must not be opaque"
        );
        assert!(
            !is_strictly_serializable(&h),
            "{algo:?}: corrupted read value must not serialize"
        );
    }
}

/// Hand-builds the history a *leaked* (or dropped) Tlrw read lock would
/// admit: reader T1 reads X before writer T2 commits, yet also observes
/// T2's write to Y — under visible reads T1's held lock on X makes this
/// impossible, so the checker must reject it. `honest` controls whether
/// T1's second read reports the pre-commit value (a legal history) or
/// the post-commit one (the leak).
fn tlrw_leak_history(honest: bool) -> Vec<LogEntry> {
    let (x, y) = (TObjId::new(0), TObjId::new(1));
    let (t1, t2) = (TxId::new(1), TxId::new(2));
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let mut log = Vec::new();
    let mut push = |pid: ProcessId, tx: TxId, op: TOpDesc, res: Option<TOpResult>| {
        let seq = log.len();
        let marker = match res {
            None => Marker::TxInvoke { tx, op },
            Some(res) => Marker::TxResponse { tx, op, res },
        };
        log.push(LogEntry {
            seq,
            pid,
            payload: LogPayload::Marker(marker),
        });
    };
    // T1 reads X = 0 (and, under Tlrw, would now hold X's read lock).
    push(p0, t1, TOpDesc::Read(x), None);
    push(p0, t1, TOpDesc::Read(x), Some(TOpResult::Value(0)));
    // T2 writes X := 5, Y := 5 and commits — entirely inside T1's
    // lifetime, which a held read lock on X forbids.
    push(p1, t2, TOpDesc::Write(x, 5), None);
    push(p1, t2, TOpDesc::Write(x, 5), Some(TOpResult::Ok));
    push(p1, t2, TOpDesc::Write(y, 5), None);
    push(p1, t2, TOpDesc::Write(y, 5), Some(TOpResult::Ok));
    push(p1, t2, TOpDesc::TryCommit, None);
    push(p1, t2, TOpDesc::TryCommit, Some(TOpResult::Committed));
    // T1 then reads Y: 0 serializes T1 before T2; 5 is the leak — T1
    // observes both X-before-T2 and Y-after-T2, so no order exists.
    push(p0, t1, TOpDesc::Read(y), None);
    push(
        p0,
        t1,
        TOpDesc::Read(y),
        Some(TOpResult::Value(if honest { 0 } else { 5 })),
    );
    push(p0, t1, TOpDesc::TryCommit, None);
    push(p0, t1, TOpDesc::TryCommit, Some(TOpResult::Committed));
    log
}

#[test]
fn read_lock_leak_history_is_rejected_by_the_checker() {
    // Sanity first: the honest variant (read lock respected, T1
    // serializes before T2) is a perfectly fine history — so the
    // rejection below is about the leak, not the shape.
    let honest = history_of(&tlrw_leak_history(true));
    assert!(is_opaque(&honest), "pre-commit snapshot must be opaque");
    assert!(is_strictly_serializable(&honest));

    // The leak: same shape, but T1's second read sees T2's write. The
    // history still parses (it is well-formed), yet admits no
    // serialization — T1 reads X from before T2 and Y from after it.
    let leaked = history_of(&tlrw_leak_history(false));
    assert!(
        !is_opaque(&leaked),
        "a leaked read lock's inconsistent snapshot must not be opaque"
    );
    assert!(
        !is_strictly_serializable(&leaked),
        "the committed reader must not serialize"
    );
}

/// The deterministic two-counter stream the durable crosscheck uses:
/// op `i` adds `i` to counter `i % 2`. Returns the state after `k` ops.
fn durable_model_state(k: u64) -> [u64; 2] {
    let mut v = [0u64; 2];
    for i in 1..=k {
        v[(i % 2) as usize] += i;
    }
    v
}

/// Runs `ops` recorded, WAL-logged increments; only the first
/// `sync_up_to` are acknowledged (fsynced). Returns the recorded
/// pre-crash history and the bytes a crash right after op `ops` would
/// preserve — whole records for ops `1..=sync_up_to`, nothing after.
fn durable_recorded_run(algo: Algorithm, ops: u64, sync_up_to: u64) -> (Vec<LogEntry>, Vec<u8>) {
    let rec = HistoryRecorder::new();
    let sink = MemSink::new();
    let wal = Arc::new(Wal::with_sink(Box::new(sink.clone())));
    let stm = Stm::builder(algo)
        .record_history(rec.clone())
        .durability_hook(wal.clone())
        .build();
    let vars = [TVar::new(0u64), TVar::new(0u64)];
    for i in 1..=ops {
        let ticket = DurableTicket::new();
        let var = &vars[(i % 2) as usize];
        stm.atomically(|tx| {
            let x = tx.read(var)?;
            tx.write(var, x + i)?;
            let mut payload = Vec::new();
            (i % 2).encode_wal(&mut payload);
            (x + i).encode_wal(&mut payload);
            tx.stage_durable(Arc::from(&payload[..]), &ticket);
            Ok(())
        });
        if i == sync_up_to {
            // The last acknowledged operation: everything logged so far
            // becomes durable; later appends sit in volatile buffers
            // the "crash" discards.
            wal.wait_durable(ticket.lsn().expect("committed")).unwrap();
        }
    }
    assert_eq!(
        [vars[0].load(), vars[1].load()],
        durable_model_state(ops),
        "{algo:?}: pre-crash state"
    );
    (rec.drain(), sink.durable_bytes())
}

/// Replays a crashed log's clean prefix into a fresh recorded instance
/// (TVars created in the same touch order, so t-object ids line up with
/// the pre-crash history), finishing with a recorded read of both
/// counters. Returns the recovery history and the number of records
/// applied.
fn replay_recorded(algo: Algorithm, durable: &[u8]) -> (Vec<LogEntry>, u64) {
    let decoded = codec::decode_stream(durable);
    let rec = HistoryRecorder::new();
    let stm = Stm::builder(algo).record_history(rec.clone()).build();
    let vars = [TVar::new(0u64), TVar::new(0u64)];
    for r in &decoded.records {
        let mut cur = &r.payload[..];
        let idx = u64::decode_wal(&mut cur).expect("logged var index");
        let value = u64::decode_wal(&mut cur).expect("logged value");
        stm.atomically(|tx| tx.write(&vars[idx as usize], value));
    }
    let applied = decoded.records.len() as u64;
    let state = stm.atomically(|tx| Ok([tx.read(&vars[0])?, tx.read(&vars[1])?]));
    // Recovery must land on a state the pre-crash run actually passed
    // through: the one after exactly `applied` operations.
    assert_eq!(state, durable_model_state(applied), "{algo:?}: recovery");
    (rec.drain(), applied)
}

/// Renumbers a recovery log so it concatenates after a pre-crash log:
/// sequence numbers continue and transaction ids shift past the first
/// run's (t-object ids intentionally stay — they name the same logical
/// counters).
fn renumber(log: Vec<LogEntry>, seq_base: usize, tx_base: u64) -> Vec<LogEntry> {
    log.into_iter()
        .map(|mut e| {
            e.seq += seq_base;
            if let LogPayload::Marker(Marker::TxInvoke { tx, .. } | Marker::TxResponse { tx, .. }) =
                &mut e.payload
            {
                *tx = TxId::new(tx.raw() + tx_base);
            }
            e
        })
        .collect()
}

fn max_tx(log: &[LogEntry]) -> u64 {
    log.iter()
        .filter_map(LogEntry::marker)
        .filter_map(|m| match m {
            Marker::TxInvoke { tx, .. } | Marker::TxResponse { tx, .. } => Some(tx.raw()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// The durability crosscheck: record a WAL-logged run, crash it with
/// unacknowledged operations in flight, replay the surviving log into a
/// fresh recorded instance, and require the **concatenation** of the
/// two histories to be opaque — recovery's writes must be explainable
/// as a prefix of the very history the first instance recorded.
#[test]
fn recovered_history_concatenates_opaquely_all_algorithms() {
    for algo in Algorithm::ALL {
        let (ops, acked) = (12u64, 7u64);
        let (log_a, durable) = durable_recorded_run(algo, ops, acked);
        assert!(is_opaque(&history_of(&log_a)), "{algo:?}: pre-crash log");
        let (log_b, applied) = replay_recorded(algo, &durable);
        // The crash cost exactly the unacknowledged suffix.
        assert_eq!(applied, acked, "{algo:?}: durable prefix length");
        let mut combined = log_a.clone();
        combined.extend(renumber(log_b, log_a.len(), max_tx(&log_a)));
        let h = history_of(&combined);
        assert!(h.is_complete(), "{algo:?}: combined history is complete");
        assert_eq!(
            h.committed().len() as u64,
            ops + applied + 1, // pre-crash txs + replay txs + the final read
            "{algo:?}: committed count"
        );
        assert_checker_accepts(&h, &format!("{algo:?}/recovery"));
    }
}

/// A hand-corrupted log must not smuggle values into the recovered
/// history: the flipped record and everything after it are rejected by
/// the checksum, replay applies only the surviving prefix, and the
/// concatenated history is still opaque (shorter, never wrong).
#[test]
fn corrupted_wal_record_is_rejected_and_recovery_stays_a_prefix() {
    let algo = Algorithm::Tl2;
    let (ops, acked) = (10u64, 8u64);
    let (log_a, durable) = durable_recorded_run(algo, ops, acked);
    // Flip one payload byte mid-log: the CRC must catch it.
    let mut corrupt = durable.clone();
    let target = 3 * codec::framed_len(16) + codec::HEADER_LEN + 2;
    assert!(target < corrupt.len(), "flip lands inside record 3");
    corrupt[target] ^= 0x10;
    let decoded = codec::decode_stream(&corrupt);
    assert_eq!(decoded.records.len(), 3, "records before the flip survive");
    assert!(
        matches!(
            decoded.corruption,
            Some(codec::Corruption::BadChecksum { .. })
        ),
        "the flip is detected, not absorbed: {:?}",
        decoded.corruption
    );
    let (log_b, applied) = replay_recorded(algo, &corrupt);
    assert_eq!(applied, 3, "only the clean prefix is applied");
    let mut combined = log_a.clone();
    combined.extend(renumber(log_b, log_a.len(), max_tx(&log_a)));
    assert_checker_accepts(&history_of(&combined), "tl2/corrupt-recovery");
}

#[test]
fn corrupted_response_marker_is_rejected_by_the_parser() {
    let (mut log, _) = record_counter_run(Algorithm::Tl2, 2, 2);
    // Point a response at the wrong operation: the well-formedness pass
    // itself must refuse the log.
    let target = log
        .iter_mut()
        .find_map(|e| match &mut e.payload {
            LogPayload::Marker(Marker::TxResponse {
                op: op @ TOpDesc::Read(_),
                ..
            }) => Some(op),
            _ => None,
        })
        .expect("read responses exist");
    *target = TOpDesc::TryCommit;
    assert!(
        History::from_log(&log).is_err(),
        "mismatched response must fail to parse"
    );
}
