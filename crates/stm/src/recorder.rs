//! Opt-in history recording: the bridge from the native engine to the
//! paper's formal model.
//!
//! The `ptm-model` checkers (opacity, strict serializability,
//! progressiveness) consume *histories* — streams of t-operation
//! invocation/response markers ([`ptm_sim::LogEntry`]). The simulator
//! produces those natively; this module lets the **real-threads** engine
//! produce them too, so every concurrent workload becomes a correctness
//! experiment: run it, [`HistoryRecorder::drain`] the log, and feed it to
//! `ptm_model::History::from_log` + `is_opaque`.
//!
//! ## How events are captured
//!
//! Each OS thread appends to its **own** buffer (no cross-thread queue;
//! the only shared write per event is one `fetch_add` on the global
//! sequence counter, which totally orders events consistently with real
//! time). Buffers are drained and merged by sequence number once the
//! workload threads have joined. Invocation markers are stamped *before*
//! the operation executes and response markers *after*, so every
//! operation's linearization point falls inside its recorded interval —
//! exactly what interval-based real-time order needs to be sound.
//!
//! ## Values
//!
//! The model's t-objects hold [`Word`]s (`u64`). Recorded reads and
//! writes project the stored value through `word_of`: primitive integer
//! and `bool` values map faithfully (so read legality is checked for
//! real), any other type maps to `0` (structure-typed values degrade the
//! value check to a tautology while real-time order, commit/abort
//! structure, and well-formedness are still fully checked).
//!
//! ## Initial values
//!
//! The model assumes every t-object starts at `INITIAL_VALUE = 0`. A
//! `TVar` may start elsewhere, so the recorder captures each variable's
//! value when it is first touched by a recorded transaction — provably
//! before any recorded commit can have published to it — and
//! [`HistoryRecorder::drain`] prepends a synthetic *initializing
//! transaction* that writes every non-zero initial word and commits
//! before all real events.
//!
//! Use one recorder per recorded run and drain it after the workload
//! threads have joined; transactions still in flight at drain time would
//! appear truncated (the checker's completion machinery handles them, but
//! the run is no longer a faithful experiment).

use crate::tvar::{TVar, TxValue};
use ptm_sim::{LogEntry, LogPayload, Marker, ProcessId, TObjId, TOpDesc, TOpResult, TxId, Word};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Projects a stored value to a model-level [`Word`].
///
/// `u8`–`u64`, `usize`, `i8`–`i64`, `isize`, and `bool` map faithfully
/// (signed values by two's-complement reinterpretation), so the
/// checker's read-legality constraint is verified for real. Every other
/// type — including 128-bit integers — maps to `0`, which makes the
/// value check a tautology for that object (but never a false
/// rejection); real-time order and commit/abort structure are still
/// fully checked.
pub(crate) fn word_of<T: TxValue>(v: &T) -> Word {
    let any: &dyn Any = v;
    if let Some(x) = any.downcast_ref::<u64>() {
        *x
    } else if let Some(x) = any.downcast_ref::<u32>() {
        u64::from(*x)
    } else if let Some(x) = any.downcast_ref::<u16>() {
        u64::from(*x)
    } else if let Some(x) = any.downcast_ref::<u8>() {
        u64::from(*x)
    } else if let Some(x) = any.downcast_ref::<usize>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<i64>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<i32>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<i16>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<i8>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<isize>() {
        *x as u64
    } else if let Some(x) = any.downcast_ref::<bool>() {
        u64::from(*x)
    } else {
        0
    }
}

/// One recorded marker with its global sequence stamp.
struct RecEvent {
    seq: u64,
    marker: Marker,
}

/// One thread's append-only event buffer. The mutexes are uncontended in
/// steady state (only the owning thread touches them until drain).
struct ThreadLog {
    pid: ProcessId,
    events: Mutex<Vec<RecEvent>>,
    /// Thread-local cache of the object registry, so the hot path avoids
    /// the shared `objects` lock after an object's first appearance.
    obj_cache: Mutex<HashMap<usize, TObjId>>,
}

/// Registry entry for one `TVar`.
struct ObjInfo {
    obj: TObjId,
    /// The variable's word at registration time — before any recorded
    /// commit could have published to it.
    initial: Word,
    /// Whether a drain already emitted this object's initializing write
    /// (each initial is installed exactly once across incremental
    /// drains).
    emitted: bool,
}

/// Consumer-side cursor shared by every [`HistoryRecorder::drain`]
/// call; its mutex is what makes concurrent
/// drains safe (they serialize, each taking a disjoint batch).
#[derive(Default)]
struct DrainState {
    /// Output positions handed out so far — entry `seq` numbering
    /// continues across drains, so concatenated batches form one
    /// well-numbered log.
    out_seq: usize,
    /// The process id reserved for the synthetic initializing
    /// transactions: a real registered thread slot (with an unused
    /// buffer), so no later-registering real thread can collide with it.
    preamble_pid: Option<ProcessId>,
}

struct RecorderShared {
    /// Distinguishes recorders in the per-thread handle cache.
    id: u64,
    /// Global event sequence: one `fetch_add` per marker totally orders
    /// events consistently with real time.
    seq: AtomicU64,
    /// Transaction-id allocator (every attempt is its own transaction).
    next_tx: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadLog>>>,
    objects: Mutex<HashMap<usize, ObjInfo>>,
    drain: Mutex<DrainState>,
}

static RECORDER_IDS: AtomicU64 = AtomicU64::new(0);

/// One thread's cached handle into a recorder: the weak recorder handle
/// lets registration evict entries whose recorder is gone, so a
/// long-lived thread that serves many recorded runs does not accumulate
/// dead buffers.
type CachedThreadLog = (Weak<RecorderShared>, Arc<ThreadLog>);

thread_local! {
    /// This thread's buffer handle per recorder id.
    static THREAD_LOGS: RefCell<HashMap<u64, CachedThreadLog>> = RefCell::new(HashMap::new());
}

impl RecorderShared {
    fn register_thread(&self) -> Arc<ThreadLog> {
        let mut threads = self.threads.lock().expect("recorder thread registry");
        let log = Arc::new(ThreadLog {
            pid: ProcessId::new(threads.len()),
            events: Mutex::new(Vec::new()),
            obj_cache: Mutex::new(HashMap::new()),
        });
        threads.push(Arc::clone(&log));
        log
    }

    /// Dense object id for a variable, registering it (and capturing its
    /// current word as the initial value) on first appearance.
    fn object_for(&self, var_id: usize, initial: impl FnOnce() -> Word) -> TObjId {
        let mut map = self.objects.lock().expect("recorder object registry");
        if let Some(info) = map.get(&var_id) {
            return info.obj;
        }
        let obj = TObjId::new(map.len());
        let initial = initial();
        map.insert(
            var_id,
            ObjInfo {
                obj,
                initial,
                emitted: false,
            },
        );
        obj
    }
}

/// Records t-operation histories from a native [`Stm`](crate::Stm).
///
/// Create one, hand a clone to
/// [`StmBuilder::record_history`](crate::StmBuilder::record_history),
/// run a concurrent workload, then
/// [`drain`](HistoryRecorder::drain) the marker log and feed it to the
/// `ptm-model` checkers. Cloning is cheap and clones share the log.
///
/// # Examples
///
/// ```
/// use ptm_stm::{Algorithm, HistoryRecorder, Stm, TVar};
///
/// let rec = HistoryRecorder::new();
/// let stm = Stm::builder(Algorithm::Tl2)
///     .record_history(rec.clone())
///     .build();
/// let v = TVar::new(0u64);
/// stm.atomically(|tx| tx.modify(&v, |x| x + 1));
/// let log = rec.drain();
/// // 2 ops (read, write) + tryCommit, one invoke + one response each.
/// assert_eq!(log.len(), 6);
/// ```
#[derive(Clone)]
pub struct HistoryRecorder {
    shared: Arc<RecorderShared>,
}

impl Default for HistoryRecorder {
    fn default() -> Self {
        HistoryRecorder::new()
    }
}

impl fmt::Debug for HistoryRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistoryRecorder")
            .field("events", &self.events_recorded())
            .field(
                "threads",
                &self.shared.threads.lock().map(|t| t.len()).unwrap_or(0),
            )
            .field(
                "objects",
                &self.shared.objects.lock().map(|o| o.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl HistoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        HistoryRecorder {
            shared: Arc::new(RecorderShared {
                id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
                seq: AtomicU64::new(0),
                next_tx: AtomicU64::new(1),
                threads: Mutex::new(Vec::new()),
                objects: Mutex::new(HashMap::new()),
                drain: Mutex::new(DrainState::default()),
            }),
        }
    }

    /// Events recorded so far (also surfaced per-instance in
    /// [`StmStats`](crate::StmStats) as `recorded_events`).
    pub fn events_recorded(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }

    /// This thread's buffer, registering the thread on first use (and
    /// dropping cached handles of recorders that no longer exist).
    fn thread_log(&self) -> Arc<ThreadLog> {
        THREAD_LOGS.with(|m| {
            let mut m = m.borrow_mut();
            if let Some((_, log)) = m.get(&self.shared.id) {
                return Arc::clone(log);
            }
            m.retain(|_, (rec, _)| rec.strong_count() > 0);
            let log = self.shared.register_thread();
            m.insert(
                self.shared.id,
                (Arc::downgrade(&self.shared), Arc::clone(&log)),
            );
            log
        })
    }

    /// Starts recording one transaction attempt (engine-internal).
    pub(crate) fn begin_tx(&self) -> RecTx {
        RecTx {
            shared: Arc::clone(&self.shared),
            thread: self.thread_log(),
            tx: TxId::new(self.shared.next_tx.fetch_add(1, Ordering::Relaxed)),
            touched: false,
            closed: false,
        }
    }

    /// Streaming drain: removes and returns every marker recorded since
    /// the previous call, as a well-formed [`LogEntry`] batch merged
    /// across threads in real-time order. Each batch is
    /// prefixed (when needed) by a synthetic committed transaction that
    /// installs the non-zero initial word of every variable that first
    /// appeared since the last call (the model starts every t-object at
    /// `0`); an initial is emitted exactly once across all batches.
    ///
    /// Entry `seq` numbering continues across calls, so concatenating
    /// the batches in call order yields one well-numbered log — this is
    /// what lets a durability layer tail the recorder incrementally
    /// while the run continues. Concurrent calls serialize and take
    /// disjoint batches.
    ///
    /// **Caveat:** a call that overlaps live transactions may split an
    /// attempt's markers across two batches, and can order two
    /// *concurrent* cross-thread events by batch rather than by their
    /// true interleaving. Both effects only ever *tighten* the real-time
    /// order the checkers see, so acceptance remains sound (no false
    /// accepts); for byte-faithful single-batch logs, call at a
    /// quiescent point (workload threads joined or parked).
    pub fn drain(&self) -> Vec<LogEntry> {
        // One consumer at a time: serializes concurrent drains and owns
        // the output cursor for the whole batch build.
        let mut st = self.shared.drain.lock().expect("recorder drain state");

        let mut events: Vec<(ProcessId, RecEvent)> = Vec::new();
        {
            let threads = self
                .shared
                .threads
                .lock()
                .expect("recorder thread registry");
            for t in threads.iter() {
                let mut buf = t.events.lock().expect("recorder thread buffer");
                events.extend(buf.drain(..).map(|e| (t.pid, e)));
            }
        }
        events.sort_by_key(|(_, e)| e.seq);

        let mut initials: Vec<(TObjId, Word)> = self
            .shared
            .objects
            .lock()
            .expect("recorder object registry")
            .values_mut()
            .filter(|info| !info.emitted && info.initial != 0)
            .map(|info| {
                info.emitted = true;
                (info.obj, info.initial)
            })
            .collect();
        initials.sort_by_key(|&(obj, _)| obj);

        // The synthetic initializing transaction runs on a dedicated
        // process id, reserved by registering a real (never-written)
        // thread slot — so no later-registering workload thread can ever
        // collide with it across batches.
        let preamble_pid = if initials.is_empty() {
            None
        } else if let Some(pid) = st.preamble_pid {
            Some(pid)
        } else {
            let pid = self.shared.register_thread().pid;
            st.preamble_pid = Some(pid);
            Some(pid)
        };

        let mut log: Vec<LogEntry> = Vec::with_capacity(events.len() + 2 * initials.len() + 2);
        let mut out_seq = st.out_seq;
        let mut push = |pid: ProcessId, marker: Marker| {
            log.push(LogEntry {
                seq: out_seq,
                pid,
                payload: LogPayload::Marker(marker),
            });
            out_seq += 1;
        };
        if let Some(preamble_pid) = preamble_pid {
            let tx = TxId::new(self.shared.next_tx.fetch_add(1, Ordering::Relaxed));
            for &(x, w) in &initials {
                let op = TOpDesc::Write(x, w);
                push(preamble_pid, Marker::TxInvoke { tx, op });
                push(
                    preamble_pid,
                    Marker::TxResponse {
                        tx,
                        op,
                        res: TOpResult::Ok,
                    },
                );
            }
            let op = TOpDesc::TryCommit;
            push(preamble_pid, Marker::TxInvoke { tx, op });
            push(
                preamble_pid,
                Marker::TxResponse {
                    tx,
                    op,
                    res: TOpResult::Committed,
                },
            );
        }
        for (pid, e) in events {
            push(pid, e.marker);
        }
        st.out_seq = out_seq;
        log
    }
}

/// Per-attempt recording state held by a live `Transaction`.
pub(crate) struct RecTx {
    shared: Arc<RecorderShared>,
    thread: Arc<ThreadLog>,
    tx: TxId,
    /// Whether any marker was recorded (empty attempts leave no trace).
    touched: bool,
    /// Whether the attempt already ended with `A_k`/`C_k` in the log.
    closed: bool,
}

impl fmt::Debug for RecTx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecTx")
            .field("tx", &self.tx)
            .field("closed", &self.closed)
            .finish()
    }
}

impl RecTx {
    /// The model-level object id of `var`, registering it on first use.
    pub(crate) fn object_of<T: TxValue>(&self, var: &TVar<T>) -> TObjId {
        let var_id = var.id();
        let mut cache = self.thread.obj_cache.lock().expect("recorder obj cache");
        if let Some(&obj) = cache.get(&var_id) {
            return obj;
        }
        let obj = self.shared.object_for(var_id, || word_of(&var.load()));
        cache.insert(var_id, obj);
        obj
    }

    fn push(&mut self, marker: Marker) {
        self.touched = true;
        let mut buf = self.thread.events.lock().expect("recorder thread buffer");
        // Draw the global sequence number *inside* the buffer lock: a
        // concurrent `drain` locking this buffer then sees either both
        // the ticket and the event or neither, so a drawn sequence
        // number can never go missing from the drained order.
        let seq = self.shared.seq.fetch_add(1, Ordering::SeqCst);
        buf.push(RecEvent { seq, marker });
    }

    /// Records an invocation marker.
    pub(crate) fn invoke(&mut self, op: TOpDesc) {
        let tx = self.tx;
        self.push(Marker::TxInvoke { tx, op });
    }

    /// Records a response marker; `A_k` and `tryC` responses t-complete
    /// the transaction.
    pub(crate) fn respond(&mut self, op: TOpDesc, res: TOpResult) {
        let tx = self.tx;
        self.push(Marker::TxResponse { tx, op, res });
        if res == TOpResult::Aborted || op == TOpDesc::TryCommit {
            self.closed = true;
        }
    }

    /// Whether the attempt recorded operations but no terminal `A`/`C`
    /// yet (a user-initiated retry) and needs a closing `tryC -> A`.
    pub(crate) fn needs_close(&self) -> bool {
        self.touched && !self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_of_projects_integers_and_defaults_to_zero() {
        assert_eq!(word_of(&7u64), 7);
        assert_eq!(word_of(&7u32), 7);
        assert_eq!(word_of(&7u16), 7);
        assert_eq!(word_of(&7u8), 7);
        assert_eq!(word_of(&7usize), 7);
        assert_eq!(word_of(&-1i64), u64::MAX);
        assert_eq!(word_of(&-1i32), u64::MAX);
        assert_eq!(word_of(&-1i16), u64::MAX);
        assert_eq!(word_of(&-1i8), u64::MAX);
        assert_eq!(word_of(&-1isize), u64::MAX);
        assert_eq!(word_of(&true), 1);
        assert_eq!(word_of(&String::from("x")), 0);
        assert_eq!(word_of(&vec![1u64, 2]), 0);
        assert_eq!(word_of(&7u128), 0); // 128-bit cannot map faithfully
    }

    #[test]
    fn drain_on_fresh_recorder_is_empty() {
        let rec = HistoryRecorder::new();
        assert!(rec.drain().is_empty());
        assert_eq!(rec.events_recorded(), 0);
    }

    #[test]
    fn manual_events_merge_in_seq_order() {
        let rec = HistoryRecorder::new();
        let mut tx = rec.begin_tx();
        let op = TOpDesc::Read(TObjId::new(0));
        tx.invoke(op);
        tx.respond(op, TOpResult::Value(3));
        assert!(tx.needs_close());
        tx.invoke(TOpDesc::TryCommit);
        tx.respond(TOpDesc::TryCommit, TOpResult::Committed);
        assert!(!tx.needs_close());
        let log = rec.drain();
        assert_eq!(log.len(), 4);
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn drain_streams_disjoint_batches_with_continuous_seq() {
        let rec = HistoryRecorder::new();
        let mut tx = rec.begin_tx();
        let op = TOpDesc::Read(TObjId::new(0));
        tx.invoke(op);
        tx.respond(op, TOpResult::Value(3));

        let first = rec.drain();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].seq, 0);
        assert_eq!(first[1].seq, 1);

        tx.invoke(TOpDesc::TryCommit);
        tx.respond(TOpDesc::TryCommit, TOpResult::Committed);

        let second = rec.drain();
        assert_eq!(second.len(), 2);
        // Numbering continues where the first batch stopped, so the
        // concatenation is one well-numbered log.
        assert_eq!(second[0].seq, 2);
        assert_eq!(second[1].seq, 3);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn drain_emits_each_initial_exactly_once() {
        let rec = HistoryRecorder::new();
        let v = TVar::new(41u64);
        let mut tx = rec.begin_tx();
        let obj = tx.object_of(&v);
        tx.invoke(TOpDesc::Read(obj));
        tx.respond(TOpDesc::Read(obj), TOpResult::Value(41));

        let first = rec.drain();
        // Synthetic initializing txn (write + tryC, invoke/response each)
        // precedes the two recorded markers.
        assert_eq!(first.len(), 6);
        let preamble_pid = first[0].pid;

        // Second batch: same object again — no second preamble.
        let mut tx2 = rec.begin_tx();
        let obj2 = tx2.object_of(&v);
        assert_eq!(obj2, obj);
        tx2.invoke(TOpDesc::Read(obj2));
        tx2.respond(TOpDesc::Read(obj2), TOpResult::Value(41));
        let second = rec.drain();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|e| e.pid != preamble_pid));
        assert_eq!(second[0].seq, 6);

        // A variable first touched after the first drain gets its
        // initial installed in the batch where it first appears, still
        // on the reserved preamble pid.
        let w = TVar::new(9u64);
        let mut tx3 = rec.begin_tx();
        let wobj = tx3.object_of(&w);
        tx3.invoke(TOpDesc::Read(wobj));
        tx3.respond(TOpDesc::Read(wobj), TOpResult::Value(9));
        let third = rec.drain();
        assert_eq!(third.len(), 6);
        assert_eq!(third[0].pid, preamble_pid);
        // Workload threads registered later never collide with the
        // reserved preamble pid.
        assert!(third[4..].iter().all(|e| e.pid != preamble_pid));
    }

    #[test]
    fn debug_shows_counts() {
        let rec = HistoryRecorder::new();
        let mut tx = rec.begin_tx();
        tx.invoke(TOpDesc::TryCommit);
        let s = format!("{rec:?}");
        assert!(s.contains("events: 1"), "{s}");
    }
}
