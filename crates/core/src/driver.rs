//! Driving transactions through the simulator.
//!
//! Two modes, both built on command-loop processes:
//!
//! * **Synchronous** ([`TmHarness::begin`]/[`read`](TmHarness::read)/…):
//!   the driver issues one t-operation, runs its process until the
//!   response marker appears, and gets back the result *plus the exact
//!   cost of the operation* (steps, distinct base objects, RMRs). Each
//!   operation runs step-contention-free — precisely the fragments
//!   measured in Theorems 3(1) and 3(2) — while the driver remains free to
//!   interleave operations of different processes, as the proofs'
//!   `π·β·ρ·α` executions require.
//! * **Scripted** ([`TmHarness::run_script`] + [`TmHarness::run_all`]):
//!   whole transactions execute autonomously under a schedule policy,
//!   producing the randomized concurrent executions the correctness
//!   property tests feed to the `ptm-model` checkers.

use crate::api::{SimTm, SimTxn};
use ptm_sim::{
    Ctx, LogEntry, Marker, Metrics, ProcessId, SchedulePolicy, Sim, SimBuilder, StepEvent, TObjId,
    TOpDesc, TOpResult, TxId, Word,
};
use std::sync::Arc;

/// One operation of a transaction script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Read a t-object.
    Read(TObjId),
    /// Write a value to a t-object.
    Write(TObjId, Word),
}

/// A whole transaction to run autonomously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxScript {
    /// Operations in issue order (a `tryC` is appended automatically).
    pub ops: Vec<ScriptOp>,
    /// Retry (as a fresh transaction) until the transaction commits.
    pub retry_until_commit: bool,
}

/// Commands understood by [`tm_process_body`].
#[derive(Debug, Clone)]
pub(crate) enum TxCommand {
    /// Start a transaction with the given id.
    Begin(TxId),
    /// Issue `read_k(X)`.
    Read(TObjId),
    /// Issue `write_k(X, v)`.
    Write(TObjId, Word),
    /// Issue `tryC_k()`.
    TryCommit,
    /// Run a whole script autonomously (ids derived from the process id).
    RunScript(TxScript),
    /// Terminate the process.
    Stop,
}

pub(crate) fn logged_read(
    txn: &mut dyn SimTxn,
    ctx: &Ctx,
    tx: TxId,
    x: TObjId,
) -> Result<Word, ()> {
    let op = TOpDesc::Read(x);
    ctx.marker(Marker::TxInvoke { tx, op });
    match txn.read(ctx, x) {
        Ok(v) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Value(v),
            });
            Ok(v)
        }
        Err(_) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Aborted,
            });
            Err(())
        }
    }
}

pub(crate) fn logged_write(
    txn: &mut dyn SimTxn,
    ctx: &Ctx,
    tx: TxId,
    x: TObjId,
    v: Word,
) -> Result<(), ()> {
    let op = TOpDesc::Write(x, v);
    ctx.marker(Marker::TxInvoke { tx, op });
    match txn.write(ctx, x, v) {
        Ok(()) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Ok,
            });
            Ok(())
        }
        Err(_) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Aborted,
            });
            Err(())
        }
    }
}

pub(crate) fn logged_commit(txn: &mut dyn SimTxn, ctx: &Ctx, tx: TxId) -> Result<(), ()> {
    let op = TOpDesc::TryCommit;
    ctx.marker(Marker::TxInvoke { tx, op });
    match txn.try_commit(ctx) {
        Ok(()) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Committed,
            });
            Ok(())
        }
        Err(_) => {
            ctx.marker(Marker::TxResponse {
                tx,
                op,
                res: TOpResult::Aborted,
            });
            Err(())
        }
    }
}

fn run_script(tm: &dyn SimTm, ctx: &Ctx, script: &TxScript, attempt_base: &mut u64) {
    loop {
        let tx = TxId::new((ctx.pid().index() as u64 + 1) * 1_000_000 + *attempt_base);
        *attempt_base += 1;
        let mut txn = tm.begin(tx);
        let mut aborted = false;
        for op in &script.ops {
            let r = match *op {
                ScriptOp::Read(x) => logged_read(txn.as_mut(), ctx, tx, x).map(|_| ()),
                ScriptOp::Write(x, v) => logged_write(txn.as_mut(), ctx, tx, x, v),
            };
            if r.is_err() {
                aborted = true;
                break;
            }
        }
        if !aborted && logged_commit(txn.as_mut(), ctx, tx).is_ok() {
            return;
        }
        if !script.retry_until_commit {
            return;
        }
    }
}

/// The command-loop body run by every harness process.
pub(crate) fn tm_process_body(tm: Arc<dyn SimTm>, ctx: &Ctx) {
    let mut current: Option<(TxId, Box<dyn SimTxn>)> = None;
    let mut script_counter = 0u64;
    loop {
        match ctx.recv::<TxCommand>() {
            TxCommand::Begin(id) => {
                current = Some((id, tm.begin(id)));
            }
            TxCommand::Read(x) => {
                let (tx, txn) = current.as_mut().expect("Read outside a transaction");
                if logged_read(txn.as_mut(), ctx, *tx, x).is_err() {
                    current = None;
                }
            }
            TxCommand::Write(x, v) => {
                let (tx, txn) = current.as_mut().expect("Write outside a transaction");
                if logged_write(txn.as_mut(), ctx, *tx, x, v).is_err() {
                    current = None;
                }
            }
            TxCommand::TryCommit => {
                let (tx, txn) = current.as_mut().expect("TryCommit outside a transaction");
                let _ = logged_commit(txn.as_mut(), ctx, *tx);
                current = None;
            }
            TxCommand::RunScript(script) => {
                run_script(tm.as_ref(), ctx, &script, &mut script_counter);
            }
            TxCommand::Stop => return,
        }
    }
}

/// Exact cost of one t-operation execution, from log/metric deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Primitive applications during the operation.
    pub steps: usize,
    /// Distinct base objects accessed.
    pub distinct_objects: usize,
    /// Nontrivial primitive applications.
    pub nontrivial_steps: usize,
    /// Write-through CC RMRs charged.
    pub rmr_write_through: u64,
    /// Write-back CC RMRs charged.
    pub rmr_write_back: u64,
    /// DSM RMRs charged.
    pub rmr_dsm: u64,
}

/// Harness owning a simulation whose processes all run one command loop
/// over a shared TM.
#[derive(Debug)]
pub struct TmHarness {
    sim: Sim,
    tm_name: &'static str,
    next_tx: u64,
}

impl TmHarness {
    /// Builds a harness: installs the TM via `install`, spawns
    /// `n_processes` command-loop processes.
    pub fn new(
        n_processes: usize,
        install: impl FnOnce(&mut SimBuilder) -> Arc<dyn SimTm>,
    ) -> Self {
        let mut builder = SimBuilder::new(n_processes);
        let tm = install(&mut builder);
        let tm_name = tm.name();
        for _ in 0..n_processes {
            let tm = Arc::clone(&tm);
            builder.add_process(move |ctx| tm_process_body(tm, ctx));
        }
        TmHarness {
            sim: builder.start(),
            tm_name,
            next_tx: 0,
        }
    }

    /// The underlying simulation, for fine-grained stepping.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Name of the TM under test.
    pub fn tm_name(&self) -> &'static str {
        self.tm_name
    }

    /// Starts a transaction on `pid` and returns its id. The `Begin`
    /// command is consumed immediately (no TM steps are taken).
    pub fn begin(&mut self, pid: ProcessId) -> TxId {
        self.next_tx += 1;
        let id = TxId::new(self.next_tx);
        self.sim.send(pid, TxCommand::Begin(id));
        self.sim.step(pid).expect("consume Begin");
        id
    }

    /// Issues one operation on `pid` and runs it to its response,
    /// step-contention-free. Returns the response and its exact cost.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not respond within a large step
    /// budget — which happens when a *blocking* TM operation (e.g. a
    /// global-lock acquisition) waits on a lock held by another process
    /// that this synchronous driver is not stepping. Use scripted mode
    /// with a whole-system scheduler for such interleavings.
    fn run_op(&mut self, pid: ProcessId, cmd: TxCommand) -> (TOpResult, OpCost) {
        const OP_BUDGET: usize = 100_000;
        let log_from = self.sim.log_len();
        let before = self.sim.metrics();
        self.sim.send(pid, cmd);
        self.sim.step(pid).expect("consume command");
        let mut result = None;
        let mut taken = 0;
        while result.is_none() {
            taken += 1;
            assert!(
                taken <= OP_BUDGET,
                "operation on {pid} took more than {OP_BUDGET} steps: the TM \
                 is blocked on another process (drive it with a scheduler instead)"
            );
            match self.sim.step(pid).expect("operation step") {
                StepEvent::Marker(Marker::TxResponse { res, .. }) => result = Some(res),
                _ => continue,
            }
        }
        let after = self.sim.metrics();
        let frag = self.sim.log_from(log_from);
        (
            result.expect("loop sets result"),
            op_cost(&frag, pid, &before, &after),
        )
    }

    /// `read_k(X)` on `pid`, run to completion.
    pub fn read(&mut self, pid: ProcessId, x: TObjId) -> (TOpResult, OpCost) {
        self.run_op(pid, TxCommand::Read(x))
    }

    /// `write_k(X, v)` on `pid`, run to completion.
    pub fn write(&mut self, pid: ProcessId, x: TObjId, v: Word) -> (TOpResult, OpCost) {
        self.run_op(pid, TxCommand::Write(x, v))
    }

    /// `tryC_k()` on `pid`, run to completion.
    pub fn try_commit(&mut self, pid: ProcessId) -> (TOpResult, OpCost) {
        self.run_op(pid, TxCommand::TryCommit)
    }

    /// Runs a whole committed transaction on `pid`: begin, the given
    /// writes, tryC. Panics if it aborts (use in contention-free setup
    /// phases).
    pub fn run_writer(&mut self, pid: ProcessId, writes: &[(TObjId, Word)]) -> TxId {
        let id = self.begin(pid);
        for &(x, v) in writes {
            let (res, _) = self.write(pid, x, v);
            assert_eq!(res, TOpResult::Ok, "setup write aborted");
        }
        let (res, _) = self.try_commit(pid);
        assert_eq!(res, TOpResult::Committed, "setup commit aborted");
        id
    }

    /// Queues a script on `pid` (runs when scheduled via
    /// [`TmHarness::run_all`]).
    pub fn run_script(&mut self, pid: ProcessId, script: TxScript) {
        self.sim.send(pid, TxCommand::RunScript(script));
    }

    /// Runs all queued scripts under `policy` until quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the budget of `max_steps` is exhausted (livelock).
    pub fn run_all(&mut self, policy: &mut dyn SchedulePolicy, max_steps: usize) -> usize {
        let steps = ptm_sim::run_policy(&self.sim, policy, max_steps);
        assert!(
            steps < max_steps,
            "script execution exceeded {max_steps} steps"
        );
        steps
    }

    /// Stops all processes cleanly.
    pub fn stop_all(&mut self) {
        for p in 0..self.sim.n_processes() {
            let pid = ProcessId::new(p);
            if self.sim.status(pid) != ptm_sim::ProcStatus::Finished {
                self.sim.send(pid, TxCommand::Stop);
                let _ = self.sim.step(pid);
            }
        }
    }

    /// The execution log so far.
    pub fn log(&self) -> Vec<LogEntry> {
        self.sim.log()
    }

    /// Parses the history out of the log.
    ///
    /// # Panics
    ///
    /// Panics if the log is not a well-formed history (harness bug).
    pub fn history(&self) -> ptm_model::History {
        ptm_model::History::from_log(&self.log()).expect("harness produces well-formed histories")
    }
}

fn op_cost(frag: &[LogEntry], pid: ProcessId, before: &Metrics, after: &Metrics) -> OpCost {
    let delta = after - before;
    let mems: Vec<_> = frag
        .iter()
        .filter(|e| e.pid == pid)
        .filter_map(LogEntry::mem)
        .collect();
    OpCost {
        steps: mems.len(),
        distinct_objects: mems
            .iter()
            .map(|m| m.obj)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        nontrivial_steps: mems.iter().filter(|m| m.prim.is_nontrivial()).count(),
        rmr_write_through: delta.rmr_write_through(pid),
        rmr_write_back: delta.rmr_write_back(pid),
        rmr_dsm: delta.rmr_dsm(pid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::ProgressiveTm;
    use ptm_model::TxStatus;
    use ptm_sim::RandomPolicy;

    fn harness(n: usize, objects: usize) -> TmHarness {
        TmHarness::new(n, |b| Arc::new(ProgressiveTm::install(b, objects)))
    }

    #[test]
    fn synchronous_transaction_roundtrip() {
        let mut h = harness(2, 2);
        let p0 = ProcessId::new(0);
        h.begin(p0);
        let (res, cost) = h.write(p0, TObjId::new(0), 42);
        assert_eq!(res, TOpResult::Ok);
        assert_eq!(cost.steps, 0); // writes are buffered
        let (res, cost) = h.try_commit(p0);
        assert_eq!(res, TOpResult::Committed);
        assert!(cost.steps > 0);

        h.begin(p0);
        let (res, cost) = h.read(p0, TObjId::new(0));
        assert_eq!(res, TOpResult::Value(42));
        assert_eq!(cost.steps, 3);
        assert_eq!(cost.nontrivial_steps, 0); // invisible reads
        let (res, _) = h.try_commit(p0);
        assert_eq!(res, TOpResult::Committed);

        let hist = h.history();
        assert_eq!(hist.len(), 2);
        assert!(hist.is_complete());
        assert!(ptm_model::is_opaque(&hist));
    }

    #[test]
    fn interleaved_ops_on_two_processes() {
        let mut h = harness(2, 1);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // T1 reads X0; T2 writes X0 and commits; T1's next read aborts.
        h.begin(p0);
        let (r, _) = h.read(p0, TObjId::new(0));
        assert_eq!(r, TOpResult::Value(0));
        h.begin(p1);
        h.write(p1, TObjId::new(0), 5);
        let (c, _) = h.try_commit(p1);
        assert_eq!(c, TOpResult::Committed);
        let (r2, _) = h.read(p0, TObjId::new(0));
        assert_eq!(r2, TOpResult::Aborted);
        let hist = h.history();
        assert_eq!(hist.tx(TxId::new(1)).unwrap().status(), TxStatus::Aborted);
        assert!(ptm_model::is_opaque(&hist));
        assert!(ptm_model::is_progressive(&hist));
    }

    #[test]
    fn scripts_run_under_policy() {
        let mut h = harness(3, 2);
        for p in 0..3 {
            h.run_script(
                ProcessId::new(p),
                TxScript {
                    ops: vec![
                        ScriptOp::Read(TObjId::new(0)),
                        ScriptOp::Write(TObjId::new(1), p as Word),
                    ],
                    retry_until_commit: true,
                },
            );
        }
        h.run_all(&mut RandomPolicy::seeded(3), 100_000);
        let hist = h.history();
        // All three scripts eventually committed.
        let committed = hist.committed().len();
        assert_eq!(committed, 3);
        assert!(ptm_model::is_opaque(&hist));
        h.stop_all();
    }

    #[test]
    fn run_writer_setup_helper() {
        let mut h = harness(1, 3);
        h.run_writer(
            ProcessId::new(0),
            &[(TObjId::new(0), 1), (TObjId::new(2), 9)],
        );
        let hist = h.history();
        assert_eq!(hist.committed().len(), 1);
    }
}
