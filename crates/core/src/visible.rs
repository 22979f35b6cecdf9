//! The **visible-reads ablation**: a progressive, opaque TM whose t-reads
//! cost O(1) steps — because they announce themselves in shared memory.
//!
//! Theorem 3's quadratic bound needs *both* weak DAP and weak invisible
//! reads. This TM keeps metadata per-object (weak DAP) but drops read
//! invisibility: a reader registers in a per-object reader bitset, and a
//! committing writer *aborts* every registered reader of the items it
//! writes before installing new values. Readers therefore never validate —
//! a consistent snapshot is guaranteed by "if it changed, I was aborted" —
//! and the i-th t-read takes O(1) steps instead of Ω(i). The experiment
//! tables show it dodging the lower bound at the price of nontrivial
//! events inside t-reads (which `ptm-model`'s visibility checker flags).
//!
//! ## Protocol
//!
//! Per t-object `X`: `val[X]`, `wlock[X]` (0 free, else `pid+1`), and
//! `readers[X]` (a pid bitset, so at most 63 processes). Per process `p`:
//! `status[p] = epoch << 1 | aborted`. Epochs make abort marks
//! transaction-local: a writer may only abort the epoch it observed, so a
//! stale abort aimed at a finished transaction cannot leak into its
//! successor.
//!
//! * first op: bump own epoch (`status[p] ← (epoch+1) << 1`).
//! * `read(X)`: set own bit in `readers[X]` (CAS loop); abort if
//!   `wlock[X]` is held; `v ← val[X]`; abort if own status says aborted;
//!   return `v`.
//! * `write(X, v)`: buffered.
//! * `tryC` (updating): CAS-lock the write set in item order; for every
//!   registered reader of a locked item, CAS its status from the observed
//!   active epoch to aborted; re-check own status; install values; unlock.
//! * any transaction end (commit or abort): clear own bits from all
//!   registered `readers[·]` bitsets.

use crate::api::{Aborted, SimTm, SimTxn, TmProperties};
use ptm_sim::{BaseObjectId, Ctx, Home, SimBuilder, TObjId, TxId, Word};
use std::sync::Arc;

#[derive(Debug)]
struct Layout {
    val: Vec<BaseObjectId>,
    wlock: Vec<BaseObjectId>,
    readers: Vec<BaseObjectId>,
    status: Vec<BaseObjectId>,
}

/// The visible-reads TM (see module docs).
#[derive(Debug, Clone)]
pub struct VisibleReadTm {
    layout: Arc<Layout>,
}

impl VisibleReadTm {
    /// Allocates per-object and per-process metadata.
    ///
    /// # Panics
    ///
    /// Panics if the system has more than 63 processes (the reader bitset
    /// is one word).
    pub fn install(builder: &mut SimBuilder, n_tobjects: usize) -> Self {
        assert!(
            builder.n_processes() <= 63,
            "reader bitsets support at most 63 processes"
        );
        let val = (0..n_tobjects)
            .map(|i| builder.alloc(format!("vis.val[X{i}]"), 0, Home::Global))
            .collect();
        let wlock = (0..n_tobjects)
            .map(|i| builder.alloc(format!("vis.wlock[X{i}]"), 0, Home::Global))
            .collect();
        let readers = (0..n_tobjects)
            .map(|i| builder.alloc(format!("vis.readers[X{i}]"), 0, Home::Global))
            .collect();
        let status = (0..builder.n_processes())
            .map(|p| {
                let home = Home::Process(ptm_sim::ProcessId::new(p));
                builder.alloc(format!("vis.status[p{p}]"), 0, home)
            })
            .collect();
        VisibleReadTm {
            layout: Arc::new(Layout {
                val,
                wlock,
                readers,
                status,
            }),
        }
    }
}

impl SimTm for VisibleReadTm {
    fn name(&self) -> &'static str {
        "visible-reads"
    }

    fn n_tobjects(&self) -> usize {
        self.layout.val.len()
    }

    fn properties(&self) -> TmProperties {
        TmProperties {
            weak_dap: true, // metadata is per-object / per-process
            invisible_reads: false,
        }
    }

    fn begin(&self, _tx: TxId) -> Box<dyn SimTxn> {
        Box::new(VisibleTxn {
            layout: Arc::clone(&self.layout),
            epoch: None,
            registered: Vec::new(),
            wset: Vec::new(),
            values: Vec::new(),
        })
    }
}

#[derive(Debug)]
struct VisibleTxn {
    layout: Arc<Layout>,
    /// Own active status word (`epoch << 1`), set at the first operation.
    epoch: Option<Word>,
    /// Items whose reader bit we hold.
    registered: Vec<TObjId>,
    wset: Vec<(TObjId, Word)>,
    /// Values read, for read-your-reads stability.
    values: Vec<(TObjId, Word)>,
}

impl VisibleTxn {
    /// Bumps the epoch at the first operation of the transaction.
    fn ensure_begun(&mut self, ctx: &Ctx) -> Word {
        match self.epoch {
            Some(e) => e,
            None => {
                let me = ctx.pid().index();
                let old = ctx.read(self.layout.status[me]);
                let fresh = ((old >> 1) + 1) << 1;
                ctx.write(self.layout.status[me], fresh);
                self.epoch = Some(fresh);
                fresh
            }
        }
    }

    fn buffered(&self, x: TObjId) -> Option<Word> {
        self.wset
            .iter()
            .rev()
            .find(|(y, _)| *y == x)
            .map(|(_, v)| *v)
    }

    /// Whether this transaction is still in its active epoch.
    fn still_active(&self, ctx: &Ctx) -> bool {
        let me = ctx.pid().index();
        let epoch = self.epoch.expect("ensure_begun called first");
        ctx.read(self.layout.status[me]) == epoch
    }

    /// CAS-loop to set or clear our bit in a reader bitset.
    fn set_reader_bit(&self, ctx: &Ctx, x: TObjId, on: bool) {
        let me = ctx.pid().index() as Word;
        let bit = 1u64 << me;
        let obj = self.layout.readers[x.index()];
        loop {
            let cur = ctx.read(obj);
            let next = if on { cur | bit } else { cur & !bit };
            if next == cur || ctx.cas(obj, cur, next) {
                return;
            }
        }
    }

    /// Deregisters from everything; called on any transaction end.
    fn deregister_all(&mut self, ctx: &Ctx) {
        let regs = std::mem::take(&mut self.registered);
        for x in regs {
            self.set_reader_bit(ctx, x, false);
        }
    }

    fn die(&mut self, ctx: &Ctx) -> Aborted {
        self.deregister_all(ctx);
        Aborted
    }
}

impl SimTxn for VisibleTxn {
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted> {
        if let Some(v) = self.buffered(x) {
            return Ok(v);
        }
        if let Some(&(_, v)) = self.values.iter().find(|(y, _)| *y == x) {
            // Still registered: the value cannot have changed without us
            // having been aborted, which the next conflicting op detects.
            return Ok(v);
        }
        self.ensure_begun(ctx);
        // Announce the read *first*, then check for a writer: any writer
        // that installs after our check must have seen our registration.
        self.set_reader_bit(ctx, x, true);
        self.registered.push(x);
        if ctx.read(self.layout.wlock[x.index()]) != 0 {
            return Err(self.die(ctx));
        }
        let v = ctx.read(self.layout.val[x.index()]);
        if !self.still_active(ctx) {
            return Err(self.die(ctx));
        }
        self.values.push((x, v));
        Ok(v)
    }

    fn write(&mut self, ctx: &Ctx, x: TObjId, v: Word) -> Result<(), Aborted> {
        self.ensure_begun(ctx);
        if let Some(slot) = self.wset.iter_mut().find(|(y, _)| *y == x) {
            slot.1 = v;
        } else {
            self.wset.push((x, v));
        }
        Ok(())
    }

    fn try_commit(&mut self, ctx: &Ctx) -> Result<(), Aborted> {
        if self.epoch.is_none() {
            return Ok(()); // empty transaction
        }
        if self.wset.is_empty() {
            // Reads were kept valid by visibility; nothing to validate.
            let ok = self.still_active(ctx);
            self.deregister_all(ctx);
            return if ok { Ok(()) } else { Err(Aborted) };
        }
        let me = ctx.pid().index();
        let mut to_lock: Vec<TObjId> = self.wset.iter().map(|(x, _)| *x).collect();
        to_lock.sort_unstable();
        let mut held: Vec<TObjId> = Vec::new();
        for x in to_lock {
            if !ctx.cas(self.layout.wlock[x.index()], 0, me as Word + 1) {
                return self.rollback(ctx, &held);
            }
            held.push(x);
        }
        // Abort every registered reader of the items we are writing.
        for &x in &held {
            let readers = ctx.read(self.layout.readers[x.index()]);
            for q in 0..64 {
                if q == me || readers & (1 << q) == 0 {
                    continue;
                }
                let s = ctx.read(self.layout.status[q]);
                if s & 1 == 0 {
                    // Abort exactly the epoch we observed; a failed CAS
                    // means that transaction already ended.
                    ctx.cas(self.layout.status[q], s, s | 1);
                }
            }
        }
        // Our own reads are protected by registration: if a writer
        // invalidated one, it marked us aborted.
        if !self.still_active(ctx) {
            return self.rollback(ctx, &held);
        }
        for &(x, v) in &self.wset {
            ctx.write(self.layout.val[x.index()], v);
        }
        for &x in &held {
            ctx.write(self.layout.wlock[x.index()], 0);
        }
        self.deregister_all(ctx);
        Ok(())
    }
}

impl VisibleTxn {
    fn rollback(&mut self, ctx: &Ctx, held: &[TObjId]) -> Result<(), Aborted> {
        for &x in held {
            ctx.write(self.layout.wlock[x.index()], 0);
        }
        Err(self.die(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_roundtrip() {
        let mut b = SimBuilder::new(1);
        let tm = VisibleReadTm::install(&mut b, 2);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            t.write(ctx, TObjId::new(0), 8).unwrap();
            t.try_commit(ctx).unwrap();
            let mut t = tm2.begin(TxId::new(2));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 8);
            assert_eq!(t.read(ctx, TObjId::new(1)).unwrap(), 0);
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    /// Reads cost O(1) steps — no incremental validation.
    #[test]
    fn read_steps_are_constant() {
        let m = 8;
        let mut b = SimBuilder::new(1);
        let tm = VisibleReadTm::install(&mut b, m);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            for i in 0..m {
                t.read(ctx, TObjId::new(i)).unwrap();
            }
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        let total = sim.run_to_block(0.into(), 10_000);
        // 2 (epoch bump) + 5 per read (reg read+CAS, wlock, val, status)
        // + commit: 1 status check + m deregister (read+CAS each).
        assert_eq!(total, 2 + 5 * m + 1 + 2 * m);
    }

    /// A committing writer aborts a registered reader.
    #[test]
    fn writer_aborts_visible_reader() {
        let mut b = SimBuilder::new(2);
        let tm = VisibleReadTm::install(&mut b, 2);
        let tm0 = tm.clone();
        let tm1 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm0.begin(TxId::new(1));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 0);
            let _: u8 = ctx.recv();
            // p1 has committed a write to X0: our next op must abort.
            assert_eq!(t.read(ctx, TObjId::new(1)), Err(Aborted));
        });
        b.add_process(move |ctx| {
            let mut t = tm1.begin(TxId::new(2));
            t.write(ctx, TObjId::new(0), 5).unwrap();
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 100); // reader registered on X0
        sim.run_to_block(1.into(), 100); // writer commits, aborting reader
        sim.send(0.into(), 0u8);
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
        assert!(sim.panic_of(1.into()).is_none());
    }

    /// A stale abort mark cannot leak into the reader's next transaction.
    #[test]
    fn epochs_isolate_transactions() {
        let mut b = SimBuilder::new(2);
        let tm = VisibleReadTm::install(&mut b, 2);
        let tm0 = tm.clone();
        let tm1 = tm.clone();
        b.add_process(move |ctx| {
            // First transaction reads X0 and commits.
            let mut t = tm0.begin(TxId::new(1));
            t.read(ctx, TObjId::new(0)).unwrap();
            t.try_commit(ctx).unwrap();
            let _: u8 = ctx.recv();
            // Second transaction must be unaffected by any abort aimed at
            // the first.
            let mut t = tm0.begin(TxId::new(3));
            assert!(t.read(ctx, TObjId::new(1)).is_ok());
            t.try_commit(ctx).unwrap();
        });
        b.add_process(move |ctx| {
            let mut t = tm1.begin(TxId::new(2));
            t.write(ctx, TObjId::new(0), 5).unwrap();
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 100); // reader's first tx done
        sim.run_to_block(1.into(), 100); // writer commits (reader dereg'd)
        sim.send(0.into(), 0u8);
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    #[test]
    fn properties() {
        let mut b = SimBuilder::new(1);
        let tm = VisibleReadTm::install(&mut b, 1);
        let p = tm.properties();
        assert!(p.weak_dap && !p.invisible_reads);
    }
}
