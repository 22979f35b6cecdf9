//! TL2 (Dice–Shalev–Shavit, DISC'06) over the simulated memory — the
//! **non-DAP ablation** for Theorem 3.
//!
//! TL2 is the canonical progressive TM the paper's introduction cites. It
//! keeps a *global version clock*, so a t-read validates in O(1) steps
//! against the snapshot time instead of re-validating the read set —
//! exactly the cost Theorem 3 says cannot be achieved by a weak-DAP TM.
//! The price is disjoint-access parallelism: every transaction reads (and
//! every updating commit bumps) the shared clock, making disjoint-access
//! transactions contend on it. The experiment tables show the two regimes
//! side by side: `ir-progressive` at Θ(m²) total steps, `tl2` at Θ(m).
//!
//! ## Protocol
//!
//! Global `clock`; per t-object `X`: `meta[X]` (`version << 1 | locked`)
//! and `val[X]`.
//!
//! * begin (lazy, at first operation): `rv ← clock`.
//! * `read(X)`: `m1 ← meta[X]`; abort if locked or `version(m1) > rv`;
//!   `v ← val[X]`; abort if `meta[X] ≠ m1`; return `v`. O(1) steps.
//! * `write(X, v)`: buffered.
//! * `tryC` (updating): CAS-lock the write set in item order, abort on
//!   failure; `wv ← fetch_add(clock, 1) + 1`; validate the read set
//!   (unlocked or own, version ≤ rv); install values; release locks with
//!   `meta[X] ← wv << 1`. Read-only transactions commit with no steps.

use crate::api::{Aborted, SimTm, SimTxn, TmProperties};
use ptm_sim::{BaseObjectId, Ctx, Home, SimBuilder, TObjId, TxId, Word};
use std::sync::Arc;

#[derive(Debug)]
struct Layout {
    clock: BaseObjectId,
    meta: Vec<BaseObjectId>,
    val: Vec<BaseObjectId>,
}

/// The TL2-style global-clock TM (see module docs).
#[derive(Debug, Clone)]
pub struct Tl2Tm {
    layout: Arc<Layout>,
}

impl Tl2Tm {
    /// Allocates the global clock and per-object metadata.
    pub fn install(builder: &mut SimBuilder, n_tobjects: usize) -> Self {
        let clock = builder.alloc("tl2.clock", 0, Home::Global);
        let meta = (0..n_tobjects)
            .map(|i| builder.alloc(format!("tl2.meta[X{i}]"), 0, Home::Global))
            .collect();
        let val = (0..n_tobjects)
            .map(|i| builder.alloc(format!("tl2.val[X{i}]"), 0, Home::Global))
            .collect();
        Tl2Tm {
            layout: Arc::new(Layout { clock, meta, val }),
        }
    }
}

impl SimTm for Tl2Tm {
    fn name(&self) -> &'static str {
        "tl2"
    }

    fn n_tobjects(&self) -> usize {
        self.layout.val.len()
    }

    fn properties(&self) -> TmProperties {
        TmProperties {
            weak_dap: false, // the global clock is shared metadata
            invisible_reads: true,
        }
    }

    fn begin(&self, _tx: TxId) -> Box<dyn SimTxn> {
        Box::new(Tl2Txn {
            layout: Arc::clone(&self.layout),
            rv: None,
            rset: Vec::new(),
            wset: Vec::new(),
        })
    }
}

#[derive(Debug)]
struct Tl2Txn {
    layout: Arc<Layout>,
    /// Snapshot time, read lazily at the first operation.
    rv: Option<Word>,
    /// Items read (their pre-validated meta words).
    rset: Vec<(TObjId, Word)>,
    wset: Vec<(TObjId, Word)>,
}

impl Tl2Txn {
    fn snapshot(&mut self, ctx: &Ctx) -> Word {
        match self.rv {
            Some(rv) => rv,
            None => {
                let rv = ctx.read(self.layout.clock);
                self.rv = Some(rv);
                rv
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
}

impl SimTxn for Tl2Txn {
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted> {
        if let Some(v) = self.buffered(x) {
            return Ok(v);
        }
        let rv = self.snapshot(ctx);
        let m1 = ctx.read(self.layout.meta[x.index()]);
        if m1 & 1 == 1 || (m1 >> 1) > rv {
            return Err(Aborted);
        }
        let v = ctx.read(self.layout.val[x.index()]);
        let m2 = ctx.read(self.layout.meta[x.index()]);
        if m2 != m1 {
            return Err(Aborted);
        }
        self.rset.push((x, m1));
        Ok(v)
    }

    fn write(&mut self, ctx: &Ctx, x: TObjId, v: Word) -> Result<(), Aborted> {
        self.snapshot(ctx);
        if let Some(slot) = self.wset.iter_mut().find(|(y, _)| *y == x) {
            slot.1 = v;
        } else {
            self.wset.push((x, v));
        }
        Ok(())
    }

    fn try_commit(&mut self, ctx: &Ctx) -> Result<(), Aborted> {
        if self.wset.is_empty() {
            return Ok(()); // read-only commits at its snapshot time
        }
        let rv = self.snapshot(ctx);
        let mut to_lock: Vec<TObjId> = self.wset.iter().map(|(x, _)| *x).collect();
        to_lock.sort_unstable();
        let mut held: Vec<(TObjId, Word)> = Vec::new();
        for x in to_lock {
            let m = ctx.read(self.layout.meta[x.index()]);
            if m & 1 == 1 || (m >> 1) > rv {
                return self.rollback(ctx, &held);
            }
            if !ctx.cas(self.layout.meta[x.index()], m, m | 1) {
                return self.rollback(ctx, &held);
            }
            held.push((x, m));
        }
        let wv = ctx.fetch_add(self.layout.clock, 1) + 1;
        for &(y, m) in &self.rset {
            if held.iter().any(|(x, _)| *x == y) {
                continue;
            }
            if ctx.read(self.layout.meta[y.index()]) != m {
                return self.rollback(ctx, &held);
            }
        }
        for &(x, v) in &self.wset {
            ctx.write(self.layout.val[x.index()], v);
        }
        for &(x, _) in &held {
            ctx.write(self.layout.meta[x.index()], wv << 1);
        }
        Ok(())
    }
}

impl Tl2Txn {
    fn rollback(&mut self, ctx: &Ctx, held: &[(TObjId, Word)]) -> Result<(), Aborted> {
        for &(x, m) in held {
            ctx.write(self.layout.meta[x.index()], m);
        }
        Err(Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_roundtrip() {
        let mut b = SimBuilder::new(1);
        let tm = Tl2Tm::install(&mut b, 2);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            t.write(ctx, TObjId::new(0), 11).unwrap();
            t.try_commit(ctx).unwrap();
            let mut t = tm2.begin(TxId::new(2));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 11);
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    /// Reads are O(1): total steps for m reads are linear, not quadratic.
    #[test]
    fn read_steps_are_constant() {
        let m = 8;
        let mut b = SimBuilder::new(1);
        let tm = Tl2Tm::install(&mut b, m);
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
        // 1 clock read + 3 steps per read.
        assert_eq!(total, 1 + 3 * m);
    }

    #[test]
    fn stale_snapshot_aborts_reader() {
        // p0 snapshots, p1 commits a write, p0's read must abort
        // (version > rv).
        let mut b = SimBuilder::new(2);
        let tm = Tl2Tm::install(&mut b, 1);
        let tm0 = tm.clone();
        let tm1 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm0.begin(TxId::new(1));
            // Force the snapshot now via a read of a second... use recv to
            // sequence: first snapshot, then (after p1 commits) the read.
            let _: u8 = ctx.recv();
            let r = t.read(ctx, TObjId::new(0));
            assert_eq!(r, Err(Aborted));
        });
        b.add_process(move |ctx| {
            let mut t = tm1.begin(TxId::new(2));
            t.write(ctx, TObjId::new(0), 5).unwrap();
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        // p1 commits first? No: we need p0's snapshot BEFORE p1 commits,
        // but snapshot is lazy. Send the command, step p0 through its
        // clock read only, then run p1, then finish p0.
        sim.send(0.into(), 0u8);
        sim.step(0.into()).unwrap(); // command consumed
        sim.step(0.into()).unwrap(); // clock read (snapshot rv=0)
        sim.run_to_block(1.into(), 1000); // p1 commits, clock -> 1
        sim.run_to_block(0.into(), 1000); // p0 reads meta: version 1 > rv 0
        assert!(sim.panic_of(0.into()).is_none());
        assert!(sim.panic_of(1.into()).is_none());
    }

    #[test]
    fn write_write_race_has_one_winner() {
        let mut b = SimBuilder::new(2);
        let tm = Tl2Tm::install(&mut b, 1);
        for pid in 0..2u64 {
            let tmc = tm.clone();
            b.add_process(move |ctx| {
                let mut t = tmc.begin(TxId::new(pid + 1));
                t.write(ctx, TObjId::new(0), pid + 10).unwrap();
                let _: u8 = ctx.recv(); // hold here so both are poised
                let r = t.try_commit(ctx);
                ctx.marker(ptm_sim::Marker::Note {
                    tag: "commit",
                    a: pid,
                    b: r.is_ok() as u64,
                });
            });
        }
        let sim = b.start();
        sim.send(0.into(), 0u8);
        sim.send(1.into(), 0u8);
        // Interleave the two commits step by step.
        loop {
            let runnable = sim.runnable();
            if runnable.is_empty() {
                break;
            }
            for pid in runnable {
                let _ = sim.step(pid);
            }
        }
        let log = sim.log();
        let winners: Vec<u64> = log
            .iter()
            .filter_map(|e| e.marker())
            .filter_map(|m| match m {
                ptm_sim::Marker::Note {
                    tag: "commit",
                    a,
                    b,
                } if *b == 1 => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(
            winners.len(),
            1,
            "exactly one of two single-item writers commits"
        );
    }

    #[test]
    fn properties() {
        let mut b = SimBuilder::new(1);
        let tm = Tl2Tm::install(&mut b, 1);
        let p = tm.properties();
        assert!(!p.weak_dap);
        assert!(p.invisible_reads);
    }
}
