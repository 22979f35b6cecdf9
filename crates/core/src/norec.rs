//! NOrec (Dalessandro–Spear–Scott, PPoPP'10) over the simulated memory —
//! the **minimal-metadata, non-DAP** design point.
//!
//! NOrec abolishes ownership records entirely: the only TM metadata is a
//! single global sequence lock, and consistency is maintained by
//! *value-based validation* — when the global counter moves, the reader
//! re-checks that every value it read is still the current one. In
//! uncontended executions a t-read costs O(1) steps, like TL2; under
//! concurrent commits a read degrades to O(|rset|). Either way the design
//! gives up weak DAP (every commit serializes on the one counter), which
//! is how it escapes Theorem 3's quadratic bound.
//!
//! ## Protocol
//!
//! Global `seqlock` (odd while a committer is writing); per t-object only
//! `val[X]`.
//!
//! * begin (lazy): spin until `seqlock` is even, `rv ← seqlock`.
//! * `read(X)`: `v ← val[X]`; if `seqlock == rv` return `v`; otherwise
//!   wait for an even counter, re-validate the read set *by value* (abort
//!   on mismatch), adopt the new `rv`, and retry the read.
//! * `write(X, v)`: buffered.
//! * `tryC` (updating): CAS `seqlock: rv → rv+1`; on failure re-validate
//!   and retry with the new `rv`; once locked, install values and release
//!   with `seqlock ← rv+2`. Read-only transactions commit in zero steps.

use crate::api::{Aborted, SimTm, SimTxn, TmProperties};
use ptm_sim::{BaseObjectId, Ctx, Home, SimBuilder, TObjId, TxId, Word};
use std::sync::Arc;

#[derive(Debug)]
struct Layout {
    seqlock: BaseObjectId,
    val: Vec<BaseObjectId>,
}

/// The NOrec-style TM (see module docs).
#[derive(Debug, Clone)]
pub struct NorecTm {
    layout: Arc<Layout>,
}

impl NorecTm {
    /// Allocates the global sequence lock and the value cells.
    pub fn install(builder: &mut SimBuilder, n_tobjects: usize) -> Self {
        let seqlock = builder.alloc("norec.seqlock", 0, Home::Global);
        let val = (0..n_tobjects)
            .map(|i| builder.alloc(format!("norec.val[X{i}]"), 0, Home::Global))
            .collect();
        NorecTm {
            layout: Arc::new(Layout { seqlock, val }),
        }
    }
}

impl SimTm for NorecTm {
    fn name(&self) -> &'static str {
        "norec"
    }

    fn n_tobjects(&self) -> usize {
        self.layout.val.len()
    }

    fn properties(&self) -> TmProperties {
        TmProperties {
            weak_dap: false, // single global sequence lock
            invisible_reads: true,
        }
    }

    fn begin(&self, _tx: TxId) -> Box<dyn SimTxn> {
        Box::new(NorecTxn {
            layout: Arc::clone(&self.layout),
            rv: None,
            rset: Vec::new(),
            wset: Vec::new(),
        })
    }
}

#[derive(Debug)]
struct NorecTxn {
    layout: Arc<Layout>,
    rv: Option<Word>,
    /// `(item, value read)` — validation is by value.
    rset: Vec<(TObjId, Word)>,
    wset: Vec<(TObjId, Word)>,
}

impl NorecTxn {
    fn snapshot(&mut self, ctx: &Ctx) -> Word {
        match self.rv {
            Some(rv) => rv,
            None => loop {
                let t = ctx.read(self.layout.seqlock);
                if t & 1 == 0 {
                    self.rv = Some(t);
                    return t;
                }
            },
        }
    }

    fn buffered(&self, x: TObjId) -> Option<Word> {
        self.wset
            .iter()
            .rev()
            .find(|(y, _)| *y == x)
            .map(|(_, v)| *v)
    }

    /// Waits for an even counter, then value-validates the read set.
    /// Returns the counter value at which validation succeeded.
    fn validate(&mut self, ctx: &Ctx) -> Result<Word, Aborted> {
        loop {
            let t = loop {
                let t = ctx.read(self.layout.seqlock);
                if t & 1 == 0 {
                    break t;
                }
            };
            let mut ok = true;
            for &(y, v) in &self.rset {
                if ctx.read(self.layout.val[y.index()]) != v {
                    ok = false;
                    break;
                }
            }
            if !ok {
                return Err(Aborted);
            }
            // If the counter moved while we validated, do it again.
            if ctx.read(self.layout.seqlock) == t {
                self.rv = Some(t);
                return Ok(t);
            }
        }
    }
}

impl SimTxn for NorecTxn {
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted> {
        if let Some(v) = self.buffered(x) {
            return Ok(v);
        }
        let mut rv = self.snapshot(ctx);
        loop {
            let v = ctx.read(self.layout.val[x.index()]);
            let t = ctx.read(self.layout.seqlock);
            if t == rv {
                self.rset.push((x, v));
                return Ok(v);
            }
            // Counter moved: re-validate by value and retry the read.
            rv = self.validate(ctx)?;
        }
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
            return Ok(());
        }
        let mut rv = self.snapshot(ctx);
        // Acquire the global sequence lock at a validated snapshot.
        while !ctx.cas(self.layout.seqlock, rv, rv + 1) {
            rv = self.validate(ctx)?;
        }
        for &(x, v) in &self.wset {
            ctx.write(self.layout.val[x.index()], v);
        }
        ctx.write(self.layout.seqlock, rv + 2);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_roundtrip() {
        let mut b = SimBuilder::new(1);
        let tm = NorecTm::install(&mut b, 2);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            t.write(ctx, TObjId::new(0), 3).unwrap();
            t.write(ctx, TObjId::new(1), 4).unwrap();
            t.try_commit(ctx).unwrap();
            let mut t = tm2.begin(TxId::new(2));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 3);
            assert_eq!(t.read(ctx, TObjId::new(1)).unwrap(), 4);
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    /// Solo reads are O(1) (2 steps each after the snapshot).
    #[test]
    fn solo_read_cost_is_linear_total() {
        let m = 8;
        let mut b = SimBuilder::new(1);
        let tm = NorecTm::install(&mut b, m);
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
        // 1 snapshot + 2 per read (val + seqlock check).
        assert_eq!(total, 1 + 2 * m);
    }

    /// A concurrent commit between reads triggers value validation; a
    /// conflicting value change aborts, an ABA-equal value survives.
    #[test]
    fn value_validation_tolerates_equal_values() {
        let mut b = SimBuilder::new(2);
        let tm = NorecTm::install(&mut b, 2);
        let tm0 = tm.clone();
        let tm1 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm0.begin(TxId::new(1));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 0);
            let _: u8 = ctx.recv();
            // p1 has committed X1:=9 meanwhile; X0 still has value 0, so
            // value validation passes and this read succeeds.
            assert_eq!(t.read(ctx, TObjId::new(1)).unwrap(), 9);
            t.try_commit(ctx).unwrap();
        });
        b.add_process(move |ctx| {
            let mut t = tm1.begin(TxId::new(2));
            t.write(ctx, TObjId::new(1), 9).unwrap();
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 100); // p0 blocked on command
        sim.run_to_block(1.into(), 100); // p1 commits
        sim.send(0.into(), 0u8);
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    #[test]
    fn conflicting_update_aborts_reader() {
        let mut b = SimBuilder::new(2);
        let tm = NorecTm::install(&mut b, 2);
        let tm0 = tm.clone();
        let tm1 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm0.begin(TxId::new(1));
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 0);
            let _: u8 = ctx.recv();
            // p1 committed X0:=7: value validation must fail.
            assert_eq!(t.read(ctx, TObjId::new(1)), Err(Aborted));
        });
        b.add_process(move |ctx| {
            let mut t = tm1.begin(TxId::new(2));
            t.write(ctx, TObjId::new(0), 7).unwrap();
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 100);
        sim.run_to_block(1.into(), 100);
        sim.send(0.into(), 0u8);
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    #[test]
    fn properties() {
        let mut b = SimBuilder::new(1);
        let tm = NorecTm::install(&mut b, 1);
        let p = tm.properties();
        assert!(!p.weak_dap);
        assert!(p.invisible_reads);
    }
}
