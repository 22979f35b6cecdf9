//! The single-global-lock TM — the degenerate strongly progressive
//! baseline.
//!
//! Every transaction acquires one global test-and-test-and-set lock at its
//! first operation and holds it to commit, executing serially. No
//! transaction ever aborts, so progressiveness and strong progressiveness
//! hold vacuously, and the serial execution is trivially opaque. What it
//! gives up is *everything else*: reads are "invisible" only in the
//! degenerate sense that the lock acquisition precedes them (the
//! transaction as a whole is highly visible), there is no DAP, and
//! liveness is blocking.
//!
//! Its role in the reproduction: it is the simplest strictly serializable
//! strongly progressive single-object TM to feed Algorithm 1, giving the
//! cleanest RMR accounting of the mutex reduction (Theorem 7 requires only
//! strict serializability + strong progressiveness + single t-object).

use crate::api::{Aborted, SimTm, SimTxn, TmProperties};
use ptm_sim::{BaseObjectId, Ctx, Home, SimBuilder, TObjId, TxId, Word};
use std::sync::Arc;

#[derive(Debug)]
struct Layout {
    lock: BaseObjectId,
    val: Vec<BaseObjectId>,
}

/// The global-lock TM (see module docs).
#[derive(Debug, Clone)]
pub struct GlockTm {
    layout: Arc<Layout>,
}

impl GlockTm {
    /// Allocates the lock and the value cells.
    pub fn install(builder: &mut SimBuilder, n_tobjects: usize) -> Self {
        let lock = builder.alloc("glock.lock", 0, Home::Global);
        let val = (0..n_tobjects)
            .map(|i| builder.alloc(format!("glock.val[X{i}]"), 0, Home::Global))
            .collect();
        GlockTm {
            layout: Arc::new(Layout { lock, val }),
        }
    }
}

impl SimTm for GlockTm {
    fn name(&self) -> &'static str {
        "glock"
    }

    fn n_tobjects(&self) -> usize {
        self.layout.val.len()
    }

    fn properties(&self) -> TmProperties {
        TmProperties {
            weak_dap: false,
            invisible_reads: false,
        }
    }

    fn begin(&self, _tx: TxId) -> Box<dyn SimTxn> {
        Box::new(GlockTxn {
            layout: Arc::clone(&self.layout),
            holding: false,
            undo: Vec::new(),
        })
    }
}

#[derive(Debug)]
struct GlockTxn {
    layout: Arc<Layout>,
    holding: bool,
    /// Values overwritten by this transaction (unused while no aborts are
    /// possible, but kept so a future timeout/abort path could roll back).
    undo: Vec<(TObjId, Word)>,
}

impl GlockTxn {
    /// Test-and-test-and-set acquisition: spin on reads, then CAS.
    fn acquire(&mut self, ctx: &Ctx) {
        if self.holding {
            return;
        }
        loop {
            while ctx.read(self.layout.lock) != 0 {}
            if ctx.cas(self.layout.lock, 0, 1) {
                self.holding = true;
                return;
            }
        }
    }
}

impl SimTxn for GlockTxn {
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted> {
        self.acquire(ctx);
        Ok(ctx.read(self.layout.val[x.index()]))
    }

    fn write(&mut self, ctx: &Ctx, x: TObjId, v: Word) -> Result<(), Aborted> {
        self.acquire(ctx);
        let old = ctx.swap(self.layout.val[x.index()], v);
        self.undo.push((x, old));
        Ok(())
    }

    fn try_commit(&mut self, ctx: &Ctx) -> Result<(), Aborted> {
        if self.holding {
            ctx.write(self.layout.lock, 0);
            self.holding = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_sim::{run_policy, RoundRobin};

    #[test]
    fn solo_roundtrip() {
        let mut b = SimBuilder::new(1);
        let tm = GlockTm::install(&mut b, 1);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            t.write(ctx, TObjId::new(0), 5).unwrap();
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 5);
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    #[test]
    fn contended_counter_never_aborts() {
        let n = 4;
        let per = 5;
        let mut b = SimBuilder::new(n);
        let tm = GlockTm::install(&mut b, 1);
        for p in 0..n {
            let tmc = tm.clone();
            b.add_process(move |ctx| {
                for k in 0..per {
                    let mut t = tmc.begin(TxId::new((p * per + k) as u64));
                    let v = t.read(ctx, TObjId::new(0)).unwrap();
                    t.write(ctx, TObjId::new(0), v + 1).unwrap();
                    t.try_commit(ctx).unwrap();
                }
            });
        }
        let sim = b.start();
        run_policy(&sim, &mut RoundRobin::new(), 1_000_000);
        // All increments applied exactly once: full serializability.
        let val_obj = {
            // val[X0] is the second allocated object (after the lock).
            ptm_sim::BaseObjectId::new(1)
        };
        assert_eq!(sim.peek(val_obj), (n * per) as u64);
    }

    #[test]
    fn properties() {
        let mut b = SimBuilder::new(1);
        let tm = GlockTm::install(&mut b, 1);
        let p = tm.properties();
        assert!(!p.weak_dap && !p.invisible_reads);
    }
}
