//! The paper's matching upper bound: a progressive, opaque, weak-DAP TM
//! with **invisible reads** and **incremental validation**.
//!
//! This is the construction the paper points to (\[19\]/DSTM-style) as tight
//! for Theorem 3: metadata is strictly per-t-object (one versioned-lock
//! word and one value word per item — *strict data partitioning*, hence
//! weak DAP), reads apply only trivial primitives (invisible), and opacity
//! is maintained by re-validating the entire read set on **every** t-read.
//! That re-validation is exactly the `Ω(i)` steps / `i−1` distinct base
//! objects per i-th read that Theorems 3(1) and 3(2) prove unavoidable
//! under these assumptions.
//!
//! ## Protocol
//!
//! Per t-object `X`: `meta[X]` (a versioned try-lock: `2·version`, low bit
//! set while a committer holds `X`) and `val[X]`.
//!
//! * `read(X)`: read `meta[X]` (abort if locked), read `val[X]`, re-read
//!   `meta[X]` (abort if changed), then re-validate every previously read
//!   item's version — abort on any change. Versions only grow, so an
//!   unchanged version word means no commit touched the item.
//! * `write(X, v)`: buffered locally (deferred update), zero steps.
//! * `tryC`, read-only: nothing to do — the last read's validation is the
//!   serialization point.
//! * `tryC`, updating: try-lock the write set in id order via CAS from the
//!   version observed at first access (abort on any failure), validate the
//!   read set once more, install the new values, then unlock with
//!   incremented versions. On abort, held locks are rolled back to their
//!   original versions.
//!
//! Every abort is caused by a locked or version-bumped item, i.e. by a
//! concurrent conflicting transaction — the TM is progressive. Conflicts
//! confined to a single item are resolved by the CAS winner, which cannot
//! subsequently abort inside the conflict class — strong progressiveness.

use crate::api::{Aborted, SimTm, SimTxn, TmProperties};
use ptm_sim::{BaseObjectId, Ctx, Home, SimBuilder, TObjId, TxId, Word};
use std::sync::Arc;

/// Base-object layout shared by all transactions of one TM instance.
#[derive(Debug)]
struct Layout {
    /// Versioned try-lock per t-object (`2·version + locked`).
    meta: Vec<BaseObjectId>,
    /// Value cell per t-object.
    val: Vec<BaseObjectId>,
}

impl Layout {
    fn meta(&self, x: TObjId) -> BaseObjectId {
        self.meta[x.index()]
    }
    fn val(&self, x: TObjId) -> BaseObjectId {
        self.val[x.index()]
    }
}

/// Which conditional primitive the committer uses to acquire versioned
/// locks. Theorem 9's lower bound covers TMs built from read, write, and
/// *conditional* primitives — both CAS and LL/SC qualify; offering both
/// exercises the whole class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockPrim {
    /// Compare-and-swap (default).
    #[default]
    Cas,
    /// Load-linked / store-conditional.
    Llsc,
}

/// The invisible-reads progressive TM (see module docs).
#[derive(Debug, Clone)]
pub struct ProgressiveTm {
    layout: Arc<Layout>,
    lock_prim: LockPrim,
}

impl ProgressiveTm {
    /// Allocates the per-object metadata for `n_tobjects` items, locking
    /// with CAS.
    pub fn install(builder: &mut SimBuilder, n_tobjects: usize) -> Self {
        Self::install_with_lock(builder, n_tobjects, LockPrim::Cas)
    }

    /// Allocates the per-object metadata, locking with the given
    /// conditional primitive.
    pub fn install_with_lock(
        builder: &mut SimBuilder,
        n_tobjects: usize,
        lock_prim: LockPrim,
    ) -> Self {
        let meta = (0..n_tobjects)
            .map(|i| builder.alloc(format!("prog.meta[X{i}]"), 0, Home::Global))
            .collect();
        let val = (0..n_tobjects)
            .map(|i| builder.alloc(format!("prog.val[X{i}]"), 0, Home::Global))
            .collect();
        ProgressiveTm {
            layout: Arc::new(Layout { meta, val }),
            lock_prim,
        }
    }
}

impl SimTm for ProgressiveTm {
    fn name(&self) -> &'static str {
        "ir-progressive"
    }

    fn n_tobjects(&self) -> usize {
        self.layout.val.len()
    }

    fn properties(&self) -> TmProperties {
        TmProperties {
            weak_dap: true,
            invisible_reads: true,
        }
    }

    fn begin(&self, _tx: TxId) -> Box<dyn SimTxn> {
        Box::new(ProgressiveTxn {
            layout: Arc::clone(&self.layout),
            lock_prim: self.lock_prim,
            rset: Vec::new(),
            wset: Vec::new(),
            dead: false,
        })
    }
}

/// One transaction's state.
#[derive(Debug)]
struct ProgressiveTxn {
    layout: Arc<Layout>,
    lock_prim: LockPrim,
    /// `(item, version observed)` in read order.
    rset: Vec<(TObjId, Word)>,
    /// `(item, buffered value)` in first-write order, one entry per item.
    wset: Vec<(TObjId, Word)>,
    dead: bool,
}

impl ProgressiveTxn {
    fn buffered(&self, x: TObjId) -> Option<Word> {
        self.wset
            .iter()
            .rev()
            .find(|(y, _)| *y == x)
            .map(|(_, v)| *v)
    }

    fn recorded_version(&self, x: TObjId) -> Option<Word> {
        self.rset.iter().find(|(y, _)| *y == x).map(|(_, m)| *m)
    }

    /// Re-validates every read-set entry except `skip_last` newly added
    /// ones. Returns `Err` if any version moved or is locked.
    fn validate_rset(&self, ctx: &Ctx, upto: usize) -> Result<(), Aborted> {
        for &(y, m) in &self.rset[..upto] {
            let cur = ctx.read(self.layout.meta(y));
            if cur != m {
                return Err(Aborted);
            }
        }
        Ok(())
    }

    fn die(&mut self) -> Aborted {
        self.dead = true;
        Aborted
    }
}

impl SimTxn for ProgressiveTxn {
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted> {
        debug_assert!(!self.dead, "operation on an aborted transaction");
        if let Some(v) = self.buffered(x) {
            return Ok(v);
        }
        if let Some(m) = self.recorded_version(x) {
            // Already read: return a consistent value. Re-read the value
            // and confirm the version is unchanged.
            let v = ctx.read(self.layout.val(x));
            if ctx.read(self.layout.meta(x)) != m {
                return Err(self.die());
            }
            if self.validate_rset(ctx, self.rset.len()).is_err() {
                return Err(self.die());
            }
            return Ok(v);
        }
        let m1 = ctx.read(self.layout.meta(x));
        if m1 & 1 == 1 {
            return Err(self.die()); // locked by a concurrent committer
        }
        let v = ctx.read(self.layout.val(x));
        let m2 = ctx.read(self.layout.meta(x));
        if m2 != m1 {
            return Err(self.die()); // concurrent commit in between
        }
        // Incremental validation: the whole read set, every read.
        if self.validate_rset(ctx, self.rset.len()).is_err() {
            return Err(self.die());
        }
        self.rset.push((x, m1));
        Ok(v)
    }

    fn write(&mut self, _ctx: &Ctx, x: TObjId, v: Word) -> Result<(), Aborted> {
        debug_assert!(!self.dead, "operation on an aborted transaction");
        if let Some(slot) = self.wset.iter_mut().find(|(y, _)| *y == x) {
            slot.1 = v;
        } else {
            self.wset.push((x, v));
        }
        Ok(())
    }

    fn try_commit(&mut self, ctx: &Ctx) -> Result<(), Aborted> {
        debug_assert!(!self.dead, "operation on an aborted transaction");
        if self.wset.is_empty() {
            // Read-only: serialized at its last read's validation.
            return Ok(());
        }
        // Lock the write set in item order (deterministic order avoids
        // needless livelock between committers; progressiveness comes from
        // try-locking, not ordering).
        let mut to_lock: Vec<TObjId> = self.wset.iter().map(|(x, _)| *x).collect();
        to_lock.sort_unstable();
        let mut held: Vec<(TObjId, Word)> = Vec::new(); // (item, pre-lock meta)
        for x in to_lock {
            let m = match self.recorded_version(x) {
                Some(m) => m,
                None => {
                    let m = ctx.read(self.layout.meta(x));
                    if m & 1 == 1 {
                        return self.rollback(ctx, &held);
                    }
                    m
                }
            };
            if !self.try_lock(ctx, x, m) {
                return self.rollback(ctx, &held);
            }
            held.push((x, m));
        }
        // Validate reads not covered by a held lock.
        for &(y, m) in &self.rset {
            if held.iter().any(|(x, _)| *x == y) {
                continue;
            }
            if ctx.read(self.layout.meta(y)) != m {
                return self.rollback(ctx, &held);
            }
        }
        // Install values, then release with bumped versions.
        for &(x, v) in &self.wset {
            ctx.write(self.layout.val(x), v);
        }
        for &(x, m) in &held {
            ctx.write(self.layout.meta(x), m + 2);
        }
        Ok(())
    }
}

impl ProgressiveTxn {
    /// Acquires the versioned lock on `x` from expected version word `m`
    /// using the configured conditional primitive.
    fn try_lock(&self, ctx: &Ctx, x: TObjId, m: Word) -> bool {
        match self.lock_prim {
            LockPrim::Cas => ctx.cas(self.layout.meta(x), m, m | 1),
            LockPrim::Llsc => {
                let cur = ctx.apply(self.layout.meta(x), ptm_sim::Primitive::LoadLinked);
                if cur != m {
                    return false;
                }
                ctx.apply(
                    self.layout.meta(x),
                    ptm_sim::Primitive::StoreConditional(m | 1),
                ) == 1
            }
        }
    }

    fn rollback(&mut self, ctx: &Ctx, held: &[(TObjId, Word)]) -> Result<(), Aborted> {
        for &(x, m) in held {
            ctx.write(self.layout.meta(x), m);
        }
        Err(self.die())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimTm;

    /// Single-process smoke test: write then read back, solo.
    #[test]
    fn solo_write_read_commits() {
        let mut b = SimBuilder::new(1);
        let tm = ProgressiveTm::install(&mut b, 2);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t1 = tm2.begin(TxId::new(1));
            t1.write(ctx, TObjId::new(0), 7).unwrap();
            t1.try_commit(ctx).unwrap();
            let mut t2 = tm2.begin(TxId::new(2));
            assert_eq!(t2.read(ctx, TObjId::new(0)).unwrap(), 7);
            assert_eq!(t2.read(ctx, TObjId::new(1)).unwrap(), 0);
            t2.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    /// Reads are buffered-write aware.
    #[test]
    fn read_own_write() {
        let mut b = SimBuilder::new(1);
        let tm = ProgressiveTm::install(&mut b, 1);
        let tm2 = tm.clone();
        b.add_process(move |ctx| {
            let mut t = tm2.begin(TxId::new(1));
            t.write(ctx, TObjId::new(0), 9).unwrap();
            assert_eq!(t.read(ctx, TObjId::new(0)).unwrap(), 9);
            t.try_commit(ctx).unwrap();
        });
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        assert!(sim.panic_of(0.into()).is_none());
    }

    /// The i-th read performs ~3 + (i-1) steps: incremental validation.
    #[test]
    fn read_steps_grow_linearly() {
        let m = 8;
        let mut b = SimBuilder::new(1);
        let tm = ProgressiveTm::install(&mut b, m);
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
        // 3 fixed steps + (i-1) validation steps for read i (1-based).
        let expected: usize = (0..m).map(|i| 3 + i).sum();
        assert_eq!(total, expected);
    }

    /// The LL/SC variant commits and uses only Theorem 9's primitive
    /// class (read, write, conditionals).
    #[test]
    fn llsc_variant_stays_in_theorem9_class() {
        let mut b = SimBuilder::new(2);
        let tm = ProgressiveTm::install_with_lock(&mut b, 2, LockPrim::Llsc);
        for pid in 0..2u64 {
            let tmc = tm.clone();
            b.add_process(move |ctx| {
                let mut t = tmc.begin(TxId::new(pid + 1));
                let v = t.read(ctx, TObjId::new(0)).unwrap();
                t.write(ctx, TObjId::new(0), v + 1).unwrap();
                let _ = t.try_commit(ctx);
            });
        }
        let sim = b.start();
        sim.run_to_block(0.into(), 1000);
        sim.run_to_block(1.into(), 1000);
        for e in sim.log() {
            if let Some(m) = e.mem() {
                assert!(m.prim.in_theorem9_class(), "{:?}", m.prim);
            }
        }
        // Sequential runs: both committed, counter = 2.
        assert_eq!(sim.peek(tm.layout.val[0]), 2);
    }

    /// LL/SC lock races have a single winner.
    #[test]
    fn llsc_race_has_one_winner() {
        let mut b = SimBuilder::new(2);
        let tm = ProgressiveTm::install_with_lock(&mut b, 1, LockPrim::Llsc);
        for pid in 0..2u64 {
            let tmc = tm.clone();
            b.add_process(move |ctx| {
                let mut t = tmc.begin(TxId::new(pid + 1));
                t.write(ctx, TObjId::new(0), pid + 10).unwrap();
                let _: u8 = ctx.recv();
                let r = t.try_commit(ctx);
                ctx.marker(ptm_sim::Marker::Note {
                    tag: "c",
                    a: pid,
                    b: r.is_ok() as u64,
                });
            });
        }
        let sim = b.start();
        sim.send(0.into(), 0u8);
        sim.send(1.into(), 0u8);
        loop {
            let runnable = sim.runnable();
            if runnable.is_empty() {
                break;
            }
            for pid in runnable {
                let _ = sim.step(pid);
            }
        }
        let winners = sim
            .log()
            .iter()
            .filter_map(|e| e.marker().copied())
            .filter(|m| matches!(m, ptm_sim::Marker::Note { tag: "c", b: 1, .. }))
            .count();
        assert_eq!(winners, 1);
    }

    /// Claimed properties are consistent.
    #[test]
    fn properties() {
        let mut b = SimBuilder::new(1);
        let tm = ProgressiveTm::install(&mut b, 1);
        let p = tm.properties();
        assert!(p.weak_dap && p.invisible_reads);
        assert_eq!(tm.name(), "ir-progressive");
        assert_eq!(tm.n_tobjects(), 1);
    }
}
