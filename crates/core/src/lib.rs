//! # ptm-core — the paper's TM algorithms, executable and instrumented
//!
//! The primary contribution of *Progressive Transactional Memory in Time
//! and Space* (Kuznetsov & Ravi, PACT 2015) is a set of lower bounds on
//! lock-based TMs. This crate makes them observable by implementing, over
//! the instrumented shared memory of [`ptm_sim`], one TM per point of the
//! design space the theorems carve out:
//!
//! | TM | weak DAP | invisible reads | read cost | escape hatch |
//! |----|----------|-----------------|-----------|--------------|
//! | [`ProgressiveTm`] | yes | yes | Θ(i) per i-th read — **the lower bound is tight** | — |
//! | [`VisibleReadTm`] | yes | **no** | O(1) | reads announce themselves |
//! | [`Tl2Tm`] | **no** | yes | O(1) | global version clock |
//! | [`NorecTm`] | **no** | yes | O(1) solo | global sequence lock |
//! | [`GlockTm`] | no | no | O(1) | serial execution |
//!
//! plus **Algorithm 1** ([`TmMutex`]): the mutex `L(M)` built from any
//! strictly serializable, strongly progressive single-object TM, which
//! carries the `Ω(n log n)` RMR bound of Theorem 9.
//!
//! The [`TmHarness`] drives any of these through exact executions
//! (step-contention-free per-operation fragments, or scripted concurrent
//! runs under seeded schedulers) and reports per-operation costs.
//!
//! ## Example
//!
//! ```
//! use ptm_core::{ProgressiveTm, SimTm, TmHarness};
//! use ptm_sim::{TObjId, TOpResult};
//! use std::sync::Arc;
//!
//! let mut h = TmHarness::new(1, |b| Arc::new(ProgressiveTm::install(b, 4)));
//! let p0 = 0.into();
//! h.begin(p0);
//! for i in 0..4 {
//!     let (res, cost) = h.read(p0, TObjId::new(i));
//!     assert_eq!(res, TOpResult::Value(0));
//!     // Incremental validation: the i-th read costs 3 + i steps.
//!     assert_eq!(cost.steps, 3 + i);
//! }
//! let (res, _) = h.try_commit(p0);
//! assert_eq!(res, TOpResult::Committed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod driver;
mod glock;
mod norec;
mod progressive;
mod tl2;
mod tm_mutex;
mod visible;

pub use api::{Aborted, SimTm, SimTxn, TmProperties};
pub use driver::{OpCost, ScriptOp, TmHarness, TxScript};
pub use glock::GlockTm;
pub use norec::NorecTm;
pub use progressive::ProgressiveTm;
pub use tl2::Tl2Tm;
pub use tm_mutex::TmMutex;
pub use visible::VisibleReadTm;

use ptm_sim::SimBuilder;
use std::sync::Arc;

/// Every TM implementation, in table order: the set the experiment
/// harness sweeps and the test suite audits.
pub const ALL_TMS: &[TmKind] = &[
    TmKind::Progressive,
    TmKind::Visible,
    TmKind::Tl2,
    TmKind::Norec,
    TmKind::Glock,
];

/// Enumerates the TM implementations for uniform experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmKind {
    /// [`ProgressiveTm`] — invisible reads + incremental validation.
    Progressive,
    /// [`VisibleReadTm`] — visible reads, O(1) validation.
    Visible,
    /// [`Tl2Tm`] — global clock.
    Tl2,
    /// [`NorecTm`] — global sequence lock, value validation.
    Norec,
    /// [`GlockTm`] — single global lock.
    Glock,
}

impl TmKind {
    /// Installs the TM into a builder.
    pub fn install(self, builder: &mut SimBuilder, n_tobjects: usize) -> Arc<dyn SimTm> {
        match self {
            TmKind::Progressive => Arc::new(ProgressiveTm::install(builder, n_tobjects)),
            TmKind::Visible => Arc::new(VisibleReadTm::install(builder, n_tobjects)),
            TmKind::Tl2 => Arc::new(Tl2Tm::install(builder, n_tobjects)),
            TmKind::Norec => Arc::new(NorecTm::install(builder, n_tobjects)),
            TmKind::Glock => Arc::new(GlockTm::install(builder, n_tobjects)),
        }
    }

    /// Table label of the TM.
    pub fn name(self) -> &'static str {
        match self {
            TmKind::Progressive => "ir-progressive",
            TmKind::Visible => "visible-reads",
            TmKind::Tl2 => "tl2",
            TmKind::Norec => "norec",
            TmKind::Glock => "glock",
        }
    }
}
