//! # ptm-stm — a native software transactional memory
//!
//! The real-threads companion to the simulated TMs in `ptm-core`: a small
//! STM with six interchangeable validation algorithms, so both sides of
//! the paper's time–space tradeoff can be measured on actual hardware —
//! the *time* axis with four single-version designs, the *space* axis
//! with a multi-version one, and, with the adaptive mode, *exploited*
//! at runtime.
//!
//! * [`Stm::tl2`] — global version clock, O(1) **lock-free** read
//!   validation against a striped orec table (the production default);
//! * [`Stm::incremental`] — the paper's weak-DAP/invisible-reads design
//!   point: every read re-validates the whole read set, Θ(m²) total work
//!   for an `m`-read transaction (watch `validation_probes` in
//!   [`StmStats`]);
//! * [`Stm::norec`] — single global sequence lock with value-based
//!   validation;
//! * [`Stm::tlrw`] — TLRW-style **visible reads**: per-stripe
//!   reader–writer lock words, O(1) reads with *zero* validation, paid
//!   for with one shared-memory RMW inside every first read of a stripe
//!   (watch `reader_conflicts` in [`StmStats`]). Progressive, not
//!   strongly progressive.
//! * [`Stm::mv`] — **multi-version** storage: commits append timestamped
//!   versions to each variable's chain, so read-only transactions read
//!   the consistent snapshot named by their start time with *zero*
//!   validation and *zero* aborts under any write storm; superseded
//!   versions are reclaimed by a low-watermark collector (watch
//!   `snapshot_reads` / `versions_trimmed` / `max_chain_len` in
//!   [`StatsSnapshot`]). Time is traded for space — the paper's other
//!   axis.
//! * [`Stm::adaptive`] — a mode controller that samples windowed stats
//!   deltas and moves new attempts between the Tl2 and Mv read hooks —
//!   Mv while the read-only transactions are long scans, Tl2 otherwise
//!   — with one relaxed store, since every commit publishes the Mv way
//!   (tune with [`AdaptiveConfig`], observe via `mode_transitions` in
//!   [`StatsSnapshot`] and [`Stm::active_mode`]).
//!
//! ## Quick start
//!
//! ```
//! use ptm_stm::{Stm, TVar};
//!
//! let stm = Stm::tl2();
//! let checking = TVar::new(90u64);
//! let savings = TVar::new(10u64);
//!
//! // Transfer atomically; the closure re-runs on conflict.
//! stm.atomically(|tx| {
//!     let c = tx.read(&checking)?;
//!     let s = tx.read(&savings)?;
//!     tx.write(&checking, c - 30)?;
//!     tx.write(&savings, s + 30)?;
//!     Ok(())
//! });
//!
//! assert_eq!(checking.load() + savings.load(), 100);
//! ```
//!
//! Retry policy and orec geometry are configurable per instance:
//!
//! ```
//! use ptm_stm::{Algorithm, ExponentialBackoff, Stm};
//!
//! let stm = Stm::builder(Algorithm::Tl2)
//!     .max_attempts(10_000)
//!     .contention_manager(ExponentialBackoff::default())
//!     .orec_stripes(4096)
//!     .build();
//! let v = ptm_stm::TVar::new(1u64);
//! assert_eq!(stm.run(|tx| tx.read(&v)), Ok(1));
//! ```
//!
//! ## Architecture
//!
//! The engine is layered into one module per concern:
//!
//! | module | concern |
//! |--------|---------|
//! | [`mod@engine`](crate::Stm) | generic machinery, split by concern: [`Stm`] + [`Algorithm`] (`engine`), [`StmBuilder`] (`engine::builder`), [`Transaction`] and the one resolve point (`engine::transaction`), the one attempt step and its two drivers (`engine::attempt`), the prepare → publish commit pipeline every commit runs and cross-instance coordinators split ([`Prepared`], `engine::twophase`) |
//! | `algo`  | the strategy layer: one module per algorithm (begin / read / prepare / publish hooks), including the adaptive mode controller |
//! | `txlog` | read-set / write-set log shared by all algorithms |
//! | `orec`  | striped, cache-padded metadata words: versioned locks (TL2 / Incremental / Mv, and both Adaptive modes, across a switch untouched) or reader–writer locks (Tlrw) |
//! | `tvar`  | value cells: timestamped version chains behind an atomic latest-pointer with Fenwick-shaped skip links for sublinear snapshot walks (static Tl2, Incremental, NOrec and Tlrw swap the head; Mv and Adaptive append, trim, and bound via [`MvConfig`]) |
//! | `epoch` | deferred reclamation that keeps lock-free reads memory-safe, plus the snapshot registry whose low watermark (the clock floor while no snapshot is pinned, an exact slot scan otherwise) bounds version-chain trimming |
//! | [`cm`](ContentionManager) | pluggable retry policies |
//! | `stats` | commit/abort/validation-probe counters |
//! | [`recorder`] | opt-in t-operation history recording for the `ptm-model` checkers |
//! | [`wal`] | opt-in durability: a group-committed, checksummed write-ahead log appended from inside each publish critical section (the `ptm-server` recovery path builds on it) |
//!
//! ## Design notes
//!
//! A TL2 transactional read is *load orec word, load value pointer,
//! clone, re-check word* — it acquires no lock and performs **no
//! shared-memory write**, which is exactly the invisible-reads regime the
//! paper prices out; a Tlrw read instead *announces itself* with one
//! `fetch_add` on the stripe's reader–writer word and never validates. Values are immutable once published, so readers can never observe
//! a torn value; writers swap whole boxes under their commit-time
//! exclusion and retire the old ones to an epoch collector, which frees
//! them once every pinned reader has moved on. The `unsafe` needed for
//! this (pointer dereference on the read path, deferred frees) is
//! confined to the `tvar` and `epoch` modules, each carrying the safety
//! argument next to the code; the rest of the crate is `#![deny(unsafe_code)]`-clean.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod algo;
pub mod cm;
mod engine;
#[allow(unsafe_code)]
mod epoch;
mod orec;
pub mod recorder;
mod stats;
#[allow(unsafe_code)]
mod tvar;
mod txlog;
mod waiter;
pub mod wal;

pub use algo::adaptive::AdaptiveConfig;
pub use cm::{ContentionManager, Decision, ExponentialBackoff, ImmediateRetry};
pub use engine::{
    Algorithm, MvConfig, Prepared, RetriesExhausted, Retry, Stm, StmBuilder, Transaction,
};
pub use recorder::HistoryRecorder;
pub use stats::{StatsSnapshot, StmStats};
pub use tvar::{TVar, TxValue};
pub use wal::DurableTicket;
