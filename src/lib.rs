//! # progressive-tm — reproduction of *Progressive Transactional Memory
//! in Time and Space* (Kuznetsov & Ravi, PACT 2015)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — the paper's abstract machine: a deterministic shared-memory
//!   simulator with step counting and RMR accounting in the write-through
//!   CC, write-back CC and DSM models;
//! * [`model`] — the formal definitions of Sections 2–3 as checkers:
//!   opacity, strict serializability, (strong) progressiveness,
//!   invisible/weak-invisible reads, weak DAP;
//! * [`core`] — the TM algorithms spanning the design space the theorems
//!   carve out, plus Algorithm 1 (`L(M)`, the mutex reduction of
//!   Theorem 9) and the execution-driving harness;
//! * [`mutex`] — classic mutual-exclusion baselines with known RMR
//!   profiles;
//! * [`stm`] — a native STM for real threads with TL2 / NOrec /
//!   incremental-validation / TLRW visible-read / multi-version
//!   snapshot modes plus an adaptive mode controller that switches
//!   between the invisible-read and multi-version machinery as the
//!   workload shifts: lock-free optimistic (or reader-announcing, or
//!   chain-walking) reads over a striped orec table and timestamped
//!   version chains, a shared transaction log, pluggable contention
//!   management, and opt-in t-operation history recording;
//! * [`structs`] — transactional data structures over the native STM
//!   (`TArray`, `THashMap`, `TQueue`, `TSet`), each usable under any of
//!   the six algorithms;
//! * [`server`] — the serving tier: a sharded transactional KV store
//!   (`ShardedKv`) routing keys across N independent `Stm` shards, with
//!   cross-shard transactions and consistent scans committed via an
//!   ordered two-phase commit — at one snapshot and one clock tick on
//!   an Mv or Adaptive store, whose shards share one timestamp domain,
//!   over per-shard clocks otherwise — and optional per-shard
//!   write-ahead logs with crash recovery.
//!
//! See `README.md` for the quick start, the crate map, and how to run
//! the benchmarks.
//!
//! ## Example: the headline result in five lines
//!
//! ```
//! use progressive_tm::core::{ProgressiveTm, TmHarness};
//! use std::sync::Arc;
//!
//! // An invisible-read, weak-DAP progressive TM pays for opacity with
//! // incremental validation: the i-th read costs 3 + i steps.
//! let mut h = TmHarness::new(1, |b| Arc::new(ProgressiveTm::install(b, 8)));
//! h.begin(0.into());
//! let costs: Vec<usize> = (0..8)
//!     .map(|i| h.read(0.into(), i.into()).1.steps)
//!     .collect();
//! assert_eq!(costs, vec![3, 4, 5, 6, 7, 8, 9, 10]);
//! ```

#![warn(missing_docs)]

pub use ptm_core as core;
pub use ptm_model as model;
pub use ptm_mutex as mutex;
pub use ptm_server as server;
pub use ptm_sim as sim;
pub use ptm_stm as stm;
pub use ptm_structs as structs;
