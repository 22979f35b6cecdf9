//! A sharded transactional key-value service over the native STM.
//!
//! This crate is the serving tier the ROADMAP's north star asks for: it
//! turns the single-instance [`Stm`](ptm_stm::Stm) engine into a system
//! that answers get/put/scan/multi-key-transact over **N shards**, each
//! shard its own `Stm` instance (own orec table) with a
//! hash-partitioned [`THashMap`](ptm_structs::THashMap) on top. The
//! shards of a store whose algorithm serves snapshots (Mv, Adaptive)
//! share one clock and one snapshot registry — one timestamp domain;
//! every other algorithm keeps a clock per shard.
//!
//! The interesting part is the cross-shard path. A multi-key transaction
//! whose keys land on several shards commits through an **ordered
//! two-phase commit** built from the engine's
//! [`prepare_commit`](ptm_stm::Transaction::prepare_commit) /
//! [`commit_prepared_all`](ptm_stm::Transaction::commit_prepared_all)
//! split: prepare every touched shard in ascending shard index (lock +
//! validate, nothing published), and only when *all* prepares hold,
//! publish them — at one clock tick in one timestamp domain, one by one
//! otherwise. Each shard's prepare acquires exactly the locks that
//! shard's single-instance commit would have held across its own write
//! back, so the established per-algorithm serialization arguments carry
//! over — a concurrent consistent [`scan`](ShardedKv::scan) (itself a
//! read-only 2PC: one snapshot of every shard in one timestamp domain,
//! a revalidation of every shard otherwise) can never observe a
//! multi-shard transfer torn. See
//! `ptm_stm::engine::twophase`'s module docs for the full torn-cut and
//! deadlock-freedom arguments; this crate's obligation is the ascending
//! prepare order.
//!
//! Durability is a property of the same store, not a second type:
//! [`ShardedKv::open`] (also reachable as [`DurableKv::open`] —
//! [`DurableKv`] is an alias) attaches one write-ahead log per shard,
//! after which every write through the one
//! `get`/`put`/`remove`/`scan`/`transact` surface — and through the one
//! transaction type, [`ServiceTx`] — is logged inside the publish
//! critical section and acknowledged only once durable. The on-disk
//! format, recovery and checkpoints live in [`durability`].
//!
//! The crate holds the store and nothing that drives it: load
//! generation, latency histograms and the per-layer cost ladder belong
//! to the repo benchmark (`benchmark/`, declared by `BENCHMARK.json`),
//! which reaches this crate through its public API only.

pub mod durability;
pub mod kv;

pub use durability::{DurabilityConfig, DurableKv, RecoveryReport};
pub use kv::{ServiceConfig, ServiceTx, ShardedKv};
