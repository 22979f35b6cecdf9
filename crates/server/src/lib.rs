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
//! whose keys land on several shards commits as **one group** through
//! the engine's [`commit_all`](ptm_stm::Transaction::commit_all), taking
//! the shards in ascending index: lock every touched shard's commit
//! locks, validate every shard's read set, stage the write-ahead record,
//! and only then publish — at one clock tick in one timestamp domain,
//! shard by shard otherwise. Every shard's write locks are held before
//! any shard's reads are validated, so the cross-shard commit is
//! two-phase and serializable (no write skew across shards), and each
//! shard's locks are exactly those its single-instance commit would
//! have held across its own write back, so the per-algorithm
//! serialization arguments carry over — a concurrent consistent
//! [`scan`](ShardedKv::scan) (itself a read-only group: one snapshot of
//! every shard in one timestamp domain, a validation of every shard
//! otherwise) can never observe a multi-shard transfer torn. See
//! `ptm_stm::engine::twophase`'s module docs for the full
//! serializability, torn-cut and deadlock-freedom arguments; this
//! crate's obligation is the ascending lock order.
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
