//! The TM interface over the simulated shared memory.
//!
//! Every TM algorithm in this crate implements [`SimTm`]: a factory of
//! per-transaction state ([`SimTxn`]) whose operations apply primitives
//! through a [`Ctx`], so each algorithm's step counts, RMRs and base-object
//! access patterns are measured exactly. A TM also self-describes the
//! design-space properties it claims ([`TmProperties`]); the test suite
//! validates each claim against the base-object log.

use ptm_sim::{Ctx, TObjId, TxId, Word};
use std::fmt;

/// The abort outcome `A_k` of a t-operation.
///
/// Returned as the error of every transactional operation. After an
/// operation returns `Aborted` the transaction is dead: the TM has already
/// released any resources it held, and further operations on the same
/// [`SimTxn`] are a programming error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Aborted;

impl fmt::Display for Aborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted")
    }
}

impl std::error::Error for Aborted {}

/// The two design-space coordinates on which the TMs of this crate
/// differ. (Every one of them is opaque and strongly progressive; the
/// test suite asserts both on every TM's histories unconditionally.)
/// `tests/visibility_dap.rs` checks each claim against the base-object
/// log of the TM's executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmProperties {
    /// Weak disjoint-access parallelism: disjoint-access transactions
    /// never contend on a base object.
    pub weak_dap: bool,
    /// Invisible reads: read-only transactions apply no nontrivial
    /// primitive (implies weak invisible reads).
    pub invisible_reads: bool,
}

/// A TM implementation over the simulated shared memory.
///
/// Implementations allocate their base-object layout up front (in their
/// constructor, from a [`ptm_sim::SimBuilder`]) and hand out transaction
/// state from [`begin`](SimTm::begin). They are shared across process
/// closures behind an `Arc`.
pub trait SimTm: Send + Sync {
    /// Short name used in experiment tables (e.g. `"ir-progressive"`).
    fn name(&self) -> &'static str;

    /// Number of t-objects the TM was installed with.
    fn n_tobjects(&self) -> usize;

    /// The properties this implementation claims.
    fn properties(&self) -> TmProperties;

    /// Starts a transaction. No steps are taken here; all algorithms
    /// initialize lazily at the first operation so that every memory step
    /// is attributed to a t-operation.
    fn begin(&self, tx: TxId) -> Box<dyn SimTxn>;
}

/// Per-transaction state: the three t-operations of the paper's interface.
///
/// All operations return [`Aborted`] as `Err`; per the TM interface, an
/// abort ends the transaction.
pub trait SimTxn: Send {
    /// `read_k(X)`: returns the value of `X` or aborts.
    ///
    /// # Errors
    ///
    /// [`Aborted`] on a data conflict with a concurrent transaction.
    fn read(&mut self, ctx: &Ctx, x: TObjId) -> Result<Word, Aborted>;

    /// `write_k(X, v)`: buffers or applies the write, or aborts.
    ///
    /// # Errors
    ///
    /// [`Aborted`] on a data conflict with a concurrent transaction.
    fn write(&mut self, ctx: &Ctx, x: TObjId, v: Word) -> Result<(), Aborted>;

    /// `tryC_k()`: attempts to commit.
    ///
    /// # Errors
    ///
    /// [`Aborted`] if the transaction cannot be serialized.
    fn try_commit(&mut self, ctx: &Ctx) -> Result<(), Aborted>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aborted_displays() {
        assert_eq!(Aborted.to_string(), "transaction aborted");
    }

    #[test]
    fn traits_are_object_safe() {
        // Compile-time check: the traits must be usable as trait objects.
        fn _takes_tm(_: &dyn SimTm) {}
        fn _takes_txn(_: &mut dyn SimTxn) {}
    }
}
