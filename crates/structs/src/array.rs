//! A fixed-length transactional array.

use ptm_stm::{Retry, TVar, Transaction, TxValue};
use std::fmt;
use std::sync::Arc;

/// A fixed-length array of transactional slots.
///
/// Each element lives in its own [`TVar`], so transactions touching
/// disjoint indices conflict only through orec-stripe aliasing. Cloning
/// the array is cheap and clones share the slots.
///
/// # Examples
///
/// ```
/// use ptm_stm::Stm;
/// use ptm_structs::TArray;
///
/// let stm = Stm::tl2();
/// let a = TArray::new(4, 0u64);
/// stm.atomically(|tx| {
///     a.set(tx, 0, 10)?;
///     a.set(tx, 3, 30)?;
///     a.swap(tx, 0, 3)
/// });
/// assert_eq!(a.load_all(), vec![30, 0, 0, 10]);
/// ```
pub struct TArray<T> {
    slots: Arc<[TVar<T>]>,
}

impl<T> Clone for TArray<T> {
    fn clone(&self) -> Self {
        TArray {
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<T: TxValue + fmt::Debug> fmt::Debug for TArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TArray")
            .field("len", &self.slots.len())
            .finish()
    }
}

impl<T: TxValue> TArray<T> {
    /// An array of `len` slots, each initialized to a clone of `init`.
    pub fn new(len: usize, init: T) -> Self {
        TArray {
            slots: (0..len).map(|_| TVar::new(init.clone())).collect(),
        }
    }

    /// An array taking its length and initial values from `values`.
    pub fn from_vec(values: Vec<T>) -> Self {
        TArray {
            slots: values.into_iter().map(TVar::new).collect(),
        }
    }

    /// Number of slots (fixed at construction).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array has zero slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The underlying variable at `i`, for composing with raw
    /// [`TVar`]-level code.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn var(&self, i: usize) -> &TVar<T> {
        &self.slots[i]
    }

    /// Reads slot `i`.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, tx: &mut Transaction<'_>, i: usize) -> Result<T, Retry> {
        tx.read(&self.slots[i])
    }

    /// Writes slot `i`.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&self, tx: &mut Transaction<'_>, i: usize, value: T) -> Result<(), Retry> {
        tx.write(&self.slots[i], value)
    }

    /// Applies `f` to slot `i` (read-modify-write).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn update(
        &self,
        tx: &mut Transaction<'_>,
        i: usize,
        f: impl FnOnce(T) -> T,
    ) -> Result<(), Retry> {
        tx.modify(&self.slots[i], f)
    }

    /// Exchanges the values at `i` and `j` atomically.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap(&self, tx: &mut Transaction<'_>, i: usize, j: usize) -> Result<(), Retry> {
        if i == j {
            return Ok(());
        }
        let a = tx.read(&self.slots[i])?;
        let b = tx.read(&self.slots[j])?;
        tx.write(&self.slots[i], b)?;
        tx.write(&self.slots[j], a)
    }

    /// A consistent snapshot of every slot, in index order: one
    /// [`Transaction::read_each`] over the slots, cloning each value once
    /// into a vector sized up front.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn snapshot(&self, tx: &mut Transaction<'_>) -> Result<Vec<T>, Retry> {
        let mut out = Vec::with_capacity(self.slots.len());
        tx.read_each(&self.slots, |v| out.push(v.clone()))?;
        Ok(out)
    }

    /// Reads every slot non-transactionally (per-slot snapshots; use
    /// [`TArray::snapshot`] inside a transaction for a consistent view).
    pub fn load_all(&self) -> Vec<T> {
        self.slots.iter().map(TVar::load).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::Stm;

    #[test]
    fn new_get_set_swap() {
        let stm = Stm::tl2();
        let a = TArray::new(3, 1u64);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        stm.atomically(|tx| {
            a.set(tx, 1, 5)?;
            a.update(tx, 2, |x| x + 9)?;
            a.swap(tx, 0, 1)
        });
        assert_eq!(a.load_all(), vec![5, 1, 10]);
        assert_eq!(a.var(2).load(), 10);
    }

    #[test]
    fn from_vec_and_snapshot() {
        let stm = Stm::norec();
        let a = TArray::from_vec(vec![1u64, 2, 3]);
        let snap = stm.atomically(|tx| a.snapshot(tx));
        assert_eq!(snap, vec![1, 2, 3]);
        let empty: TArray<u64> = TArray::from_vec(Vec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn swap_same_index_is_noop() {
        let stm = Stm::incremental();
        let a = TArray::new(2, 7u64);
        stm.atomically(|tx| a.swap(tx, 1, 1));
        assert_eq!(a.load_all(), vec![7, 7]);
    }

    #[test]
    fn clones_share_slots() {
        let stm = Stm::tl2();
        let a = TArray::new(1, 0u64);
        let b = a.clone();
        stm.atomically(|tx| a.set(tx, 0, 42));
        assert_eq!(b.load_all(), vec![42]);
    }
}
