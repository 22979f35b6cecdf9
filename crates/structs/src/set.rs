//! An ordered transactional set over a sorted linked list.

use crate::link::{Link, NodeRef};
use ptm_stm::{Retry, TVar, Transaction, TxValue};
use std::fmt;

/// One list node: an immutable key and a transactional next link.
struct SNode<T: TxValue> {
    key: T,
    next: TVar<Link<SNode<T>>>,
}

/// A transactional ordered set: a sorted singly linked list whose links
/// are `TVar`s.
///
/// Membership operations walk the list inside the caller's transaction,
/// so the traversed prefix joins the read set and a conflicting
/// insert/remove anywhere on that prefix retries the transaction —
/// structurally disjoint operations (different list regions, with TL2's
/// striped orecs) proceed in parallel. Keys are immutable once inserted;
/// removal unlinks the node.
///
/// # Examples
///
/// ```
/// use ptm_stm::Stm;
/// use ptm_structs::TSet;
///
/// let stm = Stm::tl2();
/// let s: TSet<u64> = TSet::new();
/// stm.atomically(|tx| {
///     s.insert(tx, 30)?;
///     s.insert(tx, 10)?;
///     s.insert(tx, 20)
/// });
/// assert!(stm.atomically(|tx| s.contains(tx, &20)));
/// assert_eq!(stm.atomically(|tx| s.range(tx, &10, &20)), vec![10, 20]);
/// ```
pub struct TSet<T: TxValue> {
    head: TVar<Link<SNode<T>>>,
}

impl<T: TxValue> Clone for TSet<T> {
    fn clone(&self) -> Self {
        TSet {
            head: self.head.clone(),
        }
    }
}

impl<T: TxValue> fmt::Debug for TSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TSet").finish_non_exhaustive()
    }
}

impl<T: TxValue + Ord> Default for TSet<T> {
    fn default() -> Self {
        TSet::new()
    }
}

impl<T: TxValue + Ord> TSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        TSet {
            head: TVar::new(None),
        }
    }

    /// Inserts `key`; returns `true` if it was not already present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn insert(&self, tx: &mut Transaction<'_>, key: T) -> Result<bool, Retry> {
        let mut prev = self.head.clone();
        loop {
            match tx.read(&prev)? {
                Some(cur) if cur.0.key < key => prev = cur.0.next.clone(),
                Some(cur) if cur.0.key == key => return Ok(false),
                cur => {
                    // `cur` is the first node with a greater key (or the
                    // end of the list); splice the new node before it.
                    let node = NodeRef::new(SNode {
                        key,
                        next: TVar::new(cur),
                    });
                    tx.write(&prev, Some(node))?;
                    return Ok(true);
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn remove(&self, tx: &mut Transaction<'_>, key: &T) -> Result<bool, Retry> {
        let mut prev = self.head.clone();
        loop {
            match tx.read(&prev)? {
                Some(cur) if cur.0.key < *key => prev = cur.0.next.clone(),
                Some(cur) if cur.0.key == *key => {
                    let after = tx.read(&cur.0.next)?;
                    tx.write(&prev, after)?;
                    return Ok(true);
                }
                _ => return Ok(false),
            }
        }
    }

    /// Whether `key` is present.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn contains(&self, tx: &mut Transaction<'_>, key: &T) -> Result<bool, Retry> {
        let mut cur = tx.read(&self.head)?;
        while let Some(n) = cur {
            if n.0.key == *key {
                return Ok(true);
            }
            if n.0.key > *key {
                return Ok(false);
            }
            cur = tx.read(&n.0.next)?;
        }
        Ok(false)
    }

    /// Blocks (via [`Transaction::retry`]) until `key` is present: the
    /// waiter parks on the set's chain stripes and re-runs when a
    /// commit overlaps them. Use [`TSet::contains`]'s `Ok(false)` when
    /// absence is an answer rather than a reason to wait.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict, and whenever `key` is absent (the engine
    /// turns that into a parked wait).
    pub fn wait_contains(&self, tx: &mut Transaction<'_>, key: &T) -> Result<(), Retry> {
        if self.contains(tx, key)? {
            Ok(())
        } else {
            tx.retry()
        }
    }

    /// Every key in `[lo, hi]`, ascending (the inclusive range scan the
    /// ordered representation exists for).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn range(&self, tx: &mut Transaction<'_>, lo: &T, hi: &T) -> Result<Vec<T>, Retry> {
        let mut out = Vec::new();
        let mut cur = tx.read(&self.head)?;
        while let Some(n) = cur {
            if n.0.key > *hi {
                break;
            }
            if n.0.key >= *lo {
                out.push(n.0.key.clone());
            }
            cur = tx.read(&n.0.next)?;
        }
        Ok(out)
    }

    /// A consistent snapshot of every key, ascending.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn snapshot(&self, tx: &mut Transaction<'_>) -> Result<Vec<T>, Retry> {
        let mut out = Vec::new();
        let mut cur = tx.read(&self.head)?;
        while let Some(n) = cur {
            out.push(n.0.key.clone());
            cur = tx.read(&n.0.next)?;
        }
        Ok(out)
    }

    /// Number of keys (walks the whole list).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn len(&self, tx: &mut Transaction<'_>) -> Result<usize, Retry> {
        let mut n = 0;
        let mut cur = tx.read(&self.head)?;
        while let Some(node) = cur {
            n += 1;
            cur = tx.read(&node.0.next)?;
        }
        Ok(n)
    }

    /// Whether the set has no keys.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn is_empty(&self, tx: &mut Transaction<'_>) -> Result<bool, Retry> {
        // Tested in place: cloning the link would bump the head node's
        // reference count — a shared-line RMW pair — to read one tag.
        tx.read_with(&self.head, Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::Stm;

    /// All six algorithms: `wait_contains`'s park/wake path must work
    /// under visible reads (Tlrw), mode switching (Adaptive) and
    /// snapshot reads (Mv), not just the invisible-read trio.
    fn engines() -> Vec<Stm> {
        vec![
            Stm::tl2(),
            Stm::incremental(),
            Stm::norec(),
            Stm::tlrw(),
            Stm::mv(),
            Stm::adaptive(),
        ]
    }

    #[test]
    fn wait_contains_blocks_until_insert_all_modes() {
        for stm in engines() {
            let set: TSet<u64> = TSet::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    stm.atomically(|tx| set.wait_contains(tx, &5));
                });
                std::thread::sleep(std::time::Duration::from_millis(20));
                stm.atomically(|tx| set.insert(tx, 5));
            });
            assert!(
                stm.atomically(|tx| set.contains(tx, &5)),
                "{:?}",
                stm.algorithm()
            );
        }
    }

    #[test]
    fn insert_keeps_sorted_order_all_modes() {
        for stm in engines() {
            let s: TSet<u64> = TSet::new();
            for k in [5u64, 1, 9, 3, 7] {
                assert!(stm.atomically(|tx| s.insert(tx, k)));
            }
            assert!(!stm.atomically(|tx| s.insert(tx, 5)));
            assert_eq!(stm.atomically(|tx| s.snapshot(tx)), vec![1, 3, 5, 7, 9]);
            assert_eq!(stm.atomically(|tx| s.len(tx)), 5);
        }
    }

    #[test]
    fn remove_head_middle_tail_and_missing() {
        let stm = Stm::tl2();
        let s: TSet<u64> = TSet::new();
        stm.atomically(|tx| {
            for k in 1..=5 {
                s.insert(tx, k)?;
            }
            Ok(())
        });
        assert!(stm.atomically(|tx| s.remove(tx, &1))); // head
        assert!(stm.atomically(|tx| s.remove(tx, &3))); // middle
        assert!(stm.atomically(|tx| s.remove(tx, &5))); // tail
        assert!(!stm.atomically(|tx| s.remove(tx, &9))); // missing
        assert_eq!(stm.atomically(|tx| s.snapshot(tx)), vec![2, 4]);
    }

    #[test]
    fn contains_and_empty() {
        let stm = Stm::norec();
        let s: TSet<i64> = TSet::new();
        assert!(stm.atomically(|tx| s.is_empty(tx)));
        assert!(!stm.atomically(|tx| s.contains(tx, &0)));
        stm.atomically(|tx| s.insert(tx, -4));
        assert!(stm.atomically(|tx| s.contains(tx, &-4)));
        assert!(!stm.atomically(|tx| s.contains(tx, &4)));
        assert!(!stm.atomically(|tx| s.is_empty(tx)));
    }

    #[test]
    fn range_is_inclusive_and_sorted() {
        let stm = Stm::incremental();
        let s: TSet<u64> = TSet::new();
        stm.atomically(|tx| {
            for k in [10u64, 20, 30, 40, 50] {
                s.insert(tx, k)?;
            }
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| s.range(tx, &20, &40)), vec![20, 30, 40]);
        assert_eq!(stm.atomically(|tx| s.range(tx, &0, &9)), Vec::<u64>::new());
        assert_eq!(stm.atomically(|tx| s.range(tx, &45, &100)), vec![50]);
    }

    #[test]
    fn string_keys_work() {
        let stm = Stm::tl2();
        let s: TSet<String> = TSet::new();
        for k in ["pear", "apple", "fig"] {
            stm.atomically(|tx| s.insert(tx, k.to_string()));
        }
        assert_eq!(
            stm.atomically(|tx| s.snapshot(tx)),
            vec!["apple".to_string(), "fig".into(), "pear".into()]
        );
    }
}
