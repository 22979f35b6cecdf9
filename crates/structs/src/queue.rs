//! A Michael–Scott-style transactional FIFO queue.

use crate::link::{Link, NodeRef};
use ptm_stm::{Retry, TVar, Transaction, TxValue};
use std::fmt;

/// One queue node. The sentinel holds `value = None`; every other node
/// holds `Some` until it is dequeued past (the dequeue clears the value
/// of the node that becomes the new sentinel, so dropped-out elements do
/// not linger in the chain).
struct QNode<T: TxValue> {
    value: TVar<Option<T>>,
    next: TVar<Link<QNode<T>>>,
}

/// A transactional FIFO queue in the Michael–Scott shape: a singly
/// linked chain behind a sentinel, with `head` and `tail` pointer
/// `TVar`s.
///
/// The sentinel is the load-bearing trick: enqueuers touch only `tail`
/// and the last node's `next`, dequeuers touch only `head` and the first
/// real node — so while the queue is non-empty, producers and consumers
/// commit without conflicting (the transactional echo of why the
/// Michael–Scott queue scales).
///
/// # Examples
///
/// ```
/// use ptm_stm::Stm;
/// use ptm_structs::TQueue;
///
/// let stm = Stm::tl2();
/// let q: TQueue<u64> = TQueue::new();
/// stm.atomically(|tx| {
///     q.enqueue(tx, 1)?;
///     q.enqueue(tx, 2)
/// });
/// assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(1));
/// assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(2));
/// assert_eq!(stm.atomically(|tx| q.dequeue(tx)), None);
/// ```
pub struct TQueue<T: TxValue> {
    head: TVar<NodeRef<QNode<T>>>,
    tail: TVar<NodeRef<QNode<T>>>,
}

impl<T: TxValue> Clone for TQueue<T> {
    fn clone(&self) -> Self {
        TQueue {
            head: self.head.clone(),
            tail: self.tail.clone(),
        }
    }
}

impl<T: TxValue> fmt::Debug for TQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TQueue").finish_non_exhaustive()
    }
}

impl<T: TxValue> Default for TQueue<T> {
    fn default() -> Self {
        TQueue::new()
    }
}

impl<T: TxValue> TQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        let sentinel = NodeRef::new(QNode {
            value: TVar::new(None),
            next: TVar::new(None),
        });
        TQueue {
            head: TVar::new(sentinel.clone()),
            tail: TVar::new(sentinel),
        }
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn enqueue(&self, tx: &mut Transaction<'_>, value: T) -> Result<(), Retry> {
        let node = NodeRef::new(QNode {
            value: TVar::new(Some(value)),
            next: TVar::new(None),
        });
        let last = tx.read(&self.tail)?;
        tx.write(&last.0.next, Some(node.clone()))?;
        tx.write(&self.tail, node)
    }

    /// Removes and returns the element at the head, or `None` if the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn dequeue(&self, tx: &mut Transaction<'_>) -> Result<Option<T>, Retry> {
        let sentinel = tx.read(&self.head)?;
        match tx.read(&sentinel.0.next)? {
            None => Ok(None),
            Some(first) => {
                let value = tx.read(&first.0.value)?;
                // `first` becomes the new sentinel; clear its value so
                // the dequeued element is dropped with the transaction's
                // garbage, not retained by the chain.
                tx.write(&first.0.value, None)?;
                tx.write(&self.head, first)?;
                Ok(value)
            }
        }
    }

    /// Removes and returns the element at the head, **blocking** (via
    /// [`Transaction::retry`]) until one exists: the transaction parks
    /// on the queue's head stripes and re-runs when an enqueue commits —
    /// no polling loop, no busy re-execution against an empty queue.
    ///
    /// [`TQueue::dequeue`]'s `Ok(None)` return is the explicit
    /// *non-blocking* opt-out: use it when an empty queue is an answer
    /// (polling, draining, opportunistic batching) rather than a reason
    /// to wait. Combine this method with [`Transaction::or_else`] to
    /// wait on a queue *or* some other condition (e.g. a shutdown flag).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict, and — by design — whenever the queue is
    /// empty (the engine turns that into a parked wait rather than a
    /// spin).
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::Stm;
    /// use ptm_structs::TQueue;
    /// use std::thread;
    ///
    /// let stm = Stm::tl2();
    /// let q: TQueue<u64> = TQueue::new();
    /// thread::scope(|s| {
    ///     s.spawn(|| {
    ///         // Sleeps until the enqueue below commits.
    ///         assert_eq!(stm.atomically(|tx| q.dequeue_wait(tx)), 42);
    ///     });
    ///     stm.atomically(|tx| q.enqueue(tx, 42));
    /// });
    /// ```
    pub fn dequeue_wait(&self, tx: &mut Transaction<'_>) -> Result<T, Retry> {
        match self.dequeue(tx)? {
            Some(value) => Ok(value),
            None => tx.retry(),
        }
    }

    /// Reads the head element without removing it.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn peek(&self, tx: &mut Transaction<'_>) -> Result<Option<T>, Retry> {
        let sentinel = tx.read(&self.head)?;
        match tx.read(&sentinel.0.next)? {
            None => Ok(None),
            Some(first) => tx.read(&first.0.value),
        }
    }

    /// Whether the queue holds no elements.
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn is_empty(&self, tx: &mut Transaction<'_>) -> Result<bool, Retry> {
        // The sentinel is needed (its `next` is the next read); its
        // `next` link is only tested, so no reference count moves.
        let sentinel = tx.read(&self.head)?;
        tx.read_with(&sentinel.0.next, Option::is_none)
    }

    /// Number of queued elements (walks the whole chain; the entire
    /// queue joins the read set).
    ///
    /// # Errors
    ///
    /// [`Retry`] on conflict.
    pub fn len(&self, tx: &mut Transaction<'_>) -> Result<usize, Retry> {
        let mut n = 0;
        let mut cur = tx.read(&self.head)?;
        while let Some(next) = tx.read(&cur.0.next)? {
            n += 1;
            cur = next;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_stm::Stm;

    /// All six algorithms: the wait paths (`dequeue_wait`) must park and
    /// wake correctly under visible reads (Tlrw), mode switching
    /// (Adaptive) and snapshot reads (Mv), not just the invisible-read
    /// trio.
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
    fn fifo_order_all_modes() {
        for stm in engines() {
            let q: TQueue<u64> = TQueue::new();
            assert_eq!(stm.atomically(|tx| q.dequeue(tx)), None);
            stm.atomically(|tx| {
                for i in 0..5 {
                    q.enqueue(tx, i)?;
                }
                Ok(())
            });
            assert_eq!(stm.atomically(|tx| q.len(tx)), 5);
            assert_eq!(stm.atomically(|tx| q.peek(tx)), Some(0));
            for i in 0..5 {
                assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(i));
            }
            assert_eq!(stm.atomically(|tx| q.dequeue(tx)), None);
            assert!(stm.atomically(|tx| q.is_empty(tx)));
        }
    }

    #[test]
    fn enqueue_and_dequeue_compose_in_one_transaction() {
        let stm = Stm::tl2();
        let q: TQueue<String> = TQueue::new();
        let out = stm.atomically(|tx| {
            q.enqueue(tx, "a".into())?;
            q.enqueue(tx, "b".into())?;
            q.dequeue(tx)
        });
        assert_eq!(out, Some("a".to_string()));
        assert_eq!(stm.atomically(|tx| q.len(tx)), 1);
    }

    #[test]
    fn interleaved_refill_preserves_order() {
        let stm = Stm::norec();
        let q: TQueue<u64> = TQueue::new();
        stm.atomically(|tx| q.enqueue(tx, 1));
        stm.atomically(|tx| q.enqueue(tx, 2));
        assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(1));
        stm.atomically(|tx| q.enqueue(tx, 3));
        assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(2));
        assert_eq!(stm.atomically(|tx| q.dequeue(tx)), Some(3));
        assert_eq!(stm.atomically(|tx| q.dequeue(tx)), None);
    }

    #[test]
    fn dequeue_wait_blocks_until_an_enqueue_commits() {
        for stm in engines() {
            let q: TQueue<u64> = TQueue::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(stm.atomically(|tx| q.dequeue_wait(tx)), 7);
                });
                // Give the consumer a chance to park before producing.
                std::thread::sleep(std::time::Duration::from_millis(20));
                stm.atomically(|tx| q.enqueue(tx, 7));
            });
        }
    }

    #[test]
    fn dequeue_wait_returns_immediately_when_nonempty() {
        let stm = Stm::tl2();
        let q: TQueue<u64> = TQueue::new();
        stm.atomically(|tx| q.enqueue(tx, 1));
        assert_eq!(stm.atomically(|tx| q.dequeue_wait(tx)), 1);
    }

    #[test]
    fn clones_share_the_queue() {
        let stm = Stm::tl2();
        let a: TQueue<u64> = TQueue::new();
        let b = a.clone();
        stm.atomically(|tx| a.enqueue(tx, 9));
        assert_eq!(stm.atomically(|tx| b.dequeue(tx)), Some(9));
    }
}
