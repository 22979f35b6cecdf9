//! Legality, opacity, and strict serializability.
//!
//! Section 3 of the paper: a t-sequential execution is *legal* if every
//! t-read returns the latest written value of the item; a finite history is
//! **opaque** if *some completion* of it is equivalent to a legal
//! t-complete t-sequential history `S` that respects the real-time order,
//! and **strictly serializable** if the same holds for the subsequence of
//! committed transactions (`cseq` of a completion).
//!
//! Both checks are genuinely search problems (opacity checking is
//! NP-complete in general); this module implements a backtracking search
//! over serialization orders with real-time-order pruning and memoization
//! on (segment, placed-set, committed-state) triples. A history is cut at
//! its quiescent points (no transaction live) into segments searched in
//! order, so a long run is limited only by its widest stretch of
//! overlapping transactions (128), not by its length.

use crate::history::{History, TOp, TxRecord, TxStatus};
use ptm_sim::{TObjId, TOpDesc, TOpResult, TxId, Word};
use std::collections::{BTreeMap, HashSet};

/// Default initial value of every t-object (matches the simulator TMs).
pub const INITIAL_VALUE: Word = 0;

/// Replays one transaction's operations against the committed state,
/// checking read legality. Returns the transaction's write overlay if the
/// replay is legal, `None` otherwise.
fn replay_tx(tx: &TxRecord, state: &BTreeMap<TObjId, Word>) -> Option<BTreeMap<TObjId, Word>> {
    let mut local: BTreeMap<TObjId, Word> = BTreeMap::new();
    for op in &tx.ops {
        match (op.desc, op.result) {
            (TOpDesc::Read(x), TOpResult::Value(v)) => {
                let expected = local
                    .get(&x)
                    .or_else(|| state.get(&x))
                    .copied()
                    .unwrap_or(INITIAL_VALUE);
                if v != expected {
                    return None;
                }
            }
            (TOpDesc::Read(_), TOpResult::Aborted) => {
                // A t-read returning A_k is unconstrained.
            }
            (TOpDesc::Write(x, v), TOpResult::Ok) => {
                local.insert(x, v);
            }
            (TOpDesc::Write(_, _), TOpResult::Aborted) => {}
            (TOpDesc::TryCommit, _) => {}
            // Any other combination is a malformed history; treat as
            // illegal rather than panic so checkers degrade gracefully.
            _ => return None,
        }
    }
    Some(local)
}

/// Checks that the given total `order` of transactions is a legal
/// serialization of `h`: reads see the latest committed writes (or their
/// own), and only committed transactions' writes take effect.
///
/// `order` must contain each transaction at most once; transactions of `h`
/// not in `order` are simply ignored (used by strict serializability,
/// which orders only committed transactions).
pub fn is_legal_serialization(h: &History, order: &[TxId]) -> bool {
    let mut state: BTreeMap<TObjId, Word> = BTreeMap::new();
    for &id in order {
        let Some(tx) = h.tx(id) else { return false };
        let Some(overlay) = replay_tx(tx, &state) else {
            return false;
        };
        if tx.status() == TxStatus::Committed {
            state.extend(overlay);
        }
    }
    true
}

/// Checks that `order` respects the real-time order of `h` restricted to
/// the transactions it contains.
pub fn respects_real_time(h: &History, order: &[TxId]) -> bool {
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[..i] {
            // b placed before a: require NOT a ≺ b.
            if h.precedes(a, b) {
                return false;
            }
        }
    }
    true
}

/// Splits `candidates` at their quiescent cuts: points no candidate's
/// events span, so every candidate before a cut precedes (in real time)
/// every candidate after it. Segments come back in real-time order,
/// each sorted by first event.
fn quiescent_segments(h: &History, candidates: &[TxId]) -> Vec<Vec<TxId>> {
    let mut sorted: Vec<&TxRecord> = candidates
        .iter()
        .map(|&id| h.tx(id).expect("candidate in history"))
        .collect();
    sorted.sort_by_key(|tx| tx.first_seq());
    let mut segments: Vec<Vec<TxId>> = Vec::new();
    // Last event of the current segment; a transaction that is not
    // t-complete precedes nothing, so it spans to the end.
    let mut reach: Option<usize> = None;
    for tx in sorted {
        if reach.is_none_or(|r| r < tx.first_seq()) {
            segments.push(Vec::new());
        }
        let last = if tx.t_complete() {
            tx.last_seq()
        } else {
            usize::MAX
        };
        reach = reach.max(Some(last));
        segments.last_mut().expect("pushed above").push(tx.id);
    }
    segments
}

/// Backtracking search for a legal total order of `candidates` that
/// respects real-time order. Returns a witness order if one exists.
///
/// The search runs segment by segment between quiescent cuts (every
/// serialization places a segment wholly before the next), with one
/// `u128` placed-mask per segment. It still backtracks across a cut: two
/// concurrent blind writes leave a segment in either of two states, and
/// the next segment may serialize from only one of them.
///
/// # Panics
///
/// Panics if one segment holds more than 128 transactions.
fn search_serialization(h: &History, candidates: &[TxId]) -> Option<Vec<TxId>> {
    let segments = quiescent_segments(h, candidates);
    // pred_masks[s][i]: members of segment s (by index) that must precede
    // member i.
    let pred_masks: Vec<Vec<u128>> = segments
        .iter()
        .map(|seg| {
            assert!(
                seg.len() <= 128,
                "serialization search supports at most 128 transactions per quiescent \
                 segment; this one has {}",
                seg.len()
            );
            seg.iter()
                .map(|&a| {
                    let before = seg.iter().enumerate().filter(|&(_, &b)| h.precedes(b, a));
                    before.fold(0u128, |mask, (j, _)| mask | 1 << j)
                })
                .collect()
        })
        .collect();

    // An explicit stack, not recursion: a long run is one node per
    // transaction deep.
    let key = |n: &Node| {
        let state = n.state.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
        (n.seg, n.placed, state)
    };
    let mut failed = HashSet::new();
    let mut order = Vec::with_capacity(candidates.len());
    let mut stack = vec![Node {
        seg: 0,
        placed: 0,
        state: BTreeMap::new(),
        next: 0,
    }];
    while let Some(node) = stack.last_mut() {
        let Some(members) = segments.get(node.seg) else {
            return Some(order);
        };
        let mut child = None;
        while child.is_none() && node.next < members.len() {
            let i = node.next;
            node.next += 1;
            if node.placed & (1 << i) != 0 || pred_masks[node.seg][i] & !node.placed != 0 {
                continue;
            }
            let tx = h.tx(members[i]).expect("candidate in history");
            let Some(overlay) = replay_tx(tx, &node.state) else {
                continue;
            };
            let mut state = node.state.clone();
            if tx.status() == TxStatus::Committed {
                state.extend(overlay);
            }
            let placed = node.placed | 1 << i;
            let (seg, placed) = if placed.count_ones() as usize == members.len() {
                (node.seg + 1, 0)
            } else {
                (node.seg, placed)
            };
            let next = Node {
                seg,
                placed,
                state,
                next: 0,
            };
            if !failed.contains(&key(&next)) {
                child = Some((tx.id, next));
            }
        }
        if let Some((id, next)) = child {
            order.push(id);
            stack.push(next);
        } else {
            let dead = stack.pop().expect("the node just examined");
            failed.insert(key(&dead));
            order.pop();
        }
    }
    None
}

/// One node of [`search_serialization`]: `placed` members of segment
/// `seg` are serialized (every earlier segment wholly), leaving the
/// committed `state`; members from index `next` on are still to try.
struct Node {
    seg: usize,
    placed: u128,
    state: BTreeMap<TObjId, Word>,
    next: usize,
}

/// All completions of `h`: live transactions are aborted; commit-pending
/// transactions are either committed or aborted (both variants generated).
///
/// Synthetic responses are appended "at the end of the history" (fresh
/// sequence numbers past every real event), which is exactly what a
/// completion means for the real-time order.
pub fn completions(h: &History) -> Vec<History> {
    let incomplete: Vec<TxId> = h
        .transactions()
        .filter(|t| !t.t_complete())
        .map(|t| t.id)
        .collect();
    if incomplete.is_empty() {
        return vec![h.clone()];
    }
    let commit_pending: Vec<TxId> = incomplete
        .iter()
        .copied()
        .filter(|&id| h.tx(id).expect("listed").status() == TxStatus::CommitPending)
        .collect();

    let max_seq = h.transactions().map(TxRecord::last_seq).max().unwrap_or(0);

    let mut out = Vec::new();
    // Enumerate commit/abort choices for commit-pending transactions.
    for choice in 0..(1u32 << commit_pending.len()) {
        let mut variant = h.clone();
        let mut next_seq = max_seq + 1;
        for &id in &incomplete {
            let commit = commit_pending
                .iter()
                .position(|&c| c == id)
                .is_some_and(|k| choice & (1 << k) != 0);
            let rec = variant
                .tx_mut(id)
                .expect("transaction listed as incomplete");
            let (desc, invoke_seq) = match rec.pending.take() {
                Some((d, s)) => (d, s),
                None => {
                    // Live between operations: append a tryC that aborts.
                    let s = next_seq;
                    next_seq += 1;
                    (TOpDesc::TryCommit, s)
                }
            };
            let result = if commit && desc == TOpDesc::TryCommit {
                TOpResult::Committed
            } else {
                TOpResult::Aborted
            };
            rec.ops.push(TOp {
                desc,
                result,
                invoke_seq,
                response_seq: next_seq,
            });
            next_seq += 1;
        }
        out.push(variant);
    }
    out
}

/// Finds an opaque serialization of a completion of `h`: a legal total
/// order of **all** transactions respecting real-time order. Returns the
/// witness order if one exists.
pub fn find_opaque_serialization(h: &History) -> Option<Vec<TxId>> {
    completions(h).iter().find_map(|c| {
        let all: Vec<TxId> = c.transactions().map(|t| t.id).collect();
        search_serialization(c, &all)
    })
}

/// Whether `h` is opaque.
pub fn is_opaque(h: &History) -> bool {
    find_opaque_serialization(h).is_some()
}

/// Finds a strictly serializable serialization of `h`: a legal total order
/// of the **committed** transactions of some completion, respecting
/// real-time order. Returns the witness order if one exists.
pub fn find_strict_serialization(h: &History) -> Option<Vec<TxId>> {
    completions(h).iter().find_map(|c| {
        let committed: Vec<TxId> = c.committed();
        search_serialization(c, &committed)
    })
}

/// Whether `h` is strictly serializable.
pub fn is_strictly_serializable(h: &History) -> bool {
    find_strict_serialization(h).is_some()
}

impl History {
    /// Mutable access to a transaction record, for building completions.
    pub(crate) fn tx_mut(&mut self, id: TxId) -> Option<&mut TxRecord> {
        self.txs_mut().get_mut(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::testutil::LogBuilder;

    #[test]
    fn sequential_history_is_opaque() {
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 5).commit(0, 1);
        b.read(1, 2, 0, 5).commit(1, 2);
        let h = b.history();
        let s = find_opaque_serialization(&h).expect("opaque");
        assert_eq!(s, vec![TxId::new(1), TxId::new(2)]);
        assert!(is_strictly_serializable(&h));
    }

    /// `n` sequential increments of x0 spread over three processes; the
    /// last one reads `last_read` instead of the value its predecessor
    /// wrote when given.
    fn increments(n: u64, last_read: Option<Word>) -> History {
        let mut b = LogBuilder::new();
        for i in 1..=n {
            let pid = (i % 3) as usize;
            let seen = if i == n {
                last_read.unwrap_or(i - 1)
            } else {
                i - 1
            };
            b.read(pid, i, 0, seen).write(pid, i, 0, i).commit(pid, i);
        }
        b.history()
    }

    #[test]
    fn long_sequential_history_is_searched_segment_by_segment() {
        // 500 transactions, far past one mask's 128, every one its own
        // quiescent segment.
        let h = increments(500, None);
        assert_eq!(quiescent_segments(&h, &h.committed()).len(), 500);
        let s = find_opaque_serialization(&h).expect("opaque");
        assert_eq!(s, (1..=500).map(TxId::new).collect::<Vec<_>>());
        // One stale read in the last segment is still caught.
        let corrupted = increments(500, Some(3));
        assert!(!is_opaque(&corrupted));
        assert!(!is_strictly_serializable(&corrupted));
    }

    #[test]
    fn search_backtracks_across_a_quiescent_cut() {
        // T1 and T2 blind-write x concurrently (one segment, two possible
        // end states); T3 starts after both and reads T1's value, so only
        // the order that placed T1 last lets the next segment serialize.
        let mut b = LogBuilder::new();
        let (w1, w2) = (
            TOpDesc::Write(TObjId::new(0), 1),
            TOpDesc::Write(TObjId::new(0), 2),
        );
        b.invoke(0, 1, w1).invoke(1, 2, w2);
        b.respond(0, 1, w1, TOpResult::Ok)
            .respond(1, 2, w2, TOpResult::Ok);
        b.commit(0, 1).commit(1, 2);
        b.read(2, 3, 0, 1).commit(2, 3);
        let h = b.history();
        assert_eq!(quiescent_segments(&h, &h.committed()).len(), 2);
        let s = find_opaque_serialization(&h).expect("opaque");
        assert_eq!(s, [2, 1, 3].map(TxId::new));
    }

    #[test]
    #[should_panic(expected = "this one has 129")]
    fn a_segment_over_128_transactions_is_refused_by_size() {
        let mut b = LogBuilder::new();
        let r = TOpDesc::Read(TObjId::new(0));
        for t in 1..=129 {
            b.invoke(t as usize, t, r);
        }
        for t in 1..=129 {
            b.respond(t as usize, t, r, TOpResult::Value(0));
            b.commit(t as usize, t);
        }
        is_opaque(&b.history());
    }

    #[test]
    fn stale_read_after_commit_is_not_serializable() {
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 5).commit(0, 1);
        // T2 starts after T1 committed but reads the initial value.
        b.read(1, 2, 0, 0).commit(1, 2);
        let h = b.history();
        assert!(!is_strictly_serializable(&h));
        assert!(!is_opaque(&h));
    }

    #[test]
    fn lost_update_is_not_serializable() {
        // Two concurrent increments both read 0 and commit.
        let mut b = LogBuilder::new();
        let r = TOpDesc::Read(TObjId::new(0));
        b.invoke(0, 1, r);
        b.invoke(1, 2, r);
        b.respond(0, 1, r, TOpResult::Value(0));
        b.respond(1, 2, r, TOpResult::Value(0));
        b.write(0, 1, 0, 1);
        b.write(1, 2, 0, 2);
        b.commit(0, 1);
        b.commit(1, 2);
        let h = b.history();
        assert!(!is_strictly_serializable(&h));
    }

    #[test]
    fn aborted_inconsistent_read_violates_opacity_only() {
        // T2 (concurrent with T1) reads x=0, then T1 writes x=1,y=1 and
        // commits, then T2 reads y=1 and aborts: strictly serializable
        // (T2 is aborted) but not opaque (no position for T2 sees x=0,y=1).
        let mut b = LogBuilder::new();
        b.read(1, 2, 0, 0); // T2: read x -> 0
        b.write(0, 1, 0, 1).write(0, 1, 1, 1).commit(0, 1); // T1 commits x=1,y=1
        b.read(1, 2, 1, 1); // T2: read y -> 1 (inconsistent with x=0)
        b.abort(1, 2);
        let h = b.history();
        assert!(is_strictly_serializable(&h));
        assert!(!is_opaque(&h));
    }

    #[test]
    fn read_own_write() {
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 7).read(0, 1, 0, 7).commit(0, 1);
        let h = b.history();
        assert!(is_opaque(&h));
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 9).abort(0, 1);
        b.read(1, 2, 0, 0).commit(1, 2);
        let h = b.history();
        assert!(is_opaque(&h));

        // If T2 saw the aborted write instead, the history is not opaque.
        let mut b2 = LogBuilder::new();
        b2.write(0, 1, 0, 9).abort(0, 1);
        b2.read(1, 2, 0, 9).commit(1, 2);
        assert!(!is_opaque(&b2.history()));
    }

    #[test]
    fn real_time_order_is_enforced() {
        // T1 and T2 are sequential; a serialization reversing them is
        // rejected even though it would be legal value-wise.
        let mut b = LogBuilder::new();
        b.read(0, 1, 0, 0).commit(0, 1);
        b.read(1, 2, 1, 0).commit(1, 2);
        let h = b.history();
        assert!(respects_real_time(&h, &[TxId::new(1), TxId::new(2)]));
        assert!(!respects_real_time(&h, &[TxId::new(2), TxId::new(1)]));
        // Both are legal value-wise:
        assert!(is_legal_serialization(&h, &[TxId::new(2), TxId::new(1)]));
    }

    #[test]
    fn commit_pending_may_be_committed_in_a_completion() {
        // T1 wrote x=3 and invoked tryC without a response; T2 later reads
        // x=3. Strict serializability holds via the completion that
        // commits T1.
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 3);
        b.invoke(0, 1, TOpDesc::TryCommit);
        b.read(1, 2, 0, 3).commit(1, 2);
        let h = b.history();
        assert!(!h.is_complete());
        assert!(is_strictly_serializable(&h));
        assert!(is_opaque(&h));
    }

    #[test]
    fn live_transactions_are_aborted_in_completions() {
        let mut b = LogBuilder::new();
        b.write(0, 1, 0, 3); // live, never invokes tryC
        b.read(1, 2, 0, 0).commit(1, 2);
        let h = b.history();
        let comps = completions(&h);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].is_complete());
        assert!(is_opaque(&h));
    }

    #[test]
    fn concurrent_reads_serialize_either_way() {
        // T1 writes x=1 and commits while T2 reads concurrently; T2's read
        // may see 0 (serialized before) or 1 (after).
        for seen in [0u64, 1] {
            let mut b = LogBuilder::new();
            let r = TOpDesc::Read(TObjId::new(0));
            b.invoke(1, 2, r);
            b.write(0, 1, 0, 1).commit(0, 1);
            b.respond(1, 2, r, TOpResult::Value(seen));
            b.commit(1, 2);
            let h = b.history();
            assert!(is_opaque(&h), "seen={seen}");
        }
    }

    #[test]
    fn figure1_execution_shape_is_strictly_serializable() {
        // The execution of Figure 1b: T_phi reads X1..X_{i-1} (initial
        // values), T_i writes X_i and commits, then T_phi reads X_i and
        // must return the new value.
        let i = 4;
        let mut b = LogBuilder::new();
        for x in 0..i - 1 {
            b.read(0, 1, x, 0);
        }
        b.write(1, 2, i - 1, 42).commit(1, 2);
        b.read(0, 1, i - 1, 42);
        b.commit(0, 1);
        let h = b.history();
        assert!(is_opaque(&h));
        // Serialization must put T_phi after T_2.
        let s = find_opaque_serialization(&h).unwrap();
        let pos = |id: u64| s.iter().position(|&t| t == TxId::new(id)).unwrap();
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn figure1_old_value_after_commit_is_not_serializable() {
        // Claim 4's forbidden case: after T_i commits a new value, T_phi's
        // read of X_i returning the OLD value while T_phi also read other
        // items written by a committed T_l would be illegal. Minimal
        // variant: T_phi read X1=nv (from committed T_l), then T_i commits
        // X2=nv2, then T_phi reads X2 -> old value 0: no serialization.
        let mut b = LogBuilder::new();
        b.write(1, 10, 0, 7).commit(1, 10); // T_l: X1 := 7
        b.read(0, 1, 0, 7); // T_phi reads X1 = 7 (so T_phi after T_l)
        b.write(1, 2, 1, 9).commit(1, 2); // T_i: X2 := 9
        b.read(0, 1, 1, 0); // T_phi reads X2 = 0 (old!)
        b.commit(0, 1);
        let h = b.history();
        // T_phi must be serialized after T_l, and T_i after T_l (real
        // time); T_phi reading X2=0 forces T_phi before T_i, which is fine
        // — wait, that IS serializable: T_l, T_phi, T_i.
        assert!(is_strictly_serializable(&h));

        // The genuinely forbidden shape needs T_i ≺_RT T_phi's read point
        // *and* T_phi to read X2's old value after also reading X1's new
        // value written by the SAME transaction T_i.
        let mut b2 = LogBuilder::new();
        b2.write(1, 2, 0, 7).write(1, 2, 1, 9).commit(1, 2); // T_i: X1:=7, X2:=9
        b2.read(0, 1, 0, 7); // T_phi sees X1 = 7 => after T_i
        b2.read(0, 1, 1, 0); // but X2 = 0 => before T_i. Contradiction.
        b2.commit(0, 1);
        assert!(!is_strictly_serializable(&b2.history()));
    }
}
