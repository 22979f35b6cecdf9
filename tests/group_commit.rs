//! Group commits whose members span a timestamp domain (instances built
//! with `StmBuilder::build_beside`, sharing one clock and one snapshot
//! registry) and instances outside it. Two rules are under test, each
//! about every member rather than about the group's shape:
//!
//! * each domain a group spans publishes all of its members at one clock
//!   draw, whatever else the group holds — so a read-only group reading
//!   the domain at one snapshot never sees part of an updating group;
//! * a group that wrote nothing, and whose members all read at one `rv`
//!   of one domain, is one cut and commits without validating, however
//!   its members were opened.

use progressive_tm::stm::{Algorithm, Stm, TVar, Transaction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

/// Updating groups the writer commits per outsider.
const GROUPS: u64 = 3_000;

/// Runs one writer committing groups `{a, b beside a, outsider}` that
/// write `n` to `x`, `y` and `z`, against one reader committing
/// read-only sibling groups `{a, b}` that read `x` and `y` at one
/// snapshot. Returns the reader's torn reads (`x != y`) and its reads.
fn torn_reads(outsider: Algorithm) -> (u64, u64) {
    let a = Stm::mv();
    let b = Stm::builder(Algorithm::Mv).build_beside(&a);
    // An Mv or Adaptive outsider is a domain of its own.
    let c = Stm::new(outsider);
    let (x, y, z) = (TVar::new(0u64), TVar::new(0u64), TVar::new(0u64));
    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for n in 1..=GROUPS {
                let mut tx = a.transaction();
                tx.write(&x, n).expect("buffer write");
                let mut sibling = tx.beside(&b);
                sibling.write(&y, n).expect("buffer write");
                let mut other = c.transaction();
                other.write(&z, n).expect("buffer write");
                // The only writer: nothing can make the group fail.
                Transaction::commit_all(vec![tx, sibling, other], |_| {})
                    .expect("uncontended group");
            }
            done.store(true, Ordering::Release);
        });
        let reader = s.spawn(|| {
            let (mut torn, mut reads) = (0, 0);
            start.wait();
            while !done.load(Ordering::Acquire) {
                let mut tx = a.transaction();
                let seen_x = tx.read(&x).expect("snapshot reads do not abort");
                let mut sibling = tx.beside(&b);
                let seen_y = sibling.read(&y).expect("snapshot reads do not abort");
                Transaction::commit_all(vec![tx, sibling], |_| {}).expect("read-only group");
                reads += 1;
                torn += u64::from(seen_x != seen_y);
            }
            (torn, reads)
        });
        reader.join().expect("reader")
    })
}

#[test]
fn mixed_groups_publish_each_domain_at_one_draw_all_outsiders() {
    for outsider in Algorithm::ALL {
        let (torn, reads) = torn_reads(outsider);
        assert_eq!(
            torn, 0,
            "{outsider:?} outsider: {torn} of {reads} read-only groups saw x != y"
        );
    }
}

#[test]
fn read_only_attempts_at_one_rv_of_one_domain_commit_unvalidated() {
    // Two read-only attempts begun apart, one on each instance of a
    // domain, read one cut when no commit lands between their snapshot
    // draws — whichever hooks read (Adaptive starts on the Tl2 hooks) —
    // and commit together with no validation probe. A commit between
    // the draws gives them two `rv`s, and the group validates.
    let domains = [
        (Algorithm::Mv, Algorithm::Mv),
        (Algorithm::Adaptive, Algorithm::Adaptive),
        (Algorithm::Mv, Algorithm::Adaptive),
    ];
    for (first, second) in domains {
        let a = Stm::new(first);
        let b = Stm::builder(second).build_beside(&a);
        let (x, y, w) = (TVar::new(1u64), TVar::new(2u64), TVar::new(0u64));
        let probes = |commit_between: bool| {
            let before = [a.stats().snapshot(), b.stats().snapshot()];
            let mut tx = a.transaction();
            assert_eq!(tx.read(&x), Ok(1));
            if commit_between {
                a.atomically(|t| t.write(&w, 1));
            }
            let mut other = b.transaction();
            assert_eq!(other.read(&y), Ok(2));
            Transaction::commit_all(vec![tx, other], |_| {}).expect("read-only group");
            [(&a, &before[0]), (&b, &before[1])]
                .map(|(stm, before)| stm.stats().snapshot().since(before).validation_probes)
        };
        assert_eq!(probes(false), [0, 0], "{first:?} + {second:?}: one cut");
        assert_eq!(probes(true), [1, 1], "{first:?} + {second:?}: two rvs");
    }
}
