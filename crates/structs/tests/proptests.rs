//! Property tests: random operation sequences applied transactionally to
//! `THashMap` / `TSet` must match a `std` reference model executed in
//! commit order. Sequences run single-threaded, so commit order is issue
//! order and every intermediate observation is checkable; the concurrent
//! counterpart (commit order recovered from an in-transaction stamp)
//! lives in `stress.rs`.

use proptest::prelude::*;
use ptm_stm::{Algorithm, Stm};
use ptm_structs::{THashMap, TSet};
use std::collections::{BTreeSet, HashMap};

/// One scripted operation: `(kind, key, value)`.
type Op = (u8, u64, u64);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // Keys are drawn from a small space so inserts, removes and lookups
    // collide often; values are arbitrary.
    proptest::collection::vec((0u8..6, 0u64..12, 0u64..1_000), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hashmap_matches_std_reference(ops in ops_strategy()) {
        for algo in Algorithm::ALL {
            let stm = Stm::new(algo);
            // Few buckets: force collision chains to be exercised.
            let map: THashMap<u64, u64> = THashMap::with_buckets(4);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for &(kind, key, val) in &ops {
                match kind % 5 {
                    0 | 1 => {
                        let got = stm.atomically(|tx| map.insert(tx, key, val));
                        prop_assert_eq!(got, reference.insert(key, val));
                    }
                    2 => {
                        let got = stm.atomically(|tx| map.remove(tx, &key));
                        prop_assert_eq!(got, reference.remove(&key));
                    }
                    3 => {
                        let got = stm.atomically(|tx| map.get(tx, &key));
                        prop_assert_eq!(got, reference.get(&key).copied());
                    }
                    _ => {
                        let got = stm.atomically(|tx| map.contains_key(tx, &key));
                        prop_assert_eq!(got, reference.contains_key(&key));
                    }
                }
            }
            prop_assert_eq!(stm.atomically(|tx| map.len(tx)), reference.len());
            let mut snap = stm.atomically(|tx| map.snapshot(tx));
            snap.sort_unstable();
            let mut want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            prop_assert_eq!(snap, want);
        }
    }

    #[test]
    fn set_matches_std_reference(ops in ops_strategy()) {
        for algo in Algorithm::ALL {
            let stm = Stm::new(algo);
            let set: TSet<u64> = TSet::new();
            let mut reference: BTreeSet<u64> = BTreeSet::new();
            for &(kind, key, other) in &ops {
                match kind % 4 {
                    0 | 1 => {
                        let got = stm.atomically(|tx| set.insert(tx, key));
                        prop_assert_eq!(got, reference.insert(key));
                    }
                    2 => {
                        let got = stm.atomically(|tx| set.remove(tx, &key));
                        prop_assert_eq!(got, reference.remove(&key));
                    }
                    _ => {
                        let got = stm.atomically(|tx| set.contains(tx, &key));
                        prop_assert_eq!(got, reference.contains(&key));
                        // Range scans agree on an arbitrary window too.
                        let (lo, hi) = (key.min(other % 12), key.max(other % 12));
                        let got = stm.atomically(|tx| set.range(tx, &lo, &hi));
                        let want: Vec<u64> = reference.range(lo..=hi).copied().collect();
                        prop_assert_eq!(got, want);
                    }
                }
            }
            prop_assert_eq!(stm.atomically(|tx| set.len(tx)), reference.len());
            let snap = stm.atomically(|tx| set.snapshot(tx));
            let want: Vec<u64> = reference.iter().copied().collect();
            prop_assert_eq!(snap, want);
        }
    }

    #[test]
    fn batched_transactions_are_all_or_nothing(ops in ops_strategy(), fail_at in 0usize..16) {
        // Apply a whole batch in ONE transaction that errors out partway:
        // none of the batch may be visible afterwards; then apply it
        // without the failure and compare against the reference applied
        // wholesale.
        let stm = Stm::builder(Algorithm::Tl2).max_attempts(1).build();
        let map: THashMap<u64, u64> = THashMap::with_buckets(4);
        let aborted = stm.run(|tx| {
            for (i, &(_, key, val)) in ops.iter().enumerate() {
                map.insert(tx, key, val)?;
                if i == fail_at {
                    return Err(ptm_stm::Retry);
                }
            }
            Ok(())
        });
        if fail_at < ops.len() {
            prop_assert!(aborted.is_err());
            prop_assert!(stm.atomically(|tx| map.is_empty(tx)));
        }
        let mut reference: HashMap<u64, u64> = HashMap::new();
        stm.atomically(|tx| {
            for &(_, key, val) in &ops {
                map.insert(tx, key, val)?;
            }
            Ok(())
        });
        for &(_, key, val) in &ops {
            reference.insert(key, val);
        }
        prop_assert_eq!(stm.atomically(|tx| map.len(tx)), reference.len());
        for (&k, &v) in &reference {
            prop_assert_eq!(stm.atomically(|tx| map.get(tx, &k)), Some(v));
        }
    }
}
