//! Property tests: the page-granular B+ tree behaves exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, while
//! maintaining all structural invariants.

use std::collections::BTreeMap;

use asr_pagesim::stats::IoStats;
use asr_pagesim::BPlusTree;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Range(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        any::<u16>().prop_map(|k| Op::Get(k % 512)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Range(a % 512, b % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op_strategy(), 1..400),
                           leaf_cap in 2usize..8, inner_cap in 3usize..8) {
        let mut tree: BPlusTree<u16, u32> =
            BPlusTree::with_capacities(leaf_cap, inner_cap, IoStats::new_handle());
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let tree_result = tree.insert(k, v);
                    match model.entry(k) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(tree_result.is_err(), "duplicate must be rejected");
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            prop_assert!(tree_result.is_ok());
                            e.insert(v);
                        }
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k).copied());
                }
                Op::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got: Vec<(u16, u32)> = tree.range_collect(&lo, &hi);
                    let want: Vec<(u16, u32)> =
                        model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.pages().len(), model.len());
        }
        tree.check_invariants().unwrap();

        // Full scans agree at the end.
        let mut scanned = Vec::new();
        tree.scan_all(|k, v| scanned.push((*k, *v)));
        let expected: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn bulk_insert_then_drain(keys in proptest::collection::btree_set(any::<u32>(), 1..600)) {
        let mut tree: BPlusTree<u32, u32> =
            BPlusTree::with_capacities(4, 5, IoStats::new_handle());
        for &k in &keys {
            tree.insert(k, k.wrapping_mul(7)).unwrap();
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.pages().len(), keys.len());
        for &k in &keys {
            prop_assert_eq!(tree.remove(&k), Some(k.wrapping_mul(7)));
        }
        tree.check_invariants().unwrap();
        prop_assert!(tree.pages().is_empty());
        prop_assert_eq!(tree.pages().height(), 1);
    }

    #[test]
    fn accounting_monotone_nonzero(keys in proptest::collection::btree_set(any::<u16>(), 1..200)) {
        let stats = IoStats::new_handle();
        let mut tree: BPlusTree<u16, ()> =
            BPlusTree::with_capacities(4, 4, std::rc::Rc::clone(&stats));
        for &k in &keys {
            let before = stats.accesses();
            tree.insert(k, ()).unwrap();
            prop_assert!(stats.accesses() > before, "every insert touches pages");
        }
        stats.reset();
        let k = *keys.iter().next().unwrap();
        tree.get(&k);
        prop_assert_eq!(stats.reads(), tree.pages().height() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk loading and item-at-a-time insertion produce behaviourally
    /// identical trees, and both satisfy every structural invariant.
    #[test]
    fn bulk_load_equals_incremental(keys in proptest::collection::btree_set(any::<u32>(), 0..500),
                                    leaf_cap in 2usize..9, inner_cap in 3usize..9) {
        let entries: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect();

        let mut bulk: BPlusTree<u32, u32> =
            BPlusTree::with_capacities(leaf_cap, inner_cap, IoStats::new_handle());
        bulk.fill(entries.clone()).unwrap();
        bulk.check_invariants().unwrap();

        let mut incr: BPlusTree<u32, u32> =
            BPlusTree::with_capacities(leaf_cap, inner_cap, IoStats::new_handle());
        for (k, v) in &entries {
            incr.insert(*k, *v).unwrap();
        }

        prop_assert_eq!(bulk.pages().len(), incr.pages().len());
        let mut a = Vec::new();
        bulk.scan_all(|k, v| a.push((*k, *v)));
        let mut b = Vec::new();
        incr.scan_all(|k, v| b.push((*k, *v)));
        prop_assert_eq!(a, b);

        // The bulk-loaded tree keeps working under mutation.
        for &(k, _) in entries.iter().step_by(3) {
            prop_assert_eq!(bulk.remove(&k), Some(k.wrapping_mul(31)));
        }
        bulk.check_invariants().unwrap();
    }
}
