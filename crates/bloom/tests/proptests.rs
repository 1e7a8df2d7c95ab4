//! Property-based tests for the Bloom filters and the validation cache:
//! the no-false-negative invariant above all.

use proptest::prelude::*;

use tactic_bloom::{BloomFilter, BloomParams, CachePolicy, ValidationCache};

proptest! {
    #[test]
    fn no_false_negatives_ever(keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..200)) {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        for k in &keys {
            bf.insert(k);
        }
        for k in &keys {
            prop_assert!(bf.contains(k), "false negative");
        }
    }

    #[test]
    fn reset_clears_all_members(keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..100)) {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        for k in &keys {
            bf.insert(k);
        }
        bf.reset();
        prop_assert_eq!(bf.occupancy(), 0.0);
        // After a reset only hash-collision "ghosts" could remain — there
        // are none because all bits are zero.
        for k in &keys {
            prop_assert!(!bf.contains(k));
        }
    }

    #[test]
    fn occupancy_monotone_under_insertion(count in 1usize..300) {
        let mut bf = BloomFilter::new(BloomParams::paper(500));
        let mut last = 0.0;
        for i in 0..count {
            bf.insert(&(i as u64).to_le_bytes());
            let fill = bf.occupancy();
            prop_assert!(fill >= last);
            last = fill;
        }
        prop_assert!(last <= 1.0);
    }

    #[test]
    fn estimated_fpp_bounded(count in 0usize..2000) {
        let mut bf = BloomFilter::new(BloomParams::paper(100));
        for i in 0..count {
            bf.insert(&(i as u64).to_le_bytes());
        }
        let fpp = bf.estimated_fpp();
        prop_assert!((0.0..=1.0).contains(&fpp));
    }

    #[test]
    fn sizing_formulas_agree_with_fpp_prediction(capacity in 16usize..5_000, exp in 2u32..6) {
        let target = 10f64.powi(-(exp as i32));
        let p = BloomParams::with_fixed_hashes(capacity, 5, target);
        let predicted = p.fpp_after(capacity);
        // Sizing solves for exactly the target at design capacity.
        prop_assert!(predicted <= target * 1.05, "predicted {predicted} > target {target}");
        prop_assert!(predicted >= target * 0.5, "sized too generously: {predicted} vs {target}");
    }

    /// Whatever an insert evicts — a reset of the one filter, or the
    /// oldest generation of a partition — the key it inserted is found.
    #[test]
    fn insert_never_loses_the_latest_key(count in 1usize..2_000, prefixes in 1u64..4) {
        for policy in [
            CachePolicy::MonolithicReset,
            CachePolicy::Generational { generations: 8, partitions: 2 },
        ] {
            let mut cache = ValidationCache::new(BloomParams::paper(50), policy);
            for i in 0..count as u64 {
                let prefix = format!("/prov{}", i % prefixes).into_bytes();
                let key = i.to_le_bytes();
                cache.insert(&prefix, &key);
                prop_assert!(cache.contains(&prefix, &key), "key inserted this round must be present");
            }
        }
    }
}
