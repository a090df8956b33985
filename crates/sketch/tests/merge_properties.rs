//! Property tests for sketch merge semantics and estimator invariants —
//! the "mergeable summaries" contracts the α-net relies on when summaries
//! are built distributed and combined.

use pfe_sketch::traits::{DistinctSketch, FrequencySketch, MomentSketch, SpaceUsage};
use pfe_sketch::{AmsF2, Bjkst, CountMin, Kmv, LinearCounting};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// KMV merge is exactly union-equivalent, for any split of any stream.
    #[test]
    fn kmv_merge_union(
        items in proptest::collection::vec(any::<u64>(), 1..500),
        split in 0usize..500,
    ) {
        let split = split.min(items.len());
        let (left, right) = items.split_at(split);
        let mut a = Kmv::new(32, 7);
        let mut b = Kmv::new(32, 7);
        let mut u = Kmv::new(32, 7);
        for &x in left {
            a.insert(x);
            u.insert(x);
        }
        for &x in right {
            b.insert(x);
            u.insert(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.estimate(), u.estimate());
    }

    /// LinearCounting merge is exactly union-equivalent.
    #[test]
    fn lc_merge_union(
        items in proptest::collection::vec(any::<u64>(), 1..300),
        split in 0usize..300,
    ) {
        let split = split.min(items.len());
        let (left, right) = items.split_at(split);
        let mut a = LinearCounting::new(1024, 5);
        let mut b = LinearCounting::new(1024, 5);
        let mut u = LinearCounting::new(1024, 5);
        for &x in left {
            a.insert(x);
            u.insert(x);
        }
        for &x in right {
            b.insert(x);
            u.insert(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.estimate(), u.estimate());
    }

    /// Distinct sketches are insensitive to duplication and order.
    #[test]
    fn distinct_sketches_order_and_duplicate_insensitive(
        mut items in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let build_kmv = |xs: &[u64]| {
            let mut s = Kmv::new(64, 11);
            for &x in xs {
                s.insert(x);
            }
            s.estimate()
        };
        let forward = build_kmv(&items);
        items.reverse();
        let backward = build_kmv(&items);
        let doubled: Vec<u64> = items.iter().chain(items.iter()).copied().collect();
        let dup = build_kmv(&doubled);
        prop_assert_eq!(forward, backward);
        prop_assert_eq!(forward, dup);
    }

    /// CountMin merge adds estimates; estimates never underestimate.
    #[test]
    fn count_min_merge_and_one_sidedness(
        updates in proptest::collection::vec((0u64..64, 1i64..50), 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(updates.len());
        let mut a = CountMin::new(4, 128, 9);
        let mut b = CountMin::new(4, 128, 9);
        let mut truth = std::collections::HashMap::new();
        for (i, &(item, delta)) in updates.iter().enumerate() {
            *truth.entry(item).or_insert(0i64) += delta;
            if i < split {
                a.update(item, delta);
            } else {
                b.update(item, delta);
            }
        }
        a.merge(&b);
        for (&item, &count) in &truth {
            prop_assert!(a.estimate(item) >= count as f64, "CountMin underestimated");
        }
        prop_assert_eq!(a.total(), updates.iter().map(|&(_, d)| d).sum::<i64>());
    }

    /// AMS F2 merge equals the combined stream exactly (linear sketch).
    #[test]
    fn ams_merge_linear(
        updates in proptest::collection::vec((0u64..32, -20i64..20), 1..150),
        split in 0usize..150,
    ) {
        let split = split.min(updates.len());
        let mut a = AmsF2::new(3, 16, 13);
        let mut b = AmsF2::new(3, 16, 13);
        let mut c = AmsF2::new(3, 16, 13);
        for (i, &(item, delta)) in updates.iter().enumerate() {
            c.update(item, delta);
            if i < split {
                a.update(item, delta);
            } else {
                b.update(item, delta);
            }
        }
        a.merge(&b);
        prop_assert_eq!(a.estimate(), c.estimate());
    }

    /// BJKST never exceeds its budget's space envelope and stays within a
    /// loose factor of the truth on adversarial (clustered) item sets.
    #[test]
    fn bjkst_bounded_space_and_sane_estimates(
        base in any::<u64>(),
        n in 1usize..5000,
    ) {
        let mut s = Bjkst::new(128, 17);
        for i in 0..n as u64 {
            // Clustered IDs: sequential from a random base.
            s.insert(base.wrapping_add(i));
        }
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        prop_assert!(rel < 0.9, "BJKST relative error {rel} at n={n}");
        prop_assert!(s.space_bytes() < 16 * 1024);
    }
}
