//! Subset enumeration and colexicographic ranking for `u64` bitmask words.
//!
//! Fixed-weight enumeration (Gosper's hack) drives both the dense code
//! `B(d, k)` and the α-net construction; colex (un)ranking gives the
//! canonical enumeration `C = {w_1, w_2, ...}` that the Index reductions use
//! to translate between codewords and positions in Alice's bit vector.

use crate::binomial::binomial;

/// Iterator over all `d`-bit words of Hamming weight `k`, in increasing
/// numeric (= colexicographic) order, via Gosper's hack.
#[derive(Debug, Clone)]
pub struct FixedWeightIter {
    current: Option<u64>,
    limit: u64, // exclusive upper bound: 1 << d (or wraparound guard)
}

impl FixedWeightIter {
    /// Enumerate weight-`k` subsets of `[d]`.
    ///
    /// # Panics
    /// Panics if `d > 63` (words are `u64`; `d = 64` would overflow the
    /// termination sentinel) or `k > d`.
    pub fn new(d: u32, k: u32) -> Self {
        assert!(d <= 63, "FixedWeightIter supports d <= 63, got {d}");
        assert!(k <= d, "weight {k} exceeds dimension {d}");
        let first = if k == 0 { 0 } else { (1u64 << k) - 1 };
        Self {
            current: Some(first),
            limit: 1u64 << d,
        }
    }
}

impl Iterator for FixedWeightIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let v = self.current?;
        if v >= self.limit {
            self.current = None;
            return None;
        }
        // Gosper's hack: next integer with the same popcount.
        self.current = if v == 0 {
            None // weight 0 has exactly one word
        } else {
            let c = v & v.wrapping_neg();
            let r = v + c;
            if r >= self.limit || r < v {
                None
            } else {
                Some((((r ^ v) >> 2) / c) | r)
            }
        };
        Some(v)
    }
}

/// Colexicographic rank of a weight-`k` word among all weight-`k` words.
///
/// If the set bits are `b_1 < b_2 < ... < b_k`, the rank is
/// `Σ_j C(b_j, j)`. This matches the numeric ordering produced by
/// [`FixedWeightIter`].
pub fn colex_rank(word: u64) -> u128 {
    let mut rank: u128 = 0;
    let mut w = word;
    let mut j = 1u64;
    while w != 0 {
        let b = w.trailing_zeros() as u64;
        rank += binomial(b, j).expect("colex rank fits in u128");
        w &= w - 1;
        j += 1;
    }
    rank
}

/// Inverse of [`colex_rank`]: the weight-`k` word with the given rank.
///
/// # Panics
/// Panics if `rank >= C(d, k)` for every `d <= 63` (i.e. the rank is not
/// achievable with weight `k` inside a `u64`).
pub fn colex_unrank(k: u32, mut rank: u128) -> u64 {
    let mut word = 0u64;
    for j in (1..=k as u64).rev() {
        // Largest b with C(b, j) <= rank.
        let mut b = j - 1; // C(j-1, j) = 0 <= rank always
        loop {
            let next = binomial(b + 1, j).expect("fits");
            if next > rank || b + 1 > 63 {
                break;
            }
            b += 1;
        }
        assert!(b <= 63, "rank too large for u64 words");
        word |= 1u64 << b;
        rank -= binomial(b, j).expect("fits");
    }
    assert_eq!(rank, 0, "rank not exactly consumed: leftover {rank}");
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn enumeration_count_matches_binomial() {
        for d in 0..=16u32 {
            for k in 0..=d {
                let count = FixedWeightIter::new(d, k).count() as u128;
                assert_eq!(
                    count,
                    binomial(d as u64, k as u64).expect("fits"),
                    "count mismatch at d={d}, k={k}"
                );
            }
        }
    }

    #[test]
    fn enumeration_weights_and_bounds() {
        for w in FixedWeightIter::new(12, 5) {
            assert_eq!(w.count_ones(), 5);
            assert!(w < (1 << 12));
        }
    }

    #[test]
    fn enumeration_strictly_increasing() {
        let words: Vec<u64> = FixedWeightIter::new(14, 7).collect();
        assert!(words.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn weight_zero_and_full() {
        assert_eq!(FixedWeightIter::new(10, 0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            FixedWeightIter::new(10, 10).collect::<Vec<_>>(),
            vec![(1 << 10) - 1]
        );
    }

    #[test]
    fn colex_rank_matches_enumeration_order() {
        for (i, w) in FixedWeightIter::new(12, 4).enumerate() {
            assert_eq!(colex_rank(w), i as u128, "rank mismatch for word {w:b}");
        }
    }

    #[test]
    fn unrank_inverts_rank() {
        for w in FixedWeightIter::new(13, 6) {
            assert_eq!(colex_unrank(6, colex_rank(w)), w);
        }
    }

    #[test]
    fn unrank_high_dimension() {
        // Exercise ranks near the top for larger d.
        let d = 40u64;
        let k = 5u32;
        let total = binomial(d, k as u64).expect("fits");
        for rank in [0u128, 1, total / 2, total - 1] {
            let w = colex_unrank(k, rank);
            assert_eq!(w.count_ones(), k);
            assert_eq!(colex_rank(w), rank);
        }
    }

    #[test]
    #[should_panic(expected = "weight 5 exceeds dimension 3")]
    fn rejects_overweight() {
        FixedWeightIter::new(3, 5);
    }

    proptest! {
        #[test]
        fn prop_rank_roundtrip(bits in proptest::collection::btree_set(0u32..50, 1..8)) {
            let word: u64 = bits.iter().fold(0u64, |acc, &b| acc | (1 << b));
            let k = word.count_ones();
            prop_assert_eq!(colex_unrank(k, colex_rank(word)), word);
        }

        #[test]
        fn prop_rank_order_preserving(
            a in proptest::collection::btree_set(0u32..30, 4),
            b in proptest::collection::btree_set(0u32..30, 4),
        ) {
            let wa: u64 = a.iter().fold(0, |acc, &x| acc | (1 << x));
            let wb: u64 = b.iter().fold(0, |acc, &x| acc | (1 << x));
            // Colex rank order on equal-weight words = numeric order.
            prop_assert_eq!(wa < wb, colex_rank(wa) < colex_rank(wb));
        }
    }
}
