//! The dense constant-weight code `B(d, k)` of Section 3.2.
//!
//! `B(d, k)` is the set of all binary strings of length `d` with Hamming
//! weight exactly `k`. Its two properties used by Theorem 4.1:
//!
//! 1. `|B(d,k)| = C(d,k) ≥ (d/k)^k` for `k < d/2` (and `≥ 2^d/√(2d)` at
//!    `k = d/2`), so the code is exponentially large;
//! 2. two distinct codewords intersect in at most `k-1` positions.

use crate::binomial::binomial;
use crate::subsets::{colex_rank, colex_unrank, FixedWeightIter};

/// The code `B(d, k)` with an explicit canonical enumeration (colex order).
///
/// Codewords are `u64` bitmasks. The struct stores only `(d, k)` — words are
/// enumerated or (un)ranked on demand, so even astronomically large codes
/// (e.g. `B(60, 30)`) are representable.
///
/// ```
/// use pfe_codes::constant_weight::ConstantWeightCode;
///
/// let code = ConstantWeightCode::new(16, 4);
/// assert_eq!(code.size(), 1820); // C(16, 4)
/// // Distinct codewords share at most k-1 = 3 ones (Section 3.2).
/// let (a, b) = (code.unrank(0), code.unrank(1000));
/// assert!((a & b).count_ones() <= code.weight() - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantWeightCode {
    d: u32,
    k: u32,
}

impl ConstantWeightCode {
    /// Define `B(d, k)`.
    ///
    /// # Panics
    /// Panics if `d > 63` or `k > d`.
    pub fn new(d: u32, k: u32) -> Self {
        assert!(d <= 63, "B(d,k) supports d <= 63, got {d}");
        assert!(k <= d, "weight {k} exceeds dimension {d}");
        Self { d, k }
    }

    /// Dimension `d`.
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Weight `k`.
    pub fn weight(&self) -> u32 {
        self.k
    }

    /// `|B(d, k)| = C(d, k)`.
    pub fn size(&self) -> u128 {
        binomial(self.d as u64, self.k as u64).expect("C(d,k) fits in u128 for d <= 63")
    }

    /// Iterate all codewords in canonical (colex) order.
    pub fn iter(&self) -> FixedWeightIter {
        FixedWeightIter::new(self.d, self.k)
    }

    /// Membership test.
    pub fn contains(&self, word: u64) -> bool {
        word < (1u64 << self.d) && word.count_ones() == self.k
    }

    /// Canonical index of a codeword (the enumeration of Section 3.3 used to
    /// build Alice's Index input vector).
    ///
    /// # Panics
    /// Panics if `word ∉ B(d, k)`.
    pub fn rank(&self, word: u64) -> u128 {
        assert!(
            self.contains(word),
            "word {word:#x} not in B({}, {})",
            self.d,
            self.k
        );
        colex_rank(word)
    }

    /// Codeword with the given canonical index.
    ///
    /// # Panics
    /// Panics if `rank >= |B(d, k)|`.
    pub fn unrank(&self, rank: u128) -> u64 {
        assert!(rank < self.size(), "rank {rank} out of range");
        colex_unrank(self.k, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn size_matches_enumeration() {
        for (d, k) in [(8u32, 3u32), (10, 5), (12, 2), (6, 0), (6, 6)] {
            let code = ConstantWeightCode::new(d, k);
            assert_eq!(code.iter().count() as u128, code.size());
        }
    }

    #[test]
    fn pairwise_intersection_at_most_k_minus_1() {
        let code = ConstantWeightCode::new(10, 4);
        let words: Vec<u64> = code.iter().collect();
        for (i, &x) in words.iter().enumerate() {
            for &y in &words[i + 1..] {
                let shared = (x & y).count_ones();
                assert!(
                    shared < code.weight(),
                    "{x:b} and {y:b} share {shared} ones"
                );
            }
        }
    }

    #[test]
    fn rank_unrank_roundtrip() {
        let code = ConstantWeightCode::new(12, 5);
        for (i, w) in code.iter().enumerate() {
            assert_eq!(code.rank(w), i as u128);
            assert_eq!(code.unrank(i as u128), w);
        }
    }

    #[test]
    fn contains_rejects_wrong_weight_or_range() {
        let code = ConstantWeightCode::new(8, 3);
        assert!(code.contains(0b0000_0111));
        assert!(!code.contains(0b0000_0011));
        assert!(!code.contains(0b1_0000_0011)); // bit 8 out of range... weight 3 but d=8
        assert!(!code.contains(1 << 10));
    }

    #[test]
    fn huge_code_ranks_without_materializing() {
        let code = ConstantWeightCode::new(60, 30);
        assert!(code.size() > 1u128 << 55);
        let w = code.unrank(code.size() - 1);
        assert_eq!(w.count_ones(), 30);
        assert_eq!(code.rank(w), code.size() - 1);
    }

    #[test]
    #[should_panic(expected = "not in B(")]
    fn rank_panics_on_non_member() {
        ConstantWeightCode::new(8, 3).rank(0b1);
    }

    proptest! {
        #[test]
        fn prop_unrank_gives_members(d in 4u32..20, kfrac in 0.1f64..0.9) {
            let k = ((d as f64 * kfrac) as u32).clamp(1, d);
            let code = ConstantWeightCode::new(d, k);
            let size = code.size();
            let probes = [0u128, size / 3, size / 2, size - 1];
            for &r in &probes {
                let w = code.unrank(r);
                prop_assert!(code.contains(w));
                prop_assert_eq!(code.rank(w), r);
            }
        }
    }
}
