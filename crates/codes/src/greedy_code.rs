//! Greedy deterministic construction of intersection-bounded codes.
//!
//! Lemma 3.2 proves codes with pairwise intersection at most `(ε²+γ)d`
//! exist via random sampling; the *greedy* construction walks the colex
//! enumeration of `B(d, k)` and keeps every word compatible with all kept
//! words. It is deterministic (no seed), never fails below the packing
//! bound, and serves as the fallback when rejection sampling exhausts —
//! plus as a cross-check that the random codes' sizes are in the right
//! regime (greedy is a maximal code; random sampling reaches a constant
//! fraction of it in our parameter ranges, which a test pins).

use crate::constant_weight::ConstantWeightCode;

/// A deterministically constructed code with verified pairwise
/// intersection bound.
#[derive(Debug, Clone)]
pub struct GreedyCode {
    words: Vec<u64>,
}

impl GreedyCode {
    /// Greedily select words of `B(d, k)` with pairwise intersections at
    /// most `cap`, stopping at `max_words` (or when the enumeration ends).
    ///
    /// Walks colex order, so the construction is canonical. Worst-case
    /// cost is `O(|B(d,k)| · |code|)`; intended for `d ≤ ~40`.
    ///
    /// # Panics
    /// Panics if `cap >= k` would make the constraint vacuous *and*
    /// `max_words` exceeds the code size (use `B(d,k)` directly then), or
    /// on invalid `(d, k)`.
    pub fn generate(d: u32, k: u32, cap: u32, max_words: usize) -> Self {
        assert!(max_words > 0, "need at least one word");
        let base = ConstantWeightCode::new(d, k);
        let mut words: Vec<u64> = Vec::new();
        for w in base.iter() {
            if words.len() >= max_words {
                break;
            }
            if words.iter().all(|&x| (x & w).count_ones() <= cap) {
                words.push(w);
            }
        }
        Self { words }
    }

    /// The selected words, in colex order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of words selected.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no word was selected (only for `max_words = 0`, which is
    /// rejected, so effectively never).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_code::{RandomCode, RandomCodeParams};

    /// Exhaustive check of the weight and the pairwise bound.
    fn verify(code: &GreedyCode, k: u32, cap: u32) -> bool {
        code.words.iter().enumerate().all(|(i, &x)| {
            x.count_ones() == k
                && code.words[i + 1..]
                    .iter()
                    .all(|&y| (x & y).count_ones() <= cap)
        })
    }

    #[test]
    fn greedy_respects_cap() {
        let code = GreedyCode::generate(20, 5, 2, 64);
        assert!(verify(&code, 5, 2));
        assert!(code.len() > 4, "greedy found only {} words", code.len());
    }

    #[test]
    fn deterministic() {
        let a = GreedyCode::generate(16, 4, 1, 32);
        let b = GreedyCode::generate(16, 4, 1, 32);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn first_word_is_colex_minimum() {
        let code = GreedyCode::generate(12, 3, 1, 8);
        assert_eq!(code.words()[0], 0b111);
    }

    #[test]
    fn max_words_respected() {
        let code = GreedyCode::generate(24, 6, 3, 5);
        assert_eq!(code.len(), 5);
    }

    #[test]
    fn disjoint_support_code_at_cap_zero() {
        // cap = 0 forces pairwise disjoint supports: exactly floor(d/k)
        // words fit, and greedy finds them all.
        let code = GreedyCode::generate(20, 5, 0, 100);
        assert_eq!(code.len(), 4);
        assert!(verify(&code, 5, 0));
    }

    #[test]
    fn greedy_at_least_matches_random_in_regime() {
        // At the Lemma 3.2 test parameters (d=32, k=8, cap=2), greedy must
        // reach at least the size the randomized construction achieves.
        let rand = RandomCode::generate(RandomCodeParams {
            d: 32,
            epsilon: 0.25,
            gamma: 0.03,
            target_size: 12,
            seed: 1,
        })
        .expect("random code");
        let greedy = GreedyCode::generate(32, 8, 2, 1000);
        assert!(
            greedy.len() >= rand.len(),
            "greedy {} below random {}",
            greedy.len(),
            rand.len()
        );
    }
}
