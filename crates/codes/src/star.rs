//! The `star_Q` operator (Definition 3.1): child-word expansion.
//!
//! For a binary word `y ∈ {0,1}^d` with support `M = supp(y)`,
//! `star_Q(y) = { z ∈ [Q]^d : supp(z) ⊆ M }` — all `Q^{|M|}` words over the
//! alphabet `[Q] = {0, ..., Q-1}` that are zero outside `M`. The lower-bound
//! instances are exactly unions `star_Q(T)` over Alice's held codewords.
//!
//! Child words are yielded as dense `Vec<u16>` rows of length `d` (matching
//! the `pfe-row` Q-ary matrix layout). The iterator enumerates the base-`Q`
//! counter over the support positions, so child `0` is the all-zero row and
//! child `Q^k - 1` has every support position at `Q-1`.

/// Number of child words `|star_Q(y)| = Q^k` for support size `k`, or
/// `None` on `u128` overflow.
pub fn star_count(q: u32, support_size: u32) -> Option<u128> {
    (q as u128).checked_pow(support_size)
}

/// Iterator over `star_Q(y)` for a support mask `y` (bit `i` = column `i`).
#[derive(Debug, Clone)]
pub struct StarIter {
    /// Support positions in ascending order.
    support: Vec<u32>,
    /// Row length `d`.
    d: u32,
    /// Alphabet size `Q >= 1`.
    q: u32,
    /// Next child index in `[0, Q^k]`; `None` when exhausted.
    next_index: Option<u128>,
    /// Total number of children.
    total: u128,
}

impl StarIter {
    /// Enumerate `star_Q(y)` where `y` is a `d`-bit support mask.
    ///
    /// # Panics
    /// Panics if `q == 0`, `d > 63`, `y` has bits at or above `d`, or the
    /// child count `Q^k` overflows `u128`.
    pub fn new(y: u64, d: u32, q: u32) -> Self {
        assert!(q >= 1, "alphabet size must be >= 1");
        assert!(d <= 63, "d must be <= 63");
        assert!(
            y < (1u64 << d) || d == 63 && y <= (u64::MAX >> 1),
            "support mask {y:#x} has bits above d={d}"
        );
        let support: Vec<u32> = (0..d).filter(|&i| y & (1 << i) != 0).collect();
        let total =
            star_count(q, support.len() as u32).expect("child-word count Q^k overflows u128");
        Self {
            support,
            d,
            q,
            next_index: Some(0),
            total,
        }
    }

    /// Materialize the child with the given index without iterating.
    ///
    /// # Panics
    /// Panics if `index >= Q^k`.
    fn child(&self, mut index: u128) -> Vec<u16> {
        assert!(index < self.total, "child index {index} out of range");
        let mut row = vec![0u16; self.d as usize];
        for &pos in &self.support {
            row[pos as usize] = (index % self.q as u128) as u16;
            index /= self.q as u128;
        }
        row
    }
}

impl Iterator for StarIter {
    type Item = Vec<u16>;

    fn next(&mut self) -> Option<Vec<u16>> {
        let idx = self.next_index?;
        if idx >= self.total {
            self.next_index = None;
            return None;
        }
        self.next_index = Some(idx + 1);
        Some(self.child(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match self.next_index {
            Some(i) if i < self.total => (self.total - i).min(usize::MAX as u128) as usize,
            _ => 0,
        };
        (remaining, Some(remaining))
    }
}

/// Enumerate `star_Q(U) = ∪_{u ∈ U} star_Q(u)` as a deduplicated list.
///
/// Children of different parents can coincide (any `z` supported in the
/// intersection of two supports); the union semantics of the paper
/// (Section 3.2: "star(U) = ∪ star(u)") requires dedup. Rows are returned
/// in lexicographic order for determinism.
pub fn star_union(words: &[u64], d: u32, q: u32) -> Vec<Vec<u16>> {
    let mut out: std::collections::BTreeSet<Vec<u16>> = std::collections::BTreeSet::new();
    for &w in words {
        for child in StarIter::new(w, d, q) {
            out.insert(child);
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_iteration() {
        let it = StarIter::new(0b1011, 6, 3);
        assert_eq!(it.total, 27);
        assert_eq!(it.count(), 27);
    }

    #[test]
    fn children_supported_within_parent() {
        let y = 0b10110u64;
        for child in StarIter::new(y, 8, 4) {
            for (i, &v) in child.iter().enumerate() {
                if y & (1 << i) == 0 {
                    assert_eq!(v, 0, "child has nonzero value off support");
                } else {
                    assert!(v < 4);
                }
            }
        }
    }

    #[test]
    fn children_distinct_and_complete() {
        let set: std::collections::HashSet<Vec<u16>> = StarIter::new(0b111, 3, 2).collect();
        assert_eq!(set.len(), 8); // all binary words of length 3
    }

    #[test]
    fn q_equals_one_yields_single_zero_child() {
        let children: Vec<_> = StarIter::new(0b11, 4, 1).collect();
        assert_eq!(children, vec![vec![0, 0, 0, 0]]);
    }

    #[test]
    fn empty_support_yields_zero_row() {
        let children: Vec<_> = StarIter::new(0, 5, 7).collect();
        assert_eq!(children, vec![vec![0; 5]]);
    }

    #[test]
    fn child_by_index_matches_iteration() {
        let it = StarIter::new(0b1101, 6, 3);
        let materialized: Vec<_> = it.clone().collect();
        for (i, row) in materialized.iter().enumerate() {
            assert_eq!(&it.child(i as u128), row);
        }
    }

    #[test]
    fn paper_example_star2_of_weight_k() {
        // |star_2(y)| = 2^k (Section 3.2): y of weight 4 gives 16 children.
        let it = StarIter::new(0b0110_1100, 8, 2);
        assert_eq!(it.total, 16);
    }

    #[test]
    fn union_dedups_shared_children() {
        // Two words sharing support bit 0: the all-zero row and rows
        // supported only on bit 0 coincide.
        let words = [0b011u64, 0b101u64];
        let union = star_union(&words, 3, 2);
        // star(011) = {000,001,010,011}, star(101) = {000,001,100,101}
        // union has 6 distinct rows.
        assert_eq!(union.len(), 6);
        // Sorted lexicographic, deterministic:
        assert_eq!(union[0], vec![0, 0, 0]);
    }

    #[test]
    fn union_size_upper_bound() {
        // |star(U)| <= sum |star(u)|.
        let words = [0b0011u64, 0b0110, 0b1100];
        let union = star_union(&words, 4, 3);
        assert!(union.len() <= 3 * 9);
        assert!(union.len() >= 9); // at least one parent's worth
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn child_index_out_of_range_panics() {
        StarIter::new(0b1, 2, 2).child(2);
    }

    #[test]
    fn size_hint_exact() {
        let mut it = StarIter::new(0b11, 4, 3);
        assert_eq!(it.size_hint(), (9, Some(9)));
        it.next();
        assert_eq!(it.size_hint(), (8, Some(8)));
    }
}
