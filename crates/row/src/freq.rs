//! Exact frequency vectors `f(A, C)` (Equation (1) of the paper).
//!
//! The frequency vector is conceptually of length `Q^{|C|}`; we materialize
//! only its support as a hash map from [`PatternKey`] to count. All exact
//! statistics the paper queries — `F_p` (Equation (2)), `ℓ_p` norms, heavy
//! hitters, point frequencies, and the exact `ℓ_p` sampling distribution —
//! are computed from this structure, making it the ground-truth oracle every
//! approximate summary is tested against.

use pfe_hash::builder::{seeded_map, SeededHashMap};

use crate::column_set::ColumnSet;
use crate::dataset::Dataset;
use crate::pattern::{PatternCodec, PatternCodecError, PatternKey};

/// Sparse exact frequency vector over projected patterns.
///
/// The paper's Section 2 running example:
///
/// ```
/// use pfe_row::{BinaryMatrix, ColumnSet, Dataset, FrequencyVector};
///
/// // A in {0,1}^{5x3}; bit i of each u64 is column i.
/// let a = Dataset::Binary(BinaryMatrix::from_rows(
///     3,
///     vec![0b011, 0b010, 0b100, 0b111, 0b011],
/// ));
/// let c = ColumnSet::from_indices(3, &[0, 1]).unwrap();
/// let f = FrequencyVector::compute(&a, &c).unwrap();
/// assert_eq!(f.f0(), 3);      // three distinct projected rows
/// assert_eq!(f.total(), 5);   // ||f||_1 = n, independent of C
/// ```
#[derive(Debug, Clone)]
pub struct FrequencyVector {
    counts: SeededHashMap<PatternKey, u64>,
    total: u64,
    codec: PatternCodec,
}

impl FrequencyVector {
    /// Compute `f(A, C)` exactly by a full pass over the data.
    ///
    /// # Errors
    /// Fails if the pattern domain `Q^{|C|}` is not bijectively packable.
    pub fn compute(data: &Dataset, cols: &ColumnSet) -> Result<Self, PatternCodecError> {
        let codec = data.codec_for(cols)?;
        let mut counts = seeded_map(0x5eed);
        let mut total = 0u64;
        for key in data.projected_keys(cols, &codec) {
            *counts.entry(key).or_insert(0) += 1;
            total += 1;
        }
        Ok(Self {
            counts,
            total,
            codec,
        })
    }

    /// The codec for this projection.
    pub fn codec(&self) -> &PatternCodec {
        &self.codec
    }

    /// `‖f‖_1 = n` — the number of rows, independent of `C` (the paper's
    /// observation that `F_1` needs one word of space).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `F_0 = ‖f‖_0`: number of distinct projected patterns.
    pub fn f0(&self) -> u64 {
        self.counts.len() as u64
    }

    /// `F_p = Σ_i f_i^p` for `p ≥ 0` (Equation (2)); `p = 0` counts the
    /// support, matching [`f0`](Self::f0).
    pub fn fp(&self, p: f64) -> f64 {
        assert!(p >= 0.0 && p.is_finite(), "F_p needs finite p >= 0");
        if p == 0.0 {
            return self.f0() as f64;
        }
        self.counts.values().map(|&c| (c as f64).powf(p)).sum()
    }

    /// `‖f‖_p = F_p^{1/p}` for `p > 0`.
    pub fn lp_norm(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p.is_finite(), "l_p norm needs finite p > 0");
        self.fp(p).powf(1.0 / p)
    }

    /// `f_{e(b)}`: exact frequency of a pattern.
    pub fn frequency(&self, key: PatternKey) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// The `φ`-`ℓ_p` heavy hitters: all patterns with
    /// `f_i ≥ φ‖f‖_p`, sorted by key for determinism.
    ///
    /// # Panics
    /// Panics if `phi` is outside `(0, 1]` or `p <= 0`.
    pub fn heavy_hitters(&self, phi: f64, p: f64) -> Vec<(PatternKey, u64)> {
        assert!(phi > 0.0 && phi <= 1.0, "phi {phi} outside (0,1]");
        let threshold = phi * self.lp_norm(p);
        let mut out: Vec<(PatternKey, u64)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c as f64 >= threshold)
            .map(|(&k, &c)| (k, c))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The exact `ℓ_p` sampling distribution: pairs `(key, f_i^p / F_p)`,
    /// sorted by key.
    ///
    /// # Panics
    /// Panics if `p <= 0` or the vector is empty.
    pub fn lp_distribution(&self, p: f64) -> Vec<(PatternKey, f64)> {
        assert!(p > 0.0, "l_p sampling needs p > 0");
        assert!(!self.counts.is_empty(), "empty frequency vector");
        let fp = self.fp(p);
        let mut out: Vec<(PatternKey, f64)> = self
            .counts
            .iter()
            .map(|(&k, &c)| (k, (c as f64).powf(p) / fp))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Iterate `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternKey, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// `(key, count)` pairs sorted by key.
    pub fn sorted_counts(&self) -> Vec<(PatternKey, u64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Number of distinct patterns (same as `f0`, but as `usize`).
    pub fn support_size(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BinaryMatrix;
    use crate::qary::QaryMatrix;

    /// The running example of Section 2 of the paper.
    fn paper_example() -> (Dataset, ColumnSet) {
        let rows = vec![0b011u64, 0b010, 0b100, 0b111, 0b011];
        (
            Dataset::Binary(BinaryMatrix::from_rows(3, rows)),
            ColumnSet::from_indices(3, &[0, 1]).expect("valid"),
        )
    }

    #[test]
    fn paper_example_frequency_vector() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        // f(A, C) = (1, 1, 0, 3) in the paper's (big-endian) indexing; the
        // multiset of nonzero counts is representation-independent.
        let mut counts: Vec<u64> = f.iter().map(|(_, c)| c).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 1, 3]);
        assert_eq!(f.f0(), 3);
        assert_eq!(f.total(), 5);
    }

    #[test]
    fn f1_is_row_count_for_any_projection() {
        let (data, _) = paper_example();
        for mask in 0..8u64 {
            let cols = ColumnSet::from_mask(3, mask).expect("valid");
            let f = FrequencyVector::compute(&data, &cols).expect("fits");
            assert_eq!(f.total(), 5);
            assert!((f.fp(1.0) - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fp_values_consistent() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        // Counts 1, 1, 3: F2 = 1 + 1 + 9 = 11; F0.5 = 1 + 1 + sqrt(3).
        assert!((f.fp(2.0) - 11.0).abs() < 1e-12);
        assert!((f.fp(0.5) - (2.0 + 3f64.sqrt())).abs() < 1e-12);
        assert_eq!(f.fp(0.0), 3.0);
        // l2 norm = sqrt(11).
        assert!((f.lp_norm(2.0) - 11f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn heavy_hitters_threshold() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        // phi = 0.5, p = 1: threshold 2.5 — only the count-3 pattern.
        let hh = f.heavy_hitters(0.5, 1.0);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].1, 3);
        // phi small enough: everything is a heavy hitter.
        assert_eq!(f.heavy_hitters(0.1, 1.0).len(), 3);
    }

    #[test]
    fn point_frequency_and_missing() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        // Key for (col0,col1)=(1,1) is 0b11 = 3 under little-endian binary.
        assert_eq!(f.frequency(PatternKey::new(3)), 3);
        // (col0,col1)=(0,1) -> key 0b10 = 2 appears once (row "0 1 0");
        // (0,0) -> key 0 appears once (row "0 0 1"); (1,0) -> key 1 never.
        assert_eq!(f.frequency(PatternKey::new(2)), 1);
        assert_eq!(f.frequency(PatternKey::new(0)), 1);
        assert_eq!(f.frequency(PatternKey::new(1)), 0);
    }

    #[test]
    fn lp_distribution_sums_to_one() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        for p in [0.5, 1.0, 2.0] {
            let dist = f.lp_distribution(p);
            let sum: f64 = dist.iter().map(|&(_, pr)| pr).sum();
            assert!((sum - 1.0).abs() < 1e-12, "p={p} sums to {sum}");
        }
        // For p=1 the probabilities are f_i / n.
        let d1 = f.lp_distribution(1.0);
        let max = d1.iter().map(|&(_, p)| p).fold(0.0, f64::max);
        assert!((max - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn qary_frequencies() {
        let m = QaryMatrix::from_rows(3, 3, &[[0u16, 1, 2], [0, 1, 2], [2, 1, 0]]);
        let data = Dataset::Qary(m);
        let cols = ColumnSet::from_indices(3, &[0, 2]).expect("valid");
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        assert_eq!(f.f0(), 2);
        let mut counts: Vec<u64> = f.iter().map(|(_, c)| c).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn empty_projection_single_pattern() {
        let (data, _) = paper_example();
        let cols = ColumnSet::empty(3).expect("valid");
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        assert_eq!(f.f0(), 1);
        assert_eq!(f.frequency(PatternKey::new(0)), 5);
    }

    #[test]
    fn sorted_counts_deterministic() {
        let (data, cols) = paper_example();
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        let a = f.sorted_counts();
        let b = f.sorted_counts();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
