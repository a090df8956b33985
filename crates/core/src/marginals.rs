//! The independence-assumption baseline (Kveton–Muthukrishnan–Vu–Xian
//! \[13\] in the paper): estimate projected pattern frequencies from
//! per-column marginals under a (Naïve) Bayes model.
//!
//! The paper's introduction positions this as prior art: "Prior work
//! proceeded under strong statistical independence assumptions about the
//! values in different dimensions." The summary here stores only the `d`
//! per-column value histograms — `O(d·Q)` words, exponentially below the
//! `2^{Ω(d)}` the assumption-free problem requires — and estimates
//!
//! `f̂(b on C) = n · Π_{c ∈ C} (count_c(b_c) / n)`.
//!
//! Exact when columns are independent; arbitrarily wrong otherwise. The
//! tests (and the paper's framing) show both sides: accurate on product
//! distributions, badly wrong on correlated columns where the
//! assumption-free `UniformSampleSummary` stays correct — the reason the
//! paper's model does not assume independence.

use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::problem::{check_dims, QueryError};

/// Per-column marginal histograms (the Naïve-Bayes summary).
#[derive(Debug, Clone)]
pub struct MarginalsSummary {
    /// `counts[c][v]` = occurrences of value `v` in column `c`.
    counts: Vec<Vec<u64>>,
    n: u64,
    q: u32,
}

impl MarginalsSummary {
    /// Build by one pass over the data (`O(dQ)` space).
    pub fn build(data: &Dataset) -> Self {
        let d = data.dimension();
        let q = data.alphabet();
        let mut counts = vec![vec![0u64; q as usize]; d as usize];
        for i in 0..data.num_rows() {
            for (c, &v) in data.row_dense(i).iter().enumerate() {
                counts[c][v as usize] += 1;
            }
        }
        Self {
            counts,
            n: data.num_rows() as u64,
            q,
        }
    }

    /// Marginal probability of value `v` in column `c`.
    ///
    /// # Panics
    /// Panics if `c` or `v` is out of range.
    pub fn marginal(&self, c: u32, v: u16) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.counts[c as usize][v as usize] as f64 / self.n as f64
    }

    /// Naïve-Bayes estimate of the frequency of pattern `key` on `cols`.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn frequency(&self, cols: &ColumnSet, key: PatternKey) -> Result<f64, QueryError> {
        check_dims(self.counts.len() as u32, cols)?;
        let codec = PatternCodec::new(self.q, cols.len())?;
        let pattern = codec.decode(key);
        let mut prob = 1.0;
        for (c, &v) in cols.iter().zip(pattern.iter()) {
            prob *= self.marginal(c, v);
        }
        Ok(self.n as f64 * prob)
    }
}

impl SpaceUsage for MarginalsSummary {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .counts
                .iter()
                .map(|v| {
                    v.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u64>>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_sample::UniformSampleSummary;
    use pfe_row::FrequencyVector;
    use pfe_stream::gen::{correlated_columns, uniform_binary};

    #[test]
    fn exact_on_independent_columns() {
        // Uniform binary data: every column independent with p = 1/2; the
        // product estimate n/2^{|C|} must match the exact count closely.
        let d = 12;
        let n = 50_000;
        let data = uniform_binary(d, n, 1);
        let m = MarginalsSummary::build(&data);
        let cols = ColumnSet::from_indices(d, &[0, 3, 6, 9]).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        for (key, count) in exact.sorted_counts().into_iter().take(8) {
            let est = m.frequency(&cols, key).expect("ok");
            let rel = (est - count as f64).abs() / count as f64;
            assert!(rel < 0.15, "independent data: relative error {rel}");
        }
    }

    #[test]
    fn fails_on_correlated_columns_where_sampling_succeeds() {
        // The paper's point: independence is a *strong* assumption. On
        // correlated data (column 5.. copies of 0..5), the product estimate
        // is off by ~2^{copies}; the assumption-free sample is not.
        let d = 10;
        let n = 40_000;
        let data = correlated_columns(d, n, 5, 2);
        let marg = MarginalsSummary::build(&data);
        let samp = UniformSampleSummary::build(&data, 4096, 3);
        // Query a source column together with its (perfect) copies.
        let cols = ColumnSet::from_indices(d, &[0, 1, 5, 6, 7, 8, 9]).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        let (key, count) = exact
            .sorted_counts()
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .expect("nonempty");
        let est_marg = marg.frequency(&cols, key).expect("ok");
        let est_samp = samp.frequency(&cols, key).expect("ok");
        let err_marg = (est_marg - count as f64).abs() / count as f64;
        let err_samp = (est_samp - count as f64).abs() / count as f64;
        assert!(
            err_marg > 0.5,
            "marginals unexpectedly accurate on correlated data: {err_marg}"
        );
        assert!(
            err_samp < 0.1,
            "sampling error {err_samp} on correlated data"
        );
    }

    #[test]
    fn space_is_o_of_dq() {
        let data = uniform_binary(20, 100_000, 4);
        let m = MarginalsSummary::build(&data);
        // 20 columns x 2 values x 8 bytes + overhead: tiny, independent of n.
        assert!(m.space_bytes() < 4096, "space {}", m.space_bytes());
    }

    #[test]
    fn parameter_validation() {
        let data = uniform_binary(6, 100, 6);
        let m = MarginalsSummary::build(&data);
        let wrong = ColumnSet::full(5).expect("valid");
        assert!(matches!(
            m.frequency(&wrong, PatternKey::new(0)),
            Err(QueryError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_data_behaviour() {
        let data = Dataset::Binary(pfe_row::BinaryMatrix::new(4));
        let m = MarginalsSummary::build(&data);
        let cols = ColumnSet::full(4).expect("valid");
        assert_eq!(m.frequency(&cols, PatternKey::new(0)).expect("ok"), 0.0);
    }
}
