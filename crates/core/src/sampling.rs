//! `ℓ_p` sampling over projected patterns (Section 2.1, fourth problem).
//!
//! Two samplers:
//!
//! - [`ExactLpSampler`] — draws i.i.d. patterns from the exact distribution
//!   `p_i = f_i^p / F_p` given a materialized frequency vector. This is the
//!   "naïve" sampler available when the whole input is retained; Theorem
//!   5.5 shows that for `p ≠ 1` no small-space summary can replace it.
//! - ℓ_1 sampling comes for free from a uniform row sample (a uniform row,
//!   projected, is a pattern drawn with probability `f_i/n`); see
//!   [`UniformSampleSummary::l1_sample`](crate::uniform_sample::UniformSampleSummary::l1_sample)
//!   — the `p = 1` side of the paper's dichotomy.

use pfe_hash::rng::Xoshiro256pp;
use pfe_row::{FrequencyVector, PatternKey};
use pfe_sketch::traits::SpaceUsage;

use crate::problem::{QueryError, SampledPattern};

/// Exact `ℓ_p` sampler: inverse-CDF over the materialized distribution.
#[derive(Debug, Clone)]
pub struct ExactLpSampler {
    keys: Vec<PatternKey>,
    cdf: Vec<f64>,
    probs: Vec<f64>,
    rng: Xoshiro256pp,
}

impl ExactLpSampler {
    /// Build from an exact frequency vector.
    ///
    /// # Errors
    /// Fails on `p <= 0`, non-finite `p`, or an empty vector.
    pub fn from_freq_vector(f: &FrequencyVector, p: f64, seed: u64) -> Result<Self, QueryError> {
        if !p.is_finite() || p <= 0.0 {
            return Err(QueryError::BadParameter(format!(
                "p={p} must be finite and > 0"
            )));
        }
        if f.support_size() == 0 {
            return Err(QueryError::EmptyData);
        }
        let dist = f.lp_distribution(p);
        let mut keys = Vec::with_capacity(dist.len());
        let mut probs = Vec::with_capacity(dist.len());
        let mut cdf = Vec::with_capacity(dist.len());
        let mut acc = 0.0;
        for (k, pr) in dist {
            keys.push(k);
            probs.push(pr);
            acc += pr;
            cdf.push(acc);
        }
        // Guard the final entry against floating-point undershoot.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Self {
            keys,
            cdf,
            probs,
            rng: Xoshiro256pp::seed_from_u64(seed),
        })
    }

    /// Draw one pattern with its exact probability (the paper's contract:
    /// the sampler returns the item *and* an approximation of `p_i`; here
    /// the probability is exact).
    pub fn sample(&mut self) -> SampledPattern {
        let u = self.rng.f64();
        let idx = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        SampledPattern {
            key: self.keys[idx],
            probability: self.probs[idx],
        }
    }
}

impl SpaceUsage for ExactLpSampler {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<PatternKey>()
            + self.cdf.capacity() * std::mem::size_of::<f64>()
            + self.probs.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::{BinaryMatrix, ColumnSet, Dataset};

    fn fixture() -> FrequencyVector {
        // Counts: pattern 0 -> 1, pattern 2 -> 1, pattern 3 -> 3.
        let rows = vec![0b011u64, 0b010, 0b100, 0b111, 0b011];
        let data = Dataset::Binary(BinaryMatrix::from_rows(3, rows));
        let cols = ColumnSet::from_indices(3, &[0, 1]).expect("valid");
        FrequencyVector::compute(&data, &cols).expect("fits")
    }

    #[test]
    fn l1_matches_relative_frequencies() {
        let f = fixture();
        let mut s = ExactLpSampler::from_freq_vector(&f, 1.0, 1).expect("ok");
        let n = 50_000;
        let mut count3 = 0;
        for _ in 0..n {
            if s.sample().key == PatternKey::new(3) {
                count3 += 1;
            }
        }
        let frac = count3 as f64 / n as f64;
        assert!((frac - 0.6).abs() < 0.01, "l1 sampling fraction {frac}");
    }

    #[test]
    fn l2_squares_the_bias() {
        let f = fixture();
        // f = (1,1,3): l2 weights (1,1,9)/11 -> pattern 3 has mass 9/11.
        let mut s = ExactLpSampler::from_freq_vector(&f, 2.0, 2).expect("ok");
        let n = 50_000;
        let mut count3 = 0;
        for _ in 0..n {
            if s.sample().key == PatternKey::new(3) {
                count3 += 1;
            }
        }
        let frac = count3 as f64 / n as f64;
        assert!(
            (frac - 9.0 / 11.0).abs() < 0.01,
            "l2 sampling fraction {frac}"
        );
    }

    #[test]
    fn reported_probability_is_exact() {
        let f = fixture();
        let mut s = ExactLpSampler::from_freq_vector(&f, 2.0, 3).expect("ok");
        // f = (1,1,3): l2 weights (1,1,9)/11.
        let drawn = s.sample();
        let weight = if drawn.key == PatternKey::new(3) {
            9.0
        } else {
            1.0
        };
        assert!((weight / 11.0 - drawn.probability).abs() < 1e-15);
    }

    #[test]
    fn p_half_flattens_the_distribution() {
        let f = fixture();
        // p=0.5: weights (1,1,sqrt 3); pattern 3 mass = sqrt3/(2+sqrt3) ~ 0.464,
        // less than its l1 share of 0.6 — small p flattens.
        let mut s = ExactLpSampler::from_freq_vector(&f, 0.5, 4).expect("ok");
        let n = 50_000;
        let mut count3 = 0;
        for _ in 0..n {
            if s.sample().key == PatternKey::new(3) {
                count3 += 1;
            }
        }
        let frac = count3 as f64 / n as f64;
        let expect = 3f64.sqrt() / (2.0 + 3f64.sqrt());
        assert!(
            (frac - expect).abs() < 0.01,
            "p=0.5 fraction {frac} vs {expect}"
        );
    }

    #[test]
    fn errors_on_bad_params() {
        let f = fixture();
        assert!(matches!(
            ExactLpSampler::from_freq_vector(&f, 0.0, 0),
            Err(QueryError::BadParameter(_))
        ));
        assert!(matches!(
            ExactLpSampler::from_freq_vector(&f, f64::NAN, 0),
            Err(QueryError::BadParameter(_))
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let f = fixture();
        let draw = |seed| {
            let mut s = ExactLpSampler::from_freq_vector(&f, 1.5, seed).expect("ok");
            (0..20).map(|_| s.sample().key).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
    }
}
