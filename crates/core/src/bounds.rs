//! The `(α, ε)` accuracy contract every answer carries, and the
//! theorem-derived constants it is built from.
//!
//! The numbers here are the paper's bounds specialized to the summaries
//! this repo ships: the Theorem 5.1 additive error of the uniform row
//! sample, the β of each α-net plug-in sketch (KMV, AMS, stable
//! projections), and the Lemma 6.4 rounding distortion of the α-net. The
//! summaries state their own [`Guarantee`] from them — each α-net plug-in
//! its β and distortion
//! ([`Guaranteed`](crate::net_sketches::Guaranteed), assembled by
//! [`AlphaNetSummary::guarantee`](crate::AlphaNetSummary::guarantee)),
//! the row sample its `ε`
//! ([`UniformSampleSummary::count_guarantee`](crate::UniformSampleSummary::count_guarantee),
//! [`mass_guarantee`](crate::UniformSampleSummary::mass_guarantee)) — so
//! a serving layer attaches what the summary says and derives nothing.

/// Which construction produced an answer — and therefore which theorem
/// the accompanying [`Guarantee`] numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuaranteeSource {
    /// Computed exactly from fully retained data (the uniform sample
    /// never overflowed); both error terms are trivial.
    Exact,
    /// The Theorem 5.1 uniform row sample: unbiased, additive error
    /// `ε‖f‖₁` with probability `1 − δ`.
    Sample,
    /// The Section 6 α-net of β-approximate sketches: multiplicative
    /// `β·r(α, d)` error after net rounding (Theorem 6.5 / Lemma 6.4).
    AlphaNet,
}

impl GuaranteeSource {
    /// Stable lowercase name (wire protocol).
    pub fn name(self) -> &'static str {
        match self {
            GuaranteeSource::Exact => "exact",
            GuaranteeSource::Sample => "sample",
            GuaranteeSource::AlphaNet => "alpha_net",
        }
    }
}

/// The `(α, ε)` accuracy contract travelling with every answer.
///
/// `alpha` is the multiplicative factor the estimate is guaranteed within
/// (`1.0` = unbiased / exact); `epsilon` is the additive error term in the
/// units of the reported value (absolute row counts for frequencies and
/// heavy hitters, probability mass for `ℓ_1` samples; `0.0` = none).
///
/// The quantifier is *for each answer*: one answer is within `(α, ε)`
/// with probability at least `1 − δ` ([`DEFAULT_DELTA`]) over the
/// engine's seed. It is not a bound for all answers at once. Every answer
/// rounded onto one α-net member reads that member's one seeded sketch, so
/// such answers share the member's miss rather than failing independently.
///
/// ```
/// use pfe_core::{Guarantee, GuaranteeSource};
///
/// let g = Guarantee::exact();
/// assert_eq!((g.alpha, g.epsilon), (1.0, 0.0));
/// assert_eq!(g.source, GuaranteeSource::Exact);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    /// Multiplicative factor bound (`β·r` in Theorem 6.5 terms; `1.0`
    /// means unbiased).
    pub alpha: f64,
    /// Additive error bound (`ε‖f‖₁` in Theorem 5.1 terms; `0.0` means
    /// none).
    pub epsilon: f64,
    /// Which construction the bound comes from.
    pub source: GuaranteeSource,
}

impl Guarantee {
    /// The trivial guarantee of an exactly computed answer.
    pub fn exact() -> Self {
        Self {
            alpha: 1.0,
            epsilon: 0.0,
            source: GuaranteeSource::Exact,
        }
    }
}

/// Default failure probability `δ` used when a guarantee is reported
/// without a caller-chosen confidence.
pub const DEFAULT_DELTA: f64 = 0.05;

/// Theorem 5.1: the additive-error coefficient `ε = √(ln(2/δ)/t)` of a
/// `t`-row uniform sample at confidence `1 − δ`. Multiply by `‖f‖₁ = n`
/// for the error in absolute counts; it bounds probability-mass error
/// directly.
///
/// ```
/// use pfe_core::bounds::sample_epsilon;
///
/// // More rows => tighter epsilon.
/// assert!(sample_epsilon(4096, 0.05) < sample_epsilon(256, 0.05));
/// ```
///
/// # Panics
/// Panics if `t == 0` or `delta` is outside `(0, 1)`.
pub fn sample_epsilon(t: usize, delta: f64) -> f64 {
    assert!(t > 0, "sample size t must be >= 1");
    assert!(delta > 0.0 && delta < 1.0, "delta {delta} outside (0,1)");
    ((2.0 / delta).ln() / t as f64).sqrt()
}

/// The `β` of a `k`-minimum-values sketch at two standard errors: the
/// KMV estimate has relative standard error `1/√(k−2)`, so a
/// `β = 1 + 2/√(k−2)` multiplicative factor holds with ≈95% confidence —
/// the plug-in `β` of Theorem 6.5.
///
/// ```
/// use pfe_core::bounds::kmv_beta;
///
/// assert!(kmv_beta(1024) < kmv_beta(64));
/// assert!(kmv_beta(64) > 1.0);
/// ```
pub fn kmv_beta(k: usize) -> f64 {
    1.0 + 2.0 / ((k.max(3) - 2) as f64).sqrt()
}

/// Lemma 6.4(1): the `F_0` rounding distortion `Q^{|CΔC′|}` for a query
/// rounded by `sym_diff` columns over alphabet `q`.
pub fn f0_rounding_distortion(q: u32, sym_diff: u32) -> f64 {
    (q as f64).powi(sym_diff as i32)
}

/// Lemma 6.4(2)–(3): the `F_p` rounding distortion `Q^{|CΔC′|·|p−1|}`.
pub fn fp_rounding_distortion(q: u32, sym_diff: u32, p: f64) -> f64 {
    (q as f64).powf(sym_diff as f64 * (p - 1.0).abs())
}

/// The `β` of a `t`-estimator Indyk stable-projection `ℓ_p` sketch
/// (Ping Li, "On Approximating Frequency Moments of Data Streams with
/// Skewed Projections"): the median-of-`t` estimator has relative
/// standard error `O(1/√t)`, so `β = 1 + 3/√t` holds the constant-factor
/// guarantee at ≈95% confidence — the plug-in `β` of Theorem 6.5 for the
/// fractional-`p` path.
///
/// ```
/// use pfe_core::bounds::stable_fp_beta;
///
/// assert!(stable_fp_beta(256) < stable_fp_beta(16));
/// assert!(stable_fp_beta(16) > 1.0);
/// ```
///
/// # Panics
/// Panics if `t == 0`.
pub fn stable_fp_beta(t: usize) -> f64 {
    assert!(t > 0, "estimator count t must be >= 1");
    1.0 + 3.0 / (t as f64).sqrt()
}

/// The `β` of a median-of-means AMS `F_2` sketch with `per_group`
/// estimators per group: `Var[mean of m] ≤ 2F_2²/m`, so two standard
/// errors give `β = 1 + √(8/per_group)` — bit-exact mergeable, used on
/// the `p = 2` dispatch path: a sketch with `per_group = ⌈8/ε²⌉` reports
/// `β ≤ 1 + ε`.
///
/// ```
/// use pfe_core::bounds::ams_f2_beta;
///
/// assert!(ams_f2_beta(128) < ams_f2_beta(16));
/// assert!(ams_f2_beta(16) > 1.0);
/// ```
///
/// # Panics
/// Panics if `per_group == 0`.
pub fn ams_f2_beta(per_group: usize) -> f64 {
    assert!(per_group > 0, "per_group must be >= 1");
    1.0 + (8.0 / per_group as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_epsilon_matches_summary_formula() {
        // Theorem 5.1 sizes the sample t = ceil(ln(2/delta)/eps^2): t rows
        // give back (approximately) the eps the size was chosen for.
        let (eps, delta) = (0.05f64, 0.01f64);
        let t = ((2.0 / delta).ln() / (eps * eps)).ceil() as usize;
        let back = sample_epsilon(t, delta);
        assert!((back - eps).abs() < 1e-3, "eps {eps} round-trips to {back}");
    }

    #[test]
    fn kmv_beta_decreasing_and_above_one() {
        let mut prev = f64::INFINITY;
        for k in [8usize, 64, 256, 4096] {
            let b = kmv_beta(k);
            assert!(b > 1.0 && b < prev);
            prev = b;
        }
        // Degenerate capacities do not divide by zero.
        assert!(kmv_beta(2).is_finite());
    }

    #[test]
    fn distortions_match_lemma_6_4() {
        assert_eq!(f0_rounding_distortion(2, 3), 8.0);
        assert_eq!(f0_rounding_distortion(4, 0), 1.0);
        // p = 1 is free; p = 0 and p = 2 pay the same factor.
        assert_eq!(fp_rounding_distortion(2, 3, 1.0), 1.0);
        assert_eq!(
            fp_rounding_distortion(2, 3, 0.0),
            fp_rounding_distortion(2, 3, 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn sample_epsilon_rejects_bad_delta() {
        sample_epsilon(16, 1.5);
    }

    #[test]
    fn moment_betas_decrease_and_invert_the_sizing_rule() {
        let mut prev = f64::INFINITY;
        for t in [4usize, 16, 64, 1024] {
            let b = stable_fp_beta(t);
            assert!(b > 1.0 && b < prev);
            prev = b;
        }
        // A sketch sized per_group = ceil(8/eps^2) for eps reports
        // beta <= 1 + eps (up to ceiling).
        for eps in [0.5f64, 0.25, 0.1] {
            let per_group = (8.0 / (eps * eps)).ceil() as usize;
            let b = ams_f2_beta(per_group);
            assert!(b <= 1.0 + eps + 1e-12, "beta {b} for eps {eps}");
            assert!(b > 1.0);
        }
    }
}
