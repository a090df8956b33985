//! Executable reduction of Theorem 5.5: projected `ℓ_p` sampling for
//! `p ≠ 1` solves Index.
//!
//! - `p > 1`: on the Theorem 5.3 instance, the empirical rate at which a
//!   sampler returns `0_S` distinguishes `y ∈ T` (constant rate) from
//!   `y ∉ T` (vanishing rate).
//! - `0 < p < 1`: on the Theorem 5.4 instance, Bob forms
//!   `M′ = {z ∈ star(y) : |supp(z)| ≥ εd/2}`. If `y ∈ T`, a constant
//!   fraction of the `F_p` mass sits on `M′` (each such pattern has count
//!   exactly 1 after set-union dedup, and `|M′| ≥ 2^{εd−1}`); if `y ∉ T`,
//!   no pattern of `M′` can occur at all, because any other codeword
//!   shares at most `cap < εd/2` support with `y`. So a single valid
//!   sample decides membership with constant advantage.
//!
//! The contrast the paper highlights: `ℓ_1` sampling *is* possible in small
//! space (a uniform row sample), and `pfe-core`'s `l1_sample` provides it;
//! these reductions show both `p`-sides away from 1 are not.

use pfe_codes::random_code::{RandomCode, RandomCodeParams};
use pfe_row::{ColumnSet, FrequencyVector, PatternKey};
use pfe_stream::adversarial::{FpInstance, HeavyHitterInstance};

use crate::index_problem::MembershipProtocol;

/// Membership via `ℓ_p` sampling, `p > 1` branch: Alice's summary is the
/// exact sampler state (the naïve solution); the experiment measures how
/// many draws Bob needs — and, by swapping in approximate samplers, how
/// accuracy collapses when the sampler cannot represent the instance.
pub struct SamplerLargeProtocol {
    /// The Lemma 3.2 random code.
    pub code: RandomCode,
    /// Moment order `p > 1`.
    pub p: f64,
    /// Draws Bob takes per decision.
    pub draws: usize,
    /// Decision threshold on the empirical `0_S` rate.
    pub rate_threshold: f64,
    /// Sampler seed.
    pub seed: u64,
}

impl SamplerLargeProtocol {
    /// Construct with `p > 1` and a draw budget.
    ///
    /// # Panics
    /// Panics unless `p > 1` and `draws > 0`.
    pub fn new(params: RandomCodeParams, p: f64, draws: usize, seed: u64) -> Self {
        assert!(p > 1.0, "this branch handles p > 1");
        assert!(draws > 0);
        let code = RandomCode::generate(params).expect("Lemma 3.2 code generates");
        Self {
            code,
            p,
            draws,
            // Yes-case rate ~ (2^{εd})^p / F_p = Θ(1); no-case rate near 0.
            rate_threshold: 0.05,
            seed,
        }
    }
}

impl MembershipProtocol for SamplerLargeProtocol {
    /// The summary is the exact frequency-vector state per possible query —
    /// here represented by the dataset itself (the naïve solution whose
    /// size *is* the point of the lower bound).
    type Summary = pfe_core::ExactSummary;

    fn universe(&self) -> usize {
        self.code.len()
    }

    fn alice(&self, held: &[usize]) -> pfe_core::ExactSummary {
        let inst = HeavyHitterInstance::build(self.code.clone(), held);
        pfe_core::ExactSummary::build(&inst.data)
    }

    fn bob(&self, summary: &pfe_core::ExactSummary, index: usize) -> bool {
        let d = self.code.params().d;
        let y = self.code.words()[index];
        let cols = ColumnSet::from_mask(d, ((1u64 << d) - 1) & !y).expect("valid");
        let mut sampler = summary
            .lp_sampler(&cols, self.p, self.seed ^ index as u64)
            .expect("valid query");
        let hits = (0..self.draws)
            .filter(|_| sampler.sample().key == PatternKey::new(0))
            .count();
        hits as f64 / self.draws as f64 >= self.rate_threshold
    }

    fn summary_bytes(&self, summary: &pfe_core::ExactSummary) -> usize {
        use pfe_sketch::traits::SpaceUsage;
        summary.space_bytes()
    }
}

/// Membership via `ℓ_p` sampling, `0 < p < 1` branch: Bob tests whether a
/// drawn pattern lands in `M′`.
pub struct SamplerSmallProtocol {
    /// The Lemma 3.2 random code.
    pub code: RandomCode,
    /// Moment order `0 < p < 1`.
    pub p: f64,
    /// Draws Bob takes per decision.
    pub draws: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl SamplerSmallProtocol {
    /// Construct with `0 < p < 1` and a draw budget.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`, `draws > 0`, and `cap < εd/2` (the
    /// disjointness the proof's `M′` argument needs).
    pub fn new(params: RandomCodeParams, p: f64, draws: usize, seed: u64) -> Self {
        assert!(p > 0.0 && p < 1.0, "this branch handles 0 < p < 1");
        assert!(draws > 0);
        let code = RandomCode::generate(params).expect("Lemma 3.2 code generates");
        let cap = code.params().intersection_cap();
        let half_support = code.params().weight() as f64 / 2.0;
        assert!(
            (cap as f64) < half_support,
            "cap {cap} not below εd/2 = {half_support}; M′ would not be exclusive to y"
        );
        Self {
            code,
            p,
            draws,
            seed,
        }
    }

    /// Is a projected pattern (on `S = supp(y)`, little-endian packed) a
    /// member of `M′` — support at least `εd/2`?
    fn in_m_prime(&self, key: PatternKey) -> bool {
        let k = self.code.params().weight();
        (key.raw().count_ones()) as f64 >= k as f64 / 2.0
    }
}

impl MembershipProtocol for SamplerSmallProtocol {
    type Summary = pfe_core::ExactSummary;

    fn universe(&self) -> usize {
        self.code.len()
    }

    fn alice(&self, held: &[usize]) -> pfe_core::ExactSummary {
        let inst = FpInstance::build(self.code.clone(), held);
        pfe_core::ExactSummary::build(&inst.data)
    }

    fn bob(&self, summary: &pfe_core::ExactSummary, index: usize) -> bool {
        let d = self.code.params().d;
        let y = self.code.words()[index];
        let cols = ColumnSet::from_mask(d, y).expect("valid");
        let mut sampler = summary
            .lp_sampler(&cols, self.p, self.seed ^ index as u64)
            .expect("valid query");
        // If y ∈ T, the M′ mass is a constant fraction; if not, it is
        // exactly zero — one hit decides.
        (0..self.draws).any(|_| self.in_m_prime(sampler.sample().key))
    }

    fn summary_bytes(&self, summary: &pfe_core::ExactSummary) -> usize {
        use pfe_sketch::traits::SpaceUsage;
        summary.space_bytes()
    }
}

/// Measured `M′` mass for a concrete instance (the quantity the proof
/// lower-bounds by a constant in the yes case and pins to zero in the no
/// case).
pub fn m_prime_mass(code: &RandomCode, held: &[usize], y_index: usize, p: f64) -> f64 {
    let d = code.params().d;
    let k = code.params().weight();
    let y = code.words()[y_index];
    let cols = ColumnSet::from_mask(d, y).expect("valid");
    let inst = FpInstance::build(code.clone(), held);
    let f = FrequencyVector::compute(&inst.data, &cols).expect("fits");
    let fp = f.fp(p);
    if fp == 0.0 {
        return 0.0;
    }
    f.iter()
        .filter(|(key, _)| key.raw().count_ones() as f64 >= k as f64 / 2.0)
        .map(|(_, c)| (c as f64).powf(p))
        .sum::<f64>()
        / fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_problem::run_trials;

    fn params(seed: u64) -> RandomCodeParams {
        RandomCodeParams {
            d: 32,
            epsilon: 0.25,
            gamma: 0.03,
            target_size: 12,
            seed,
        }
    }

    #[test]
    fn large_p_sampler_solves_index() {
        let p = SamplerLargeProtocol::new(params(1), 2.0, 200, 7);
        let r = run_trials(&p, 20, 2);
        assert_eq!(r.accuracy(), 1.0, "p>1 sampler protocol failed");
    }

    #[test]
    fn small_p_sampler_solves_index() {
        let p = SamplerSmallProtocol::new(params(3), 0.5, 200, 8);
        let r = run_trials(&p, 20, 4);
        assert_eq!(r.accuracy(), 1.0, "p<1 sampler protocol failed");
    }

    #[test]
    fn m_prime_mass_constant_when_held_zero_otherwise() {
        let code = RandomCode::generate(params(5)).expect("code");
        let held_with = [0usize, 1, 2, 3];
        let held_without = [1usize, 2, 3];
        let yes = m_prime_mass(&code, &held_with, 0, 0.5);
        let no = m_prime_mass(&code, &held_without, 0, 0.5);
        // The proof's Case p<1: at least half of star(y) has support
        // >= εd/2, each counting once, so the mass is a constant fraction.
        assert!(yes > 0.1, "yes-case M′ mass {yes} not constant");
        assert_eq!(no, 0.0, "no-case M′ mass must be exactly zero");
    }

    #[test]
    fn m_prime_definition_matches_support_threshold() {
        let p = SamplerSmallProtocol::new(params(6), 0.5, 10, 0);
        let k = p.code.params().weight(); // 8
        assert!(p.in_m_prime(PatternKey::new(0b1111_0000)));
        assert!(p.in_m_prime(PatternKey::new(0b1111)));
        assert!(!p.in_m_prime(PatternKey::new(0b111)));
        assert!(!p.in_m_prime(PatternKey::new(0)));
        assert_eq!(k, 8);
    }

    #[test]
    #[should_panic(expected = "handles p > 1")]
    fn large_branch_rejects_small_p() {
        SamplerLargeProtocol::new(params(7), 0.9, 10, 0);
    }

    #[test]
    #[should_panic(expected = "handles 0 < p < 1")]
    fn small_branch_rejects_large_p() {
        SamplerSmallProtocol::new(params(8), 1.1, 10, 0);
    }
}
