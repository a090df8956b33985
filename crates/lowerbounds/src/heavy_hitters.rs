//! Executable reduction of Theorem 5.3: projected `ℓ_p` heavy hitters for
//! `p > 1` solve Index over a Lemma 3.2 random code, so they need
//! `2^{Ω(d)}` space.
//!
//! The instance: `2^{εd}` copies of the all-ones row plus `star_2(T)`. Bob
//! queries `S = [d] \ supp(y)` — the *complement* of his word's support —
//! and asks whether the all-zero pattern `0_S` is a `φ`-`ℓ_p` heavy
//! hitter. If `y ∈ T`, all `2^{εd}` children of `y` project to `0_S`; if
//! not, only the bounded cross-talk from other codewords does (at most
//! `2^{(ε²+γ)d}` per codeword), which the code's intersection cap keeps
//! exponentially smaller.

use pfe_codes::random_code::{RandomCode, RandomCodeParams};
use pfe_row::{ColumnSet, Dataset, PatternKey};
use pfe_stream::adversarial::HeavyHitterInstance;

use crate::index_problem::MembershipProtocol;

/// A heavy-hitter oracle under test: decides whether a pattern is a
/// `φ`-`ℓ_p` heavy hitter of the projection.
pub trait HhOracle {
    /// Ingest Alice's dataset.
    fn build(data: &Dataset) -> Self;

    /// Is `key` a `φ`-`ℓ_p` heavy hitter of `f(A, cols)`?
    fn is_heavy(&self, cols: &ColumnSet, key: PatternKey, phi: f64, p: f64) -> bool;

    /// Summary size in bytes.
    fn bytes(&self) -> usize;
}

/// Exact heavy-hitter oracle (retains everything).
pub struct ExactHhOracle(pfe_core::ExactSummary);

impl HhOracle for ExactHhOracle {
    fn build(data: &Dataset) -> Self {
        Self(pfe_core::ExactSummary::build(data))
    }

    fn is_heavy(&self, cols: &ColumnSet, key: PatternKey, phi: f64, p: f64) -> bool {
        self.0
            .heavy_hitters(cols, phi, p)
            .expect("valid query")
            .iter()
            .any(|h| h.key == key)
    }

    fn bytes(&self) -> usize {
        use pfe_sketch::traits::SpaceUsage;
        self.0.space_bytes()
    }
}

/// The Theorem 5.3 protocol.
pub struct HhProtocol<O: HhOracle> {
    /// The Lemma 3.2 random code.
    pub code: RandomCode,
    /// Moment order `p > 1`.
    pub p: f64,
    /// Heaviness threshold `φ` (the proof uses a small constant; 1/4 in
    /// the Case-2 calculation).
    pub phi: f64,
    _oracle: std::marker::PhantomData<O>,
}

impl<O: HhOracle> HhProtocol<O> {
    /// Generate the code and fix `(p, φ)`.
    ///
    /// # Panics
    /// Panics if `p <= 1` or code generation fails.
    pub fn new(params: RandomCodeParams, p: f64, phi: f64) -> Self {
        let code = RandomCode::generate(params).expect("Lemma 3.2 code generates");
        Self::with_code(code, p, phi)
    }

    /// Use an externally constructed (e.g. greedy, deterministic) code.
    ///
    /// # Panics
    /// Panics if `p <= 1` or `phi` is out of range.
    pub fn with_code(code: RandomCode, p: f64, phi: f64) -> Self {
        assert!(p > 1.0, "Theorem 5.3 concerns p > 1");
        assert!(phi > 0.0 && phi < 1.0);
        Self {
            code,
            p,
            phi,
            _oracle: std::marker::PhantomData,
        }
    }

    /// Bob's query for universe index `i`: the complement of `supp(y_i)`.
    fn query_for(&self, index: usize) -> ColumnSet {
        let d = self.code.params().d;
        let y = self.code.words()[index];
        ColumnSet::from_mask(d, ((1u64 << d) - 1) & !y).expect("complement in range")
    }
}

impl<O: HhOracle> MembershipProtocol for HhProtocol<O> {
    type Summary = (O, usize);

    fn universe(&self) -> usize {
        self.code.len()
    }

    fn alice(&self, held: &[usize]) -> (O, usize) {
        let inst = HeavyHitterInstance::build(self.code.clone(), held);
        let oracle = O::build(&inst.data);
        let bytes = oracle.bytes();
        (oracle, bytes)
    }

    fn bob(&self, summary: &(O, usize), index: usize) -> bool {
        let cols = self.query_for(index);
        // 0_S is the all-zero pattern: key 0.
        summary
            .0
            .is_heavy(&cols, PatternKey::new(0), self.phi, self.p)
    }

    fn summary_bytes(&self, summary: &(O, usize)) -> usize {
        summary.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_problem::run_trials;
    use pfe_row::FrequencyVector;

    /// The two case quantities from the Theorem 5.3 proof, measured exactly on
    /// a concrete instance: the frequency of `0_S` and the total `F_p`.
    #[derive(Debug, Clone, PartialEq)]
    struct CaseMeasurement {
        /// `f_{e(0_S)}`.
        zero_pattern_count: u64,
        /// `F_p(A, S)`.
        fp_value: f64,
        /// The heaviness ratio `f_{e(0_S)} / F_p^{1/p}`.
        heaviness: f64,
    }

    /// Measure the proof's case quantities for a given held set and test word.
    fn measure_case(code: &RandomCode, held: &[usize], y_index: usize, p: f64) -> CaseMeasurement {
        let inst = HeavyHitterInstance::build(code.clone(), held);
        let d = code.params().d;
        let y = code.words()[y_index];
        let cols = ColumnSet::from_mask(d, ((1u64 << d) - 1) & !y).expect("valid");
        let f = FrequencyVector::compute(&inst.data, &cols).expect("fits");
        let zero = f.frequency(PatternKey::new(0));
        let fp = f.fp(p);
        CaseMeasurement {
            zero_pattern_count: zero,
            fp_value: fp,
            heaviness: zero as f64 / fp.powf(1.0 / p),
        }
    }

    /// d=32, ε=0.25 (weight 8), γ=0.03 (intersection cap 2): parameters in
    /// the finite-d separating regime (no-case crosstalk `|C|·2^cap = 48`
    /// stays far below the yes-case floor `2^{εd} = 256`).
    fn test_params(seed: u64) -> RandomCodeParams {
        RandomCodeParams {
            d: 32,
            epsilon: 0.25,
            gamma: 0.03,
            target_size: 12,
            seed,
        }
    }

    #[test]
    fn exact_oracle_solves_index() {
        let p: HhProtocol<ExactHhOracle> = HhProtocol::new(test_params(1), 2.0, 0.25);
        let r = run_trials(&p, 30, 2);
        assert_eq!(
            r.accuracy(),
            1.0,
            "exact heavy-hitter oracle must decide Index exactly"
        );
    }

    #[test]
    fn yes_case_heaviness_dominates_no_case() {
        let code = RandomCode::generate(test_params(3)).expect("code");
        let p = 2.0;
        // Case 1: Alice holds y (index 0) among others.
        let with_y = measure_case(&code, &[0, 1, 2, 3], 0, p);
        // Case 2: same set without y.
        let without_y = measure_case(&code, &[1, 2, 3], 0, p);
        assert!(
            with_y.zero_pattern_count >= 1 << code.params().weight(),
            "yes case: 0_S count {} below 2^(eps d)",
            with_y.zero_pattern_count
        );
        assert!(
            with_y.heaviness > 4.0 * without_y.heaviness,
            "heaviness gap too small: {} vs {}",
            with_y.heaviness,
            without_y.heaviness
        );
    }

    #[test]
    fn no_case_zero_count_bounded_by_crosstalk() {
        let code = RandomCode::generate(test_params(4)).expect("code");
        // The proof's bound: without y, f(0_S) <= |T| * 2^{(eps^2+gamma)d}.
        let held: Vec<usize> = (1..code.len()).collect();
        let m = measure_case(&code, &held, 0, 2.0);
        let cap = code.params().intersection_cap();
        let bound = held.len() as u64 * (1u64 << cap);
        assert!(
            m.zero_pattern_count <= bound,
            "no-case 0_S count {} above crosstalk bound {bound}",
            m.zero_pattern_count
        );
    }

    #[test]
    fn padding_rows_guarantee_fp_floor() {
        // F_p >= (2^{eps d})^p from the all-ones block, in both cases.
        let code = RandomCode::generate(test_params(5)).expect("code");
        let k = code.params().weight();
        let m = measure_case(&code, &[1, 2], 0, 2.0);
        let floor = (1u64 << k) as f64;
        assert!(
            m.fp_value >= floor.powi(2),
            "F_p {} below padding floor",
            m.fp_value
        );
    }

    #[test]
    #[should_panic(expected = "concerns p > 1")]
    fn rejects_small_p() {
        let _: HhProtocol<ExactHhOracle> = HhProtocol::new(test_params(6), 0.5, 0.25);
    }
}
