//! Executable reduction of Theorem 5.4: projected `F_p` estimation for
//! `p ≠ 1` solves Index.
//!
//! - `p > 1`: the Theorem 5.3 instance works unchanged — Bob monitors
//!   `F_p(A, S)` on the complement query instead of the heavy-hitter list.
//! - `0 < p < 1`: Alice encodes `star_2(T)` only; Bob queries
//!   `S = supp(y)` and thresholds `F_p(A, S)` at `2^{εd}`: if `y ∈ T`
//!   every one of the `2^{εd}` children of `y` contributes at least 1, and
//!   if not, the code's intersection cap plus concavity (Equation 5 /
//!   Lemma A.2) keeps `F_p` at `2^{(1−α)εd}` for a constant `α > 0`.

use pfe_codes::random_code::{RandomCode, RandomCodeParams};
use pfe_row::{ColumnSet, Dataset, FrequencyVector};
use pfe_stream::adversarial::{FpInstance, HeavyHitterInstance};

use crate::index_problem::MembershipProtocol;

/// An `F_p` oracle under test.
pub trait FpOracle {
    /// Ingest Alice's dataset.
    fn build(data: &Dataset) -> Self;

    /// Estimate projected `F_p` on `cols`.
    fn fp(&self, cols: &ColumnSet, p: f64) -> f64;

    /// Summary size in bytes.
    fn bytes(&self) -> usize;
}

/// Exact `F_p` oracle.
pub struct ExactFpOracle(pfe_core::ExactSummary);

impl FpOracle for ExactFpOracle {
    fn build(data: &Dataset) -> Self {
        Self(pfe_core::ExactSummary::build(data))
    }

    fn fp(&self, cols: &ColumnSet, p: f64) -> f64 {
        self.0.fp(cols, p).expect("valid query").value
    }

    fn bytes(&self) -> usize {
        use pfe_sketch::traits::SpaceUsage;
        self.0.space_bytes()
    }
}

/// The Theorem 5.4 protocol, `0 < p < 1` branch.
pub struct FpSmallProtocol<O: FpOracle> {
    /// The Lemma 3.2 random code.
    pub code: RandomCode,
    /// Moment order `0 < p < 1`.
    pub p: f64,
    _oracle: std::marker::PhantomData<O>,
}

impl<O: FpOracle> FpSmallProtocol<O> {
    /// Generate the code and fix `p`, checking that the parameters are in
    /// the separating regime (the finite-`d` analogue of the proof's
    /// "choose `c` small enough": the no-case ceiling must fall below
    /// the yes-case floor `2^{εd}`).
    ///
    /// # Panics
    /// Panics unless `0 < p < 1` and the parameters separate.
    pub fn new(params: RandomCodeParams, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "this branch handles 0 < p < 1");
        let code = RandomCode::generate(params).expect("Lemma 3.2 code generates");
        Self::with_code(code, p)
    }

    /// Use an externally constructed (e.g. greedy, deterministic) code.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1` and the parameters separate.
    pub fn with_code(code: RandomCode, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "this branch handles 0 < p < 1");
        let s = Self {
            code,
            p,
            _oracle: std::marker::PhantomData,
        };
        assert!(
            s.no_case_ceiling() < s.yes_case_floor(),
            "parameters do not separate: no-case ceiling {} >= yes-case floor {} \
             (increase d, shrink gamma, or lower p)",
            s.no_case_ceiling(),
            s.yes_case_floor()
        );
        s
    }

    /// Yes-case floor: `2^{εd}` — each of the `2^{εd}` children of `y`
    /// contributes at least `1^p = 1` to `F_p(A, supp(y))`.
    fn yes_case_floor(&self) -> f64 {
        2f64.powi(self.code.params().weight() as i32)
    }

    /// No-case ceiling (the finite-`d` form of Equation (5)): each held
    /// `y′` projects its `2^{εd}` children onto at most `2^{cap}` patterns
    /// supported in `supp(y′) ∩ supp(y)`, each with multiplicity at most
    /// `2^{εd − |∩|}`; for `p < 1` the exponent `|∩| + (εd − |∩|)p` is
    /// maximized at `|∩| = cap`, and subadditivity of `x^p` lets parents
    /// be summed. Ceiling: `|C| · 2^{cap + (εd − cap)p}`.
    fn no_case_ceiling(&self) -> f64 {
        let k = self.code.params().weight() as f64;
        let cap = self.code.params().intersection_cap() as f64;
        self.code.len() as f64 * 2f64.powf(cap + (k - cap) * self.p)
    }

    /// Decision threshold: the geometric mean of the ceiling and floor.
    fn threshold(&self) -> f64 {
        (self.no_case_ceiling() * self.yes_case_floor()).sqrt()
    }
}

impl<O: FpOracle> MembershipProtocol for FpSmallProtocol<O> {
    type Summary = (O, usize);

    fn universe(&self) -> usize {
        self.code.len()
    }

    fn alice(&self, held: &[usize]) -> (O, usize) {
        let inst = FpInstance::build(self.code.clone(), held);
        let oracle = O::build(&inst.data);
        let bytes = oracle.bytes();
        (oracle, bytes)
    }

    fn bob(&self, summary: &(O, usize), index: usize) -> bool {
        let d = self.code.params().d;
        let y = self.code.words()[index];
        let cols = ColumnSet::from_mask(d, y).expect("support in range");
        summary.0.fp(&cols, self.p) >= self.threshold()
    }

    fn summary_bytes(&self, summary: &(O, usize)) -> usize {
        summary.1
    }
}

/// The Theorem 5.4 protocol, `p > 1` branch (the Theorem 5.3 instance with
/// an `F_p` decision).
pub struct FpLargeProtocol<O: FpOracle> {
    /// The Lemma 3.2 random code.
    pub code: RandomCode,
    /// Moment order `p > 1`.
    pub p: f64,
    _oracle: std::marker::PhantomData<O>,
}

impl<O: FpOracle> FpLargeProtocol<O> {
    /// Generate the code and fix `p`.
    ///
    /// # Panics
    /// Panics unless `p > 1`.
    pub fn new(params: RandomCodeParams, p: f64) -> Self {
        assert!(p > 1.0, "this branch handles p > 1");
        let code = RandomCode::generate(params).expect("Lemma 3.2 code generates");
        Self {
            code,
            p,
            _oracle: std::marker::PhantomData,
        }
    }
}

impl<O: FpOracle> FpLargeProtocol<O> {
    /// Calibrated threshold: midpoint (in log space) between the measured
    /// yes-case and no-case `F_p`, computed from the *construction* (not
    /// Alice's actual set): with `y ∈ T` the pattern `0_S` gains `2^{εd}`
    /// occurrences, raising `F_p` by ~`(2^{εd})^p` over the all-ones
    /// block's contribution, which is present either way.
    fn threshold(&self) -> f64 {
        let k = self.code.params().weight();
        let block = (1u64 << k) as f64; // 2^{εd} all-ones rows
                                        // Both cases contain the all-ones block: F_p >= block^p. The yes
                                        // case adds another ~block^p from 0_S. Separate at 1.5x block^p.
        1.5 * block.powf(self.p)
    }
}

impl<O: FpOracle> MembershipProtocol for FpLargeProtocol<O> {
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
        let d = self.code.params().d;
        let y = self.code.words()[index];
        let cols = ColumnSet::from_mask(d, ((1u64 << d) - 1) & !y).expect("valid");
        summary.0.fp(&cols, self.p) >= self.threshold()
    }

    fn summary_bytes(&self, summary: &(O, usize)) -> usize {
        summary.1
    }
}

/// Measured yes/no `F_p` values for a concrete small-`p` instance
/// (the quantities Equation (5) bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct FpGap {
    /// `F_p(A, supp(y))` when `y ∈ T`.
    pub yes_fp: f64,
    /// `F_p(A, supp(y))` when `y ∉ T` (same `T \ {y}`).
    pub no_fp: f64,
}

/// Measure the Theorem 5.4 gap for word `y_index` against held set
/// `others` (which must not contain `y_index`).
pub fn measure_fp_gap(code: &RandomCode, others: &[usize], y_index: usize, p: f64) -> FpGap {
    assert!(!others.contains(&y_index), "others must exclude y");
    let d = code.params().d;
    let y = code.words()[y_index];
    let cols = ColumnSet::from_mask(d, y).expect("valid");
    let mut with_y = others.to_vec();
    with_y.push(y_index);
    let inst_yes = FpInstance::build(code.clone(), &with_y);
    let inst_no = FpInstance::build(code.clone(), others);
    let f_yes = FrequencyVector::compute(&inst_yes.data, &cols).expect("fits");
    let f_no = FrequencyVector::compute(&inst_no.data, &cols).expect("fits");
    FpGap {
        yes_fp: f_yes.fp(p),
        no_fp: f_no.fp(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_problem::run_trials;

    /// d=32, ε=0.25 (weight 8), γ=0.03 (intersection cap 2): the smallest
    /// configuration where the finite-d ceilings separate cleanly.
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
    fn small_p_exact_oracle_solves_index() {
        let p: FpSmallProtocol<ExactFpOracle> = FpSmallProtocol::new(params(1), 0.25);
        let r = run_trials(&p, 30, 2);
        assert_eq!(r.accuracy(), 1.0);
    }

    #[test]
    fn separating_regime_checked() {
        let p: FpSmallProtocol<ExactFpOracle> = FpSmallProtocol::new(params(9), 0.25);
        assert!(p.no_case_ceiling() < p.threshold());
        assert!(p.threshold() < p.yes_case_floor());
    }

    #[test]
    fn large_p_exact_oracle_solves_index() {
        let p: FpLargeProtocol<ExactFpOracle> = FpLargeProtocol::new(params(3), 2.0);
        let r = run_trials(&p, 30, 4);
        assert_eq!(r.accuracy(), 1.0);
    }

    #[test]
    fn measured_gap_exceeds_constant() {
        let code = RandomCode::generate(params(5)).expect("code");
        let others: Vec<usize> = (1..8).collect();
        let gap = measure_fp_gap(&code, &others, 0, 0.25);
        // Yes case: F_p >= 2^{εd} = 2^8 = 256 (every child of y counts >= 1).
        assert!(gap.yes_fp >= 256.0, "yes F_p {}", gap.yes_fp);
        // The separation is at least a constant factor.
        assert!(
            gap.yes_fp / gap.no_fp > 1.5,
            "gap {} / {} too small",
            gap.yes_fp,
            gap.no_fp
        );
    }

    #[test]
    fn gap_widens_with_smaller_p() {
        // Equation (5): for smaller p the no-case mass spreads thinner, so
        // the yes/no ratio grows as p decreases.
        let code = RandomCode::generate(params(6)).expect("code");
        let others: Vec<usize> = (1..8).collect();
        let g_quarter = measure_fp_gap(&code, &others, 0, 0.25);
        let g_09 = measure_fp_gap(&code, &others, 0, 0.9);
        let ratio_quarter = g_quarter.yes_fp / g_quarter.no_fp;
        let ratio_09 = g_09.yes_fp / g_09.no_fp;
        assert!(
            ratio_quarter >= ratio_09,
            "p=0.25 ratio {ratio_quarter} below p=0.9 ratio {ratio_09}"
        );
    }

    #[test]
    #[should_panic(expected = "handles 0 < p < 1")]
    fn small_branch_rejects_large_p() {
        let _: FpSmallProtocol<ExactFpOracle> = FpSmallProtocol::new(params(7), 1.5);
    }

    #[test]
    #[should_panic(expected = "handles p > 1")]
    fn large_branch_rejects_small_p() {
        let _: FpLargeProtocol<ExactFpOracle> = FpLargeProtocol::new(params(8), 0.5);
    }
}
