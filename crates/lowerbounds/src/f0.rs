//! Executable reduction of Theorem 4.1 (and Corollaries 4.2–4.4):
//! projected `F_0` solves Index, so constant-factor `F_0` needs `2^{Ω(d)}`.
//!
//! Alice's codewords live in `B(d, k)`; her dataset is `star_Q(T)`; Bob
//! queries `S = supp(y)` and thresholds the reported `F_0` between the
//! "no" ceiling `k·Q^{k−1}` and the "yes" floor `Q^k`. With an exact `F_0`
//! oracle the decision is always correct — verified by tests — and any
//! oracle whose multiplicative guarantee is worse than `Δ = Q/k`
//! (Equation 3) provably cannot separate the two cases.
//!
//! Because `|B(d,k)|` is exponentially large, experiments run over a
//! *sampled sub-universe* of the code: a random subset of codewords plays
//! the role of the enumeration. This only weakens the instance (Alice
//! holds fewer words), so the verified separation is conservative.

use pfe_codes::constant_weight::ConstantWeightCode;
use pfe_hash::rng::Xoshiro256pp;
use pfe_row::{ColumnSet, Dataset};
use pfe_stream::adversarial::F0Instance;

use crate::index_problem::MembershipProtocol;

/// An `F_0` oracle under test: built once per Alice message, then queried
/// by Bob on arbitrary column sets.
pub trait F0Oracle {
    /// Ingest Alice's dataset.
    fn build(data: &Dataset) -> Self;

    /// Estimate projected `F_0` on `cols`.
    fn f0(&self, cols: &ColumnSet) -> f64;

    /// Summary size in bytes (the communication cost).
    fn bytes(&self) -> usize;
}

/// Exact oracle: retains everything (the `Θ(nd)` upper bound).
pub struct ExactF0Oracle(pfe_core::ExactSummary);

impl F0Oracle for ExactF0Oracle {
    fn build(data: &Dataset) -> Self {
        Self(pfe_core::ExactSummary::build(data))
    }

    fn f0(&self, cols: &ColumnSet) -> f64 {
        self.0.f0(cols).expect("valid query").value
    }

    fn bytes(&self) -> usize {
        use pfe_sketch::traits::SpaceUsage;
        self.0.space_bytes()
    }
}

/// The Theorem 4.1 protocol over a sampled sub-universe of `B(d, k)`.
pub struct F0Protocol<O: F0Oracle> {
    /// The code.
    pub code: ConstantWeightCode,
    /// Alphabet size `Q`.
    pub q: u32,
    /// The sampled universe of codewords.
    pub universe_words: Vec<u64>,
    _oracle: std::marker::PhantomData<O>,
}

impl<O: F0Oracle> F0Protocol<O> {
    /// Sample a `universe`-word sub-universe of `B(d, k)`.
    ///
    /// # Panics
    /// Panics if `universe` exceeds `|B(d, k)|` or `q < 2`.
    pub fn new(d: u32, k: u32, q: u32, universe: usize, seed: u64) -> Self {
        assert!(q >= 2, "need Q >= 2");
        let code = ConstantWeightCode::new(d, k);
        assert!(
            (universe as u128) <= code.size(),
            "universe {universe} exceeds |B({d},{k})| = {}",
            code.size()
        );
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < universe {
            // Rejection-sample ranks; the code is enormous so collisions
            // are rare.
            let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % code.size();
            picked.insert(code.unrank(r));
        }
        Self {
            code,
            q,
            universe_words: picked.into_iter().collect(),
            _oracle: std::marker::PhantomData,
        }
    }

    /// The decision threshold: the geometric mean of the "yes" floor `Q^k`
    /// and the "no" ceiling `k·Q^{k−1}`.
    fn threshold(&self) -> f64 {
        let yes = (self.q as f64).powi(self.code.weight() as i32);
        let no = self.code.weight() as f64 * (self.q as f64).powi(self.code.weight() as i32 - 1);
        (yes * no).sqrt()
    }
}

impl<O: F0Oracle> MembershipProtocol for F0Protocol<O> {
    type Summary = (O, usize);

    fn universe(&self) -> usize {
        self.universe_words.len()
    }

    fn alice(&self, held: &[usize]) -> (O, usize) {
        let words: Vec<u64> = held.iter().map(|&i| self.universe_words[i]).collect();
        let inst = F0Instance::build(self.code, self.q, &words);
        let oracle = O::build(&inst.data);
        let bytes = oracle.bytes();
        (oracle, bytes)
    }

    fn bob(&self, summary: &(O, usize), index: usize) -> bool {
        let y = self.universe_words[index];
        let cols = ColumnSet::from_mask(self.code.dimension(), y).expect("support in range");
        summary.0.f0(&cols) >= self.threshold()
    }

    fn summary_bytes(&self, summary: &(O, usize)) -> usize {
        summary.1
    }
}

/// The analytic Table 1 rows: instance shape and approximation factor for
/// Theorem 4.1 and Corollaries 4.2–4.4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Which result this row describes.
    pub label: &'static str,
    /// Number of rows of the instance `A` (log2, since counts explode).
    pub log2_rows: f64,
    /// Number of columns of the instance.
    pub columns: f64,
    /// Alphabet the instance is written over.
    pub alphabet: f64,
    /// The approximation factor the bound rules out.
    pub approx_factor: f64,
    /// log2 of the code size = the space lower bound in bits (up to
    /// constants).
    pub log2_code_size: f64,
}

/// Theorem 4.1 row: instance `(d/k)^k × d` over `[Q]`, factor `Q/k`.
pub fn table1_theorem41(d: u32, k: u32, q: u32) -> Table1Row {
    assert!(k >= 1 && k < d.div_ceil(2), "Theorem 4.1 needs k < d/2");
    assert!(q > k, "Theorem 4.1 needs Q > k");
    let code = ConstantWeightCode::new(d, k);
    Table1Row {
        label: "Theorem 4.1",
        // Rows: |star_Q(C)| <= |C| * Q^k; the paper's Table 1 quotes the
        // code-size bound (d/k)^k for the row count.
        log2_rows: (d as f64 / k as f64).log2() * k as f64,
        columns: d as f64,
        alphabet: q as f64,
        approx_factor: q as f64 / k as f64,
        log2_code_size: (code.size() as f64).log2(),
    }
}

/// Corollary 4.2 row: instance `2^d Q^{d/2} × d` over `[Q]`, factor `2Q/d`.
pub fn table1_corollary42(d: u32, q: u32) -> Table1Row {
    assert!(d.is_multiple_of(2), "Corollary 4.2 uses k = d/2");
    assert!(q as f64 >= d as f64 / 2.0, "Corollary 4.2 needs Q >= d/2");
    let code = ConstantWeightCode::new(d, d / 2);
    Table1Row {
        label: "Corollary 4.2",
        log2_rows: d as f64 + (d as f64 / 2.0) * (q as f64).log2(),
        columns: d as f64,
        alphabet: q as f64,
        approx_factor: 2.0 * q as f64 / d as f64,
        log2_code_size: (code.size() as f64).log2(),
    }
}

/// Corollary 4.3 row: `Q = d`, factor exactly 2.
pub fn table1_corollary43(d: u32) -> Table1Row {
    let mut row = table1_corollary42(d, d);
    row.label = "Corollary 4.3";
    row
}

/// Corollary 4.4 row: alphabet reduced to `[q]`, dimension grown to
/// `d·log_q Q`; factor unchanged at `2Q/d`.
pub fn table1_corollary44(d: u32, big_q: u32, small_q: u32) -> Table1Row {
    assert!(small_q >= 2 && small_q <= big_q);
    let mut row = table1_corollary42(d, big_q);
    row.label = "Corollary 4.4";
    row.columns = d as f64 * (big_q as f64).log(small_q as f64);
    row.alphabet = small_q as f64;
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_problem::run_trials;

    #[test]
    fn exact_oracle_solves_index_perfectly() {
        // d=12, k=3, Q=8: separation 8/3 ~ 2.7.
        let p: F0Protocol<ExactF0Oracle> = F0Protocol::new(12, 3, 8, 24, 1);
        let r = run_trials(&p, 60, 2);
        assert_eq!(r.accuracy(), 1.0, "exact oracle must decide Index exactly");
    }

    #[test]
    fn threshold_ordering() {
        let p: F0Protocol<ExactF0Oracle> = F0Protocol::new(16, 4, 16, 8, 3);
        let yes = 16f64.powi(4);
        let no = 4.0 * 16f64.powi(3);
        assert!(p.threshold() > no && p.threshold() < yes);
    }

    #[test]
    fn yes_case_f0_reaches_floor_no_case_below_ceiling() {
        // Verify the combinatorial counts behind Equation (3) directly.
        let d = 12;
        let k = 3;
        let q = 6;
        let code = ConstantWeightCode::new(d, k);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let words: Vec<u64> = (0..16)
            .map(|_| {
                let r = (rng.next_u64() as u128) % code.size();
                code.unrank(r)
            })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let inst = F0Instance::build(code, q, &words);
        let oracle = ExactF0Oracle::build(&inst.data);
        // Yes case: query a held word's support.
        let cols = ColumnSet::from_mask(d, words[0]).expect("valid");
        assert!(oracle.f0(&cols) >= inst.yes_threshold() as f64);
        // No case: find a codeword not held.
        let absent = (0..code.size())
            .map(|r| code.unrank(r))
            .find(|w| !words.contains(w))
            .expect("code has unheld words");
        let cols = ColumnSet::from_mask(d, absent).expect("valid");
        assert!(oracle.f0(&cols) <= inst.no_ceiling() as f64);
    }

    #[test]
    fn table1_rows_match_paper() {
        // Theorem 4.1 with k = ad/2 (a in [0,1)): code size >= 2^{ad/2}.
        let row = table1_theorem41(16, 4, 16);
        assert_eq!(row.approx_factor, 4.0);
        assert_eq!(row.columns, 16.0);
        // (d/k)^k = 4^4 = 256 -> log2 = 8.
        assert!((row.log2_rows - 8.0).abs() < 1e-9);
        // C(16,4) = 1820 -> log2 ~ 10.8 >= 8 (the (d/k)^k bound).
        assert!(row.log2_code_size >= row.log2_rows - 1e-9);

        let row = table1_corollary42(12, 16);
        assert!((row.approx_factor - 32.0 / 12.0).abs() < 1e-9);
        // 2^d Q^{d/2}: log2 = 12 + 6*4 = 36.
        assert!((row.log2_rows - 36.0).abs() < 1e-9);

        let row = table1_corollary43(12);
        assert_eq!(row.approx_factor, 2.0);
        assert_eq!(row.alphabet, 12.0);

        let row = table1_corollary44(12, 16, 2);
        assert_eq!(row.alphabet, 2.0);
        // Columns grow to d log_2 16 = 12 * 4 = 48.
        assert!((row.columns - 48.0).abs() < 1e-9);
        // Factor unchanged.
        assert!((row.approx_factor - 32.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn corollary43_central_binomial_space() {
        // Cor 4.3's code is B(d, d/2): size >= 2^d / sqrt(2d).
        let row = table1_corollary43(16);
        let floor = 16.0 - 0.5 * (32.0f64).log2();
        assert!(row.log2_code_size >= floor - 1e-9);
    }

    use pfe_hash::rng::Xoshiro256pp;

    #[test]
    #[should_panic(expected = "needs k < d/2")]
    fn theorem41_rejects_large_k() {
        table1_theorem41(8, 4, 16);
    }
}
