#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Projected frequency estimation — the core library reproducing
//! Cormode, Dickens & Woodruff, "Subspace Exploration: Bounds on Projected
//! Frequency Estimation" (PODS 2021).
//!
//! The model (Section 2): data `A ∈ [Q]^{n×d}` arrives as a stream; a
//! column query `C ⊆ [d]` arrives only afterwards; statistics are functions
//! of the projected frequency vector `f(A, C)`. This crate implements every
//! summary the paper analyses:
//!
//! - [`exact::ExactSummary`] — the `Θ(nd)` retain-everything
//!   baseline (Section 3.1);
//! - [`uniform_sample::UniformSampleSummary`] — the
//!   Theorem 5.1 / Corollary 5.2 uniform row sample: `ε‖f‖_1` frequency
//!   estimates, `ℓ_p` heavy hitters for `p ≤ 1`, and `ℓ_1` sampling in
//!   `O(ε⁻² log 1/δ)` rows;
//! - [`net_sketches::AlphaNetSummary`] — Algorithm 1, once: β-approximate
//!   sketches over an α-net of subsets, answering any query after rounding
//!   with distortion `r(α, P)` (Lemma 6.4, Theorem 6.5). The statistic is
//!   a plug-in, and the named summaries are aliases of the one type:
//!   [`alpha_net::AlphaNetF0`] (distinct counts),
//!   [`fp::FpNet`] (moments, the sketch family picked from the order),
//!   [`alpha_net_freq::AlphaNetFrequency`] (the Section 6 closing remark:
//!   point frequencies from CountMin members);
//! - [`sampling::ExactLpSampler`] — offline `ℓ_p` sampling
//!   from the materialized frequency vector (the object Theorem 5.5 proves
//!   incompressible for `p ≠ 1`);
//! - [`bounds`] — the `(α, ε)` [`Guarantee`] every answer carries and
//!   the theorem-derived constants (Theorem 5.1 `ε`, each plug-in's `β`,
//!   Lemma 6.4 distortion) the summaries state it from.

pub mod alpha_net;
pub mod alpha_net_freq;
pub mod bounds;
pub mod estimator;
pub mod exact;
pub mod fp;
pub mod marginals;
pub mod net_sketches;
pub mod problem;
pub mod sampling;
pub mod uniform_sample;

pub use alpha_net::{
    AlphaNet, AlphaNetF0, FedRows, NetAnswer, NetMode, RoundedQuery, MAX_FED_ROWS,
};
pub use alpha_net_freq::{AlphaNetFrequency, FreqNetAnswer};
pub use bounds::{Guarantee, GuaranteeSource};
pub use estimator::{SuiteConfig, SummarySuite};
pub use exact::ExactSummary;
pub use fp::{fp_seed, FpConfig, FpNet};
pub use marginals::MarginalsSummary;
pub use net_sketches::{
    flat_rows, sweep_form, AlphaNetSummary, DistinctRows, SweepRow, MAX_RUN_ROWS,
};
pub use problem::{HeavyHitter, QueryError, SampledPattern, ScalarEstimate};
pub use sampling::ExactLpSampler;
pub use uniform_sample::UniformSampleSummary;
