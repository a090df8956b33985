#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Workload generators and adversarial instances for projected frequency
//! estimation.
//!
//! - [`gen`] — synthetic data matching the paper's motivating scenarios:
//!   uniform/diverse, Zipf heavy-hitter, planted subspace clusters,
//!   correlated columns, and a demographic bias-audit
//!   generator.
//! - [`adversarial`] — the exact instance constructions of the lower-bound
//!   proofs (Theorem 4.1 and its corollaries, Theorems 5.3–5.5), reusable
//!   both by the Index-reduction harness in `pfe-lowerbounds` and as
//!   worst-case workloads.
//! - [`stream`] — row-order adapters (shuffle, reorder, interleave) for
//!   order-insensitivity testing, reflecting the streaming model of
//!   Section 2.

pub mod adversarial;
pub mod gen;
pub mod stream;

pub use adversarial::{
    alphabet_reduce, digits_per_symbol, expand_columns, F0Instance, FpInstance, HeavyHitterInstance,
};
pub use gen::{
    bias_audit, bias_audit_planted, clustered_subspace, correlated_columns, uniform_binary,
    uniform_qary, zipf_patterns, ClusteredConfig, ClusteredData,
};
pub use stream::{interleave, reorder, shuffled};
