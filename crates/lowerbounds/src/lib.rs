#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Executable communication-complexity lower bounds.
//!
//! The paper's `2^{Ω(d)}` space bounds (Theorems 4.1, 5.3, 5.4, 5.5) all
//! reduce the one-way Index problem to projected frequency estimation over
//! carefully coded instances (Section 3.3). This crate makes each
//! reduction runnable:
//!
//! - [`index_problem`] — the Alice/Bob harness and accuracy reports;
//! - [`f0`] — Theorem 4.1 and the Table 1 corollaries (`F_0`);
//! - [`heavy_hitters`] — Theorem 5.3 (`ℓ_p` heavy hitters, `p > 1`);
//! - [`fp`] — Theorem 5.4 (`F_p` estimation, both branches of `p ≠ 1`);
//! - [`sampling`] — Theorem 5.5 (`ℓ_p` sampling, both branches).
//!
//! An exact oracle decides every instance perfectly (the reductions are
//! correct — tested); the bench binaries additionally run compressed
//! summaries whose guarantees are weaker than the constructed separations
//! and report the accuracy collapse, which is the lower bound in action.

pub mod f0;
pub mod fp;
pub mod heavy_hitters;
pub mod hypotheticals;
pub mod index_problem;
pub mod sampling;

pub use f0::{
    table1_corollary42, table1_corollary43, table1_corollary44, table1_theorem41, ExactF0Oracle,
    F0Oracle, F0Protocol, Table1Row,
};
pub use fp::{measure_fp_gap, ExactFpOracle, FpGap, FpLargeProtocol, FpOracle, FpSmallProtocol};
pub use heavy_hitters::{ExactHhOracle, HhOracle, HhProtocol};
pub use hypotheticals::{model_divergence, HypotheticalsProtocol, HypotheticalsSummary};
pub use index_problem::{run_trials, MembershipProtocol, TrialReport};
pub use sampling::{m_prime_mass, SamplerLargeProtocol, SamplerSmallProtocol};
