#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Experiment binaries (see `EXPERIMENTS.md` for the index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — F0 lower-bound family (analytic + measured + protocol) |
//! | `figure1` | Figure 1 — α-net space/approximation tradeoff (analytic + empirical) |
//! | `sampling_error` | Theorem 5.1 — uniform-sampling frequency error scaling |
//! | `dichotomy` | Section 5 — the p<1 easy / p>1 hard dichotomies |
//! | `ablation` | Lemma 6.4 distortion tightness; sketch plug-in and net-mode ablations |
//!
//! Criterion microbenchmarks live under `benches/`.

pub mod report;
