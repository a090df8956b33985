#![warn(missing_docs)]
//! Coding-theory toolkit for the lower-bound constructions of
//! Cormode–Dickens–Woodruff (PODS 2021).
//!
//! The paper's lower bounds (Section 3.2/3.3) are built from:
//!
//! - the dense constant-weight code `B(d, k)` — all binary strings of length
//!   `d` and Hamming weight `k` ([`constant_weight`]);
//! - randomly sampled codes with bounded pairwise intersection, whose
//!   existence Lemma 3.2 establishes via a Chernoff bound ([`random_code`]);
//! - the `star_Q` operator lifting a binary word to all `Q`-ary child words
//!   supported inside its support ([`star`]).
//!
//! Shared numeric helpers live in [`mod@binomial`] (exact and logarithmic
//! binomial coefficients) and [`entropy`] (the binary entropy function `H`
//! that governs the α-net size in Lemma 6.2). Subset enumeration and
//! colexicographic ranking utilities are in [`subsets`].
//!
//! Binary words of length `d ≤ 64` are represented as `u64` bitmasks
//! throughout — bit `i` is column `i`.

pub mod binomial;
pub mod constant_weight;
pub mod entropy;
pub mod greedy_code;
pub mod random_code;
pub mod star;
pub mod subsets;

pub use binomial::binomial;
pub use constant_weight::ConstantWeightCode;
pub use entropy::{binary_entropy, net_size_bound_log2};
pub use greedy_code::GreedyCode;
pub use random_code::{RandomCode, RandomCodeParams};
pub use star::{star_count, StarIter};
pub use subsets::FixedWeightIter;
