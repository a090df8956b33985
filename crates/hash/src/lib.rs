#![warn(missing_docs)]
//! Deterministic hashing and pseudo-randomness substrate.
//!
//! Every randomized component in this workspace (sketches, random codes,
//! workload generators, samplers) draws its randomness from this crate so
//! that experiments are reproducible from a single `u64` seed. Nothing here
//! is cryptographic; the mixers are chosen for speed and good avalanche
//! behaviour, and the k-wise independent family provides the independence
//! guarantees that the sketch analyses (AMS, CountSketch, ...) require.
//!
//! Modules:
//!
//! - [`mix`] — stateless 64-bit finalizers/combiners (SplitMix64 finalizer,
//!   xxHash-style avalanche, byte-string hashing).
//! - [`rng`] — [`rng::SplitMix64`] and
//!   [`rng::Xoshiro256pp`] PRNGs with distribution helpers
//!   (uniform ranges, floats, Gaussian, exponential, Cauchy, p-stable).
//! - [`kwise`] — polynomial k-wise independent hash family over the Mersenne
//!   prime `2^61 - 1`, with pairwise/4-wise specializations and sign hashes.
//! - [`builder`] — a fast seeded [`std::hash::BuildHasher`] so `HashMap`s in
//!   hot paths avoid SipHash (per the Rust performance guide) while staying
//!   deterministic across runs.

pub mod builder;
pub mod kwise;
pub mod mix;
pub mod rng;

pub use builder::{SeededHashMap, SeededHashSet, SeededState};
pub use kwise::{SignHash, TwoWise};
pub use mix::{hash_u128, hash_u64, mix64};
pub use rng::{SplitMix64, Xoshiro256pp};
