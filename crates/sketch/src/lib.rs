#![warn(missing_docs)]
//! Streaming sketch substrate.
//!
//! The α-net meta-algorithm of the paper's Section 6 keeps one
//! "β-approximate sketch" per net subset; this crate supplies those
//! plug-ins, plus the classical-streaming baselines the paper contrasts
//! with, all implemented from scratch on the `pfe-hash` substrate:
//!
//! | family | sketches |
//! |---|---|
//! | distinct count (`F_0`) | [`Kmv`], [`LinearCounting`], [`Bjkst`] |
//! | point frequency | [`CountMin`], [`CountSketch`] |
//! | deterministic heavy hitters | [`MisraGries`], [`SpaceSaving`] |
//! | frequency moments | [`AmsF2`] (`p = 2`), [`StableFp`] (`0 < p < 2`) |
//! | sampling | [`Reservoir`] (uniform — Theorem 5.1), [`ReservoirL`] (skip-ahead), [`WeightedReservoir`], [`L0Sampler`] (turnstile support sampling) |
//!
//! All sketches take explicit seeds, support merging where the structure
//! permits, and report their memory through [`SpaceUsage`].

pub mod ams_f2;
pub mod bjkst;
pub mod count_min;
pub mod count_sketch;
pub mod kmv;
pub mod l0_sampler;
pub mod linear_counting;
pub mod misra_gries;
pub mod reservoir;
pub mod reservoir_l;
pub mod space_saving;
pub mod stable_fp;
pub mod traits;
pub mod weighted_reservoir;

pub use ams_f2::AmsF2;
pub use bjkst::Bjkst;
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use kmv::Kmv;
pub use l0_sampler::L0Sampler;
pub use linear_counting::LinearCounting;
pub use misra_gries::MisraGries;
pub use reservoir::Reservoir;
pub use reservoir_l::ReservoirL;
pub use space_saving::SpaceSaving;
pub use stable_fp::{stable_median_abs, StableFp};
pub use traits::{DistinctSketch, FrequencySketch, MomentSketch, SpaceUsage};
pub use weighted_reservoir::WeightedReservoir;
