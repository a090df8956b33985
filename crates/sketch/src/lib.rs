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
//! | frequency moments | [`AmsF2`] (`p = 2`), [`StableFp`] (`0 < p < 2`) |
//! | sampling | [`Reservoir`] (uniform — Theorem 5.1) |
//!
//! All sketches take explicit seeds, support merging where the structure
//! permits, and report their memory through [`SpaceUsage`].

pub mod ams_f2;
pub mod bjkst;
pub mod count_min;
pub mod count_sketch;
pub mod kmv;
pub mod linear_counting;
pub mod reservoir;
pub mod stable_fp;
pub mod traits;

pub use ams_f2::AmsF2;
pub use bjkst::Bjkst;
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use kmv::Kmv;
pub use linear_counting::LinearCounting;
pub use reservoir::Reservoir;
pub use stable_fp::{stable_median_abs, StableFp};
pub use traits::{DistinctSketch, FrequencySketch, MomentSketch, SpaceUsage};
