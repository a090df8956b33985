#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Data model for projected frequency estimation (Section 2 of the paper).
//!
//! The input is an array `A ∈ [Q]^{n×d}`; a query is a column subset
//! `C ⊆ [d]` revealed after the data. This crate provides:
//!
//! - [`ColumnSet`] — `C` as a `u64` bitmask with the set algebra the
//!   algorithms need ([`column_set`]);
//! - [`BinaryMatrix`] — packed binary rows with `PEXT`-style projection, the
//!   hot path of every summary ([`binary`]);
//! - [`QaryMatrix`] — dense general-alphabet rows ([`qary`]);
//! - [`PatternKey`]/[`PatternCodec`] — bijective base-`Q` packing of
//!   projected rows, realizing the index function `e(·)` of Remark 1
//!   ([`pattern`]);
//! - [`Dataset`] — the unified input type, and [`Chunk`], a borrowed run
//!   of its rows in either form: what every ingest entry point takes
//!   ([`dataset`]);
//! - [`FrequencyVector`] — the exact `f(A, C)` oracle with `F_p`, norms,
//!   heavy hitters and sampling distributions ([`freq`]).

pub mod binary;
pub mod column_set;
pub mod dataset;
pub mod freq;
pub mod pattern;
pub mod qary;

pub use binary::{
    bit_runs, extract_runs, extract_runs_block, pack_binary_rows, pext_u64, BinaryMatrix,
    BitExtractor, BitRun,
};
pub use column_set::{ColumnSet, ColumnSetError};
pub use dataset::{Chunk, Dataset};
pub use freq::FrequencyVector;
pub use pattern::{PatternCodec, PatternCodecError, PatternKey};
pub use qary::QaryMatrix;
