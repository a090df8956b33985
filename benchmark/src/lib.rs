//! The repo benchmark's shared parts: seeded inputs, the exact reference,
//! order statistics, a JSON codec of the harness's own, and the metric
//! contract. Nothing in this library touches repo code; `src/layers.rs`
//! is the only file that does.

pub mod canary;
pub mod e2e;
pub mod gen;
pub mod json;
pub mod procfs;
pub mod reference;
pub mod sizes;
pub mod spec;
pub mod stats;
