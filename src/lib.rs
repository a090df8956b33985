#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Projected frequency estimation over column subspaces — a from-scratch
//! Rust reproduction of Cormode, Dickens & Woodruff, *Subspace
//! Exploration: Bounds on Projected Frequency Estimation* (PODS 2021,
//! arXiv:2101.07546).
//!
//! This facade re-exports the workspace crates:
//!
//! - [`hash`] — deterministic PRNGs, k-wise independent hashing, seeded
//!   `BuildHasher`;
//! - [`codes`] — constant-weight codes `B(d,k)`, Lemma 3.2 random codes,
//!   greedy codes, the `star_Q` operator, binomials and entropy;
//! - [`row`] — column sets, packed binary and Q-ary matrices, pattern
//!   keys, exact frequency vectors;
//! - [`sketch`] — KMV/LinearCounting/BJKST distinct counters,
//!   CountMin/CountSketch, AMS F2, p-stable Fp, the uniform reservoir;
//! - [`stream`] — workload generators and the paper's adversarial
//!   lower-bound instances;
//! - [`core`] — the paper's summaries: exact baseline, Theorem 5.1
//!   uniform sampling, the Section 6 α-net family, related-work baselines;
//! - [`lowerbounds`] — executable Index reductions for Theorems 4.1,
//!   5.3, 5.4, 5.5 and the related-work contrast models;
//! - [`query`] — the canonical typed query surface: the fluent `Query`
//!   builder over all four paper statistics, the guarantee-carrying
//!   `Answer`, and the canonical cache/planner `QueryKey`;
//! - [`engine`] — sharded parallel ingest and concurrent query serving
//!   over the mergeable summaries (shard → merge → snapshot → cache),
//!   with a mask-sharing batch planner, durable checkpoint/resume, and
//!   cross-process snapshot union;
//! - [`window`] — sliding-window analytics: a tiered ring of sealed
//!   mergeable buckets (exponential histogram) serving `last_n`-row
//!   queries by merging the minimal covering set, with fingerprint-keyed
//!   caching and durable checkpoint/resume of the whole ring;
//! - [`server`] — concurrent network serving: the line-delimited JSON
//!   protocol over TCP with a bounded worker pool, typed saturation
//!   rejection, graceful checkpoint-on-shutdown, and a small client
//!   library (one protocol dispatcher shared by pipe mode, TCP sessions,
//!   and tests);
//! - [`persist`] — the zero-dependency versioned binary codec (magic +
//!   version + CRC-32 framing) behind the durable snapshots;
//! - [`ingest`] — columnar CSV/TSV bulk loading: chunk-read, byte-level
//!   parsed with no per-row allocation, typed line/column errors, feeding
//!   the engines' batch surfaces (the `pfe` binary's file path).
//!
//! See `README.md` for a tour and `ARCHITECTURE.md` for the data-flow
//! diagram, crate graph, and the theorem → module map.
pub use pfe_codes as codes;
pub use pfe_core as core;
pub use pfe_engine as engine;
pub use pfe_hash as hash;
pub use pfe_ingest as ingest;
pub use pfe_lowerbounds as lowerbounds;
pub use pfe_persist as persist;
pub use pfe_query as query;
pub use pfe_row as row;
pub use pfe_server as server;
pub use pfe_sketch as sketch;
pub use pfe_stream as stream;
pub use pfe_window as window;
