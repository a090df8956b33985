#![deny(missing_docs)]
//! `pfe-engine` — sharded parallel ingest and concurrent projection-query
//! serving over the paper's mergeable summaries.
//!
//! The paper's Algorithm 1 summaries (α-net of β-approximate sketches) and
//! Theorem 5.1 uniform samples are mergeable and stream-friendly; this
//! crate turns that property into a production-shaped engine:
//!
//! 1. **Sharded ingest** ([`IngestPipeline`]): rows are hash-partitioned
//!    by content across `N` worker shards, each owning its own
//!    [`UniformSampleSummary`](pfe_core::UniformSampleSummary) +
//!    [`AlphaNetF0`](pfe_core::alpha_net::AlphaNetF0)`<Kmv>` (plus an
//!    optional CountMin frequency net), fed through *bounded* channels so
//!    slow shards apply backpressure. Every door — a
//!    [`Dataset`](pfe_row::Dataset), the wire, a file, the window ring —
//!    hands over a shape-checked *chunk* ([`check_packed_chunk`] /
//!    [`check_dense_chunk`]), and [`ShardSummary`]'s chunk methods are the
//!    one per-row loop.
//! 2. **Merge / compaction** ([`Snapshot`]): shard summaries fold into an
//!    immutable snapshot via the net's own `check_mergeable` / `merge`
//!    ([`AlphaNetSummary`](pfe_core::AlphaNetSummary)) and the
//!    reservoir-union contract — exact for KMV/CountMin/AMS (per-mask
//!    seeds are shared), hypergeometric-uniform for the row sample.
//! 3. **Query serving** ([`Engine`]): typed [`Query`] batches — the four
//!    paper statistics (`F_0`, point frequency, heavy hitters, `ℓ_1`
//!    sampling) plus opt-in `F_p` frequency moments (AMS at `p = 2`,
//!    stable projections at fractional `p`) — against `Arc`-shared
//!    snapshots. A batch **planner**
//!    normalizes every query to its canonical [`pfe_query::QueryKey`]
//!    (rounded mask, encoded pattern) once, groups co-plannable queries
//!    so one net lookup and one cache probe serve the whole group, and
//!    returns guarantee-carrying [`Answer`]s in request order. The LRU
//!    cache is keyed by the same canonical key.
//!
//! Snapshots are also **durable** ([`persist`]): [`Engine::checkpoint`]
//! writes the merged state as a framed, CRC-checked file (`pfe-persist`
//! format), [`Engine::resume`] restores it into a fresh engine that
//! answers queries bit-identically and keeps ingesting, and
//! [`merge_snapshot_files`] unions snapshot files built by independent
//! processes over disjoint slices of one stream. See
//! `examples/checkpoint_resume.rs` for the full cycle:
//!
//! ```
//! use pfe_engine::{Engine, EngineConfig, Query};
//! use pfe_stream::gen::uniform_binary;
//!
//! let dir = std::env::temp_dir().join("pfe-engine-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.pfes");
//! let cfg = EngineConfig { shards: 2, sample_t: 256, kmv_k: 32, ..Default::default() };
//! let engine = Engine::start(10, 2, cfg.clone()).unwrap();
//! engine.ingest(&uniform_binary(10, 2_000, 5)).unwrap();
//! engine.checkpoint(&path).unwrap();              // durable snapshot
//! let restored = Engine::resume(&path, cfg).unwrap();
//! let q = Query::over([0, 1, 2]).f0();
//! // The restored engine serves immediately, identically.
//! assert_eq!(
//!     engine.query(&q).unwrap().value,
//!     restored.query(&q).unwrap().value,
//! );
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! `pfe serve` (`crates/cli`) speaks line-delimited JSON over stdin or
//! TCP; the [`wire`] module serializes the canonical `pfe-query` types
//! directly onto the vendored [`json`] parser, so the Rust API and the
//! wire protocol are one definition. `benches/engine.rs`,
//! `benches/query.rs`, and `benches/persist.rs` in `pfe-bench` measure
//! ingest throughput vs. shard count, planner/cache query latency, and
//! snapshot encode/decode/checkpoint cost.

pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod exec;
pub mod ingest;
pub mod json;
pub mod persist;
pub mod planner;
pub mod shard;
pub mod snapshot;
pub mod wire;

pub use cache::{CacheStats, CachedAnswer, QueryCache};
pub use config::{EngineConfig, FreqNetConfig};
// The moment-net configuration lives in pfe-core (the nets are built
// there); re-exported so engine users need only one import path.
pub use engine::{Engine, EngineStats};
pub use error::EngineError;
pub use exec::{QueryCounters, QueryExecutor};
pub use ingest::{check_dense_chunk, check_packed_chunk, IngestPipeline, RowBatch};
pub use json::Json;
pub use persist::merge_snapshot_files;
pub use pfe_core::FpConfig;
pub use shard::ShardSummary;
pub use snapshot::{FrequencyAnswer, Snapshot};
// The shared observability registry — re-exported so frontends threading
// a recorder through the engine need only one import path.
pub use pfe_obs::{
    chrome_trace_json, CompletedTrace, Recorder, SlowEntry, SpanRecord, TraceContext, TraceHandle,
    TraceStore,
};
// The canonical query surface — re-exported so engine users need only one
// import path.
pub use pfe_query::{
    Answer, AnswerValue, CostInfo, Guarantee, GuaranteeSource, Provenance, Query, QueryKey,
    QueryOptions, StatKind, Statistic, WindowCoverage,
};
