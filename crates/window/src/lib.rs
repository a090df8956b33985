#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `pfe-window` — sliding-window projected-frequency analytics over
//! tiered mergeable buckets.
//!
//! The whole-stream engine (`pfe-engine`) answers projection queries over
//! everything it ever ingested; production recency workloads ask "heavy
//! hitters over the last million rows", "`F_0` over the current hour".
//! Because every summary in the stack is **mergeable** (KMV and CountMin
//! exactly under shared per-mask seeds, the uniform row sample by the
//! seeded hypergeometric union — and losslessly while under-full), a
//! window over the recent past can be *composed from sealed
//! sub-summaries* instead of re-ingesting anything:
//!
//! 1. **[`BucketRing`]** — an exponential histogram of sealed summary
//!    buckets (tier ℓ covers `bucket_rows · 2^ℓ` rows, each tier capped;
//!    over-cap tiers merge their two oldest buckets upward; the top tier
//!    evicts). Retention is bounded, maintenance is O(1) amortized per
//!    row, and any `last_n` within retention is covered by a contiguous
//!    bucket suffix overshooting by less than one bucket.
//! 2. **[`WindowedEngine`]** — routes ingest into the ring's active
//!    bucket and answers [`Query::window(last_n)`](pfe_engine::Query)
//!    requests by merging the minimal covering suffix into an immutable
//!    [`Snapshot`](pfe_engine::Snapshot) whose epoch slot is the
//!    covering-set *fingerprint*. Serving goes through the same
//!    [`QueryExecutor`](pfe_engine::QueryExecutor) as the whole-stream
//!    engine — planner grouping, the canonical
//!    [`QueryKey`](pfe_engine::QueryKey) (which carries the window
//!    length), the LRU answer cache, guarantees, and provenance are all
//!    shared — plus a tiny fingerprint-keyed LRU of merged covering
//!    snapshots, so repeated windowed queries between seals cost a cache
//!    probe instead of a merge. An LRU miss after a write re-merges only
//!    what the write changed: sealed buckets are shared `Arc`s, a
//!    one-slot memo keeps the fold of the covering's sealed buckets
//!    (reused as is, or extended by buckets sealed since), and the
//!    snapshot is that fold ⊕ the active bucket — the same bytes as one
//!    oldest-first fold, since each merge depends only on its operands
//!    and the left one's seeded state.
//! 3. **Durability** — the whole ring implements
//!    [`Persist`](pfe_persist::Persist) (`kind::WINDOW` framing):
//!    [`WindowedEngine::checkpoint`] / [`WindowedEngine::resume`]
//!    round-trip windows bit-exactly and keep ingesting.
//!
//! Every windowed [`Answer`](pfe_engine::Answer) reports its realized
//! [`WindowCoverage`](pfe_engine::WindowCoverage): the covered suffix is
//! at least `last_n` rows (unless rows were already evicted, flagged
//! `truncated`) and overshoots by less than the oldest bucket merged —
//! the ≤ 1-bucket window slack inherent to tiered designs.
//!
//! ```
//! use pfe_engine::{EngineConfig, Query};
//! use pfe_window::{WindowConfig, WindowedEngine};
//! use pfe_stream::gen::uniform_binary;
//!
//! let ecfg = EngineConfig { sample_t: 512, kmv_k: 64, ..Default::default() };
//! let wcfg = WindowConfig { bucket_rows: 256, ..Default::default() };
//! let engine = WindowedEngine::start(12, 2, ecfg, wcfg).unwrap();
//! engine.ingest(&uniform_binary(12, 3_000, 1)).unwrap();
//! // Heavy hitters over (roughly) the most recent 1000 rows.
//! let a = engine
//!     .query(&Query::over([0, 1, 2]).heavy_hitters(0.05).window(1_000))
//!     .unwrap();
//! let w = a.window.unwrap();
//! assert!(w.covered_rows >= 1_000);            // covers the request…
//! assert!(w.covered_rows - 1_000 < 512);        // …within one bucket
//! assert!(a.hitters().unwrap().len() < 1_000);
//! ```

mod backend;
mod config;
mod engine;
mod ring;

pub use backend::Backend;
pub use config::WindowConfig;
pub use engine::{WindowStats, WindowedEngine};
pub use ring::{Bucket, BucketRing, Covering};
