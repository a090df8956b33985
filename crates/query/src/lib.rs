#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `pfe-query` — the canonical request/response surface for projected
//! frequency estimation.
//!
//! The paper's central object is a *projection query*: a column subset
//! `C ⊆ [d]` plus a statistic of the projected frequency vector
//! `f(A, C)`, answered with a provable accuracy guarantee. This crate
//! defines that object once, for every consumer — the `pfe-engine` Rust
//! API, its LRU cache keys, its batch planner, and the `serve` wire
//! protocol all speak these types:
//!
//! - [`Query`]: fluent builder over a column subset — the four paper
//!   statistics ([`Statistic::F0`], [`Statistic::Frequency`],
//!   [`Statistic::HeavyHitters`], [`Statistic::L1Sample`]) plus
//!   frequency moments ([`Statistic::Fp`], AMS at `p = 2`, stable
//!   projections at fractional `p`) and per-query [`QueryOptions`]
//!   (epoch pinning, cache bypass, exact-if-available, sliding
//!   `window(last_n)`);
//! - [`Answer`]: the uniform response — statistic payload, the
//!   theorem-derived [`Guarantee`] (`α` multiplicative, `ε` additive,
//!   [`GuaranteeSource`] exact / sample / α-net), rounded-mask
//!   [`Provenance`] (Lemma 6.4: which net member actually answered),
//!   snapshot epoch, cache/cost metadata ([`CostInfo`]), and — for
//!   windowed queries — the realized [`WindowCoverage`] (the merged
//!   covering set may overshoot `last_n` by less than one bucket);
//! - [`QueryKey`]: the canonical hash identity — queries sharing an
//!   effective (rounded) mask and statistic share one cache entry and
//!   one planner group.
//!
//! ```
//! use pfe_query::{Query, StatKind, Statistic};
//!
//! let batch = vec![
//!     Query::over([0, 3, 5]).f0(),
//!     Query::over([0, 1]).frequency([1u16, 0]),
//!     Query::over([0, 1, 2]).heavy_hitters(0.1),
//!     Query::over([0, 2]).l1_sample(16).with_seed(7),
//!     Query::over([0, 1]).fp(1.5),
//! ];
//! let kinds: Vec<StatKind> = batch.iter().map(|q| q.statistic.kind()).collect();
//! assert_eq!(kinds, StatKind::ALL);
//! ```

mod answer;
mod key;
mod query;
mod statistic;

pub use answer::{
    Answer, AnswerValue, CostInfo, Guarantee, GuaranteeSource, Provenance, WindowCoverage,
};
pub use key::QueryKey;
pub use query::{Query, QueryBuilder, QueryOptions};
pub use statistic::{StatKind, Statistic};
