//! The one place that knows there are two engines.
//!
//! A served stream is either whole-stream ([`Engine`]) or sliding-window
//! ([`WindowedEngine`]); every layer above — the wire dispatcher, the
//! CLI's offline commands, the file ingester's sink — holds a [`Backend`]
//! and calls the operation it needs. Each operation is one `match` here,
//! so this file *is* the op table: no code outside it names a variant,
//! except to wrap an [`Engine`] it built itself in [`Backend::Plain`].
//!
//! An enum and not a trait on purpose: the two implementors are known at
//! compile time, and the variant-only operations
//! ([`plain`](Backend::plain) for snapshot install and shipping,
//! [`window_stats`](Backend::window_stats)) would need downcasts behind a
//! `dyn`.

use std::path::Path;
use std::sync::Arc;

use pfe_engine::{Answer, Engine, EngineConfig, EngineError, EngineStats, Query, Recorder};
use pfe_obs::TraceHandle;

use crate::{WindowConfig, WindowStats, WindowedEngine};

/// Whole-stream or sliding-window serving, behind one set of operations.
// A process holds one `Backend`, never a collection of them: boxing the
// larger engine would add an indirection and save nothing.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// Whole-stream serving ([`Engine`]).
    Plain(Engine),
    /// Sliding-window serving ([`WindowedEngine`]).
    Windowed(WindowedEngine),
}

impl Backend {
    /// Start an empty backend for a `d`-column stream over alphabet `q`:
    /// windowed when `wcfg` is given, whole-stream otherwise. Every metric
    /// registers in `recorder`.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn start(
        d: u32,
        q: u32,
        ecfg: EngineConfig,
        wcfg: Option<WindowConfig>,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        Ok(match wcfg {
            None => Self::Plain(Engine::start_with_recorder(d, q, ecfg, recorder)?),
            Some(wcfg) => Self::Windowed(WindowedEngine::start_with_recorder(
                d, q, ecfg, wcfg, recorder,
            )?),
        })
    }

    /// Resume whichever backend the checkpoint at `path` holds, told apart
    /// by the frame header's kind: a snapshot resumes into an [`Engine`],
    /// a window ring into a [`WindowedEngine`]. `ecfg` must repeat the
    /// parameters the checkpoint was built with; both resumes verify it
    /// against the stored summaries.
    ///
    /// # Errors
    /// `Persist` for unreadable or corrupt files, `Incompatible` when
    /// `ecfg` disagrees with the checkpoint or the file holds a record
    /// kind that cannot be served.
    pub fn resume<P: AsRef<Path>>(
        path: P,
        ecfg: EngineConfig,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        match pfe_persist::peek_kind(&path)? {
            pfe_persist::kind::SNAPSHOT => {
                Engine::resume_with_recorder(path, ecfg, recorder).map(Self::Plain)
            }
            pfe_persist::kind::WINDOW => {
                WindowedEngine::resume_with_recorder(path, ecfg, recorder).map(Self::Windowed)
            }
            other => Err(EngineError::Incompatible(format!(
                "checkpoint kind {other} is not servable (want a snapshot or window ring)"
            ))),
        }
    }

    /// Dimension `d` of the served stream.
    pub fn dimension(&self) -> u32 {
        match self {
            Self::Plain(e) => e.dimension(),
            Self::Windowed(e) => e.dimension(),
        }
    }

    /// Alphabet `Q` of the served stream — what transports need to decode
    /// the patterns in answers.
    pub fn alphabet(&self) -> u32 {
        match self {
            Self::Plain(e) => e.alphabet(),
            Self::Windowed(e) => e.alphabet(),
        }
    }

    /// Route a chunk of packed binary rows in one engine call. The plain
    /// engine records its routing spans under `trace`; the window ring
    /// pushes inline, so its tree stops at the caller's span.
    ///
    /// # Errors
    /// Shape violations (nothing is ingested) or a closed pipeline.
    pub fn push_packed_batch(&self, rows: &[u64], trace: &TraceHandle) -> Result<(), EngineError> {
        match self {
            Self::Plain(e) => e.push_packed_batch_traced(rows, trace),
            Self::Windowed(e) => e.push_packed_batch(rows),
        }
    }

    /// Route a flat row-major chunk of dense rows — the dense counterpart
    /// of [`push_packed_batch`](Self::push_packed_batch).
    ///
    /// # Errors
    /// Shape violations (nothing is ingested) or a closed pipeline.
    pub fn push_dense_batch(&self, flat: &[u16], trace: &TraceHandle) -> Result<(), EngineError> {
        match self {
            Self::Plain(e) => e.push_dense_batch_traced(flat, trace),
            Self::Windowed(e) => e.push_dense_batch(flat),
        }
    }

    /// Make what has been ingested visible to queries and report it as
    /// `(epoch, rows)` — the wire's `snapshot` op. A plain engine merges
    /// its shards into a newly published snapshot; the windowed engine
    /// serves the live ring directly, so there is nothing to publish and
    /// no epoch: it reports the rows retained.
    ///
    /// # Errors
    /// `Closed` if a plain engine's pipeline is gone.
    pub fn publish(&self) -> Result<(Option<u64>, u64), EngineError> {
        match self {
            Self::Plain(e) => e.refresh().map(|snap| (Some(snap.epoch()), snap.n())),
            Self::Windowed(e) => Ok((None, e.retained_rows())),
        }
    }

    /// Answer a batch through whichever engine is live, under a request
    /// trace: the engine stages record spans on `trace` and `Ok` answers
    /// echo its id. Identical to an untraced batch with a disabled handle.
    pub fn query_batch_traced(
        &self,
        queries: &[Query],
        trace: &TraceHandle,
    ) -> Vec<Result<Answer, EngineError>> {
        match self {
            Self::Plain(e) => e.query_batch_traced(queries, trace),
            Self::Windowed(e) => e.query_batch_traced(queries, trace),
        }
    }

    /// Engine-level counters under the one documented `stats` schema: the
    /// windowed engine maps its ring counters onto it (ingested =
    /// retained + evicted, "snapshot" fields describe the live ring,
    /// epoch 0) and serves ring-specific detail under
    /// [`window_stats`](Self::window_stats). Either way the read mirrors
    /// the backend-derived values into the recorder's gauges.
    pub fn stats(&self) -> EngineStats {
        match self {
            Self::Plain(e) => e.stats(),
            Self::Windowed(e) => {
                let w = e.window_stats();
                EngineStats {
                    rows_ingested: w.retained_rows + w.evicted_rows,
                    snapshot_epoch: 0,
                    snapshot_rows: w.retained_rows,
                    snapshot_bytes: w.ring_bytes,
                    cache: w.cache,
                    shards: 1,
                    queries_served: w.queries_served,
                    queries: w.queries,
                }
            }
        }
    }

    /// Ring counters; `None` on a whole-stream backend.
    pub fn window_stats(&self) -> Option<WindowStats> {
        match self {
            Self::Plain(_) => None,
            Self::Windowed(e) => Some(e.window_stats()),
        }
    }

    /// The whole-stream engine, for the operations only it has (snapshot
    /// install on a replica, snapshot shipping); `None` when windowed.
    pub fn plain(&self) -> Option<&Engine> {
        match self {
            Self::Plain(e) => Some(e),
            Self::Windowed(_) => None,
        }
    }

    /// Write a durable checkpoint: the merged snapshot for a plain
    /// engine, the whole bucket ring for a windowed one.
    /// [`resume`](Self::resume) reads either back.
    ///
    /// # Errors
    /// Persistence/IO failures, or `NoSnapshot` on an empty plain engine
    /// that was already shut down.
    pub fn checkpoint(&self, path: &Path) -> Result<(), EngineError> {
        match self {
            Self::Plain(e) => e.checkpoint(path).map(|_| ()),
            Self::Windowed(e) => e.checkpoint(path),
        }
    }

    /// Stop background work before the process exits: a plain engine
    /// joins its shard workers (it keeps answering from its last
    /// snapshot); the windowed engine has none. Idempotent.
    pub fn close(&self) {
        if let Self::Plain(e) = self {
            e.shutdown().ok();
        }
    }
}
