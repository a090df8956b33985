//! Where parsed chunks go: the [`RowSink`] trait and its engine impls —
//! the file entry point onto the one ingest road (entry point → check →
//! route → `ShardSummary` loop; see `pfe_engine::ingest`).
//!
//! The ingester hands over *chunks*, never rows — a [`Chunk`] of packed
//! `u64` rows or of flat row-major `u16` symbols — which is the only unit
//! the engines accept: both impls below are one-line delegates to the
//! engine's one `push`, where the chunk is shape-checked as a whole (a
//! rejected chunk ingests nothing and surfaces as [`IngestError::Sink`])
//! and then routed. A bare [`Engine`] is a sink for library callers; the
//! CLI ingests into a [`Backend`], whichever engine it holds.

use pfe_engine::{Chunk, Engine};
use pfe_obs::TraceHandle;
use pfe_window::Backend;

use crate::error::IngestError;

/// A destination for parsed row chunks.
pub trait RowSink {
    /// Accept a chunk: packed binary rows (`Q = 2`, `d ≤ 63`) or dense
    /// rows flattened row-major (`d` symbols per row).
    ///
    /// # Errors
    /// [`IngestError::Sink`] when the destination rejects the chunk.
    fn push_rows(&mut self, chunk: Chunk<'_>) -> Result<(), IngestError>;
}

fn sink_err(e: impl std::fmt::Display) -> IngestError {
    IngestError::Sink(e.to_string())
}

impl RowSink for Engine {
    fn push_rows(&mut self, chunk: Chunk<'_>) -> Result<(), IngestError> {
        self.push(chunk, &TraceHandle::disabled()).map_err(sink_err)
    }
}

impl RowSink for Backend {
    fn push_rows(&mut self, chunk: Chunk<'_>) -> Result<(), IngestError> {
        self.push(chunk, &TraceHandle::disabled()).map_err(sink_err)
    }
}

/// A sink that just collects rows — the reference for parity tests and
/// the cheapest way to parse a file without an engine.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VecSink {
    /// Collected packed rows (packed schemas).
    pub packed: Vec<u64>,
    /// Collected dense symbols, flattened row-major (dense schemas).
    pub dense: Vec<u16>,
}

impl RowSink for VecSink {
    fn push_rows(&mut self, chunk: Chunk<'_>) -> Result<(), IngestError> {
        match chunk {
            Chunk::Packed(rows) => self.packed.extend_from_slice(rows),
            Chunk::Dense(flat) => self.dense.extend_from_slice(flat),
        }
        Ok(())
    }
}
