//! Where parsed chunks go: the [`RowSink`] trait and its engine impls —
//! the file door onto the one ingest road (door → check → route →
//! `ShardSummary` loop; see `pfe_engine::ingest`).
//!
//! The ingester hands over *chunks*, never rows — a packed chunk is a
//! `&[u64]`, a dense chunk is a flat row-major `&[u16]` — which is the
//! only unit the engines accept: both impls below are one-line delegates
//! to `push_packed_batch` / `push_dense_batch`, where the chunk is
//! shape-checked as a whole (a rejected chunk ingests nothing and
//! surfaces as [`IngestError::Sink`]) and then routed. A bare [`Engine`]
//! is a sink for library callers; the CLI ingests into a [`Backend`],
//! whichever engine it holds.

use pfe_engine::Engine;
use pfe_obs::TraceHandle;
use pfe_window::Backend;

use crate::error::IngestError;

/// A destination for parsed row chunks.
pub trait RowSink {
    /// Accept a chunk of packed binary rows (`Q = 2`, `d ≤ 64`).
    ///
    /// # Errors
    /// [`IngestError::Sink`] when the destination rejects the chunk.
    fn push_packed_rows(&mut self, rows: &[u64]) -> Result<(), IngestError>;

    /// Accept a chunk of dense rows, flattened row-major (`d` symbols
    /// per row).
    ///
    /// # Errors
    /// [`IngestError::Sink`] when the destination rejects the chunk.
    fn push_dense_rows(&mut self, d: u32, flat: &[u16]) -> Result<(), IngestError>;
}

fn sink_err(e: impl std::fmt::Display) -> IngestError {
    IngestError::Sink(e.to_string())
}

impl RowSink for Engine {
    fn push_packed_rows(&mut self, rows: &[u64]) -> Result<(), IngestError> {
        self.push_packed_batch(rows).map_err(sink_err)
    }

    fn push_dense_rows(&mut self, _d: u32, flat: &[u16]) -> Result<(), IngestError> {
        self.push_dense_batch(flat).map_err(sink_err)
    }
}

impl RowSink for Backend {
    fn push_packed_rows(&mut self, rows: &[u64]) -> Result<(), IngestError> {
        self.push_packed_batch(rows, &TraceHandle::disabled())
            .map_err(sink_err)
    }

    fn push_dense_rows(&mut self, _d: u32, flat: &[u16]) -> Result<(), IngestError> {
        self.push_dense_batch(flat, &TraceHandle::disabled())
            .map_err(sink_err)
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
    fn push_packed_rows(&mut self, rows: &[u64]) -> Result<(), IngestError> {
        self.packed.extend_from_slice(rows);
        Ok(())
    }

    fn push_dense_rows(&mut self, _d: u32, flat: &[u16]) -> Result<(), IngestError> {
        self.dense.extend_from_slice(flat);
        Ok(())
    }
}
