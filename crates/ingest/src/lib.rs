#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `pfe-ingest` — zero-dependency columnar CSV/TSV file ingest for the
//! projected-frequency engine.
//!
//! The paper's summaries consume rows; real deployments have files. This
//! crate is the bridge, built for the GB/s-class target in ROADMAP item
//! 2: input is chunk-read (1 MiB at a time), cut at line boundaries,
//! parsed with **no per-row allocation** — a line of one-digit fields
//! eight bytes at a time, any other line byte by byte (packed schemas
//! bit-pack straight into a `Vec<u64>`, general alphabets append into
//! one flat `Vec<u16>`) — and handed to the engine in `chunk_rows`-sized
//! chunks ([`pfe_engine::Chunk`]) over its one allocation-free `push`.
//!
//! Everything that can be wrong with a file is a typed [`IngestError`]
//! naming the 1-based line and field — ragged rows, bad digits,
//! out-of-alphabet values, quote mistakes, non-UTF-8 header bytes —
//! never a panic: the file boundary is a trust boundary exactly like
//! the wire protocol. A caller that prefers throughput over strictness
//! sets [`IngestOptions::max_rejects`] and gets counted skips instead.
//!
//! ```
//! use pfe_engine::{Engine, EngineConfig, Query};
//! use pfe_ingest::{FileIngester, IngestOptions};
//!
//! let dir = std::env::temp_dir().join("pfe-ingest-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("rows.csv");
//! std::fs::write(&path, "a,b,c\n1,0,1\n0,1,1\n1,0,1\n").unwrap();
//!
//! let ingester = FileIngester::new(IngestOptions::default());
//! // The sink factory runs once the schema is known, so the engine's
//! // dimension comes from the file itself — one pass, no pre-scan.
//! let (engine, report) = ingester
//!     .ingest_path_with(&path, |schema| {
//!         Engine::start(schema.dimension(), schema.alphabet, EngineConfig::default())
//!             .map_err(|e| pfe_ingest::IngestError::Sink(e.to_string()))
//!     })
//!     .unwrap();
//! assert_eq!(report.rows, 3);
//! engine.refresh().unwrap(); // publish a snapshot for querying
//! let ans = engine.query(&Query::over([0, 1, 2]).f0()).unwrap();
//! assert!(ans.estimate().unwrap() > 0.0);
//! # engine.shutdown().ok();
//! # std::fs::remove_file(&path).ok();
//! ```
//!
//! Observability: construct with [`FileIngester::with_recorder`] and the
//! run reports `ingest_rows` / `ingest_bytes` / `ingest_chunks` /
//! `ingest_rejected_rows` counters plus an `ingest_chunk_latency_ns`
//! histogram into the shared registry — the same one the server's
//! Prometheus endpoint renders.

pub mod error;
pub mod parser;
pub mod reader;
pub mod schema;
pub mod sink;

pub use error::{IngestError, ParseErrorKind};
pub use parser::RowParser;
pub use reader::{FileIngester, IngestReport};
pub use schema::{IngestOptions, Schema, MAX_COLUMNS};
pub use sink::{RowSink, VecSink};
