//! The chunked file ingester: bytes in, engine-sized chunks out.
//!
//! The pipeline is allocation-disciplined end to end:
//!
//! ```text
//!   file ──1 MiB reads──▶ pending byte buffer
//!        split at the last '\n' (partial line carries over)
//!        ──lines──▶ RowParser (byte-level, no per-row alloc)
//!        ──append──▶ chunk buffer  (Vec<u64> packed / flat Vec<u16> dense)
//!        every `chunk_rows` rows ──▶ RowSink::push_*_rows (one call per chunk)
//! ```
//!
//! Schema discovery happens on the first line (header, explicit
//! `--columns` spec, or synthesized names from the first row's field
//! count), after which the caller-supplied sink factory runs exactly
//! once — that is how an `Engine` whose dimension depends on the file
//! can be built mid-ingest without a second pass.
//!
//! Progress and throughput flow through the shared `pfe-obs`
//! [`Recorder`]: `ingest_rows`, `ingest_bytes`, `ingest_chunks`,
//! `ingest_rejected_rows` counters and an `ingest_chunk_latency_ns`
//! histogram around every sink hand-off.

use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfe_obs::{Counter, Histogram, Recorder, Span};

use crate::error::IngestError;
use crate::parser::{split_fields, RowParser};
use crate::schema::{IngestOptions, Schema};
use crate::sink::RowSink;

/// What one ingest run did, for reports and logs.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The schema the run discovered or was given.
    pub schema: Schema,
    /// Rows delivered to the sink.
    pub rows: u64,
    /// Bytes read from the input.
    pub bytes: u64,
    /// Chunks handed to the sink.
    pub chunks: u64,
    /// Malformed rows skipped under the reject budget.
    pub rejected: u64,
    /// Wall-clock time from opening the input to handing the sink its
    /// last chunk. A sink that queues (the engine's shard channels) has
    /// not *processed* the rows by then: a caller reporting end-to-end
    /// throughput sets this to its own clock once the sink is drained.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Rows per second over [`elapsed`](Self::elapsed).
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Megabytes (1e6 bytes) per second over [`elapsed`](Self::elapsed).
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The recorder-backed instruments one ingester reports through.
struct Instruments {
    rows: Arc<Counter>,
    bytes: Arc<Counter>,
    chunks: Arc<Counter>,
    rejected: Arc<Counter>,
    chunk_latency: Arc<Histogram>,
}

impl Instruments {
    fn from_recorder(r: &Recorder) -> Self {
        Self {
            rows: r.counter("ingest_rows"),
            bytes: r.counter("ingest_bytes"),
            chunks: r.counter("ingest_chunks"),
            rejected: r.counter("ingest_rejected_rows"),
            chunk_latency: r.histogram("ingest_chunk_latency_ns"),
        }
    }
}

/// The chunked CSV/TSV ingester. One instance is reusable across files.
pub struct FileIngester {
    opts: IngestOptions,
    ins: Instruments,
}

impl FileIngester {
    /// An ingester with detached instruments (not in any registry).
    pub fn new(opts: IngestOptions) -> Self {
        Self::with_recorder(opts, &Recorder::new())
    }

    /// An ingester reporting through `recorder` — pass the engine's (or
    /// dispatcher's) recorder so ingest series land in the same registry
    /// the Prometheus endpoint scrapes.
    pub fn with_recorder(opts: IngestOptions, recorder: &Recorder) -> Self {
        Self {
            ins: Instruments::from_recorder(recorder),
            opts,
        }
    }

    /// Ingest `path`, building the sink from the discovered schema.
    ///
    /// `make_sink` runs exactly once, after the schema is known and
    /// before the first data chunk — the one-pass answer to "the engine
    /// needs `d`, but `d` comes from the file".
    ///
    /// # Errors
    /// Any [`IngestError`]; the input is never partially re-read.
    pub fn ingest_path_with<S, F, P>(
        &self,
        path: P,
        make_sink: F,
    ) -> Result<(S, IngestReport), IngestError>
    where
        S: RowSink,
        F: FnOnce(&Schema) -> Result<S, IngestError>,
        P: AsRef<Path>,
    {
        let label = path.as_ref().display().to_string();
        let file = std::fs::File::open(path.as_ref()).map_err(|e| IngestError::Io {
            path: label.clone(),
            detail: e.to_string(),
        })?;
        self.ingest_reader_with(file, &label, make_sink)
    }

    /// Ingest `path` into an existing sink (shape must already match).
    ///
    /// # Errors
    /// Any [`IngestError`].
    pub fn ingest_into<S, P>(&self, path: P, sink: S) -> Result<(S, IngestReport), IngestError>
    where
        S: RowSink,
        P: AsRef<Path>,
    {
        self.ingest_path_with(path, |_| Ok(sink))
    }

    /// Ingest from any reader (stdin, a socket, a test cursor). `label`
    /// names the source in errors and picks the inferred delimiter.
    ///
    /// # Errors
    /// Any [`IngestError`].
    pub fn ingest_reader_with<R, S, F>(
        &self,
        mut input: R,
        label: &str,
        make_sink: F,
    ) -> Result<(S, IngestReport), IngestError>
    where
        R: Read,
        S: RowSink,
        F: FnOnce(&Schema) -> Result<S, IngestError>,
    {
        let start = Instant::now();
        let delim = self.opts.delimiter_for(label);
        let mut run = Run {
            opts: &self.opts,
            ins: &self.ins,
            label,
            delim,
            make_sink: Some(make_sink),
            sink: None,
            schema: None,
            parser: None,
            packed: Vec::new(),
            dense: Vec::new(),
            lineno: 0,
            rows: 0,
            bytes: 0,
            chunks: 0,
            rejected: 0,
        };
        let chunk_bytes = self.opts.chunk_bytes.max(1);
        let mut pending: Vec<u8> = Vec::new();
        loop {
            let old = pending.len();
            pending.resize(old + chunk_bytes, 0);
            let n = input
                .read(&mut pending[old..])
                .map_err(|e| IngestError::Io {
                    path: label.to_string(),
                    detail: e.to_string(),
                })?;
            pending.truncate(old + n);
            if n == 0 {
                break;
            }
            run.bytes += n as u64;
            self.ins.bytes.add(n as u64);
            if let Some(pos) = pending.iter().rposition(|&b| b == b'\n') {
                for line in pending[..pos].split(|&b| b == b'\n') {
                    run.line(line)?;
                }
                pending.drain(..=pos);
            }
        }
        // A final line without a trailing newline is still a row.
        if !pending.is_empty() {
            run.line(&pending)?;
        }
        run.flush()?;
        let schema = match run.schema.take() {
            Some(s) => s,
            None => {
                return Err(IngestError::EmptyInput {
                    path: label.to_string(),
                })
            }
        };
        if run.rows == 0 && run.rejected == 0 {
            return Err(IngestError::EmptyInput {
                path: label.to_string(),
            });
        }
        let sink = run.sink.take().expect("schema implies sink was built");
        let report = IngestReport {
            schema,
            rows: run.rows,
            bytes: run.bytes,
            chunks: run.chunks,
            rejected: run.rejected,
            elapsed: start.elapsed(),
        };
        Ok((sink, report))
    }
}

/// Per-run mutable state, split out so the read loop can borrow the
/// pending buffer immutably while lines mutate everything else.
struct Run<'a, S, F> {
    opts: &'a IngestOptions,
    ins: &'a Instruments,
    label: &'a str,
    delim: u8,
    make_sink: Option<F>,
    sink: Option<S>,
    schema: Option<Schema>,
    parser: Option<RowParser>,
    packed: Vec<u64>,
    dense: Vec<u16>,
    lineno: u64,
    rows: u64,
    bytes: u64,
    chunks: u64,
    rejected: u64,
}

impl<S, F> Run<'_, S, F>
where
    S: RowSink,
    F: FnOnce(&Schema) -> Result<S, IngestError>,
{
    fn line(&mut self, line: &[u8]) -> Result<(), IngestError> {
        self.lineno += 1;
        if self.schema.is_none() && self.first_line(line)? {
            return Ok(());
        }
        let (packed_mode, d) = {
            let s = self.schema.as_ref().expect("schema set by first_line");
            (s.packed(), s.dimension() as usize)
        };
        let lineno = self.lineno;
        let result = {
            let parser = self.parser.as_ref().expect("schema implies parser");
            if packed_mode {
                parser
                    .parse_packed(line, lineno)
                    .map(|row| self.packed.push(row))
            } else {
                parser.parse_dense_into(line, lineno, &mut self.dense)
            }
        };
        match result {
            Ok(()) => {
                self.rows += 1;
                if self.packed.len() >= self.opts.chunk_rows.max(1)
                    || self.dense.len() >= self.opts.chunk_rows.max(1) * d
                {
                    self.flush()?;
                }
                Ok(())
            }
            Err(e) => {
                if self.rejected < self.opts.max_rejects {
                    self.rejected += 1;
                    self.ins.rejected.inc();
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Discover the schema from the first line; returns whether the line
    /// was a header (consumed) rather than data.
    fn first_line(&mut self, line: &[u8]) -> Result<bool, IngestError> {
        let schema = if self.opts.has_header {
            let fields = split_fields(line, self.delim, self.lineno)?;
            let mut columns = Vec::with_capacity(fields.len());
            for (i, raw) in fields.into_iter().enumerate() {
                let name = String::from_utf8(raw).map_err(|_| IngestError::Parse {
                    line: self.lineno,
                    column: i as u32 + 1,
                    kind: crate::error::ParseErrorKind::Utf8,
                    detail: "header name is not valid UTF-8".into(),
                })?;
                columns.push(name);
            }
            if let Some(expected) = &self.opts.columns {
                if *expected != columns {
                    return Err(IngestError::Schema(format!(
                        "header {columns:?} does not match declared columns {expected:?} in {}",
                        self.label
                    )));
                }
            }
            Schema {
                columns,
                alphabet: self.opts.alphabet,
            }
        } else if let Some(columns) = &self.opts.columns {
            Schema {
                columns: columns.clone(),
                alphabet: self.opts.alphabet,
            }
        } else {
            // Headerless and undeclared: the first data row fixes `d`.
            let fields = split_fields(line, self.delim, self.lineno)?;
            Schema::synthetic(fields.len() as u32, self.opts.alphabet)
        };
        schema.validate()?;
        let make = self.make_sink.take().expect("first_line runs once");
        self.sink = Some(make(&schema)?);
        self.parser = Some(RowParser::new(&schema, self.delim));
        let consumed = self.opts.has_header;
        self.schema = Some(schema);
        Ok(consumed)
    }

    /// Hand buffered rows to the sink as one chunk.
    fn flush(&mut self) -> Result<(), IngestError> {
        let (Some(sink), Some(schema)) = (self.sink.as_mut(), self.schema.as_ref()) else {
            return Ok(());
        };
        let d = schema.dimension();
        if !self.packed.is_empty() {
            let span = Span::on(Arc::clone(&self.ins.chunk_latency));
            sink.push_packed_rows(&self.packed)?;
            drop(span);
            self.ins.rows.add(self.packed.len() as u64);
            self.packed.clear();
            self.chunks += 1;
            self.ins.chunks.inc();
        }
        if !self.dense.is_empty() {
            let span = Span::on(Arc::clone(&self.ins.chunk_latency));
            sink.push_dense_rows(d, &self.dense)?;
            drop(span);
            self.ins.rows.add(self.dense.len() as u64 / d.max(1) as u64);
            self.dense.clear();
            self.chunks += 1;
            self.ins.chunks.inc();
        }
        Ok(())
    }
}
