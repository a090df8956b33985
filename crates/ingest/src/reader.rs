//! The chunked file ingester: bytes in, engine-sized chunks out.
//!
//! The pipeline is allocation-disciplined end to end:
//!
//! ```text
//!   file ──1 MiB reads──▶ pending byte buffer
//!        cut after the last '\n' (partial line carries over)
//!        ──at each line start──▶ RowParser::take_{packed,dense}:
//!              every leading regular line, 8 bytes a step
//!        ──any other line──▶ RowParser byte walk (typed errors)
//!        ──append──▶ chunk buffer  (Vec<u64> packed / flat Vec<u16> dense)
//!        every `chunk_rows` rows ──▶ RowSink::push_rows (one call per chunk)
//! ```
//!
//! The fast path takes lines only up to the chunk's flush point, so both
//! paths cut the same chunks (see the `parser` module doc for which
//! lines are regular).
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

use pfe_engine::Chunk;
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
                let mut rest = &pending[..=pos];
                while !rest.is_empty() {
                    // One inlined byte compare is all a line for the
                    // walk pays the fast path.
                    let opens = run.parser.as_ref().is_some_and(|p| p.opens(rest));
                    if opens && run.regular_lines(&mut rest)? {
                        continue;
                    }
                    let end = rest
                        .iter()
                        .position(|&b| b == b'\n')
                        .expect("the cut ends with a newline");
                    run.line(&rest[..end])?;
                    rest = &rest[end + 1..];
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
        let packed_mode = self
            .schema
            .as_ref()
            .expect("schema set by first_line")
            .packed();
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
                self.flush_if_full()
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

    /// Take the regular lines at the head of `rest` through the parser's
    /// fast path, up to the chunk's flush point, and step `rest` past
    /// them; false when it took none (no schema yet, or the next line is
    /// for the walk).
    fn regular_lines(&mut self, rest: &mut &[u8]) -> Result<bool, IngestError> {
        let (Some(parser), Some(schema)) = (&self.parser, &self.schema) else {
            return Ok(false);
        };
        let chunk_rows = self.opts.chunk_rows.max(1);
        let taken = if schema.packed() {
            parser.take_packed(rest, chunk_rows, &mut self.packed)
        } else {
            parser.take_dense(rest, chunk_rows, &mut self.dense)
        };
        if taken == 0 {
            return Ok(false);
        }
        self.lineno += taken as u64;
        self.rows += taken as u64;
        self.flush_if_full()?;
        Ok(true)
    }

    /// Hand the chunk to the sink once it holds `chunk_rows` rows.
    fn flush_if_full(&mut self) -> Result<(), IngestError> {
        let d = self.schema.as_ref().map_or(1, Schema::dimension) as usize;
        let chunk_rows = self.opts.chunk_rows.max(1);
        if self.packed.len() >= chunk_rows || self.dense.len() >= chunk_rows * d {
            self.flush()?;
        }
        Ok(())
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
        let chunk = if schema.packed() {
            Chunk::Packed(&self.packed)
        } else {
            Chunk::Dense(&self.dense)
        };
        let rows = chunk.rows(d);
        if rows == 0 {
            return Ok(());
        }
        let span = Span::on(Arc::clone(&self.ins.chunk_latency));
        sink.push_rows(chunk)?;
        drop(span);
        self.ins.rows.add(rows as u64);
        self.packed.clear();
        self.dense.clear();
        self.chunks += 1;
        self.ins.chunks.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use crate::error::ParseErrorKind;
    use crate::parser::tests::{random_line, Rng, ALPHABETS, DELIMITERS};
    use crate::sink::VecSink;

    /// The rows, `rows`, `rejected` and `chunks` of a run, or its error:
    /// `(line, column, kind)` of a parse error, `None` for an empty input.
    type Outcome = Result<(VecSink, u64, u64, u64), Option<(u64, u32, ParseErrorKind)>>;

    fn parse_error(e: IngestError) -> Option<(u64, u32, ParseErrorKind)> {
        match e {
            IngestError::Parse {
                line, column, kind, ..
            } => Some((line, column, kind)),
            IngestError::EmptyInput { .. } => None,
            other => panic!("unexpected error {other}"),
        }
    }

    fn ingested(text: &[u8], opts: &IngestOptions) -> Outcome {
        let ingester = FileIngester::new(opts.clone());
        match ingester.ingest_reader_with(Cursor::new(text), "t.csv", |_| Ok(VecSink::default())) {
            Ok((sink, r)) => Ok((sink, r.rows, r.rejected, r.chunks)),
            Err(e) => Err(parse_error(e)),
        }
    }

    /// What the reader must report: every data line of `text` through
    /// the walk alone, under the same reject budget and chunk size.
    fn walked(text: &[u8], schema: &Schema, opts: &IngestOptions) -> Outcome {
        let parser = RowParser::new(schema, opts.delimiter.expect("set"));
        let mut sink = VecSink::default();
        let mut rejected = 0;
        let body = text.strip_suffix(b"\n").unwrap_or(text);
        for (i, line) in body.split(|&b| b == b'\n').enumerate().skip(1) {
            let lineno = i as u64 + 1;
            let parsed = if schema.packed() {
                parser
                    .parse_packed(line, lineno)
                    .map(|row| sink.packed.push(row))
            } else {
                parser.parse_dense_into(line, lineno, &mut sink.dense)
            };
            if let Err(e) = parsed {
                if rejected == opts.max_rejects {
                    return Err(parse_error(e));
                }
                rejected += 1;
            }
        }
        let rows = (sink.packed.len() + sink.dense.len() / schema.columns.len()) as u64;
        if rows == 0 && rejected == 0 {
            return Err(None);
        }
        Ok((sink, rows, rejected, rows.div_ceil(opts.chunk_rows as u64)))
    }

    /// Files mixing regular lines, walk-only spellings and defects, read
    /// in tiny pieces and cut into tiny chunks: the reader's two paths
    /// report what the walk alone reports.
    #[test]
    fn files_read_through_both_paths_as_through_the_walk() {
        let mut rng = Rng(2019);
        for case in 0..400 {
            let d = 1 + rng.below(63) as u32;
            let q = ALPHABETS[rng.below(ALPHABETS.len())];
            let delim = DELIMITERS[rng.below(DELIMITERS.len())];
            let schema = Schema::synthetic(d, q);
            let mut text = schema
                .columns
                .join(&(delim as char).to_string())
                .into_bytes();
            for _ in 0..20 + rng.below(30) {
                text.push(b'\n');
                text.extend(random_line(&mut rng, d, q, delim, 6));
            }
            if rng.below(2) == 0 {
                text.push(b'\n');
            }
            let opts = IngestOptions {
                delimiter: Some(delim),
                alphabet: q,
                chunk_rows: 1 + rng.below(9),
                chunk_bytes: 1 + rng.below(64),
                max_rejects: [0, 3][case % 2],
                ..IngestOptions::default()
            };
            assert_eq!(
                ingested(&text, &opts),
                walked(&text, &schema, &opts),
                "case {case}: d={d} q={q} {opts:?}\n{}",
                text.escape_ascii()
            );
        }
    }
}
