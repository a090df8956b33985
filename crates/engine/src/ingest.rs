//! The one road rows take into the summaries.
//!
//! ```text
//!  entry point              check                route                 sweep
//!  Engine / wire `ingest` ┐                      IngestPipeline::push
//!  file `RowSink`         ├ check_chunk       ─▶ hash-partition by ─▶  ShardSummary::
//!  `Dataset`              ┘ (whole chunk, or     row content, bounded  push_run
//!  window `BucketRing` ───▶  nothing is routed)  channel per shard     (Alg. 1 per mask)
//! ```
//!
//! Every entry point hands over a [`Chunk`] — a `&[u64]` of packed binary
//! rows or a flat row-major `&[u16]` of dense rows; a single row is a
//! one-row chunk. The chunk is shape-checked once, as a whole, by
//! [`check_chunk`] (the pipeline and the window ring both call it), so a
//! malformed chunk is a typed error that ingests nothing; a binary
//! stream's dense chunk is packed there, once, so everything below sees a
//! stream's rows in one form and routes and sweeps them alike whichever
//! entry point they came in by.
//! The router then hash-partitions rows by content across `N` worker
//! shards through *bounded* channels — a slow shard exerts backpressure on
//! the producer instead of letting the queue grow. Content partitioning
//! sends every copy of a row to the same shard: harmless for all summaries
//! (distinct counting is duplicate-insensitive, sampling and counting are
//! partition-oblivious) and the standard scheme for distributed distinct
//! counting. Each worker owns a [`ShardSummary`]. Woken by a batch
//! (`batch_rows` rows), it takes every batch already queued behind it —
//! up to the next snapshot request, so at most the channel's 8 plus the
//! one that woke it — and hands the run to the shard as one chunk: the
//! shard samples the rows in order, sorts the run into its distinct rows
//! once, and sweeps each α-net over them mask-major. So the sweep
//! amortizes over every batch queued when the shard wakes: a row that
//! recurs across them is projected once. Bytes do not depend on how the
//! batches group into runs, so the grouping may follow timing; the
//! `engine_shard_sweep_rows` histogram
//! ([`record_sweeps`](IngestPipeline::record_sweeps)) shows it.
//!
//! Two exits: [`snapshot`](IngestPipeline::snapshot) clones the live shard
//! summaries into a point-in-time merged view while ingest continues, and
//! [`finish`](IngestPipeline::finish) shuts the workers down and merges
//! their final state.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pfe_core::{sweep_form, QueryError, SweepRow};
use pfe_obs::{Histogram, TraceHandle};
use pfe_row::{Chunk, Dataset};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::shard::ShardSummary;
use crate::snapshot::Snapshot;

/// A batch of rows travelling to one shard, in its stream's one row form.
#[derive(Debug, Clone)]
pub(crate) enum RowBatch {
    /// Packed binary rows (a binary stream).
    Packed(Vec<u64>),
    /// Dense rows over a general alphabet, flattened row-major (`d`
    /// symbols per row). One allocation per channel message instead of
    /// one per row — the worker re-chunks by the dimension it already
    /// knows.
    Dense(Vec<u16>),
}

impl RowBatch {
    /// The batch, borrowed as a chunk.
    fn chunk(&self) -> Chunk<'_> {
        match self {
            Self::Packed(rows) => Chunk::Packed(rows),
            Self::Dense(flat) => Chunk::Dense(flat),
        }
    }
}

impl From<Vec<u64>> for RowBatch {
    fn from(rows: Vec<u64>) -> Self {
        Self::Packed(rows)
    }
}

impl From<Vec<u16>> for RowBatch {
    fn from(flat: Vec<u16>) -> Self {
        Self::Dense(flat)
    }
}

/// The router's per-shard buffers: one per shard, in the stream's one row
/// form.
enum Buffers {
    Packed(Vec<Vec<u64>>),
    Dense(Vec<Vec<u16>>),
}

/// Bounded-channel depth per shard, in batches: `send` blocks when a shard
/// falls this far behind (backpressure). 8 × the default `batch_rows` 4096
/// = 32,768 rows in flight per shard.
const CHANNEL_CAPACITY: usize = 8;

enum Msg {
    Batch(RowBatch),
    /// Reply with a clone of the shard's current summary.
    Collect(SyncSender<ShardSummary>),
    /// Record the rows of every later sweep here.
    RecordSweeps(Arc<Histogram>),
}

/// The sharded ingest pipeline.
pub struct IngestPipeline {
    senders: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<ShardSummary>>,
    /// Router-side per-shard row buffers (amortize channel traffic).
    bufs: Buffers,
    d: u32,
    q: u32,
    batch_rows: usize,
    partition_seed: u64,
    rows_routed: u64,
    epoch: u64,
    /// Checkpointed state a resumed pipeline folds under every snapshot
    /// (its summary cloned per snapshot so the fold is deterministic) —
    /// the very `Arc` the engine published at resume.
    base: Option<Arc<Snapshot>>,
    /// Sends that blocked on a full shard channel (backpressure events);
    /// detached unless [`instrument`](Self::instrument) installed a
    /// registered handle.
    backpressure: Arc<pfe_obs::Counter>,
}

/// A shard's loop. Woken by a batch, it takes every further batch already
/// queued behind it — up to the next `Collect`, and at most
/// [`CHANNEL_CAPACITY`] — and hands the run to the shard as one chunk: a
/// row that recurs across those batches is projected once, not once per
/// batch. A `Collect` is answered after the run before it, so it sees
/// exactly the rows routed before it.
fn worker(rx: Receiver<Msg>, mut shard: ShardSummary) -> ShardSummary {
    let d = shard.sample().dimension();
    let mut sweep_rows = Arc::new(Histogram::new());
    let mut next = rx.recv().ok();
    while let Some(msg) = next.take() {
        match msg {
            Msg::Batch(batch) => {
                let mut run = vec![batch];
                next = take_queued(&rx, &mut run);
                sweep_rows.record(run.iter().map(|b| b.chunk().rows(d)).sum::<usize>() as u64);
                shard.push_run(run);
            }
            Msg::Collect(reply) => {
                // The collector may have given up (engine dropped); ignore.
                let _ = reply.send(shard.clone());
            }
            Msg::RecordSweeps(hist) => sweep_rows = hist,
        }
        if next.is_none() {
            next = rx.recv().ok();
        }
    }
    shard
}

/// Move the batches already queued onto `run` — at most
/// [`CHANNEL_CAPACITY`], so a run is at most that many batches behind the
/// one that woke the worker, however fast the router refills the channel
/// — up to the first message that is not a batch, which is returned.
fn take_queued(rx: &Receiver<Msg>, run: &mut Vec<RowBatch>) -> Option<Msg> {
    for _ in 0..CHANNEL_CAPACITY {
        match rx.try_recv() {
            Ok(Msg::Batch(batch)) => run.push(batch),
            Ok(other) => return Some(other),
            Err(_) => return None,
        }
    }
    None
}

fn bad_chunk(msg: String) -> EngineError {
    EngineError::Query(QueryError::BadParameter(msg))
}

/// Shape check for a chunk bound for a `d`-column stream over alphabet
/// `q`, which hands the chunk back in the stream's one row form: packed
/// rows must be for a binary stream and set no bit at or above `d`; dense
/// rows must be whole rows of in-alphabet symbols, and a binary stream's
/// are packed here, into `packed` ([`sweep_form`]). Every entry point (the
/// pipeline router, the window ring) runs this over the *whole* chunk
/// before touching any state, so a malformed chunk ingests nothing and a
/// bad client request is a typed error — never a panic in a summary's
/// assert.
///
/// # Errors
/// `Query(BadParameter)` naming the offending row, symbol or length.
pub fn check_chunk<'a>(
    d: u32,
    q: u32,
    chunk: Chunk<'a>,
    packed: &'a mut Vec<u64>,
) -> Result<Chunk<'a>, EngineError> {
    match chunk {
        Chunk::Packed(_) if q != 2 => Err(bad_chunk(format!(
            "packed rows require a binary stream, this one has Q={q}"
        ))),
        Chunk::Packed(rows) => {
            let above_d = !((1u64 << d) - 1);
            match rows.iter().find(|&&row| row & above_d != 0) {
                Some(bad) => Err(bad_chunk(format!("row {bad:#x} has bits above d={d}"))),
                None => Ok(chunk),
            }
        }
        Chunk::Dense(flat) if d == 0 || !flat.len().is_multiple_of(d as usize) => Err(bad_chunk(
            format!("flat length {} is not a multiple of d = {d}", flat.len()),
        )),
        Chunk::Dense(flat) => match flat.iter().find(|&&s| s as u32 >= q) {
            Some(s) => Err(bad_chunk(format!("symbol {s} outside alphabet Q={q}"))),
            None => Ok(sweep_form(chunk, d, q, packed)),
        },
    }
}

impl IngestPipeline {
    /// Spawn the shard workers for a `d`-column stream over alphabet `q`.
    ///
    /// Summary construction happens inside each worker thread, so the
    /// (potentially large) α-net materialization is itself parallel.
    ///
    /// # Errors
    /// Config validation and summary construction errors.
    pub fn new(d: u32, q: u32, cfg: &EngineConfig) -> Result<Self, EngineError> {
        Self::with_base(d, q, cfg, None)
    }

    /// Spawn the workers on top of checkpointed state: every snapshot (and
    /// the final merge) folds `base`'s summary under the live shards, and
    /// epochs and the row count continue from it. This is the engine's
    /// resume path; `base` is the published snapshot itself, shared.
    ///
    /// # Errors
    /// Config validation and summary construction errors.
    pub(crate) fn with_base(
        d: u32,
        q: u32,
        cfg: &EngineConfig,
        base: Option<Arc<Snapshot>>,
    ) -> Result<Self, EngineError> {
        // Validate everything shard construction can fail on up front (no
        // sketch allocation), so construction errors surface here — not as
        // worker panics — and the net materialization stays parallel.
        ShardSummary::validate(d, q, cfg)?;
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        for shard_id in 0..cfg.shards {
            let (tx, rx) = mpsc::sync_channel::<Msg>(CHANNEL_CAPACITY);
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                let shard = ShardSummary::new(d, q, shard_id, &cfg)
                    .expect("parameters validated by the router");
                worker(rx, shard)
            }));
            senders.push(tx);
        }
        let bufs = if q == 2 {
            Buffers::Packed(vec![Vec::new(); cfg.shards])
        } else {
            Buffers::Dense(vec![Vec::new(); cfg.shards])
        };
        Ok(Self {
            bufs,
            senders,
            handles,
            d,
            q,
            batch_rows: cfg.batch_rows,
            partition_seed: cfg.seed ^ 0x9a97_7171_0000_5afe,
            // Like the epoch, the row counter continues from the
            // checkpointed state, so stats stay consistent with the
            // snapshot across a restart.
            rows_routed: base.as_ref().map_or(0, |b| b.n()),
            epoch: base.as_ref().map_or(0, |b| b.epoch()),
            base,
            backpressure: Arc::new(pfe_obs::Counter::new()),
        })
    }

    /// Route backpressure events (sends that found a shard channel full)
    /// into `counter` — typically `engine_ingest_backpressure` from the
    /// engine's shared recorder.
    pub fn instrument(&mut self, counter: Arc<pfe_obs::Counter>) {
        self.backpressure = counter;
    }

    /// Record the rows of every shard sweep — one value per run of queued
    /// batches a worker hands its shard — into `hist`, typically
    /// `engine_shard_sweep_rows` from the engine's shared recorder. Sweeps
    /// already made are not recorded.
    ///
    /// # Errors
    /// `Closed` if a worker has gone away.
    pub fn record_sweeps(&mut self, hist: &Arc<Histogram>) -> Result<(), EngineError> {
        for tx in &self.senders {
            tx.send(Msg::RecordSweeps(Arc::clone(hist)))
                .map_err(|_| EngineError::Closed)?;
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Rows routed so far (some may still be in flight to workers).
    pub fn rows_routed(&self) -> u64 {
        self.rows_routed
    }

    fn send(&self, shard: usize, batch: RowBatch) -> Result<(), EngineError> {
        // Try the non-blocking path first so a full channel is visible as
        // a backpressure event before the router parks on the blocking
        // send (same delivery order either way — one sender per shard).
        match self.senders[shard].try_send(Msg::Batch(batch)) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Disconnected(_)) => Err(EngineError::Closed),
            Err(mpsc::TrySendError::Full(msg)) => {
                self.backpressure.inc();
                self.senders[shard]
                    .send(msg)
                    .map_err(|_| EngineError::Closed)
            }
        }
    }

    /// Route a chunk (a single row is a one-row chunk): checked as a whole
    /// by [`check_chunk`] *before* any routing happens, then partitioned
    /// into the per-shard buffers and forwarded one bounded-channel
    /// message per full buffer — no per-row allocation anywhere on the
    /// path. Under an enabled `trace` the routing is one `ingest_route`
    /// span with a child `shard_send` span (shard id, chunk index, rows)
    /// per channel hop; with a disabled handle nothing is recorded or
    /// allocated.
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations (nothing is routed);
    /// `Closed` if a worker has gone away.
    pub fn push(&mut self, chunk: Chunk<'_>, trace: &TraceHandle) -> Result<(), EngineError> {
        let (mut packed, format) = (Vec::new(), chunk.form());
        let chunk = check_chunk(self.d, self.q, chunk, &mut packed)?;
        let mut route_span = trace.span("ingest_route");
        if route_span.is_enabled() {
            route_span.attr("rows", chunk.rows(self.d));
            // The form the chunk came in, whatever form it is routed in.
            route_span.attr("format", format);
        }
        let hop = route_span.handle();
        let d = self.d as usize;
        let mut bufs = std::mem::replace(&mut self.bufs, Buffers::Packed(Vec::new()));
        let routed = match (chunk, &mut bufs) {
            (Chunk::Packed(rows), Buffers::Packed(bufs)) => {
                self.route(rows.iter().copied(), bufs, 1, &hop)
            }
            (Chunk::Dense(flat), Buffers::Dense(bufs)) => {
                self.route(flat.chunks_exact(d), bufs, d, &hop)
            }
            _ => unreachable!("check_chunk hands over the stream's one row form"),
        };
        self.bufs = bufs;
        routed
    }

    /// Route a chunk of packed binary rows — [`push`](Self::push) untraced.
    ///
    /// # Errors
    /// As `push`.
    pub fn push_packed_batch(&mut self, rows: &[u64]) -> Result<(), EngineError> {
        self.push(Chunk::Packed(rows), &TraceHandle::disabled())
    }

    /// Route a flat row-major chunk of dense rows — [`push`](Self::push)
    /// untraced.
    ///
    /// # Errors
    /// As `push`.
    pub fn push_dense_batch(&mut self, flat: &[u16]) -> Result<(), EngineError> {
        self.push(Chunk::Dense(flat), &TraceHandle::disabled())
    }

    /// The one partition-and-send loop, monomorphized per row form: each
    /// row goes to the buffer of the shard its content hashes to, and a
    /// buffer that reached `batch_rows` rows (`width` cells each) crosses
    /// its shard's bounded channel, under a `shard_send` span on `hop`.
    fn route<R: SweepRow>(
        &mut self,
        rows: impl ExactSizeIterator<Item = R>,
        bufs: &mut [Vec<R::Cell>],
        width: usize,
        hop: &TraceHandle,
    ) -> Result<(), EngineError>
    where
        Vec<R::Cell>: Into<RowBatch>,
    {
        let n_rows = rows.len();
        let (shards, full) = (bufs.len() as u64, self.batch_rows * width);
        let mut chunk = 0usize;
        for row in rows {
            let shard = (row.shard_hash(self.partition_seed) % shards) as usize;
            let buf = &mut bufs[shard];
            row.append_to(buf);
            if buf.len() < full {
                continue;
            }
            let mut send_span = hop.span("shard_send");
            if send_span.is_enabled() {
                send_span.attr("shard", shard);
                send_span.attr("chunk", chunk);
                // A buffer is handed over the moment it fills.
                send_span.attr("rows", self.batch_rows);
            }
            self.send(shard, std::mem::take(buf).into())?;
            drop(send_span);
            chunk += 1;
        }
        self.rows_routed += n_rows as u64;
        Ok(())
    }

    /// Route a whole dataset (batch ingest).
    ///
    /// # Errors
    /// Shape mismatch (`BadConfig`) or `Closed`.
    pub fn ingest(&mut self, data: &Dataset) -> Result<(), EngineError> {
        if data.dimension() != self.d || data.alphabet() != self.q {
            return Err(EngineError::BadConfig(format!(
                "dataset shape ({}, Q={}) does not match pipeline ({}, Q={})",
                data.dimension(),
                data.alphabet(),
                self.d,
                self.q
            )));
        }
        self.push(Chunk::from(data), &TraceHandle::disabled())
    }

    /// Flush router-side buffers to the workers.
    ///
    /// # Errors
    /// `Closed` if a worker has gone away.
    fn flush(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.senders.len() {
            let batch: RowBatch = match &mut self.bufs {
                Buffers::Packed(bufs) => std::mem::take(&mut bufs[shard]).into(),
                Buffers::Dense(bufs) => std::mem::take(&mut bufs[shard]).into(),
            };
            if batch.chunk().rows(self.d) > 0 {
                self.send(shard, batch)?;
            }
        }
        Ok(())
    }

    /// Take a point-in-time snapshot: flush, ask every worker for a clone
    /// of its summary, and merge the clones. Workers keep ingesting;
    /// subsequent pushes land in later snapshots.
    ///
    /// # Errors
    /// `Closed` if a worker has gone away.
    pub fn snapshot(&mut self) -> Result<Snapshot, EngineError> {
        self.flush()?;
        // One reply channel per worker; collection waits for every shard,
        // which (FIFO channels) also barriers all previously sent batches.
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (reply_tx, reply_rx) = mpsc::sync_channel::<ShardSummary>(1);
            tx.send(Msg::Collect(reply_tx))
                .map_err(|_| EngineError::Closed)?;
            replies.push(reply_rx);
        }
        let shards: Result<Vec<ShardSummary>, _> = replies
            .into_iter()
            .map(|rx| rx.recv().map_err(|_| EngineError::Closed))
            .collect();
        self.epoch += 1;
        Ok(Snapshot::from_shards(
            self.with_base_first(shards?),
            self.epoch,
        ))
    }

    /// Prepend a clone of the base (resume) state, if any, so the merge
    /// fold starts from the checkpointed summaries.
    fn with_base_first(&self, shards: Vec<ShardSummary>) -> Vec<ShardSummary> {
        match &self.base {
            None => shards,
            Some(base) => {
                let mut all = Vec::with_capacity(shards.len() + 1);
                all.push(base.summary().clone());
                all.extend(shards);
                all
            }
        }
    }

    /// Shut down: flush, close the channels, join the workers, and merge
    /// their final summaries.
    ///
    /// # Errors
    /// `ShardFailed` if a worker panicked.
    pub fn finish(mut self) -> Result<Snapshot, EngineError> {
        self.flush()?;
        self.senders.clear(); // drop senders => workers drain and exit
        let mut shards = Vec::with_capacity(self.handles.len());
        for handle in self.handles.drain(..) {
            shards.push(
                handle
                    .join()
                    .map_err(|e| EngineError::ShardFailed(format!("{e:?}")))?,
            );
        }
        Ok(Snapshot::from_shards(
            self.with_base_first(shards),
            self.epoch + 1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_hash::rng::{Xoshiro256pp, ZipfTable};
    use pfe_row::ColumnSet;
    use pfe_stream::gen::{indexed_rows, uniform_binary, uniform_qary};

    fn cfg(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            sample_t: 512,
            kmv_k: 64,
            batch_rows: 64,
            ..Default::default()
        }
    }

    #[test]
    fn batch_ingest_then_finish() {
        let d = 10;
        let data = uniform_binary(d, 3000, 5);
        let mut p = IngestPipeline::new(d, 2, &cfg(3)).expect("spawn");
        p.ingest(&data).expect("ingest");
        assert_eq!(p.rows_routed(), 3000);
        let snap = p.finish().expect("finish");
        assert_eq!(snap.n(), 3000);
        let cols = ColumnSet::from_mask(d, 0b11111).expect("valid");
        assert!(snap.f0(&cols).expect("ok").estimate > 0.0);
    }

    #[test]
    fn incremental_push_and_live_snapshots() {
        let d = 8;
        let data = uniform_binary(d, 1000, 6);
        let mut p = IngestPipeline::new(d, 2, &cfg(2)).expect("spawn");
        let rows: Vec<u64> = match &data {
            Dataset::Binary(m) => m.rows().to_vec(),
            Dataset::Qary(_) => unreachable!("generator yields binary data"),
        };
        p.push_packed_batch(&rows[..500]).expect("push");
        let snap1 = p.snapshot().expect("snapshot");
        assert_eq!(snap1.n(), 500);
        p.push_packed_batch(&rows[500..]).expect("push");
        let snap2 = p.snapshot().expect("snapshot");
        assert_eq!(snap2.n(), 1000);
        assert!(snap2.epoch() > snap1.epoch());
        // Pipeline still alive after snapshots.
        let final_snap = p.finish().expect("finish");
        assert_eq!(final_snap.n(), 1000);
    }

    #[test]
    fn qary_ingest_roundtrip() {
        let data = uniform_qary(3, 6, 800, 7);
        let mut p = IngestPipeline::new(6, 3, &cfg(2)).expect("spawn");
        p.ingest(&data).expect("ingest");
        let snap = p.finish().expect("finish");
        assert_eq!(snap.n(), 800);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let data = uniform_binary(9, 10, 8);
        let mut p = IngestPipeline::new(8, 2, &cfg(1)).expect("spawn");
        assert!(matches!(p.ingest(&data), Err(EngineError::BadConfig(_))));
    }

    #[test]
    fn malformed_rows_are_typed_errors_not_panics() {
        // The pipeline is the serving boundary: a bad client row must not
        // take the engine down (regression: wrong-length rows panicked).
        let mut p = IngestPipeline::new(8, 2, &cfg(2)).expect("spawn");
        assert!(matches!(
            p.push_dense_batch(&[0, 1]),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            p.push_dense_batch(&[7; 8]),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            p.push_packed_batch(&[1 << 20]),
            Err(EngineError::Query(_))
        ));
        // A batch with one bad row routes nothing.
        let routed_before = p.rows_routed();
        assert!(matches!(
            p.push_packed_batch(&[0b1, 1 << 20, 0b10]),
            Err(EngineError::Query(_))
        ));
        assert_eq!(p.rows_routed(), routed_before);
        // Still healthy afterwards.
        p.push_packed_batch(&[0b1010_1010]).expect("good row");
        p.push_dense_batch(&[0, 1, 0, 1, 0, 1, 0, 1])
            .expect("good row");
        let snap = p.finish().expect("finish");
        assert_eq!(snap.n(), 2);
        // Q-ary pipeline rejects packed rows.
        let mut q = IngestPipeline::new(4, 3, &cfg(1)).expect("spawn");
        assert!(matches!(
            q.push_packed_batch(&[0]),
            Err(EngineError::Query(_))
        ));
        q.finish().expect("finish");
    }

    #[test]
    fn dense_chunking_does_not_change_the_snapshot() {
        // One whole-stream chunk must produce the same snapshot as
        // one-row chunks: same per-shard arrival order either way.
        let (d, q) = (6u32, 3u32);
        let data = uniform_qary(q, d, 900, 11);
        let rows: Vec<Vec<u16>> = match &data {
            Dataset::Qary(m) => (0..m.num_rows()).map(|i| m.row(i).to_vec()).collect(),
            Dataset::Binary(_) => unreachable!("generator yields q-ary data"),
        };
        let flat: Vec<u16> = rows.iter().flatten().copied().collect();
        let mut a = IngestPipeline::new(d, q, &cfg(3)).expect("spawn");
        for row in &rows {
            a.push_dense_batch(row).expect("push");
        }
        let mut b = IngestPipeline::new(d, q, &cfg(3)).expect("spawn");
        b.push_dense_batch(&flat).expect("batch push");
        assert_eq!(b.rows_routed(), 900);
        let (sa, sb) = (a.finish().expect("finish"), b.finish().expect("finish"));
        assert_eq!(sa.n(), sb.n());
        let cols = ColumnSet::from_mask(d, 0b111).expect("valid");
        assert_eq!(
            sa.f0(&cols).expect("ok").estimate,
            sb.f0(&cols).expect("ok").estimate
        );
        // Malformed flat batches are typed errors that route nothing.
        let mut c = IngestPipeline::new(d, q, &cfg(2)).expect("spawn");
        assert!(matches!(
            c.push_dense_batch(&flat[..5]),
            Err(EngineError::Query(_))
        ));
        assert!(matches!(
            c.push_dense_batch(&[9; 6]),
            Err(EngineError::Query(_))
        ));
        assert_eq!(c.rows_routed(), 0);
        c.finish().expect("finish");
    }

    /// A worker woken to a full channel — `n` batches, a `Collect`, more
    /// batches, then hang-up — must answer the `Collect` with exactly the
    /// first `n` batches' summary and end with all of them, to the byte,
    /// however it groups the queued batches into sweeps.
    #[test]
    fn a_worker_woken_to_queued_batches_leaves_the_one_batch_at_a_time_bytes() {
        fn bytes(s: &ShardSummary) -> Vec<u8> {
            let mut enc = pfe_persist::Encoder::new();
            pfe_persist::Persist::encode(s, &mut enc);
            enc.into_bytes()
        }
        let one_at_a_time = |d, q, cfg: &EngineConfig, batches: &[RowBatch]| {
            let mut shard = ShardSummary::new(d, q, 0, cfg).expect("new");
            for batch in batches {
                shard.push_chunk(batch.chunk(), None);
            }
            shard
        };
        // Skewed rows, so rows recur across batches; batches of uneven
        // length; a reservoir small enough to overflow.
        let (zipf, mut rng) = (ZipfTable::new(300, 1.2), Xoshiro256pp::seed_from_u64(17));
        let index: Vec<u64> = (0..3000).map(|_| zipf.sample(&mut rng) as u64).collect();
        let lengths = [40, 700, 1, 333, 512, 90, 64, 260, 1000];
        let cut = |data: &Dataset| {
            let mut at = 0;
            let mut batches = Vec::new();
            for &len in &lengths {
                let rows = at..at + len;
                at += len;
                batches.push(match data {
                    Dataset::Binary(m) => RowBatch::Packed(m.rows()[rows].to_vec()),
                    _ => RowBatch::Dense(rows.flat_map(|r| data.row_dense(r)).collect()),
                });
            }
            batches
        };
        let fp = pfe_core::FpConfig {
            orders: vec![2.0, 1.0],
            stable_t: 4,
            ams_groups: 3,
            ams_per_group: 4,
        };
        let cases = [
            // Binary: packed batches (`check_chunk` packs a binary
            // stream's dense rows before they are routed).
            (
                EngineConfig {
                    sample_t: 200,
                    ..cfg(1)
                },
                cut(&indexed_rows(2, 10, 3000, |i| index[i])),
                (10, 2),
            ),
            // Q = 4 with a CountMin net, an AMS (p = 2) and a stable
            // (p = 1) moment net.
            (
                EngineConfig {
                    sample_t: 200,
                    freq_net: Some(crate::config::FreqNetConfig {
                        depth: 3,
                        width: 64,
                    }),
                    fp: Some(fp),
                    ..cfg(1)
                },
                cut(&indexed_rows(4, 6, 3000, |i| index[i])),
                (6, 4),
            ),
        ];
        for (cfg, batches, (d, q)) in cases {
            for n in [0, 1, 4, batches.len()] {
                let (tx, rx) = mpsc::sync_channel(batches.len() + 1);
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                for batch in &batches[..n] {
                    tx.send(Msg::Batch(batch.clone())).expect("queued");
                }
                tx.send(Msg::Collect(reply_tx)).expect("queued");
                for batch in &batches[n..] {
                    tx.send(Msg::Batch(batch.clone())).expect("queued");
                }
                drop(tx);
                let last = worker(rx, ShardSummary::new(d, q, 0, &cfg).expect("new"));
                let collected = reply_rx.recv().expect("collect answered");
                assert_eq!(
                    bytes(&collected),
                    bytes(&one_at_a_time(d, q, &cfg, &batches[..n])),
                    "Q={q}: collect after {n} queued batches"
                );
                assert_eq!(
                    bytes(&last),
                    bytes(&one_at_a_time(d, q, &cfg, &batches)),
                    "Q={q}: final summary, collect after {n}"
                );
            }
        }
    }

    #[test]
    fn a_worker_records_one_sweep_per_run_of_queued_batches() {
        // Queued before the worker runs: the histogram, five batches, a
        // collect, three more — two runs, cut at the collect.
        let hist = Arc::new(Histogram::new());
        let (tx, rx) = mpsc::sync_channel(16);
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        tx.send(Msg::RecordSweeps(Arc::clone(&hist)))
            .expect("queued");
        for len in [10, 20, 30, 40, 50] {
            tx.send(Msg::Batch(RowBatch::Packed(vec![3; len])))
                .expect("queued");
        }
        tx.send(Msg::Collect(reply_tx)).expect("queued");
        for len in [1, 2, 3] {
            tx.send(Msg::Batch(RowBatch::Packed(vec![5; len])))
                .expect("queued");
        }
        drop(tx);
        let shard = worker(rx, ShardSummary::new(4, 2, 0, &cfg(1)).expect("new"));
        assert_eq!(reply_rx.recv().expect("collected").rows(), 150);
        assert_eq!(shard.rows(), 156);
        let sweeps = hist.snapshot();
        assert_eq!((sweeps.count, sweeps.sum, sweeps.max), (2, 156, 150));

        // Through the pipeline, every routed row is in exactly one sweep.
        let mut p = IngestPipeline::new(8, 2, &cfg(2)).expect("spawn");
        let hist = Arc::new(Histogram::new());
        p.record_sweeps(&hist).expect("workers alive");
        p.push_packed_batch(&(0..1000).map(|i| i % 256).collect::<Vec<u64>>())
            .expect("push");
        p.finish().expect("finish");
        assert_eq!(hist.snapshot().sum, 1000);
    }

    #[test]
    fn partitioning_is_content_stable() {
        let p = IngestPipeline::new(8, 2, &cfg(4)).expect("spawn");
        let shard_of = |row: u64| (row.shard_hash(p.partition_seed) % 4) as usize;
        for row in 0..200u64 {
            assert_eq!(shard_of(row), shard_of(row));
        }
        // All shards get traffic.
        let mut seen = [false; 4];
        for row in 0..200u64 {
            seen[shard_of(row)] = true;
        }
        assert!(seen.iter().all(|&s| s), "unused shard under hash partition");
    }
}
