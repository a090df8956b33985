//! The one road rows take into the summaries.
//!
//! ```text
//!  door                     check                route                 sweep
//!  Engine / wire `ingest` ┐ check_packed_chunk   IngestPipeline        ShardSummary::
//!  file `RowSink`         ├ check_dense_chunk ─▶ hash-partition by ─▶  push_packed_chunk
//!  `Dataset`              ┘ (whole chunk, or     row content, bounded  push_dense_chunk
//!  window `BucketRing` ───▶  nothing is routed)  channel per shard     (Alg. 1 per mask)
//! ```
//!
//! Every door hands over a *chunk* — a `&[u64]` of packed binary rows or a
//! flat row-major `&[u16]` of dense rows; a single row is a one-row chunk.
//! The chunk is shape-checked once, as a whole, by [`check_packed_chunk`] /
//! [`check_dense_chunk`] (the pipeline and the window ring both call
//! them), so a malformed chunk is a typed error that ingests nothing.
//! The router then hash-partitions rows by content across `N` worker
//! shards through *bounded* channels — a slow shard exerts backpressure on
//! the producer instead of letting the queue grow. Content partitioning
//! sends every copy of a row to the same shard: harmless for all summaries
//! (distinct counting is duplicate-insensitive, sampling and counting are
//! partition-oblivious) and the standard scheme for distributed distinct
//! counting. Each worker owns a [`ShardSummary`] and hands it every batch
//! (`batch_rows` rows) whole: the shard samples the rows in order and
//! sweeps each α-net over the batch mask-major, so a batch is the unit
//! that sweep amortizes over.
//!
//! Two exits: [`snapshot`](IngestPipeline::snapshot) clones the live shard
//! summaries into a point-in-time merged view while ingest continues, and
//! [`finish`](IngestPipeline::finish) shuts the workers down and merges
//! their final state.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use pfe_core::QueryError;
use pfe_hash::hash_u64;
use pfe_obs::TraceHandle;
use pfe_row::Dataset;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::shard::ShardSummary;
use crate::snapshot::Snapshot;

/// A batch of rows travelling to one shard.
#[derive(Debug, Clone)]
pub enum RowBatch {
    /// Packed binary rows (`q = 2` fast path).
    Packed(Vec<u64>),
    /// Dense rows over a general alphabet, flattened row-major (`d`
    /// symbols per row). One allocation per channel message instead of
    /// one per row — the worker re-chunks by the dimension it already
    /// knows.
    Dense(Vec<u16>),
}

enum Msg {
    Batch(RowBatch),
    /// Reply with a clone of the shard's current summary.
    Collect(SyncSender<ShardSummary>),
}

/// The sharded ingest pipeline.
pub struct IngestPipeline {
    senders: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<ShardSummary>>,
    /// Router-side per-shard row buffers (amortize channel traffic).
    packed_buf: Vec<Vec<u64>>,
    /// Flattened row-major dense rows per shard (`d` symbols per row).
    dense_buf: Vec<Vec<u16>>,
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

fn worker(rx: Receiver<Msg>, mut shard: ShardSummary) -> ShardSummary {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(RowBatch::Packed(rows)) => shard.push_packed_chunk(&rows),
            Msg::Batch(RowBatch::Dense(flat)) => shard.push_dense_chunk(&flat),
            Msg::Collect(reply) => {
                // The collector may have given up (engine dropped); ignore.
                let _ = reply.send(shard.clone());
            }
        }
    }
    shard
}

fn bad_chunk(msg: String) -> EngineError {
    EngineError::Query(QueryError::BadParameter(msg))
}

/// Shape check for a chunk of packed binary rows bound for a `d`-column
/// stream over alphabet `q`: the stream must be binary and no row may set
/// a bit at or above `d`. Every ingest boundary (the pipeline router, the
/// window ring) runs this over the *whole* chunk before touching any
/// state, so a malformed chunk ingests nothing and a bad client request
/// is a typed error — never a panic in a summary's assert.
///
/// # Errors
/// `Query(BadParameter)` naming the offending row.
pub fn check_packed_chunk(d: u32, q: u32, rows: &[u64]) -> Result<(), EngineError> {
    if q != 2 {
        return Err(bad_chunk(format!(
            "packed rows require a binary stream, this one has Q={q}"
        )));
    }
    let above_d = !((1u64 << d) - 1);
    match rows.iter().find(|&&row| row & above_d != 0) {
        Some(bad) => Err(bad_chunk(format!("row {bad:#x} has bits above d={d}"))),
        None => Ok(()),
    }
}

/// Shape check for a flat row-major chunk of dense rows (`d` symbols per
/// row) over alphabet `q` — the dense counterpart of
/// [`check_packed_chunk`], with the same whole-chunk-or-nothing contract.
///
/// # Errors
/// `Query(BadParameter)` when the length is not a whole number of rows or
/// a symbol is outside the alphabet.
pub fn check_dense_chunk(d: u32, q: u32, flat: &[u16]) -> Result<(), EngineError> {
    if d == 0 || !flat.len().is_multiple_of(d as usize) {
        return Err(bad_chunk(format!(
            "flat length {} is not a multiple of d = {d}",
            flat.len()
        )));
    }
    match flat.iter().find(|&&s| s as u32 >= q) {
        Some(s) => Err(bad_chunk(format!("symbol {s} outside alphabet Q={q}"))),
        None => Ok(()),
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
        // Bounded-channel depth per shard, in batches: `send` blocks when
        // a shard falls this far behind (backpressure). 8 × the default
        // `batch_rows` 4096 = 32,768 rows in flight per shard.
        const CHANNEL_CAPACITY: usize = 8;
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
        Ok(Self {
            packed_buf: vec![Vec::new(); cfg.shards],
            dense_buf: vec![Vec::new(); cfg.shards],
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

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Rows routed so far (some may still be in flight to workers).
    pub fn rows_routed(&self) -> u64 {
        self.rows_routed
    }

    fn shard_of_packed(&self, row: u64) -> usize {
        (hash_u64(row, self.partition_seed) % self.senders.len() as u64) as usize
    }

    fn shard_of_dense(&self, row: &[u16]) -> usize {
        let mut h = self.partition_seed;
        for &s in row {
            h = hash_u64(h ^ s as u64, self.partition_seed);
        }
        (h % self.senders.len() as u64) as usize
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

    /// The one partition-and-send loop. `stage(self, i)` appends row `i`
    /// of the caller's chunk to its shard's buffer and hands back
    /// `(shard, batch)` when that buffer reached `batch_rows`; each such
    /// batch crosses the shard's bounded channel here. Under an enabled
    /// `trace` the sweep is one `ingest_route` span with a child
    /// `shard_send` span (shard id, chunk index, rows) per channel hop.
    fn route(
        &mut self,
        n_rows: usize,
        format: &'static str,
        trace: &TraceHandle,
        mut stage: impl FnMut(&mut Self, usize) -> Option<(usize, RowBatch)>,
    ) -> Result<(), EngineError> {
        let mut route_span = trace.span("ingest_route");
        if route_span.is_enabled() {
            route_span.attr("rows", n_rows);
            route_span.attr("format", format);
        }
        let hop = route_span.handle();
        let mut chunk = 0usize;
        for i in 0..n_rows {
            let Some((shard, batch)) = stage(self, i) else {
                continue;
            };
            let mut send_span = hop.span("shard_send");
            if send_span.is_enabled() {
                send_span.attr("shard", shard);
                send_span.attr("chunk", chunk);
                // `stage` hands a buffer over the moment it fills.
                send_span.attr("rows", self.batch_rows);
            }
            self.send(shard, batch)?;
            drop(send_span);
            chunk += 1;
        }
        self.rows_routed += n_rows as u64;
        Ok(())
    }

    /// Route a chunk of packed binary rows (a single row is a one-row
    /// chunk): checked as a whole by [`check_packed_chunk`] *before* any
    /// routing happens, then partitioned into the per-shard buffers and
    /// forwarded one bounded-channel message per full buffer.
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations (nothing is routed);
    /// `Closed` if a worker has gone away.
    pub fn push_packed_batch(&mut self, rows: &[u64]) -> Result<(), EngineError> {
        self.push_packed_batch_traced(rows, &TraceHandle::disabled())
    }

    /// [`push_packed_batch`](Self::push_packed_batch) under a request
    /// trace: the routing sweep is recorded as one `ingest_route` span
    /// and every bounded-channel hop to a worker as a child `shard_send`
    /// span. With a disabled handle this is exactly the untraced path —
    /// same delivery order, no allocation.
    ///
    /// # Errors
    /// Same as [`push_packed_batch`](Self::push_packed_batch).
    pub fn push_packed_batch_traced(
        &mut self,
        rows: &[u64],
        trace: &TraceHandle,
    ) -> Result<(), EngineError> {
        check_packed_chunk(self.d, self.q, rows)?;
        self.route(rows.len(), "packed", trace, |p, i| {
            let row = rows[i];
            let shard = p.shard_of_packed(row);
            let buf = &mut p.packed_buf[shard];
            buf.push(row);
            (buf.len() >= p.batch_rows).then(|| (shard, RowBatch::Packed(std::mem::take(buf))))
        })
    }

    /// Route a flat row-major chunk of dense rows (`d` symbols per row,
    /// `flat.len() / d` rows): checked as a whole by
    /// [`check_dense_chunk`] *before* any routing happens, then appended
    /// to the per-shard flat buffers — no per-row allocation anywhere on
    /// the path, which is what lets the columnar file ingester feed
    /// general alphabets at the same channel cost as the packed path.
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations (nothing is routed);
    /// `Closed` if a worker has gone away.
    pub fn push_dense_batch(&mut self, flat: &[u16]) -> Result<(), EngineError> {
        self.push_dense_batch_traced(flat, &TraceHandle::disabled())
    }

    /// [`push_dense_batch`](Self::push_dense_batch) under a request
    /// trace — see
    /// [`push_packed_batch_traced`](Self::push_packed_batch_traced) for
    /// the span shape.
    ///
    /// # Errors
    /// Same as [`push_dense_batch`](Self::push_dense_batch).
    pub fn push_dense_batch_traced(
        &mut self,
        flat: &[u16],
        trace: &TraceHandle,
    ) -> Result<(), EngineError> {
        check_dense_chunk(self.d, self.q, flat)?;
        let d = self.d as usize;
        self.route(flat.len() / d, "dense", trace, |p, i| {
            let row = &flat[i * d..(i + 1) * d];
            let shard = p.shard_of_dense(row);
            let buf = &mut p.dense_buf[shard];
            buf.extend_from_slice(row);
            (buf.len() >= p.batch_rows * d).then(|| (shard, RowBatch::Dense(std::mem::take(buf))))
        })
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
        match data {
            // Both matrices are already chunks: packed rows, or flat
            // row-major symbols.
            Dataset::Binary(m) => self.push_packed_batch(m.rows()),
            Dataset::Qary(m) => self.push_dense_batch(m.flat()),
        }
    }

    /// Flush router-side buffers to the workers.
    ///
    /// # Errors
    /// `Closed` if a worker has gone away.
    fn flush(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.senders.len() {
            if !self.packed_buf[shard].is_empty() {
                let batch = std::mem::take(&mut self.packed_buf[shard]);
                self.send(shard, RowBatch::Packed(batch))?;
            }
            if !self.dense_buf[shard].is_empty() {
                let batch = std::mem::take(&mut self.dense_buf[shard]);
                self.send(shard, RowBatch::Dense(batch))?;
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
    use pfe_row::ColumnSet;
    use pfe_stream::gen::{uniform_binary, uniform_qary};

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

    #[test]
    fn partitioning_is_content_stable() {
        let p = IngestPipeline::new(8, 2, &cfg(4)).expect("spawn");
        for row in 0..200u64 {
            assert_eq!(p.shard_of_packed(row), p.shard_of_packed(row));
        }
        // All shards get traffic.
        let mut seen = [false; 4];
        for row in 0..200u64 {
            seen[p.shard_of_packed(row)] = true;
        }
        assert!(seen.iter().all(|&s| s), "unused shard under hash partition");
    }
}
