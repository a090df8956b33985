//! The serving engine: concurrent typed queries over immutable snapshots,
//! with a mask-sharing batch planner and an LRU answer cache, in front of
//! the sharded ingest pipeline.
//!
//! ```
//! use pfe_engine::{Engine, EngineConfig, Query};
//! use pfe_stream::gen::uniform_binary;
//!
//! let cfg = EngineConfig { shards: 2, sample_t: 512, kmv_k: 64, ..Default::default() };
//! let engine = Engine::start(12, 2, cfg).unwrap();
//! engine.ingest(&uniform_binary(12, 5_000, 1)).unwrap();
//! engine.refresh().unwrap(); // publish a snapshot
//! let answers = engine.query_batch(&[
//!     Query::over([0, 3, 5]).f0(),
//!     Query::over([0, 1]).heavy_hitters(0.1),
//! ]);
//! let f0 = answers[0].as_ref().unwrap();
//! assert!(f0.estimate().unwrap() > 0.0);
//! // Every answer carries its theorem-derived guarantee and provenance.
//! assert!(f0.guarantee.alpha >= 1.0);
//! assert_eq!(f0.provenance.requested.to_indices(), vec![0, 3, 5]);
//! ```

use std::sync::{Arc, Mutex, RwLock};

use pfe_obs::Recorder;
use pfe_query::{Answer, Query};
use pfe_row::Dataset;
use pfe_sketch::traits::SpaceUsage;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::exec::QueryExecutor;
use crate::ingest::IngestPipeline;
use crate::snapshot::Snapshot;

/// Sharded-ingest, snapshot-serving engine.
///
/// Ingestion is serialized through the router (`&self` methods take an
/// internal lock); queries are wait-free with respect to ingest — they
/// read the last published [`Snapshot`] behind an `Arc` and only contend
/// on the answer cache's mutex. Requests and responses are the canonical
/// `pfe-query` types: [`Query`] in, guarantee-carrying [`Answer`] out.
/// The plan/probe/compute path is the shared
/// [`QueryExecutor`], so this whole-stream
/// engine and the `pfe-window` sliding-window engine serve identical
/// semantics per snapshot.
pub struct Engine {
    d: u32,
    q: u32,
    pipeline: Mutex<Option<IngestPipeline>>,
    published: RwLock<Option<Arc<Snapshot>>>,
    exec: QueryExecutor,
    /// `(rows_routed, shards)` captured at shutdown, so the gauges stay
    /// truthful after the pipeline is gone.
    retired: Mutex<Option<(u64, usize)>>,
}

impl Engine {
    /// Spawn the shard workers for a `d`-column stream over alphabet `q`.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn start(d: u32, q: u32, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::start_with_recorder(d, q, cfg, Arc::new(Recorder::new()))
    }

    /// Like [`start`](Self::start), but registering every engine metric
    /// (query counters/latencies, cache series, ingest backpressure,
    /// snapshot gauges) in a shared `recorder` — the server threads one
    /// recorder through the engine, window ring, and connection handling.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn start_with_recorder(
        d: u32,
        q: u32,
        cfg: EngineConfig,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        let exec = QueryExecutor::with_recorder(cfg.cache_capacity, false, Arc::clone(&recorder));
        let mut pipeline = IngestPipeline::new(d, q, &cfg)?;
        pipeline.instrument(recorder.counter("engine_ingest_backpressure"));
        Ok(Self {
            d,
            q,
            pipeline: Mutex::new(Some(pipeline)),
            published: RwLock::new(None),
            exec,
            retired: Mutex::new(None),
        })
    }

    /// Dimension `d` of the stream (columns per row).
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Alphabet `Q` of the stream (symbols lie in `[0, Q)`).
    pub fn alphabet(&self) -> u32 {
        self.q
    }

    fn with_pipeline<T>(
        &self,
        f: impl FnOnce(&mut IngestPipeline) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut guard = self.pipeline.lock().expect("pipeline lock");
        match guard.as_mut() {
            Some(p) => f(p),
            None => Err(EngineError::Closed),
        }
    }

    /// Route a chunk of packed binary rows (a single row is a one-row
    /// chunk): checked as a whole, partitioned, and forwarded one
    /// bounded-channel message per full per-shard buffer.
    ///
    /// # Errors
    /// `Query(BadParameter)` if any row is malformed (nothing is routed in
    /// that case); `Closed` after [`shutdown`](Self::shutdown).
    pub fn push_packed_batch(&self, rows: &[u64]) -> Result<(), EngineError> {
        self.with_pipeline(|p| p.push_packed_batch(rows))
    }

    /// [`push_packed_batch`](Self::push_packed_batch) under a request
    /// trace: records the routing sweep and every per-shard channel hop
    /// as spans on `trace` (no-ops when the handle is disabled).
    ///
    /// # Errors
    /// Same as [`push_packed_batch`](Self::push_packed_batch).
    pub fn push_packed_batch_traced(
        &self,
        rows: &[u64],
        trace: &pfe_obs::TraceHandle,
    ) -> Result<(), EngineError> {
        self.with_pipeline(|p| p.push_packed_batch_traced(rows, trace))
    }

    /// Route a flat row-major chunk of dense rows (`d` symbols per row) —
    /// the allocation-free surface for general alphabets.
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations (nothing is routed);
    /// `Closed` after [`shutdown`](Self::shutdown) or on worker loss.
    pub fn push_dense_batch(&self, flat: &[u16]) -> Result<(), EngineError> {
        self.with_pipeline(|p| p.push_dense_batch(flat))
    }

    /// [`push_dense_batch`](Self::push_dense_batch) under a request
    /// trace — see
    /// [`push_packed_batch_traced`](Self::push_packed_batch_traced).
    ///
    /// # Errors
    /// Same as [`push_dense_batch`](Self::push_dense_batch).
    pub fn push_dense_batch_traced(
        &self,
        flat: &[u16],
        trace: &pfe_obs::TraceHandle,
    ) -> Result<(), EngineError> {
        self.with_pipeline(|p| p.push_dense_batch_traced(flat, trace))
    }

    /// Route a whole dataset.
    ///
    /// # Errors
    /// Shape mismatch or `Closed`.
    pub fn ingest(&self, data: &Dataset) -> Result<(), EngineError> {
        self.with_pipeline(|p| p.ingest(data))
    }

    /// Merge the live shards into a new snapshot and publish it. Ingest
    /// continues; queries switch to the new snapshot atomically.
    ///
    /// # Errors
    /// `Closed` if the pipeline is gone.
    pub fn refresh(&self) -> Result<Arc<Snapshot>, EngineError> {
        let snap = Arc::new(self.with_pipeline(|p| p.snapshot())?);
        *self.published.write().expect("snapshot lock") = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// Checkpoint: merge the live shards into a snapshot, publish it, and
    /// write it to `path` as a framed, checksummed file. After
    /// [`shutdown`](Self::shutdown), the final published snapshot is saved
    /// instead. The file restores via [`resume`](Self::resume) into an
    /// engine that answers every statistic bit-identically to this one.
    ///
    /// # Errors
    /// `NoSnapshot` if the engine is shut down without a published
    /// snapshot; `Persist` on I/O failure.
    pub fn checkpoint<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<Arc<Snapshot>, EngineError> {
        let snap = match self.refresh() {
            Ok(snap) => snap,
            Err(EngineError::Closed) => self.snapshot().ok_or(EngineError::NoSnapshot)?,
            Err(e) => return Err(e),
        };
        snap.save_to(path)?;
        Ok(snap)
    }

    /// Restore an engine from a snapshot file written by
    /// [`checkpoint`](Self::checkpoint) (or [`Snapshot::save_to`]).
    ///
    /// The loaded snapshot is published immediately — queries are served
    /// without re-ingesting anything — and fresh shard workers are spawned
    /// on top of it, so ingest can continue where the checkpointed process
    /// left off: every later snapshot folds the checkpointed state under
    /// the newly ingested rows (exact union for the sketches, seeded
    /// hypergeometric union for the row sample). Epochs continue from the
    /// snapshot's epoch.
    ///
    /// `cfg` must carry the same parameters (`alpha`, `kmv_k`, `sample_t`,
    /// `seed`, `freq_net`, `fp`) the snapshot was built with — per-mask sketch
    /// seeds are re-derived from `cfg.seed`, and a mismatch would corrupt
    /// later merges, so every parameter is verified against the decoded
    /// summaries first.
    ///
    /// # Errors
    /// `Persist` for unreadable/corrupt files, `Incompatible` when `cfg`
    /// disagrees with the snapshot, plus config validation errors.
    pub fn resume<P: AsRef<std::path::Path>>(
        path: P,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        Self::resume_with_recorder(path, cfg, Arc::new(Recorder::new()))
    }

    /// Like [`resume`](Self::resume), but registering metrics in a shared
    /// `recorder` (see [`start_with_recorder`](Self::start_with_recorder)).
    ///
    /// # Errors
    /// Same as [`resume`](Self::resume).
    pub fn resume_with_recorder<P: AsRef<std::path::Path>>(
        path: P,
        cfg: EngineConfig,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        let snap = Snapshot::load_from(path)?;
        Self::from_snapshot(Arc::new(snap), cfg, recorder).map(|(engine, _q)| engine)
    }

    /// Build an engine directly around an in-memory snapshot (e.g. one
    /// produced by [`merge_snapshot_files`](crate::merge_snapshot_files)):
    /// [`resume_with_recorder`](Self::resume_with_recorder) without the
    /// file read. Returns the engine and the stream alphabet `q` decoded
    /// from the snapshot, which transports need for wire encoding.
    ///
    /// # Errors
    /// `Incompatible` when `cfg` disagrees with the snapshot, plus config
    /// validation errors.
    pub fn from_snapshot(
        snap: Arc<Snapshot>,
        cfg: EngineConfig,
        recorder: Arc<Recorder>,
    ) -> Result<(Self, u32), EngineError> {
        let (d, q) = crate::persist::validate_resume(&snap, &cfg)?;
        let exec = QueryExecutor::with_recorder(cfg.cache_capacity, false, Arc::clone(&recorder));
        let mut pipeline = IngestPipeline::with_base(d, q, &cfg, Some(Arc::clone(&snap)))?;
        pipeline.instrument(recorder.counter("engine_ingest_backpressure"));
        let engine = Self {
            d,
            q,
            pipeline: Mutex::new(Some(pipeline)),
            published: RwLock::new(Some(snap)),
            exec,
            retired: Mutex::new(None),
        };
        Ok((engine, q))
    }

    /// Atomically swap a newer snapshot in as the published (query-serving)
    /// state without touching the ingest pipeline — the read-replica hot
    /// path. In-flight queries finish against the old snapshot; the next
    /// query sees the new one.
    ///
    /// The swap is only legal when `snap` is mergeable with the published
    /// snapshot (same config-derived shape) and carries a strictly newer
    /// epoch: the answer cache is keyed by epoch, so republishing an epoch
    /// with different contents would serve stale cached answers. Callers
    /// hitting the epoch rejection should rebuild via
    /// [`from_snapshot`](Self::from_snapshot) instead (fresh cache).
    ///
    /// # Errors
    /// `NoSnapshot` when nothing is published yet, `Incompatible` on a
    /// shape mismatch or a non-increasing epoch.
    pub fn install_snapshot(&self, snap: Arc<Snapshot>) -> Result<(), EngineError> {
        let current = self.current()?;
        current.summary().check_mergeable(snap.summary())?;
        if snap.epoch() <= current.epoch() {
            return Err(EngineError::Incompatible(format!(
                "snapshot epoch {} is not newer than published epoch {}",
                snap.epoch(),
                current.epoch()
            )));
        }
        *self.published.write().expect("snapshot lock") = Some(snap);
        Ok(())
    }

    /// Stop ingest: flush, join the workers, publish their final merged
    /// state. The engine keeps serving queries afterwards.
    ///
    /// # Errors
    /// `Closed` if already shut down; `ShardFailed` on worker panic.
    pub fn shutdown(&self) -> Result<Arc<Snapshot>, EngineError> {
        let pipeline = self
            .pipeline
            .lock()
            .expect("pipeline lock")
            .take()
            .ok_or(EngineError::Closed)?;
        *self.retired.lock().expect("retired lock") =
            Some((pipeline.rows_routed(), pipeline.shards()));
        let snap = Arc::new(pipeline.finish()?);
        *self.published.write().expect("snapshot lock") = Some(Arc::clone(&snap));
        Ok(snap)
    }

    /// The currently published snapshot, if any.
    pub fn snapshot(&self) -> Option<Arc<Snapshot>> {
        self.published.read().expect("snapshot lock").clone()
    }

    fn current(&self) -> Result<Arc<Snapshot>, EngineError> {
        self.snapshot().ok_or(EngineError::NoSnapshot)
    }

    /// Answer one query against the published snapshot.
    ///
    /// Single queries run through the same planner as
    /// [`query_batch`](Self::query_batch), so normalization (column
    /// validation, `F_0` rounding, pattern encoding) happens exactly once
    /// per query — before the cache probe — on both paths.
    ///
    /// # Errors
    /// `NoSnapshot` before the first [`refresh`](Self::refresh);
    /// `EpochMismatch` for stale pins; query errors from the summaries.
    pub fn query(&self, query: &Query) -> Result<Answer, EngineError> {
        self.query_batch(std::slice::from_ref(query))
            .pop()
            .expect("one answer per query")
    }

    /// Answer a batch of queries (the serving unit of the wire protocol).
    /// Answers return in request order; per-query errors are reported per
    /// slot, not batch-fatal.
    ///
    /// The whole batch is answered against one snapshot. The planner
    /// groups co-plannable queries by canonical [`pfe_query::QueryKey`] —
    /// same effective (rounded) mask, statistic, and payload — so each
    /// group costs one cache probe and at most one snapshot compute no
    /// matter how many queries share it; each answer still carries its
    /// own rounding provenance and guarantee.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Answer, EngineError>> {
        let snap = match self.current() {
            Ok(snap) => snap,
            Err(e) => return queries.iter().map(|_| Err(e.clone())).collect(),
        };
        self.exec.answer_batch(&snap, queries)
    }

    /// [`query_batch`](Self::query_batch) under a request trace: the
    /// planner/cache/compute/materialize stages record spans on `trace`
    /// and every `Ok` answer echoes the trace id. With a disabled handle
    /// this is exactly the untraced path.
    pub fn query_batch_traced(
        &self,
        queries: &[Query],
        trace: &pfe_obs::TraceHandle,
    ) -> Vec<Result<Answer, EngineError>> {
        let snap = match self.current() {
            Ok(snap) => snap,
            Err(e) => return queries.iter().map(|_| Err(e.clone())).collect(),
        };
        self.exec.answer_batch_traced(&snap, queries, trace)
    }

    /// Write what only the pipeline and the published snapshot know —
    /// rows routed, the snapshot's epoch / rows / bytes, the shard count —
    /// into the recorder's `engine_*` gauges. Every other figure of the
    /// `stats` reply is a series the executor and cache keep current; the
    /// reply and a `metrics` scrape both read the registry right after
    /// this runs.
    pub fn sync_gauges(&self) {
        let (rows_ingested, shards) = {
            let guard = self.pipeline.lock().expect("pipeline lock");
            match guard.as_ref() {
                Some(p) => (p.rows_routed(), p.shards()),
                // After shutdown, report the counters captured when the
                // pipeline retired.
                None => self.retired.lock().expect("retired lock").unwrap_or((0, 0)),
            }
        };
        let snap = self.snapshot();
        let snap = snap.as_deref();
        let rec = self.exec.recorder();
        rec.gauge("engine_rows_ingested").set(rows_ingested);
        rec.gauge("engine_snapshot_epoch")
            .set(snap.map_or(0, Snapshot::epoch));
        rec.gauge("engine_snapshot_rows")
            .set(snap.map_or(0, Snapshot::n));
        rec.gauge("engine_snapshot_bytes")
            .set(snap.map_or(0, |s| s.space_bytes() as u64));
        rec.gauge("engine_shards").set(shards as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_query::{GuaranteeSource, StatKind};
    use pfe_stream::gen::uniform_binary;

    /// A gauge of the engine's registry, synced first.
    fn gauge(engine: &Engine, name: &str) -> u64 {
        engine.sync_gauges();
        engine.exec.recorder().gauge(name).get()
    }

    fn counter(engine: &Engine, name: &str) -> u64 {
        engine.exec.recorder().counter(name).get()
    }

    /// Queries answered across all five statistics.
    fn served(engine: &Engine) -> u64 {
        StatKind::ALL
            .iter()
            .map(|k| counter(engine, &format!("engine_queries_{}", k.name())))
            .sum()
    }

    fn small_cfg(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            sample_t: 512,
            kmv_k: 64,
            batch_rows: 64,
            ..Default::default()
        }
    }

    #[test]
    fn query_before_snapshot_is_typed_error() {
        let engine = Engine::start(8, 2, small_cfg(1)).expect("start");
        assert_eq!(
            engine.query(&Query::over([0]).f0()),
            Err(EngineError::NoSnapshot)
        );
        // Batches report the error per slot.
        let answers = engine.query_batch(&[Query::over([0]).f0(), Query::over([1]).f0()]);
        assert_eq!(answers.len(), 2);
        assert!(answers.iter().all(|a| a == &Err(EngineError::NoSnapshot)));
    }

    #[test]
    fn windowed_queries_rejected_by_whole_stream_engine() {
        let engine = Engine::start(8, 2, small_cfg(1)).expect("start");
        engine.ingest(&uniform_binary(8, 300, 9)).expect("ingest");
        engine.refresh().expect("refresh");
        let answers = engine.query_batch(&[
            Query::over([0, 1]).f0(),
            Query::over([0, 1]).f0().window(100),
        ]);
        assert!(answers[0].is_ok());
        assert!(matches!(
            &answers[1],
            Err(EngineError::Query(pfe_core::QueryError::BadParameter(m)))
                if m.contains("windowed engine")
        ));
    }

    #[test]
    fn f0_cache_hits_on_shared_rounded_target() {
        let d = 12;
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        engine.ingest(&uniform_binary(d, 3000, 11)).expect("ingest");
        engine.refresh().expect("refresh");
        // Two different mid-size queries that round to the same target.
        let q1 = Query::over(0..6).f0();
        let q2 = Query::over(0..7).f0();
        let a1 = engine.query(&q1).expect("ok");
        assert!(!a1.cost.cached);
        let a2 = engine.query(&q2).expect("ok");
        // Both rounded (shrunk) to the same small-side member => same
        // estimate, second answer from cache with its own provenance.
        if a1.provenance.answered_on == a2.provenance.answered_on {
            assert!(a2.cost.cached, "same rounded target must hit the cache");
            assert_eq!(a1.estimate(), a2.estimate());
            assert_ne!(a1.provenance.sym_diff, a2.provenance.sym_diff);
            assert_ne!(a1.guarantee.alpha, a2.guarantee.alpha);
        }
        // Exact repeat definitely hits.
        assert!(engine.query(&q1).expect("ok").cost.cached);
    }

    #[test]
    fn batch_planner_shares_one_compute_across_colliding_masks() {
        let d = 12;
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        engine.ingest(&uniform_binary(d, 3000, 21)).expect("ingest");
        engine.refresh().expect("refresh");
        let batch = vec![
            Query::over(0..6).f0(),
            Query::over(0..7).f0(),
            Query::over(0..6).f0(),
        ];
        let answers = engine.query_batch(&batch);
        let a: Vec<&Answer> = answers.iter().map(|a| a.as_ref().expect("ok")).collect();
        if a[0].provenance.answered_on == a[1].provenance.answered_on {
            // All three shared one group: one cache miss total, none of
            // them served from cache, every answer stamped with the group.
            assert!(a.iter().all(|x| x.cost.group_size == 3));
            assert!(a.iter().all(|x| !x.cost.cached));
            assert_eq!(counter(&engine, "engine_cache_misses"), 1);
            assert_eq!(a[0].estimate(), a[1].estimate());
        }
        // Same batch again: one probe, served from cache for all members.
        let again = engine.query_batch(&batch);
        assert!(again.iter().all(|x| x.as_ref().expect("ok").cost.cached));
    }

    #[test]
    fn refresh_bumps_epoch_and_bypasses_stale_cache() {
        let d = 10;
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        engine.ingest(&uniform_binary(d, 1000, 12)).expect("ingest");
        engine.refresh().expect("refresh");
        let req = Query::over([0, 1]).f0();
        let first = engine.query(&req).expect("ok");
        assert_eq!(first.epoch, 1);
        engine.ingest(&uniform_binary(d, 1000, 13)).expect("ingest");
        engine.refresh().expect("refresh");
        let second = engine.query(&req).expect("ok");
        assert!(!second.cost.cached, "new epoch must not serve old answers");
        assert_eq!(second.epoch, 2);
    }

    #[test]
    fn epoch_pinning_is_enforced() {
        let d = 10;
        let engine = Engine::start(d, 2, small_cfg(1)).expect("start");
        engine.ingest(&uniform_binary(d, 500, 31)).expect("ingest");
        engine.refresh().expect("refresh");
        assert!(engine.query(&Query::over([0]).f0().pinned_to(1)).is_ok());
        assert_eq!(
            engine.query(&Query::over([0]).f0().pinned_to(9)),
            Err(EngineError::EpochMismatch {
                pinned: 9,
                published: 1
            })
        );
        engine.refresh().expect("refresh");
        // The old pin is now stale.
        assert_eq!(
            engine.query(&Query::over([0]).f0().pinned_to(1)),
            Err(EngineError::EpochMismatch {
                pinned: 1,
                published: 2
            })
        );
    }

    #[test]
    fn bypass_cache_recomputes_but_refreshes_entry() {
        let d = 10;
        let engine = Engine::start(d, 2, small_cfg(1)).expect("start");
        engine.ingest(&uniform_binary(d, 800, 33)).expect("ingest");
        engine.refresh().expect("refresh");
        let q = Query::over([0, 1, 2]).heavy_hitters(0.05);
        engine.query(&q).expect("ok");
        // A bypassing repeat recomputes (not served from cache)…
        let fresh = engine.query(&q.clone().bypass_cache()).expect("ok");
        assert!(!fresh.cost.cached);
        // …but the entry is still warm for cache-eligible queries.
        assert!(engine.query(&q).expect("ok").cost.cached);
    }

    #[test]
    fn exact_if_available_on_full_retention() {
        let d = 10;
        // sample_t (512) > rows (300): the reservoir retains everything.
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        engine.ingest(&uniform_binary(d, 300, 35)).expect("ingest");
        engine.refresh().expect("refresh");
        let approx = engine.query(&Query::over(0..6).f0()).expect("ok");
        let exact = engine
            .query(&Query::over(0..6).f0().exact_if_available())
            .expect("ok");
        assert_eq!(exact.guarantee, pfe_query::Guarantee::exact());
        // Exact answers are never rounded.
        assert_eq!(exact.provenance.sym_diff, 0);
        assert_eq!(
            exact.provenance.answered_on.to_indices(),
            (0..6).collect::<Vec<u32>>()
        );
        assert_eq!(exact.guarantee.source, GuaranteeSource::Exact);
        assert_eq!(approx.guarantee.source, GuaranteeSource::AlphaNet);
        // The exact estimate equals the true projected distinct count.
        let snap = engine.snapshot().expect("published");
        let cols = pfe_row::ColumnSet::from_indices(d, &[0, 1, 2, 3, 4, 5]).expect("valid");
        assert_eq!(exact.estimate(), Some(snap.f0_exact(&cols).expect("ok")));
    }

    #[test]
    fn l1_sample_served_end_to_end_and_deterministic() {
        let d = 10;
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        engine.ingest(&uniform_binary(d, 2000, 37)).expect("ingest");
        engine.refresh().expect("refresh");
        let q = Query::over([0, 1, 2]).l1_sample(16).with_seed(7);
        let a = engine.query(&q).expect("ok");
        let patterns = a.patterns().expect("l1 payload");
        assert_eq!(patterns.len(), 16);
        assert!(patterns.iter().all(|p| p.probability > 0.0));
        assert_eq!(a.guarantee.source, GuaranteeSource::Sample);
        // Same (k, seed) is deterministic (and cached); another seed is a
        // different canonical key.
        let b = engine.query(&q).expect("ok");
        assert!(b.cost.cached);
        assert_eq!(a.value, b.value);
        let c = engine
            .query(&Query::over([0, 1, 2]).l1_sample(16).with_seed(8))
            .expect("ok");
        assert!(!c.cost.cached);
    }

    #[test]
    fn shutdown_then_queries_still_served() {
        let d = 8;
        let engine = Engine::start(d, 2, small_cfg(3)).expect("start");
        engine.ingest(&uniform_binary(d, 500, 14)).expect("ingest");
        let snap = engine.shutdown().expect("shutdown");
        assert_eq!(snap.n(), 500);
        assert!(engine.push_packed_batch(&[0]).is_err());
        assert!(engine.query(&Query::over([0]).f0()).is_ok());
        assert!(engine.shutdown().is_err());
        // Counters must survive the pipeline retiring.
        assert_eq!(gauge(&engine, "engine_rows_ingested"), 500);
        assert_eq!(gauge(&engine, "engine_shards"), 3);
    }

    #[test]
    fn packed_chunking_does_not_change_the_snapshot() {
        let d = 10;
        let data = uniform_binary(d, 2000, 41);
        let rows: Vec<u64> = match &data {
            Dataset::Binary(m) => m.rows().to_vec(),
            Dataset::Qary(_) => unreachable!("generator yields binary data"),
        };
        let per_row = Engine::start(d, 2, small_cfg(3)).expect("start");
        for &row in &rows {
            per_row.push_packed_batch(&[row]).expect("push");
        }
        let batched = Engine::start(d, 2, small_cfg(3)).expect("start");
        batched.push_packed_batch(&rows).expect("batch push");
        let a = per_row.shutdown().expect("shutdown");
        let b = batched.shutdown().expect("shutdown");
        assert_eq!(a.n(), b.n());
        // Same shard partitioning, same per-shard arrival order => every
        // statistic identical.
        for mask in [0b11u64, 0b1111, (1 << d) - 1] {
            let cols = pfe_row::ColumnSet::from_mask(d, mask).expect("valid");
            assert_eq!(
                a.f0(&cols).expect("ok").estimate,
                b.f0(&cols).expect("ok").estimate
            );
            assert_eq!(
                a.heavy_hitters(&cols, 0.05, 1.0, 2.0).expect("ok"),
                b.heavy_hitters(&cols, 0.05, 1.0, 2.0).expect("ok")
            );
        }
    }

    #[test]
    fn concurrent_queries_while_ingesting() {
        let d = 10;
        let engine = Arc::new(Engine::start(d, 2, small_cfg(2)).expect("start"));
        engine.ingest(&uniform_binary(d, 2000, 15)).expect("ingest");
        engine.refresh().expect("refresh");
        let mut handles = Vec::new();
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let cols: Vec<u32> = (0..(1 + (t + i) % 5)).collect();
                    let r = engine.query(&Query::over(cols).f0());
                    assert!(r.is_ok(), "query failed: {r:?}");
                }
            }));
        }
        // Ingest and refresh concurrently with the query threads.
        for chunk in 0..4 {
            engine
                .ingest(&uniform_binary(d, 500, 16 + chunk))
                .expect("ingest");
            engine.refresh().expect("refresh");
        }
        for h in handles {
            h.join().expect("no panic");
        }
        assert_eq!(gauge(&engine, "engine_rows_ingested"), 4000);
        assert!(
            counter(&engine, "engine_cache_hits") > 0,
            "repeat queries should hit the cache"
        );
        assert_eq!(served(&engine), 800);
        assert_eq!(counter(&engine, "engine_queries_f0"), 800);
    }

    #[test]
    fn stats_reflect_state_and_count_per_statistic() {
        let d = 8;
        let engine = Engine::start(d, 2, small_cfg(2)).expect("start");
        assert_eq!(
            (
                gauge(&engine, "engine_rows_ingested"),
                gauge(&engine, "engine_snapshot_epoch")
            ),
            (0, 0)
        );
        assert_eq!(served(&engine), 0);
        engine.ingest(&uniform_binary(d, 300, 17)).expect("ingest");
        engine.refresh().expect("refresh");
        engine.query(&Query::over([0, 1]).f0()).expect("ok");
        engine
            .query(&Query::over([0, 1]).frequency([0u16, 0]))
            .expect("ok");
        engine
            .query(&Query::over([0, 1]).heavy_hitters(0.1))
            .expect("ok");
        engine.query(&Query::over([0, 1]).l1_sample(4)).expect("ok");
        engine.query(&Query::over([0, 1]).f0()).expect("ok");
        assert_eq!(gauge(&engine, "engine_snapshot_rows"), 300);
        assert!(gauge(&engine, "engine_snapshot_bytes") > 0);
        assert_eq!(gauge(&engine, "engine_shards"), 2);
        assert_eq!(served(&engine), 5);
        assert_eq!(
            [
                "engine_queries_f0",
                "engine_queries_frequency",
                "engine_queries_heavy_hitters",
                "engine_queries_l1_sample"
            ]
            .map(|name| counter(&engine, name)),
            [2, 1, 1, 1]
        );
        let f0 = format!("engine_queries_{}", StatKind::F0.name());
        assert_eq!(counter(&engine, &f0), 2);
        // The repeated f0 hit: the derived hit ratio is above zero.
        assert!(counter(&engine, "engine_cache_hits") > 0);
    }
}
