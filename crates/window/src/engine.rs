//! The windowed serving engine: recency queries over the tiered bucket
//! ring, answered through the shared `pfe-engine` query executor.
//!
//! Every bucket is a `ShardSummary` — the same bundle a whole-stream
//! snapshot wraps — so a window is served by folding the covering buckets
//! into a [`Snapshot`] (epoch slot = covering fingerprint), and a resumed
//! ring is validated by reference against one probe summary built from
//! the caller's config (`BucketRing::adopt_config`), exactly as engine
//! resume and file merges are.

use std::path::Path;
use std::sync::{Arc, Mutex};

use pfe_core::QueryError;
use pfe_engine::{
    Answer, EngineConfig, EngineError, Query, QueryExecutor, Recorder, ShardSummary, Snapshot,
    WindowCoverage,
};
use pfe_obs::{Counter, Histogram};
use pfe_row::Dataset;
use pfe_sketch::traits::SpaceUsage;

use crate::config::WindowConfig;
use crate::ring::{BucketRing, Covering};

/// The ring's figures, as [`WindowedEngine::window_stats`] last wrote
/// them into the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Rows currently summarized (active bucket + sealed buckets).
    pub retained_rows: u64,
    /// Rows in the unsealed active bucket.
    pub active_rows: u64,
    /// Rows dropped off the tail so far.
    pub evicted_rows: u64,
    /// Sealed buckets currently held.
    pub buckets: usize,
    /// Sealed buckets per tier (`index = level`).
    pub buckets_per_tier: Vec<u32>,
    /// Buckets sealed since start (monotone).
    pub sealed_buckets: u64,
    /// Tier merges performed since start.
    pub tier_merges: u64,
    /// Evictions performed since start.
    pub evictions: u64,
    /// Covering-set snapshots served from the merged-snapshot cache.
    pub merged_cache_hits: u64,
    /// Covering-set snapshots built by merging buckets.
    pub merged_cache_misses: u64,
    /// Bytes held by the ring (active + sealed summaries).
    pub ring_bytes: usize,
}

/// Tiny LRU of merged covering-set snapshots, keyed by fingerprint.
struct MergedLru {
    cap: usize,
    /// Most recently used at the back.
    entries: Vec<(u64, Arc<Snapshot>)>,
}

impl MergedLru {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, fingerprint: u64) -> Option<Arc<Snapshot>> {
        let pos = self.entries.iter().position(|(f, _)| *f == fingerprint)?;
        let entry = self.entries.remove(pos);
        let snap = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(snap)
    }

    fn put(&mut self, fingerprint: u64, snap: Arc<Snapshot>) {
        if self.cap == 0 {
            return;
        }
        self.entries.retain(|(f, _)| *f != fingerprint);
        self.entries.push((fingerprint, snap));
        if self.entries.len() > self.cap {
            self.entries.remove(0);
        }
    }
}

/// Sliding-window projected-frequency engine over a tiered bucket ring.
///
/// Ingest routes rows into the ring's active bucket (sealing and tier
/// maintenance happen inline); a `window(last_n)` query resolves the
/// minimal covering suffix of buckets, merges it into an immutable
/// [`Snapshot`] whose epoch slot is the covering-set *fingerprint*, and
/// answers through the same [`QueryExecutor`] as the whole-stream
/// [`Engine`](pfe_engine::Engine) — planner grouping, the LRU answer
/// cache, guarantees, and provenance all behave identically per
/// snapshot. Merged covering snapshots are themselves memoized in a tiny
/// fingerprint-keyed LRU, so repeated windowed queries between seals cost
/// one cache probe, not one merge.
///
/// Queries without a window option are answered over everything the ring
/// retains (bounded by the [`WindowConfig`]'s tiers). Epoch pinning is
/// rejected: windowed epochs are content fingerprints, not a monotone
/// sequence.
pub struct WindowedEngine {
    ring: Mutex<BucketRing>,
    exec: QueryExecutor,
    merged: Mutex<MergedLru>,
    merged_hits: Arc<Counter>,
    merged_misses: Arc<Counter>,
    /// Distribution of covering-set sizes (buckets merged per resolved
    /// covering), recorded once per distinct covering per batch.
    covering_buckets: Arc<Histogram>,
}

impl WindowedEngine {
    /// Create an empty windowed engine for a `d`-column stream over
    /// alphabet `q`. `ecfg` supplies per-bucket summary parameters and
    /// the answer-cache capacity; `wcfg` shapes the ring.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn start(
        d: u32,
        q: u32,
        ecfg: EngineConfig,
        wcfg: WindowConfig,
    ) -> Result<Self, EngineError> {
        Self::start_with_recorder(d, q, ecfg, wcfg, Arc::new(Recorder::new()))
    }

    /// Like [`start`](Self::start), but registering every window metric
    /// (merged-snapshot LRU hits/misses, covering-set size histogram,
    /// ring gauges) plus the shared executor's series in `recorder`.
    ///
    /// # Errors
    /// Config validation or summary construction errors.
    pub fn start_with_recorder(
        d: u32,
        q: u32,
        ecfg: EngineConfig,
        wcfg: WindowConfig,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        let merged = MergedLru::new(wcfg.merged_cache);
        let ring = BucketRing::new(d, q, &ecfg, wcfg)?;
        Ok(Self {
            ring: Mutex::new(ring),
            merged: Mutex::new(merged),
            merged_hits: recorder.counter("window_merged_cache_hits"),
            merged_misses: recorder.counter("window_merged_cache_misses"),
            covering_buckets: recorder.histogram("window_covering_buckets"),
            exec: QueryExecutor::with_recorder(ecfg.cache_capacity, true, recorder),
        })
    }

    fn with_ring<T>(&self, f: impl FnOnce(&mut BucketRing) -> T) -> T {
        f(&mut self.ring.lock().expect("ring lock"))
    }

    /// Route a chunk of packed binary rows into the active bucket
    /// (checked as a whole first; a single row is a one-row chunk).
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations.
    pub fn push_packed_batch(&self, rows: &[u64]) -> Result<(), EngineError> {
        self.with_ring(|r| r.push_packed_batch(rows))
    }

    /// Route a flat row-major chunk of dense rows (`d` symbols per row,
    /// checked as a whole first) under one ring lock.
    ///
    /// # Errors
    /// `Query(BadParameter)` on shape violations.
    pub fn push_dense_batch(&self, flat: &[u16]) -> Result<(), EngineError> {
        self.with_ring(|r| r.push_dense_batch(flat))
    }

    /// Dimension `d` of the windowed stream.
    pub fn dimension(&self) -> u32 {
        self.with_ring(|r| r.dimension())
    }

    /// Alphabet `Q` of the windowed stream.
    pub fn alphabet(&self) -> u32 {
        self.with_ring(|r| r.alphabet())
    }

    /// Route a whole dataset.
    ///
    /// # Errors
    /// Shape mismatch (`BadConfig`) or row errors.
    pub fn ingest(&self, data: &Dataset) -> Result<(), EngineError> {
        self.with_ring(|r| {
            if data.dimension() != r.dimension() || data.alphabet() != r.alphabet() {
                return Err(EngineError::BadConfig(format!(
                    "dataset shape ({}, Q={}) does not match ring ({}, Q={})",
                    data.dimension(),
                    data.alphabet(),
                    r.dimension(),
                    r.alphabet()
                )));
            }
            match data {
                Dataset::Binary(m) => r.push_packed_batch(m.rows()),
                Dataset::Qary(m) => r.push_dense_batch(m.flat()),
            }
        })
    }

    /// Rows currently summarized by the ring.
    pub fn retained_rows(&self) -> u64 {
        self.with_ring(|r| r.retained_rows())
    }

    /// Resolve (without answering) the covering suffix a `last_n` request
    /// would merge — exposed for planning, testing, and slack auditing.
    pub fn coverage(&self, last_n: Option<u64>) -> Covering {
        self.with_ring(|r| r.covering(last_n))
    }

    /// Answer one query (see [`query_batch`](Self::query_batch)).
    ///
    /// # Errors
    /// Typed per-query errors (bad columns, pinning, summary errors).
    pub fn query(&self, query: &Query) -> Result<Answer, EngineError> {
        self.query_batch(std::slice::from_ref(query))
            .pop()
            .expect("one answer per query")
    }

    /// Answer a batch of queries, windowed and whole-retention mixed.
    /// Answers return in request order; per-query errors are per slot.
    ///
    /// The batch is first grouped by covering-set fingerprint — queries
    /// whose windows resolve to the same buckets share one merged
    /// snapshot — then each fingerprint group runs through the shared
    /// executor, where the planner further groups by canonical
    /// [`pfe_engine::QueryKey`] (so two `last_n` requests covering the
    /// same buckets and asking the same statistic cost one compute).
    /// Windowed answers come back stamped with their realized
    /// [`WindowCoverage`].
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Answer, EngineError>> {
        self.query_batch_traced(queries, &pfe_obs::TraceHandle::disabled())
    }

    /// [`query_batch`](Self::query_batch) under a request trace: the
    /// covering-set resolution, each cold-bucket merge, and the shared
    /// executor's stages record spans on `trace`, and every `Ok` answer
    /// echoes the trace id. With a disabled handle this is exactly the
    /// untraced path — tracing never changes covering choice, merge-cache
    /// behavior, or answers.
    pub fn query_batch_traced(
        &self,
        queries: &[Query],
        trace: &pfe_obs::TraceHandle,
    ) -> Vec<Result<Answer, EngineError>> {
        let mut out: Vec<Option<Result<Answer, EngineError>>> = vec![None; queries.len()];
        // Covering sets to serve: `(covering, slots, snapshot-or-parts)`.
        // Snapshots come from the fingerprint LRU when warm; misses carry
        // the bucket summaries cloned under the ring lock, so the
        // CPU-heavy merge fold happens after the lock is released and the
        // whole batch still sees one consistent ring state.
        enum Source {
            Warm(Arc<Snapshot>),
            Cold(Vec<ShardSummary>),
        }
        let mut groups: Vec<(Covering, Vec<usize>, Source)> = Vec::new();
        // Per-slot coverings: two requests can share a covering set (and
        // therefore a merged snapshot) while disagreeing on the
        // request-relative fields (`truncated` depends on `last_n`), so
        // each answer is stamped from its own slot's covering.
        let mut resolved: Vec<Option<Covering>> = vec![None; queries.len()];
        let mut resolve_span = trace.span("window_resolve");
        {
            let ring = self.ring.lock().expect("ring lock");
            let mut merged = self.merged.lock().expect("merged lock");
            for (slot, q) in queries.iter().enumerate() {
                if q.options.pin_epoch.is_some() {
                    out[slot] = Some(Err(EngineError::Query(QueryError::BadParameter(
                        "epoch pinning is not supported by the windowed engine \
                         (windowed epochs are covering-set fingerprints)"
                            .to_string(),
                    ))));
                    continue;
                }
                let c = ring.covering(q.options.window);
                resolved[slot] = Some(c);
                match groups
                    .iter_mut()
                    .find(|(g, _, _)| g.fingerprint == c.fingerprint)
                {
                    Some((_, slots, _)) => slots.push(slot),
                    None => {
                        let source = match merged.get(c.fingerprint) {
                            Some(snap) => {
                                self.merged_hits.inc();
                                Source::Warm(snap)
                            }
                            None => {
                                self.merged_misses.inc();
                                Source::Cold(ring.covering_summaries(&c))
                            }
                        };
                        self.covering_buckets.record(c.buckets as u64);
                        groups.push((c, vec![slot], source));
                    }
                }
            }
        }
        if resolve_span.is_enabled() {
            resolve_span.attr("queries", queries.len());
            resolve_span.attr("covering_groups", groups.len());
            resolve_span.attr(
                "covering_buckets",
                groups.iter().map(|(c, _, _)| c.buckets as u64).sum::<u64>(),
            );
        }
        drop(resolve_span);
        for (covering, slots, source) in groups {
            let snap = match source {
                Source::Warm(snap) => snap,
                Source::Cold(parts) => {
                    let mut merge_span = trace.span("window_merge");
                    if merge_span.is_enabled() {
                        merge_span.attr("fingerprint", covering.fingerprint);
                        merge_span.attr("buckets", covering.buckets);
                    }
                    let snap = Arc::new(Snapshot::from_shards(parts, covering.fingerprint));
                    drop(merge_span);
                    self.merged
                        .lock()
                        .expect("merged lock")
                        .put(covering.fingerprint, Arc::clone(&snap));
                    snap
                }
            };
            debug_assert_eq!(snap.n(), covering.covered_rows);
            let group_queries: Vec<Query> = slots.iter().map(|&s| queries[s].clone()).collect();
            let answers = self.exec.answer_batch_traced(&snap, &group_queries, trace);
            for (&slot, answer) in slots.iter().zip(answers) {
                out[slot] = Some(answer.map(|mut a| {
                    if let Some(requested) = queries[slot].options.window {
                        let own = resolved[slot].expect("grouped slots are resolved");
                        a.window = Some(WindowCoverage {
                            requested_rows: requested,
                            covered_rows: own.covered_rows,
                            buckets: own.buckets,
                            truncated: own.truncated,
                        });
                    }
                    a
                }));
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every slot filled"))
            .collect()
    }

    /// Write the entire ring (sealed buckets, active bucket, counters) to
    /// `path` as a framed, checksummed `pfe-persist` file. A
    /// [`resume`](Self::resume)d engine answers every windowed query
    /// bit-identically and keeps ingesting where this one left off.
    ///
    /// # Errors
    /// `Persist` on I/O failure.
    pub fn checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        self.with_ring(|r| pfe_persist::save(path, pfe_persist::kind::WINDOW, r))?;
        Ok(())
    }

    /// Restore a windowed engine from a [`checkpoint`](Self::checkpoint)
    /// file. `ecfg` must carry the same summary parameters the ring was
    /// built with (sketch and reservoir seeds derive from them): every
    /// decoded bucket is verified mergeable, by reference, against a probe
    /// summary built from `ecfg` before anything is served — that probe is
    /// the only statement of what "the same parameters" means.
    ///
    /// # Errors
    /// `Persist` for unreadable/corrupt files, `Incompatible` when `ecfg`
    /// disagrees with the ring.
    pub fn resume<P: AsRef<Path>>(path: P, ecfg: EngineConfig) -> Result<Self, EngineError> {
        Self::resume_with_recorder(path, ecfg, Arc::new(Recorder::new()))
    }

    /// Like [`resume`](Self::resume), but registering metrics in a shared
    /// `recorder` (see [`start_with_recorder`](Self::start_with_recorder)).
    ///
    /// # Errors
    /// Same as [`resume`](Self::resume).
    pub fn resume_with_recorder<P: AsRef<Path>>(
        path: P,
        ecfg: EngineConfig,
        recorder: Arc<Recorder>,
    ) -> Result<Self, EngineError> {
        let mut ring: BucketRing = pfe_persist::load(path, pfe_persist::kind::WINDOW)?;
        ring.adopt_config(&ecfg)?;
        let wcfg = *ring.window_config();
        Ok(Self {
            ring: Mutex::new(ring),
            merged: Mutex::new(MergedLru::new(wcfg.merged_cache)),
            merged_hits: recorder.counter("window_merged_cache_hits"),
            merged_misses: recorder.counter("window_merged_cache_misses"),
            covering_buckets: recorder.histogram("window_covering_buckets"),
            exec: QueryExecutor::with_recorder(ecfg.cache_capacity, true, recorder),
        })
    }

    /// The windowed half of the gauge sync: compute the ring's figures
    /// under one ring lock, write them into the recorder — the `window_*`
    /// gauges, one `window_buckets_tier_<level>` per tier below
    /// `window_max_tiers`, and the five `engine_*` gauges the `stats`
    /// reply shares with the plain engine (rows ingested = retained +
    /// evicted, the live ring as the "snapshot", epoch 0, one shard) —
    /// and return them.
    pub fn window_stats(&self) -> WindowStats {
        let (stats, max_tiers) = self.with_ring(|r| {
            let stats = WindowStats {
                retained_rows: r.retained_rows(),
                active_rows: r.active().rows(),
                evicted_rows: r.evicted_rows(),
                buckets: r.buckets().count(),
                buckets_per_tier: r.buckets_per_tier(),
                sealed_buckets: r.sealed_buckets(),
                tier_merges: r.tier_merges(),
                evictions: r.evictions(),
                merged_cache_hits: self.merged_hits.get(),
                merged_cache_misses: self.merged_misses.get(),
                ring_bytes: r.space_bytes(),
            };
            (stats, r.window_config().max_tiers)
        });
        let rec = self.exec.recorder();
        let set = |name: &str, value: u64| rec.gauge(name).set(value);
        set("window_retained_rows", stats.retained_rows);
        set("window_active_rows", stats.active_rows);
        set("window_evicted_rows", stats.evicted_rows);
        set("window_buckets", stats.buckets as u64);
        set("window_sealed_buckets", stats.sealed_buckets);
        set("window_tier_merges", stats.tier_merges);
        set("window_evictions", stats.evictions);
        set("window_ring_bytes", stats.ring_bytes as u64);
        set("window_max_tiers", u64::from(max_tiers));
        for (level, &n) in stats.buckets_per_tier.iter().enumerate() {
            set(&format!("window_buckets_tier_{level}"), u64::from(n));
        }
        set(
            "engine_rows_ingested",
            stats.retained_rows + stats.evicted_rows,
        );
        set("engine_snapshot_epoch", 0);
        set("engine_snapshot_rows", stats.retained_rows);
        set("engine_snapshot_bytes", stats.ring_bytes as u64);
        set("engine_shards", 1);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_stream::gen::uniform_binary;

    fn ecfg() -> EngineConfig {
        EngineConfig {
            sample_t: 4096,
            kmv_k: 64,
            ..Default::default()
        }
    }

    fn wcfg() -> WindowConfig {
        WindowConfig {
            bucket_rows: 100,
            tier_cap: 3,
            max_tiers: 4,
            merged_cache: 4,
        }
    }

    fn counter(engine: &WindowedEngine, name: &str) -> u64 {
        engine.exec.recorder().counter(name).get()
    }

    fn engine_with(d: u32, rows: usize, seed: u64) -> WindowedEngine {
        let engine = WindowedEngine::start(d, 2, ecfg(), wcfg()).expect("start");
        engine
            .ingest(&uniform_binary(d, rows, seed))
            .expect("ingest");
        engine
    }

    #[test]
    fn windowed_answers_carry_coverage() {
        let engine = engine_with(10, 950, 1);
        let a = engine
            .query(&Query::over([0, 1, 2]).heavy_hitters(0.05).window(300))
            .expect("ok");
        let w = a.window.expect("windowed answers carry coverage");
        assert_eq!(w.requested_rows, 300);
        assert!(w.covered_rows >= 300);
        assert!(!w.truncated);
        assert!(w.buckets >= 1);
        // The guarantee and epoch are relative to the covered suffix.
        assert_eq!(a.epoch, engine.coverage(Some(300)).fingerprint);
        // Unwindowed answers do not.
        let a = engine
            .query(&Query::over([0, 1, 2]).heavy_hitters(0.05))
            .expect("ok");
        assert_eq!(a.window, None);
    }

    #[test]
    fn repeated_windowed_queries_hit_both_caches() {
        let engine = engine_with(10, 950, 2);
        let q = Query::over([0, 1, 2, 3]).heavy_hitters(0.05).window(400);
        let first = engine.query(&q).expect("ok");
        assert!(!first.cost.cached);
        let second = engine.query(&q).expect("ok");
        assert!(second.cost.cached, "same covering + key must hit");
        assert_eq!(first.value, second.value);
        let stats = engine.window_stats();
        assert_eq!(stats.merged_cache_misses, 1);
        assert!(counter(&engine, "engine_cache_hits") >= 1);
        // New rows shift the covering: the cache must not serve stale
        // windows.
        engine.push_packed_batch(&[0b1]).expect("push");
        let third = engine.query(&q).expect("ok");
        assert!(!third.cost.cached, "ingest must invalidate the window");
        assert_ne!(third.epoch, second.epoch);
    }

    #[test]
    fn same_covering_different_last_n_share_the_merge() {
        let engine = engine_with(10, 950, 3);
        // Both windows resolve inside the active+1-bucket covering iff
        // they land in the same bucket boundary; use values 1 apart to
        // guarantee the same covering set.
        let a = engine
            .query(&Query::over([0, 1]).f0().window(210))
            .expect("ok");
        let b = engine
            .query(&Query::over([0, 1]).f0().window(211))
            .expect("ok");
        assert_eq!(a.epoch, b.epoch, "same covering fingerprint");
        assert_eq!(a.estimate(), b.estimate());
        let stats = engine.window_stats();
        assert_eq!(
            stats.merged_cache_misses, 1,
            "one merge served both windows"
        );
        // Distinct last_n keep distinct answer-cache entries (the
        // coverage they report differs), so the second was a fresh
        // compute against the shared merged snapshot.
        assert_eq!(a.window.expect("w").requested_rows, 210);
        assert_eq!(b.window.expect("w").requested_rows, 211);
    }

    #[test]
    fn batch_mixes_windows_and_whole_retention() {
        let engine = engine_with(10, 950, 4);
        let batch = vec![
            Query::over([0, 1]).f0().window(100),
            Query::over([0, 1]).f0(),
            Query::over([0, 1]).f0().window(900),
            Query::over([0, 1]).f0().pinned_to(3), // rejected
            Query::over([99]).f0().window(100),    // bad columns
        ];
        let answers = engine.query_batch(&batch);
        assert!(answers[0].is_ok());
        assert!(answers[1].is_ok());
        assert!(answers[2].is_ok());
        assert!(matches!(
            &answers[3],
            Err(EngineError::Query(QueryError::BadParameter(m))) if m.contains("pinning")
        ));
        assert!(answers[4].is_err());
        // Whole-retention and the 900-window may or may not share a
        // covering; the 100-window covers fewer rows than retention.
        let w100 = answers[0].as_ref().unwrap().window.unwrap();
        assert!(w100.covered_rows < engine.retained_rows() || w100.covered_rows >= 100);
        assert_eq!(answers[1].as_ref().unwrap().window, None);
    }

    #[test]
    fn truncated_windows_report_it() {
        let d = 8;
        let engine = WindowedEngine::start(
            d,
            2,
            ecfg(),
            WindowConfig {
                bucket_rows: 50,
                tier_cap: 2,
                max_tiers: 1,
                merged_cache: 2,
            },
        )
        .expect("start");
        engine.ingest(&uniform_binary(d, 500, 5)).expect("ingest");
        let stats = engine.window_stats();
        assert!(stats.evicted_rows > 0, "tiny ring must have evicted");
        let a = engine
            .query(&Query::over([0, 1]).f0().window(100_000))
            .expect("ok");
        let w = a.window.expect("coverage");
        assert!(w.truncated);
        assert_eq!(w.covered_rows, stats.retained_rows);
    }

    #[test]
    fn grouped_batch_members_keep_their_own_truncation() {
        // Regression: two requests sharing one covering set (same
        // fingerprint, one merged snapshot) must still report their own
        // request-relative truncation.
        let d = 8;
        let engine = WindowedEngine::start(
            d,
            2,
            ecfg(),
            WindowConfig {
                bucket_rows: 50,
                tier_cap: 2,
                max_tiers: 1,
                merged_cache: 2,
            },
        )
        .expect("start");
        engine.ingest(&uniform_binary(d, 500, 9)).expect("ingest");
        assert!(engine.window_stats().evicted_rows > 0);
        let retained = engine.retained_rows();
        let answers = engine.query_batch(&[
            Query::over([0, 1]).f0().window(retained),
            Query::over([0, 1]).f0().window(100_000),
        ]);
        let (a, b) = (
            answers[0].as_ref().expect("ok"),
            answers[1].as_ref().expect("ok"),
        );
        assert_eq!(a.epoch, b.epoch, "same covering set, one merge");
        let (wa, wb) = (a.window.expect("w"), b.window.expect("w"));
        assert_eq!(wa.covered_rows, retained);
        assert_eq!(wb.covered_rows, retained);
        assert!(!wa.truncated, "request within retention");
        assert!(wb.truncated, "request beyond evicted history");
    }

    #[test]
    fn window_stats_reflect_ring_shape() {
        let engine = engine_with(10, 950, 6);
        let stats = engine.window_stats();
        assert_eq!(stats.retained_rows, 950);
        assert_eq!(stats.active_rows, 50);
        assert_eq!(stats.sealed_buckets, 9);
        assert!(stats.tier_merges > 0, "9 seals at cap 3 must merge");
        assert_eq!(stats.evictions, 0);
        assert_eq!(
            stats.buckets_per_tier.iter().sum::<u32>() as usize,
            stats.buckets
        );
        assert!(stats.ring_bytes > 0);
        let served = || {
            pfe_engine::StatKind::ALL
                .iter()
                .map(|k| counter(&engine, &format!("engine_queries_{}", k.name())))
                .sum::<u64>()
        };
        assert_eq!(served(), 0);
        engine.query(&Query::over([0]).f0().window(10)).expect("ok");
        assert_eq!(counter(&engine, "engine_queries_f0"), 1);
        assert_eq!(served(), 1);
    }

    #[test]
    fn shared_recorder_sees_window_metrics() {
        let rec = Arc::new(Recorder::new());
        let engine = WindowedEngine::start_with_recorder(10, 2, ecfg(), wcfg(), Arc::clone(&rec))
            .expect("start");
        engine.ingest(&uniform_binary(10, 950, 12)).expect("ingest");
        let q = Query::over([0, 1]).f0().window(300);
        engine.query(&q).expect("ok");
        engine.query(&q).expect("ok");
        assert_eq!(rec.counter("window_merged_cache_misses").get(), 1);
        // Each batch re-resolves its covering set even when the merged
        // snapshot is warm, so the histogram counts resolutions.
        assert_eq!(rec.histogram("window_covering_buckets").count(), 2);
        assert!(rec.histogram("window_covering_buckets").snapshot().max >= 1);
        // Executor series land in the same registry…
        assert_eq!(rec.counter("engine_queries_f0").get(), 2);
        // …and reading stats mirrors the ring shape into gauges.
        let stats = engine.window_stats();
        assert_eq!(rec.gauge("window_retained_rows").get(), stats.retained_rows);
        assert_eq!(
            rec.gauge("window_sealed_buckets").get(),
            stats.sealed_buckets
        );
        assert_eq!(stats.merged_cache_hits, 1);
        // The tiers and the engine-schema mapping land beside them.
        let tiers = rec.gauge("window_max_tiers").get();
        assert_eq!(tiers, u64::from(wcfg().max_tiers));
        let per_tier: Vec<u32> = (0..tiers)
            .map(|l| rec.gauge(&format!("window_buckets_tier_{l}")).get() as u32)
            .collect();
        assert_eq!(per_tier, stats.buckets_per_tier);
        assert_eq!(rec.gauge("engine_rows_ingested").get(), 950);
        assert_eq!(rec.gauge("engine_snapshot_rows").get(), 950);
        assert_eq!(rec.gauge("engine_shards").get(), 1);
    }

    #[test]
    fn ingest_shape_mismatch_rejected() {
        let engine = WindowedEngine::start(8, 2, ecfg(), wcfg()).expect("start");
        assert!(matches!(
            engine.ingest(&uniform_binary(9, 10, 7)),
            Err(EngineError::BadConfig(_))
        ));
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let dir = std::env::temp_dir().join("pfe-window-test-resume-mismatch");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("ring.pfew");
        let engine = engine_with(10, 400, 8);
        engine.checkpoint(&path).expect("checkpoint");
        // Same config resumes.
        assert!(WindowedEngine::resume(&path, ecfg()).is_ok());
        // A different seed (=> different sketch seeds) is rejected.
        let bad = EngineConfig {
            seed: 999,
            ..ecfg()
        };
        assert!(matches!(
            WindowedEngine::resume(&path, bad),
            Err(EngineError::Incompatible(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
