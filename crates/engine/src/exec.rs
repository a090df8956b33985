//! The snapshot-relative query executor: plan → cache probe → compute →
//! materialize, shared by every serving frontend.
//!
//! [`Engine`](crate::Engine) answers whole-stream batches against its
//! published snapshot; the windowed engine (`pfe-window`) answers
//! `last_n`-row batches against merged covering-set snapshots. Both drive
//! the same [`QueryExecutor`]: one planner, one LRU answer cache keyed by
//! the canonical [`pfe_query::QueryKey`], one per-statistic counter set,
//! and one materialization path attaching provenance and the guarantee
//! the answering summary stated at plan time — so the two frontends
//! cannot drift in semantics.

use std::sync::Arc;
use std::time::Instant;

use pfe_obs::{AttrValue, Counter, Histogram, Recorder, TraceHandle};
use pfe_query::{Answer, AnswerValue, CostInfo, Provenance, Query, StatKind, Statistic};

use crate::cache::{CachedAnswer, QueryCache};
use crate::error::EngineError;
use crate::planner::{plan, PlanGroup, Planned};
use crate::snapshot::Snapshot;

fn kind_index(kind: StatKind) -> usize {
    match kind {
        StatKind::F0 => 0,
        StatKind::Frequency => 1,
        StatKind::HeavyHitters => 2,
        StatKind::L1Sample => 3,
        StatKind::Fp => 4,
    }
}

/// The shared plan/probe/compute/materialize pipeline behind a serving
/// frontend: an LRU answer cache plus per-statistic counters and latency
/// histograms, exercised one snapshot at a time.
///
/// All metrics live in the executor's [`Recorder`]: `engine_queries_*`
/// counters, `engine_query_latency_ns_*` per-statistic histograms,
/// `engine_stage_{plan,cache_probe,compute,materialize}_ns` stage
/// histograms, and the `engine_cache_*` series owned by the cache. The
/// stats replies read those series back out of the registry.
pub struct QueryExecutor {
    cache: QueryCache,
    recorder: Arc<Recorder>,
    /// Per-statistic handles, indexed by [`kind_index`].
    stat_queries: [Arc<Counter>; 5],
    stat_latency: [Arc<Histogram>; 5],
    stage_plan: Arc<Histogram>,
    stage_probe: Arc<Histogram>,
    stage_compute: Arc<Histogram>,
    stage_materialize: Arc<Histogram>,
    /// Whether this executor's frontend can serve `window(last_n)`
    /// queries (only the windowed engine resolves covering sets).
    windowed: bool,
}

impl QueryExecutor {
    /// Create an executor with an answer cache of `cache_capacity`
    /// entries (0 disables caching), registering its metrics in the
    /// shared `recorder` (the server threads one recorder through engine,
    /// window, and connection handling). `windowed` declares whether the
    /// owning frontend resolves window requests; when `false`, queries
    /// carrying [`pfe_query::QueryOptions::window`] get a typed per-slot
    /// error instead of a silently whole-stream answer.
    pub fn with_recorder(cache_capacity: usize, windowed: bool, recorder: Arc<Recorder>) -> Self {
        let stat_queries =
            StatKind::ALL.map(|kind| recorder.counter(&format!("engine_queries_{}", kind.name())));
        let stat_latency = StatKind::ALL
            .map(|kind| recorder.histogram(&format!("engine_query_latency_ns_{}", kind.name())));
        Self {
            cache: QueryCache::with_recorder(cache_capacity, &recorder),
            stat_queries,
            stat_latency,
            stage_plan: recorder.histogram("engine_stage_plan_ns"),
            stage_probe: recorder.histogram("engine_stage_cache_probe_ns"),
            stage_compute: recorder.histogram("engine_stage_compute_ns"),
            stage_materialize: recorder.histogram("engine_stage_materialize_ns"),
            recorder,
            windowed,
        }
    }

    /// The recorder this executor reports into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Answer a batch of queries against one snapshot. Answers return in
    /// request order; per-query errors are reported per slot, never
    /// batch-fatal. Co-plannable queries (same canonical key) share one
    /// cache probe and at most one snapshot compute.
    pub fn answer_batch(
        &self,
        snap: &Arc<Snapshot>,
        queries: &[Query],
    ) -> Vec<Result<Answer, EngineError>> {
        self.answer_batch_traced(snap, queries, &TraceHandle::disabled())
    }

    /// Like [`answer_batch`](Self::answer_batch), but additionally
    /// recording per-stage spans (`plan`, `cache_probe`, `compute`,
    /// `materialize`) into the request's trace. The trace context never
    /// participates in planning or cache keys — a traced and an
    /// untraced run of the same batch produce identical answers (modulo
    /// the [`Answer::trace_id`] echo on client-traced and slow
    /// requests).
    pub fn answer_batch_traced(
        &self,
        snap: &Arc<Snapshot>,
        queries: &[Query],
        trace: &TraceHandle,
    ) -> Vec<Result<Answer, EngineError>> {
        let mut out: Vec<Option<Result<Answer, EngineError>>> = vec![None; queries.len()];
        if !self.windowed {
            for (slot, q) in queries.iter().enumerate() {
                if q.options.window.is_some() {
                    out[slot] = Some(Err(EngineError::Query(pfe_core::QueryError::BadParameter(
                        "window(last_n) queries require a windowed engine (pfe-window)".to_string(),
                    ))));
                }
            }
        }
        // Plan only the slots that passed the frontend gate; on the
        // common all-open path, plan the request slice directly (no
        // clones).
        let plan_start = Instant::now();
        let mut plan_span = trace.span("plan");
        let plan = if out.iter().all(Option::is_none) {
            plan(snap, queries)
        } else {
            // Re-map planned slots back to original request slots.
            let slots: Vec<usize> = (0..queries.len())
                .filter(|slot| out[*slot].is_none())
                .collect();
            let open: Vec<Query> = slots.iter().map(|&slot| queries[slot].clone()).collect();
            let mut p = plan(snap, &open);
            for (slot, _) in p.errors.iter_mut() {
                *slot = slots[*slot];
            }
            for group in p.groups.iter_mut() {
                for m in group.members.iter_mut() {
                    m.slot = slots[m.slot];
                }
            }
            p
        };
        plan_span.attr("queries", queries.len());
        plan_span.attr("groups", plan.groups.len());
        drop(plan_span);
        self.stage_plan.record_duration(plan_start.elapsed());
        for (slot, e) in plan.errors {
            out[slot] = Some(Err(e));
        }
        for group in &plan.groups {
            let group_start = Instant::now();
            match self.execute_group(snap, queries, group, trace) {
                Err(e) => {
                    for m in &group.members {
                        out[m.slot] = Some(Err(e.clone()));
                    }
                }
                Ok((value, cached)) => {
                    let idx = kind_index(group.key.kind);
                    self.stat_queries[idx].add(group.members.len() as u64);
                    let group_size = group.members.len() as u32;
                    let mat_start = Instant::now();
                    let mut mat_span = trace.span("materialize");
                    if mat_span.is_enabled() {
                        mat_span.attr("statistic", group.key.kind.name());
                        mat_span.attr("mask", AttrValue::Hex(group.key.mask));
                        mat_span.attr("epoch", group.key.epoch);
                        mat_span.attr("cached", cached);
                        mat_span.attr("group_size", group_size);
                    }
                    for m in &group.members {
                        out[m.slot] = Some(Ok(materialize(snap, m, &value, cached, group_size)));
                    }
                    drop(mat_span);
                    self.stage_materialize.record_duration(mat_start.elapsed());
                    let elapsed = group_start.elapsed();
                    // Each member observed the group's latency: the
                    // histogram count matches queries served.
                    let elapsed_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
                    for _ in &group.members {
                        self.stat_latency[idx].record(elapsed_ns);
                    }
                    let logged = self.recorder.slow_log().record(
                        &format!("query:{}", group.key.kind.name()),
                        elapsed,
                        || {
                            let mut detail = vec![
                                ("mask".to_string(), format!("{:#x}", group.key.mask)),
                                ("epoch".to_string(), group.key.epoch.to_string()),
                                ("exact".to_string(), group.key.exact.to_string()),
                                ("cached".to_string(), cached.to_string()),
                                ("group_size".to_string(), group_size.to_string()),
                                ("group_ns".to_string(), elapsed_ns.to_string()),
                            ];
                            if let Some(id) = trace.trace_id() {
                                detail.push((
                                    "trace_id".to_string(),
                                    pfe_obs::TraceContext::format_id(id),
                                ));
                            }
                            detail
                        },
                    );
                    if logged {
                        // Slow-log-qualifying requests are always kept by
                        // the trace head-sampler.
                        trace.mark_slow();
                    }
                }
            }
        }
        let mut answers: Vec<Result<Answer, EngineError>> = out
            .into_iter()
            .map(|slot| slot.expect("planner fills every slot"))
            .collect();
        // Stamp answers only when the caller will look for the id: a
        // client-supplied trace, or one marked slow mid-flight. The
        // common fast path skips the 32-hex field entirely — it costs
        // more to serialize and parse than the span recording itself.
        if trace.client_supplied() || trace.is_slow() {
            if let Some(id) = trace.trace_id() {
                for a in answers.iter_mut().flatten() {
                    a.trace_id = Some(id);
                }
            }
        }
        answers
    }

    /// Probe the cache for a group's key, or compute its answer once from
    /// the snapshot and (re)fill the cache entry.
    fn execute_group(
        &self,
        snap: &Snapshot,
        queries: &[Query],
        group: &PlanGroup,
        trace: &TraceHandle,
    ) -> Result<(CachedAnswer, bool), EngineError> {
        if group.probe_cache {
            let probe_start = Instant::now();
            let mut probe_span = trace.span("cache_probe");
            let hit = self.cache.get(&group.key);
            probe_span.attr("hit", hit.is_some());
            drop(probe_span);
            self.stage_probe.record_duration(probe_start.elapsed());
            if let Some(hit) = hit {
                return Ok((hit, true));
            }
        }
        let compute_start = Instant::now();
        let mut compute_span = trace.span("compute");
        if compute_span.is_enabled() {
            compute_span.attr("statistic", group.key.kind.name());
            compute_span.attr("mask", AttrValue::Hex(group.key.mask));
        }
        let rep = &group.members[0];
        let value = match &queries[rep.slot].statistic {
            Statistic::F0 => {
                if rep.exact {
                    CachedAnswer::F0(snap.f0_exact(&rep.cols)?)
                } else {
                    // The estimate belongs to the rounded target (the
                    // group key's mask); per-query provenance is attached
                    // at materialization.
                    CachedAnswer::F0(snap.f0(&rep.target)?.estimate)
                }
            }
            Statistic::Frequency { .. } => {
                // The pattern was encoded once at plan time; the probe
                // above and this compute both reuse it.
                let key = rep
                    .pattern_key
                    .expect("planned frequency queries carry a key");
                CachedAnswer::Frequency(snap.frequency(&rep.cols, key)?)
            }
            Statistic::HeavyHitters { phi } => {
                let mut hitters = snap.heavy_hitters(&rep.cols, *phi, 1.0, 2.0)?;
                if rep.exact {
                    // Full retention: estimates are exact counts, so the
                    // recall slack is unnecessary — keep exactly `≥ φn`.
                    let threshold = phi * snap.n() as f64;
                    hitters.retain(|h| h.estimate >= threshold);
                }
                CachedAnswer::HeavyHitters(hitters)
            }
            Statistic::L1Sample { k, seed } => {
                CachedAnswer::L1Sample(snap.l1_sample(&rep.cols, *k, *seed)?)
            }
            Statistic::Fp { p } => {
                if rep.exact {
                    CachedAnswer::Fp(snap.fp_exact(&rep.cols, *p)?)
                } else {
                    // Like F_0: the estimate belongs to the rounded target.
                    CachedAnswer::Fp(snap.fp(&rep.target, *p)?.estimate)
                }
            }
        };
        drop(compute_span);
        self.stage_compute.record_duration(compute_start.elapsed());
        self.cache.put(group.key, value.clone());
        Ok((value, false))
    }
}

/// Attach one member's provenance, guarantee (the answering summary's,
/// for this member's own rounding — see [`Planned::guarantee`]) and cost
/// metadata to the group's shared value.
fn materialize(
    snap: &Snapshot,
    m: &Planned,
    value: &CachedAnswer,
    cached: bool,
    group_size: u32,
) -> Answer {
    let value = match value {
        CachedAnswer::F0(estimate) => AnswerValue::F0 {
            estimate: *estimate,
        },
        CachedAnswer::Frequency(fa) => AnswerValue::Frequency {
            estimate: fa.estimate,
            upper_bound: fa.upper_bound,
        },
        CachedAnswer::HeavyHitters(hitters) => AnswerValue::HeavyHitters {
            hitters: hitters.clone(),
        },
        CachedAnswer::L1Sample(patterns) => AnswerValue::L1Sample {
            patterns: patterns.clone(),
        },
        CachedAnswer::Fp(estimate) => AnswerValue::Fp {
            estimate: *estimate,
        },
    };
    Answer {
        value,
        guarantee: m.guarantee,
        provenance: Provenance {
            requested: m.cols,
            answered_on: m.target,
            sym_diff: m.sym_diff,
        },
        epoch: snap.epoch(),
        cost: CostInfo { cached, group_size },
        window: None,
        trace_id: None,
    }
}

// The tests below read answers' sources through `use super::*`.
#[cfg(test)]
use pfe_query::GuaranteeSource;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::shard::ShardSummary;
    use pfe_stream::gen::uniform_binary;

    fn snapshot(d: u32, rows: usize) -> Arc<Snapshot> {
        let cfg = EngineConfig {
            sample_t: 256,
            kmv_k: 64,
            ..Default::default()
        };
        let mut shard = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &uniform_binary(d, rows, 3) {
            for &row in m.rows() {
                shard.push_packed(row);
            }
        }
        Arc::new(Snapshot::from_shards(vec![shard], 1))
    }

    fn executor(windowed: bool) -> QueryExecutor {
        QueryExecutor::with_recorder(16, windowed, Arc::new(pfe_obs::Recorder::new()))
    }

    /// Queries the executor's registry counted for `kind` (all five
    /// statistics when `None`).
    fn served(exec: &QueryExecutor, kind: Option<StatKind>) -> u64 {
        StatKind::ALL
            .iter()
            .filter(|&&k| kind.is_none_or(|kind| kind == k))
            .map(|k| {
                let name = format!("engine_queries_{}", k.name());
                exec.recorder().counter(&name).get()
            })
            .sum()
    }

    #[test]
    fn non_windowed_executor_rejects_window_queries_per_slot() {
        let snap = snapshot(8, 500);
        let exec = executor(false);
        let answers = exec.answer_batch(
            &snap,
            &[
                Query::over([0, 1]).f0(),
                Query::over([0, 1]).f0().window(100),
                Query::over([0, 2]).f0(),
            ],
        );
        assert!(answers[0].is_ok());
        assert!(matches!(
            answers[1],
            Err(EngineError::Query(pfe_core::QueryError::BadParameter(_)))
        ));
        // The slot after the rejected one still answers in its own slot.
        let a2 = answers[2].as_ref().expect("ok");
        assert_eq!(a2.provenance.requested.to_indices(), vec![0, 2]);
        // Rejected slots never reach the counters.
        assert_eq!(served(&exec, None), 2);
    }

    #[test]
    fn windowed_executor_accepts_window_queries() {
        let snap = snapshot(8, 500);
        let exec = executor(true);
        let answers = exec.answer_batch(&snap, &[Query::over([0, 1]).f0().window(100)]);
        let a = answers[0].as_ref().expect("windowed slot accepted");
        // The executor leaves coverage attachment to the frontend.
        assert_eq!(a.window, None);
    }

    #[test]
    fn recorder_latency_counts_match_queries_served() {
        let snap = snapshot(8, 500);
        let rec = Arc::new(pfe_obs::Recorder::new());
        let exec = QueryExecutor::with_recorder(16, false, Arc::clone(&rec));
        let queries = [
            Query::over([0, 1]).f0(),
            Query::over([0, 1]).f0(), // co-planned with the first
            Query::over([0, 2]).heavy_hitters(0.1),
        ];
        let answers = exec.answer_batch(&snap, &queries);
        assert!(answers.iter().all(Result::is_ok));
        // One latency observation per answered query, even when a plan
        // group serves several members from one compute.
        assert_eq!(rec.histogram("engine_query_latency_ns_f0").count(), 2);
        assert_eq!(
            rec.histogram("engine_query_latency_ns_heavy_hitters")
                .count(),
            1
        );
        assert_eq!(rec.counter("engine_queries_f0").get(), 2);
        assert_eq!(rec.histogram("engine_stage_plan_ns").count(), 1);
        assert!(rec.histogram("engine_stage_compute_ns").count() >= 1);
        assert!(rec.histogram("engine_stage_materialize_ns").count() >= 1);
        // Every statistic's counter is one registry series.
        assert_eq!(served(&exec, None), 3);
    }

    #[test]
    fn slow_log_disabled_by_default_enabled_by_threshold() {
        let snap = snapshot(8, 500);
        let rec = Arc::new(pfe_obs::Recorder::new());
        let exec = QueryExecutor::with_recorder(16, false, Arc::clone(&rec));
        exec.answer_batch(&snap, &[Query::over([0, 1]).f0()]);
        assert!(rec.slow_log().is_empty(), "threshold 0 logs nothing");
        // Entry shape and ring behaviour are pinned in pfe-obs; here we
        // only need the executor to share the recorder's slow log so a
        // server-set threshold reaches query groups.
        assert_eq!(rec.slow_log().threshold_ms(), 0);
        rec.slow_log().set_threshold_ms(250);
        assert_eq!(exec.recorder().slow_log().threshold_ms(), 250);
    }

    #[test]
    fn fp_answers_carry_alpha_net_guarantee_and_count() {
        let cfg = EngineConfig {
            sample_t: 256,
            kmv_k: 64,
            fp: Some(pfe_core::FpConfig {
                orders: vec![2.0, 1.5],
                stable_t: 4,
                ams_groups: 3,
                ams_per_group: 4,
            }),
            ..Default::default()
        };
        let d = 8;
        let mut shard = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &uniform_binary(d, 500, 3) {
            for &row in m.rows() {
                shard.push_packed(row);
            }
        }
        let snap = Arc::new(Snapshot::from_shards(vec![shard], 1));
        let exec = executor(false);
        let answers = exec.answer_batch(
            &snap,
            &[
                Query::over([0, 1]).fp(2.0),
                Query::over([0, 1]).fp(1.5),
                Query::over([0, 1]).fp(0.7), // unmaterialized order
            ],
        );
        for (i, p) in [(0usize, 2.0), (1, 1.5)] {
            let a = answers[i].as_ref().expect("ok");
            assert_eq!(a.kind(), StatKind::Fp);
            assert!(a.estimate().expect("scalar") > 0.0);
            assert_eq!(a.guarantee.source, GuaranteeSource::AlphaNet);
            let beta = snap.fp_net(p).expect("net").beta();
            // In-net query: no rounding, so alpha is exactly the plug-in β.
            assert_eq!(a.provenance.sym_diff, 0);
            assert_eq!(a.guarantee.alpha, beta);
        }
        assert!(matches!(
            answers[2],
            Err(EngineError::Query(
                pfe_core::QueryError::UnsupportedMoment { .. }
            ))
        ));
        assert_eq!(served(&exec, Some(StatKind::Fp)), 2);
        assert_eq!(served(&exec, None), 2);
    }

    #[test]
    fn counters_and_cache_shared_across_batches() {
        let snap = snapshot(8, 500);
        let exec = executor(false);
        let q = Query::over([0, 1]).heavy_hitters(0.1);
        let first = exec.answer_batch(&snap, std::slice::from_ref(&q));
        assert!(!first[0].as_ref().expect("ok").cost.cached);
        let second = exec.answer_batch(&snap, std::slice::from_ref(&q));
        assert!(second[0].as_ref().expect("ok").cost.cached);
        assert_eq!(served(&exec, Some(StatKind::HeavyHitters)), 2);
        assert_eq!(exec.recorder().counter("engine_cache_hits").get(), 1);
    }
}
