//! The batch planner: normalize every query of a batch to its canonical
//! [`QueryKey`] once, then group co-plannable queries so one snapshot
//! compute and one cache probe serve the whole group.
//!
//! Planning does all the per-query normalization work exactly once:
//! column validation, epoch-pin checking, net rounding together with the
//! guarantee the answering summary states for that rounding, and pattern
//! encoding (the encoded [`PatternKey`] is carried into execution, so the
//! frequency path never re-encodes after the cache probe). Queries whose
//! keys coincide — e.g. many mid-size `F_0` subsets rounding to the same
//! net member, or repeated heavy-hitter probes of one mask — land in one
//! [`PlanGroup`]; the executor computes the group's answer once and
//! materializes a per-query [`Answer`](pfe_query::Answer) with each
//! query's own provenance and guarantee.
//!
//! The planner is snapshot-relative, not engine-relative: the windowed
//! engine plans each covering-set batch against the *merged* snapshot of
//! that covering set (whose epoch slot carries the covering-set
//! fingerprint), so windowed queries group — and cache — by fingerprint
//! exactly like whole-stream queries group by epoch.

use std::collections::HashMap;

use pfe_core::net_sketches::Guaranteed;
use pfe_core::{AlphaNetSummary, Guarantee, QueryError, RoundedQuery};
use pfe_query::{Query, QueryKey, Statistic};
use pfe_row::{ColumnSet, PatternKey};

use crate::error::EngineError;
use crate::snapshot::Snapshot;

/// One query after normalization.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Index into the request slice (answers return in request order).
    pub slot: usize,
    /// The validated query column set.
    pub cols: ColumnSet,
    /// The column set the answer is computed on: the rounded net member
    /// for (non-exact) `F_0`, `cols` otherwise.
    pub target: ColumnSet,
    /// `|C Δ C′|` of the rounding (0 when not rounded).
    pub sym_diff: u32,
    /// What the answering summary guarantees of this query's answer, its
    /// own rounding folded in: members of one group share a value, not a
    /// guarantee.
    pub guarantee: Guarantee,
    /// The pattern encoded against `cols` — done here, once, for the
    /// frequency path.
    pub pattern_key: Option<PatternKey>,
    /// Whether the exact (full-retention) path answers this query.
    pub exact: bool,
}

/// A set of queries sharing one canonical key: one cache probe, one
/// snapshot compute.
#[derive(Debug, Clone)]
pub struct PlanGroup {
    /// The shared canonical key (also the cache key).
    pub key: QueryKey,
    /// Whether the executor may probe the answer cache (false for
    /// cache-bypassing queries, which always plan as singleton groups).
    pub probe_cache: bool,
    /// Group members, in request order.
    pub members: Vec<Planned>,
}

/// The plan for one batch: groups to execute plus per-slot planning
/// errors (bad columns, stale pins, codec failures).
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Groups to execute, in first-appearance order.
    pub groups: Vec<PlanGroup>,
    /// Per-slot planning failures (`(request index, error)`).
    pub errors: Vec<(usize, EngineError)>,
}

/// Largest `k` an `ℓ_1`-sample query may ask for. The answer collects `k`
/// 16-byte draws and the answer cache keeps it, so `k` is memory the
/// client sizes: 4,096 draws are 64 KiB per answer (64 MiB for a full
/// default cache of them), 256× the largest `k` the repo's tests and
/// benchmark ask for (16).
pub const MAX_L1_SAMPLE_K: usize = 1 << 12;

/// How `net` rounds `cols`, and what it guarantees of the answer.
fn rounded<P: Guaranteed>(
    net: &AlphaNetSummary<P>,
    cols: &ColumnSet,
) -> Result<(RoundedQuery, Guarantee), QueryError> {
    let r = net.effective_rounding(cols)?;
    Ok((r, net.guarantee(r.sym_diff)))
}

fn column_set(snap: &Snapshot, cols: &[u32]) -> Result<ColumnSet, EngineError> {
    let d = snap.sample().dimension();
    ColumnSet::from_indices(d, cols)
        .map_err(|e| EngineError::Query(QueryError::BadParameter(format!("columns: {e:?}"))))
}

/// Normalize and group a batch against one snapshot.
pub fn plan(snap: &Snapshot, queries: &[Query]) -> Plan {
    let epoch = snap.epoch();
    let exhaustive = snap.is_exhaustive();
    let mut plan = Plan::default();
    let mut index: HashMap<QueryKey, usize> = HashMap::with_capacity(queries.len());
    'next: for (slot, q) in queries.iter().enumerate() {
        if let Statistic::L1Sample { k, .. } = q.statistic {
            if k > MAX_L1_SAMPLE_K {
                let msg = format!("l1_sample k={k} outside 0..={MAX_L1_SAMPLE_K}");
                plan.errors
                    .push((slot, EngineError::Query(QueryError::BadParameter(msg))));
                continue 'next;
            }
        }
        if let Some(pinned) = q.options.pin_epoch {
            if pinned != epoch {
                plan.errors.push((
                    slot,
                    EngineError::EpochMismatch {
                        pinned,
                        published: epoch,
                    },
                ));
                continue 'next;
            }
        }
        let cols = match column_set(snap, &q.cols) {
            Ok(c) => c,
            Err(e) => {
                plan.errors.push((slot, e));
                continue 'next;
            }
        };
        let exact = q.options.exact_if_available && exhaustive;
        // The summary that answers says how it rounds the query — F_0 and
        // F_p round to a net member (Definition 6.1) — and what it
        // guarantees of an answer so rounded; the exact path answers from
        // the retained rows directly.
        let unrounded = RoundedQuery {
            target: cols,
            sym_diff: 0,
        };
        let answered = match q.statistic {
            _ if exact => Ok((unrounded, Guarantee::exact())),
            Statistic::F0 => rounded(snap.net_f0(), &cols),
            Statistic::Fp { p } => snap.moment_net(p).and_then(|net| rounded(net, &cols)),
            Statistic::L1Sample { .. } => Ok((unrounded, snap.sample().mass_guarantee())),
            Statistic::Frequency { .. } | Statistic::HeavyHitters { .. } => {
                Ok((unrounded, snap.sample().count_guarantee()))
            }
        };
        let (RoundedQuery { target, sym_diff }, guarantee) = match answered {
            Ok(answered) => answered,
            Err(e) => {
                plan.errors.push((slot, e.into()));
                continue 'next;
            }
        };
        let pattern_key = match &q.statistic {
            Statistic::Frequency { pattern } => match snap.encode_pattern(&cols, pattern) {
                Ok(k) => Some(k),
                Err(e) => {
                    plan.errors.push((slot, e.into()));
                    continue 'next;
                }
            },
            _ => None,
        };
        let key = QueryKey::new(
            epoch,
            target.mask(),
            &q.statistic,
            pattern_key,
            exact,
            q.options.window.unwrap_or(0),
        );
        let planned = Planned {
            slot,
            cols,
            target,
            sym_diff,
            guarantee,
            pattern_key,
            exact,
        };
        if q.options.bypass_cache {
            // Bypass means "recompute for me": never share a group, never
            // probe (the fresh answer still refreshes the cache entry).
            plan.groups.push(PlanGroup {
                key,
                probe_cache: false,
                members: vec![planned],
            });
        } else if let Some(&gi) = index.get(&key) {
            plan.groups[gi].members.push(planned);
        } else {
            index.insert(key, plan.groups.len());
            plan.groups.push(PlanGroup {
                key,
                probe_cache: true,
                members: vec![planned],
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::shard::ShardSummary;
    use pfe_query::StatKind;
    use pfe_stream::gen::uniform_binary;

    fn snapshot(d: u32, rows: usize) -> Snapshot {
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
        Snapshot::from_shards(vec![shard], 1)
    }

    #[test]
    fn mask_colliding_f0_queries_share_a_group() {
        let snap = snapshot(12, 2000);
        // Mid-size queries that shrink to the same small-side member.
        let queries = vec![
            Query::over(0..6).f0(),
            Query::over(0..7).f0(),
            Query::over([0, 1]).f0(), // in-net: its own group
        ];
        let plan = plan(&snap, &queries);
        assert!(plan.errors.is_empty());
        let r0 = snap
            .f0_rounding(&ColumnSet::from_indices(12, &[0, 1, 2, 3, 4, 5]).expect("v"))
            .expect("ok");
        let r1 = snap
            .f0_rounding(&ColumnSet::from_indices(12, &[0, 1, 2, 3, 4, 5, 6]).expect("v"))
            .expect("ok");
        if r0.target == r1.target {
            assert_eq!(plan.groups.len(), 2, "colliding masks must share a group");
            assert_eq!(plan.groups[0].members.len(), 2);
            // Per-member provenance is preserved inside the shared group.
            assert_ne!(
                plan.groups[0].members[0].sym_diff,
                plan.groups[0].members[1].sym_diff
            );
        }
    }

    #[test]
    fn statistics_never_share_groups_and_errors_keep_slots() {
        let snap = snapshot(8, 500);
        let queries = vec![
            Query::over([0, 1]).f0(),
            Query::over([0, 1]).heavy_hitters(0.1),
            Query::over([99]).f0(),                // bad column
            Query::over([0, 1]).f0().pinned_to(7), // stale pin
        ];
        let plan = plan(&snap, &queries);
        assert_eq!(plan.groups.len(), 2);
        assert_ne!(plan.groups[0].key.kind, plan.groups[1].key.kind);
        assert_eq!(plan.errors.len(), 2);
        assert_eq!(plan.errors[0].0, 2);
        assert!(matches!(
            plan.errors[1],
            (
                3,
                EngineError::EpochMismatch {
                    pinned: 7,
                    published: 1
                }
            )
        ));
    }

    #[test]
    fn bypass_queries_plan_as_singletons() {
        let snap = snapshot(8, 500);
        let queries = vec![
            Query::over([0, 1]).heavy_hitters(0.1),
            Query::over([0, 1]).heavy_hitters(0.1).bypass_cache(),
            Query::over([0, 1]).heavy_hitters(0.1),
        ];
        let plan = plan(&snap, &queries);
        assert_eq!(plan.groups.len(), 2);
        let bypass: Vec<_> = plan.groups.iter().filter(|g| !g.probe_cache).collect();
        assert_eq!(bypass.len(), 1);
        assert_eq!(bypass[0].members.len(), 1);
        assert_eq!(bypass[0].members[0].slot, 1);
    }

    #[test]
    fn window_lengths_split_groups() {
        let snap = snapshot(8, 500);
        let queries = vec![
            Query::over([0, 1]).heavy_hitters(0.1).window(100),
            Query::over([0, 1]).heavy_hitters(0.1).window(100),
            Query::over([0, 1]).heavy_hitters(0.1).window(200),
            Query::over([0, 1]).heavy_hitters(0.1),
        ];
        let plan = plan(&snap, &queries);
        assert_eq!(plan.groups.len(), 3, "two windows + whole-stream");
        assert_eq!(plan.groups[0].members.len(), 2);
        assert_eq!(plan.groups[0].key.window, 100);
        assert_eq!(plan.groups[1].key.window, 200);
        assert_eq!(plan.groups[2].key.window, 0);
    }

    #[test]
    fn fp_queries_round_like_f0_and_split_by_order() {
        let cfg = EngineConfig {
            sample_t: 256,
            kmv_k: 64,
            fp: Some(pfe_core::FpConfig {
                orders: vec![2.0, 1.0],
                stable_t: 4,
                ams_groups: 3,
                ams_per_group: 4,
            }),
            ..Default::default()
        };
        let d = 12;
        let mut shard = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &uniform_binary(d, 2000, 3) {
            for &row in m.rows() {
                shard.push_packed(row);
            }
        }
        let snap = Snapshot::from_shards(vec![shard], 1);
        let queries = vec![
            Query::over(0..6).fp(2.0),
            Query::over(0..6).fp(2.0),
            Query::over(0..6).fp(1.0), // same mask, different order
            Query::over(0..6).fp(1.7), // unmaterialized: plan-time error
        ];
        let plan = plan(&snap, &queries);
        assert_eq!(plan.groups.len(), 2, "orders must not share groups");
        assert_eq!(plan.groups[0].members.len(), 2);
        // Mid-size subsets round to a net member, like F_0.
        let r = snap
            .fp_rounding(&plan.groups[0].members[0].cols, 2.0)
            .expect("ok");
        assert_eq!(plan.groups[0].members[0].target, r.target);
        assert_eq!(plan.errors.len(), 1);
        assert_eq!(plan.errors[0].0, 3);
    }

    #[test]
    fn frequency_pattern_encoded_once_at_plan_time() {
        let snap = snapshot(8, 500);
        let queries = vec![Query::over([0, 2]).frequency([1u16, 0])];
        let plan = plan(&snap, &queries);
        let planned = &plan.groups[0].members[0];
        assert_eq!(plan.groups[0].key.kind, StatKind::Frequency);
        let expected = snap
            .encode_pattern(&planned.cols, &[1, 0])
            .expect("encodes");
        assert_eq!(planned.pattern_key, Some(expected));
        assert_eq!(plan.groups[0].key.aux, expected.raw());
    }
}
