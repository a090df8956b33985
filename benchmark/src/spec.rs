//! The metric contract: every workload and metric name the harness can
//! print, and the check that `BENCHMARK.json` lists exactly the same.
//!
//! Later changes claim or defend a number by these names, so a name that
//! is printed but not declared (or declared but never printed) is an
//! error, not a warning: [`self_check`] runs before every measurement.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bulk_binary",
        why: "binary CSV through pfe ingest to a checkpoint: the packed alpha-net push (pext+fingerprint+KMV per member) does ~all the work; parser, planner, cache, server do almost none",
    },
    Workload {
        name: "bulk_qary",
        why: "Q=4 CSV with --fp 2.0: the dense push path (ColumnSet+PatternCodec per row and mask) and the AMS moment net dominate, so a packed-path or F0-only gain bought at their cost shows",
    },
    Workload {
        name: "serve_hot",
        why: "batches of 16 from a 64-key hot set over TCP: answers are cached, so framing, JSON, planner grouping, cache probes, pool hand-off and epoll wake-ups do the work and compute none",
    },
    Workload {
        name: "serve_cold",
        why: "single requests cycling 7,293 sample-path keys, 7x the cache: LRU always misses, so rounding, sample scans, materialize and large-reply encoding dominate; a cache gain predicts no change",
    },
    Workload {
        name: "window_mixed",
        why: "open loop on a windowed engine, 5 ingests/s of 512 rows beside 50 windowed queries/s: every write changes the covering set, so tier merges, cold covering merges and cache invalidation run",
    },
];

/// What a user of the system sees; every workload prints every one.
/// "op" is a row on the bulk workloads, an answered statistic on the
/// serve workloads and a request on `window_mixed` (see README.md).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("cpu_us_per_op", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("query_p50_us", "us", "lower"),
    m("query_p99_us", "us", "lower"),
    m("state_bytes", "bytes", "lower"),
    m("headroom_net", "ratio", "higher"),
    m("headroom_sample", "ratio", "higher"),
];

/// Single layers, timed from outside by `src/layers.rs`. Row budget
/// first, then request budget, then the cross-checks.
pub const PER_LAYER: &[Metric] = &[
    m("ingest.parse_ns_per_row", "ns", "lower"),
    m("ingest.parse_mb_per_s", "MB/s", "higher"),
    m("row.project_ns", "ns", "lower"),
    m("hash.fingerprint_ns", "ns", "lower"),
    m("sketch.kmv_insert_ns", "ns", "lower"),
    m("sketch.kmv_accept_ratio", "ratio", "lower"),
    m("sketch.reservoir_insert_ns", "ns", "lower"),
    m("sketch.ams_update_ns", "ns", "lower"),
    m("core.net_members", "count", "lower"),
    m("core.net_f0_push_ns_per_row", "ns", "lower"),
    m("core.net_fp_push_ns_per_row", "ns", "lower"),
    m("core.sample_push_ns_per_row", "ns", "lower"),
    m("engine.shard_push_ns_per_row", "ns", "lower"),
    m("engine.pipeline_ns_per_row", "ns", "lower"),
    m("engine.pipeline_1shard_ns_per_row", "ns", "lower"),
    m("engine.backpressure_blocks", "count", "lower"),
    m("engine.refresh_ms", "ms", "lower"),
    m("engine.merge_ms", "ms", "lower"),
    m("persist.encode_ms", "ms", "lower"),
    m("persist.save_ms", "ms", "lower"),
    m("persist.decode_ms", "ms", "lower"),
    m("persist.load_ms", "ms", "lower"),
    m("persist.bytes_per_member", "bytes", "lower"),
    m("window.push_ns_per_row", "ns", "lower"),
    m("window.tier_merges", "count", "lower"),
    m("server.wire_ingest_ns_per_row", "ns", "lower"),
    m("cli.spawn_ms", "ms", "lower"),
    m("server.frame_ns_per_req", "ns", "lower"),
    m("engine.json_parse_ns", "ns", "lower"),
    m("engine.wire_decode_ns", "ns", "lower"),
    m("engine.plan_ns_per_query", "ns", "lower"),
    m("engine.cache_get_ns", "ns", "lower"),
    m("engine.cache_put_ns", "ns", "lower"),
    m("engine.cache_hit_ratio", "ratio", "higher"),
    m("core.net_round_ns", "ns", "lower"),
    m("engine.compute_f0_ns", "ns", "lower"),
    m("engine.compute_frequency_ns", "ns", "lower"),
    m("engine.compute_hh_ns", "ns", "lower"),
    m("engine.compute_l1_ns", "ns", "lower"),
    m("engine.compute_fp_ns", "ns", "lower"),
    m("engine.wire_encode_ns", "ns", "lower"),
    m("engine.reply_bytes", "bytes", "lower"),
    m("engine.query_hot_ns", "ns", "lower"),
    m("engine.query_cold_ns", "ns", "lower"),
    m("server.dispatch_hot_ns", "ns", "lower"),
    m("server.dispatch_cold_ns", "ns", "lower"),
    m("server.transport_us", "us", "lower"),
    m("server.wakeups_per_req", "count", "lower"),
    m("server.cpu_us_per_req", "us", "lower"),
    m("server.rejected_saturated", "count", "lower"),
    m("window.cover_merge_ms", "ms", "lower"),
    m("window.query_warm_ns", "ns", "lower"),
    m("window.merged_cache_hit_ratio", "ratio", "higher"),
    m("window.covering_buckets", "count", "lower"),
    m("engine.stage_plan_ns_p50", "ns", "lower"),
    m("engine.stage_cache_probe_ns_p50", "ns", "lower"),
    m("engine.stage_compute_ns_p50", "ns", "lower"),
    m("engine.stage_materialize_ns_p50", "ns", "lower"),
    m("obs.record_ns", "ns", "lower"),
    m("budget.row_unaccounted_frac", "ratio", "lower"),
    m("budget.req_unaccounted_frac", "ratio", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Compare one declared list against the harness's own table.
fn check_list(
    section: &str,
    declared: Option<&Json>,
    ours: &[Metric],
    max: usize,
    errors: &mut Vec<String>,
) {
    let Some(items) = declared.and_then(Json::as_arr) else {
        errors.push(format!("BENCHMARK.json has no '{section}' array"));
        return;
    };
    if items.is_empty() || items.len() > max {
        errors.push(format!(
            "{section}: {} metrics, allowed 1..={max}",
            items.len()
        ));
    }
    let mut seen = Vec::new();
    for item in items {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("");
        if !name_ok(name) {
            errors.push(format!("{section}: bad metric name {name:?}"));
        }
        if seen.contains(&name) {
            errors.push(format!("{section}: {name} listed twice"));
        }
        seen.push(name);
        match ours.iter().find(|o| o.name == name) {
            None => errors.push(format!("{section}: {name} is declared but never printed")),
            Some(o) => {
                let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
                let better = item.get("better").and_then(Json::as_str).unwrap_or("");
                if !unit_ok(unit) || unit != o.unit || better != o.better {
                    errors.push(format!(
                        "{section}: {name} declared as {unit:?}/{better:?}, printed as {:?}/{:?}",
                        o.unit, o.better
                    ));
                }
            }
        }
    }
    for o in ours {
        if !seen.contains(&o.name) {
            errors.push(format!("{section}: {} is printed but not declared", o.name));
        }
    }
}

/// Fail unless `BENCHMARK.json` and this file name exactly the same
/// workloads and metrics, with legal names, units and counts.
pub fn self_check(benchmark_json: &str) -> Result<(), String> {
    let Some(doc) = Json::parse(benchmark_json) else {
        return Err("BENCHMARK.json is not valid JSON".into());
    };
    let mut errors = Vec::new();
    match doc.get("workloads").and_then(Json::as_arr) {
        None => errors.push("BENCHMARK.json has no 'workloads' array".into()),
        Some(items) => {
            if items.len() < 2 || items.len() > 8 {
                errors.push(format!("{} workloads, allowed 2..=8", items.len()));
            }
            let declared: Vec<&str> = items
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).unwrap_or(""))
                .collect();
            let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            if declared != ours {
                errors.push(format!("workloads declared {declared:?}, run {ours:?}"));
            }
            for (item, w) in items.iter().zip(WORKLOADS) {
                let why = item.get("why").and_then(Json::as_str).unwrap_or("");
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    errors.push(format!(
                        "workload {}: 'why' must be one line of 1..=200 chars",
                        w.name
                    ));
                }
            }
            for name in declared {
                if !name_ok(name) {
                    errors.push(format!("bad workload name {name:?}"));
                }
            }
        }
    }
    check_list(
        "end_to_end",
        doc.get("end_to_end"),
        END_TO_END,
        16,
        &mut errors,
    );
    check_list(
        "per_layer",
        doc.get("per_layer"),
        PER_LAYER,
        128,
        &mut errors,
    );
    if let Some(items) = doc.get("end_to_end").and_then(Json::as_arr) {
        for item in items {
            let name = item.get("name").and_then(Json::as_str).unwrap_or("");
            match item.num("bound") {
                Some(b) if b > 0.0 && b <= 0.25 => {}
                other => errors.push(format!(
                    "end_to_end: {name} bound {other:?} not in (0, 0.25]"
                )),
            }
        }
    }
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    all.extend(WORKLOADS.iter().map(|w| w.name));
    all.sort_unstable();
    if let Some(dup) = all.windows(2).find(|w| w[0] == w[1]) {
        errors.push(format!("name {} is used twice", dup[0]));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn bounds(benchmark_json: &str) -> Vec<(String, f64)> {
    Json::parse(benchmark_json)
        .and_then(|doc| {
            Some(
                doc.get("end_to_end")?
                    .as_arr()?
                    .iter()
                    .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.num("bound")?)))
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// The `BENCHMARK.json` text these tables describe.
#[cfg(test)]
fn render(
    command: &[&str],
    paths: &[&str],
    run_seconds: u32,
    bound: impl Fn(&str) -> f64,
) -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    let metric = |m: &Metric, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.into())),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(bound(m.name))));
        }
        Json::obj(fields)
    };
    let doc = Json::obj([
        ("command", strs(command)),
        ("paths", strs(paths)),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered() -> String {
        render(&["bash", "benchmark/run.sh"], &["benchmark"], 10, |_| 0.1)
    }

    #[test]
    fn tables_pass_their_own_check() {
        self_check(&rendered()).unwrap();
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert_eq!(bounds(&rendered()).len(), END_TO_END.len());
    }

    #[test]
    fn drift_between_file_and_harness_is_an_error() {
        let missing = rendered().replace(
            "{\"name\":\"obs.record_ns\",\"unit\":\"ns\",\"better\":\"lower\"},",
            "",
        );
        assert!(self_check(&missing)
            .unwrap_err()
            .contains("printed but not declared"));
        let extra = rendered().replace("\"obs.record_ns\"", "\"obs.other_ns\"");
        let err = self_check(&extra).unwrap_err();
        assert!(err.contains("declared but never printed") && err.contains("obs.record_ns"));
        let bad_name = rendered().replace("\"setup_s\"", "\"setup s\"");
        assert!(self_check(&bad_name)
            .unwrap_err()
            .contains("bad metric name"));
        let bad_unit = rendered().replace("\"unit\":\"MiB\"", "\"unit\":\"MB\"");
        assert!(self_check(&bad_unit).is_err());
        let renamed = rendered().replace("\"serve_hot\"", "\"serve_warm\"");
        assert!(self_check(&renamed)
            .unwrap_err()
            .contains("workloads declared"));
        assert!(self_check("{").is_err());
    }
}
