//! The wire protocol: canonical `pfe-query` types ⇄ line-delimited JSON.
//!
//! One definition drives everything — the server dispatcher parses requests
//! with [`query_from_json`] and serializes answers with
//! [`answer_to_json`], so the Rust API, the cache keys, and the wire
//! protocol can never drift apart. The statistic op names are
//! [`StatKind::name`](pfe_query::StatKind::name) (`f0`, `frequency`,
//! `heavy_hitters`, `l1_sample`, `fp`); per-query options travel as
//! optional fields (`epoch`, `bypass_cache`, `exact`, `seed`).
//!
//! ```
//! use pfe_engine::{wire, Json};
//! use pfe_query::Statistic;
//!
//! let req = Json::parse(r#"{"op":"heavy_hitters","cols":[0,2],"phi":0.1}"#).unwrap();
//! let query = wire::query_from_json(&req).unwrap();
//! assert_eq!(query.cols, vec![0, 2]);
//! assert_eq!(query.statistic, Statistic::HeavyHitters { phi: 0.1 });
//! ```

use pfe_query::{Answer, AnswerValue, Query};
use pfe_row::PatternCodec;

use crate::json::Json;

/// `x` as a nonnegative integer no larger than `max` — the one place the
/// wire decides what counts as an integer.
fn uint_up_to(x: &Json, max: f64) -> Option<f64> {
    x.as_f64()
        .filter(|&f| f >= 0.0 && f.fract() == 0.0 && f <= max)
}

/// Parse an array of nonnegative integers fitting `u32` (e.g. a `cols`
/// field).
///
/// # Errors
/// A message naming the malformed element.
fn u32s(v: Option<&Json>) -> Result<Vec<u32>, String> {
    v.and_then(Json::as_arr)
        .ok_or_else(|| "expected an array of numbers".to_string())?
        .iter()
        .map(|x| {
            uint_up_to(x, (u32::MAX - 1) as f64)
                .map(|f| f as u32)
                .ok_or_else(|| "expected a nonnegative integer".to_string())
        })
        .collect()
}

/// Parse an array of symbols fitting `u16` (e.g. a `pattern` field).
///
/// # Errors
/// A message naming the malformed element.
fn u16s(v: Option<&Json>) -> Result<Vec<u16>, String> {
    u32s(v)?
        .into_iter()
        .map(|x| u16::try_from(x).map_err(|_| format!("symbol {x} exceeds u16 range")))
        .collect()
}

/// Parse an `ingest` request's `rows` — an array of `d`-symbol arrays —
/// into one flat row-major chunk, the unit every engine ingests. Arity
/// and symbol range are checked here, row by row, so the caller can
/// reject the whole request before anything is routed.
///
/// # Errors
/// A message naming the malformed row.
pub fn dense_rows(rows: &[Json], d: usize) -> Result<Vec<u16>, String> {
    let mut flat = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let symbols = row
            .as_arr()
            .filter(|symbols| symbols.len() == d)
            .ok_or_else(|| format!("row {i}: expected an array of d = {d} symbols"))?;
        for x in symbols {
            let symbol = uint_up_to(x, u16::MAX as f64)
                .ok_or_else(|| format!("row {i}: symbols must be integers in 0..=65535"))?;
            flat.push(symbol as u16);
        }
    }
    Ok(flat)
}

/// Read an optional field that must be a nonnegative integer: `Ok(None)`
/// when absent or `null`.
///
/// # Errors
/// A message naming `field` when the value is fractional, negative, or
/// not a number.
pub fn uint(req: &Json, field: &str) -> Result<Option<u64>, String> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => uint_up_to(v, u64::MAX as f64)
            .map(|f| Some(f as u64))
            .ok_or_else(|| format!("'{field}' must be a nonnegative integer")),
    }
}

fn flag(req: &Json, field: &str) -> Result<bool, String> {
    match req.get(field) {
        None | Some(Json::Null) | Some(Json::Bool(false)) => Ok(false),
        Some(Json::Bool(true)) => Ok(true),
        Some(_) => Err(format!("'{field}' must be a boolean")),
    }
}

/// A request object reads a closed set of fields: a key of `obj` that
/// `known` rejects is an error naming it (`unknown '<what>' field '<key>'`),
/// never a parameter silently served at its default.
///
/// # Errors
/// The first unknown key, or `obj` not being an object.
pub fn known_fields(obj: &Json, what: &str, known: impl Fn(&str) -> bool) -> Result<(), String> {
    let Json::Obj(map) = obj else {
        return Err(format!("'{what}' must be an object"));
    };
    match map.keys().find(|k| !known(k)) {
        Some(k) => Err(format!("unknown '{what}' field '{k}'")),
        None => Ok(()),
    }
}

/// Fields every statistic request may carry beside its own payload:
/// the op, the projection, the transport's `trace`, and the per-query
/// options.
pub const COMMON_FIELDS: &[&str] = &[
    "op",
    "cols",
    "trace",
    "seed",
    "epoch",
    "bypass_cache",
    "exact",
    "window",
];

/// Parse one statistic request object into a [`Query`].
///
/// The object's `op` must be a
/// [`StatKind::name`](pfe_query::StatKind::name); `cols` is required;
/// the op's own payload (`pattern` | `phi` | `k` | `p`) and the options
/// (`epoch`, `bypass_cache`, `exact`, `seed`, `window`) are read from
/// sibling fields. That set is closed: a field outside it — a misspelt
/// option, another op's payload — is an error naming it, never a value
/// silently served at its default. A `window` field asks for the most
/// recent `window` rows and is honored by a windowed engine (a plain
/// engine returns a typed error).
///
/// # Errors
/// A human-readable message naming the malformed field.
pub fn query_from_json(req: &Json) -> Result<Query, String> {
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing 'op'".to_string())?;
    let builder = Query::over(u32s(req.get("cols"))?);
    let number = |field: &str| {
        req.get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing '{field}'"))
    };
    let (mut query, payload) = match op {
        "f0" => (builder.f0(), None),
        "frequency" => (
            builder.frequency(u16s(req.get("pattern"))?),
            Some("pattern"),
        ),
        "heavy_hitters" => (builder.heavy_hitters(number("phi")?), Some("phi")),
        "l1_sample" => {
            let k = uint(req, "k")?.ok_or_else(|| "missing 'k'".to_string())?;
            (builder.l1_sample(k as usize), Some("k"))
        }
        "fp" => (builder.fp(number("p")?), Some("p")),
        other => return Err(format!("unknown statistic op '{other}'")),
    };
    known_fields(req, op, |k| {
        COMMON_FIELDS.contains(&k) || Some(k) == payload
    })?;
    if let Some(seed) = uint(req, "seed")? {
        query = query.with_seed(seed);
    }
    if let Some(epoch) = uint(req, "epoch")? {
        query = query.pinned_to(epoch);
    }
    if flag(req, "bypass_cache")? {
        query = query.bypass_cache();
    }
    if flag(req, "exact")? {
        query = query.exact_if_available();
    }
    if let Some(last_n) = uint(req, "window")? {
        query = query.window(last_n);
    }
    Ok(query)
}

fn indices_json(cols: &pfe_row::ColumnSet) -> Json {
    Json::Arr(
        cols.to_indices()
            .into_iter()
            .map(|i| Json::Num(i as f64))
            .collect(),
    )
}

fn pattern_json(codec: &PatternCodec, key: pfe_row::PatternKey) -> Json {
    Json::Arr(
        codec
            .decode(key)
            .into_iter()
            .map(|s| Json::Num(s as f64))
            .collect(),
    )
}

/// Serialize one [`Answer`] (computed over alphabet `q`) as a response
/// object: the statistic payload plus the guarantee, rounded-mask
/// provenance, snapshot epoch, and cache/cost metadata.
pub fn answer_to_json(answer: &Answer, q: u32) -> Json {
    let mut fields: Vec<(&'static str, Json)> = vec![("ok", Json::Bool(true))];
    match &answer.value {
        AnswerValue::F0 { estimate } => {
            fields.push(("estimate", Json::Num(*estimate)));
        }
        AnswerValue::Frequency {
            estimate,
            upper_bound,
        } => {
            fields.push(("estimate", Json::Num(*estimate)));
            fields.push((
                "upper_bound",
                upper_bound.map(Json::Num).unwrap_or(Json::Null),
            ));
        }
        AnswerValue::HeavyHitters { hitters } => {
            let codec = PatternCodec::new(q, answer.provenance.requested.len())
                .expect("codec validated when the answer was computed");
            fields.push((
                "hitters",
                Json::Arr(
                    hitters
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("pattern", pattern_json(&codec, h.key)),
                                ("estimate", Json::Num(h.estimate)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        AnswerValue::L1Sample { patterns } => {
            let codec = PatternCodec::new(q, answer.provenance.requested.len())
                .expect("codec validated when the answer was computed");
            fields.push((
                "patterns",
                Json::Arr(
                    patterns
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("pattern", pattern_json(&codec, p.key)),
                                ("probability", Json::Num(p.probability)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        AnswerValue::Fp { estimate } => {
            fields.push(("estimate", Json::Num(*estimate)));
        }
    }
    fields.push((
        "guarantee",
        Json::obj([
            ("alpha", Json::Num(answer.guarantee.alpha)),
            ("epsilon", Json::Num(answer.guarantee.epsilon)),
            ("source", Json::Str(answer.guarantee.source.name().into())),
        ]),
    ));
    fields.push(("answered_on", indices_json(&answer.provenance.answered_on)));
    fields.push(("sym_diff", Json::Num(answer.provenance.sym_diff as f64)));
    fields.push(("epoch", Json::Num(answer.epoch as f64)));
    fields.push(("cached", Json::Bool(answer.cost.cached)));
    fields.push(("group_size", Json::Num(answer.cost.group_size as f64)));
    if let Some(id) = answer.trace_id {
        fields.push(("trace_id", Json::Str(pfe_obs::TraceContext::format_id(id))));
    }
    if let Some(w) = &answer.window {
        fields.push((
            "window",
            Json::obj([
                ("requested_rows", Json::Num(w.requested_rows as f64)),
                ("covered_rows", Json::Num(w.covered_rows as f64)),
                ("buckets", Json::Num(w.buckets as f64)),
                ("truncated", Json::Bool(w.truncated)),
            ]),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_query::{CostInfo, Guarantee, Provenance, Statistic};
    use pfe_row::ColumnSet;

    #[test]
    fn parses_every_statistic_with_options() {
        let q = query_from_json(&Json::parse(r#"{"op":"f0","cols":[0,3]}"#).unwrap()).unwrap();
        assert_eq!(q.statistic, Statistic::F0);
        assert_eq!(q.cols, vec![0, 3]);
        assert_eq!(q.options, Default::default());

        let q = query_from_json(
            &Json::parse(r#"{"op":"frequency","cols":[0,1],"pattern":[1,0]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            q.statistic,
            Statistic::Frequency {
                pattern: vec![1, 0]
            }
        );
        // The retired short aliases are unknown ops like any other.
        for (alias, rest) in [("freq", r#""pattern":[1,0]"#), ("hh", r#""phi":0.1"#)] {
            let req = Json::parse(&format!(r#"{{"op":"{alias}","cols":[0,1],{rest}}}"#)).unwrap();
            assert_eq!(
                query_from_json(&req),
                Err(format!("unknown statistic op '{alias}'"))
            );
        }

        let q = query_from_json(
            &Json::parse(
                r#"{"op":"heavy_hitters","cols":[2],"phi":0.25,"epoch":4,"bypass_cache":true}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(q.statistic, Statistic::HeavyHitters { phi: 0.25 });
        assert_eq!(q.options.pin_epoch, Some(4));
        assert!(q.options.bypass_cache);

        let q = query_from_json(
            &Json::parse(r#"{"op":"l1_sample","cols":[0],"k":16,"seed":7,"exact":true}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(q.statistic, Statistic::L1Sample { k: 16, seed: 7 });
        assert!(q.options.exact_if_available);

        let q =
            query_from_json(&Json::parse(r#"{"op":"fp","cols":[0,1],"p":1.5}"#).unwrap()).unwrap();
        assert_eq!(q.statistic, Statistic::Fp { p: 1.5 });

        // A window field travels on every statistic op.
        let q = query_from_json(&Json::parse(r#"{"op":"f0","cols":[0,1],"window":5000}"#).unwrap())
            .unwrap();
        assert_eq!(q.options.window, Some(5000));
        let q = query_from_json(
            &Json::parse(r#"{"op":"heavy_hitters","cols":[0],"phi":0.1,"window":100}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(q.options.window, Some(100));
    }

    #[test]
    fn rejects_malformed_requests() {
        for text in [
            r#"{"cols":[0]}"#,
            r#"{"op":"nope","cols":[0]}"#,
            r#"{"op":"f0"}"#,
            r#"{"op":"f0","cols":[-1]}"#,
            r#"{"op":"heavy_hitters","cols":[0]}"#,
            r#"{"op":"l1_sample","cols":[0]}"#,
            r#"{"op":"fp","cols":[0]}"#,
            r#"{"op":"fp","cols":[0],"p":"two"}"#,
            r#"{"op":"f0","cols":[0],"epoch":1.5}"#,
            r#"{"op":"f0","cols":[0],"bypass_cache":1}"#,
            r#"{"op":"f0","cols":[0],"window":-3}"#,
        ] {
            let req = Json::parse(text).expect("valid json");
            assert!(query_from_json(&req).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn statistic_requests_read_a_closed_set_of_fields() {
        let parse = |text: &str| query_from_json(&Json::parse(text).expect("valid json"));
        // Everything the set holds, on one request.
        assert!(parse(
            r#"{"op":"l1_sample","cols":[0],"k":4,"seed":7,"epoch":null,"bypass_cache":true,
                "exact":false,"window":100,"trace":"ab12"}"#
        )
        .is_ok());
        for (text, op, field) in [
            (r#"{"op":"f0","cols":[0,1],"windw":1000}"#, "f0", "windw"),
            (r#"{"op":"f0","cols":[0,1],"exat":true}"#, "f0", "exat"),
            (
                r#"{"op":"fp","cols":[0],"p":2,"bypas_cache":true}"#,
                "fp",
                "bypas_cache",
            ),
            // Another op's payload is as unknown as a typo.
            (r#"{"op":"f0","cols":[0],"phi":0.1}"#, "f0", "phi"),
            (
                r#"{"op":"heavy_hitters","cols":[0],"phi":0.1,"k":4}"#,
                "heavy_hitters",
                "k",
            ),
            (
                r#"{"op":"frequency","cols":[0],"pattern":[1],"p":2}"#,
                "frequency",
                "p",
            ),
            (
                r#"{"op":"l1_sample","cols":[0],"k":4,"pattern":[1]}"#,
                "l1_sample",
                "pattern",
            ),
        ] {
            assert_eq!(
                parse(text),
                Err(format!("unknown '{op}' field '{field}'")),
                "{text}"
            );
        }
    }

    #[test]
    fn answer_serialization_carries_guarantee_and_provenance() {
        let requested = ColumnSet::from_indices(8, &[0, 1, 4]).expect("valid");
        let answered_on = ColumnSet::from_indices(8, &[0, 1]).expect("valid");
        let answer = Answer {
            value: AnswerValue::F0 { estimate: 12.0 },
            guarantee: Guarantee {
                alpha: 2.5,
                epsilon: 0.0,
                source: pfe_query::GuaranteeSource::AlphaNet,
            },
            provenance: Provenance {
                requested,
                answered_on,
                sym_diff: 1,
            },
            epoch: 3,
            cost: CostInfo {
                cached: true,
                group_size: 2,
            },
            window: None,
            trace_id: None,
        };
        let json = answer_to_json(&answer, 2);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("estimate").and_then(Json::as_f64), Some(12.0));
        let g = json.get("guarantee").expect("guarantee travels");
        assert_eq!(g.get("alpha").and_then(Json::as_f64), Some(2.5));
        assert_eq!(g.get("source").and_then(Json::as_str), Some("alpha_net"));
        assert_eq!(
            json.get("answered_on")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(json.get("sym_diff").and_then(Json::as_f64), Some(1.0));
        assert_eq!(json.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(json.get("group_size").and_then(Json::as_f64), Some(2.0));
        // Unwindowed answers carry no window object…
        assert!(json.get("window").is_none());
        // …windowed answers serialize their realized coverage.
        let windowed = Answer {
            window: Some(pfe_query::WindowCoverage {
                requested_rows: 1000,
                covered_rows: 1200,
                buckets: 3,
                truncated: false,
            }),
            ..answer
        };
        let json_w = answer_to_json(&windowed, 2);
        let w = json_w.get("window").expect("coverage travels");
        assert_eq!(w.get("requested_rows").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(w.get("covered_rows").and_then(Json::as_f64), Some(1200.0));
        assert_eq!(w.get("buckets").and_then(Json::as_f64), Some(3.0));
        assert_eq!(w.get("truncated"), Some(&Json::Bool(false)));
        // Untraced answers carry no trace_id field at all (wire parity);
        // traced answers echo the id as 32 hex digits.
        assert!(json_w.get("trace_id").is_none());
        let traced = Answer {
            trace_id: Some(0xab),
            ..windowed
        };
        assert_eq!(
            answer_to_json(&traced, 2)
                .get("trace_id")
                .and_then(Json::as_str),
            Some(format!("{:032x}", 0xab).as_str())
        );
        // The output is valid, re-parseable JSON.
        assert_eq!(Json::parse(&json_w.to_string()).expect("reparse"), json_w);
    }
}
