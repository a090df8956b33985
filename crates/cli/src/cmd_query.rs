//! `pfe query` and `pfe stats` — answer statistics against a checkpoint.
//!
//! Requests are the wire protocol's query objects (`docs/PROTOCOL.md`):
//! built from flags for the common case, or passed raw via `--json` /
//! `--batch FILE` for full control. Answers print one JSON object per
//! line in request order, exactly as the server would send them.

use std::collections::BTreeMap;
use std::sync::Arc;

use pfe_engine::wire::{answer_to_json, query_from_json, stats_to_json};
use pfe_engine::{Json, Query, Recorder, TraceHandle};
use pfe_window::Backend;

use crate::args::{engine_config, Args};

/// Build one wire-protocol query object from the `--op`-style flags.
fn query_json_from_flags(args: &Args) -> Result<Json, String> {
    let op = args.value("--op").ok_or(
        "usage: pfe query SNAP --op f0|frequency|heavy_hitters|l1_sample|fp --cols 0,1,2 \
         [--pattern ..] [--phi ..] [--k ..] [--p ..] | --json '{..}' | --batch FILE",
    )?;
    let mut obj: BTreeMap<String, Json> = BTreeMap::new();
    obj.insert("op".into(), Json::Str(op.to_string()));
    if let Some(cols) = args.value("--cols") {
        let nums: Result<Vec<Json>, String> = cols
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<u32>()
                    .map(|v| Json::Num(v as f64))
                    .map_err(|_| format!("--cols: cannot parse {c:?}"))
            })
            .collect();
        obj.insert("cols".into(), Json::Arr(nums?));
    }
    if let Some(pat) = args.value("--pattern") {
        let nums: Result<Vec<Json>, String> = pat
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<u16>()
                    .map(|v| Json::Num(v as f64))
                    .map_err(|_| format!("--pattern: cannot parse {c:?}"))
            })
            .collect();
        obj.insert("pattern".into(), Json::Arr(nums?));
    }
    if let Some(phi) = args.parse::<f64>("--phi")? {
        obj.insert("phi".into(), Json::Num(phi));
    }
    if let Some(k) = args.parse::<u64>("--k")? {
        obj.insert("k".into(), Json::Num(k as f64));
    }
    if let Some(p) = args.parse::<f64>("--p")? {
        obj.insert("p".into(), Json::Num(p));
    }
    if let Some(seed) = args.parse::<u64>("--sample-seed")? {
        obj.insert("seed".into(), Json::Num(seed as f64));
    }
    if let Some(w) = args.parse::<u64>("--window")? {
        obj.insert("window".into(), Json::Num(w as f64));
    }
    if args.present("--exact") {
        obj.insert("exact".into(), Json::Bool(true));
    }
    if args.present("--bypass-cache") {
        obj.insert("bypass_cache".into(), Json::Bool(true));
    }
    Ok(Json::Obj(obj))
}

fn requests(args: &Args) -> Result<Vec<Json>, String> {
    if let Some(raw) = args.value("--json") {
        return Ok(vec![Json::parse(raw).map_err(|e| format!("--json: {e}"))?]);
    }
    if let Some(path) = args.value("--batch") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--batch {path}: {e}"))?;
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            out.push(Json::parse(line).map_err(|e| format!("--batch {path} line {}: {e}", i + 1))?);
        }
        if out.is_empty() {
            return Err(format!("--batch {path}: no requests"));
        }
        return Ok(out);
    }
    Ok(vec![query_json_from_flags(args)?])
}

/// `pfe query SNAP ...`: parse requests, resume the checkpoint, answer
/// in order. Exit 1 if any individual answer failed.
pub fn query(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [snap] = pos[..] else {
        return Err("usage: pfe query SNAP --op OP --cols 0,1,2 [...]".into());
    };
    let reqs = requests(args)?;
    let queries: Vec<Query> = reqs
        .iter()
        .map(query_from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad query: {e}"))?;
    let ecfg = engine_config(args)?;
    let backend = Backend::resume(snap, ecfg, Arc::new(Recorder::new()))
        .map_err(|e| format!("{snap}: {e}"))?;
    let q = backend.alphabet();
    // A one-shot process has no `trace` op to read spans back through.
    let results = backend.query_batch_traced(&queries, &TraceHandle::disabled());
    let mut code = 0;
    for result in results {
        match result {
            Ok(answer) => println!("{}", answer_to_json(&answer, q)),
            Err(e) => {
                println!(
                    "{}",
                    Json::obj([
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(e.to_string())),
                    ])
                );
                code = 1;
            }
        }
    }
    Ok(code)
}

/// `pfe stats SNAP`: the engine-counter object for a checkpoint, same
/// schema as the server's `stats` op.
pub fn stats(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [snap] = pos[..] else {
        return Err("usage: pfe stats SNAP [engine flags]".into());
    };
    let ecfg = engine_config(args)?;
    let backend = Backend::resume(snap, ecfg, Arc::new(Recorder::new()))
        .map_err(|e| format!("{snap}: {e}"))?;
    println!("{}", stats_to_json(&backend.stats()));
    Ok(0)
}
