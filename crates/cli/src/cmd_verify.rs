//! `pfe verify` — prove, on a concrete file, that the columnar file
//! path and the Rust batch API produce bit-identical answers.
//!
//! Side A ingests the file through [`pfe_ingest::FileIngester`]; side B
//! re-reads it with an independent `String`-based parser and pushes the
//! rows through `push_packed_batch` / `push_dense_batch`. A probe
//! battery covering every statistic must agree exactly — value *and*
//! guarantee — or the command exits 1. `scripts/guide_smoke.sh` runs
//! this against generated data on every CI pass.

use std::io::BufRead;

use pfe_engine::{Engine, Json, Query};
use pfe_ingest::{FileIngester, IngestError, IngestOptions};

use crate::args::{engine_config, ingest_options, Args};

fn delim_for(opts: &IngestOptions, path: &str) -> char {
    match opts.delimiter {
        Some(d) => d as char,
        None => {
            let lower = path.to_ascii_lowercase();
            if lower.ends_with(".tsv") || lower.ends_with(".tab") {
                '\t'
            } else {
                ','
            }
        }
    }
}

/// Independent reference parse: `String` splitting, quote stripping,
/// `str::parse` — nothing shared with the byte-level columnar parser.
fn naive_rows(path: &str, opts: &IngestOptions) -> Result<Vec<Vec<u16>>, String> {
    let delim = delim_for(opts, path);
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Vec::new();
    let mut skip_header = opts.has_header;
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{path}: {e}"))?;
        if skip_header {
            skip_header = false;
            continue;
        }
        let line = line.strip_suffix('\r').unwrap_or(&line);
        let row: Result<Vec<u16>, String> = line
            .split(delim)
            .map(|f| {
                let f = f
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .unwrap_or(f);
                f.parse::<u16>().map_err(|_| format!("bad field {f:?}"))
            })
            .collect();
        rows.push(row?);
    }
    Ok(rows)
}

/// One probe of each statistic, shaped to the stream's dimension.
fn battery(d: u32) -> Vec<Query> {
    let lead: Vec<u32> = (0..d.min(6)).collect();
    let mut probes = vec![
        Query::over(lead.clone()).f0(),
        Query::over([0]).f0(),
        Query::over((0..d.min(2)).collect::<Vec<_>>()).frequency(vec![1; d.min(2) as usize]),
        Query::over((0..d.min(3)).collect::<Vec<_>>()).heavy_hitters(0.05),
        Query::over(lead).l1_sample(8),
    ];
    if d >= 4 {
        probes.push(Query::over([1, 3]).f0());
    }
    probes
}

/// `pfe verify FILE [file-shape flags] [engine flags]`.
pub fn verify(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [file] = pos[..] else {
        return Err("usage: pfe verify FILE [file-shape flags] [engine flags]".into());
    };
    let ecfg = engine_config(args)?;
    let opts = ingest_options(args)?;

    // Side A: the file, through the chunked columnar ingester.
    let factory_cfg = ecfg.clone();
    let (engine_a, report) = FileIngester::new(opts.clone())
        .ingest_path_with(file, move |schema| {
            Engine::start(schema.dimension(), schema.alphabet, factory_cfg)
                .map_err(|e| IngestError::Sink(e.to_string()))
        })
        .map_err(|e| e.to_string())?;
    if report.rejected > 0 {
        return Err(format!(
            "verify needs a clean file: {} rows were rejected",
            report.rejected
        ));
    }

    // Side B: an independent parse, pushed through the batch API.
    let rows = naive_rows(file, &opts)?;
    if rows.len() as u64 != report.rows {
        return Err(format!(
            "row-count disagreement: columnar read {}, reference read {}",
            report.rows,
            rows.len()
        ));
    }
    let (d, q) = (report.schema.dimension(), report.schema.alphabet);
    let engine_b = Engine::start(d, q, ecfg).map_err(|e| e.to_string())?;
    if report.schema.packed() {
        let packed: Vec<u64> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &v)| acc | ((v as u64) << i))
            })
            .collect();
        engine_b
            .push_packed_batch(&packed)
            .map_err(|e| e.to_string())?;
    } else {
        let flat: Vec<u16> = rows.concat();
        engine_b
            .push_dense_batch(&flat)
            .map_err(|e| e.to_string())?;
    }

    engine_a.refresh().map_err(|e| e.to_string())?;
    engine_b.refresh().map_err(|e| e.to_string())?;
    let probes = battery(d);
    for probe in &probes {
        let a = engine_a.query(probe).map_err(|e| e.to_string())?;
        let b = engine_b.query(probe).map_err(|e| e.to_string())?;
        if a.value != b.value || a.guarantee != b.guarantee {
            println!(
                "{}",
                Json::obj([
                    ("ok", Json::Bool(false)),
                    ("mismatch", Json::Str(format!("{probe:?}"))),
                ])
            );
            return Ok(1);
        }
    }
    engine_a.shutdown().ok();
    engine_b.shutdown().ok();
    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(true)),
            ("rows", Json::Num(report.rows as f64)),
            ("queries", Json::Num(probes.len() as f64)),
            ("packed", Json::Bool(report.schema.packed())),
        ])
    );
    Ok(0)
}
