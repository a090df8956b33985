//! `pfe bench-ingest` — the columnar chunked path vs a naive
//! row-at-a-time loader, on a real file, end to end (parse + route +
//! drain). Prints one JSON object with MB/s for both and the speedup.

use std::io::BufRead;
use std::time::Instant;

use pfe_engine::{Engine, EngineConfig, Json};
use pfe_ingest::{FileIngester, IngestError, IngestOptions, Schema};

use crate::args::{engine_config, ingest_options, Args};

pub(crate) fn delim_for(opts: &IngestOptions, path: &str) -> char {
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

/// The baseline every streaming system starts from: buffered lines,
/// `split`, `str::parse`, one one-row `push_dense_batch` per row. Returns rows read.
pub(crate) fn naive_load(path: &str, opts: &IngestOptions, engine: &Engine) -> Result<u64, String> {
    let delim = delim_for(opts, path);
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let mut rows = 0u64;
    let mut skip_header = opts.has_header;
    for line in reader.lines() {
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
                let v: u16 = f.parse().map_err(|_| format!("bad field {f:?}"))?;
                if v as u32 >= opts.alphabet {
                    return Err(format!("{v} out of alphabet"));
                }
                Ok(v)
            })
            .collect();
        engine.push_dense_batch(&row?).map_err(|e| e.to_string())?;
        rows += 1;
    }
    Ok(rows)
}

fn start_engine(schema: &Schema, ecfg: &EngineConfig) -> Result<Engine, IngestError> {
    Engine::start(schema.dimension(), schema.alphabet, ecfg.clone())
        .map_err(|e| IngestError::Sink(e.to_string()))
}

fn side_json(bytes: u64, rows: u64, secs: f64) -> Json {
    Json::obj([
        ("secs", Json::Num(secs)),
        (
            "mb_per_sec",
            Json::Num(bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-12)),
        ),
        ("rows_per_sec", Json::Num(rows as f64 / secs.max(1e-12))),
    ])
}

/// `pfe bench-ingest FILE [--iters N]`: best-of-N wall time for each
/// path, engine drain included (`refresh` barriers the shard workers).
pub fn bench_ingest(args: &Args) -> Result<i32, String> {
    let pos = args.positionals();
    let [file] = pos[..] else {
        return Err(
            "usage: pfe bench-ingest FILE [--iters N] [file-shape flags] [engine flags]".into(),
        );
    };
    let iters: usize = args.parse("--iters")?.unwrap_or(3).max(1);
    let ecfg = engine_config(args)?;
    let opts = ingest_options(args)?;
    let bytes = std::fs::metadata(file)
        .map_err(|e| format!("{file}: {e}"))?
        .len();

    let mut columnar_best = f64::INFINITY;
    let mut schema: Option<Schema> = None;
    let mut rows = 0u64;
    for _ in 0..iters {
        let started = Instant::now();
        let ecfg = ecfg.clone();
        let (engine, report) = FileIngester::new(opts.clone())
            .ingest_path_with(file, move |s| start_engine(s, &ecfg))
            .map_err(|e| e.to_string())?;
        engine.refresh().map_err(|e| e.to_string())?;
        columnar_best = columnar_best.min(started.elapsed().as_secs_f64());
        rows = report.rows;
        schema = Some(report.schema.clone());
        engine.shutdown().ok();
    }
    let schema = schema.expect("at least one iteration ran");

    let mut naive_best = f64::INFINITY;
    for _ in 0..iters {
        let engine = Engine::start(schema.dimension(), schema.alphabet, ecfg.clone())
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let naive_rows = naive_load(file, &opts, &engine)?;
        engine.refresh().map_err(|e| e.to_string())?;
        naive_best = naive_best.min(started.elapsed().as_secs_f64());
        if naive_rows != rows {
            return Err(format!(
                "row-count disagreement: columnar read {rows}, naive read {naive_rows}"
            ));
        }
        engine.shutdown().ok();
    }

    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(true)),
            ("file", Json::Str(file.to_string())),
            ("bytes", Json::Num(bytes as f64)),
            ("rows", Json::Num(rows as f64)),
            ("iters", Json::Num(iters as f64)),
            ("columnar", side_json(bytes, rows, columnar_best)),
            ("row_at_a_time", side_json(bytes, rows, naive_best)),
            ("speedup", Json::Num(naive_best / columnar_best.max(1e-12))),
        ])
    );
    Ok(0)
}
