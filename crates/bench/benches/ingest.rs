//! File-ingest benchmarks: the columnar chunked path (`pfe-ingest`)
//! against the naive row-at-a-time loader it replaces, on real files,
//! with byte throughput so the MB/s lands in `BENCH_<date>.json`.
//!
//! Two axes:
//! - parse only (rows land in a `VecSink`) — isolates the byte-level
//!   columnar parser from engine routing;
//! - end to end (rows land in an engine, `refresh` barriers the shard
//!   workers) — the number an operator sees from `pfe bench-ingest`.

use std::hint::black_box;
use std::io::BufRead;
use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfe_engine::{Engine, EngineConfig};
use pfe_ingest::{FileIngester, IngestError, IngestOptions, VecSink};

const PARSE_D: u32 = 16;
const PARSE_ROWS: usize = 30_000;
// The end-to-end fixture is smaller: engine summary updates dominate
// beyond d=12 and would hide the parse-path comparison entirely.
const E2E_D: u32 = 12;
const E2E_ROWS: usize = 8_000;

fn cfg() -> EngineConfig {
    EngineConfig {
        batch_rows: 256,
        ..default_batch_cfg()
    }
}

/// [`cfg`] at the engine's own `batch_rows` / `channel_capacity`: what a
/// caller who sets no batching gets.
fn default_batch_cfg() -> EngineConfig {
    EngineConfig {
        shards: 4,
        kmv_k: 64,
        sample_t: 1024,
        ..Default::default()
    }
}

/// Write a benchmark CSV once per process; returns (path, bytes).
fn fixture(name: &str, d: u32, rows: usize) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("pfe-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    if !path.exists() {
        let mut text = (0..d)
            .map(|i| format!("c{i}"))
            .collect::<Vec<_>>()
            .join(",");
        text.push('\n');
        let mut state = 0x1234_5678_u64;
        for _ in 0..rows {
            state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xb5);
            let row = (state >> 17) & ((1 << d) - 1);
            let line: Vec<String> = (0..d).map(|i| ((row >> i) & 1).to_string()).collect();
            text.push_str(&line.join(","));
            text.push('\n');
        }
        std::fs::write(&path, text).expect("write fixture");
    }
    let bytes = std::fs::metadata(&path).expect("metadata").len();
    (path, bytes)
}

/// The baseline: buffered lines, `split`, `str::parse`, one one-row
/// chunk per row.
fn naive_rows(path: &std::path::Path, mut push: impl FnMut(&[u16])) -> u64 {
    let file = std::fs::File::open(path).expect("open");
    let mut rows = 0u64;
    let mut header = true;
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("read line");
        if header {
            header = false;
            continue;
        }
        let row: Vec<u16> = line.split(',').map(|f| f.parse().expect("digit")).collect();
        push(&row);
        rows += 1;
    }
    rows
}

fn bench_parse_only(c: &mut Criterion) {
    let (path, bytes) = fixture("parse.csv", PARSE_D, PARSE_ROWS);
    let mut g = c.benchmark_group(format!("file_parse_d{PARSE_D}_n{PARSE_ROWS}"));
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(BenchmarkId::from_parameter("columnar"), |b| {
        b.iter(|| {
            let (sink, report) = FileIngester::new(IngestOptions::default())
                .ingest_into(&path, VecSink::default())
                .expect("ingest");
            black_box((sink.packed.len(), report.rows))
        })
    });
    g.bench_function(BenchmarkId::from_parameter("row_at_a_time"), |b| {
        b.iter(|| {
            let mut out: Vec<u16> = Vec::new();
            let rows = naive_rows(&path, |r| out.extend_from_slice(r));
            black_box((out.len(), rows))
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let (path, bytes) = fixture("e2e.csv", E2E_D, E2E_ROWS);
    let mut g = c.benchmark_group(format!("file_ingest_engine_d{E2E_D}_n{E2E_ROWS}"));
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    for (id, cfg) in [
        ("columnar", cfg()),
        ("columnar_default_batch", default_batch_cfg()),
    ] {
        g.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| {
                let (engine, _) = FileIngester::new(IngestOptions::default())
                    .ingest_path_with(&path, |s| {
                        Engine::start(s.dimension(), s.alphabet, cfg.clone())
                            .map_err(|e| IngestError::Sink(e.to_string()))
                    })
                    .expect("ingest");
                let snap = engine.shutdown().expect("shutdown");
                black_box(snap.n())
            })
        });
    }
    g.bench_function(BenchmarkId::from_parameter("row_at_a_time"), |b| {
        b.iter(|| {
            let engine = Engine::start(E2E_D, 2, cfg()).expect("start");
            naive_rows(&path, |r| engine.push_dense_batch(r).expect("push"));
            let snap = engine.shutdown().expect("shutdown");
            black_box(snap.n())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parse_only, bench_end_to_end);
criterion_main!(benches);
