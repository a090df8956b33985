//! Engine benchmarks: ingest throughput scaling with shard count, and
//! query latency with and without the answer cache.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfe_engine::{Engine, EngineConfig, Query};
use pfe_stream::gen::uniform_binary;

const D: u32 = 12;
const ROWS: usize = 20_000;

fn cfg(shards: usize, cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        shards,
        kmv_k: 64,
        sample_t: 1024,
        batch_rows: 256,
        cache_capacity,
        ..Default::default()
    }
}

fn bench_ingest_scaling(c: &mut Criterion) {
    let data = uniform_binary(D, ROWS, 1);
    let mut g = c.benchmark_group("engine_ingest_d12_n20000");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ROWS as u64));
    for &shards in &[1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let engine = Engine::start(D, 2, cfg(shards, 0)).expect("start");
                    engine.ingest(&data).expect("ingest");
                    let snap = engine.shutdown().expect("shutdown");
                    black_box(snap.n())
                })
            },
        );
    }
    g.finish();
}

/// One-row chunks vs one whole-stream `push_packed_batch` call: same shard
/// partitioning and channel chunking, with the engine's pipeline lock,
/// validation, and router bookkeeping taken once per slice instead of
/// once per row (20k lock acquisitions vs 1 here). Note: on a 1-core box
/// the shard workers serialize with the router and bounded-channel
/// backpressure hides the router-side saving — like the shard-count
/// scaling group above, read the comparison on multi-core hardware.
fn bench_ingest_batch_api(c: &mut Criterion) {
    let rows: Vec<u64> = match uniform_binary(D, ROWS, 5) {
        pfe_row::Dataset::Binary(m) => m.rows().to_vec(),
        pfe_row::Dataset::Qary(_) => unreachable!("generator yields binary data"),
    };
    let mut g = c.benchmark_group("engine_ingest_api_d12_n20000");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("push_packed_one_row_chunks", |b| {
        b.iter(|| {
            let engine = Engine::start(D, 2, cfg(4, 0)).expect("start");
            for &row in &rows {
                engine.push_packed_batch(&[row]).expect("push");
            }
            let snap = engine.shutdown().expect("shutdown");
            black_box(snap.n())
        })
    });
    g.bench_function("push_packed_batch", |b| {
        b.iter(|| {
            let engine = Engine::start(D, 2, cfg(4, 0)).expect("start");
            engine.push_packed_batch(&rows).expect("push");
            let snap = engine.shutdown().expect("shutdown");
            black_box(snap.n())
        })
    });
    g.finish();
}

fn bench_query_latency(c: &mut Criterion) {
    let data = uniform_binary(D, ROWS, 2);
    let make = |cache_capacity| {
        let engine = Engine::start(D, 2, cfg(4, cache_capacity)).expect("start");
        engine.ingest(&data).expect("ingest");
        engine.refresh().expect("refresh");
        engine
    };
    // Mid-size queries (always rounded — the worst case for the net path).
    let reqs: Vec<Query> = (0..16u32)
        .map(|i| Query::over((0..6).map(|j| (i + j) % D)).f0())
        .collect();
    let mut g = c.benchmark_group("engine_query_f0");
    g.throughput(Throughput::Elements(reqs.len() as u64));
    let uncached = make(0);
    g.bench_function("uncached", |b| {
        b.iter(|| {
            for req in &reqs {
                black_box(uncached.query(req).expect("ok"));
            }
        })
    });
    let cached = make(4096);
    // Warm the cache once.
    for req in &reqs {
        cached.query(req).expect("ok");
    }
    g.bench_function("cached", |b| {
        b.iter(|| {
            for req in &reqs {
                black_box(cached.query(req).expect("ok"));
            }
        })
    });
    g.finish();

    // Heavy hitters scan the whole merged sample per query — the case the
    // answer cache exists for (F0 above is a near-free hash lookup either
    // way; the comparison shows the cache's fixed cost honestly).
    let hh_reqs: Vec<Query> = (0..8u32)
        .map(|i| Query::over((0..4).map(|j| (i + j) % D)).heavy_hitters(0.05))
        .collect();
    let mut g = c.benchmark_group("engine_query_hh");
    g.throughput(Throughput::Elements(hh_reqs.len() as u64));
    let uncached = make(0);
    g.bench_function("uncached", |b| {
        b.iter(|| {
            for req in &hh_reqs {
                black_box(uncached.query(req).expect("ok"));
            }
        })
    });
    let cached = make(4096);
    for req in &hh_reqs {
        cached.query(req).expect("ok");
    }
    g.bench_function("cached", |b| {
        b.iter(|| {
            for req in &hh_reqs {
                black_box(cached.query(req).expect("ok"));
            }
        })
    });
    g.finish();
}

fn bench_snapshot_refresh(c: &mut Criterion) {
    let data = uniform_binary(D, ROWS, 3);
    let mut g = c.benchmark_group("engine_snapshot");
    g.sample_size(10);
    for &shards in &[1usize, 4] {
        let engine = Engine::start(D, 2, cfg(shards, 0)).expect("start");
        engine.ingest(&data).expect("ingest");
        g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| {
                let snap = engine.refresh().expect("refresh");
                black_box(snap.epoch())
            })
        });
    }
    g.finish();
}

fn bench_mixed_serving(c: &mut Criterion) {
    // The serving mix of `subspace_explorer`: mostly repeated F0 probes of
    // nearby subsets plus some frequency lookups.
    let data = uniform_binary(D, ROWS, 4);
    let engine = Engine::start(D, 2, cfg(4, 4096)).expect("start");
    engine.ingest(&data).expect("ingest");
    engine.refresh().expect("refresh");
    let mut reqs = Vec::new();
    for i in 0..32u32 {
        reqs.push(Query::over((0..5).map(|j| (i % 8 + j) % D)).f0());
        if i % 4 == 0 {
            reqs.push(Query::over([0, 1, 2]).frequency(vec![(i % 2) as u16, 0, 1]));
        }
    }
    let mut g = c.benchmark_group("engine_mixed_batch");
    g.throughput(Throughput::Elements(reqs.len() as u64));
    g.bench_function("batch40", |b| {
        b.iter(|| {
            let answers = engine.query_batch(&reqs);
            let ok = answers.iter().filter(|a| a.is_ok()).count();
            black_box(ok)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ingest_scaling,
    bench_ingest_batch_api,
    bench_query_latency,
    bench_snapshot_refresh,
    bench_mixed_serving
);
criterion_main!(benches);
