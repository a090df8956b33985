//! Criterion microbenchmarks for the sketch substrate: update and estimate
//! throughput for every α-net plug-in, the classical baselines, and the
//! uniform row reservoir.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfe_sketch::traits::{DistinctSketch, FrequencySketch, MomentSketch};
use pfe_sketch::{AmsF2, CountMin, CountSketch, Kmv, LinearCounting, Reservoir};

const N: u64 = 10_000;

fn bench_distinct(c: &mut Criterion) {
    let mut g = c.benchmark_group("distinct_insert");
    g.throughput(Throughput::Elements(N));
    g.bench_function("kmv_k256", |b| {
        b.iter(|| {
            let mut s = Kmv::new(256, 1);
            for i in 0..N {
                s.insert(black_box(i));
            }
            black_box(s.estimate())
        })
    });
    g.bench_function("linear_counting_8k", |b| {
        b.iter(|| {
            let mut s = LinearCounting::new(8192, 1);
            for i in 0..N {
                s.insert(black_box(i));
            }
            black_box(s.estimate())
        })
    });
    g.finish();
}

fn bench_frequency(c: &mut Criterion) {
    let mut g = c.benchmark_group("frequency_update");
    g.throughput(Throughput::Elements(N));
    g.bench_function("count_min_4x272", |b| {
        b.iter(|| {
            let mut s = CountMin::new(4, 272, 1);
            for i in 0..N {
                s.update(black_box(i % 100), 1);
            }
            black_box(s.estimate(7))
        })
    });
    g.bench_function("count_sketch_5x256", |b| {
        b.iter(|| {
            let mut s = CountSketch::new(5, 256, 1);
            for i in 0..N {
                s.update(black_box(i % 100), 1);
            }
            black_box(s.estimate(7))
        })
    });
    g.finish();
}

/// Algorithm R, the Theorem 5.1 row sampler (ledger id kept from the
/// retired `samplers` target).
fn bench_reservoir(c: &mut Criterion) {
    const STREAM: u64 = 100_000;
    let mut g = c.benchmark_group("reservoir_100k_stream_t64");
    g.throughput(Throughput::Elements(STREAM));
    g.bench_function("algorithm_r", |b| {
        b.iter(|| {
            let mut r = Reservoir::new(64, 1);
            for i in 0..STREAM {
                r.insert(black_box(i));
            }
            black_box(r.sample().len())
        })
    });
    g.finish();
}

fn bench_moments(c: &mut Criterion) {
    let mut g = c.benchmark_group("moment_update");
    let n = 1000u64; // AMS updates touch every estimator: keep streams short
    g.throughput(Throughput::Elements(n));
    g.bench_function("ams_f2_5x64", |b| {
        b.iter(|| {
            let mut s = AmsF2::new(5, 64, 1);
            for i in 0..n {
                s.update(black_box(i % 50), 1);
            }
            black_box(s.estimate())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distinct,
    bench_frequency,
    bench_moments,
    bench_reservoir
);
criterion_main!(benches);
