//! Criterion microbenchmarks for the α-net summary (Algorithm 1): build
//! cost across α (the space/time axis of Figure 1), query cost, and the
//! streaming push by chunk length (what the mask-major sweep amortizes
//! over: a one-row chunk is the old per-row walk).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_core::{FpConfig, FpNet};
use pfe_row::{Chunk, ColumnSet, Dataset};
use pfe_sketch::kmv::Kmv;
use pfe_stream::gen::{uniform_binary, uniform_qary};

const D: u32 = 12;

fn bench_build(c: &mut Criterion) {
    let data = uniform_binary(D, 1000, 1);
    let mut g = c.benchmark_group("alpha_net_build_d12_n1000");
    g.sample_size(10);
    for &alpha in &[0.15, 0.25, 0.35] {
        g.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |b, &alpha| {
            let net = AlphaNet::new(D, alpha).expect("valid");
            b.iter(|| {
                let s = AlphaNetF0::build(&data, net, NetMode::Full, 1 << 22, |mask| {
                    Kmv::new(64, mask)
                })
                .expect("build");
                black_box(s.num_sketches())
            })
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let data = uniform_binary(D, 1000, 2);
    let net = AlphaNet::new(D, 0.25).expect("valid");
    let summary = AlphaNetF0::build(&data, net, NetMode::Full, 1 << 22, |mask| {
        Kmv::new(64, mask)
    })
    .expect("build");
    let in_net = ColumnSet::from_indices(D, &[0, 1, 2]).expect("valid");
    let rounded = ColumnSet::from_indices(D, &[0, 2, 4, 6, 8, 10]).expect("valid");
    let mut g = c.benchmark_group("alpha_net_query");
    g.bench_function("in_net", |b| {
        b.iter(|| black_box(summary.f0(&in_net).expect("ok").estimate))
    });
    g.bench_function("rounded", |b| {
        b.iter(|| black_box(summary.f0(&rounded).expect("ok").estimate))
    });
    g.finish();
}

/// One id = a fresh net plus 4096 rows pushed `chunk` rows at a time.
fn bench_chunk_push(c: &mut Criterion) {
    const ROWS: usize = 4096;
    // F0/KMV over d = 12 binary rows at the engine's α and k: 598 members,
    // every domain (<= 4096) inside the histogram path at chunk 4096.
    let Dataset::Binary(binary) = uniform_binary(D, ROWS, 3) else {
        unreachable!("generator yields binary data");
    };
    let net = AlphaNet::new(D, 0.25).expect("valid");
    let mut g = c.benchmark_group("alpha_net_f0_push_d12_n4096");
    g.sample_size(10);
    for chunk in [1, 512, 4096] {
        g.bench_with_input(BenchmarkId::new("chunk", chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                let mut s = AlphaNetF0::new_streaming(net, NetMode::Full, 1 << 22, |mask| {
                    Kmv::new(256, mask)
                })
                .expect("new");
                for rows in binary.rows().chunks(chunk) {
                    s.push_chunk(Chunk::Packed(rows));
                }
                black_box(s.num_sketches())
            })
        });
    }
    g.finish();

    // F2/AMS over d = 10, Q = 4 dense rows: 112 members, the 56 narrow
    // ones (<= 16 patterns) take each pattern once with its multiplicity.
    let Dataset::Qary(qary) = uniform_qary(4, 10, ROWS, 4) else {
        unreachable!("generator yields q-ary data");
    };
    let net = AlphaNet::new(10, 0.25).expect("valid");
    let mut g = c.benchmark_group("alpha_net_ams_push_d10_q4_n4096");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("chunk", 512), |b| {
        b.iter(|| {
            let cfg = FpConfig::with_orders([2.0]);
            let mut s = FpNet::new_streaming_qary(net, NetMode::Full, 1 << 22, 4, 2.0, &cfg, 0)
                .expect("new");
            for flat in qary.flat().chunks(512 * 10) {
                s.push_chunk(Chunk::Dense(flat));
            }
            black_box(s.num_sketches())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_chunk_push);
criterion_main!(benches);
