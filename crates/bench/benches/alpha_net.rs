//! Criterion microbenchmarks for the α-net summary (Algorithm 1): build
//! cost across α (the space/time axis of Figure 1) and query cost.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_row::ColumnSet;
use pfe_sketch::kmv::Kmv;
use pfe_stream::gen::uniform_binary;

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

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
