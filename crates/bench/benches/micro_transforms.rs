//! Criterion micro-benchmarks of the building blocks: 1-D transforms, the
//! multi-dimensional HN transform on the lane-execution engine, the two
//! publishers, and the prefix-sum query engine. These back the O(n + m)
//! complexity claims of §IV–§VI with per-component numbers.
//!
//! The `hn_scaling` group measures the full HN forward+inverse pipeline at
//! n = 2^16 … 2^20 cells, so the engine's near-linear scaling is directly
//! visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use privelet::mechanism::{publish_basic, publish_privelet, PriveletConfig};
use privelet::transform::{HaarTransform, HnTransform, NominalTransform, Transform1d};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::{uniform, FrequencyMatrix};
use privelet_hierarchy::builder::three_level;
use privelet_matrix::{LaneExecutor, NdMatrix, PrefixSums};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

fn bench_haar(c: &mut Criterion) {
    let t = HaarTransform::new(1 << 16);
    let src: Vec<f64> = (0..1 << 16).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![0.0f64; t.output_len()];
    let mut scratch = vec![0.0f64; t.scratch_len()];
    c.bench_function("haar_forward_64k", |b| {
        b.iter(|| t.forward(black_box(&src), &mut dst, &mut scratch))
    });
    let mut back = vec![0.0f64; 1 << 16];
    c.bench_function("haar_inverse_64k", |b| {
        b.iter(|| t.inverse(black_box(&dst), &mut back, &mut scratch))
    });
}

fn bench_nominal(c: &mut Criterion) {
    let h = Arc::new(three_level(512, 22).unwrap());
    let t = NominalTransform::new(h);
    let src: Vec<f64> = (0..512).map(|i| (i % 97) as f64).collect();
    let mut dst = vec![0.0f64; t.output_len()];
    let mut scratch = vec![0.0f64; t.scratch_len()];
    c.bench_function("nominal_forward_512", |b| {
        b.iter(|| t.forward(black_box(&src), &mut dst, &mut scratch))
    });
    let mut back = vec![0.0f64; 512];
    c.bench_function("nominal_inverse_512", |b| {
        b.iter(|| t.inverse(black_box(&dst), &mut back, &mut scratch))
    });
}

fn bench_hn(c: &mut Criterion) {
    // 64^3 = 262k cells: one ordinal, one nominal, one identity dim.
    let schema = Schema::new(vec![
        Attribute::ordinal("o", 64),
        Attribute::nominal("n", three_level(64, 8).unwrap()),
        Attribute::ordinal("s", 64),
    ])
    .unwrap();
    let hn = HnTransform::for_schema(&schema, &BTreeSet::from([2])).unwrap();
    let m = NdMatrix::from_vec(
        &[64, 64, 64],
        (0..64 * 64 * 64).map(|i| (i % 17) as f64).collect(),
    )
    .unwrap();
    let mut exec = LaneExecutor::new();
    c.bench_function("hn_forward_262k", |b| {
        b.iter(|| hn.forward_with(&mut exec, black_box(&m)).unwrap())
    });
    let coeffs = hn.forward(&m).unwrap();
    c.bench_function("hn_inverse_refined_262k", |b| {
        b.iter(|| {
            hn.inverse_refined_with(&mut exec, black_box(&coeffs))
                .unwrap()
        })
    });
}

/// The engine scaling sweep: full pipelines at n = 2^16 … 2^20 cells
/// over a 4-d mixed schema.
fn bench_hn_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hn_scaling");
    group.sample_size(10);
    for exp in [16u32, 18, 20] {
        // Fourth root per dimension: a^4 = 2^exp.
        let a = ((1usize << exp) as f64).powf(0.25).round() as usize;
        let schema = Schema::new(vec![
            Attribute::ordinal("o1", a),
            Attribute::ordinal("o2", a),
            Attribute::nominal("n1", three_level(a, (a / 4).max(2)).unwrap()),
            Attribute::ordinal("o3", a),
        ])
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let cells: usize = schema.dims().iter().product();
        let m = NdMatrix::from_vec(
            &schema.dims(),
            (0..cells).map(|i| ((i * 31) % 101) as f64).collect(),
        )
        .unwrap();

        let mut serial = LaneExecutor::new();
        group.bench_function(&format!("serial_2^{exp}"), |b| {
            b.iter(|| {
                let coeffs = hn.forward_with(&mut serial, black_box(&m)).unwrap();
                hn.inverse_refined_with(&mut serial, &coeffs).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_publishers(c: &mut Criterion) {
    let cfg = uniform::TimingConfig::with_total_cells(1 << 16, 50_000, 5);
    let table = uniform::generate(&cfg).unwrap();
    let fm = FrequencyMatrix::from_table(&table).unwrap();
    let mut group = c.benchmark_group("publish_64k_cells");
    group.sample_size(20);
    group.bench_function("basic", |b| {
        b.iter(|| publish_basic(black_box(&fm), 1.0, 3).unwrap())
    });
    group.bench_function("privelet_pure", |b| {
        b.iter(|| publish_privelet(black_box(&fm), &PriveletConfig::pure(1.0, 3)).unwrap())
    });
    group.finish();
}

fn bench_query_engine(c: &mut Criterion) {
    let m = NdMatrix::from_vec(
        &[128, 128, 64],
        (0..128 * 128 * 64).map(|i| (i % 5) as f64).collect(),
    )
    .unwrap();
    let mut group = c.benchmark_group("query_engine_1m_cells");
    group.sample_size(20);
    group.bench_function("prefix_build", |b| {
        b.iter_batched(
            || m.clone(),
            |mm| PrefixSums::build(&mm),
            BatchSize::LargeInput,
        )
    });
    let prefix = PrefixSums::build(&m);
    group.bench_function("prefix_rect_sum", |b| {
        b.iter(|| {
            prefix
                .rect_sum(black_box(&[5, 10, 3]), black_box(&[100, 90, 60]))
                .unwrap()
        })
    });
    group.bench_function("naive_rect_sum", |b| {
        b.iter(|| {
            privelet_matrix::rect_sum_naive(
                black_box(&m),
                black_box(&[5, 10, 3]),
                black_box(&[100, 90, 60]),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_haar,
    bench_nominal,
    bench_hn,
    bench_hn_scaling,
    bench_publishers,
    bench_query_engine
);
criterion_main!(benches);
