//! Criterion: overhead of the query observability layer.
//!
//! Three variants per structure: the plain `MetricIndex` path, the traced
//! path with [`NoTrace`] (must compile down to the plain path — this pair
//! is the "zero-cost when disabled" claim), and the traced path filling a
//! real [`QueryProfile`] (the price of a full per-query breakdown).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vantage_bench::{bench_queries, bench_vectors};
use vantage_core::prelude::*;
use vantage_core::MetricIndex;
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_vptree::{VpTree, VpTreeParams};

fn trace_overhead_range(c: &mut Criterion) {
    let points = bench_vectors(20_000);
    let queries = bench_queries();
    let vp = VpTree::build(points.clone(), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
    let mvp = MvpTree::build(points, Euclidean, MvpParams::paper(3, 80, 5).seed(1)).unwrap();
    let r = 0.3f64;

    let mut group = c.benchmark_group("trace_overhead_range_20k");
    group.bench_function("vpt2/untraced", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(vp.range(q, r));
            }
        })
    });
    group.bench_function("vpt2/no_trace_sink", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(vp.search(q, Query::Range(r), &mut NoTrace));
            }
        })
    });
    group.bench_function("vpt2/query_profile", |b| {
        b.iter(|| {
            for q in &queries {
                let mut profile = QueryProfile::new();
                black_box(vp.search(q, Query::Range(r), &mut profile));
                black_box(profile.total_distances());
            }
        })
    });
    group.bench_function("mvpt_3_80_5/untraced", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(mvp.range(q, r));
            }
        })
    });
    group.bench_function("mvpt_3_80_5/no_trace_sink", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(mvp.search(q, Query::Range(r), &mut NoTrace));
            }
        })
    });
    group.bench_function("mvpt_3_80_5/query_profile", |b| {
        b.iter(|| {
            for q in &queries {
                let mut profile = QueryProfile::new();
                black_box(mvp.search(q, Query::Range(r), &mut profile));
                black_box(profile.total_distances());
            }
        })
    });
    group.finish();
}

fn trace_overhead_knn(c: &mut Criterion) {
    let points = bench_vectors(20_000);
    let queries = bench_queries();
    let mvp = MvpTree::build(points, Euclidean, MvpParams::paper(3, 80, 5).seed(1)).unwrap();
    let k = 10usize;

    let mut group = c.benchmark_group("trace_overhead_knn_20k");
    group.bench_function("mvpt_3_80_5/untraced", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(mvp.knn(q, k));
            }
        })
    });
    group.bench_function("mvpt_3_80_5/query_profile", |b| {
        b.iter(|| {
            for q in &queries {
                let mut profile = QueryProfile::new();
                black_box(mvp.search(q, Query::Knn(k), &mut profile));
                black_box(profile.total_distances());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, trace_overhead_range, trace_overhead_knn);
criterion_main!(benches);
