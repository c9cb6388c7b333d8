//! Criterion: range and kNN query wall-clock latency for the two main
//! trees and the linear-scan baseline, and `KNN 10` over each row layout
//! a served mvp-tree can have.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vantage_bench::{bench_queries, bench_vectors};
use vantage_core::prelude::*;
use vantage_core::{F64Rows, MetricIndex, NoTrace, RowStore};
use vantage_datasets::{clustered_vectors, uniform_vectors, ClusteredConfig};
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist::{self as persist, F64Vectors};
use vantage_vptree::{VpTree, VpTreeParams};

fn range_queries(c: &mut Criterion) {
    let points = bench_vectors(20_000);
    let queries = bench_queries();
    let linear = LinearScan::new(points.clone(), Euclidean);
    let vp = VpTree::build(points.clone(), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
    let mvp = MvpTree::build(points, Euclidean, MvpParams::paper(3, 80, 5).seed(1)).unwrap();

    let mut group = c.benchmark_group("range_query_20k");
    for &r in &[0.2f64, 0.5] {
        group.bench_with_input(BenchmarkId::new("linear", r), &r, |b, &r| {
            b.iter(|| {
                for q in &queries {
                    black_box(linear.range(q, r));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("vpt2", r), &r, |b, &r| {
            b.iter(|| {
                for q in &queries {
                    black_box(vp.range(q, r));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("mvpt_3_80_5", r), &r, |b, &r| {
            b.iter(|| {
                for q in &queries {
                    black_box(mvp.range(q, r));
                }
            })
        });
    }
    group.finish();
}

fn knn_queries(c: &mut Criterion) {
    let points = bench_vectors(20_000);
    let queries = bench_queries();
    let linear = LinearScan::new(points.clone(), Euclidean);
    let vp = VpTree::build(points.clone(), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
    let mvp = MvpTree::build(points, Euclidean, MvpParams::paper(3, 80, 5).seed(1)).unwrap();

    let mut group = c.benchmark_group("knn_query_20k");
    for &k in &[1usize, 10] {
        group.bench_with_input(BenchmarkId::new("linear", k), &k, |b, &k| {
            b.iter(|| {
                for q in &queries {
                    black_box(linear.knn(q, k));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("vpt2", k), &k, |b, &k| {
            b.iter(|| {
                for q in &queries {
                    black_box(vp.knn(q, k));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("mvpt_3_80_5", k), &k, |b, &k| {
            b.iter(|| {
                for q in &queries {
                    black_box(mvp.knn(q, k));
                }
            })
        });
    }
    group.finish();
}

/// `KNN 10` on 50 000 vectors (data seed 7, as vbench's `uniform-knn`
/// and `clustered-knn`) through mvp(3, 80, 5) held as a `Vec<Vec<f64>>`,
/// as flat owned rows ([`F64Rows`]) and mapped from a snapshot; the row
/// scan a routed query runs over the mapped rows; and `LinearScan`. The
/// flat and mapped trees should take the same time, and the row scan
/// should stay within 1.1× of `LinearScan`.
fn knn_row_layouts(c: &mut Criterion) {
    let uniform = uniform_vectors(50_000, 20, 7);
    let uniform_queries = uniform_vectors(200, 20, 8);
    let clustered = clustered_vectors(&ClusteredConfig::paper(7)).expect("paper config");
    let clustered_queries = clustered.iter().step_by(250).cloned().collect();
    for (name, items, queries) in [
        ("uniform", uniform, uniform_queries),
        ("clustered", clustered, clustered_queries),
    ] {
        knn_layouts(c, name, items, queries);
    }
}

fn knn_layouts(c: &mut Criterion, name: &str, items: Vec<Vec<f64>>, queries: Vec<Vec<f64>>) {
    const K: usize = 10;
    let params = MvpParams::paper(3, 80, 5).seed(0);
    let owned = MvpTree::build(items.clone(), Euclidean, params.clone()).unwrap();
    let flat = MvpTree::with_rows(
        F64Rows::from_items(items.clone()).unwrap(),
        Euclidean,
        params,
    )
    .unwrap();
    let path = std::env::temp_dir().join(format!("vantage-bench-{}-{name}", std::process::id()));
    persist::save_mvp_tree(&flat, &path).unwrap();
    let mapped = persist::open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let linear = LinearScan::new(items, Euclidean);

    let mut group = c.benchmark_group(format!("knn10_layouts_{name}_50k"));
    group.bench_function("vec_tree", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(owned.knn(q, K));
            }
        })
    });
    group.bench_function("flat_tree", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(flat.knn(q, K));
            }
        })
    });
    let view = mapped.view();
    group.bench_function("mapped_tree", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(view.knn(q, K));
            }
        })
    });
    group.bench_function("mapped_row_scan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(view.knn_scan_traced(q, K, &mut NoTrace));
            }
        })
    });
    group.bench_function("linear", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(linear.knn(q, K));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, range_queries, knn_queries, knn_row_layouts);
criterion_main!(benches);
