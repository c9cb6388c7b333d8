//! Criterion: range and kNN query wall-clock latency for the two main
//! trees and the linear-scan baseline, `KNN 10` over each row layout
//! a served mvp-tree can have, and MRI `RANGE` over `f64` and byte rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vantage_bench::{bench_queries, bench_vectors};
use vantage_core::prelude::*;
use vantage_core::{F64Rows, MetricIndex, NoTrace, RowStore, U8Rows};
use vantage_datasets::{
    clustered_vectors, synthetic_mri_images, uniform_vectors, ClusteredConfig, MriConfig,
};
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist::{self as persist, F64Vectors, U8Vectors};
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
/// scan a routed query runs, over the flat owned rows and over the
/// mapped ones; and `LinearScan`. The flat and mapped trees should take
/// the same time. The row scans read the leaf entries as one slab, 64
/// rows per block kernel call, so they should run faster than
/// `LinearScan`, whose `Vec<Vec<f64>>` rows go four at a time.
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
    let flat_view = flat.as_view();
    group.bench_function("flat_row_scan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(flat_view.knn_scan(q, K, &mut NoTrace));
            }
        })
    });
    group.bench_function("mapped_row_scan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(view.knn_scan(q, K, &mut NoTrace));
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

/// `RANGE` on the MRI images vbench's `mri-l1-range` serves (64×64,
/// data seed 1, L1, mvp(3, 80, 5)) at its radius, the median distance
/// to the 6th nearest neighbour: the same tree mapped from an
/// `f64-vector` snapshot and from a `u8-vector` one, 100 queries drawn
/// from the data. Both compute the same distances with the same
/// answers; the byte rows take the byte kernel and one eighth of the
/// memory.
fn mri_range_rows(c: &mut Criterion) {
    let config = MriConfig {
        width: 64,
        height: 64,
        ..MriConfig::paper(1)
    };
    let bytes: Vec<Vec<u8>> = synthetic_mri_images(&config)
        .expect("paper config")
        .iter()
        .map(|img| img.pixels().to_vec())
        .collect();
    let wide: Vec<Vec<f64>> = bytes
        .iter()
        .map(|v| v.iter().map(|&b| f64::from(b)).collect())
        .collect();
    let picks: Vec<usize> = (0..100).map(|i| i * 11 % bytes.len()).collect();
    let linear = LinearScan::new(wide.clone(), Manhattan);
    let mut sixth: Vec<f64> = picks
        .iter()
        .map(|&i| linear.knn(&wide[i], 6)[5].distance)
        .collect();
    sixth.sort_by(f64::total_cmp);
    let radius = sixth[(sixth.len() - 1) / 2];

    let params = MvpParams::paper(3, 80, 5).seed(1);
    let dir = std::env::temp_dir();
    let f64_path = dir.join(format!("vantage-bench-mri-f64-{}", std::process::id()));
    let u8_path = dir.join(format!("vantage-bench-mri-u8-{}", std::process::id()));
    let tree = MvpTree::with_rows(
        F64Rows::from_items(wide.clone()).unwrap(),
        Manhattan,
        params.clone(),
    )
    .unwrap();
    persist::save_mvp_tree(&tree, &f64_path).unwrap();
    let tree = MvpTree::with_rows(
        U8Rows::from_items(bytes.clone()).unwrap(),
        Manhattan,
        params,
    )
    .unwrap();
    persist::save_mvp_tree(&tree, &u8_path).unwrap();
    let f64_mapped = persist::open_mvp_tree::<F64Vectors, Manhattan>(&f64_path).unwrap();
    let u8_mapped = persist::open_mvp_tree::<U8Vectors, Manhattan>(&u8_path).unwrap();
    std::fs::remove_file(&f64_path).ok();
    std::fs::remove_file(&u8_path).ok();

    let mut group = c.benchmark_group("mri_l1_range_rows");
    let view = f64_mapped.view();
    group.bench_function("mapped_f64", |b| {
        b.iter(|| {
            for &i in &picks {
                black_box(view.range(wide[i].as_slice(), radius));
            }
        })
    });
    let view = u8_mapped.view();
    group.bench_function("mapped_u8", |b| {
        b.iter(|| {
            for &i in &picks {
                black_box(view.range(bytes[i].as_slice(), radius));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    range_queries,
    knn_queries,
    knn_row_layouts,
    mri_range_rows
);
criterion_main!(benches);
