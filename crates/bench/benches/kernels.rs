//! Criterion: early-abandoning kernel throughput (the PR 3 tentpole).
//!
//! Two questions: (1) what does a *completed* bounded evaluation cost
//! relative to the plain kernel (the overhead of the per-chunk abandon
//! check), and (2) how much arithmetic does an *abandoned* far-pair
//! evaluation actually skip? Both are measured per metric across the
//! paper's dimensionality range (16 → 65 536 = a 256×256 image), plus
//! end-to-end range/kNN wall-clock on the tree structures whose leaf
//! filters now call the bounded kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vantage_core::prelude::*;
use vantage_core::simd;
use vantage_datasets::{synthetic_mri_images, uniform_vectors, MriConfig};
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_vptree::{VpTree, VpTreeParams};

const DIMS: [usize; 4] = [16, 256, 4096, 65_536];

/// `full` = plain kernel; `near` = bounded with a bound just above the
/// true distance (runs to completion, pays the check overhead); `far` =
/// bounded with a bound at a quarter of the true distance (abandons).
fn bench_kernel<M>(c: &mut Criterion, label: &str, metric: M)
where
    M: BoundedMetric<Vec<f64>>,
{
    let mut group = c.benchmark_group(format!("kernel/{label}"));
    for dim in DIMS {
        let v = uniform_vectors(2, dim, 7);
        let (a, b) = (&v[0], &v[1]);
        let d = metric.distance(a, b);
        group.bench_function(BenchmarkId::new("full", dim), |bench| {
            bench.iter(|| black_box(metric.distance(black_box(a), black_box(b))))
        });
        group.bench_function(BenchmarkId::new("bounded_near", dim), |bench| {
            bench.iter(|| black_box(metric.distance_within(black_box(a), black_box(b), d * 1.01)))
        });
        group.bench_function(BenchmarkId::new("bounded_far", dim), |bench| {
            bench.iter(|| black_box(metric.distance_within(black_box(a), black_box(b), d * 0.25)))
        });
    }
    group.finish();
}

fn vector_kernels(c: &mut Criterion) {
    bench_kernel(c, "l1", Manhattan);
    bench_kernel(c, "l2", Euclidean);
    bench_kernel(c, "linf", Chebyshev);
}

fn image_kernels(c: &mut Criterion) {
    // Full-resolution 256×256 images: 65 536 u8 dimensions.
    let images = synthetic_mri_images(&MriConfig {
        subjects: 2,
        images_per_subject: 1,
        total: None,
        width: 256,
        height: 256,
        noise: 10,
        seed: 1,
    })
    .unwrap();
    let (a, b) = (&images[0], &images[1]);
    let mut group = c.benchmark_group("kernel/image_l2");
    let metric = ImageL2::paper();
    let d = metric.distance(a, b);
    group.bench_function("full/65536", |bench| {
        bench.iter(|| black_box(metric.distance(black_box(a), black_box(b))))
    });
    group.bench_function("bounded_near/65536", |bench| {
        bench.iter(|| black_box(metric.distance_within(black_box(a), black_box(b), d * 1.01)))
    });
    group.bench_function("bounded_far/65536", |bench| {
        bench.iter(|| black_box(metric.distance_within(black_box(a), black_box(b), d * 0.25)))
    });
    group.finish();
}

/// Portable vs. AVX2 dispatch, side by side on the same inputs: each
/// supported [`simd::SimdPath`] gets its own group so the before/after
/// columns in `BENCH_kernels.json` come from one run on one machine.
/// (`kernel/*` above measures whatever path `simd::active()` picked.)
fn dispatch_paths(c: &mut Criterion) {
    type Kernel = fn(simd::SimdPath, &[f64], &[f64], f64) -> (Option<f64>, f64);
    let kernels: [(&str, Kernel); 3] = [
        ("l1", simd::l1::<false>),
        ("l2", simd::l2::<false>),
        ("linf", simd::linf::<false>),
    ];
    for path in simd::test_paths() {
        let mut group = c.benchmark_group(format!("dispatch/{path}"));
        for dim in [4096usize, 65_536] {
            let v = uniform_vectors(2, dim, 7);
            let (a, b) = (&v[0], &v[1]);
            for (label, kernel) in kernels {
                group.bench_function(BenchmarkId::new(label, dim), |bench| {
                    bench
                        .iter(|| black_box(kernel(path, black_box(a), black_box(b), f64::INFINITY)))
                });
            }
        }
        group.finish();
    }
}

/// One query against a slab of 64 rows laid back to back, as a routed
/// row scan reads a tree's leaf entries: sixteen four-row `l2_x4` calls
/// against one `l2_block` call, at the `uniform-knn` width (20) and a
/// width with a partial last register (33), on the active path.
fn block_rows(c: &mut Criterion) {
    const ROWS: usize = 64;
    let path = simd::active();
    let mut group = c.benchmark_group("kernel/l2_rows64");
    for dim in [20usize, 33] {
        let query = uniform_vectors(1, dim, 7).remove(0);
        let slab: Vec<f64> = uniform_vectors(ROWS, dim, 8).concat();
        group.bench_function(BenchmarkId::new("x4", dim), |bench| {
            bench.iter(|| {
                let mut out = [0.0; ROWS];
                for (four, rows) in out.chunks_exact_mut(4).zip(slab.chunks_exact(4 * dim)) {
                    let row = |j: usize| &rows[j * dim..(j + 1) * dim];
                    let ds = simd::l2_x4(path, black_box(&query), [row(0), row(1), row(2), row(3)]);
                    four.copy_from_slice(&ds);
                }
                black_box(out)
            })
        });
        group.bench_function(BenchmarkId::new("block", dim), |bench| {
            bench.iter(|| {
                let mut out = [0.0; ROWS];
                simd::l2_block(path, black_box(&query), black_box(&slab), &mut out);
                black_box(out)
            })
        });
    }
    group.finish();
}

/// End-to-end wall-clock of the query paths whose leaf verification now
/// runs through the bounded kernel.
fn end_to_end(c: &mut Criterion) {
    let n = 4096;
    let dim = 64;
    let items = uniform_vectors(n, dim, 11);
    let queries = uniform_vectors(16, dim, 13);
    // A radius tuned so range queries return a handful of results and
    // most leaf candidates abandon early.
    let radius = 1.2;
    let vp = VpTree::build(items.clone(), Euclidean, VpTreeParams::binary().seed(5)).unwrap();
    let mvp = MvpTree::build(items, Euclidean, MvpParams::paper(3, 80, 5).seed(5)).unwrap();
    let mut group = c.benchmark_group("end_to_end/uniform64d");
    group.sample_size(20);
    group.bench_function("vp_range", |bench| {
        bench.iter(|| {
            for q in &queries {
                black_box(vp.range(black_box(q), radius));
            }
        })
    });
    group.bench_function("vp_knn10", |bench| {
        bench.iter(|| {
            for q in &queries {
                black_box(vp.knn(black_box(q), 10));
            }
        })
    });
    group.bench_function("mvp_range", |bench| {
        bench.iter(|| {
            for q in &queries {
                black_box(mvp.range(black_box(q), radius));
            }
        })
    });
    group.bench_function("mvp_knn10", |bench| {
        bench.iter(|| {
            for q in &queries {
                black_box(mvp.knn(black_box(q), 10));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    vector_kernels,
    image_kernels,
    dispatch_paths,
    block_rows,
    end_to_end
);
criterion_main!(benches);
