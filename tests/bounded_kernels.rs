//! The bounded-kernel contract, swept across every shipped metric:
//!
//! 1. **exactness** — whenever `distance(a, b) ≤ bound`, the bounded
//!    kernel must run to completion and return exactly `Some(distance)`
//!    (bit-identical, not merely close: search paths substitute it for
//!    the plain kernel);
//! 2. **soundness** — `None` may only be returned when
//!    `distance(a, b) > bound` (abandoning is allowed solely past the
//!    bound);
//! 3. **work fraction** — `distance_within_frac` reports a fraction in
//!    `[0, 1]`, `1.0` exactly when the evaluation completed;
//! 4. **batches** — where `distance_x4` answers, each value is the full
//!    distance bit for bit and the bounded kernel never abandons that
//!    row part-way, so testing the value against a bound is the call.
//!
//! Bounds are driven through the interesting band around the true
//! distance (0, ¼d, ½d, d − ε, d, d + ε, 2d, ∞) plus negative and NaN
//! edge cases where meaningful.

use vantage::prelude::*;
use vantage_core::metrics::angular::Angular;
use vantage_core::metrics::histogram::{gray_histogram, GrayHistogram, ImageHistogramL1};
use vantage_core::metrics::jaccard::{sorted_set, Jaccard};
use vantage_datasets::{synthetic_mri_images, uniform_vectors, MriConfig};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The probe bounds for a pair at true distance `d`.
fn bounds_for(d: f64) -> Vec<f64> {
    let mut b = vec![0.0, d * 0.25, d * 0.5, d, d * 2.0, f64::INFINITY];
    if d > 0.0 {
        // Nudge by one representable step where possible.
        b.push(d - d * 1e-9);
        b.push(d + d * 1e-9);
    }
    b.push(-1.0);
    b
}

/// Checks the three contract clauses for one metric over one pair.
fn check_pair<T: ?Sized, M: BoundedMetric<T>>(metric: &M, a: &T, b: &T, label: &str) {
    let d = metric.distance(a, b);
    for bound in bounds_for(d) {
        let (via, frac) = metric.distance_within_frac(a, b, bound);
        assert!(
            (0.0..=1.0).contains(&frac),
            "{label}: work fraction {frac} outside [0, 1] at bound {bound}"
        );
        if d <= bound {
            assert_eq!(
                via,
                Some(d),
                "{label}: bounded kernel not exact at bound {bound} (d = {d})"
            );
            assert_eq!(
                frac, 1.0,
                "{label}: completed evaluation must report full work"
            );
        } else if via.is_none() {
            // Sound: abandoned only past the bound — already implied by
            // the branch condition, but keep the polarity explicit.
            assert!(d > bound, "{label}: abandoned inside the bound {bound}");
        } else {
            // Completing without abandoning is always allowed; the value
            // must still be exact.
            assert_eq!(via, Some(d), "{label}: inexact completion at {bound}");
        }
        // The plain trait method must agree with the frac-reporting one.
        assert_eq!(
            metric.distance_within(a, b, bound),
            via,
            "{label}: distance_within disagrees with distance_within_frac"
        );
    }
}

/// Checks a metric's four-row batch against the bounded kernel: where
/// it answers, each value must be bit-identical to the full distance,
/// and the bounded kernel must never abandon part-way for that row —
/// `(Some(d), 1.0)` at every bound `≥ d`, `(None, 1.0)` below — so a
/// leaf loop may test the value against the bound instead of calling.
/// Returns whether the metric batched.
fn check_batch<T: ?Sized, M: BoundedMetric<T>>(
    metric: &M,
    a: &T,
    bs: [&T; 4],
    label: &str,
) -> bool {
    let Some(ds) = metric.distance_x4(a, bs) else {
        return false;
    };
    for (j, (&d, &b)) in ds.iter().zip(&bs).enumerate() {
        let full = metric.distance(a, b);
        assert_eq!(d.to_bits(), full.to_bits(), "{label} row {j}: batch value");
        let mut bounds = bounds_for(d);
        bounds.push(f64::NAN);
        for bound in bounds {
            assert_eq!(
                metric.distance_within_frac(a, b, bound),
                ((d <= bound).then_some(d), 1.0),
                "{label} row {j}: bounded call at {bound} differs from the batch value"
            );
        }
    }
    true
}

fn vector_pairs(dim: usize, n: usize, seed: u64) -> Vec<(Vec<f64>, Vec<f64>)> {
    let v = uniform_vectors(2 * n, dim, seed);
    v.chunks_exact(2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect()
}

#[test]
fn vector_metrics_honor_the_contract() {
    // Odd dims exercise the chunked kernels' remainder handling.
    for dim in [1, 7, 8, 9, 64, 100, 1023] {
        for (i, (a, b)) in vector_pairs(dim, 4, dim as u64).into_iter().enumerate() {
            let label = format!("dim {dim} pair {i}");
            check_pair(&Manhattan, &a, &b, &format!("l1 {label}"));
            check_pair(&Euclidean, &a, &b, &format!("l2 {label}"));
            check_pair(&Chebyshev, &a, &b, &format!("linf {label}"));
            check_pair(
                &Minkowski::new(3.0).unwrap(),
                &a,
                &b,
                &format!("l3 {label}"),
            );
            let weights: Vec<f64> = (0..dim).map(|j| 0.5 + (j % 5) as f64).collect();
            check_pair(
                &WeightedLp::new(weights, 2.0).unwrap(),
                &a,
                &b,
                &format!("weighted-l2 {label}"),
            );
            check_pair(&Angular, &a, &b, &format!("angular {label}"));
        }
    }
    // Identical pair: d = 0, every bound ≥ 0 must complete.
    let a = vec![0.25; 33];
    check_pair(&Manhattan, &a, &a, "l1 identical");
    check_pair(&Euclidean, &a, &a, "l2 identical");
}

#[test]
fn batched_vector_metrics_honor_the_contract() {
    // Below the first bounded checkpoint (64 elements) L1 and L2 batch;
    // from it on, and for every other metric, the default declines.
    for dim in [0, 1, 7, 16, 20, 33, 63, 64, 100] {
        let v = uniform_vectors(5, dim, 40 + dim as u64);
        let (a, bs) = (&v[0], [&v[1], &v[2], &v[3], &v[4]]);
        let label = format!("dim {dim}");
        let batched = [
            check_batch(&Manhattan, a, bs, &format!("l1 {label}")),
            check_batch(&Euclidean, a, bs, &format!("l2 {label}")),
            check_batch(&&Euclidean, a, bs, &format!("l2 by reference {label}")),
            check_batch(
                &Euclidean,
                a.as_slice(),
                bs.map(Vec::as_slice),
                &format!("l2 slices {label}"),
            ),
        ];
        assert_eq!(batched, [dim < 64; 4], "{label}");
        assert!(!check_batch(&Chebyshev, a, bs, &label));
        assert!(!check_batch(&Minkowski::new(2.0).unwrap(), a, bs, &label));
        assert!(!check_batch(&Angular, a, bs, &label));
        // `Counted` keeps the default: a batch would be charged for
        // values a leaf loop later discards.
        let counted = Counted::new(Euclidean);
        assert!(!check_batch(&counted, a, bs, &label));
        assert_eq!(counted.count(), 0, "{label}: declined batch was charged");
    }
    // A mismatched row is left to the single-pair call, which panics.
    let v = uniform_vectors(4, 8, 1);
    let short = vec![0.5; 7];
    let rows = [&v[1], &v[2], &short, &v[3]];
    assert_eq!(Euclidean.distance_x4(&v[0], rows), None);
}

#[test]
fn string_metrics_honor_the_contract() {
    let mut rng = StdRng::seed_from_u64(42);
    let alphabet = b"abcd";
    for len_a in [0usize, 1, 5, 17, 64] {
        for len_b in [0usize, 3, 17, 80] {
            let a: String = (0..len_a)
                .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
                .collect();
            let b: String = (0..len_b)
                .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
                .collect();
            let label = format!("{len_a}x{len_b}");
            check_pair(&Levenshtein, &a, &b, &format!("edit {label}"));
            if len_a == len_b {
                check_pair(&Hamming, &a, &b, &format!("hamming {label}"));
            }
        }
    }
    // Byte-slice Hamming on longer inputs.
    let xs: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let ys: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
    check_pair(&Hamming, &xs, &ys, "hamming bytes");
}

#[test]
fn image_metrics_honor_the_contract() {
    let images = synthetic_mri_images(&MriConfig {
        subjects: 3,
        images_per_subject: 2,
        total: None,
        width: 32,
        height: 32,
        noise: 20,
        seed: 9,
    })
    .unwrap();
    for (i, a) in images.iter().enumerate() {
        for b in &images[i + 1..] {
            check_pair(&ImageL1::paper(), a, b, "image l1");
            check_pair(&ImageL2::paper(), a, b, "image l2");
            check_pair(&ImageHistogramL1::new(), a, b, "image histogram l1");
            let (ha, hb): (GrayHistogram, GrayHistogram) = (gray_histogram(a), gray_histogram(b));
            check_pair(&HistogramL1::new(), &ha, &hb, "histogram l1");
        }
    }
}

#[test]
fn set_metric_honors_the_contract() {
    let mut rng = StdRng::seed_from_u64(3);
    for n in [0usize, 1, 10, 100] {
        let a = sorted_set((0..n).map(|_| rng.random_range(0..64u64)));
        let b = sorted_set((0..n).map(|_| rng.random_range(0..64u64)));
        check_pair(&Jaccard, &a, &b, &format!("jaccard n={n}"));
    }
}

#[test]
fn counted_wrapper_preserves_the_contract_and_charges_one_computation() {
    let counted = Counted::new(Euclidean);
    // Enough dimensions that the first bounded checkpoint (element 64)
    // lands well before the end, so an abandon has fractional work.
    let (a, b) = (
        &uniform_vectors(2, 1024, 5)[0],
        &uniform_vectors(2, 1024, 5)[1],
    );
    check_pair(&counted, a, b, "counted l2");
    let d = counted.distance(a, b);
    counted.reset();
    // A completed bounded evaluation: one computation, no abandon.
    assert_eq!(counted.distance_within(a, b, d * 2.0), Some(d));
    assert_eq!(counted.count(), 1);
    assert_eq!(counted.abandoned(), 0);
    // An abandoned one: still one computation (the paper's cost model),
    // plus an abandon tick with fractional work.
    assert_eq!(counted.distance_within(a, b, d * 0.25), None);
    assert_eq!(counted.count(), 2);
    assert_eq!(counted.abandoned(), 1);
    assert!(counted.abandoned_work() < 1.0);
}

#[test]
fn nan_and_negative_bounds_never_produce_false_hits() {
    let (a, b) = (&vec![0.0; 16], &vec![1.0; 16]);
    for metric in [&Manhattan as &dyn BoundedMetric<Vec<f64>>, &Chebyshev] {
        assert_eq!(metric.distance_within(a, b, -1.0), None);
        // NaN bound: all comparisons with NaN are false, so the kernel
        // must not report a hit (it may abandon or complete-and-reject).
        assert_eq!(metric.distance_within(a, b, f64::NAN), None);
    }
    assert_eq!(Euclidean.distance_within(a, b, -f64::INFINITY), None);
}
