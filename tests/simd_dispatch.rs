//! Differential tests for the SIMD dispatch layer (`vantage_core::simd`).
//!
//! The scalar-identical contract under test:
//!
//! * every kernel produces **bit-identical** results on every supported
//!   dispatch path — for the integer kernels trivially (exact integer
//!   accumulation), for the float kernels because both paths use the
//!   same 16-lane summation order and the same scalar reduction;
//! * abandon decisions and reported work fractions also agree exactly
//!   (shared geometric checkpoint schedule);
//! * on every path, `distance_within` obeys the `BoundedMetric`
//!   contract: never a false abandon at or above the true distance, a
//!   completed value bit-identical to the full distance, work fraction
//!   in `[0, 1]`.
//!
//! Lengths deliberately straddle the dispatch threshold and the 16-lane
//! chunking (0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, …), and the value
//! strategy mixes adversarial magnitudes (1e-12 … 1e12) so any
//! reassociation between paths would show up as a bit difference.
//!
//! The byte kernels with no normalization (`byte_l1`/`byte_l2`, norm
//! 1.0) are held to the `f64` kernels (`l1`/`l2`) on the same
//! integer-valued rows: every term and partial sum is an exact integer,
//! so a byte store answers exactly as an `f64` store of the same data.
//!
//! The four-row batch kernels (`l1_x4`, `l2_x4`) are held to the
//! single-pair kernels lane by lane: every lane equals the single-pair
//! result on the same path and on the portable path, bit for bit, over
//! dims 0–80, NaN, ±∞, −0.0 and subnormal inputs, and rows at offsets
//! that are not 32-byte aligned. The block kernels (`l1_block`,
//! `l2_block`) are held to them row by row the same way, over every
//! dimension below the first bounded checkpoint and slabs of 0–9 rows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;
use vantage_core::simd::{self, SimdPath};

const CASES: u32 = 64;

/// Lengths around every boundary that matters: empty, sub-lane, the
/// 16-lane chunk edges, the 32-dim dispatch threshold, the first
/// bounded checkpoint at 64, and ragged larger sizes.
const EDGE_LENGTHS: [usize; 13] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129];

/// A NaN-free adversarial magnitude: tiny, huge, negative, power-of-two
/// and zero components in one vector exercise every rounding path.
fn adversarial_value(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..7u32) {
        0 => 0.0,
        1 => rng.random_range(-1e12..1e12f64),
        2 => rng.random_range(-1.0..1.0f64),
        3 => f64::powi(2.0, rng.random_range(-60..60i32)),
        4 => -f64::powi(3.0, rng.random_range(-15..15i32)),
        5 => 1e-12,
        _ => -1e-12,
    }
}

/// Equal-length f64 vector pairs over [`EDGE_LENGTHS`] plus random
/// lengths, filled with [`adversarial_value`]s. (The vendored proptest
/// has no `prop_flat_map`/`prop_oneof`, so this is a direct `Strategy`.)
#[derive(Debug, Clone, Copy)]
struct VecPair;

impl Strategy for VecPair {
    type Value = (Vec<f64>, Vec<f64>);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = if rng.random_range(0..2u32) == 0 {
            EDGE_LENGTHS[rng.random_range(0..EDGE_LENGTHS.len())]
        } else {
            rng.random_range(2..300usize)
        };
        let a = (0..n).map(|_| adversarial_value(rng)).collect();
        let b = (0..n).map(|_| adversarial_value(rng)).collect();
        (a, b)
    }
}

fn vec_pair() -> VecPair {
    VecPair
}

/// Bounds worth probing relative to a true distance `d`.
fn bounds_for(d: f64) -> Vec<f64> {
    vec![
        -1.0,
        0.0,
        d * 0.25,
        d * 0.5,
        d * 0.999,
        d,
        d * 1.001,
        d * 2.0,
        f64::INFINITY,
    ]
}

type FloatKernel = fn(SimdPath, &[f64], &[f64], f64) -> (Option<f64>, f64);

fn float_kernels() -> Vec<(&'static str, FloatKernel, FloatKernel)> {
    vec![
        ("l1", simd::l1::<false>, simd::l1::<true>),
        ("l2", simd::l2::<false>, simd::l2::<true>),
        ("linf", simd::linf::<false>, simd::linf::<true>),
    ]
}

/// Asserts two `(Option<f64>, f64)` kernel results are bit-identical.
fn assert_bits_eq(
    got: (Option<f64>, f64),
    want: (Option<f64>, f64),
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.0.map(f64::to_bits),
        want.0.map(f64::to_bits),
        "{}: value differs",
        ctx
    );
    prop_assert_eq!(
        got.1.to_bits(),
        want.1.to_bits(),
        "{}: work fraction differs",
        ctx
    );
    Ok(())
}

// Bodies live in plain functions (the `proptest!` macro recurses over
// every token of its body; long bodies overflow the recursion limit).

/// Full + bounded float kernels agree bitwise across paths, at every
/// probe bound (identical values, abandon decisions and fractions).
fn check_float_kernels(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    for (name, full, bounded) in float_kernels() {
        let reference = full(SimdPath::Portable, a, b, f64::INFINITY);
        let d = reference.0.unwrap();
        prop_assert!(!d.is_nan(), "{}: NaN distance from finite inputs", name);
        for path in simd::test_paths() {
            let ctx = format!("{name} via {path} (n={})", a.len());
            assert_bits_eq(full(path, a, b, f64::INFINITY), reference, &ctx)?;
            for bound in bounds_for(d) {
                let want = bounded(SimdPath::Portable, a, b, bound);
                let got = bounded(path, a, b, bound);
                assert_bits_eq(got, want, &format!("{ctx} bound={bound}"))?;
            }
        }
    }
    Ok(())
}

/// Weighted L1/L2 kernels: same cross-path bit-identity, with
/// non-negative weights as `WeightedLp` guarantees.
fn check_weighted_kernels(a: &[f64], b: &[f64], seed: u64) -> Result<(), TestCaseError> {
    let w: Vec<f64> = (0..a.len())
        .map(|i| ((i as u64 * 2654435761 + seed) % 97) as f64 / 7.0)
        .collect();
    for path in simd::test_paths() {
        let ctx = format!("weighted via {path} (n={})", a.len());
        let ref1 = simd::weighted_l1::<false>(SimdPath::Portable, &w, a, b, f64::INFINITY);
        assert_bits_eq(
            simd::weighted_l1::<false>(path, &w, a, b, f64::INFINITY),
            ref1,
            &format!("{ctx} l1 full"),
        )?;
        let ref2 = simd::weighted_l2::<false>(SimdPath::Portable, &w, a, b, f64::INFINITY);
        assert_bits_eq(
            simd::weighted_l2::<false>(path, &w, a, b, f64::INFINITY),
            ref2,
            &format!("{ctx} l2 full"),
        )?;
        for bound in bounds_for(ref2.0.unwrap()) {
            let want = simd::weighted_l2::<true>(SimdPath::Portable, &w, a, b, bound);
            let got = simd::weighted_l2::<true>(path, &w, a, b, bound);
            assert_bits_eq(got, want, &format!("{ctx} l2 bound={bound}"))?;
        }
    }
    Ok(())
}

/// Integer kernels (Hamming, byte L1/L2, histogram L1): exact
/// accumulation means any path must agree bitwise, including on
/// length-mismatched Hamming inputs.
fn check_integer_kernels(xs: &[u8], ys: &[u8]) -> Result<(), TestCaseError> {
    let n = xs.len().min(ys.len());
    let (xe, ye) = (&xs[..n], &ys[..n]);
    let hx: Vec<u32> = xs.iter().take(n).map(|&v| u32::from(v) * 37).collect();
    let hy: Vec<u32> = ys.iter().take(n).map(|&v| u32::from(v) * 11).collect();
    for path in simd::test_paths() {
        let ctx = format!("via {path} (n={n})");
        let want = simd::hamming_bytes::<false>(SimdPath::Portable, xs, ys, f64::INFINITY);
        let got = simd::hamming_bytes::<false>(path, xs, ys, f64::INFINITY);
        assert_bits_eq(got, want, &format!("hamming {ctx}"))?;
        let d = want.0.unwrap();
        for bound in bounds_for(d) {
            let want = simd::hamming_bytes::<true>(SimdPath::Portable, xs, ys, bound);
            let got = simd::hamming_bytes::<true>(path, xs, ys, bound);
            assert_bits_eq(got, want, &format!("hamming {ctx} bound={bound}"))?;
        }
        for norm in [1.0, 100.0, 10_000.0] {
            let want = simd::byte_l1::<false>(SimdPath::Portable, xe, ye, norm, f64::INFINITY);
            let got = simd::byte_l1::<false>(path, xe, ye, norm, f64::INFINITY);
            assert_bits_eq(got, want, &format!("byte_l1 {ctx} norm={norm}"))?;
            let want = simd::byte_l2::<false>(SimdPath::Portable, xe, ye, norm, f64::INFINITY);
            let got = simd::byte_l2::<false>(path, xe, ye, norm, f64::INFINITY);
            assert_bits_eq(got, want, &format!("byte_l2 {ctx} norm={norm}"))?;
            let d = want.0.unwrap();
            for bound in bounds_for(d) {
                let want = simd::byte_l2::<true>(SimdPath::Portable, xe, ye, norm, bound);
                let got = simd::byte_l2::<true>(path, xe, ye, norm, bound);
                assert_bits_eq(got, want, &format!("byte_l2 {ctx} bound={bound}"))?;
            }
        }
        let want = simd::u32_l1::<false>(SimdPath::Portable, &hx, &hy, 1.0, f64::INFINITY);
        let got = simd::u32_l1::<false>(path, &hx, &hy, 1.0, f64::INFINITY);
        assert_bits_eq(got, want, &format!("u32_l1 {ctx}"))?;
        let d = want.0.unwrap();
        for bound in bounds_for(d) {
            let want = simd::u32_l1::<true>(SimdPath::Portable, &hx, &hy, 1.0, bound);
            let got = simd::u32_l1::<true>(path, &hx, &hy, 1.0, bound);
            assert_bits_eq(got, want, &format!("u32_l1 {ctx} bound={bound}"))?;
        }
    }
    Ok(())
}

/// The `distance_within` soundness contract holds on every path:
/// a bound at or above the true distance must complete with the
/// bit-identical full value; below it, either abandon (`None`) or
/// complete-and-reject; work fraction always in `[0, 1]`.
fn check_distance_within_contract(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    for (name, full, bounded) in float_kernels() {
        for path in simd::test_paths() {
            let d = full(path, a, b, f64::INFINITY).0.unwrap();
            let ctx = format!("{name} via {path} (n={})", a.len());
            // At and above the true distance: must complete, bitwise.
            for bound in [d, d + f64::EPSILON, d * 2.0, f64::INFINITY] {
                let (got, frac) = bounded(path, a, b, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    Some(d.to_bits()),
                    "{}: false abandon at bound {} >= d {}",
                    &ctx,
                    bound,
                    d
                );
                prop_assert!((0.0..=1.0).contains(&frac), "{}: frac {}", &ctx, frac);
            }
            // Below: never a reported value above the bound.
            for bound in [-1.0, 0.0, d * 0.25, d * 0.999] {
                let (got, frac) = bounded(path, a, b, bound);
                if let Some(v) = got {
                    prop_assert!(v <= bound, "{}: reported {} > bound {}", &ctx, v, bound);
                }
                prop_assert!((0.0..=1.0).contains(&frac), "{}: frac {}", &ctx, frac);
            }
        }
    }
    Ok(())
}

/// [`adversarial_value`], or one time in eight a special value: NaN,
/// ±∞, −0.0 or a subnormal.
fn special_value(rng: &mut StdRng) -> f64 {
    if rng.random_range(0..8u32) != 0 {
        return adversarial_value(rng);
    }
    match rng.random_range(0..5u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => f64::from_bits(rng.random_range(1..1u64 << 52)),
    }
}

/// Same value, bit for bit. NaN results compare as NaN: IEEE 754 leaves
/// the payload and sign of an operation's NaN open and the compiler may
/// commute additions, and a NaN distance never passes a `d <= bound`
/// test, so no search can observe which NaN it got.
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

type BatchKernel = fn(SimdPath, &[f64], [&[f64]; 4]) -> [f64; 4];

/// Every lane of each batch kernel equals its single-pair kernel on the
/// same path, and the portable single-pair value, bit for bit.
fn check_batch_kernels(a: &[f64], rows: [&[f64]; 4]) -> Result<(), TestCaseError> {
    let kernels: [(&str, BatchKernel, FloatKernel); 2] = [
        ("l1_x4", simd::l1_x4, simd::l1::<false>),
        ("l2_x4", simd::l2_x4, simd::l2::<false>),
    ];
    for (name, batch, single) in kernels {
        let full = |path, row| single(path, a, row, f64::INFINITY).0.unwrap();
        for path in simd::test_paths() {
            let got = batch(path, a, rows);
            for (j, (&d, row)) in got.iter().zip(rows).enumerate() {
                let ctx = format!("{name} via {path} (n={}) lane {j}", a.len());
                for want in [full(path, row), full(SimdPath::Portable, row)] {
                    prop_assert!(same_bits(d, want), "{}: {} != {}", &ctx, d, want);
                }
            }
        }
    }
    Ok(())
}

/// A query and four rows of `n` [`special_value`]s, each starting
/// `offsets[j]` elements into its own buffer (so not 32-byte aligned).
fn batch_case(rng: &mut StdRng, n: usize, offsets: [usize; 5]) -> Vec<Vec<f64>> {
    offsets
        .iter()
        .map(|&skip| (0..skip + n).map(|_| special_value(rng)).collect())
        .collect()
}

/// Runs [`check_batch_kernels`] on one [`batch_case`].
fn check_batch_case(bufs: &[Vec<f64>], n: usize, offsets: [usize; 5]) -> Result<(), TestCaseError> {
    let at = |k: usize| &bufs[k][offsets[k]..offsets[k] + n];
    check_batch_kernels(at(0), [at(1), at(2), at(3), at(4)])
}

#[test]
fn batch_kernels_match_single_pair_lanes_at_every_dim() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(18);
    for n in 0..=80 {
        for offsets in [[0; 5], [1, 3, 2, 1, 3], [3, 1, 0, 2, 1]] {
            for _ in 0..4 {
                let bufs = batch_case(&mut rng, n, offsets);
                check_batch_case(&bufs, n, offsets).unwrap();
            }
        }
    }
}

/// The metric layer batches L1 and L2 below the first bounded
/// checkpoint only, with the same values as the explicit kernels.
#[test]
fn metric_layer_batches_below_the_first_checkpoint() {
    use vantage_core::prelude::*;
    for n in [0usize, 1, 16, 20, 32, 63, 64, 65, 80] {
        let v: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..n).map(|i| ((i * 7 + j) as f64 * 0.3).sin()).collect())
            .collect();
        let rows = [&v[1][..], &v[2][..], &v[3][..], &v[4][..]];
        let l1 = Manhattan.distance_x4(&v[0][..], rows);
        let l2 = Euclidean.distance_x4(&v[0][..], rows);
        if n < 64 {
            let path = simd::active();
            assert_eq!(l1, Some(simd::l1_x4(path, &v[0], rows)), "l1 n={n}");
            assert_eq!(l2, Some(simd::l2_x4(path, &v[0], rows)), "l2 n={n}");
        } else {
            assert_eq!((l1, l2), (None, None), "n={n}");
        }
    }
}

type BlockKernel = fn(SimdPath, &[f64], &[f64], &mut [f64]);

/// Every output of each block kernel over the `rows.len() / a.len()`
/// rows of `rows` equals its single-pair kernel on the same path, and
/// the portable single-pair value, bit for bit.
fn check_block_kernels(a: &[f64], rows: &[f64], count: usize) -> Result<(), TestCaseError> {
    let kernels: [(&str, BlockKernel, FloatKernel); 2] = [
        ("l1_block", simd::l1_block, simd::l1::<false>),
        ("l2_block", simd::l2_block, simd::l2::<false>),
    ];
    let n = a.len();
    for (name, block, single) in kernels {
        let full = |path, row| single(path, a, row, f64::INFINITY).0.unwrap();
        for path in simd::test_paths() {
            let mut got = vec![f64::NAN; count];
            block(path, a, rows, &mut got);
            for (j, &d) in got.iter().enumerate() {
                let row = &rows[j * n..(j + 1) * n];
                let ctx = format!("{name} via {path} (n={n}, rows={count}) row {j}");
                for want in [full(path, row), full(SimdPath::Portable, row)] {
                    prop_assert!(same_bits(d, want), "{}: {} != {}", &ctx, d, want);
                }
            }
        }
    }
    Ok(())
}

/// A query and a slab of `count` rows of `n` [`special_value`]s, the
/// slab starting `skip` elements into its buffer (so not 32-byte
/// aligned). Returns `(query, buffer)`.
fn block_case(rng: &mut StdRng, n: usize, count: usize, skip: usize) -> (Vec<f64>, Vec<f64>) {
    let query = (0..n).map(|_| special_value(rng)).collect();
    let buffer = (0..skip + n * count).map(|_| special_value(rng)).collect();
    (query, buffer)
}

#[test]
fn block_kernels_match_single_pair_rows_at_every_dim_and_count() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(28);
    for n in 0..64 {
        for count in 0..=9 {
            for skip in [0, 1, 3] {
                let (query, buffer) = block_case(&mut rng, n, count, skip);
                check_block_kernels(&query, &buffer[skip..], count).unwrap();
            }
        }
    }
}

/// The metric layer takes a slab below the first bounded checkpoint
/// only, with the same values as the explicit kernels, and declines a
/// slab whose length is not the row count times the query's.
#[test]
fn metric_layer_takes_blocks_below_the_first_checkpoint() {
    use vantage_core::prelude::*;
    for n in [0usize, 1, 16, 20, 33, 63, 64, 80] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let rows: Vec<f64> = (0..5 * n).map(|i| (i as f64 * 0.3).sin()).collect();
        let (mut l1, mut l2) = (vec![0.0; 5], vec![0.0; 5]);
        let took = (
            Manhattan.distance_block(&a[..], &rows[..], &mut l1),
            Euclidean.distance_block(&a[..], &rows[..], &mut l2),
        );
        if n < 64 {
            assert_eq!(took, (true, true), "n={n}");
            let (mut want1, mut want2) = (vec![0.0; 5], vec![0.0; 5]);
            simd::l1_block(simd::active(), &a, &rows, &mut want1);
            simd::l2_block(simd::active(), &a, &rows, &mut want2);
            assert_eq!((l1, l2), (want1, want2), "n={n}");
        } else {
            assert_eq!(took, (false, false), "n={n}");
        }
        if n > 0 {
            let mut four = vec![0.0; 4];
            assert!(!Euclidean.distance_block(&a[..], &rows[..], &mut four));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn block_kernels_bit_identical_across_paths(
        n in 0usize..64,
        count in 0usize..=9,
        skip in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (query, buffer) = block_case(&mut rng, n, count, skip);
        check_block_kernels(&query, &buffer[skip..], count)?;
    }

    #[test]
    fn batch_kernels_bit_identical_across_paths(
        n in 0usize..=80,
        skip in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets = [skip, (skip + 1) % 4, (skip + 2) % 4, (skip + 3) % 4, skip];
        let bufs = batch_case(&mut rng, n, offsets);
        check_batch_case(&bufs, n, offsets)?;
    }

    #[test]
    fn float_kernels_bit_identical_across_paths(ab in vec_pair()) {
        check_float_kernels(&ab.0, &ab.1)?;
    }

    #[test]
    fn weighted_kernels_bit_identical_across_paths(
        ab in vec_pair(),
        seed in 0u64..1000,
    ) {
        check_weighted_kernels(&ab.0, &ab.1, seed)?;
    }

    #[test]
    fn integer_kernels_bit_identical_across_paths(
        xs in proptest::collection::vec(any::<u8>(), 0..400),
        ys in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        check_integer_kernels(&xs, &ys)?;
    }

    #[test]
    fn distance_within_contract_holds_under_simd(ab in vec_pair()) {
        check_distance_within_contract(&ab.0, &ab.1)?;
    }
}

/// The 64-d serving-style hot path (below the dispatch threshold at 20-d,
/// above it at 64-d) agrees with the metric-layer entry points: routing
/// through `Manhattan`/`Euclidean`/`Chebyshev` uses the same kernels.
#[test]
fn metric_layer_matches_explicit_kernels() {
    use vantage_core::prelude::*;
    for n in [20usize, 64, 300] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 5.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 4.0).collect();
        let cases: [(f64, f64); 3] = [
            (
                Manhattan.distance(&a, &b),
                simd::l1::<false>(simd::active(), &a, &b, f64::INFINITY)
                    .0
                    .unwrap(),
            ),
            (
                Euclidean.distance(&a, &b),
                simd::l2::<false>(simd::active(), &a, &b, f64::INFINITY)
                    .0
                    .unwrap(),
            ),
            (
                Chebyshev.distance(&a, &b),
                simd::linf::<false>(simd::active(), &a, &b, f64::INFINITY)
                    .0
                    .unwrap(),
            ),
        ];
        for (metric_d, kernel_d) in cases {
            assert_eq!(metric_d.to_bits(), kernel_d.to_bits(), "n={n}");
        }
    }
}

/// `byte_l1`/`byte_l2` with norm 1.0 equal `l1`/`l2` over the same rows
/// widened to `f64`, on every path: value bits, abandon decisions and
/// work-fraction bits, unbounded and at bounds that abandon at each
/// checkpoint (64, 128, 256, …). This is what lets a snapshot hold
/// 8-bit vectors as bytes and answer as the `f64` rows would.
#[test]
fn byte_kernels_match_f64_kernels_on_integer_rows() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(23);
    for n in (0..=300).chain([4096]) {
        let xs: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        let ys: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        let widen = |v: &[u8]| v.iter().map(|&b| f64::from(b)).collect::<Vec<f64>>();
        let (xf, yf) = (widen(&xs), widen(&ys));
        for l2 in [false, true] {
            let name = if l2 { "l2" } else { "l1" };
            let byte = |path, bound| match (l2, bound) {
                (false, None) => simd::byte_l1::<false>(path, &xs, &ys, 1.0, f64::INFINITY),
                (false, Some(b)) => simd::byte_l1::<true>(path, &xs, &ys, 1.0, b),
                (true, None) => simd::byte_l2::<false>(path, &xs, &ys, 1.0, f64::INFINITY),
                (true, Some(b)) => simd::byte_l2::<true>(path, &xs, &ys, 1.0, b),
            };
            let float = |path, bound| match (l2, bound) {
                (false, None) => simd::l1::<false>(path, &xf, &yf, f64::INFINITY),
                (false, Some(b)) => simd::l1::<true>(path, &xf, &yf, b),
                (true, None) => simd::l2::<false>(path, &xf, &yf, f64::INFINITY),
                (true, Some(b)) => simd::l2::<true>(path, &xf, &yf, b),
            };
            // The distance over the first `m` coordinates: a bound just
            // under it abandons at checkpoint `m` (or earlier), the
            // value itself does not abandon there.
            let partial = |m: usize| {
                let sum: u64 = (0..m)
                    .map(|i| u64::from(xs[i].abs_diff(ys[i])).pow(if l2 { 2 } else { 1 }))
                    .sum();
                if l2 {
                    (sum as f64).sqrt()
                } else {
                    sum as f64
                }
            };
            let checkpoints: Vec<usize> = std::iter::successors(Some(64), |c| Some(c * 2))
                .take_while(|&c| c <= n)
                .collect();
            let mut bounds = vec![f64::INFINITY, -1.0, 0.0];
            for &c in &checkpoints {
                bounds.extend([partial(c) - 0.5, partial(c)]);
            }
            bounds.extend(bounds_for(partial(n)));
            for path in simd::test_paths() {
                for bound in std::iter::once(None).chain(bounds.iter().copied().map(Some)) {
                    let (got, want) = (byte(path, bound), float(path, bound));
                    let ctx = format!("{name} via {path} (n={n}, bound={bound:?})");
                    assert_eq!(got.0.map(f64::to_bits), want.0.map(f64::to_bits), "{ctx}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "{ctx}");
                }
            }
            for c in checkpoints {
                let (value, work) = byte(SimdPath::Portable, Some(partial(c) - 0.5));
                assert!(value.is_none(), "{name} n={n} abandons by checkpoint {c}");
                assert!(work <= c as f64 / n as f64, "{name} n={n} checkpoint {c}");
            }
        }
    }
}

/// Empty inputs are well-defined on every path and every kernel.
#[test]
fn empty_inputs_are_zero_distance() {
    let e: Vec<f64> = vec![];
    let eb: Vec<u8> = vec![];
    let eh: Vec<u32> = vec![];
    for path in simd::test_paths() {
        assert_eq!(simd::l1::<false>(path, &e, &e, f64::INFINITY).0, Some(0.0));
        assert_eq!(simd::l2::<true>(path, &e, &e, 0.0).0, Some(0.0));
        assert_eq!(simd::linf::<true>(path, &e, &e, -1.0).0, None);
        assert_eq!(
            simd::hamming_bytes::<false>(path, &eb, &eb, f64::INFINITY).0,
            Some(0.0)
        );
        assert_eq!(
            simd::byte_l1::<false>(path, &eb, &eb, 1.0, f64::INFINITY).0,
            Some(0.0)
        );
        assert_eq!(
            simd::u32_l1::<false>(path, &eh, &eh, 1.0, f64::INFINITY).0,
            Some(0.0)
        );
    }
}
