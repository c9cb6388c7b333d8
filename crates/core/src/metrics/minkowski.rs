//! Minkowski (Lp) metrics on real vectors.
//!
//! The paper (§5.1) defines `Dp(X, Y) = (Σ |x_i − y_i|^p)^(1/p)` and uses
//! L2 (Euclidean) for the 20-dimensional vector experiments and L1/L2 for
//! the image experiments. [`Manhattan`], [`Euclidean`] and [`Chebyshev`]
//! are dedicated (and faster) implementations of the common cases; the
//! general [`Minkowski`] covers any `p ≥ 1`.
//!
//! All Lp metrics here operate on `[f64]` slices and `Vec<f64>` and
//! **panic on dimension mismatch** — feeding differently-shaped vectors to
//! one index is a programming error, not a runtime condition.
//!
//! [`Manhattan`] and [`Euclidean`] also measure byte vectors (`[u8]`,
//! `Vec<u8>`, e.g. 8-bit pixels) through the byte kernels with no
//! normalization. Every term and partial sum of two byte rows is an
//! integer well below 2⁵³, so the `f64` kernels compute it exactly too:
//! a byte row and the same row widened to `f64` give the same distance
//! bits, abandon decisions and work fractions
//! (`tests/simd_dispatch.rs` pins this).

use crate::metric::{BoundedMetric, Metric};
use crate::metrics::kernels;
use crate::simd;

#[inline]
fn check_dims<E>(a: &[E], b: &[E]) {
    assert_eq!(
        a.len(),
        b.len(),
        "Lp metric requires equal dimensionality ({} vs {})",
        a.len(),
        b.len()
    );
}

/// The L1 (city-block / taxicab) metric: `Σ |x_i − y_i|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

/// The L2 (Euclidean) metric: `sqrt(Σ (x_i − y_i)²)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

/// The L∞ (Chebyshev / maximum) metric: `max |x_i − y_i|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

/// The general Lp metric for a fixed exponent `p ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates the Lp metric. Requires `p ≥ 1` for the triangle inequality
    /// (Minkowski's inequality) to hold.
    ///
    /// # Errors
    ///
    /// Returns [`VantageError::InvalidParameter`](crate::VantageError) when
    /// `p < 1` or `p` is not finite.
    pub fn new(p: f64) -> crate::Result<Self> {
        if !p.is_finite() || p < 1.0 {
            return Err(crate::VantageError::invalid_parameter(
                "p",
                format!("Lp requires finite p >= 1, got {p}"),
            ));
        }
        Ok(Minkowski { p })
    }

    /// The exponent.
    pub fn p(&self) -> f64 {
        self.p
    }
}

// Each metric routes both `distance` and `distance_within` through one
// runtime-dispatched kernel (see `crate::simd`): the `BOUNDED` flag only
// adds geometric-cadence abandon checks, so a bounded call that
// completes returns a value bit-identical to the plain distance — on
// every dispatch path, by the scalar-identical contract.
//
// L1 and L2 also batch four candidates per call (`distance_x4`), and
// a slab of consecutive rows per call (`distance_block`), below
// `FIRST_CHECK` dimensions: there the bounded kernel has no checkpoint
// before completion, so it never abandons part-way and a full distance
// tested against the bound is the same call.

/// Whether four rows can share one batch kernel call with `a`: short
/// enough that no bounded checkpoint fires, and equal lengths (a
/// mismatched row is left to the single-pair call, which panics at its
/// own turn).
#[inline]
fn batchable(a: &[f64], bs: [&[f64]; 4]) -> bool {
    a.len() < kernels::FIRST_CHECK && bs.iter().all(|b| b.len() == a.len())
}

/// Whether a slab of `out.len()` rows can share one block kernel call
/// with `a`: the same dimension limit as [`batchable`], and exactly
/// `out.len()` rows as long as `a`.
#[inline]
fn blockable(a: &[f64], rows: &[f64], out: &[f64]) -> bool {
    a.len() < kernels::FIRST_CHECK && Some(rows.len()) == out.len().checked_mul(a.len())
}

impl Manhattan {
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        check_dims(a, b);
        simd::l1::<BOUNDED>(simd::active(), a, b, bound)
    }
}

impl Metric<[f64]> for Manhattan {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        Manhattan::kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<[f64]> for Manhattan {
    #[inline]
    fn distance_within(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        Manhattan::kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        Manhattan::kernel::<true>(a, b, bound)
    }

    #[inline]
    fn distance_x4(&self, a: &[f64], bs: [&[f64]; 4]) -> Option<[f64; 4]> {
        batchable(a, bs).then(|| simd::l1_x4(simd::active(), a, bs))
    }

    #[inline]
    fn distance_block(&self, a: &[f64], rows: &[f64], out: &mut [f64]) -> bool {
        let fits = blockable(a, rows, out);
        if fits {
            simd::l1_block(simd::active(), a, rows, out);
        }
        fits
    }
}

impl Euclidean {
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        check_dims(a, b);
        simd::l2::<BOUNDED>(simd::active(), a, b, bound)
    }
}

impl Metric<[f64]> for Euclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        Euclidean::kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<[f64]> for Euclidean {
    #[inline]
    fn distance_within(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        Euclidean::kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        Euclidean::kernel::<true>(a, b, bound)
    }

    #[inline]
    fn distance_x4(&self, a: &[f64], bs: [&[f64]; 4]) -> Option<[f64; 4]> {
        batchable(a, bs).then(|| simd::l2_x4(simd::active(), a, bs))
    }

    #[inline]
    fn distance_block(&self, a: &[f64], rows: &[f64], out: &mut [f64]) -> bool {
        let fits = blockable(a, rows, out);
        if fits {
            simd::l2_block(simd::active(), a, rows, out);
        }
        fits
    }
}

/// Implements L1/L2 over byte vectors through a byte kernel with no
/// normalization (`norm = 1.0`).
macro_rules! byte_impl {
    ($metric:ty, $kernel:ident) => {
        impl Metric<[u8]> for $metric {
            #[inline]
            fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
                check_dims(a, b);
                simd::$kernel::<false>(simd::active(), a, b, 1.0, f64::INFINITY)
                    .0
                    .unwrap()
            }
        }

        impl BoundedMetric<[u8]> for $metric {
            #[inline]
            fn distance_within(&self, a: &[u8], b: &[u8], bound: f64) -> Option<f64> {
                self.distance_within_frac(a, b, bound).0
            }

            #[inline]
            fn distance_within_frac(&self, a: &[u8], b: &[u8], bound: f64) -> (Option<f64>, f64) {
                check_dims(a, b);
                simd::$kernel::<true>(simd::active(), a, b, 1.0, bound)
            }
        }
    };
}

byte_impl!(Manhattan, byte_l1);
byte_impl!(Euclidean, byte_l2);

impl Metric<[f64]> for Chebyshev {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        check_dims(a, b);
        simd::linf::<false>(simd::active(), a, b, f64::INFINITY)
            .0
            .unwrap()
    }
}

impl BoundedMetric<[f64]> for Chebyshev {
    #[inline]
    fn distance_within(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        check_dims(a, b);
        simd::linf::<true>(simd::active(), a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        check_dims(a, b);
        simd::linf::<true>(simd::active(), a, b, bound)
    }
}

impl Minkowski {
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        check_dims(a, b);
        // p = 1 and p = 2 are exactly the L1/L2 kernels (|d|^1 = |d|,
        // |d|² = d², and the finishes coincide), so they inherit the
        // SIMD backend; general p stays on the portable kernel — `powf`
        // has no identically-rounding vector form.
        if self.p == 1.0 {
            return simd::l1::<BOUNDED>(simd::active(), a, b, bound);
        }
        if self.p == 2.0 {
            return simd::l2::<BOUNDED>(simd::active(), a, b, bound);
        }
        let p = self.p;
        kernels::sum_kernel::<BOUNDED>(
            a,
            b,
            |_, x, y| (x - y).abs().powf(p),
            |s| s.powf(p.recip()),
            bound,
        )
    }
}

impl Metric<[f64]> for Minkowski {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<[f64]> for Minkowski {
    #[inline]
    fn distance_within(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        self.kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        self.kernel::<true>(a, b, bound)
    }
}

macro_rules! delegate_vec_impl {
    ($elem:ty: $($metric:ty),+ $(,)?) => {
        $(
            impl Metric<Vec<$elem>> for $metric {
                #[inline]
                fn distance(&self, a: &Vec<$elem>, b: &Vec<$elem>) -> f64 {
                    Metric::<[$elem]>::distance(self, a.as_slice(), b.as_slice())
                }
            }

            impl BoundedMetric<Vec<$elem>> for $metric {
                #[inline]
                fn distance_within(&self, a: &Vec<$elem>, b: &Vec<$elem>, bound: f64) -> Option<f64> {
                    BoundedMetric::<[$elem]>::distance_within(self, a.as_slice(), b.as_slice(), bound)
                }

                #[inline]
                fn distance_within_frac(
                    &self,
                    a: &Vec<$elem>,
                    b: &Vec<$elem>,
                    bound: f64,
                ) -> (Option<f64>, f64) {
                    BoundedMetric::<[$elem]>::distance_within_frac(
                        self,
                        a.as_slice(),
                        b.as_slice(),
                        bound,
                    )
                }

                #[inline]
                fn distance_x4(&self, a: &Vec<$elem>, bs: [&Vec<$elem>; 4]) -> Option<[f64; 4]> {
                    BoundedMetric::<[$elem]>::distance_x4(self, a.as_slice(), bs.map(Vec::as_slice))
                }
            }
        )+
    };
}

delegate_vec_impl!(f64: Manhattan, Euclidean, Chebyshev, Minkowski);
delegate_vec_impl!(u8: Manhattan, Euclidean);

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn manhattan_sums_absolute_differences() {
        assert_eq!(Manhattan.distance(&A[..], &B[..]), 7.0);
    }

    #[test]
    fn euclidean_is_the_l2_norm() {
        assert_eq!(Euclidean.distance(&A[..], &B[..]), 5.0);
    }

    #[test]
    fn chebyshev_takes_the_max() {
        assert_eq!(Chebyshev.distance(&A[..], &B[..]), 4.0);
    }

    #[test]
    fn minkowski_p2_matches_euclidean() {
        let m = Minkowski::new(2.0).unwrap();
        let d = m.distance(&A[..], &B[..]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_p1_matches_manhattan() {
        let m = Minkowski::new(1.0).unwrap();
        assert!((m.distance(&A[..], &B[..]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_large_p_approaches_chebyshev() {
        let m = Minkowski::new(64.0).unwrap();
        let d = m.distance(&A[..], &B[..]);
        assert!((d - 4.0).abs() < 0.1, "got {d}");
    }

    #[test]
    fn minkowski_rejects_p_below_one() {
        assert!(Minkowski::new(0.5).is_err());
        assert!(Minkowski::new(f64::NAN).is_err());
        assert!(Minkowski::new(f64::INFINITY).is_err());
    }

    #[test]
    fn identity_distance_is_zero() {
        assert_eq!(Euclidean.distance(&A[..], &A[..]), 0.0);
        assert_eq!(Manhattan.distance(&A[..], &A[..]), 0.0);
        assert_eq!(Chebyshev.distance(&A[..], &A[..]), 0.0);
    }

    #[test]
    fn vec_impls_delegate() {
        let a = A.to_vec();
        let b = B.to_vec();
        assert_eq!(Euclidean.distance(&a, &b), 5.0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn dimension_mismatch_panics() {
        Euclidean.distance(&[1.0][..], &[1.0, 2.0][..]);
    }

    #[test]
    fn empty_vectors_have_zero_distance() {
        let e: Vec<f64> = vec![];
        assert_eq!(Euclidean.distance(&e, &e.clone()), 0.0);
    }

    #[test]
    fn distance_within_abandons_far_pairs_early() {
        let a = vec![0.0; 4096];
        let b = vec![1.0; 4096];
        assert_eq!(Euclidean.distance_within(&a, &b, 1.0), None);
        assert_eq!(Manhattan.distance_within(&a, &b, 10.0), None);
        assert_eq!(Chebyshev.distance_within(&a, &b, 0.5), None);
        let (d, frac) = Euclidean.distance_within_frac(&a, &b, 1.0);
        assert_eq!(d, None);
        assert!(
            frac < 0.05,
            "abandon should happen at the first checkpoint: {frac}"
        );
        let first = kernels::FIRST_CHECK as f64 / 4096.0;
        assert_eq!(frac, first, "checkpoint cadence moved");
    }

    #[test]
    fn distance_within_at_exact_bound_returns_identical_value() {
        let a = A.to_vec();
        let b = B.to_vec();
        let mink = Minkowski::new(3.0).unwrap();
        let full = [
            Euclidean.distance(&a, &b),
            Manhattan.distance(&a, &b),
            Chebyshev.distance(&a, &b),
            mink.distance(&a, &b),
        ];
        assert_eq!(Euclidean.distance_within(&a, &b, full[0]), Some(full[0]));
        assert_eq!(Manhattan.distance_within(&a, &b, full[1]), Some(full[1]));
        assert_eq!(Chebyshev.distance_within(&a, &b, full[2]), Some(full[2]));
        assert_eq!(mink.distance_within(&a, &b, full[3]), Some(full[3]));
        // Just below the exact distance every kernel must abandon.
        assert_eq!(Euclidean.distance_within(&a, &b, full[0] * 0.999), None);
    }
}
