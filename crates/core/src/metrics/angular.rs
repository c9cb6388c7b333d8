//! Angular distance on real vectors.
//!
//! Cosine *similarity* is ubiquitous in information retrieval (one of the
//! paper's §1 motivating domains), but `1 − cos` violates the triangle
//! inequality and cannot drive a distance-based index. The **angle**
//! between vectors — `arccos` of the cosine similarity — is a true metric
//! on the unit sphere (it is the geodesic distance), so vantage-point
//! structures can index it.
//!
//! Zero vectors have no direction; this implementation assigns them a
//! conventional distance of `π/2` to every non-zero vector (and 0 to each
//! other), which preserves all four metric axioms: every angular distance
//! lies in `[0, π]`, so `d(x, y) ≤ π ≤ d(x, 0) + d(0, y)` and
//! `d(x, 0) = π/2 ≤ d(x, y) + d(y, 0)` always hold.

use crate::metric::{BoundedMetric, Metric};

/// Angular (arc-cosine) distance between real vectors, in radians.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Angular;

impl Metric<[f64]> for Angular {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "angular metric requires equal dimensionality ({} vs {})",
            a.len(),
            b.len()
        );
        // Exact-identity short-circuit: acos(dot/|a||b|) evaluates to a
        // few ulp above zero even for bit-identical inputs, which would
        // violate d(x, x) = 0.
        if a == b {
            return 0.0;
        }
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (x, y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        match (na == 0.0, nb == 0.0) {
            (true, true) => 0.0,
            (true, false) | (false, true) => std::f64::consts::FRAC_PI_2,
            (false, false) => {
                let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
                cos.acos()
            }
        }
    }
}

impl Metric<Vec<f64>> for Angular {
    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        Metric::<[f64]>::distance(self, a.as_slice(), b.as_slice())
    }
}

// The angle is a function of the *complete* dot product and norms — a
// partial prefix gives no lower bound on the final angle — so there is no
// abandoning kernel; the trait's full-compute fallback applies.
impl BoundedMetric<[f64]> for Angular {}
impl BoundedMetric<Vec<f64>> for Angular {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn parallel_vectors_are_at_zero() {
        let d = Angular.distance(&vec![1.0, 2.0], &vec![2.0, 4.0]);
        // acos near cos = 1 amplifies a 1-ulp cosine error to ~1e-8 rad.
        assert!(d.abs() < 1e-7, "{d}");
    }

    #[test]
    fn orthogonal_vectors_are_at_half_pi() {
        let d = Angular.distance(&vec![1.0, 0.0], &vec![0.0, 3.0]);
        assert!((d - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_are_at_pi() {
        let d = Angular.distance(&vec![1.0, 1.0], &vec![-2.0, -2.0]);
        assert!((d - PI).abs() < 1e-7, "{d}");
    }

    #[test]
    fn scale_invariant() {
        let a = vec![0.3, -0.7, 2.0];
        let b = vec![1.1, 0.2, -0.5];
        let scaled: Vec<f64> = b.iter().map(|x| x * 42.0).collect();
        let d1 = Angular.distance(&a, &b);
        let d2 = Angular.distance(&a, &scaled);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_conventions() {
        let z = vec![0.0, 0.0];
        let x = vec![1.0, 2.0];
        assert_eq!(Angular.distance(&z, &z.clone()), 0.0);
        assert_eq!(Angular.distance(&z, &x), FRAC_PI_2);
        assert_eq!(Angular.distance(&x, &z), FRAC_PI_2);
    }

    #[test]
    fn numerically_hazardous_near_parallel_is_finite() {
        // dot/(|a||b|) can exceed 1 by rounding; clamp must keep acos
        // defined.
        let a = vec![1.0 + 1e-15, 1.0];
        let b = vec![1.0, 1.0 + 1e-15];
        let d = Angular.distance(&a, &b);
        assert!(d.is_finite());
        assert!(d >= 0.0);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn dimension_mismatch_panics() {
        Angular.distance(&vec![1.0], &vec![1.0, 2.0]);
    }
}
