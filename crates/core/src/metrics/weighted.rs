//! Weighted Lp metrics.
//!
//! Paper §5.1-B: *"An Lp metric can also be used in a weighted fashion …
//! each pixel position would be assigned a weight … Such a distance
//! function can be easily shown to be metric. It can be used to give more
//! importance to particular regions (for example: center of the images)."*
//!
//! `d(x, y) = (Σ w_i · |x_i − y_i|^p)^(1/p)` with `w_i ≥ 0` is a
//! pseudometric in general and a metric when every `w_i > 0`; it satisfies
//! the triangle inequality for any non-negative weights, which is all the
//! index structures require for *correctness* (a zero weight merely merges
//! points the metric cannot distinguish).

use crate::metric::{BoundedMetric, Metric};
use crate::metrics::kernels;
use crate::simd;
use crate::{Result, VantageError};

/// A weighted Lp metric over `Vec<f64>` / `[f64]` of a fixed
/// dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedLp {
    weights: Vec<f64>,
    p: f64,
}

impl WeightedLp {
    /// Creates a weighted Lp metric.
    ///
    /// # Errors
    ///
    /// Returns an error when `p < 1`, `p` is non-finite, `weights` is
    /// empty, or any weight is negative or non-finite.
    pub fn new(weights: Vec<f64>, p: f64) -> Result<Self> {
        if !p.is_finite() || p < 1.0 {
            return Err(VantageError::invalid_parameter(
                "p",
                format!("weighted Lp requires finite p >= 1, got {p}"),
            ));
        }
        if weights.is_empty() {
            return Err(VantageError::invalid_parameter(
                "weights",
                "weight vector must be non-empty",
            ));
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(VantageError::invalid_parameter(
                "weights",
                format!("weights must be finite and non-negative, got {w}"),
            ));
        }
        Ok(WeightedLp { weights, p })
    }

    /// Convenience constructor for weighted Euclidean (`p = 2`).
    pub fn euclidean(weights: Vec<f64>) -> Result<Self> {
        WeightedLp::new(weights, 2.0)
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The exponent.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl WeightedLp {
    // Weights are validated non-negative at construction, so the running
    // sum is monotone and the shared kernel's abandon check is sound.
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        assert_eq!(
            a.len(),
            self.weights.len(),
            "weighted Lp dimensionality mismatch: vector {} vs weights {}",
            a.len(),
            self.weights.len()
        );
        assert_eq!(
            a.len(),
            b.len(),
            "weighted Lp requires equal dimensionality ({} vs {})",
            a.len(),
            b.len()
        );
        // p = 1 and p = 2 route to the dedicated (SIMD-dispatched)
        // weighted kernels with terms `w·|d|` and `w·(d·d)`; general p
        // stays on the portable kernel (`powf` has no identically
        // rounding vector form).
        if self.p == 1.0 {
            return simd::weighted_l1::<BOUNDED>(simd::active(), &self.weights, a, b, bound);
        }
        if self.p == 2.0 {
            return simd::weighted_l2::<BOUNDED>(simd::active(), &self.weights, a, b, bound);
        }
        let p = self.p;
        let weights = &self.weights;
        kernels::sum_kernel::<BOUNDED>(
            a,
            b,
            |i, x, y| weights[i] * (x - y).abs().powf(p),
            |s| s.powf(p.recip()),
            bound,
        )
    }
}

impl Metric<[f64]> for WeightedLp {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<[f64]> for WeightedLp {
    #[inline]
    fn distance_within(&self, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        self.kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, f64) {
        self.kernel::<true>(a, b, bound)
    }
}

impl Metric<Vec<f64>> for WeightedLp {
    #[inline]
    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        Metric::<[f64]>::distance(self, a.as_slice(), b.as_slice())
    }
}

impl BoundedMetric<Vec<f64>> for WeightedLp {
    #[inline]
    fn distance_within(&self, a: &Vec<f64>, b: &Vec<f64>, bound: f64) -> Option<f64> {
        BoundedMetric::<[f64]>::distance_within(self, a.as_slice(), b.as_slice(), bound)
    }

    #[inline]
    fn distance_within_frac(&self, a: &Vec<f64>, b: &Vec<f64>, bound: f64) -> (Option<f64>, f64) {
        BoundedMetric::<[f64]>::distance_within_frac(self, a.as_slice(), b.as_slice(), bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    #[test]
    fn unit_weights_match_plain_lp() {
        let m = WeightedLp::new(vec![1.0, 1.0, 1.0], 2.0).unwrap();
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 6.0, 3.0];
        let expected = Euclidean.distance(&a, &b);
        assert!((m.distance(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_dimensions() {
        let m = WeightedLp::new(vec![4.0, 0.0], 2.0).unwrap();
        let a = vec![0.0, 0.0];
        let b = vec![1.0, 100.0];
        // Second dimension is ignored; first is doubled in effect.
        assert!((m.distance(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_weight() {
        assert!(WeightedLp::new(vec![1.0, -0.5], 2.0).is_err());
    }

    #[test]
    fn rejects_empty_weights() {
        assert!(WeightedLp::new(vec![], 2.0).is_err());
    }

    #[test]
    fn rejects_bad_p() {
        assert!(WeightedLp::new(vec![1.0], 0.9).is_err());
        assert!(WeightedLp::new(vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn identity_is_zero() {
        let m = WeightedLp::euclidean(vec![0.3, 0.7]).unwrap();
        let a = vec![5.0, -2.0];
        assert_eq!(m.distance(&a, &a.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_panics() {
        let m = WeightedLp::euclidean(vec![1.0, 1.0]).unwrap();
        m.distance(&vec![1.0], &vec![2.0]);
    }

    #[test]
    fn bounded_weighted_agrees_with_full() {
        use crate::metric::BoundedMetric;
        let m = WeightedLp::new(vec![0.5; 64], 2.0).unwrap();
        let a: Vec<f64> = (0..64).map(|i| f64::from(i as u32)).collect();
        let b: Vec<f64> = (0..64).map(|i| f64::from(i as u32) * 1.5).collect();
        let d = m.distance(&a, &b);
        assert_eq!(m.distance_within(&a, &b, d), Some(d));
        assert_eq!(m.distance_within(&a, &b, d * 0.99), None);
    }
}
