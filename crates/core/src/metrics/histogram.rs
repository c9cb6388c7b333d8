//! Gray-level intensity histograms and histogram metrics.
//!
//! Paper §5.1-B: *"For gray level images, color histograms can be used to
//! compute similarity. Unlike color images, there is no cross talk …
//! therefore, an Lp metric can be used to compute distances between color
//! histograms. The histograms will simply be treated as if they are
//! 256-dimensional vectors."*
//!
//! [`gray_histogram`] extracts the 256-bin intensity histogram of a
//! [`GrayImage`]; [`HistogramL1`] (and the [`Metric`] impls on
//! `[u32; 256]`) compare histograms. Histogram distance is a cheap,
//! distance-preserving-ish proxy for pixel distance — the QBIC-style
//! two-stage filtering discussed in paper §3.1.

use crate::metric::{BoundedMetric, Metric};
use crate::metrics::image::GrayImage;
use crate::simd;

/// A 256-bin intensity histogram.
pub type GrayHistogram = [u32; 256];

/// Computes the intensity histogram of a gray-level image.
pub fn gray_histogram(image: &GrayImage) -> GrayHistogram {
    let mut hist = [0u32; 256];
    for &p in image.pixels() {
        hist[p as usize] += 1;
    }
    hist
}

/// L1 metric between intensity histograms, with an optional normalization
/// divisor (default 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramL1 {
    norm: f64,
}

impl HistogramL1 {
    /// Creates the metric with no normalization (divisor 1).
    pub fn new() -> Self {
        HistogramL1 { norm: 1.0 }
    }

    /// Creates the metric with a custom positive normalization constant.
    ///
    /// # Errors
    ///
    /// Returns an error when `norm` is not finite and positive.
    pub fn with_norm(norm: f64) -> crate::Result<Self> {
        if !norm.is_finite() || norm <= 0.0 {
            return Err(crate::VantageError::invalid_parameter(
                "norm",
                format!("normalization must be finite and positive, got {norm}"),
            ));
        }
        Ok(HistogramL1 { norm })
    }
}

impl Default for HistogramL1 {
    fn default() -> Self {
        HistogramL1::new()
    }
}

impl Metric<GrayHistogram> for HistogramL1 {
    #[inline]
    fn distance(&self, a: &GrayHistogram, b: &GrayHistogram) -> f64 {
        simd::u32_l1::<false>(simd::active(), a, b, self.norm, f64::INFINITY)
            .0
            .unwrap()
    }
}

impl BoundedMetric<GrayHistogram> for HistogramL1 {
    #[inline]
    fn distance_within(&self, a: &GrayHistogram, b: &GrayHistogram, bound: f64) -> Option<f64> {
        simd::u32_l1::<true>(simd::active(), a, b, self.norm, bound).0
    }

    #[inline]
    fn distance_within_frac(
        &self,
        a: &GrayHistogram,
        b: &GrayHistogram,
        bound: f64,
    ) -> (Option<f64>, f64) {
        simd::u32_l1::<true>(simd::active(), a, b, self.norm, bound)
    }
}

/// L1 histogram distance *between images*: extracts both histograms and
/// compares them. Convenient when indexing images directly by histogram
/// similarity; for repeated queries prefer extracting histograms once and
/// indexing `GrayHistogram` values with [`HistogramL1`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageHistogramL1 {
    inner: HistogramL1,
}

impl ImageHistogramL1 {
    /// Creates the metric with no normalization.
    pub fn new() -> Self {
        ImageHistogramL1 {
            inner: HistogramL1::new(),
        }
    }
}

impl Default for ImageHistogramL1 {
    fn default() -> Self {
        ImageHistogramL1::new()
    }
}

impl Metric<GrayImage> for ImageHistogramL1 {
    fn distance(&self, a: &GrayImage, b: &GrayImage) -> f64 {
        self.inner.distance(&gray_histogram(a), &gray_histogram(b))
    }
}

// Histogram extraction dominates this metric's cost, so abandoning the
// final 256-bin comparison saves nothing: the default full-compute
// fallback is the right implementation.
impl BoundedMetric<GrayImage> for ImageHistogramL1 {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_intensities() {
        let img = GrayImage::new(2, 2, vec![0, 0, 7, 255]).unwrap();
        let h = gray_histogram(&img);
        assert_eq!(h[0], 2);
        assert_eq!(h[7], 1);
        assert_eq!(h[255], 1);
        assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), 4);
    }

    #[test]
    fn l1_between_histograms() {
        let mut a = [0u32; 256];
        let mut b = [0u32; 256];
        a[3] = 10;
        b[3] = 4;
        b[9] = 2;
        assert_eq!(HistogramL1::new().distance(&a, &b), 8.0);
    }

    #[test]
    fn normalization_divides() {
        let mut a = [0u32; 256];
        a[0] = 100;
        let b = [0u32; 256];
        let m = HistogramL1::with_norm(10.0).unwrap();
        assert_eq!(m.distance(&a, &b), 10.0);
    }

    #[test]
    fn invalid_norm_rejected() {
        assert!(HistogramL1::with_norm(0.0).is_err());
    }

    #[test]
    fn image_histogram_metric_end_to_end() {
        let a = GrayImage::new(2, 1, vec![5, 5]).unwrap();
        let b = GrayImage::new(2, 1, vec![5, 6]).unwrap();
        // Histograms differ by one pixel moving bins: |1-0| + |2-1| = 2.
        assert_eq!(ImageHistogramL1::new().distance(&a, &b), 2.0);
        assert_eq!(ImageHistogramL1::new().distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn bounded_histogram_l1_agrees_with_full() {
        let mut a = [0u32; 256];
        let mut b = [0u32; 256];
        for i in 0..256 {
            a[i] = (i * 3) as u32;
            b[i] = (i * 5 % 97) as u32;
        }
        let m = HistogramL1::new();
        let d = m.distance(&a, &b);
        assert_eq!(m.distance_within(&a, &b, d), Some(d));
        assert_eq!(m.distance_within(&a, &b, d - 1.0), None);
        let (none, frac) = m.distance_within_frac(&a, &b, d * 0.1);
        assert_eq!(none, None);
        assert!(frac <= 1.0);
    }

    #[test]
    fn permuted_pixels_have_zero_histogram_distance() {
        // Histogram distance ignores spatial layout: a lower bound /
        // pseudometric behaviour the two-stage filter relies on.
        let a = GrayImage::new(2, 2, vec![1, 2, 3, 4]).unwrap();
        let b = GrayImage::new(2, 2, vec![4, 3, 2, 1]).unwrap();
        assert_eq!(ImageHistogramL1::new().distance(&a, &b), 0.0);
    }
}
