//! Gray-level images and the pixel-wise L1/L2 metrics of paper §5.1-B.
//!
//! The paper treats each 256×256 8-bit image as a 65 536-dimensional
//! Euclidean vector and accumulates pixel-by-pixel intensity differences.
//! To avoid huge distance values it normalizes: *"The L1 distance values
//! are normalized by 10000 … The L2 distance values are normalized by 100"*
//! — [`ImageL1`] and [`ImageL2`] default to those constants.
//!
//! Distances run over `u8` pixels with integer accumulation (exact up to
//! the normalization division, and fast: the inner loops auto-vectorize).

use crate::metric::{BoundedMetric, Metric};
use crate::simd;

/// An 8-bit single-channel (gray-level) raster image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// Creates an image from row-major pixel data.
    ///
    /// # Errors
    ///
    /// Returns an error when `pixels.len() != width * height` or either
    /// dimension is zero.
    pub fn new(width: u32, height: u32, pixels: Vec<u8>) -> crate::Result<Self> {
        if width == 0 || height == 0 {
            return Err(crate::VantageError::invalid_parameter(
                "dimensions",
                format!("image dimensions must be positive, got {width}x{height}"),
            ));
        }
        let expected = width as usize * height as usize;
        if pixels.len() != expected {
            return Err(crate::VantageError::invalid_parameter(
                "pixels",
                format!(
                    "expected {expected} pixels for a {width}x{height} image, got {}",
                    pixels.len()
                ),
            ));
        }
        Ok(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// An all-zero (black) image.
    pub fn black(width: u32, height: u32) -> crate::Result<Self> {
        GrayImage::new(width, height, vec![0; width as usize * height as usize])
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Row-major pixel data.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Mutable row-major pixel data.
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y as usize * self.width as usize + x as usize]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn set(&mut self, x: u32, y: u32, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y as usize * self.width as usize + x as usize] = value;
    }

    /// Number of pixels (the dimensionality of the implied vector).
    pub fn dimensions(&self) -> usize {
        self.pixels.len()
    }
}

fn check_same_shape(a: &GrayImage, b: &GrayImage) {
    assert!(
        a.width == b.width && a.height == b.height,
        "image metric requires equal shapes ({}x{} vs {}x{})",
        a.width,
        a.height,
        b.width,
        b.height
    );
}

/// Pixel-wise L1 metric between equal-shape gray images, divided by a
/// normalization constant (paper default 10 000).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageL1 {
    norm: f64,
}

impl ImageL1 {
    /// The paper's normalization constant for L1 image distances.
    pub const PAPER_NORM: f64 = 10_000.0;

    /// Creates the metric with the paper's normalization (÷ 10 000).
    pub fn paper() -> Self {
        ImageL1 {
            norm: Self::PAPER_NORM,
        }
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
        Ok(ImageL1 { norm })
    }

    /// The normalization constant.
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

impl Default for ImageL1 {
    fn default() -> Self {
        ImageL1::paper()
    }
}

impl ImageL1 {
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(
        &self,
        a: &GrayImage,
        b: &GrayImage,
        bound: f64,
    ) -> (Option<f64>, f64) {
        check_same_shape(a, b);
        simd::byte_l1::<BOUNDED>(simd::active(), &a.pixels, &b.pixels, self.norm, bound)
    }
}

impl Metric<GrayImage> for ImageL1 {
    #[inline]
    fn distance(&self, a: &GrayImage, b: &GrayImage) -> f64 {
        self.kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<GrayImage> for ImageL1 {
    #[inline]
    fn distance_within(&self, a: &GrayImage, b: &GrayImage, bound: f64) -> Option<f64> {
        self.kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &GrayImage, b: &GrayImage, bound: f64) -> (Option<f64>, f64) {
        self.kernel::<true>(a, b, bound)
    }
}

/// Pixel-wise L2 (Euclidean) metric between equal-shape gray images,
/// divided by a normalization constant (paper default 100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageL2 {
    norm: f64,
}

impl ImageL2 {
    /// The paper's normalization constant for L2 image distances.
    pub const PAPER_NORM: f64 = 100.0;

    /// Creates the metric with the paper's normalization (÷ 100).
    pub fn paper() -> Self {
        ImageL2 {
            norm: Self::PAPER_NORM,
        }
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
        Ok(ImageL2 { norm })
    }

    /// The normalization constant.
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

impl Default for ImageL2 {
    fn default() -> Self {
        ImageL2::paper()
    }
}

impl ImageL2 {
    #[inline(always)]
    fn kernel<const BOUNDED: bool>(
        &self,
        a: &GrayImage,
        b: &GrayImage,
        bound: f64,
    ) -> (Option<f64>, f64) {
        check_same_shape(a, b);
        simd::byte_l2::<BOUNDED>(simd::active(), &a.pixels, &b.pixels, self.norm, bound)
    }
}

impl Metric<GrayImage> for ImageL2 {
    #[inline]
    fn distance(&self, a: &GrayImage, b: &GrayImage) -> f64 {
        self.kernel::<false>(a, b, f64::INFINITY).0.unwrap()
    }
}

impl BoundedMetric<GrayImage> for ImageL2 {
    #[inline]
    fn distance_within(&self, a: &GrayImage, b: &GrayImage, bound: f64) -> Option<f64> {
        self.kernel::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &GrayImage, b: &GrayImage, bound: f64) -> (Option<f64>, f64) {
        self.kernel::<true>(a, b, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(pixels: Vec<u8>) -> GrayImage {
        GrayImage::new(2, 2, pixels).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(GrayImage::new(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::new(2, 2, vec![0; 3]).is_err());
        assert!(GrayImage::new(0, 2, vec![]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut i = GrayImage::black(3, 2).unwrap();
        i.set(2, 1, 200);
        assert_eq!(i.get(2, 1), 200);
        assert_eq!(i.get(0, 0), 0);
        assert_eq!(i.dimensions(), 6);
    }

    #[test]
    fn l1_accumulates_absolute_differences() {
        let a = img(vec![10, 20, 30, 40]);
        let b = img(vec![15, 10, 30, 50]);
        let m = ImageL1::with_norm(1.0).unwrap();
        assert_eq!(m.distance(&a, &b), 25.0);
    }

    #[test]
    fn l1_paper_normalization() {
        let a = img(vec![0, 0, 0, 0]);
        let b = img(vec![255, 255, 255, 255]);
        let m = ImageL1::paper();
        assert!((m.distance(&a, &b) - (255.0 * 4.0) / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn l2_is_euclidean_over_pixels() {
        let a = img(vec![0, 0, 0, 0]);
        let b = img(vec![3, 4, 0, 0]);
        let m = ImageL2::with_norm(1.0).unwrap();
        assert_eq!(m.distance(&a, &b), 5.0);
        let paper = ImageL2::paper();
        assert!((paper.distance(&a, &b) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn identity_distance_is_zero() {
        let a = img(vec![9, 9, 9, 9]);
        assert_eq!(ImageL1::paper().distance(&a, &a.clone()), 0.0);
        assert_eq!(ImageL2::paper().distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn symmetric_wraparound_free() {
        // abs_diff on u8 must not wrap: 0 vs 255.
        let a = img(vec![0, 255, 0, 255]);
        let b = img(vec![255, 0, 255, 0]);
        let m = ImageL1::with_norm(1.0).unwrap();
        assert_eq!(m.distance(&a, &b), 255.0 * 4.0);
        assert_eq!(m.distance(&a, &b), m.distance(&b, &a));
    }

    #[test]
    fn bad_norms_rejected() {
        assert!(ImageL1::with_norm(0.0).is_err());
        assert!(ImageL2::with_norm(-1.0).is_err());
        assert!(ImageL2::with_norm(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn shape_mismatch_panics() {
        let a = GrayImage::black(2, 2).unwrap();
        let b = GrayImage::black(2, 3).unwrap();
        ImageL1::paper().distance(&a, &b);
    }

    #[test]
    fn bounded_image_metrics_abandon_far_pairs() {
        let a = GrayImage::new(256, 256, vec![0; 65536]).unwrap();
        let b = GrayImage::new(256, 256, vec![200; 65536]).unwrap();
        let l1 = ImageL1::paper();
        let l2 = ImageL2::paper();
        let d1 = l1.distance(&a, &b);
        let d2 = l2.distance(&a, &b);
        assert_eq!(l1.distance_within(&a, &b, d1), Some(d1));
        assert_eq!(l2.distance_within(&a, &b, d2), Some(d2));
        let (none, frac) = l1.distance_within_frac(&a, &b, d1 * 0.01);
        assert_eq!(none, None);
        assert!(
            frac < 0.05,
            "expected early abandon, did {frac} of the work"
        );
        assert_eq!(l2.distance_within(&a, &b, d2 * 0.5), None);
    }
}
