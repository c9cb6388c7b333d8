//! Synthetic gray-level MRI-like head images (paper §5.1-B substitute).
//!
//! The paper evaluates on *"1151 MRI images with 256×256 pixels and 256
//! values of graylevel … a collection of MRI head scans of several
//! people"*. That dataset is not available, so this module generates the
//! closest synthetic equivalent.
//!
//! **Why the substitution preserves the relevant behaviour.** The index
//! structures only ever observe the images through pixel-wise L1/L2
//! distances; what determines index performance is the *pairwise distance
//! distribution* (paper §5.2). Real head scans of several people produce
//! the bimodal histograms of Figures 6–7: scans of the *same* head are
//! close (one tight mode), scans of *different* heads are far apart (a
//! broad distant mode). The generator reproduces exactly that structure:
//!
//! * each **subject** gets fixed anatomy — head ellipse geometry, skull
//!   ring thickness and brightness, brain tissue intensity, texture
//!   phases, ventricle placement;
//! * each **slice** of a subject varies smoothly along a head profile
//!   (axial cross-sections shrink toward the crown) with small brightness
//!   modulation and per-pixel noise;
//! * cardinality (1 151), resolution (256×256), depth (8-bit) and the
//!   paper's L1/10 000, L2/100 normalizations are all matched.
//!
//! The regenerated Figure 6/7 histograms (see EXPERIMENTS.md) show the
//! same two-peak shape the paper reports.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::metrics::image::GrayImage;
use vantage_core::{Result, VantageError};

/// Configuration for the synthetic MRI generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MriConfig {
    /// Number of distinct "people" (subjects with fixed anatomy).
    pub subjects: usize,
    /// Axial slices generated per subject.
    pub images_per_subject: usize,
    /// Truncate the output to exactly this many images (the paper's
    /// 1 151 is not a multiple of anything convenient).
    pub total: Option<usize>,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Per-pixel uniform noise amplitude (intensity levels).
    pub noise: u8,
    /// RNG seed.
    pub seed: u64,
}

impl MriConfig {
    /// The paper-scale dataset: 12 subjects × 96 slices truncated to
    /// 1 151 images of 256×256.
    pub fn paper(seed: u64) -> Self {
        MriConfig {
            subjects: 12,
            images_per_subject: 96,
            total: Some(1151),
            width: 256,
            height: 256,
            noise: 10,
            seed,
        }
    }

    /// A reduced configuration for fast test/bench runs (same generator,
    /// same distance-distribution shape, smaller images and counts).
    pub fn quick(seed: u64) -> Self {
        MriConfig {
            subjects: 6,
            images_per_subject: 12,
            total: None,
            width: 64,
            height: 64,
            noise: 10,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for zero dimensions or a `total` exceeding the
    /// generated count.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 || self.height == 0 {
            return Err(VantageError::invalid_parameter(
                "dimensions",
                "image dimensions must be positive",
            ));
        }
        if let Some(total) = self.total {
            if total > self.subjects * self.images_per_subject {
                return Err(VantageError::invalid_parameter(
                    "total",
                    format!(
                        "requested {total} images but only {} are generated",
                        self.subjects * self.images_per_subject
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Fixed per-subject anatomy.
struct Subject {
    cx: f64,
    cy: f64,
    /// Head semi-axes as fractions of width/height.
    a: f64,
    b: f64,
    /// Skull ring thickness as a fraction of the normalized radius.
    skull_thickness: f64,
    skull_intensity: f64,
    brain_base: f64,
    /// Linear intensity gradient across the brain.
    grad_x: f64,
    grad_y: f64,
    /// Sinusoidal tissue texture.
    tex_fx: f64,
    tex_fy: f64,
    tex_phase_x: f64,
    tex_phase_y: f64,
    tex_amp: f64,
    /// Ventricles: two dark ellipses mirrored about the midline.
    vent_dx: f64,
    vent_dy: f64,
    vent_r: f64,
    vent_depth: f64,
}

impl Subject {
    fn sample(rng: &mut StdRng) -> Self {
        Subject {
            cx: 0.5 + rng.random_range(-0.05..0.05),
            cy: 0.5 + rng.random_range(-0.05..0.05),
            a: rng.random_range(0.30..0.42),
            b: rng.random_range(0.34..0.46),
            skull_thickness: rng.random_range(0.06..0.12),
            skull_intensity: rng.random_range(190.0..240.0),
            brain_base: rng.random_range(90.0..150.0),
            grad_x: rng.random_range(-25.0..25.0),
            grad_y: rng.random_range(-25.0..25.0),
            tex_fx: rng.random_range(2.0..6.0),
            tex_fy: rng.random_range(2.0..6.0),
            tex_phase_x: rng.random_range(0.0..std::f64::consts::TAU),
            tex_phase_y: rng.random_range(0.0..std::f64::consts::TAU),
            tex_amp: rng.random_range(6.0..18.0),
            vent_dx: rng.random_range(0.08..0.16),
            vent_dy: rng.random_range(-0.08..0.08),
            vent_r: rng.random_range(0.08..0.16),
            vent_depth: rng.random_range(40.0..80.0),
        }
    }

    /// Renders one axial slice. `t ∈ [0, 1]` sweeps chin-to-crown;
    /// cross-sections follow a spherical head profile.
    fn render(&self, t: f64, width: u32, height: u32, noise: u8, rng: &mut StdRng) -> GrayImage {
        // A band of mid-head slices (not chin-to-crown): cross-sections
        // vary smoothly but stay recognizably "the same head", which is
        // what makes the collection's distance distribution bimodal
        // (within-subject pairs form a tight near mode).
        let z = (t - 0.5) * 0.7; // z ∈ [−0.35, 0.35]
        let scale = (1.0 - z * z).sqrt();
        let brightness = 1.0 + 0.03 * (t * std::f64::consts::TAU).sin();
        let w = f64::from(width);
        let h = f64::from(height);
        let ax = self.a * scale;
        let by = self.b * scale;
        let noise_amp = f64::from(noise);
        let mut pixels = Vec::with_capacity((width * height) as usize);
        for y in 0..height {
            let ny = (f64::from(y) / h - self.cy) / by;
            for x in 0..width {
                let nx = (f64::from(x) / w - self.cx) / ax;
                let rho2 = nx * nx + ny * ny;
                let noise_term = rng.random_range(-noise_amp..=noise_amp);
                let value = if rho2 > 1.0 {
                    // Background: dark with faint noise.
                    8.0 + noise_term.abs()
                } else {
                    let rho = rho2.sqrt();
                    if rho > 1.0 - self.skull_thickness {
                        self.skull_intensity * brightness + noise_term
                    } else {
                        let mut v = self.brain_base * brightness
                            + self.grad_x * nx
                            + self.grad_y * ny
                            + self.tex_amp
                                * (self.tex_fx * nx * std::f64::consts::PI + self.tex_phase_x)
                                    .sin()
                                * (self.tex_fy * ny * std::f64::consts::PI + self.tex_phase_y)
                                    .sin();
                        // Two mirrored dark ventricles whose depth fades
                        // smoothly toward the band edges (no abrupt
                        // appearance that would split the within-subject
                        // mode).
                        let vent_strength = 1.0 - (2.0 * (t - 0.5)).powi(2);
                        for side in [-1.0, 1.0] {
                            let vx = (nx - side * self.vent_dx) / self.vent_r;
                            let vy = (ny - self.vent_dy) / (self.vent_r * 1.8);
                            let vr2 = vx * vx + vy * vy;
                            if vr2 < 1.0 {
                                v -= self.vent_depth * vent_strength * (1.0 - vr2);
                            }
                        }
                        v + noise_term
                    }
                };
                pixels.push(value.clamp(0.0, 255.0) as u8);
            }
        }
        GrayImage::new(width, height, pixels).expect("pixel count matches dimensions")
    }
}

/// Generates the synthetic MRI-like dataset. Images are emitted subject by
/// subject (subject `s` occupies indices
/// `s·images_per_subject .. (s+1)·images_per_subject`, before any `total`
/// truncation).
///
/// # Errors
///
/// Returns an error when the configuration is invalid.
pub fn synthetic_mri_images(config: &MriConfig) -> Result<Vec<GrayImage>> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.subjects * config.images_per_subject);
    for _ in 0..config.subjects {
        let subject = Subject::sample(&mut rng);
        for i in 0..config.images_per_subject {
            let t = if config.images_per_subject <= 1 {
                0.5
            } else {
                i as f64 / (config.images_per_subject - 1) as f64
            };
            out.push(subject.render(t, config.width, config.height, config.noise, &mut rng));
        }
    }
    if let Some(total) = config.total {
        out.truncate(total);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn quick() -> MriConfig {
        MriConfig::quick(1)
    }

    #[test]
    fn shape_and_count() {
        let imgs = synthetic_mri_images(&quick()).unwrap();
        assert_eq!(imgs.len(), 72);
        assert!(imgs.iter().all(|i| i.width() == 64 && i.height() == 64));
    }

    #[test]
    fn total_truncation() {
        let mut c = quick();
        c.total = Some(50);
        assert_eq!(synthetic_mri_images(&c).unwrap().len(), 50);
        c.total = Some(1000);
        assert!(synthetic_mri_images(&c).is_err());
    }

    #[test]
    fn seeded_determinism() {
        let a = synthetic_mri_images(&quick()).unwrap();
        let b = synthetic_mri_images(&quick()).unwrap();
        assert_eq!(a, b);
        let mut c = quick();
        c.seed = 2;
        assert_ne!(a, synthetic_mri_images(&c).unwrap());
    }

    #[test]
    fn images_use_a_wide_intensity_range() {
        let imgs = synthetic_mri_images(&quick()).unwrap();
        let img = &imgs[30];
        let min = *img.pixels().iter().min().unwrap();
        let max = *img.pixels().iter().max().unwrap();
        assert!(min < 30, "background should be dark, min {min}");
        assert!(max > 150, "skull should be bright, max {max}");
    }

    #[test]
    fn within_subject_distances_are_smaller_than_cross_subject() {
        // The property that makes Figures 6–7 bimodal.
        let imgs = synthetic_mri_images(&quick()).unwrap();
        let m = ImageL1::with_norm(1.0).unwrap();
        let per = 12;
        // Adjacent slices of subject 0 vs same-index slices of other
        // subjects.
        let within: f64 = (0..per - 1)
            .map(|i| m.distance(&imgs[i], &imgs[i + 1]))
            .sum::<f64>()
            / (per - 1) as f64;
        let cross: f64 = (1..6)
            .map(|s| m.distance(&imgs[5], &imgs[s * per + 5]))
            .sum::<f64>()
            / 5.0;
        assert!(
            within * 1.5 < cross,
            "within {within} should be well below cross {cross}"
        );
    }

    #[test]
    fn distance_histogram_is_bimodal_ish() {
        // Coarse check: the pairwise histogram has substantial mass both
        // well below and well above its midpoint (Figures 6–7 shape).
        let imgs = synthetic_mri_images(&quick()).unwrap();
        let m = ImageL1::with_norm(10_000.0).unwrap();
        let h = DistanceHistogram::pairwise(&imgs, &m, 1.0, 2).unwrap();
        let mid = (h.min() + h.max()) / 2.0;
        let (mut below, mut above) = (0u64, 0u64);
        for (edge, count) in h.rows() {
            if edge < mid {
                below += count;
            } else {
                above += count;
            }
        }
        let total = below + above;
        assert!(below > total / 20, "low mode missing: {below}/{total}");
        assert!(above > total / 20, "high mode missing: {above}/{total}");
    }

    #[test]
    fn invalid_dimensions_rejected() {
        let mut c = quick();
        c.width = 0;
        assert!(synthetic_mri_images(&c).is_err());
    }

    #[test]
    fn single_image_per_subject() {
        let c = MriConfig {
            subjects: 2,
            images_per_subject: 1,
            total: None,
            width: 32,
            height: 32,
            noise: 5,
            seed: 3,
        };
        assert_eq!(synthetic_mri_images(&c).unwrap().len(), 2);
    }
}
