//! Clustered vectors (paper §5.1-A, second data set).
//!
//! The paper's construction, verbatim: *"First, a random vector is
//! generated from the hypercube with each side of size 1. This random
//! vector becomes the seed for the cluster. Then, the other vectors in the
//! cluster are generated from this vector or a previously generated vector
//! in the same cluster simply by altering each dimension of that vector
//! with the addition of a random value chosen from the interval [−ε, ε]."*
//!
//! Because each point derives from a *previously generated* point (a
//! random walk, not a ball around the seed), differences accumulate:
//! *"there are many points that are distant from the seed of the cluster
//! (and from each other), and many are outside of the hypercube of side
//! 1"* — giving the wide distance distribution of Figure 5 (the paper's
//! experiments use cluster size 1 000 and ε = 0.15).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::{Result, VantageError};

/// Configuration for the paper's clustered-vector generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredConfig {
    /// Number of clusters.
    pub clusters: usize,
    /// Points per cluster (the paper uses 1 000).
    pub cluster_size: usize,
    /// Vector dimensionality (the paper uses 20).
    pub dim: usize,
    /// Perturbation half-width ε (the paper uses 0.15, suggesting
    /// 0.1–0.2).
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ClusteredConfig {
    /// The paper's configuration: 50 clusters × 1 000 points = 50 000
    /// 20-dimensional vectors with ε = 0.15.
    pub fn paper(seed: u64) -> Self {
        ClusteredConfig {
            clusters: 50,
            cluster_size: 1000,
            dim: 20,
            epsilon: 0.15,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when `cluster_size == 0` with clusters requested,
    /// or ε is not positive and finite.
    pub fn validate(&self) -> Result<()> {
        if self.clusters > 0 && self.cluster_size == 0 {
            return Err(VantageError::invalid_parameter(
                "cluster_size",
                "clusters must contain at least one point",
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(VantageError::invalid_parameter(
                "epsilon",
                format!("epsilon must be finite and positive, got {}", self.epsilon),
            ));
        }
        Ok(())
    }
}

/// Generates clustered vectors per the paper's construction. Points are
/// emitted cluster by cluster (cluster `c` occupies indices
/// `c·cluster_size .. (c+1)·cluster_size`).
///
/// # Errors
///
/// Returns an error when the configuration is invalid.
pub fn clustered_vectors(config: &ClusteredConfig) -> Result<Vec<Vec<f64>>> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(config.clusters * config.cluster_size);
    for _ in 0..config.clusters {
        let cluster_start = out.len();
        let seed_vec: Vec<f64> = (0..config.dim)
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        out.push(seed_vec);
        for generated in 1..config.cluster_size {
            // "from this vector or a previously generated vector in the
            // same cluster": pick any earlier member uniformly.
            let parent_idx = cluster_start + rng.random_range(0..generated);
            let parent = out[parent_idx].clone();
            let child: Vec<f64> = parent
                .iter()
                .map(|&x| x + rng.random_range(-config.epsilon..=config.epsilon))
                .collect();
            out.push(child);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn small() -> ClusteredConfig {
        ClusteredConfig {
            clusters: 5,
            cluster_size: 100,
            dim: 20,
            epsilon: 0.15,
            seed: 1,
        }
    }

    #[test]
    fn shape_is_correct() {
        let v = clustered_vectors(&small()).unwrap();
        assert_eq!(v.len(), 500);
        assert!(v.iter().all(|x| x.len() == 20));
    }

    #[test]
    fn seeded_determinism() {
        assert_eq!(
            clustered_vectors(&small()).unwrap(),
            clustered_vectors(&small()).unwrap()
        );
        let mut other = small();
        other.seed = 9;
        assert_ne!(
            clustered_vectors(&small()).unwrap(),
            clustered_vectors(&other).unwrap()
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = small();
        c.cluster_size = 0;
        assert!(clustered_vectors(&c).is_err());
        let mut c = small();
        c.epsilon = 0.0;
        assert!(clustered_vectors(&c).is_err());
        let mut c = small();
        c.epsilon = f64::NAN;
        assert!(clustered_vectors(&c).is_err());
    }

    #[test]
    fn distribution_is_wider_than_uniform() {
        // Figure 5 vs Figure 4: the clustered set has a much wider
        // pairwise-distance distribution.
        let clustered = clustered_vectors(&small()).unwrap();
        let uniform = crate::uniform::uniform_vectors(500, 20, 1);
        let hc = DistanceHistogram::pairwise(&clustered, &Euclidean, 0.01, 2).unwrap();
        let hu = DistanceHistogram::pairwise(&uniform, &Euclidean, 0.01, 2).unwrap();
        let spread_c = hc.max() - hc.min();
        let spread_u = hu.max() - hu.min();
        assert!(
            spread_c > 1.3 * spread_u,
            "clustered spread {spread_c} vs uniform {spread_u}"
        );
    }

    #[test]
    fn within_cluster_distances_are_smaller_than_cross() {
        let v = clustered_vectors(&small()).unwrap();
        let within = Euclidean.distance(&v[0], &v[50]);
        // Average cross-cluster distance over a few pairs.
        let cross: f64 = (1..5)
            .map(|c| Euclidean.distance(&v[0], &v[c * 100 + 50]))
            .sum::<f64>()
            / 4.0;
        assert!(
            within < cross,
            "within-cluster {within} should be below cross-cluster {cross}"
        );
    }

    #[test]
    fn walk_escapes_the_hypercube_as_the_paper_notes() {
        let mut c = small();
        c.cluster_size = 1000;
        c.clusters = 1;
        let v = clustered_vectors(&c).unwrap();
        let escaped = v.iter().flatten().any(|&x| !(0.0..=1.0).contains(&x));
        assert!(escaped, "the random walk should leave [0,1] sometimes");
    }

    #[test]
    fn zero_clusters_is_empty() {
        let mut c = small();
        c.clusters = 0;
        assert!(clustered_vectors(&c).unwrap().is_empty());
    }
}
