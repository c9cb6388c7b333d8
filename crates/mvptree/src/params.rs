//! Construction parameters for [`MvpTree`](crate::MvpTree).

use vantage_core::parallel::Threads;
use vantage_core::select::VantageSelector;
use vantage_core::{Result, VantageError};

/// How the *second* vantage point of a node is chosen.
///
/// The paper's rationale (§4.2): *"we chose the second vantage point to be
/// one of the farthest points from the first vantage point. If the two
/// vantage points were close to each other, they would not be able to
/// effectively partition the dataset."* The alternatives exist for the
/// ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecondVantage {
    /// The paper's choice: in leaves, the farthest point from the first
    /// vantage point; in internal nodes, a point from the farthest
    /// partition (the paper picks "an arbitrary object from SS2" — we pick
    /// randomly within it).
    #[default]
    Farthest,
    /// A uniformly random remaining point (ablation baseline).
    Random,
}

/// Parameters of an mvp-tree: the paper's `(m, k, p)` triple plus
/// selection knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct MvpParams {
    /// Number of partitions created by **each** vantage point (`m ≥ 2`).
    /// A node's fanout is `m²`.
    pub m: usize,
    /// Maximum fanout (capacity) of leaf nodes (`k ≥ 1`). The paper keeps
    /// `k` large so most points live in leaves.
    pub k: usize,
    /// Number of path distances kept per leaf-resident point (`p`). May
    /// exceed the tree height; unused slots simply never materialize.
    pub p: usize,
    /// Selector for **first** vantage points (paper: arbitrary/random).
    pub selector: VantageSelector,
    /// Selector for **second** vantage points.
    pub second: SecondVantage,
    /// Seed for all randomized choices; fixed seed ⇒ identical tree.
    pub seed: u64,
    /// Worker threads for construction. The built tree is bit-identical
    /// for every setting (see `DESIGN.md`, "Threading model"); this knob
    /// only trades wall-clock for cores.
    pub threads: Threads,
}

impl MvpParams {
    /// The paper's configuration `mvpt(m, k)` with `p` path distances and
    /// defaults for everything else.
    pub fn paper(m: usize, k: usize, p: usize) -> Self {
        MvpParams {
            m,
            k,
            p,
            selector: VantageSelector::Random,
            second: SecondVantage::Farthest,
            seed: 0,
            threads: Threads::Auto,
        }
    }

    /// A binary mvp-tree (`m = 2`) as presented in the paper's §4.2
    /// pseudo-code, with leaf capacity `k` and `p` path distances.
    pub fn binary(k: usize, p: usize) -> Self {
        MvpParams::paper(2, k, p)
    }

    /// Sets the first-vantage-point selector.
    pub fn selector(mut self, selector: VantageSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the second-vantage-point strategy.
    pub fn second(mut self, second: SecondVantage) -> Self {
        self.second = second;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the construction worker count (never changes the built tree).
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the parameter combination.
    ///
    /// # Errors
    ///
    /// Returns an error when `m < 2` or `k == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.m < 2 {
            return Err(VantageError::invalid_parameter(
                "m",
                format!("mvp-tree order must be at least 2, got {}", self.m),
            ));
        }
        if self.k == 0 {
            return Err(VantageError::invalid_parameter(
                "k",
                "leaf capacity must be at least 1",
            ));
        }
        self.selector.validate()
    }
}

impl Default for MvpParams {
    /// The paper's best-performing configuration on the vector workloads:
    /// `mvpt(3, 80)` with `p = 5`.
    fn default() -> Self {
        MvpParams::paper(3, 80, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constructor_sets_triple() {
        let p = MvpParams::paper(3, 80, 5);
        assert_eq!((p.m, p.k, p.p), (3, 80, 5));
        assert!(p.validate().is_ok());
        assert_eq!(p.second, SecondVantage::Farthest);
    }

    #[test]
    fn default_is_the_papers_best() {
        let p = MvpParams::default();
        assert_eq!((p.m, p.k, p.p), (3, 80, 5));
    }

    #[test]
    fn binary_sets_m_two() {
        assert_eq!(MvpParams::binary(16, 4).m, 2);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(MvpParams::paper(1, 10, 5).validate().is_err());
        assert!(MvpParams::paper(2, 0, 5).validate().is_err());
    }

    #[test]
    fn p_zero_is_allowed() {
        // p = 0 disables path filtering (an ablation point), not an error.
        assert!(MvpParams::paper(2, 5, 0).validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let p = MvpParams::paper(2, 4, 2)
            .seed(9)
            .second(SecondVantage::Random)
            .selector(VantageSelector::FirstItem)
            .threads(Threads::Fixed(3));
        assert_eq!(p.seed, 9);
        assert_eq!(p.second, SecondVantage::Random);
        assert_eq!(p.selector, VantageSelector::FirstItem);
        assert_eq!(p.threads, Threads::Fixed(3));
    }
}
