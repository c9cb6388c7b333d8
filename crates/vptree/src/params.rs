//! Construction parameters for [`VpTree`](crate::VpTree).

use vantage_core::{Result, VantageError};

use vantage_core::parallel::Threads;
use vantage_core::select::VantageSelector;

/// Parameters controlling vp-tree construction.
///
/// The paper's `vpt(m)` notation corresponds to `order = m` with the
/// defaults for everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct VpTreeParams {
    /// Number of spherical cuts per vantage point (`m ≥ 2`); the tree
    /// fanout. §3.3: *"The order of the tree corresponds to the number of
    /// partitions to be made."*
    pub order: usize,
    /// Maximum number of data points stored in one leaf (`≥ 1`). The paper
    /// baseline keeps single data-point references in leaves (capacity 1).
    pub leaf_capacity: usize,
    /// How vantage points are chosen.
    pub selector: VantageSelector,
    /// Seed for the selector's randomness; fixed seed ⇒ identical tree.
    pub seed: u64,
    /// Worker threads for construction. The built tree is bit-identical
    /// for every setting (see `DESIGN.md`, "Threading model"); this knob
    /// only trades wall-clock for cores.
    pub threads: Threads,
}

impl VpTreeParams {
    /// The paper's binary vp-tree, `vpt(2)`.
    pub fn binary() -> Self {
        VpTreeParams::with_order(2)
    }

    /// An m-way vp-tree with paper defaults, `vpt(m)`.
    pub fn with_order(order: usize) -> Self {
        VpTreeParams {
            order,
            leaf_capacity: 1,
            selector: VantageSelector::Random,
            seed: 0,
            threads: Threads::Auto,
        }
    }

    /// Sets the leaf capacity.
    pub fn leaf_capacity(mut self, capacity: usize) -> Self {
        self.leaf_capacity = capacity;
        self
    }

    /// Sets the vantage-point selector.
    pub fn selector(mut self, selector: VantageSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the RNG seed used by randomized selectors.
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
    /// Returns an error when `order < 2` or `leaf_capacity == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.order < 2 {
            return Err(VantageError::invalid_parameter(
                "order",
                format!("vp-tree order must be at least 2, got {}", self.order),
            ));
        }
        if self.leaf_capacity == 0 {
            return Err(VantageError::invalid_parameter(
                "leaf_capacity",
                "leaf capacity must be at least 1",
            ));
        }
        self.selector.validate()
    }
}

impl Default for VpTreeParams {
    fn default() -> Self {
        VpTreeParams::binary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_defaults() {
        let p = VpTreeParams::binary();
        assert_eq!(p.order, 2);
        assert_eq!(p.leaf_capacity, 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let p = VpTreeParams::with_order(3)
            .leaf_capacity(10)
            .seed(42)
            .selector(VantageSelector::FirstItem)
            .threads(Threads::Fixed(2));
        assert_eq!(p.order, 3);
        assert_eq!(p.leaf_capacity, 10);
        assert_eq!(p.seed, 42);
        assert_eq!(p.threads, Threads::Fixed(2));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn order_below_two_rejected() {
        assert!(VpTreeParams::with_order(1).validate().is_err());
        assert!(VpTreeParams::with_order(0).validate().is_err());
    }

    #[test]
    fn zero_leaf_capacity_rejected() {
        assert!(VpTreeParams::binary().leaf_capacity(0).validate().is_err());
    }
}
