//! Structural statistics.

use crate::arena::{VpArenaView, VpNodeView, NO_CHILD};
use crate::tree::VpTree;

/// Shape summary of a built vp-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpTreeStats {
    /// Number of interior nodes (= number of vantage points).
    pub internal_nodes: usize,
    /// Number of leaf buckets.
    pub leaf_nodes: usize,
    /// Number of data points living in leaves.
    pub leaf_items: usize,
    /// Number of data points serving as vantage points.
    pub vantage_points: usize,
    /// Height: edges on the longest root-to-leaf path (0 for a single
    /// leaf, 0 for an empty tree).
    pub height: usize,
    /// Largest leaf bucket.
    pub max_leaf_len: usize,
}

impl<T, M, S> VpTree<T, M, S> {
    /// Computes structural statistics by walking the tree.
    pub fn stats(&self) -> VpTreeStats {
        let mut s = VpTreeStats {
            internal_nodes: 0,
            leaf_nodes: 0,
            leaf_items: 0,
            vantage_points: 0,
            height: 0,
            max_leaf_len: 0,
        };
        if let Some(root) = self.root {
            s.height = walk(self.arena.view(), root, &mut s);
        }
        s
    }
}

fn walk(view: VpArenaView<'_>, node: u32, s: &mut VpTreeStats) -> usize {
    match view.node(node) {
        VpNodeView::Leaf { items, .. } => {
            s.leaf_nodes += 1;
            s.leaf_items += items.len();
            s.max_leaf_len = s.max_leaf_len.max(items.len());
            0
        }
        VpNodeView::Internal { children, .. } => {
            s.internal_nodes += 1;
            s.vantage_points += 1;
            1 + children
                .iter()
                .filter(|&&c| c != NO_CHILD)
                .map(|&c| walk(view, c, s))
                .max()
                .unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::params::VpTreeParams;
    use crate::tree::VpTree;
    use vantage_core::prelude::*;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn empty_tree_stats() {
        let t = VpTree::build(points(0), Euclidean, VpTreeParams::binary()).unwrap();
        let s = t.stats();
        assert_eq!(s.internal_nodes, 0);
        assert_eq!(s.leaf_nodes, 0);
        assert_eq!(s.height, 0);
    }

    #[test]
    fn counts_partition_items() {
        let t = VpTree::build(
            points(100),
            Euclidean,
            VpTreeParams::with_order(3).leaf_capacity(4).seed(2),
        )
        .unwrap();
        let s = t.stats();
        assert_eq!(s.leaf_items + s.vantage_points, 100);
        assert!(s.max_leaf_len <= 4);
        assert!(s.height >= 3); // 3-way with capacity 4 over 100 points
    }

    #[test]
    fn binary_leaf1_height_is_logarithmic() {
        let t = VpTree::build(points(256), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
        let s = t.stats();
        // Perfectly balanced would be 8; allow slack for the
        // vantage-point removals.
        assert!(s.height >= 7 && s.height <= 12, "height {}", s.height);
    }

    #[test]
    fn higher_order_is_shorter() {
        let bin = VpTree::build(points(500), Euclidean, VpTreeParams::binary().seed(1))
            .unwrap()
            .stats();
        let wide = VpTree::build(points(500), Euclidean, VpTreeParams::with_order(5).seed(1))
            .unwrap()
            .stats();
        assert!(wide.height < bin.height);
    }
}
