//! Structural statistics and the paper's §4.2 counting identities.

use crate::arena::{MvpArenaView, MvpNodeView, NO_CHILD};
use crate::tree::MvpTree;

/// Shape summary of a built mvp-tree.
///
/// The paper's closed forms for a *full* tree of height `h` with
/// parameters `(m, k, p)` — `2·(m^{2h} − 1)/(m² − 1)` vantage points and
/// `m^{2(h−1)}·k` leaf points — correspond here to
/// `vantage_points` and `leaf_entries`; real datasets rarely produce
/// perfectly full trees, but `vantage_points + leaf_entries` always equals
/// the dataset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvpTreeStats {
    /// Number of interior nodes.
    pub internal_nodes: usize,
    /// Number of leaf nodes.
    pub leaf_nodes: usize,
    /// Number of data points stored as leaf entries (with `D1`/`D2`/`PATH`
    /// arrays).
    pub leaf_entries: usize,
    /// Number of data points serving as vantage points (two per internal
    /// node plus one or two per leaf).
    pub vantage_points: usize,
    /// Height: edges on the longest root-to-leaf path (0 for a single
    /// leaf or an empty tree).
    pub height: usize,
    /// Largest number of entries in any leaf.
    pub max_leaf_entries: usize,
    /// Longest `PATH` array stored in any leaf entry.
    pub max_path_len: usize,
}

impl MvpTreeStats {
    /// Fraction of data points living in leaves — the quantity the paper
    /// maximizes by keeping `k` large (§4.2: *"It is a good idea to keep k
    /// large so that most of the data items are kept in the leaves"*).
    pub fn leaf_fraction(&self) -> f64 {
        let total = self.leaf_entries + self.vantage_points;
        if total == 0 {
            0.0
        } else {
            self.leaf_entries as f64 / total as f64
        }
    }

    /// The paper's §4.2 closed form: *"A full mvp-tree with parameters
    /// (m, k, p) and height h has 2·(m^{2h} − 1)/(m² − 1) vantage
    /// points"* — two per node of a complete m²-ary tree with `levels`
    /// levels (the paper's `h` counts levels; [`MvpTreeStats::height`]
    /// counts edges, so `levels = height + 1`).
    pub fn full_tree_vantage_points(m: usize, levels: u32) -> u64 {
        let fanout = (m * m) as u64;
        2 * (fanout.pow(levels) - 1) / (fanout - 1)
    }

    /// The paper's §4.2 companion form: a full tree of `levels` levels
    /// stores *"(m^{2(h−1)})·k"* data points in its leaves (leaf count ×
    /// leaf capacity).
    pub fn full_tree_leaf_points(m: usize, levels: u32, k: usize) -> u64 {
        ((m * m) as u64).pow(levels - 1) * k as u64
    }
}

impl<T, M, S> MvpTree<T, M, S> {
    /// Computes structural statistics by walking the tree.
    pub fn stats(&self) -> MvpTreeStats {
        let mut s = MvpTreeStats {
            internal_nodes: 0,
            leaf_nodes: 0,
            leaf_entries: 0,
            vantage_points: 0,
            height: 0,
            max_leaf_entries: 0,
            max_path_len: 0,
        };
        if let Some(root) = self.root {
            s.height = walk(self.arena.view(), root, &mut s);
        }
        s
    }
}

fn walk(view: MvpArenaView<'_>, node: u32, s: &mut MvpTreeStats) -> usize {
    match view.node(node) {
        MvpNodeView::Leaf { vp2, entries, .. } => {
            s.leaf_nodes += 1;
            s.leaf_entries += entries.len();
            s.vantage_points += 1 + usize::from(vp2.is_some());
            s.max_leaf_entries = s.max_leaf_entries.max(entries.len());
            if !entries.is_empty() {
                // PATH lengths are uniform within a leaf.
                s.max_path_len = s.max_path_len.max(entries.path_len());
            }
            0
        }
        MvpNodeView::Internal { children, .. } => {
            s.internal_nodes += 1;
            s.vantage_points += 2;
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
    use crate::params::MvpParams;
    use crate::stats::MvpTreeStats;
    use crate::tree::MvpTree;
    use vantage_core::prelude::*;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn empty_tree_stats() {
        let s = MvpTree::build(points(0), Euclidean, MvpParams::binary(4, 2))
            .unwrap()
            .stats();
        assert_eq!(s.internal_nodes + s.leaf_nodes, 0);
        assert_eq!(s.leaf_fraction(), 0.0);
    }

    #[test]
    fn conservation_of_points() {
        for n in [1, 2, 3, 10, 100, 777] {
            let s = MvpTree::build(points(n), Euclidean, MvpParams::paper(3, 9, 5).seed(2))
                .unwrap()
                .stats();
            assert_eq!(s.leaf_entries + s.vantage_points, n, "n={n}");
        }
    }

    #[test]
    fn large_k_puts_most_points_in_leaves() {
        let small_k = MvpTree::build(points(2000), Euclidean, MvpParams::paper(3, 9, 5))
            .unwrap()
            .stats();
        let large_k = MvpTree::build(points(2000), Euclidean, MvpParams::paper(3, 80, 5))
            .unwrap()
            .stats();
        assert!(large_k.leaf_fraction() > small_k.leaf_fraction());
        assert!(large_k.leaf_fraction() > 0.9);
    }

    #[test]
    fn mvp_tree_is_shorter_than_equivalent_vp_tree() {
        // Fanout m² vs m: the mvp-tree should be roughly half the height
        // of a vp-tree with the same m and comparable leaf handling.
        let mvp = MvpTree::build(points(3000), Euclidean, MvpParams::paper(2, 1, 0).seed(1))
            .unwrap()
            .stats();
        use vantage_vptree::{VpTree, VpTreeParams};
        let vp = VpTree::build(points(3000), Euclidean, VpTreeParams::binary().seed(1))
            .unwrap()
            .stats();
        assert!(
            mvp.height * 2 <= vp.height + 2,
            "mvp height {} vs vp height {}",
            mvp.height,
            vp.height
        );
    }

    #[test]
    fn max_leaf_entries_bounded_by_k() {
        let s = MvpTree::build(points(1234), Euclidean, MvpParams::paper(3, 13, 4))
            .unwrap()
            .stats();
        assert!(s.max_leaf_entries <= 13);
    }

    #[test]
    fn paper_closed_forms_match_an_exactly_full_tree() {
        // m = 2, k = 2: a dataset of 18 points builds a perfectly full
        // 2-level tree (root internal: 2 vps + 4 groups of 4; each group
        // a full leaf: 2 vps + 2 entries), and 74 points a full 3-level
        // tree. The paper's closed forms must match the walked stats.
        for (n, levels) in [(18usize, 2u32), (74, 3)] {
            let points: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let t = MvpTree::build(points, Euclidean, MvpParams::binary(2, 0).seed(3)).unwrap();
            let s = t.stats();
            assert_eq!(s.height + 1, levels as usize, "n={n}");
            assert_eq!(
                s.vantage_points as u64,
                MvpTreeStats::full_tree_vantage_points(2, levels),
                "n={n}"
            );
            assert_eq!(
                s.leaf_entries as u64,
                MvpTreeStats::full_tree_leaf_points(2, levels, 2),
                "n={n}"
            );
            // The two forms partition the dataset.
            assert_eq!(
                MvpTreeStats::full_tree_vantage_points(2, levels)
                    + MvpTreeStats::full_tree_leaf_points(2, levels, 2),
                n as u64
            );
        }
    }

    #[test]
    fn closed_forms_for_single_leaf_tree() {
        // levels = 1: one leaf node, 2 vantage points, k entries.
        assert_eq!(MvpTreeStats::full_tree_vantage_points(3, 1), 2);
        assert_eq!(MvpTreeStats::full_tree_leaf_points(3, 1, 80), 80);
    }

    #[test]
    fn height_shrinks_with_larger_m() {
        let m2 = MvpTree::build(points(4000), Euclidean, MvpParams::paper(2, 4, 0).seed(7))
            .unwrap()
            .stats();
        let m4 = MvpTree::build(points(4000), Euclidean, MvpParams::paper(4, 4, 0).seed(7))
            .unwrap()
            .stats();
        assert!(m4.height < m2.height);
    }
}
