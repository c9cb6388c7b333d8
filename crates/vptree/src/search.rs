//! Every query form on vp-trees through one entry point, [`Search`]:
//! range and kNN search (paper §3.3 and its Appendix) and the far
//! queries of paper §2 ([`crate::farthest`]), each a thin dispatch to
//! the shared arena kernels in [`crate::kernel`]. An owned [`VpTree`]
//! forwards to its borrowed [`VpTreeRef`].
//!
//! * **Range.** At each visited node one distance `d(q, vantage)` is
//!   computed; the paper's pruning rule (generalized from binary medians
//!   to m-way cutoffs) decides which children to descend into: child
//!   `i` (a spherical shell `[lo_i, hi_i]` around the vantage point) is
//!   visited iff `d − r ≤ hi_i` and `d + r ≥ lo_i`. The Appendix proves
//!   both directions from the triangle inequality.
//! * **kNN.** Best-first: subtrees are visited in order of their
//!   lower-bound distance to the query (for a shell `[lo, hi]` around a
//!   vantage point at distance `d`, the bound is
//!   `max(0, d − hi, lo − d)`), pruning any subtree whose bound exceeds
//!   the current k-th best distance — the dynamic-radius reduction of
//!   nearest-neighbor search to range search (\[Chi94\], paper §3.2).
//!   Subtrees abandoned by the best-first early exit are reported as
//!   [`FirstShell`](vantage_core::trace::PruneReason::FirstShell) prunes
//!   with the shell bound that kept them queued.
//! * **Beyond and kFN** mirror range and kNN with upper bounds; see
//!   [`crate::farthest`].
//!
//! The sink receives every vantage/candidate distance, every shell prune
//! with the bound that justified it, and the per-level fanout. Answers
//! and distance computations do not depend on the sink — with
//! [`NoTrace`](vantage_core::NoTrace) its calls compile away.

use vantage_core::trace::TraceSink;
use vantage_core::{
    BoundedMetric, ItemStore, KfnCollector, KnnCollector, Neighbor, Query, RowStore, Search,
};

use crate::tree::VpTree;
use crate::treeref::VpTreeRef;

impl<S: ItemStore, M: BoundedMetric<S::Item>> Search<S::Item> for VpTreeRef<'_, S, M> {
    fn search<Sink: TraceSink>(
        &self,
        item: &S::Item,
        query: Query,
        sink: &mut Sink,
    ) -> Vec<Neighbor> {
        match query {
            Query::Range(radius) => self.kernel(item).range(radius, sink),
            Query::Knn(k) => {
                let mut near = KnnCollector::new(k);
                self.kernel(item).knn_into(&mut near, sink);
                near.into_sorted()
            }
            Query::Beyond(radius) => self.kernel(item).beyond(radius, sink),
            Query::Kfn(k) => {
                let mut far = KfnCollector::new(k);
                self.kernel(item).kfn_into(&mut far, sink);
                far.into_sorted()
            }
        }
    }
}

impl<T, M, S> Search<S::Item> for VpTree<T, M, S>
where
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn search<Sink: TraceSink>(
        &self,
        item: &S::Item,
        query: Query,
        sink: &mut Sink,
    ) -> Vec<Neighbor> {
        self.as_view().search(item, query, sink)
    }
}

#[cfg(test)]
mod tests {
    use crate::params::VpTreeParams;
    use crate::tree::VpTree;
    use vantage_core::prelude::*;
    use vantage_core::MetricIndex;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    fn tree(order: usize, leaf: usize) -> VpTree<Vec<f64>, Euclidean> {
        VpTree::build(
            grid(),
            Euclidean,
            VpTreeParams::with_order(order).leaf_capacity(leaf).seed(11),
        )
        .unwrap()
    }

    fn oracle() -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new(grid(), Euclidean)
    }

    #[test]
    fn range_matches_linear_scan() {
        let t = tree(2, 1);
        let o = oracle();
        for (q, r) in [
            (vec![5.0, 5.0], 1.0),
            (vec![0.0, 0.0], 3.5),
            (vec![4.5, 4.5], 0.2),
            (vec![20.0, 20.0], 15.0),
        ] {
            let mut a = t.range(&q, r);
            let mut b = o.range(&q, r);
            a.sort_unstable_by_key(|n| n.id);
            b.sort_unstable_by_key(|n| n.id);
            assert_eq!(a, b, "q={q:?} r={r}");
        }
    }

    #[test]
    fn range_on_mway_trees_matches_too() {
        let o = oracle();
        for order in [2, 3, 4, 5] {
            for leaf in [1, 4, 13] {
                let t = tree(order, leaf);
                let mut a = t.range(&vec![3.3, 7.1], 2.5);
                let mut b = o.range(&vec![3.3, 7.1], 2.5);
                a.sort_unstable_by_key(|n| n.id);
                b.sort_unstable_by_key(|n| n.id);
                assert_eq!(a, b, "order={order} leaf={leaf}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let t = tree(3, 2);
        let o = oracle();
        for k in [1, 3, 10, 99, 100, 150] {
            let a = t.knn(&vec![4.2, 4.9], k);
            let b = o.knn(&vec![4.2, 4.9], k);
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn knn_k_zero_is_empty() {
        assert!(tree(2, 1).knn(&vec![0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn range_radius_zero_finds_exact_point() {
        let t = tree(2, 1);
        let hits = t.range(&vec![7.0, 3.0], 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn range_covers_everything_with_huge_radius() {
        let t = tree(3, 4);
        assert_eq!(t.range(&vec![5.0, 5.0], 1e9).len(), 100);
    }

    #[test]
    fn search_visits_fewer_points_than_linear_scan() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = VpTree::build(grid(), metric, VpTreeParams::with_order(2).seed(3)).unwrap();
        probe.reset();
        t.range(&vec![5.0, 5.0], 1.0);
        let used = probe.count();
        assert!(used < 100, "vp-tree used {used} >= linear scan's 100");
        assert!(used > 0);
    }

    #[test]
    fn knn_prunes_too() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = VpTree::build(grid(), metric, VpTreeParams::with_order(2).seed(3)).unwrap();
        probe.reset();
        let out = t.knn(&vec![5.0, 5.0], 3);
        assert_eq!(out.len(), 3);
        assert!(probe.count() < 100);
    }

    #[test]
    fn borrowed_view_answers_bit_identically() {
        let t = tree(3, 2);
        let r = t.as_view();
        for (q, radius) in [(vec![5.0, 5.0], 1.0), (vec![0.0, 0.0], 3.5)] {
            assert_eq!(t.range(&q, radius), r.range(&q, radius));
        }
        for k in [1, 7, 100] {
            assert_eq!(t.knn(&vec![4.2, 4.9], k), r.knn(&vec![4.2, 4.9], k));
        }
    }
}
