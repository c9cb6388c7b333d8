//! Every query form on mvp-trees through one entry point, [`Search`]:
//! the paper's §4.3 range search, a k-nearest-neighbor extension, and
//! the far queries of paper §2 ([`crate::farthest`]), each a thin
//! dispatch to the shared arena kernels in [`crate::kernel`]. An owned
//! [`MvpTree`] forwards to its borrowed [`MvpTreeRef`].
//!
//! * **Range** (paper §4.3). Depth-first descent maintaining `PATH[]`,
//!   the distances between the query and the first `p` vantage points
//!   on the current path. At each node exactly two distances are
//!   computed (`d(Q, Sv1)`, `d(Q, Sv2)`); branch `(i, j)` is entered only
//!   when the query ball can intersect both its vp1-shell and its
//!   vp2-shell. At a leaf, a data point's exact distance is computed
//!   **only** if it survives the `D1`, `D2` and all `p` `PATH`
//!   triangle-inequality filters — the paper's delayed major filtering
//!   step.
//! * **kNN.** Depth-first branch-and-bound with the dynamically
//!   shrinking radius of a [`KnnCollector`], visiting children in order
//!   of their lower-bound distance. The leaf-level `D1`/`D2`/`PATH`
//!   arrays provide per-point lower bounds `max_i |PATH_q[i] − PATH_x[i]|`,
//!   skipping exact computations the same way the paper's range filter
//!   does. Leaf rejections are attributed to the filter stage with the
//!   *tightest* lower bound (the one that would exclude the candidate at
//!   the largest radius); children abandoned by the bound-ordered early
//!   exit are reported as shell prunes attributed the same way.
//! * **Beyond and kFN** mirror range and kNN with upper bounds; see
//!   [`crate::farthest`].
//!
//! The sink receives every vantage/candidate distance, every shell prune
//! and leaf-filter rejection (with the triangle-inequality bound that
//! justified it), and the per-level fanout. Answers and distance
//! computations do not depend on the sink — with
//! [`NoTrace`](vantage_core::NoTrace) its calls compile away.

use vantage_core::trace::TraceSink;
use vantage_core::{
    BoundedMetric, ItemStore, KfnCollector, KnnCollector, Neighbor, Query, RowStore, Search,
};

use crate::tree::MvpTree;
use crate::treeref::MvpTreeRef;

impl<S: ItemStore, M: BoundedMetric<S::Item>> Search<S::Item> for MvpTreeRef<'_, S, M> {
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

impl<T, M, S> Search<S::Item> for MvpTree<T, M, S>
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
    use crate::params::MvpParams;
    use crate::tree::MvpTree;
    use vantage_core::prelude::*;
    use vantage_core::MetricIndex;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    fn tree(m: usize, k: usize, p: usize) -> MvpTree<Vec<f64>, Euclidean> {
        MvpTree::build(grid(), Euclidean, MvpParams::paper(m, k, p).seed(4)).unwrap()
    }

    fn oracle() -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new(grid(), Euclidean)
    }

    #[test]
    fn range_matches_linear_scan_across_configs() {
        let o = oracle();
        for (m, k, p) in [(2, 1, 0), (2, 5, 2), (3, 9, 5), (3, 80, 5), (4, 13, 4)] {
            let t = tree(m, k, p);
            for (q, r) in [
                (vec![5.0, 5.0], 2.0),
                (vec![0.0, 0.0], 4.0),
                (vec![6.4, 3.2], 0.5),
                (vec![-3.0, 15.0], 6.0),
            ] {
                let mut a = t.range(&q, r);
                let mut b = o.range(&q, r);
                a.sort_unstable_by_key(|n| n.id);
                b.sort_unstable_by_key(|n| n.id);
                assert_eq!(a, b, "m={m} k={k} p={p} q={q:?} r={r}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let o = oracle();
        for (m, k, p) in [(2, 5, 2), (3, 9, 5), (3, 40, 5)] {
            let t = tree(m, k, p);
            for knn_k in [1, 2, 7, 50, 144, 200] {
                let a = t.knn(&vec![4.7, 8.1], knn_k);
                let b = o.knn(&vec![4.7, 8.1], knn_k);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.distance - y.distance).abs() < 1e-12,
                        "m={m} k={k} knn_k={knn_k}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_k_zero_is_empty() {
        assert!(tree(3, 9, 5).knn(&vec![0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn range_zero_radius_finds_exact() {
        let t = tree(3, 9, 5);
        let hits = t.range(&vec![7.0, 7.0], 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn huge_radius_returns_everything() {
        assert_eq!(tree(2, 5, 3).range(&vec![5.0, 5.0], 1e9).len(), 144);
    }

    #[test]
    fn search_beats_linear_scan_on_distance_count() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = MvpTree::build(grid(), metric, MvpParams::paper(2, 10, 4).seed(4)).unwrap();
        probe.reset();
        t.range(&vec![5.0, 5.0], 1.0);
        let used = probe.count();
        assert!(used < 144, "mvp-tree used {used} >= linear scan's 144");
    }

    #[test]
    fn knn_prunes_with_path_filters() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = MvpTree::build(grid(), metric, MvpParams::paper(3, 9, 5).seed(4)).unwrap();
        probe.reset();
        let out = t.knn(&vec![5.0, 5.0], 4);
        assert_eq!(out.len(), 4);
        assert!(probe.count() < 144);
    }

    #[test]
    fn path_filter_reduces_distance_count() {
        // Same tree shape (same seed), different p: more path distances
        // must never *increase* the leaf-level exact computations.
        let count_for = |p: usize| {
            let metric = Counted::new(Euclidean);
            let probe = metric.clone();
            let t = MvpTree::build(grid(), metric, MvpParams::paper(2, 20, p).seed(9)).unwrap();
            probe.reset();
            for x in 0..6 {
                t.range(&vec![f64::from(x) * 2.0, 5.5], 1.5);
            }
            probe.count()
        };
        let without = count_for(0);
        let with = count_for(6);
        assert!(
            with <= without,
            "p=6 used {with} > p=0's {without} distance computations"
        );
    }

    #[test]
    fn borrowed_view_answers_bit_identically() {
        let t = tree(3, 9, 5);
        let r = t.as_view();
        for (q, radius) in [(vec![5.0, 5.0], 2.0), (vec![0.0, 0.0], 4.0)] {
            assert_eq!(t.range(&q, radius), r.range(&q, radius));
        }
        for k in [1, 7, 144] {
            assert_eq!(t.knn(&vec![4.7, 8.1], k), r.knn(&vec![4.7, 8.1], k));
        }
    }
}
