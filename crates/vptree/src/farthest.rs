//! Far-neighbor queries on vp-trees (paper §2's query variations):
//! [`Query::Beyond`] and [`Query::Kfn`] through [`Search`], answered by
//! the shared arena kernels in [`crate::kernel`].
//!
//! Pruning is the mirror image of range search: the triangle inequality
//! gives `d(q, x) ≤ d(q, v) + d(v, x) ≤ d + hi` for every point `x` in a
//! shell `[lo, hi]`, so a subtree is skipped when even that upper bound
//! cannot reach the threshold. A shell prune carries the upper-bound
//! margin `radius − (d+hi)` that justified it; kFN children abandoned by
//! the descending-upper-bound early exit are reported as
//! [`FirstShell`](vantage_core::trace::PruneReason::FirstShell) prunes
//! carrying their upper bound.

use vantage_core::farthest::FarthestIndex;
use vantage_core::{BoundedMetric, Neighbor, NoTrace, Query, RowStore, Search};

use crate::tree::VpTree;

impl<T, M, S> FarthestIndex<S::Item> for VpTree<T, M, S>
where
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn range_beyond(&self, query: &S::Item, radius: f64) -> Vec<Neighbor> {
        self.search(query, Query::Beyond(radius), &mut NoTrace)
    }

    fn k_farthest(&self, query: &S::Item, k: usize) -> Vec<Neighbor> {
        self.search(query, Query::Kfn(k), &mut NoTrace)
    }
}

#[cfg(test)]
mod tests {
    use crate::params::VpTreeParams;
    use crate::tree::VpTree;
    use vantage_core::prelude::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    fn ids(mut v: Vec<Neighbor>) -> Vec<usize> {
        v.sort_unstable_by_key(|n| n.id);
        v.into_iter().map(|n| n.id).collect()
    }

    #[test]
    fn range_beyond_matches_linear_scan() {
        let t = VpTree::build(grid(), Euclidean, VpTreeParams::with_order(3).seed(2)).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for (q, r) in [
            (vec![5.0, 5.0], 4.0),
            (vec![0.0, 0.0], 10.0),
            (vec![5.0, 5.0], 0.0),
            (vec![5.0, 5.0], 100.0),
        ] {
            assert_eq!(
                ids(t.range_beyond(&q, r)),
                ids(o.range_beyond(&q, r)),
                "q={q:?} r={r}"
            );
        }
    }

    #[test]
    fn k_farthest_matches_brute_force() {
        let t = VpTree::build(grid(), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 4, 50, 100, 150] {
            let a = t.k_farthest(&vec![1.0, 1.0], k);
            let b = o.k_farthest(&vec![1.0, 1.0], k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn k_farthest_prunes() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = VpTree::build(grid(), metric, VpTreeParams::with_order(3).seed(5)).unwrap();
        probe.reset();
        let out = t.k_farthest(&vec![0.0, 0.0], 1);
        assert_eq!(out.len(), 1);
        assert!((out[0].distance - (81.0f64 + 81.0).sqrt()).abs() < 1e-12);
        assert!(probe.count() < 100, "no pruning: {}", probe.count());
    }

    #[test]
    fn borrowed_view_matches_owned_far_queries() {
        let t = VpTree::build(grid(), Euclidean, VpTreeParams::with_order(3).seed(2)).unwrap();
        let r = t.as_view();
        let q = vec![2.0, 3.0];
        assert_eq!(t.range_beyond(&q, 6.0), r.range_beyond(&q, 6.0));
        for k in [1, 5, 100] {
            assert_eq!(t.k_farthest(&q, k), r.k_farthest(&q, k));
        }
    }
}
