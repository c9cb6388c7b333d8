//! Far-neighbor queries on mvp-trees (paper §2's query variations),
//! using the same two-vantage-point shells and leaf `D1`/`D2`/`PATH`
//! arrays as range search — but with **upper** bounds: the triangle
//! inequality gives `d(q, x) ≤ d(q, v) + d(v, x)` for every stored
//! vantage point `v`, and the tightest of those caps what a candidate
//! can contribute. [`Query::Beyond`] and [`Query::Kfn`] are answered
//! through [`Search`] by the shared arena kernels in [`crate::kernel`],
//! reporting every shell prune and leaf-filter rejection with the upper
//! bound that justified it; kFN children abandoned by the
//! descending-upper-bound early exit are reported as shell prunes
//! attributed to the vantage point whose shell produced the binding
//! (smaller) upper bound.

use vantage_core::farthest::FarthestIndex;
use vantage_core::{BoundedMetric, Neighbor, NoTrace, Query, RowStore, Search};

use crate::tree::MvpTree;

impl<T, M, S> FarthestIndex<S::Item> for MvpTree<T, M, S>
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
    use super::*;
    use crate::params::MvpParams;
    use vantage_core::prelude::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
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
        let o = LinearScan::new(grid(), Euclidean);
        for (m, k, p) in [(2, 5, 2), (3, 9, 5), (3, 80, 5)] {
            let t = MvpTree::build(grid(), Euclidean, MvpParams::paper(m, k, p).seed(3)).unwrap();
            for (q, r) in [
                (vec![6.0, 6.0], 5.0),
                (vec![0.0, 0.0], 12.0),
                (vec![6.0, 6.0], 0.0),
                (vec![6.0, 6.0], 1e9),
            ] {
                assert_eq!(
                    ids(t.range_beyond(&q, r)),
                    ids(o.range_beyond(&q, r)),
                    "m={m} k={k} p={p} q={q:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn k_farthest_matches_brute_force() {
        let o = LinearScan::new(grid(), Euclidean);
        let t = MvpTree::build(grid(), Euclidean, MvpParams::paper(3, 13, 4).seed(1)).unwrap();
        for k in [1, 5, 60, 144, 200] {
            let a = t.k_farthest(&vec![2.0, 3.0], k);
            let b = o.k_farthest(&vec![2.0, 3.0], k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn farthest_queries_prune_computations() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = MvpTree::build(grid(), metric, MvpParams::paper(3, 13, 4).seed(1)).unwrap();
        probe.reset();
        // The far corner from (0,0) is (11,11).
        let out = t.k_farthest(&vec![0.0, 0.0], 1);
        assert_eq!(out[0].distance, (242.0f64).sqrt());
        assert!(probe.count() < 144, "no pruning: {}", probe.count());
        probe.reset();
        t.range_beyond(&vec![0.0, 0.0], 14.0);
        assert!(probe.count() < 144);
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = MvpTree::build(grid(), Euclidean, MvpParams::paper(2, 5, 2)).unwrap();
        assert!(t.k_farthest(&vec![0.0, 0.0], 0).is_empty());
        let empty =
            MvpTree::build(Vec::<Vec<f64>>::new(), Euclidean, MvpParams::paper(2, 5, 2)).unwrap();
        assert!(empty.k_farthest(&vec![0.0], 3).is_empty());
        assert!(empty.range_beyond(&vec![0.0], 1.0).is_empty());
    }

    #[test]
    fn borrowed_view_farthest_is_bit_identical() {
        let t = MvpTree::build(grid(), Euclidean, MvpParams::paper(3, 9, 5).seed(4)).unwrap();
        let r = t.as_view();
        for k in [1, 5, 144] {
            assert_eq!(
                t.k_farthest(&vec![2.0, 3.0], k),
                r.k_farthest(&vec![2.0, 3.0], k)
            );
        }
        assert_eq!(
            t.range_beyond(&vec![6.0, 6.0], 5.0),
            r.range_beyond(&vec![6.0, 6.0], 5.0)
        );
    }
}
