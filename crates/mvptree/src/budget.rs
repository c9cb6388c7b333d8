//! Budgeted best-effort kNN on mvp-trees.
//!
//! Same depth-first branch-and-bound as exact kNN, with a
//! [`BudgetMeter`](vantage_core::budget::BudgetMeter) charged before
//! every metric distance (vantage points and leaf candidates alike; the
//! precomputed `D1`/`D2`/`PATH` filters are free, which is exactly why
//! the mvp-tree degrades gracefully). When a charge is refused, the
//! lower bounds of everything left unexplored — remaining leaf entries,
//! unvisited sibling subtrees, and the admitting shell bound of the node
//! that was cut short — are folded into the *frontier bound* for the
//! recall estimate. The traversal itself lives in [`crate::kernel`].

use vantage_core::budget::{BudgetedKnn, BudgetedSearch, SearchBudget};
use vantage_core::{BoundedMetric, RowStore};

use crate::tree::MvpTree;

impl<T, M, S> BudgetedSearch<S::Item> for MvpTree<T, M, S>
where
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn knn_budgeted(&self, query: &S::Item, k: usize, budget: SearchBudget) -> BudgetedKnn {
        self.as_view().knn_budgeted(query, k, budget)
    }
}

#[cfg(test)]
mod tests {
    use crate::params::MvpParams;
    use crate::tree::MvpTree;
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

    fn tree() -> MvpTree<Vec<f64>, Euclidean> {
        MvpTree::build(grid(), Euclidean, MvpParams::paper(3, 9, 5).seed(4)).unwrap()
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact() {
        let t = tree();
        let q = vec![4.7, 8.1];
        for k in [1, 7, 144] {
            let out = t.knn_budgeted(&q, k, SearchBudget::UNLIMITED);
            assert_eq!(out.neighbors, t.knn(&q, k), "k={k}");
            assert_eq!(out.estimated_recall, 1.0);
            assert!(!out.exhausted);
        }
    }

    #[test]
    fn tiny_budget_is_exhausted_with_partial_recall() {
        let t = tree();
        let out = t.knn_budgeted(&vec![5.0, 5.0], 10, SearchBudget::limited(6));
        assert!(out.exhausted);
        assert!(out.spent <= 6);
        assert!(out.estimated_recall < 1.0);
        assert!(out.estimated_recall >= 0.0);
    }

    #[test]
    fn results_never_beat_the_true_answer_when_exact_is_claimed() {
        let t = tree();
        let o = LinearScan::new(grid(), Euclidean);
        let q = vec![6.4, 3.2];
        for budget in [3u64, 15, 50, 144, 1000] {
            let out = t.knn_budgeted(&q, 6, SearchBudget::limited(budget));
            let exact = o.knn(&q, 6);
            if out.estimated_recall == 1.0 {
                assert_eq!(out.neighbors, exact, "budget={budget}");
            }
            for (i, n) in out.neighbors.iter().enumerate() {
                assert!(n.distance >= exact[i].distance - 1e-12, "budget={budget}");
            }
        }
    }

    #[test]
    fn zero_budget_returns_empty() {
        let out = tree().knn_budgeted(&vec![0.0, 0.0], 3, SearchBudget::limited(0));
        assert!(out.neighbors.is_empty());
        assert!(out.exhausted);
        assert_eq!(out.estimated_recall, 0.0);
    }

    #[test]
    fn borrowed_view_budgeted_is_bit_identical() {
        let t = tree();
        let r = t.as_view();
        let q = vec![6.4, 3.2];
        for budget in [3u64, 50, 1000] {
            let a = t.knn_budgeted(&q, 6, SearchBudget::limited(budget));
            let b = r.knn_budgeted(&q, 6, SearchBudget::limited(budget));
            assert_eq!(a.neighbors, b.neighbors, "budget={budget}");
            assert_eq!(a.estimated_recall, b.estimated_recall, "budget={budget}");
            assert_eq!(a.spent, b.spent, "budget={budget}");
        }
    }
}
