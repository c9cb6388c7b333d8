//! Budgeted best-effort kNN on vp-trees — a thin wrapper over the
//! shared arena kernel in [`crate::kernel`].
//!
//! The traversal is the same best-first branch-and-bound as exact kNN;
//! the only difference is a [`BudgetMeter`](vantage_core::BudgetMeter)
//! charged before every metric distance. When a charge is refused the
//! search stops and the *frontier bound* — the smallest lower bound over
//! all unexplored work — is folded into the recall estimate: any
//! returned neighbor at distance ≤ the frontier provably belongs to the
//! exact answer.

use vantage_core::budget::{BudgetedKnn, BudgetedSearch, SearchBudget};
use vantage_core::{BoundedMetric, RowStore};

use crate::tree::VpTree;

impl<T, M, S> BudgetedSearch<S::Item> for VpTree<T, M, S>
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

    fn tree() -> VpTree<Vec<f64>, Euclidean> {
        VpTree::build(grid(), Euclidean, VpTreeParams::with_order(3).seed(7)).unwrap()
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact() {
        let t = tree();
        let q = vec![3.3, 6.1];
        for k in [1, 5, 100] {
            let out = t.knn_budgeted(&q, k, SearchBudget::UNLIMITED);
            assert_eq!(out.neighbors, t.knn(&q, k), "k={k}");
            assert_eq!(out.estimated_recall, 1.0);
            assert!(!out.exhausted);
        }
    }

    #[test]
    fn tiny_budget_is_exhausted_with_partial_recall() {
        let t = tree();
        let out = t.knn_budgeted(&vec![5.0, 5.0], 10, SearchBudget::limited(8));
        assert!(out.exhausted);
        assert!(out.spent <= 8);
        assert!(out.estimated_recall < 1.0);
        assert!(out.estimated_recall >= 0.0);
    }

    #[test]
    fn results_never_beat_the_true_answer_when_exact_is_claimed() {
        let t = tree();
        let o = LinearScan::new(grid(), Euclidean);
        let q = vec![4.2, 4.9];
        for budget in [5u64, 20, 60, 144, 1000] {
            let out = t.knn_budgeted(&q, 5, SearchBudget::limited(budget));
            let exact = o.knn(&q, 5);
            if out.estimated_recall == 1.0 {
                assert_eq!(out.neighbors, exact, "budget={budget}");
            }
            // Best-effort results are k best of a subset: never closer
            // than the true i-th at each rank.
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
    fn borrowed_view_budgeted_matches_owned() {
        let t = tree();
        let r = t.as_view();
        let q = vec![4.2, 4.9];
        for budget in [
            SearchBudget::UNLIMITED,
            SearchBudget::limited(0),
            SearchBudget::limited(8),
            SearchBudget::limited(60),
        ] {
            let a = t.knn_budgeted(&q, 5, budget);
            let b = r.knn_budgeted(&q, 5, budget);
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.estimated_recall, b.estimated_recall);
            assert_eq!(a.exhausted, b.exhausted);
            assert_eq!(a.spent, b.spent);
        }
    }
}
