//! Budgeted (best-effort) nearest-neighbor search.
//!
//! Pestov's lower-bound results argue that *exact* metric search in
//! genuinely high-dimensional spaces degenerates toward linear scan, so a
//! serving deployment needs a graceful-degradation mode: cap the number
//! of metric distance computations a query may spend and return the best
//! answer found, together with an honest estimate of how much of the true
//! answer it holds.
//!
//! The contract every [`BudgetedSearch`] implementation follows:
//!
//! * the budget counts **distance computations** (the paper's cost
//!   model), including early-abandoned ones — exactly what
//!   [`Counted`](crate::counting::Counted) tallies;
//! * with an [unlimited](SearchBudget::UNLIMITED) budget the traversal is
//!   the exact search, bit-identical results included;
//! * `estimated_recall` is in `[0, 1]`, and equals `1.0` **only when the
//!   result is provably exact** — either the budget never ran out, or
//!   every returned neighbor's distance is at most the lower bound of all
//!   unexplored work (so nothing unseen could improve the answer's
//!   distances).

use crate::index::MetricIndex;
use crate::knn::KnnCollector;
use crate::linear::LinearScan;
use crate::metric::BoundedMetric;
use crate::query::Neighbor;

/// A cap on the distance computations one query may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    max_distances: u64,
}

impl SearchBudget {
    /// No cap: the budgeted search is the exact search.
    pub const UNLIMITED: SearchBudget = SearchBudget {
        max_distances: u64::MAX,
    };

    /// Caps the query at `max_distances` metric evaluations.
    pub fn limited(max_distances: u64) -> Self {
        SearchBudget { max_distances }
    }

    /// The cap (in distance computations).
    pub fn max_distances(self) -> u64 {
        self.max_distances
    }

    /// Whether this is the unlimited budget.
    pub fn is_unlimited(self) -> bool {
        self.max_distances == u64::MAX
    }
}

/// Mutable charging state threaded through one budgeted traversal.
///
/// Implementations call [`try_charge`](BudgetMeter::try_charge)
/// immediately **before** each distance computation; the first refused
/// charge marks the meter exhausted and the traversal switches from
/// searching to folding lower bounds of the unexplored frontier into the
/// recall estimate.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    remaining: u64,
    spent: u64,
    exhausted: bool,
}

impl BudgetMeter {
    /// Fresh meter for one query under `budget`.
    pub fn new(budget: SearchBudget) -> Self {
        BudgetMeter {
            remaining: budget.max_distances,
            spent: 0,
            exhausted: false,
        }
    }

    /// Requests permission for one distance computation. Returns `false`
    /// (and marks the meter exhausted) once the budget is spent.
    pub fn try_charge(&mut self) -> bool {
        if self.remaining == 0 {
            self.exhausted = true;
            return false;
        }
        self.remaining -= 1;
        self.spent += 1;
        true
    }

    /// Distance computations charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Whether a charge has been refused: the search wanted more
    /// computations than the budget allowed. A search that finishes
    /// spending exactly its budget is *not* exhausted.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

/// A best-effort kNN answer.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedKnn {
    /// Best neighbors found, sorted by ascending distance (ties by id).
    /// With an exhausted budget this may hold fewer than `k` entries.
    pub neighbors: Vec<Neighbor>,
    /// Estimated fraction of the true k nearest neighbors present in
    /// [`neighbors`](BudgetedKnn::neighbors); always in `[0, 1]`, and
    /// `1.0` only when the answer is provably exact.
    pub estimated_recall: f64,
    /// Whether the budget ran out before the exact search completed.
    pub exhausted: bool,
    /// Distance computations actually spent.
    pub spent: u64,
}

/// Best-effort kNN under a distance-computation budget.
pub trait BudgetedSearch<T: ?Sized>: MetricIndex<T> {
    /// Answers kNN spending at most `budget` distance computations.
    ///
    /// With [`SearchBudget::UNLIMITED`] the result is bit-identical to
    /// [`knn`](MetricIndex::knn) (with `estimated_recall == 1.0` and
    /// `exhausted == false`).
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn;
}

// Mirrors the `MetricIndex` reference blanket: a `&dyn BudgetedSearch`
// (or `&ConcreteIndex`) is itself a budgeted search, so adapters generic
// over `I: BudgetedSearch<T>` compose with borrowed and boxed indexes.
impl<T: ?Sized, I: BudgetedSearch<T> + ?Sized> BudgetedSearch<T> for &I {
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
        (**self).knn_budgeted(query, k, budget)
    }
}

/// Builds a [`BudgetedKnn`] from a finished branch-and-bound traversal.
///
/// `frontier_bound` is the smallest lower bound over all work the
/// traversal did *not* do (unvisited subtrees, unverified leaf
/// candidates, the computation whose charge was refused); neighbors at
/// distance ≤ `frontier_bound` provably belong to the exact answer's
/// distance multiset. Each *uncertain* neighbor (distance above the
/// frontier bound) is counted as correct with probability `gamma` — a
/// per-structure constant calibrated against the measured recall-vs-cost
/// curve in `vantage-experiments`.
///
/// `gamma` must be in `[0, 1)` so an inexact answer never reports `1.0`.
pub fn finish_budgeted(
    neighbors: Vec<Neighbor>,
    k: usize,
    n: usize,
    frontier_bound: f64,
    gamma: f64,
    meter: &BudgetMeter,
) -> BudgetedKnn {
    debug_assert!((0.0..1.0).contains(&gamma), "gamma must be in [0, 1)");
    let k_eff = k.min(n);
    let estimated_recall = if !meter.exhausted() || k_eff == 0 {
        1.0
    } else {
        let certain = neighbors
            .iter()
            .filter(|nb| nb.distance <= frontier_bound)
            .count();
        if certain >= k_eff {
            1.0
        } else {
            let uncertain = neighbors.len() - certain;
            ((certain as f64 + gamma * uncertain as f64) / k_eff as f64).clamp(0.0, 1.0)
        }
    };
    BudgetedKnn {
        neighbors,
        estimated_recall,
        exhausted: meter.exhausted(),
        spent: meter.spent(),
    }
}

impl<T, M: BoundedMetric<T>> BudgetedSearch<T> for LinearScan<T, M> {
    /// Scans the id-order prefix the budget affords. The recall estimate
    /// is `examined / n`: under the exchangeability assumption that the
    /// true neighbors are equally likely to sit anywhere in insertion
    /// order, each of them lands in the examined prefix with exactly that
    /// probability — the estimator is unbiased for a linear scan.
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
        let mut meter = BudgetMeter::new(budget);
        let mut collector = KnnCollector::new(k);
        let n = self.len();
        let mut examined = 0usize;
        for (id, item) in self.items().iter().enumerate() {
            if !meter.try_charge() {
                break;
            }
            examined += 1;
            if let (Some(d), _) =
                self.metric()
                    .distance_within_frac(query, item, collector.radius())
            {
                collector.offer(id, d);
            }
        }
        let estimated_recall = if !meter.exhausted() || k.min(n) == 0 {
            1.0
        } else {
            (examined as f64 / n.max(1) as f64).clamp(0.0, 1.0)
        };
        BudgetedKnn {
            neighbors: collector.into_sorted(),
            estimated_recall,
            exhausted: meter.exhausted(),
            spent: meter.spent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    fn scan(n: usize) -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new((0..n).map(|i| vec![i as f64]).collect(), Euclidean)
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact() {
        let s = scan(100);
        let q = vec![37.3];
        let exact = s.knn(&q, 5);
        let budgeted = s.knn_budgeted(&q, 5, SearchBudget::UNLIMITED);
        assert_eq!(budgeted.neighbors, exact);
        assert_eq!(budgeted.estimated_recall, 1.0);
        assert!(!budgeted.exhausted);
        assert_eq!(budgeted.spent, 100);
    }

    #[test]
    fn exact_budget_is_not_exhausted() {
        let s = scan(50);
        let out = s.knn_budgeted(&vec![3.0], 2, SearchBudget::limited(50));
        assert!(!out.exhausted);
        assert_eq!(out.estimated_recall, 1.0);
        assert_eq!(out.spent, 50);
    }

    #[test]
    fn exhausted_budget_reports_prefix_recall() {
        let s = scan(100);
        let out = s.knn_budgeted(&vec![0.0], 4, SearchBudget::limited(25));
        assert!(out.exhausted);
        assert_eq!(out.spent, 25);
        assert_eq!(out.estimated_recall, 0.25);
        // The query sits at the head of the scan: the prefix already
        // holds the true answer.
        let ids: Vec<usize> = out.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_budget_returns_nothing_with_zero_estimate() {
        let s = scan(10);
        let out = s.knn_budgeted(&vec![0.0], 3, SearchBudget::limited(0));
        assert!(out.exhausted);
        assert!(out.neighbors.is_empty());
        assert_eq!(out.estimated_recall, 0.0);
        assert_eq!(out.spent, 0);
    }

    #[test]
    fn k_zero_is_trivially_exact() {
        let s = scan(10);
        let out = s.knn_budgeted(&vec![0.0], 0, SearchBudget::limited(0));
        assert_eq!(out.estimated_recall, 1.0);
        assert!(out.neighbors.is_empty());
    }

    #[test]
    fn finish_budgeted_caps_below_one_when_uncertain() {
        let meter = {
            let mut m = BudgetMeter::new(SearchBudget::limited(1));
            assert!(m.try_charge());
            assert!(!m.try_charge());
            m
        };
        let neighbors = vec![Neighbor::new(0, 0.5), Neighbor::new(1, 2.0)];
        // Frontier bound 1.0: id 0 is certain, id 1 is not.
        let out = finish_budgeted(neighbors, 2, 10, 1.0, 0.5, &meter);
        assert!(out.exhausted);
        assert_eq!(out.estimated_recall, 0.75);
        // All certain → provably exact even though the budget ran out.
        let out = finish_budgeted(
            vec![Neighbor::new(0, 0.5), Neighbor::new(1, 0.9)],
            2,
            10,
            1.0,
            0.5,
            &meter,
        );
        assert_eq!(out.estimated_recall, 1.0);
    }
}
