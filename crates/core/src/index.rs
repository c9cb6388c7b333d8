//! The [`MetricIndex`] trait implemented by every search structure in the
//! workspace (linear scan, vp-tree, mvp-tree, gh-tree, GNAT, BK-tree,
//! LAESA table), plus the [`BatchIndex`] extension that answers query
//! *batches* across threads.

use crate::parallel::{par_map_slice, Threads};
use crate::query::Neighbor;

/// A similarity-search index over a fixed set of objects from a metric
/// space.
///
/// All structures in this workspace are *static* (paper §6): they are bulk
/// built from a dataset and answer queries; updates, where supported, are
/// extensions layered on top. The two query forms correspond to the paper's
/// §2 near-neighbor queries:
///
/// * [`range`](MetricIndex::range) — all objects within distance `r` of the
///   query (*"near neighbor query"* with tolerance `r`);
/// * [`knn`](MetricIndex::knn) — the `k` closest objects.
///
/// Implementations must return **exactly** the same answer set as
/// [`LinearScan`](crate::linear::LinearScan) over the same data and metric;
/// the shared test suites enforce this oracle equivalence.
pub trait MetricIndex<T: ?Sized> {
    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// Whether the index holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the object with insertion index `id`, if it exists.
    fn get(&self, id: usize) -> Option<&T>;

    /// Returns every object within distance `radius` of `query`,
    /// in unspecified order. Objects at exactly `radius` are included
    /// (the paper's `d(Xi, Y) ≤ r` predicate).
    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor>;

    /// Returns the `k` objects nearest to `query`, sorted by ascending
    /// distance (ties broken by id). Returns fewer than `k` results only
    /// when the index holds fewer than `k` objects.
    ///
    /// When several objects tie at the k-th distance, which of them is
    /// returned is implementation-defined; the *distances* of the result
    /// are still uniquely determined.
    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor>;
}

/// Batch-query extension for any index that can be shared across threads.
///
/// Experiments (paper §5) and real workloads evaluate *sets* of queries
/// against one built index. Because every index here is immutable after
/// construction, a query batch is embarrassingly parallel: this trait
/// fans the batch out over scoped worker threads and returns per-query
/// answers **in input order**. Each answer is exactly what the
/// corresponding single-query method would have returned — parallelism
/// never changes results, only wall-clock.
///
/// The blanket implementation covers every `MetricIndex<T> + Sync`, so
/// `LinearScan`, the trees and the baselines all get `batch_range` /
/// `batch_knn` for free; implementations with a smarter shared-work plan
/// (e.g. amortizing vantage distances across queries) can override.
pub trait BatchIndex<T: Sync>: MetricIndex<T> + Sync {
    /// Answers [`range`](MetricIndex::range) for every query in `queries`,
    /// returning answer sets in query order.
    fn batch_range(&self, queries: &[T], radius: f64, threads: Threads) -> Vec<Vec<Neighbor>> {
        par_map_slice(threads.resolve(), queries, |q| self.range(q, radius))
    }

    /// Answers [`knn`](MetricIndex::knn) for every query in `queries`,
    /// returning answer sets in query order.
    fn batch_knn(&self, queries: &[T], k: usize, threads: Threads) -> Vec<Vec<Neighbor>> {
        par_map_slice(threads.resolve(), queries, |q| self.knn(q, k))
    }
}

impl<T: Sync, I: MetricIndex<T> + Sync + ?Sized> BatchIndex<T> for I {}

impl<T: ?Sized, I: MetricIndex<T> + ?Sized> MetricIndex<T> for &I {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        (**self).get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        (**self).range(query, radius)
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        (**self).knn(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::metrics::minkowski::Euclidean;

    fn scan() -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new(vec![vec![0.0], vec![2.0]], Euclidean)
    }

    #[test]
    fn reference_impl_delegates() {
        let s = scan();
        let r: &dyn MetricIndex<Vec<f64>> = &s;
        assert_eq!(MetricIndex::len(&r), 2);
        assert!(!MetricIndex::is_empty(&r));
        assert_eq!(MetricIndex::get(&r, 1), Some(&vec![2.0]));
        assert_eq!(MetricIndex::range(&r, &vec![0.1], 0.5).len(), 1);
        assert_eq!(MetricIndex::knn(&r, &vec![0.1], 1)[0].id, 0);
    }

    #[test]
    fn boxed_trait_objects_work() {
        let b: Box<dyn MetricIndex<Vec<f64>>> = Box::new(scan());
        assert_eq!(b.range(&vec![1.0], 1.0).len(), 2);
    }

    #[test]
    fn batch_queries_match_single_queries_in_order() {
        let s = scan();
        let queries = vec![vec![0.1], vec![1.9], vec![5.0]];
        for threads in [Threads::SEQUENTIAL, Threads::Fixed(3)] {
            let ranges = s.batch_range(&queries, 0.5, threads);
            let knns = s.batch_knn(&queries, 1, threads);
            assert_eq!(ranges.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(ranges[i], s.range(q, 0.5));
                assert_eq!(knns[i], s.knn(q, 1));
            }
        }
    }
}
