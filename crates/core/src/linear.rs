//! Exhaustive linear scan — the correctness oracle and the `O(N)` cost
//! ceiling every distance-based index is measured against (paper §4.3:
//! *"even in the worst case, the number of distance computations made by
//! the search algorithm is far less than N"*).

use crate::index::MetricIndex;
use crate::knn::KnnCollector;
use crate::metric::BoundedMetric;
use crate::query::Neighbor;
use crate::trace::{DistanceRole, NoTrace, TraceSink};

/// A brute-force index that evaluates the metric against every object.
///
/// `LinearScan` performs exactly `N` distance computations per query,
/// making it both the baseline the paper's savings are relative to and the
/// oracle the tree structures are validated against.
#[derive(Debug, Clone)]
pub struct LinearScan<T, M> {
    items: Vec<T>,
    metric: M,
}

impl<T, M> LinearScan<T, M> {
    /// Builds a linear-scan "index" over `items`. No distance computations
    /// are performed at construction time.
    pub fn new(items: Vec<T>, metric: M) -> Self {
        LinearScan { items, metric }
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// All indexed items, in insertion order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the scan, returning the items.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T, M: BoundedMetric<T>> LinearScan<T, M> {
    /// [`range`](MetricIndex::range) with instrumentation: every scanned
    /// object reports one [`DistanceRole::Candidate`] computation into
    /// `sink`. Answers are identical to the untraced method.
    ///
    /// Each object is verified through the bounded kernel
    /// ([`BoundedMetric::distance_within_frac`]) with the query radius as
    /// the bound, so far-away objects are abandoned early; results are
    /// bit-identical to the full computation because the kernel only
    /// refuses distances that provably exceed the radius.
    pub fn range_traced<S: TraceSink>(
        &self,
        query: &T,
        radius: f64,
        sink: &mut S,
    ) -> Vec<Neighbor> {
        if !self.items.is_empty() {
            sink.enter_node(0, true);
        }
        self.items
            .iter()
            .enumerate()
            .filter_map(|(id, item)| {
                sink.distance(DistanceRole::Candidate);
                match self.metric.distance_within_frac(query, item, radius) {
                    (Some(d), _) => Some(Neighbor::new(id, d)),
                    (None, work) => {
                        sink.abandon(DistanceRole::Candidate, work);
                        None
                    }
                }
            })
            .collect()
    }

    /// [`knn`](MetricIndex::knn) with instrumentation; see
    /// [`range_traced`](LinearScan::range_traced). The bounded kernel's
    /// threshold is the collector's current pruning radius (the k-th best
    /// distance, `+∞` until `k` neighbors are held), so skipping abandoned
    /// candidates never changes the answer: the collector's strict `<`
    /// comparison would have discarded them anyway.
    pub fn knn_traced<S: TraceSink>(&self, query: &T, k: usize, sink: &mut S) -> Vec<Neighbor> {
        let mut collector = KnnCollector::new(k);
        self.knn_into(&mut collector, query, sink);
        collector.into_sorted()
    }

    /// Runs the kNN scan into a caller-provided collector — the loop
    /// behind [`knn_traced`](LinearScan::knn_traced) and the sharded
    /// scatter path (which passes a collector wired to a cross-shard
    /// bound).
    ///
    /// Where the metric batches ([`BoundedMetric::distance_x4`]), items
    /// are evaluated four at a time and each value is then tested
    /// against the radius at its own item's turn, which is the bounded
    /// call itself: same answers, same counts, same events. `k = 0`
    /// computes nothing.
    pub(crate) fn knn_into<S: TraceSink>(
        &self,
        collector: &mut KnnCollector,
        query: &T,
        sink: &mut S,
    ) {
        if collector.k() == 0 {
            return;
        }
        if !self.items.is_empty() {
            sink.enter_node(0, true);
        }
        let mut id = 0;
        for group in self.items.chunks_exact(4) {
            let Some(ds) = self
                .metric
                .distance_x4(query, [&group[0], &group[1], &group[2], &group[3]])
            else {
                break;
            };
            for d in ds {
                sink.distance(DistanceRole::Candidate);
                if d <= collector.radius() {
                    collector.offer(id, d);
                } else {
                    sink.abandon(DistanceRole::Candidate, 1.0);
                }
                id += 1;
            }
        }
        for item in &self.items[id..] {
            sink.distance(DistanceRole::Candidate);
            match self
                .metric
                .distance_within_frac(query, item, collector.radius())
            {
                (Some(d), _) => {
                    collector.offer(id, d);
                }
                (None, work) => {
                    sink.abandon(DistanceRole::Candidate, work);
                }
            }
            id += 1;
        }
    }
}

impl<T, M: BoundedMetric<T>> MetricIndex<T> for LinearScan<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.range_traced(query, radius, &mut NoTrace)
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.knn_traced(query, k, &mut NoTrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    fn scan() -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new(vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]], Euclidean)
    }

    #[test]
    fn range_includes_boundary() {
        let s = scan();
        let mut hits = s.range(&vec![0.0], 2.0);
        hits.sort_unstable_by_key(|n| n.id);
        let ids: Vec<_> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn range_zero_radius_finds_exact_matches() {
        let s = scan();
        let hits = s.range(&vec![10.0], 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn knn_returns_sorted_distances() {
        let s = scan();
        let out = s.knn(&vec![1.2], 3);
        assert_eq!(out.len(), 3);
        assert!(out[0].distance <= out[1].distance);
        assert!(out[1].distance <= out[2].distance);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn knn_with_k_larger_than_n_returns_all() {
        let s = scan();
        assert_eq!(s.knn(&vec![0.0], 99).len(), 4);
    }

    #[test]
    fn empty_scan_is_empty() {
        let s: LinearScan<Vec<f64>, Euclidean> = LinearScan::new(vec![], Euclidean);
        assert!(s.is_empty());
        assert!(s.range(&vec![0.0], 1.0).is_empty());
        assert!(s.knn(&vec![0.0], 3).is_empty());
        assert!(s.get(0).is_none());
    }
}
