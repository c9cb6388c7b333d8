//! Farthest-neighbor queries — the paper's §2 "other variations":
//! *"objects that are farther than a given range from a query object can
//! also be asked as well as the farthest, or the k farthest objects from
//! the query object. The formulation of all these queries are similar to
//! the near neighbor query."*
//!
//! Pruning mirrors range search but uses **upper** bounds: for a
//! spherical shell `[lo, hi]` around a vantage point at distance `d` from
//! the query, every shell point `x` has `d(q, x) ≤ d + hi`; a subtree
//! whose upper bound falls below the threshold cannot contain a far
//! neighbor.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::knn::heap_capacity;
use crate::metric::Metric;
use crate::query::Neighbor;
use crate::shard::SharedLowerBound;
use crate::trace::{DistanceRole, NoTrace, TraceSink};

/// Far-neighbor query support. Implemented by
/// [`LinearScan`](crate::linear::LinearScan) and by the vp-/mvp-trees in
/// their own crates.
pub trait FarthestIndex<T: ?Sized> {
    /// Returns every object at distance **at least** `radius` from
    /// `query` (the complement predicate of a range query, boundary
    /// included).
    fn range_beyond(&self, query: &T, radius: f64) -> Vec<Neighbor>;

    /// Returns the `k` objects **farthest** from `query`, sorted by
    /// descending distance (ties broken by id). Returns fewer than `k`
    /// only when the index holds fewer objects.
    fn k_farthest(&self, query: &T, k: usize) -> Vec<Neighbor>;
}

impl<T, M: Metric<T>> crate::linear::LinearScan<T, M> {
    /// [`range_beyond`](FarthestIndex::range_beyond) with
    /// instrumentation: every scanned object reports one
    /// [`DistanceRole::Candidate`] computation into `sink`. Far queries
    /// need exact distances for every object (there is no lower bound to
    /// abandon against), so answers and computations are identical to
    /// the untraced method.
    pub fn beyond_traced<S: TraceSink>(
        &self,
        query: &T,
        radius: f64,
        sink: &mut S,
    ) -> Vec<Neighbor> {
        if !self.items().is_empty() {
            sink.enter_node(0, true);
        }
        self.items()
            .iter()
            .enumerate()
            .filter_map(|(id, item)| {
                sink.distance(DistanceRole::Candidate);
                let d = self.metric().distance(query, item);
                (d >= radius).then_some(Neighbor::new(id, d))
            })
            .collect()
    }

    /// [`k_farthest`](FarthestIndex::k_farthest) with instrumentation;
    /// see [`beyond_traced`](crate::linear::LinearScan::beyond_traced).
    pub fn kfn_traced<S: TraceSink>(&self, query: &T, k: usize, sink: &mut S) -> Vec<Neighbor> {
        if !self.items().is_empty() {
            sink.enter_node(0, true);
        }
        let mut collector = KfnCollector::new(k);
        for (id, item) in self.items().iter().enumerate() {
            sink.distance(DistanceRole::Candidate);
            collector.offer(id, self.metric().distance(query, item));
        }
        collector.into_sorted()
    }
}

impl<T, M: Metric<T>> FarthestIndex<T> for crate::linear::LinearScan<T, M> {
    fn range_beyond(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.beyond_traced(query, radius, &mut NoTrace)
    }

    fn k_farthest(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.kfn_traced(query, k, &mut NoTrace)
    }
}

/// Eviction ranking for the k-farthest heap: the max-heap root is the
/// **least preferred** member — smallest distance first, ties resolved
/// toward the *larger* id, so the canonical `(distance desc, id asc)`
/// answer set survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FarRank(Neighbor);

impl Ord for FarRank {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .distance
            .total_cmp(&self.0.distance)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for FarRank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Collects the `k` largest-distance neighbors seen so far — the mirror
/// image of [`KnnCollector`](crate::knn::KnnCollector).
///
/// Tie-breaking is canonical, mirroring [`KnnCollector`](crate::knn::KnnCollector): among
/// equidistant candidates the smaller id wins, so any index that offers
/// every tie candidate returns *the* `(distance desc, id asc)` top `k`.
/// Like its mirror, the collector can share a monotonically rising lower
/// bound across shards ([`with_shared`](KfnCollector::with_shared)).
#[derive(Debug, Clone)]
pub struct KfnCollector {
    k: usize,
    // Max-heap under FarRank: the root is the current weakest of the
    // best (farthest) k.
    heap: BinaryHeap<FarRank>,
    shared: Option<Arc<SharedLowerBound>>,
}

impl KfnCollector {
    /// Creates a collector for the `k` farthest neighbors.
    pub fn new(k: usize) -> Self {
        KfnCollector {
            k,
            heap: BinaryHeap::with_capacity(heap_capacity(k)),
            shared: None,
        }
    }

    /// Creates a collector that additionally prunes against (and
    /// tightens) a lower bound shared across shards. Any shard's k-th
    /// farthest distance over its subset is a valid lower bound on the
    /// global k-th farthest, so pruning against the shared maximum never
    /// discards a true answer.
    pub fn with_shared(k: usize, shared: Arc<SharedLowerBound>) -> Self {
        KfnCollector {
            k,
            heap: BinaryHeap::with_capacity(heap_capacity(k)),
            shared: Some(shared),
        }
    }

    /// This collector's own k-th largest distance, ignoring any shared
    /// bound (`-∞` while fewer than `k` candidates have been collected).
    fn local_radius(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f64::NEG_INFINITY, |n| n.0.distance)
        }
    }

    /// Current pruning threshold: the k-th largest distance seen (here
    /// or, with a shared bound, by any collector in the group), or `-∞`
    /// while fewer than `k` candidates have been collected. A subtree
    /// whose **upper-bound** distance is below this cannot contribute.
    pub fn radius(&self) -> f64 {
        let local = self.local_radius();
        match &self.shared {
            Some(shared) => local.max(shared.get()),
            None => local,
        }
    }

    /// Publishes this collector's k-th largest distance to the shared
    /// bound.
    fn publish(&self) {
        if let Some(shared) = &self.shared {
            shared.tighten(self.local_radius());
        }
    }

    /// Offers a candidate; kept only if it improves the farthest `k`.
    /// Returns `true` when retained. On exact distance ties the smaller
    /// id wins (canonical tie-break).
    pub fn offer(&mut self, id: usize, distance: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(FarRank(Neighbor::new(id, distance)));
            if self.heap.len() == self.k {
                self.publish();
            }
            return true;
        }
        let weakest = *self.heap.peek().expect("heap holds k > 0 entries");
        let candidate = FarRank(Neighbor::new(id, distance));
        // `FarRank` orders toward eviction: a *smaller* rank is a more
        // preferred (farther, lower-id) neighbor.
        if candidate < weakest {
            self.heap.pop();
            self.heap.push(candidate);
            self.publish();
            true
        } else {
            false
        }
    }

    /// Number of collected neighbors (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector, returning neighbors sorted by
    /// **descending** distance (ties by id).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_unstable_by(|a, b| {
            b.distance
                .total_cmp(&a.distance)
                .then_with(|| a.id.cmp(&b.id))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::metrics::minkowski::Euclidean;

    #[test]
    fn huge_k_reserves_a_bounded_heap() {
        let mut c = KfnCollector::new(usize::MAX);
        assert!(c.heap.capacity() <= heap_capacity(usize::MAX));
        for id in 0..10_000 {
            c.offer(id, id as f64);
        }
        assert_eq!(c.into_sorted().len(), 10_000);
        assert_eq!(scan().k_farthest(&vec![0.0], usize::MAX).len(), 10);
    }

    fn scan() -> LinearScan<Vec<f64>, Euclidean> {
        LinearScan::new((0..10).map(|i| vec![f64::from(i)]).collect(), Euclidean)
    }

    #[test]
    fn range_beyond_includes_boundary() {
        let s = scan();
        let mut hits = s.range_beyond(&vec![0.0], 7.0);
        hits.sort_unstable_by_key(|n| n.id);
        let ids: Vec<usize> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn range_beyond_zero_radius_returns_everything() {
        assert_eq!(scan().range_beyond(&vec![5.0], 0.0).len(), 10);
    }

    #[test]
    fn k_farthest_orders_descending() {
        let out = scan().k_farthest(&vec![0.0], 3);
        let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![9, 8, 7]);
        assert!(out[0].distance >= out[1].distance);
    }

    #[test]
    fn k_farthest_with_k_above_n() {
        assert_eq!(scan().k_farthest(&vec![0.0], 50).len(), 10);
    }

    #[test]
    fn collector_radius_transitions() {
        let mut c = KfnCollector::new(2);
        assert_eq!(c.radius(), f64::NEG_INFINITY);
        c.offer(0, 1.0);
        assert_eq!(c.radius(), f64::NEG_INFINITY);
        c.offer(1, 5.0);
        assert_eq!(c.radius(), 1.0);
        assert!(c.offer(2, 3.0));
        assert_eq!(c.radius(), 3.0);
        assert!(!c.offer(3, 2.0));
    }

    #[test]
    fn collector_k_zero() {
        let mut c = KfnCollector::new(0);
        assert!(!c.offer(0, 1.0));
        assert!(c.into_sorted().is_empty());
    }

    #[test]
    fn ties_resolve_to_the_smaller_id() {
        // Incumbent with the smaller id survives a tied challenger…
        let mut c = KfnCollector::new(1);
        assert!(c.offer(4, 2.0));
        assert!(!c.offer(9, 2.0));
        assert_eq!(c.into_sorted()[0].id, 4);
        // …and a tied smaller-id challenger replaces the incumbent: the
        // canonical answer is independent of visit order.
        let mut c = KfnCollector::new(1);
        assert!(c.offer(9, 2.0));
        assert!(c.offer(4, 2.0));
        assert_eq!(c.into_sorted()[0].id, 4);
    }

    #[test]
    fn eviction_prefers_dropping_large_ids_on_full_tie() {
        // Three tied candidates at k = 2: the canonical answer keeps the
        // two smallest ids regardless of arrival order.
        for order in [[5usize, 1, 3], [3, 5, 1], [1, 3, 5]] {
            let mut c = KfnCollector::new(2);
            for id in order {
                c.offer(id, 7.0);
            }
            let ids: Vec<usize> = c.into_sorted().iter().map(|n| n.id).collect();
            assert_eq!(ids, vec![1, 3], "order {order:?}");
        }
    }

    #[test]
    fn shared_bound_tightens_the_radius_and_is_published() {
        let shared = Arc::new(SharedLowerBound::new());
        let mut a = KfnCollector::with_shared(1, Arc::clone(&shared));
        let mut b = KfnCollector::with_shared(1, Arc::clone(&shared));
        a.offer(0, 2.0);
        assert_eq!(shared.get(), 2.0);
        // b benefits from a's k-th farthest before collecting anything.
        assert_eq!(b.radius(), 2.0);
        b.offer(1, 6.0);
        assert_eq!(shared.get(), 6.0);
        // The shared bound never loosens b's own threshold…
        assert_eq!(b.radius(), 6.0);
        // …and raises a's.
        assert_eq!(a.radius(), 6.0);
    }
}
