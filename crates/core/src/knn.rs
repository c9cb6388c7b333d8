//! Bounded best-`k` collection for nearest-neighbor search.

use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::query::Neighbor;
use crate::shard::SharedUpperBound;

/// Most heap slots a collector reserves up front. `k` comes from the
/// client, so reserving `k + 1` slots outright lets one request abort
/// the process; past this cap the heap grows only as candidates
/// arrive, which bounds it by the index size instead.
const MAX_PREALLOCATED: usize = 4096;

/// Initial heap capacity for a best-`k` collector.
pub(crate) fn heap_capacity(k: usize) -> usize {
    k.saturating_add(1).min(MAX_PREALLOCATED)
}

/// Collects the `k` smallest-distance neighbors seen so far and exposes the
/// current pruning radius (the k-th best distance).
///
/// This is the shared kernel of every kNN implementation in the workspace:
/// branch-and-bound tree searches treat [`radius`](KnnCollector::radius) as
/// a dynamically shrinking query range, exactly the classic reduction of a
/// nearest-neighbor query to a sequence of range queries (\[Chi94\],
/// discussed in paper §3.2).
///
/// Tie-breaking is **canonical**: among equidistant candidates the smaller
/// id wins, so every index that offers all tie candidates returns *the*
/// `(distance, id)`-lexicographic top `k` — the property the sharded
/// scatter-gather merge ([`ShardedIndex`](crate::shard::ShardedIndex))
/// relies on for bit-identical answers.
///
/// A collector may optionally share an upper bound with concurrent
/// searches over other shards of the same dataset
/// ([`with_shared`](KnnCollector::with_shared)): the radius then reflects
/// the tightest k-th distance published by *any* shard, and this
/// collector's own k-th distance is published on every improvement.
#[derive(Debug, Clone)]
pub struct KnnCollector {
    k: usize,
    // Max-heap on (distance, id): the root is the current worst of the
    // best k, ties resolved toward larger ids so the canonical set wins.
    heap: BinaryHeap<Neighbor>,
    shared: Option<Arc<SharedUpperBound>>,
}

impl KnnCollector {
    /// Creates a collector for the best `k` neighbors.
    pub fn new(k: usize) -> Self {
        KnnCollector {
            k,
            heap: BinaryHeap::with_capacity(heap_capacity(k)),
            shared: None,
        }
    }

    /// Creates a collector that additionally prunes against (and
    /// tightens) a bound shared across shards. Correctness under any
    /// interleaving: the shared value is always some shard's k-th best
    /// over a *subset* of the data, hence an upper bound on the global
    /// k-th distance — pruning against it never discards a true answer.
    pub fn with_shared(k: usize, shared: Arc<SharedUpperBound>) -> Self {
        KnnCollector {
            k,
            heap: BinaryHeap::with_capacity(heap_capacity(k)),
            shared: Some(shared),
        }
    }

    /// The requested result size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// This collector's own k-th best distance, ignoring any shared
    /// bound (`+∞` while fewer than `k` neighbors have been collected).
    fn local_radius(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |n| n.distance)
        }
    }

    /// Current pruning radius: the k-th best distance seen (by this
    /// collector, or — when sharing a bound — by any collector in the
    /// group), or `+∞` while fewer than `k` neighbors have been
    /// collected anywhere.
    ///
    /// A candidate subtree whose lower-bound distance exceeds this radius
    /// cannot contribute to the answer and may be pruned.
    pub fn radius(&self) -> f64 {
        let local = self.local_radius();
        match &self.shared {
            Some(shared) => local.min(shared.get()),
            None => local,
        }
    }

    /// Publishes this collector's k-th best distance to the shared bound.
    fn publish(&self) {
        if let Some(shared) = &self.shared {
            shared.tighten(self.local_radius());
        }
    }

    /// Offers a candidate; it is kept only if it improves the best `k`.
    /// Returns `true` when the candidate was retained.
    ///
    /// On exact distance ties the smaller id wins — the canonical
    /// tie-break that makes answer sets independent of visit order.
    pub fn offer(&mut self, id: usize, distance: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(id, distance));
            if self.heap.len() == self.k {
                self.publish();
            }
            return true;
        }
        let worst = *self.heap.peek().expect("heap holds k > 0 entries");
        if Neighbor::new(id, distance) < worst {
            self.heap.pop();
            self.heap.push(Neighbor::new(id, distance));
            self.publish();
            true
        } else {
            false
        }
    }

    /// Consumes the collector, returning neighbors sorted by ascending
    /// distance (ties by id).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_k_reserves_a_bounded_heap() {
        // A client-chosen k must not size the allocation.
        let mut c = KnnCollector::new(usize::MAX);
        assert!(c.heap.capacity() <= MAX_PREALLOCATED);
        for id in 0..(2 * MAX_PREALLOCATED) {
            c.offer(id, id as f64);
        }
        assert_eq!(c.radius(), f64::INFINITY);
        assert_eq!(c.into_sorted().len(), 2 * MAX_PREALLOCATED);
    }

    #[test]
    fn keeps_only_best_k() {
        let mut c = KnnCollector::new(2);
        c.offer(0, 5.0);
        c.offer(1, 1.0);
        c.offer(2, 3.0);
        c.offer(3, 0.5);
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 3);
        assert_eq!(out[1].id, 1);
    }

    #[test]
    fn radius_is_infinite_until_full() {
        let mut c = KnnCollector::new(3);
        assert_eq!(c.radius(), f64::INFINITY);
        c.offer(0, 1.0);
        c.offer(1, 2.0);
        assert_eq!(c.radius(), f64::INFINITY);
        c.offer(2, 3.0);
        assert_eq!(c.radius(), 3.0);
        c.offer(3, 0.1);
        assert_eq!(c.radius(), 2.0);
    }

    #[test]
    fn k_zero_accepts_nothing() {
        let mut c = KnnCollector::new(0);
        assert!(!c.offer(0, 0.0));
        assert!(c.into_sorted().is_empty());
        let c = KnnCollector::new(0);
        assert_eq!(c.radius(), f64::INFINITY);
    }

    #[test]
    fn ties_resolve_to_the_smaller_id() {
        // Incumbent with the smaller id survives a tied challenger…
        let mut c = KnnCollector::new(1);
        assert!(c.offer(7, 2.0));
        assert!(!c.offer(9, 2.0));
        assert_eq!(c.into_sorted()[0].id, 7);
        // …and a tied challenger with a smaller id replaces the incumbent,
        // so the result is the same whichever order ties arrive in.
        let mut c = KnnCollector::new(1);
        assert!(c.offer(9, 2.0));
        assert!(c.offer(7, 2.0));
        assert_eq!(c.into_sorted()[0].id, 7);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut c = KnnCollector::new(10);
        c.offer(0, 1.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.into_sorted().len(), 1);
    }

    #[test]
    fn shared_bound_tightens_the_radius_and_is_published() {
        let shared = Arc::new(SharedUpperBound::new());
        let mut a = KnnCollector::with_shared(1, Arc::clone(&shared));
        let mut b = KnnCollector::with_shared(1, Arc::clone(&shared));
        assert_eq!(a.radius(), f64::INFINITY);
        a.offer(0, 4.0);
        // a's k-th best was published; b sees it before collecting anything.
        assert_eq!(shared.get(), 4.0);
        assert_eq!(b.radius(), 4.0);
        b.offer(1, 1.0);
        assert_eq!(shared.get(), 1.0);
        // The shared bound never loosens a collector's own radius…
        assert_eq!(b.radius(), 1.0);
        // …but tightens the other shard's.
        assert_eq!(a.radius(), 1.0);
        // Local acceptance still follows the local heap, not the bound.
        assert!(a.offer(2, 3.0));
        assert_eq!(shared.get(), 1.0);
    }
}
