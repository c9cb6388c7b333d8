//! Bounded best-`k` collection for nearest-neighbor search.

use std::collections::BinaryHeap;

use crate::query::Neighbor;

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
/// `(distance, id)`-lexicographic top `k`, whatever order it visits
/// the data in.
#[derive(Debug, Clone)]
pub struct KnnCollector {
    k: usize,
    // Max-heap on (distance, id): the root is the current worst of the
    // best k, ties resolved toward larger ids so the canonical set wins.
    heap: BinaryHeap<Neighbor>,
}

impl KnnCollector {
    /// Creates a collector for the best `k` neighbors.
    pub fn new(k: usize) -> Self {
        KnnCollector {
            k,
            heap: BinaryHeap::with_capacity(heap_capacity(k)),
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

    /// Current pruning radius: the k-th best distance seen, or `+∞`
    /// while fewer than `k` neighbors have been collected.
    ///
    /// A candidate subtree whose lower-bound distance exceeds this radius
    /// cannot contribute to the answer and may be pruned.
    pub fn radius(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |n| n.distance)
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
            return true;
        }
        let worst = *self.heap.peek().expect("heap holds k > 0 entries");
        if Neighbor::new(id, distance) < worst {
            self.heap.pop();
            self.heap.push(Neighbor::new(id, distance));
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
}
