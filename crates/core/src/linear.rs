//! Exhaustive linear scan — the correctness oracle and the `O(N)` cost
//! ceiling every distance-based index is measured against (paper §4.3:
//! *"even in the worst case, the number of distance computations made by
//! the search algorithm is far less than N"*).

use std::borrow::Borrow;

use crate::farthest::{FarthestIndex, KfnCollector};
use crate::index::MetricIndex;
use crate::knn::KnnCollector;
use crate::metric::BoundedMetric;
use crate::query::Neighbor;
use crate::search::{Query, Search};
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

    /// Every `(id, item)`, in id order: the rows a scan offers.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items.iter().enumerate()
    }
}

/// [`scan`] over the items in id order.
impl<T, M: BoundedMetric<T>> Search<T> for LinearScan<T, M> {
    fn search<S: TraceSink>(&self, item: &T, query: Query, sink: &mut S) -> Vec<Neighbor> {
        scan(&self.metric, item, query, self.rows(), sink)
    }
}

/// Answers `query` about `item` by computing its distance to every
/// `(id, row)` of `rows`: the one exhaustive loop, behind
/// [`LinearScan`], the dynamic tree's overflow and live-set scans, a
/// tree's scan of its own row-ordered item store, and a byte snapshot's
/// scan of its rows widened to `f64`.
///
/// Every row reports one [`DistanceRole::Candidate`] computation, and
/// the whole scan one leaf visit; a `k = 0` query computes nothing.
/// Range and kNN verify each row through the bounded kernel
/// ([`BoundedMetric::distance_within_frac`]) with the radius — for kNN
/// the collector's current one, `+∞` until `k` rows are held — as the
/// bound, so a row that provably cannot qualify is abandoned early and
/// the answer is the one full computations would give. Where the metric
/// batches ([`BoundedMetric::distance_x4`]), kNN evaluates rows four at
/// a time and tests each value against the radius at its own row's
/// turn, which is the bounded call itself. The far forms have no bound
/// to abandon against and compute every distance in full.
///
/// Range and beyond hits come in row order. The collectors' tie-breaks
/// are canonical, so a kNN or kFN answer does not depend on the order
/// of `rows`.
pub fn scan<T, M, S, R>(
    metric: &M,
    item: &T,
    query: Query,
    rows: impl IntoIterator<Item = (usize, R)>,
    sink: &mut S,
) -> Vec<Neighbor>
where
    T: ?Sized,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
    R: Borrow<T>,
{
    match query {
        Query::Range(radius) => {
            let mut within = Within(radius, Vec::new());
            scan_into(metric, item, &mut within, rows, sink);
            within.1
        }
        Query::Knn(k) => {
            let mut near = KnnCollector::new(k);
            scan_into(metric, item, &mut near, rows, sink);
            near.into_sorted()
        }
        Query::Beyond(radius) => {
            let mut beyond = Beyond(radius, Vec::new());
            scan_into(metric, item, &mut beyond, rows, sink);
            beyond.1
        }
        Query::Kfn(k) => {
            let mut far = KfnCollector::new(k);
            scan_into(metric, item, &mut far, rows, sink);
            far.into_sorted()
        }
    }
}

/// [`scan`] into an answer the caller holds: a collector wired to a
/// bound shared across shards, or one a tree's descent has already
/// filled.
pub fn scan_into<T, M, S, R, G>(
    metric: &M,
    item: &T,
    gather: &mut G,
    rows: impl IntoIterator<Item = (usize, R)>,
    sink: &mut S,
) where
    T: ?Sized,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
    R: Borrow<T>,
    G: Gather<T, M>,
{
    if !gather.takes_rows() {
        return;
    }
    let mut rows = rows.into_iter();
    let mut group = next_four(&mut rows);
    if group[0].is_none() {
        return;
    }
    sink.enter_node(0, true);
    while let [Some((i0, x0)), Some((i1, x1)), Some((i2, x2)), Some((i3, x3))] = &group {
        let four = [x0.borrow(), x1.borrow(), x2.borrow(), x3.borrow()];
        if !gather.offer_four(metric, item, [*i0, *i1, *i2, *i3], four, sink) {
            break;
        }
        group = next_four(&mut rows);
    }
    for (id, row) in group.into_iter().flatten().chain(rows) {
        gather.offer_row(metric, item, id, row.borrow(), sink);
    }
}

/// The next four rows of `rows` (`None` past its end).
#[inline]
fn next_four<I: Iterator>(rows: &mut I) -> [Option<I::Item>; 4] {
    [rows.next(), rows.next(), rows.next(), rows.next()]
}

/// An answer a [`scan_into`] offers rows of `T` to, measured by `M`:
/// one per query form.
pub trait Gather<T: ?Sized, M: ?Sized> {
    /// Whether the answer takes any row; `false` for `k = 0`, and the
    /// scan then computes nothing.
    fn takes_rows(&self) -> bool {
        true
    }

    /// Computes `row`'s distance from `item` and offers it, reporting
    /// the computation (and its early abandon, if any) to `sink`.
    fn offer_row<S: TraceSink>(&mut self, metric: &M, item: &T, id: usize, row: &T, sink: &mut S);

    /// Offers four rows evaluated together, or returns `false` having
    /// computed nothing, and the rows are offered one at a time.
    fn offer_four<S: TraceSink>(
        &mut self,
        metric: &M,
        item: &T,
        ids: [usize; 4],
        rows: [&T; 4],
        sink: &mut S,
    ) -> bool {
        let _ = (metric, item, ids, rows, sink);
        false
    }
}

/// Range hits: the rows within the radius.
struct Within(f64, Vec<Neighbor>);

impl<T: ?Sized, M: BoundedMetric<T> + ?Sized> Gather<T, M> for Within {
    #[inline]
    fn offer_row<S: TraceSink>(&mut self, metric: &M, item: &T, id: usize, row: &T, sink: &mut S) {
        sink.distance(DistanceRole::Candidate);
        match metric.distance_within_frac(item, row, self.0) {
            (Some(d), _) => self.1.push(Neighbor::new(id, d)),
            (None, work) => sink.abandon(DistanceRole::Candidate, work),
        }
    }
}

/// Beyond hits: the rows at least the radius away.
struct Beyond(f64, Vec<Neighbor>);

impl<T: ?Sized, M: BoundedMetric<T> + ?Sized> Gather<T, M> for Beyond {
    #[inline]
    fn offer_row<S: TraceSink>(&mut self, metric: &M, item: &T, id: usize, row: &T, sink: &mut S) {
        sink.distance(DistanceRole::Candidate);
        let d = metric.distance(item, row);
        if d >= self.0 {
            self.1.push(Neighbor::new(id, d));
        }
    }
}

impl<T: ?Sized, M: BoundedMetric<T> + ?Sized> Gather<T, M> for KnnCollector {
    #[inline]
    fn takes_rows(&self) -> bool {
        self.k() > 0
    }

    #[inline]
    fn offer_row<S: TraceSink>(&mut self, metric: &M, item: &T, id: usize, row: &T, sink: &mut S) {
        sink.distance(DistanceRole::Candidate);
        match metric.distance_within_frac(item, row, self.radius()) {
            (Some(d), _) => {
                self.offer(id, d);
            }
            (None, work) => sink.abandon(DistanceRole::Candidate, work),
        }
    }

    #[inline]
    fn offer_four<S: TraceSink>(
        &mut self,
        metric: &M,
        item: &T,
        ids: [usize; 4],
        rows: [&T; 4],
        sink: &mut S,
    ) -> bool {
        let Some(ds) = metric.distance_x4(item, rows) else {
            return false;
        };
        for (id, d) in ids.into_iter().zip(ds) {
            sink.distance(DistanceRole::Candidate);
            if d <= self.radius() {
                self.offer(id, d);
            } else {
                sink.abandon(DistanceRole::Candidate, 1.0);
            }
        }
        true
    }
}

impl<T: ?Sized, M: BoundedMetric<T> + ?Sized> Gather<T, M> for KfnCollector {
    #[inline]
    fn takes_rows(&self) -> bool {
        self.k() > 0
    }

    #[inline]
    fn offer_row<S: TraceSink>(&mut self, metric: &M, item: &T, id: usize, row: &T, sink: &mut S) {
        sink.distance(DistanceRole::Candidate);
        self.offer(id, metric.distance(item, row));
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
        self.search(query, Query::Range(radius), &mut NoTrace)
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.search(query, Query::Knn(k), &mut NoTrace)
    }
}

impl<T, M: BoundedMetric<T>> FarthestIndex<T> for LinearScan<T, M> {
    fn range_beyond(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.search(query, Query::Beyond(radius), &mut NoTrace)
    }

    fn k_farthest(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.search(query, Query::Kfn(k), &mut NoTrace)
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
