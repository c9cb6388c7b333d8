//! Exhaustive linear scan — the correctness oracle and the `O(N)` cost
//! ceiling every distance-based index is measured against (paper §4.3:
//! *"even in the worst case, the number of distance computations made by
//! the search algorithm is far less than N"*).

use std::borrow::Borrow;

use crate::farthest::{FarthestIndex, KfnCollector};
use crate::index::MetricIndex;
use crate::items::ItemStore;
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
/// row of `rows`: the one exhaustive loop, behind [`LinearScan`], the
/// dynamic tree's overflow and live-set scans, a tree's scan of its own
/// row-ordered item store, and a byte snapshot's scan of its rows
/// widened to `f64`.
///
/// `rows` is any iterator of `(id, row)`, or a [`Slab`] of rows a store
/// keeps back to back followed by one ([`SlabThen`]).
///
/// Every row reports one [`DistanceRole::Candidate`] computation, and
/// the whole scan one leaf visit; a `k = 0` query computes nothing.
/// Range and kNN verify each row through the bounded kernel
/// ([`BoundedMetric::distance_within_frac`]) with the radius — for kNN
/// the collector's current one, `+∞` until `k` rows are held — as the
/// bound, so a row that provably cannot qualify is abandoned early and
/// the answer is the one full computations would give. Where the metric
/// batches, kNN evaluates a slab [`SLAB_BLOCK`] rows at a time
/// ([`BoundedMetric::distance_block`]) and other rows four at a time
/// ([`BoundedMetric::distance_x4`]), and tests each value against the
/// radius at its own row's turn, which is the bounded call itself. The
/// far forms have no bound to abandon against and compute every
/// distance in full.
///
/// Range and beyond hits come in row order. The collectors' tie-breaks
/// are canonical, so a kNN or kFN answer does not depend on the order
/// of `rows`.
pub fn scan<'a, T, M, S>(
    metric: &M,
    item: &T,
    query: Query,
    rows: impl ScanRows<'a, T>,
    sink: &mut S,
) -> Vec<Neighbor>
where
    T: ?Sized + 'a,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
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
pub fn scan_into<'a, T, M, S, G>(
    metric: &M,
    item: &T,
    gather: &mut G,
    rows: impl ScanRows<'a, T>,
    sink: &mut S,
) where
    T: ?Sized + 'a,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
    G: Gather<T, M>,
{
    if !gather.takes_rows() {
        return;
    }
    let (slab, mut rest) = rows.into_parts();
    let slab = slab.filter(|slab| !slab.ids.is_empty());
    // Pulled ahead to learn whether there is any row at all; the slab's
    // rows still come first.
    let group = next_four(&mut rest);
    if slab.is_none() && group[0].is_none() {
        return;
    }
    sink.enter_node(0, true);
    if let Some(slab) = slab {
        offer_slab(metric, item, gather, slab, sink);
    }
    offer_rows(metric, item, gather, group, rest, sink);
}

/// Rows per block of a slab walk: the block kernel's output buffer
/// lives on the stack.
pub const SLAB_BLOCK: usize = 64;

/// Offers a slab's rows in order: block by block through the metric's
/// block kernel while the store lends the block and the metric takes
/// it, then the remaining rows one by one.
fn offer_slab<T, M, S, G>(metric: &M, item: &T, gather: &mut G, slab: Slab<'_, T>, sink: &mut S)
where
    T: ?Sized,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
    G: Gather<T, M>,
{
    let mut first = 0;
    for ids in slab.ids.chunks(SLAB_BLOCK) {
        let Some(rows) = slab.store.slab(first as u32, ids.len()) else {
            break;
        };
        if !gather.offer_block(metric, item, ids, rows, sink) {
            break;
        }
        first += ids.len();
    }
    let mut rest = (first..)
        .zip(&slab.ids[first..])
        .map(|(row, &id)| (id as usize, slab.store.get(row as u32)));
    let group = next_four(&mut rest);
    offer_rows(metric, item, gather, group, rest, sink);
}

/// Offers `group` and then `rows`, four at a time while the gather
/// takes them so, then one at a time.
fn offer_rows<T, M, S, G, R>(
    metric: &M,
    item: &T,
    gather: &mut G,
    mut group: [Option<(usize, R)>; 4],
    mut rows: impl Iterator<Item = (usize, R)>,
    sink: &mut S,
) where
    T: ?Sized,
    M: BoundedMetric<T> + ?Sized,
    S: TraceSink,
    R: Borrow<T>,
    G: Gather<T, M>,
{
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

/// Rows `0..ids.len()` of a store, named by `ids`: the rows a scan can
/// read a block at a time where the store lends them back to back
/// ([`ItemStore::slab`]) and the metric has a block kernel. A tree's
/// leaf entries are such a slab: the first rows of its row store, in
/// the order of its arena's entry-id column.
#[derive(Clone, Copy)]
pub struct Slab<'a, T: ?Sized> {
    store: &'a dyn ItemStore<Item = T>,
    ids: &'a [u32],
}

impl<'a, T: ?Sized> Slab<'a, T> {
    /// Rows `0..ids.len()` of `store`, the row at `j` named `ids[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `store` holds fewer than `ids.len()` rows.
    pub fn new(store: &'a dyn ItemStore<Item = T>, ids: &'a [u32]) -> Self {
        assert!(ids.len() <= store.len(), "a slab lies inside its store");
        Slab { store, ids }
    }

    /// Then `rest`: the rows of a scan that follow the slab.
    pub fn then<I>(self, rest: I) -> SlabThen<'a, T, I> {
        SlabThen { slab: self, rest }
    }
}

/// A [`Slab`], then further `(id, row)`s ([`Slab::then`]).
pub struct SlabThen<'a, T: ?Sized, I> {
    slab: Slab<'a, T>,
    rest: I,
}

/// What a [`scan_into`] reads: an optional leading [`Slab`], then
/// `(id, row)`s one by one.
pub trait ScanRows<'a, T: ?Sized + 'a> {
    /// The rows after the slab, as the scan borrows them.
    type Row: Borrow<T>;
    /// The `(id, row)`s after the slab.
    type Rest: Iterator<Item = (usize, Self::Row)>;

    /// The leading slab, if any, and the rows after it.
    fn into_parts(self) -> (Option<Slab<'a, T>>, Self::Rest);
}

/// Any `(id, row)` iterator: rows one by one, no slab.
impl<'a, T, R, I> ScanRows<'a, T> for I
where
    T: ?Sized + 'a,
    R: Borrow<T>,
    I: IntoIterator<Item = (usize, R)>,
{
    type Row = R;
    type Rest = I::IntoIter;

    fn into_parts(self) -> (Option<Slab<'a, T>>, I::IntoIter) {
        (None, self.into_iter())
    }
}

impl<'a, T, R, I> ScanRows<'a, T> for SlabThen<'a, T, I>
where
    T: ?Sized + 'a,
    R: Borrow<T>,
    I: IntoIterator<Item = (usize, R)>,
{
    type Row = R;
    type Rest = I::IntoIter;

    fn into_parts(self) -> (Option<Slab<'a, T>>, I::IntoIter) {
        (Some(self.slab), self.rest.into_iter())
    }
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

    /// Offers `ids.len()` rows laid back to back in `rows`, evaluated
    /// together ([`BoundedMetric::distance_block`]), or returns `false`
    /// having computed nothing, and the rows are offered otherwise.
    fn offer_block<S: TraceSink>(
        &mut self,
        metric: &M,
        item: &T,
        ids: &[u32],
        rows: &T,
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
            self.take_full(id, d, sink);
        }
        true
    }

    #[inline]
    fn offer_block<S: TraceSink>(
        &mut self,
        metric: &M,
        item: &T,
        ids: &[u32],
        rows: &T,
        sink: &mut S,
    ) -> bool {
        let mut ds = [0.0; SLAB_BLOCK];
        let ds = &mut ds[..ids.len()];
        if !metric.distance_block(item, rows, ds) {
            return false;
        }
        for (&id, &d) in ids.iter().zip(&*ds) {
            self.take_full(id as usize, d, sink);
        }
        true
    }
}

impl KnnCollector {
    /// Takes a full distance computed ahead of its row's turn, as the
    /// bounded call at the current radius would: one candidate
    /// computation, offered within the radius, else abandoned with all
    /// its work done.
    #[inline]
    fn take_full<S: TraceSink>(&mut self, id: usize, d: f64, sink: &mut S) {
        sink.distance(DistanceRole::Candidate);
        if d <= self.radius() {
            self.offer(id, d);
        } else {
            sink.abandon(DistanceRole::Candidate, 1.0);
        }
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
