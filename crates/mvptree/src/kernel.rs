//! Shared search kernels over the flat arena view.
//!
//! Every query form — range, kNN, beyond, kFN, traced and budgeted — is
//! implemented exactly once here, generic over *where the nodes live*
//! (an [`MvpArenaView`], borrowed from an owned arena or a mapped
//! snapshot) and *where the items live* (an [`ItemStore`]). Every search
//! runs through the borrowed [`MvpTreeRef`](crate::MvpTreeRef), an owned
//! [`MvpTree`](crate::MvpTree)'s included, so the materialized and zero-copy
//! paths answer bit-identically by construction: same arithmetic, same
//! visit order, same tie-breaking.
//!
//! Items are read in row order (see [`crate::arena`]): a leaf entry's
//! item sits at its own row, so one leaf's candidates are one contiguous
//! block of the store, while vantage points resolve through the id→row
//! table. Neighbors, tie-breaks and trace events name original ids.

use vantage_core::budget::{finish_budgeted, BudgetMeter, BudgetedKnn, SearchBudget};
use vantage_core::farthest::KfnCollector;
use vantage_core::trace::{DistanceRole, PruneReason, TraceSink};
use vantage_core::{BoundedMetric, ItemStore, KnnCollector, Metric, Neighbor};

use crate::arena::{LeafEntriesView, MvpArenaView, MvpNodeView, NO_CHILD};

/// Probability that an *uncertain* budgeted result (distance above the
/// frontier bound) is nevertheless a true k-nearest neighbor. Calibrated
/// against the measured recall-vs-cost curve of the `budget` experiment
/// in `vantage-experiments` at the 50%-of-exact-cost point (the mvp-tree
/// measures 0.796 there on the Figure 8 workload; the vp-tree's deeper
/// best-first traversal recovers more, hence its higher constant); must
/// stay below 1 so inexact answers never report perfect recall.
pub(crate) const GAMMA: f64 = 0.80;

/// The shell `[lo, hi]` of partition `i` given its cutoff vector.
#[inline]
fn shell(cutoffs: &[f64], i: usize) -> (f64, f64) {
    let lo = if i == 0 { 0.0 } else { cutoffs[i - 1] };
    let hi = if i == cutoffs.len() {
        f64::INFINITY
    } else {
        cutoffs[i]
    };
    (lo, hi)
}

/// Lower bound on the distance from a query at distance `d` (to the
/// vantage point) to any point inside the shell `[lo, hi]`.
#[inline]
fn shell_bound(d: f64, lo: f64, hi: f64) -> f64 {
    (d - hi).max(lo - d).max(0.0)
}

/// Upper boundary of shell `i` alone (for far-query upper bounds).
#[inline]
fn shell_hi(cutoffs: &[f64], i: usize) -> f64 {
    if i == cutoffs.len() {
        f64::INFINITY
    } else {
        cutoffs[i]
    }
}

/// The stage that produced a rejected leaf candidate's lower bound
/// (`bound` is the max of `b1`, `b2` and the path differences):
/// trace-only attribution, always guarded by `S::ENABLED`.
fn attribute_leaf_bound(b1: f64, b2: f64, bound: f64) -> PruneReason {
    if b1 >= bound {
        PruneReason::PrecomputedD1
    } else if b2 >= bound {
        PruneReason::PrecomputedD2
    } else {
        PruneReason::PathFilter
    }
}

/// The stage that produced a rejected leaf candidate's *upper* bound
/// (`upper` is the min of `u1`, `u2` and the path sums): trace-only
/// attribution, always guarded by `S::ENABLED`.
fn attribute_leaf_upper(u1: f64, u2: f64, upper: f64) -> PruneReason {
    if u1 <= upper {
        PruneReason::PrecomputedD1
    } else if u2 <= upper {
        PruneReason::PrecomputedD2
    } else {
        PruneReason::PathFilter
    }
}

/// Entries per block of the kNN leaf sweep (see [`Kernel::knn_leaf`]).
const LEAF_BLOCK: usize = 64;
// Block offsets are stored as `u8`.
const _: () = assert!(LEAF_BLOCK <= 256);

/// Where the kNN descent offers its candidates: a [`KnnCollector`], or a
/// wrapper that refuses some ids before they reach one (the dynamic
/// tree's tombstones). The descent prunes against `radius`, so a wrapper
/// that refuses an id keeps it from tightening the radius too.
pub(crate) trait Collect {
    /// The requested result size.
    fn k(&self) -> usize;
    /// The current pruning radius ([`KnnCollector::radius`]).
    fn radius(&self) -> f64;
    /// Offers one candidate ([`KnnCollector::offer`]).
    fn offer(&mut self, id: usize, distance: f64);
}

impl Collect for KnnCollector {
    #[inline]
    fn k(&self) -> usize {
        KnnCollector::k(self)
    }

    #[inline]
    fn radius(&self) -> f64 {
        KnnCollector::radius(self)
    }

    #[inline]
    fn offer(&mut self, id: usize, distance: f64) {
        KnnCollector::offer(self, id, distance);
    }
}

/// The [`leaf_bounds`] instance that reads the PATH length at run time,
/// for paths longer than the specialised lengths.
const DYN_PATH: usize = usize::MAX;

/// One kNN query's scratch space, reused at every node it visits.
struct KnnScratch {
    /// The query's PATH: its distances to the first `p` vantage points
    /// on the current root-to-node path.
    path: Vec<f64>,
    /// Child orders of the internal nodes on the current path, used as a
    /// stack: each node sorts its children above its parent's and
    /// truncates them away when it returns. It grows past its initial
    /// capacity ([`Kernel::order_stack`]) like any `Vec`, so any `m`
    /// works.
    order: Vec<(f64, u32, PruneReason)>,
    /// The current leaf block's lower bounds.
    bounds: [f64; LEAF_BLOCK],
    /// Block offsets of the current leaf block's survivors.
    survivors: [u8; LEAF_BLOCK],
    /// Whether the metric may still batch candidates
    /// ([`BoundedMetric::distance_x4`]); cleared at its first `None`.
    batch: bool,
}

/// The filter pass of the kNN leaf sweep: writes the lower bound
/// `max(|dq1 − D1|, |dq2 − D2|, |PATHq[j] − PATHe[j]| …)` of entry
/// `start + i` into `out[i]`, for every `i` independently.
///
/// The bound has `f64::max` semantics: NaN terms are ignored, and the
/// bound is NaN only when every term is. `path` is already cut to the
/// entries' PATH length; `P` is that length, or [`DYN_PATH`] for paths
/// longer than [`fill_leaf_bounds`] specialises.
#[inline(always)]
fn leaf_bounds<const P: usize>(
    entries: &LeafEntriesView<'_>,
    start: usize,
    dq1: f64,
    dq2: f64,
    path: &[f64],
    out: &mut [f64],
) {
    let path = if P == DYN_PATH { path } else { &path[..P] };
    let n = out.len();
    let stride = entries.path_len();
    let d1 = &entries.d1_column()[start..start + n];
    let d2 = &entries.d2_column()[start..start + n];
    let rows = &entries.path_block()[start * stride..(start + n) * stride];
    for (i, out) in out.iter_mut().enumerate() {
        // Every term is an absolute difference, so NaN or `≥ +0.0`.
        // Folding from −∞ with a plain `>` select skips the NaN terms
        // and ends at −∞ only when every term is NaN, which maps back to
        // NaN: the value of the `f64::max` fold, without its per-term
        // NaN fix-ups (with them the sweep ran about 10 % slower on
        // clustered kNN).
        let mut bound = max_term(max_term(f64::NEG_INFINITY, dq1 - d1[i]), dq2 - d2[i]);
        let row = &rows[i * stride..i * stride + path.len()];
        for (&qp, &ep) in path.iter().zip(row) {
            bound = max_term(bound, qp - ep);
        }
        *out = if bound >= 0.0 { bound } else { f64::NAN };
    }
}

/// One step of [`leaf_bounds`]' fold: `|diff|` if it exceeds `bound`,
/// else `bound` (so a NaN term leaves `bound` as it is).
#[inline(always)]
fn max_term(bound: f64, diff: f64) -> f64 {
    let term = diff.abs();
    if term > bound {
        term
    } else {
        bound
    }
}

/// [`leaf_bounds`] with the PATH length as a compile-time constant for
/// the lengths `p ≤ 6` that trees are built with in practice.
fn fill_leaf_bounds(
    entries: &LeafEntriesView<'_>,
    start: usize,
    dq1: f64,
    dq2: f64,
    path: &[f64],
    out: &mut [f64],
) {
    match path.len() {
        0 => leaf_bounds::<0>(entries, start, dq1, dq2, path, out),
        1 => leaf_bounds::<1>(entries, start, dq1, dq2, path, out),
        2 => leaf_bounds::<2>(entries, start, dq1, dq2, path, out),
        3 => leaf_bounds::<3>(entries, start, dq1, dq2, path, out),
        4 => leaf_bounds::<4>(entries, start, dq1, dq2, path, out),
        5 => leaf_bounds::<5>(entries, start, dq1, dq2, path, out),
        6 => leaf_bounds::<6>(entries, start, dq1, dq2, path, out),
        _ => leaf_bounds::<DYN_PATH>(entries, start, dq1, dq2, path, out),
    }
}

/// Charging and certainty state threaded through one budgeted query.
struct BudgetState {
    meter: BudgetMeter,
    /// Smallest lower bound over all work skipped because of the budget.
    frontier: f64,
}

/// One query's traversal context: the node arena, the row-ordered item
/// store and its id→row table, the metric, the query point and the PATH
/// cap `p`.
pub(crate) struct Kernel<'k, I: ?Sized, M, T: ?Sized> {
    pub arena: MvpArenaView<'k>,
    pub root: Option<u32>,
    pub items: &'k I,
    pub rows: &'k [u32],
    pub metric: &'k M,
    pub query: &'k T,
    /// [`MvpParams::p`](crate::MvpParams::p): the maximum PATH length a
    /// query maintains while descending.
    pub p: usize,
}

impl<'k, T, I, M> Kernel<'k, I, M, T>
where
    T: ?Sized,
    I: ItemStore<Item = T> + ?Sized,
{
    /// The item named by `id` (a vantage point), through the id→row
    /// table.
    #[inline]
    fn item(&self, id: u32) -> &T {
        self.items.get(self.rows[id as usize])
    }

    /// An empty child-order stack (see [`KnnScratch::order`]) with room
    /// for four levels of `m²` children (fewer if the tree has fewer
    /// internal nodes), so a typical query never reallocates it: growing
    /// it from empty made `k = 1` searches of a few µs 3–7 % slower than
    /// one `Vec` per node.
    fn order_stack<E>(&self) -> Vec<E> {
        let m = self.arena.m();
        Vec::with_capacity(self.arena.internal_count().min(4) * m * m)
    }

    /// Visits leaf `entries`, accumulating range hits via the paper's
    /// delayed major filtering (`D1`, `D2`, then PATH).
    #[allow(clippy::too_many_arguments)]
    fn range_leaf<S: TraceSink>(
        &self,
        entries: LeafEntriesView<'_>,
        dq1: f64,
        dq2: f64,
        radius: f64,
        path: &[f64],
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) where
        M: BoundedMetric<T>,
    {
        'entry: for i in 0..entries.len() {
            let b1 = (dq1 - entries.d1(i)).abs();
            if b1 > radius {
                sink.reject(PruneReason::PrecomputedD1, b1);
                continue;
            }
            let b2 = (dq2 - entries.d2(i)).abs();
            if b2 > radius {
                sink.reject(PruneReason::PrecomputedD2, b2);
                continue;
            }
            for (&qp, &ep) in path.iter().zip(entries.path(i)) {
                let bp = (qp - ep).abs();
                if bp > radius {
                    sink.reject(PruneReason::PathFilter, bp);
                    continue 'entry;
                }
            }
            let id = entries.id(i);
            sink.distance(DistanceRole::Candidate);
            match self.metric.distance_within_frac(
                self.query,
                self.items.get(entries.row(i)),
                radius,
            ) {
                (Some(d), _) => out.push(Neighbor::new(id as usize, d)),
                (None, work) => {
                    sink.abandon(DistanceRole::Candidate, work);
                }
            }
        }
    }

    /// Range search (paper §4.3).
    pub fn range<S: TraceSink>(&self, radius: f64, sink: &mut S) -> Vec<Neighbor>
    where
        M: BoundedMetric<T>,
    {
        let mut out = Vec::new();
        let mut path: Vec<f64> = Vec::with_capacity(self.p);
        if let Some(root) = self.root {
            self.range_node(root, radius, 0, &mut path, sink, &mut out);
        }
        out
    }

    fn range_node<S: TraceSink>(
        &self,
        node: u32,
        radius: f64,
        level: u32,
        path: &mut Vec<f64>,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) where
        M: BoundedMetric<T>,
    {
        match self.arena.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                sink.enter_node(level, true);
                // Step 1: the vantage points are data points, checked
                // directly.
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                if dq1 <= radius {
                    out.push(Neighbor::new(vp1 as usize, dq1));
                }
                let Some(vp2) = vp2 else { return };
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                if dq2 <= radius {
                    out.push(Neighbor::new(vp2 as usize, dq2));
                }
                // Step 2: filter entries by D1, D2, then PATH; compute the
                // real distance only for survivors, through the bounded
                // kernel with the query radius as the bound.
                self.range_leaf(entries, dq1, dq2, radius, path, sink, out);
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                sink.enter_node(level, false);
                let m = self.arena.m();
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                if dq1 <= radius {
                    out.push(Neighbor::new(vp1 as usize, dq1));
                }
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                if dq2 <= radius {
                    out.push(Neighbor::new(vp2 as usize, dq2));
                }
                // Step 3.1: extend the query's PATH.
                let saved = path.len();
                if path.len() < self.p {
                    path.push(dq1);
                }
                if path.len() < self.p {
                    path.push(dq2);
                }
                // Steps 3.2/3.3 generalized: interval overlap against both
                // vantage points' shells.
                for i in 0..m {
                    let (lo1, hi1) = shell(cutoffs1, i);
                    if dq1 - radius > hi1 || dq1 + radius < lo1 {
                        if S::ENABLED {
                            // One prune event per subtree the failed
                            // vp1-shell test rules out.
                            for j in 0..m {
                                if children[i * m + j] != NO_CHILD {
                                    sink.prune(
                                        level + 1,
                                        PruneReason::FirstShell,
                                        shell_bound(dq1, lo1, hi1),
                                    );
                                }
                            }
                        }
                        continue;
                    }
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let (lo2, hi2) = shell(&cutoffs2[i * (m - 1)..(i + 1) * (m - 1)], j);
                        if dq2 - radius > hi2 || dq2 + radius < lo2 {
                            if S::ENABLED {
                                sink.prune(
                                    level + 1,
                                    PruneReason::SecondShell,
                                    shell_bound(dq2, lo2, hi2),
                                );
                            }
                            continue;
                        }
                        self.range_node(child, radius, level + 1, path, sink, out);
                    }
                }
                path.truncate(saved);
            }
        }
    }

    /// k-nearest-neighbor traversal into a caller-provided collector —
    /// the shared kernel behind kNN [`Search`](vantage_core::Search) and
    /// the sharded scatter path (which passes a collector wired to a
    /// cross-shard bound). `k = 0` computes nothing.
    pub fn knn_into<C: Collect, S: TraceSink>(&self, collector: &mut C, sink: &mut S)
    where
        M: BoundedMetric<T>,
    {
        if collector.k() == 0 {
            return;
        }
        let mut scratch = KnnScratch {
            path: Vec::with_capacity(self.p),
            order: self.order_stack(),
            bounds: [0.0; LEAF_BLOCK],
            survivors: [0; LEAF_BLOCK],
            batch: true,
        };
        if let Some(root) = self.root {
            self.knn_node(root, 0, collector, &mut scratch, sink);
        }
    }

    fn knn_node<C: Collect, S: TraceSink>(
        &self,
        node: u32,
        level: u32,
        collector: &mut C,
        scratch: &mut KnnScratch,
        sink: &mut S,
    ) where
        M: BoundedMetric<T>,
    {
        match self.arena.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                sink.enter_node(level, true);
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                let Some(vp2) = vp2 else { return };
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                self.knn_leaf(entries, dq1, dq2, collector, scratch, sink);
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                sink.enter_node(level, false);
                let m = self.arena.m();
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                let saved = scratch.path.len();
                if scratch.path.len() < self.p {
                    scratch.path.push(dq1);
                }
                if scratch.path.len() < self.p {
                    scratch.path.push(dq2);
                }
                // Order children by lower bound, then recurse while the
                // bound beats the (shrinking) k-th best distance. Each
                // entry carries which vantage point produced the larger
                // bound so abandoned children can be attributed; the sort
                // compares only the bound, so the extra field does not
                // perturb the visit order.
                let base = scratch.order.len();
                for i in 0..m {
                    let (lo1, hi1) = shell(cutoffs1, i);
                    let b1 = shell_bound(dq1, lo1, hi1);
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let (lo2, hi2) = shell(&cutoffs2[i * (m - 1)..(i + 1) * (m - 1)], j);
                        let b2 = shell_bound(dq2, lo2, hi2);
                        let reason = if b1 >= b2 {
                            PruneReason::FirstShell
                        } else {
                            PruneReason::SecondShell
                        };
                        scratch.order.push((b1.max(b2), child, reason));
                    }
                }
                let end = scratch.order.len();
                scratch.order[base..].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut abandoned = end;
                for pos in base..end {
                    let (bound, child, _) = scratch.order[pos];
                    if bound > collector.radius() {
                        abandoned = pos;
                        break;
                    }
                    self.knn_node(child, level + 1, collector, scratch, sink);
                }
                if S::ENABLED {
                    for &(bound, _, reason) in &scratch.order[abandoned..end] {
                        sink.prune(level + 1, reason, bound);
                    }
                }
                scratch.order.truncate(base);
                scratch.path.truncate(saved);
            }
        }
    }

    /// The kNN leaf sweep, over blocks of [`LEAF_BLOCK`] entries in two
    /// passes:
    ///
    /// 1. Filter: compute every entry's lower bound ([`leaf_bounds`]),
    ///    then keep the entries whose bound is within the radius at the
    ///    start of the block.
    /// 2. Distance: recheck each survivor against the *current* radius
    ///    immediately before its bounded distance.
    ///
    /// The collector's radius never grows during a sweep: offered
    /// candidate distances are never NaN (a bounded distance is returned
    /// only when it is `≤` the bound), so the local k-th best only
    /// shrinks, and a shared cross-shard bound only tightens. An entry
    /// dropped at the start of the block would therefore have failed at
    /// its turn too, and each survivor is tested exactly where a
    /// one-entry-at-a-time loop would test it: the same distances are
    /// computed with the same bounds and offered in the same order.
    /// Tracing sinks see the same events in the same order as well —
    /// rejects are reported in entry order between the survivors.
    ///
    /// The distance pass takes survivors four at a time where the metric
    /// can batch them ([`BoundedMetric::distance_x4`]): the next four
    /// whose bound is within the current radius are evaluated in one
    /// call, then walked in entry order exactly as above, each tested
    /// against the radius at its own turn. A member whose bound fails by
    /// then is reported as a reject and its value dropped; a value over
    /// the radius is an abandon with full work, as the bounded kernel
    /// would report it. Fewer than four left, or a metric that declines,
    /// take the single bounded call.
    fn knn_leaf<C: Collect, S: TraceSink>(
        &self,
        entries: LeafEntriesView<'_>,
        dq1: f64,
        dq2: f64,
        collector: &mut C,
        scratch: &mut KnnScratch,
        sink: &mut S,
    ) where
        M: BoundedMetric<T>,
    {
        let path = &scratch.path[..scratch.path.len().min(entries.path_len())];
        // Reports entries `first, first + 1, …` as rejected with their
        // `bounds`: trace-only attribution.
        let reject = |sink: &mut S, first: usize, bounds: &[f64]| {
            for (i, &bound) in (first..).zip(bounds) {
                let b1 = (dq1 - entries.d1(i)).abs();
                let b2 = (dq2 - entries.d2(i)).abs();
                sink.reject(attribute_leaf_bound(b1, b2, bound), bound);
            }
        };
        for start in (0..entries.len()).step_by(LEAF_BLOCK) {
            let n = LEAF_BLOCK.min(entries.len() - start);
            let bounds = &mut scratch.bounds[..n];
            fill_leaf_bounds(&entries, start, dq1, dq2, path, bounds);
            let radius = collector.radius();
            let mut kept = 0;
            for (i, &bound) in bounds.iter().enumerate() {
                scratch.survivors[kept] = i as u8;
                kept += usize::from(bound <= radius);
            }
            let survivors = &scratch.survivors[..kept];
            // First block offset whose reject is not yet reported.
            let mut unreported = 0;
            let mut next = 0;
            while next < kept {
                // The next four survivors within the current radius (its
                // members), up to survivor position `end`. Without four,
                // or without a batching metric, the survivors up to `end`
                // take the single bounded call.
                let formed = collector.radius();
                let mut group = [0usize; 4];
                let mut members = 0;
                let mut end = if scratch.batch { next } else { kept };
                while members < 4 && end < kept {
                    let i = usize::from(survivors[end]);
                    group[members] = i;
                    members += usize::from(bounds[i] <= formed);
                    end += 1;
                }
                let batch = if members == 4 {
                    let ds = self.metric.distance_x4(
                        self.query,
                        group.map(|i| self.items.get(entries.row(start + i))),
                    );
                    scratch.batch = ds.is_some();
                    ds
                } else {
                    None
                };
                let mut member = 0;
                for &i in &survivors[next..end] {
                    let i = usize::from(i);
                    if S::ENABLED {
                        reject(sink, start + unreported, &bounds[unreported..i]);
                        unreported = i + 1;
                    }
                    let bound = bounds[i];
                    let radius = collector.radius();
                    if bound > radius {
                        if S::ENABLED {
                            reject(sink, start + i, &[bound]);
                        }
                        member += usize::from(bound <= formed);
                        continue;
                    }
                    sink.distance(DistanceRole::Candidate);
                    // Bounded by the current k-th best distance: an
                    // abandoned candidate is one the collector's strict
                    // `<` would have discarded.
                    // Every survivor within the current radius is a
                    // member, since the radius never grows; the guard
                    // keeps a value from reaching the wrong entry even
                    // if it did.
                    let verdict = match batch {
                        Some(ds) if bound <= formed => {
                            let d = ds[member];
                            member += 1;
                            ((d <= radius).then_some(d), 1.0)
                        }
                        _ => self.metric.distance_within_frac(
                            self.query,
                            self.items.get(entries.row(start + i)),
                            radius,
                        ),
                    };
                    match verdict {
                        (Some(d), _) => {
                            collector.offer(entries.id(start + i) as usize, d);
                        }
                        (None, work) => {
                            sink.abandon(DistanceRole::Candidate, work);
                        }
                    }
                }
                next = end;
            }
            if S::ENABLED {
                reject(sink, start + unreported, &bounds[unreported..]);
            }
        }
    }

    /// Far-range search: all items at distance ≥ `radius` (paper §2's
    /// query variations), pruning on the triangle inequality's *upper*
    /// bounds `d(q, x) ≤ d(q, v) + d(v, x)`.
    pub fn beyond<S: TraceSink>(&self, radius: f64, sink: &mut S) -> Vec<Neighbor>
    where
        M: Metric<T>,
    {
        let mut out = Vec::new();
        let mut path: Vec<f64> = Vec::with_capacity(self.p);
        if let Some(root) = self.root {
            self.beyond_node(root, radius, 0, &mut path, sink, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn beyond_node<S: TraceSink>(
        &self,
        node: u32,
        radius: f64,
        level: u32,
        path: &mut Vec<f64>,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) where
        M: Metric<T>,
    {
        match self.arena.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                sink.enter_node(level, true);
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                if dq1 >= radius {
                    out.push(Neighbor::new(vp1 as usize, dq1));
                }
                let Some(vp2) = vp2 else { return };
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                if dq2 >= radius {
                    out.push(Neighbor::new(vp2 as usize, dq2));
                }
                for i in 0..entries.len() {
                    // Tightest upper bound over all stored distances.
                    let u1 = dq1 + entries.d1(i);
                    let u2 = dq2 + entries.d2(i);
                    let mut upper = u1.min(u2);
                    for (&qp, &ep) in path.iter().zip(entries.path(i)) {
                        upper = upper.min(qp + ep);
                    }
                    if upper < radius {
                        if S::ENABLED {
                            sink.reject(attribute_leaf_upper(u1, u2, upper), radius - upper);
                        }
                        continue;
                    }
                    let id = entries.id(i);
                    sink.distance(DistanceRole::Candidate);
                    let d = self
                        .metric
                        .distance(self.query, self.items.get(entries.row(i)));
                    if d >= radius {
                        out.push(Neighbor::new(id as usize, d));
                    }
                }
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                sink.enter_node(level, false);
                let m = self.arena.m();
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                if dq1 >= radius {
                    out.push(Neighbor::new(vp1 as usize, dq1));
                }
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                if dq2 >= radius {
                    out.push(Neighbor::new(vp2 as usize, dq2));
                }
                let saved = path.len();
                if path.len() < self.p {
                    path.push(dq1);
                }
                if path.len() < self.p {
                    path.push(dq2);
                }
                for i in 0..m {
                    let hi1 = shell_hi(cutoffs1, i);
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let hi2 = shell_hi(&cutoffs2[i * (m - 1)..(i + 1) * (m - 1)], j);
                        let upper = (dq1 + hi1).min(dq2 + hi2);
                        if upper >= radius {
                            self.beyond_node(child, radius, level + 1, path, sink, out);
                        } else if S::ENABLED {
                            let reason = if dq1 + hi1 <= upper {
                                PruneReason::FirstShell
                            } else {
                                PruneReason::SecondShell
                            };
                            sink.prune(level + 1, reason, radius - upper);
                        }
                    }
                }
                path.truncate(saved);
            }
        }
    }

    /// k-farthest traversal into a caller-provided collector, visiting
    /// the farthest-promising children first so the threshold rises
    /// early. `k = 0` computes nothing.
    pub fn kfn_into<S: TraceSink>(&self, collector: &mut KfnCollector, sink: &mut S)
    where
        M: Metric<T>,
    {
        if collector.k() == 0 {
            return;
        }
        let mut path: Vec<f64> = Vec::with_capacity(self.p);
        let mut order = self.order_stack();
        if let Some(root) = self.root {
            self.kfn_node(root, collector, 0, &mut path, &mut order, sink);
        }
    }

    /// `order` is the query's child-order stack, as in
    /// [`KnnScratch::order`].
    #[allow(clippy::too_many_arguments)]
    fn kfn_node<S: TraceSink>(
        &self,
        node: u32,
        collector: &mut KfnCollector,
        level: u32,
        path: &mut Vec<f64>,
        order: &mut Vec<(f64, u32, PruneReason)>,
        sink: &mut S,
    ) where
        M: Metric<T>,
    {
        match self.arena.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                sink.enter_node(level, true);
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                let Some(vp2) = vp2 else { return };
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                for i in 0..entries.len() {
                    let u1 = dq1 + entries.d1(i);
                    let u2 = dq2 + entries.d2(i);
                    let mut upper = u1.min(u2);
                    for (&qp, &ep) in path.iter().zip(entries.path(i)) {
                        upper = upper.min(qp + ep);
                    }
                    // Tie-inclusive: an entry whose upper bound equals
                    // the threshold may tie the k-th distance with a
                    // smaller id, which canonical tie-breaking must see.
                    if upper >= collector.radius() {
                        let id = entries.id(i);
                        sink.distance(DistanceRole::Candidate);
                        let d = self
                            .metric
                            .distance(self.query, self.items.get(entries.row(i)));
                        collector.offer(id as usize, d);
                    } else if S::ENABLED {
                        sink.reject(attribute_leaf_upper(u1, u2, upper), upper);
                    }
                }
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                sink.enter_node(level, false);
                let m = self.arena.m();
                sink.distance(DistanceRole::Vantage);
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                sink.distance(DistanceRole::Vantage);
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                let saved = path.len();
                if path.len() < self.p {
                    path.push(dq1);
                }
                if path.len() < self.p {
                    path.push(dq2);
                }
                // Each entry carries which vantage point produced the
                // binding (smaller) upper bound so abandoned children can
                // be attributed; the sort compares only the bound, so the
                // extra field does not perturb the visit order.
                let base = order.len();
                for i in 0..m {
                    let hi1 = shell_hi(cutoffs1, i);
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let hi2 = shell_hi(&cutoffs2[i * (m - 1)..(i + 1) * (m - 1)], j);
                        let u1 = dq1 + hi1;
                        let u2 = dq2 + hi2;
                        let reason = if u1 <= u2 {
                            PruneReason::FirstShell
                        } else {
                            PruneReason::SecondShell
                        };
                        order.push((u1.min(u2), child, reason));
                    }
                }
                let end = order.len();
                order[base..].sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
                let mut abandoned = end;
                for pos in base..end {
                    let (upper, child, _) = order[pos];
                    // Tie-inclusive, mirroring the leaf filter above.
                    if upper < collector.radius() {
                        abandoned = pos;
                        break;
                    }
                    self.kfn_node(child, collector, level + 1, path, order, sink);
                }
                if S::ENABLED {
                    for &(upper, _, reason) in &order[abandoned..end] {
                        sink.prune(level + 1, reason, upper);
                    }
                }
                order.truncate(base);
                path.truncate(saved);
            }
        }
    }

    /// Budgeted best-effort kNN: the same depth-first branch-and-bound
    /// as exact kNN with a [`BudgetMeter`] charged before every metric
    /// distance (vantage points and leaf candidates alike; the
    /// precomputed `D1`/`D2`/`PATH` filters are free, which is exactly
    /// why the mvp-tree degrades gracefully).
    pub fn knn_budgeted(&self, k: usize, budget: SearchBudget) -> BudgetedKnn
    where
        M: BoundedMetric<T>,
    {
        let mut state = BudgetState {
            meter: BudgetMeter::new(budget),
            frontier: f64::INFINITY,
        };
        let mut collector = KnnCollector::new(k);
        if k > 0 {
            if let Some(root) = self.root {
                let mut path = Vec::with_capacity(self.p);
                let mut order = self.order_stack();
                self.knn_budgeted_node(
                    root,
                    0.0,
                    &mut collector,
                    &mut path,
                    &mut order,
                    &mut state,
                );
            }
        }
        finish_budgeted(
            collector.into_sorted(),
            k,
            self.items.len(),
            state.frontier,
            GAMMA,
            &state.meter,
        )
    }

    /// Returns `false` when the budget ran out and the traversal must
    /// unwind. `node_bound` is the lower bound under which this node was
    /// admitted (0 at the root) — the certainty floor for any work in it
    /// that goes unexplored. `order` is the query's child-order stack,
    /// as in [`KnnScratch::order`].
    fn knn_budgeted_node(
        &self,
        node: u32,
        node_bound: f64,
        collector: &mut KnnCollector,
        path: &mut Vec<f64>,
        order: &mut Vec<(f64, u32)>,
        state: &mut BudgetState,
    ) -> bool
    where
        M: BoundedMetric<T>,
    {
        match self.arena.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                if !state.meter.try_charge() {
                    state.frontier = state.frontier.min(node_bound);
                    return false;
                }
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                let Some(vp2) = vp2 else { return true };
                if !state.meter.try_charge() {
                    state.frontier = state.frontier.min(node_bound);
                    return false;
                }
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                let entry_bound = |i: usize| {
                    let mut bound = (dq1 - entries.d1(i)).abs().max((dq2 - entries.d2(i)).abs());
                    for (&qp, &ep) in path.iter().zip(entries.path(i)) {
                        bound = bound.max((qp - ep).abs());
                    }
                    bound
                };
                for i in 0..entries.len() {
                    let bound = entry_bound(i);
                    if bound > collector.radius() {
                        continue;
                    }
                    if !state.meter.try_charge() {
                        // Fold every remaining admissible entry; their
                        // filter bounds are free to compute.
                        for j in i..entries.len() {
                            let bj = entry_bound(j);
                            if bj <= collector.radius() {
                                state.frontier = state.frontier.min(bj.max(node_bound));
                            }
                        }
                        return false;
                    }
                    let id = entries.id(i);
                    match self.metric.distance_within_frac(
                        self.query,
                        self.items.get(entries.row(i)),
                        collector.radius(),
                    ) {
                        (Some(d), _) => {
                            collector.offer(id as usize, d);
                        }
                        (None, work) => state.meter.abandon(work),
                    }
                }
                true
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                let m = self.arena.m();
                if !state.meter.try_charge() {
                    state.frontier = state.frontier.min(node_bound);
                    return false;
                }
                let dq1 = self.metric.distance(self.query, self.item(vp1));
                collector.offer(vp1 as usize, dq1);
                if !state.meter.try_charge() {
                    // vp2 and every child are still unexplored; the
                    // node's own admitting bound floors them all.
                    state.frontier = state.frontier.min(node_bound);
                    return false;
                }
                let dq2 = self.metric.distance(self.query, self.item(vp2));
                collector.offer(vp2 as usize, dq2);
                let saved = path.len();
                if path.len() < self.p {
                    path.push(dq1);
                }
                if path.len() < self.p {
                    path.push(dq2);
                }
                let base = order.len();
                for i in 0..m {
                    let (lo1, hi1) = shell(cutoffs1, i);
                    let b1 = shell_bound(dq1, lo1, hi1);
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let (lo2, hi2) = shell(&cutoffs2[i * (m - 1)..(i + 1) * (m - 1)], j);
                        let b2 = shell_bound(dq2, lo2, hi2);
                        order.push((b1.max(b2), child));
                    }
                }
                let end = order.len();
                order[base..].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut complete = true;
                for pos in base..end {
                    let (bound, child) = order[pos];
                    if bound > collector.radius() {
                        // Exact prune: this child and everything after it
                        // (bounds ascend) is provably outside the answer.
                        break;
                    }
                    let admitted = bound.max(node_bound);
                    if !self.knn_budgeted_node(child, admitted, collector, path, order, state) {
                        for &(b, _) in &order[pos + 1..end] {
                            if b <= collector.radius() {
                                state.frontier = state.frontier.min(b.max(node_bound));
                            }
                        }
                        complete = false;
                        break;
                    }
                }
                order.truncate(base);
                path.truncate(saved);
                complete
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::MvpArena;

    /// The leaf bound as a one-entry-at-a-time loop folds it: `f64::max`
    /// over the terms in order.
    fn max_fold(dq1: f64, dq2: f64, path: &[f64], d1: f64, d2: f64, entry_path: &[f64]) -> f64 {
        let mut bound = (dq1 - d1).abs().max((dq2 - d2).abs());
        for (&qp, &ep) in path.iter().zip(entry_path) {
            bound = bound.max((qp - ep).abs());
        }
        bound
    }

    #[test]
    fn leaf_bounds_fold_like_f64_max_over_nan_and_infinite_terms() {
        const VALUES: [f64; 6] = [0.0, 0.5, 2.0, f64::INFINITY, f64::NAN, -1.0];
        // A small LCG picks the values, so every term position sees NaN,
        // ±∞ and zero against every other.
        let mut state = 7_u64;
        let mut pick = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            VALUES[(state >> 33) as usize % VALUES.len()]
        };
        for plen in 0..=8 {
            let n = LEAF_BLOCK + 6;
            let mut arena = MvpArena::new(2);
            arena.push_leaf(0, Some(1), plen);
            let mut rows = Vec::new();
            for id in 0..n {
                let row: Vec<f64> = (0..plen + 2).map(|_| pick()).collect();
                arena.push_leaf_entry(id as u32 + 2, row[0], row[1], &row[2..]);
                rows.push(row);
            }
            let view = arena.view();
            let MvpNodeView::Leaf { entries, .. } = view.node(0) else {
                unreachable!("node 0 is the leaf")
            };
            for _ in 0..20 {
                let (dq1, dq2) = (pick(), pick());
                let path: Vec<f64> = (0..plen).map(|_| pick()).collect();
                let mut out = [0.0; LEAF_BLOCK];
                for start in (0..n).step_by(LEAF_BLOCK) {
                    let len = LEAF_BLOCK.min(n - start);
                    fill_leaf_bounds(&entries, start, dq1, dq2, &path, &mut out[..len]);
                    for (i, &got) in out[..len].iter().enumerate() {
                        let row = &rows[start + i];
                        let want = max_fold(dq1, dq2, &path, row[0], row[1], &row[2..]);
                        assert!(
                            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                            "p={plen} entry {}: {got} != {want}",
                            start + i
                        );
                    }
                }
            }
        }
    }
}
