//! Shared search kernels over the flat arena view.
//!
//! Every query form — range, kNN, beyond, kFN, traced and budgeted — is
//! implemented exactly once here, generic over *where the nodes live*
//! (an [`MvpArenaView`], borrowed from an owned arena or a mapped
//! snapshot) and *where the items live* (an [`ItemStore`]). The owned
//! [`MvpTree`](crate::MvpTree) and the borrowed
//! [`MvpTreeRef`](crate::MvpTreeRef) are thin wrappers around the same
//! monomorphized traversals, so the materialized and zero-copy paths
//! answer bit-identically by construction: same arithmetic, same visit
//! order, same tie-breaking.
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
    /// the shared kernel behind `knn_traced` and the sharded scatter
    /// path (which passes a collector wired to a cross-shard bound).
    pub fn knn_into<S: TraceSink>(&self, collector: &mut KnnCollector, sink: &mut S)
    where
        M: BoundedMetric<T>,
    {
        if collector.k() == 0 {
            return;
        }
        let mut path: Vec<f64> = Vec::with_capacity(self.p);
        if let Some(root) = self.root {
            self.knn_node(root, 0, collector, &mut path, sink);
        }
    }

    fn knn_node<S: TraceSink>(
        &self,
        node: u32,
        level: u32,
        collector: &mut KnnCollector,
        path: &mut Vec<f64>,
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
                for i in 0..entries.len() {
                    let b1 = (dq1 - entries.d1(i)).abs();
                    let b2 = (dq2 - entries.d2(i)).abs();
                    let mut bound = b1.max(b2);
                    for (&qp, &ep) in path.iter().zip(entries.path(i)) {
                        bound = bound.max((qp - ep).abs());
                    }
                    if bound <= collector.radius() {
                        let id = entries.id(i);
                        sink.distance(DistanceRole::Candidate);
                        // Bounded by the current k-th best distance: an
                        // abandoned candidate is one the collector's
                        // strict `<` would have discarded.
                        match self.metric.distance_within_frac(
                            self.query,
                            self.items.get(entries.row(i)),
                            collector.radius(),
                        ) {
                            (Some(d), _) => {
                                collector.offer(id as usize, d);
                            }
                            (None, work) => {
                                sink.abandon(DistanceRole::Candidate, work);
                            }
                        }
                    } else if S::ENABLED {
                        sink.reject(attribute_leaf_bound(b1, b2, bound), bound);
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
                // Order children by lower bound, then recurse while the
                // bound beats the (shrinking) k-th best distance. Each
                // entry carries which vantage point produced the larger
                // bound so abandoned children can be attributed; the sort
                // compares only the bound, so the extra field does not
                // perturb the visit order.
                let mut order: Vec<(f64, u32, PruneReason)> = Vec::with_capacity(m * m);
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
                        order.push((b1.max(b2), child, reason));
                    }
                }
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut abandoned = None;
                for (pos, &(bound, child, _)) in order.iter().enumerate() {
                    if bound > collector.radius() {
                        abandoned = Some(pos);
                        break;
                    }
                    self.knn_node(child, level + 1, collector, path, sink);
                }
                if S::ENABLED {
                    if let Some(pos) = abandoned {
                        for &(bound, _, reason) in &order[pos..] {
                            sink.prune(level + 1, reason, bound);
                        }
                    }
                }
                path.truncate(saved);
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
    /// early.
    pub fn kfn_into<S: TraceSink>(&self, collector: &mut KfnCollector, sink: &mut S)
    where
        M: Metric<T>,
    {
        let mut path: Vec<f64> = Vec::with_capacity(self.p);
        if let Some(root) = self.root {
            self.kfn_node(root, collector, 0, &mut path, sink);
        }
    }

    fn kfn_node<S: TraceSink>(
        &self,
        node: u32,
        collector: &mut KfnCollector,
        level: u32,
        path: &mut Vec<f64>,
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
                let mut order: Vec<(f64, u32, PruneReason)> = Vec::with_capacity(m * m);
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
                order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
                let mut abandoned = None;
                for (pos, &(upper, child, _)) in order.iter().enumerate() {
                    // Tie-inclusive, mirroring the leaf filter above.
                    if upper < collector.radius() {
                        abandoned = Some(pos);
                        break;
                    }
                    self.kfn_node(child, collector, level + 1, path, sink);
                }
                if S::ENABLED {
                    if let Some(pos) = abandoned {
                        for &(upper, _, reason) in &order[pos..] {
                            sink.prune(level + 1, reason, upper);
                        }
                    }
                }
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
                self.knn_budgeted_node(root, 0.0, &mut collector, &mut path, &mut state);
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
    /// that goes unexplored.
    fn knn_budgeted_node(
        &self,
        node: u32,
        node_bound: f64,
        collector: &mut KnnCollector,
        path: &mut Vec<f64>,
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
                    if let (Some(d), _) = self.metric.distance_within_frac(
                        self.query,
                        self.items.get(entries.row(i)),
                        collector.radius(),
                    ) {
                        collector.offer(id as usize, d);
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
                let mut order: Vec<(f64, u32)> = Vec::with_capacity(m * m);
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
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for (pos, &(bound, child)) in order.iter().enumerate() {
                    if bound > collector.radius() {
                        // Exact prune: this child and everything after it
                        // (bounds ascend) is provably outside the answer.
                        break;
                    }
                    if !self.knn_budgeted_node(child, bound.max(node_bound), collector, path, state)
                    {
                        for &(b, _) in &order[pos + 1..] {
                            if b <= collector.radius() {
                                state.frontier = state.frontier.min(b.max(node_bound));
                            }
                        }
                        path.truncate(saved);
                        return false;
                    }
                }
                path.truncate(saved);
                true
            }
        }
    }
}
