//! Shared search kernels over the flat arena view.
//!
//! Every query form — range, kNN, beyond, kFN, traced and budgeted — is
//! implemented exactly once here, generic over *where the nodes live*
//! (a [`VpArenaView`], borrowed from an owned arena or a mapped
//! snapshot) and *where the items live* (an [`ItemStore`]). Every search
//! runs through the borrowed [`VpTreeRef`](crate::VpTreeRef), an owned
//! [`VpTree`](crate::VpTree)'s included, so the materialized and zero-copy
//! paths answer bit-identically by construction: same arithmetic, same
//! visit order, same tie-breaking.
//!
//! Items are read in row order (see [`crate::arena`]): a leaf bucket's
//! items sit at consecutive rows, so one leaf scan reads one contiguous
//! block of the store, while vantage points resolve through the id→row
//! table. Neighbors, tie-breaks and trace events name original ids.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vantage_core::budget::{finish_budgeted, BudgetMeter, BudgetedKnn, SearchBudget};
use vantage_core::farthest::KfnCollector;
use vantage_core::trace::{DistanceRole, PruneReason, TraceSink};
use vantage_core::util::OrdF64;
use vantage_core::{BoundedMetric, ItemStore, KnnCollector, Metric, Neighbor};

use crate::arena::{VpArenaView, VpNodeView, NO_CHILD};

/// Probability that an *uncertain* budgeted result (distance above the
/// frontier bound) is nevertheless a true k-nearest neighbor. Calibrated
/// against the measured recall-vs-cost curve of the `budget` experiment
/// in `vantage-experiments`; must stay below 1 so inexact answers never
/// report perfect recall.
pub(crate) const GAMMA: f64 = 0.85; // measured 0.889 at the 50%-cost calibration point

/// The spherical shell `[lo, hi]` of child `i` around a vantage point.
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

/// One query's traversal context: the node arena, the row-ordered item
/// store and its id→row table, the metric and the query point.
pub(crate) struct Kernel<'k, I: ?Sized, M, T: ?Sized> {
    pub arena: VpArenaView<'k>,
    pub root: Option<u32>,
    pub items: &'k I,
    pub rows: &'k [u32],
    pub metric: &'k M,
    pub query: &'k T,
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

    /// Range search (paper §3.3): all items within `radius` of the query.
    pub fn range<S: TraceSink>(&self, radius: f64, sink: &mut S) -> Vec<Neighbor>
    where
        M: BoundedMetric<T>,
    {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_node(root, radius, 0, sink, &mut out);
        }
        out
    }

    fn range_node<S: TraceSink>(
        &self,
        node: u32,
        radius: f64,
        level: u32,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) where
        M: BoundedMetric<T>,
    {
        match self.arena.node(node) {
            VpNodeView::Leaf { items, first_row } => {
                sink.enter_node(level, true);
                for (row, &id) in (first_row..).zip(items) {
                    sink.distance(DistanceRole::Candidate);
                    match self
                        .metric
                        .distance_within_frac(self.query, self.items.get(row), radius)
                    {
                        (Some(d), _) => out.push(Neighbor::new(id as usize, d)),
                        (None, work) => {
                            sink.abandon(DistanceRole::Candidate, work);
                        }
                    }
                }
            }
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                sink.enter_node(level, false);
                sink.distance(DistanceRole::Vantage);
                let d = self.metric.distance(self.query, self.item(vantage));
                if d <= radius {
                    out.push(Neighbor::new(vantage as usize, d));
                }
                for (i, &child) in children.iter().enumerate() {
                    if child == NO_CHILD {
                        continue;
                    }
                    let (lo, hi) = shell(cutoffs, i);
                    if d - radius <= hi && d + radius >= lo {
                        self.range_node(child, radius, level + 1, sink, out);
                    } else if S::ENABLED {
                        sink.prune(level + 1, PruneReason::FirstShell, (d - hi).max(lo - d));
                    }
                }
            }
        }
    }

    /// Best-first kNN traversal into a caller-provided collector — the
    /// shared kernel behind kNN [`Search`](vantage_core::Search) and the
    /// sharded scatter path (which passes a collector wired to a
    /// cross-shard bound). `k = 0` computes nothing.
    pub fn knn_into<S: TraceSink>(&self, collector: &mut KnnCollector, sink: &mut S)
    where
        M: BoundedMetric<T>,
    {
        if collector.k() == 0 {
            return;
        }
        // The heap carries each subtree's depth alongside its bound; the
        // ordering is unchanged (arena ids are unique, so the depth field
        // never participates in a comparison).
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u32)>> = BinaryHeap::new();
        if let Some(root) = self.root {
            heap.push(Reverse((OrdF64(0.0), root, 0)));
        }
        while let Some(Reverse((OrdF64(bound), node, level))) = heap.pop() {
            if bound > collector.radius() {
                // Every remaining entry has an even larger bound.
                if S::ENABLED {
                    sink.prune(level, PruneReason::FirstShell, bound);
                    for Reverse((OrdF64(b), _, l)) in heap.drain() {
                        sink.prune(l, PruneReason::FirstShell, b);
                    }
                }
                break;
            }
            match self.arena.node(node) {
                VpNodeView::Leaf { items, first_row } => {
                    sink.enter_node(level, true);
                    for (row, &id) in (first_row..).zip(items) {
                        sink.distance(DistanceRole::Candidate);
                        // Bounded by the current k-th best distance: a
                        // candidate the kernel abandons is one the
                        // collector's strict `<` would have discarded.
                        match self.metric.distance_within_frac(
                            self.query,
                            self.items.get(row),
                            collector.radius(),
                        ) {
                            (Some(d), _) => {
                                collector.offer(id as usize, d);
                            }
                            (None, work) => {
                                sink.abandon(DistanceRole::Candidate, work);
                            }
                        }
                    }
                }
                VpNodeView::Internal {
                    vantage,
                    cutoffs,
                    children,
                } => {
                    sink.enter_node(level, false);
                    sink.distance(DistanceRole::Vantage);
                    let d = self.metric.distance(self.query, self.item(vantage));
                    collector.offer(vantage as usize, d);
                    for (i, &child) in children.iter().enumerate() {
                        if child == NO_CHILD {
                            continue;
                        }
                        let (lo, hi) = shell(cutoffs, i);
                        let child_bound = (d - hi).max(lo - d).max(0.0);
                        if child_bound <= collector.radius() {
                            heap.push(Reverse((OrdF64(child_bound), child, level + 1)));
                        } else if S::ENABLED {
                            sink.prune(level + 1, PruneReason::FirstShell, child_bound);
                        }
                    }
                }
            }
        }
    }

    /// Far-range search: all items at distance ≥ `radius` (paper §2's
    /// query variations). Pruning mirrors range search: a subtree is
    /// skipped when its upper bound `d + hi` cannot reach the threshold.
    pub fn beyond<S: TraceSink>(&self, radius: f64, sink: &mut S) -> Vec<Neighbor>
    where
        M: Metric<T>,
    {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.beyond_node(root, radius, 0, sink, &mut out);
        }
        out
    }

    fn beyond_node<S: TraceSink>(
        &self,
        node: u32,
        radius: f64,
        level: u32,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) where
        M: Metric<T>,
    {
        match self.arena.node(node) {
            VpNodeView::Leaf { items, first_row } => {
                sink.enter_node(level, true);
                for (row, &id) in (first_row..).zip(items) {
                    sink.distance(DistanceRole::Candidate);
                    let d = self.metric.distance(self.query, self.items.get(row));
                    if d >= radius {
                        out.push(Neighbor::new(id as usize, d));
                    }
                }
            }
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                sink.enter_node(level, false);
                sink.distance(DistanceRole::Vantage);
                let d = self.metric.distance(self.query, self.item(vantage));
                if d >= radius {
                    out.push(Neighbor::new(vantage as usize, d));
                }
                for (i, &child) in children.iter().enumerate() {
                    if child == NO_CHILD {
                        continue;
                    }
                    let (_, hi) = shell(cutoffs, i);
                    if d + hi >= radius {
                        self.beyond_node(child, radius, level + 1, sink, out);
                    } else if S::ENABLED {
                        sink.prune(level + 1, PruneReason::FirstShell, radius - (d + hi));
                    }
                }
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
        if let Some(root) = self.root {
            self.kfn_node(root, collector, 0, sink);
        }
    }

    fn kfn_node<S: TraceSink>(
        &self,
        node: u32,
        collector: &mut KfnCollector,
        level: u32,
        sink: &mut S,
    ) where
        M: Metric<T>,
    {
        match self.arena.node(node) {
            VpNodeView::Leaf { items, first_row } => {
                sink.enter_node(level, true);
                for (row, &id) in (first_row..).zip(items) {
                    sink.distance(DistanceRole::Candidate);
                    let d = self.metric.distance(self.query, self.items.get(row));
                    collector.offer(id as usize, d);
                }
            }
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                sink.enter_node(level, false);
                sink.distance(DistanceRole::Vantage);
                let d = self.metric.distance(self.query, self.item(vantage));
                collector.offer(vantage as usize, d);
                // Farthest-promising children first so the threshold
                // rises early.
                let mut order: Vec<(f64, u32)> = children
                    .iter()
                    .enumerate()
                    .filter(|&(_, &child)| child != NO_CHILD)
                    .map(|(i, &child)| {
                        let (_, hi) = shell(cutoffs, i);
                        (d + hi, child)
                    })
                    .collect();
                order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
                let mut abandoned = None;
                for (pos, &(upper, child)) in order.iter().enumerate() {
                    // Tie-inclusive: a child whose upper bound *equals*
                    // the threshold may hold an equidistant point with a
                    // smaller id, which canonical tie-breaking must see.
                    if upper < collector.radius() {
                        abandoned = Some(pos);
                        break;
                    }
                    self.kfn_node(child, collector, level + 1, sink);
                }
                if S::ENABLED {
                    if let Some(pos) = abandoned {
                        for &(upper, _) in &order[pos..] {
                            sink.prune(level + 1, PruneReason::FirstShell, upper);
                        }
                    }
                }
            }
        }
    }

    /// Budgeted best-effort kNN: the same best-first branch-and-bound as
    /// exact kNN with a [`BudgetMeter`] charged before every metric
    /// distance. When a charge is refused the search stops and the
    /// *frontier bound* — the smallest lower bound over all unexplored
    /// work — is folded into the recall estimate.
    pub fn knn_budgeted(&self, k: usize, budget: SearchBudget) -> BudgetedKnn
    where
        M: BoundedMetric<T>,
    {
        let mut meter = BudgetMeter::new(budget);
        let mut collector = KnnCollector::new(k);
        let mut frontier = f64::INFINITY;
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        if k > 0 {
            if let Some(root) = self.root {
                heap.push(Reverse((OrdF64(0.0), root)));
            }
        }
        'search: while let Some(Reverse((OrdF64(bound), node))) = heap.pop() {
            if bound > collector.radius() {
                // Exact termination: every remaining entry is provably
                // outside the answer, no uncertainty to account.
                heap.clear();
                break;
            }
            match self.arena.node(node) {
                VpNodeView::Leaf { items, first_row } => {
                    for (row, &id) in (first_row..).zip(items) {
                        if !meter.try_charge() {
                            // This candidate and the rest of the leaf
                            // sit in a subtree admitted at `bound`.
                            frontier = frontier.min(bound);
                            break 'search;
                        }
                        match self.metric.distance_within_frac(
                            self.query,
                            self.items.get(row),
                            collector.radius(),
                        ) {
                            (Some(d), _) => {
                                collector.offer(id as usize, d);
                            }
                            (None, work) => meter.abandon(work),
                        }
                    }
                }
                VpNodeView::Internal {
                    vantage,
                    cutoffs,
                    children,
                } => {
                    if !meter.try_charge() {
                        frontier = frontier.min(bound);
                        break 'search;
                    }
                    let d = self.metric.distance(self.query, self.item(vantage));
                    collector.offer(vantage as usize, d);
                    for (i, &child) in children.iter().enumerate() {
                        if child == NO_CHILD {
                            continue;
                        }
                        let (lo, hi) = shell(cutoffs, i);
                        let child_bound = (d - hi).max(lo - d).max(0.0);
                        if child_bound <= collector.radius() {
                            heap.push(Reverse((OrdF64(child_bound.max(bound)), child)));
                        }
                    }
                }
            }
        }
        if meter.exhausted() {
            // Unexplored subtrees still queued when the budget ran out;
            // entries above the final radius are provably non-answers
            // and do not weaken the certainty frontier.
            let radius = collector.radius();
            for &Reverse((OrdF64(b), _)) in heap.iter() {
                if b <= radius {
                    frontier = frontier.min(b);
                }
            }
        }
        finish_budgeted(
            collector.into_sorted(),
            k,
            self.items.len(),
            frontier,
            GAMMA,
            &meter,
        )
    }
}
