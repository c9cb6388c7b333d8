//! Borrowed vp-tree views: answer every query form without owning
//! nodes or items.
//!
//! A [`VpTreeRef`] is the zero-copy counterpart of
//! [`VpTree`](crate::VpTree): the node arena is a borrowed
//! [`VpArenaView`] (an owned tree's, or one resolved inside a
//! memory-mapped snapshot section) and the items come from any
//! [`ItemStore`] — a plain slice, or a flat buffer such as
//! [`FlatF64s`](vantage_core::FlatF64s) — laid out in the arena's row
//! order, with the id→row table the arena derives
//! ([`VpArenaView::id_rows`]). Every search of an owned tree runs
//! through this view too, so a mapped snapshot answers bit-identically
//! to the tree it was saved from.

use vantage_core::budget::{BudgetedKnn, SearchBudget};
use vantage_core::farthest::KfnCollector;
use vantage_core::trace::{NoTrace, TraceSink};
use vantage_core::{BoundedMetric, ItemStore, KnnCollector, Metric, Neighbor};

use crate::arena::VpArenaView;
use crate::kernel::Kernel;

/// A borrowed vp-tree: arena view + row-ordered item store + id→row
/// table + metric.
///
/// Construction performs no validation — the arena and store must
/// describe a structurally valid tree (every id in range, spans in
/// bounds). The owned-tree path guarantees this by construction; the
/// snapshot path validates once at open time, before any view is built.
#[derive(Debug, Clone, Copy)]
pub struct VpTreeRef<'a, S, M> {
    arena: VpArenaView<'a>,
    root: Option<u32>,
    store: S,
    rows: &'a [u32],
    metric: &'a M,
}

impl<'a, S: ItemStore, M> VpTreeRef<'a, S, M> {
    /// Binds a validated arena view, root, row-ordered item store, the
    /// arena's id→row table ([`VpArenaView::id_rows`]) and metric.
    pub fn new(
        arena: VpArenaView<'a>,
        root: Option<u32>,
        store: S,
        rows: &'a [u32],
        metric: &'a M,
    ) -> Self {
        VpTreeRef {
            arena,
            root,
            store,
            rows,
            metric,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the tree indexes no items.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The item named by `id` (resolved through the id→row table).
    pub fn item(&self, id: u32) -> &S::Item {
        self.store.get(self.rows[id as usize])
    }

    /// The metric in use.
    pub fn metric(&self) -> &'a M {
        self.metric
    }

    /// The underlying arena view.
    pub fn arena(&self) -> VpArenaView<'a> {
        self.arena
    }

    fn kernel<'k>(&'k self, query: &'k S::Item) -> Kernel<'k, S, M, S::Item> {
        Kernel {
            arena: self.arena,
            root: self.root,
            items: &self.store,
            rows: self.rows,
            metric: self.metric,
            query,
        }
    }

    /// Range search: all items within `radius` of `query`.
    pub fn range(&self, query: &S::Item, radius: f64) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.range_traced(query, radius, &mut NoTrace)
    }

    /// [`range`](VpTreeRef::range) with instrumentation into `sink`.
    pub fn range_traced<Sink: TraceSink>(
        &self,
        query: &S::Item,
        radius: f64,
        sink: &mut Sink,
    ) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.kernel(query).range(radius, sink)
    }

    /// Best-first k-nearest-neighbor search.
    pub fn knn(&self, query: &S::Item, k: usize) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.knn_traced(query, k, &mut NoTrace)
    }

    /// [`knn`](VpTreeRef::knn) with instrumentation into `sink`.
    pub fn knn_traced<Sink: TraceSink>(
        &self,
        query: &S::Item,
        k: usize,
        sink: &mut Sink,
    ) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        let mut collector = KnnCollector::new(k);
        self.knn_into(&mut collector, query, sink);
        collector.into_sorted()
    }

    /// Runs the best-first kNN traversal into a caller-provided
    /// collector (a shared cross-shard bound).
    pub(crate) fn knn_into<Sink: TraceSink>(
        &self,
        collector: &mut KnnCollector,
        query: &S::Item,
        sink: &mut Sink,
    ) where
        M: BoundedMetric<S::Item>,
    {
        self.kernel(query).knn_into(collector, sink);
    }

    /// Far-range search: all items at distance ≥ `radius` from `query`.
    pub fn range_beyond(&self, query: &S::Item, radius: f64) -> Vec<Neighbor>
    where
        M: Metric<S::Item>,
    {
        self.beyond_traced(query, radius, &mut NoTrace)
    }

    /// [`range_beyond`](VpTreeRef::range_beyond) with instrumentation.
    pub fn beyond_traced<Sink: TraceSink>(
        &self,
        query: &S::Item,
        radius: f64,
        sink: &mut Sink,
    ) -> Vec<Neighbor>
    where
        M: Metric<S::Item>,
    {
        self.kernel(query).beyond(radius, sink)
    }

    /// The k items farthest from `query`.
    pub fn k_farthest(&self, query: &S::Item, k: usize) -> Vec<Neighbor>
    where
        M: Metric<S::Item>,
    {
        self.kfn_traced(query, k, &mut NoTrace)
    }

    /// [`k_farthest`](VpTreeRef::k_farthest) with instrumentation.
    pub fn kfn_traced<Sink: TraceSink>(
        &self,
        query: &S::Item,
        k: usize,
        sink: &mut Sink,
    ) -> Vec<Neighbor>
    where
        M: Metric<S::Item>,
    {
        let mut collector = KfnCollector::new(k);
        if k > 0 {
            self.kfn_into(&mut collector, query, sink);
        }
        collector.into_sorted()
    }

    /// Runs the k-farthest traversal into a caller-provided collector
    /// (a shared cross-shard bound).
    pub(crate) fn kfn_into<Sink: TraceSink>(
        &self,
        collector: &mut KfnCollector,
        query: &S::Item,
        sink: &mut Sink,
    ) where
        M: Metric<S::Item>,
    {
        self.kernel(query).kfn_into(collector, sink);
    }

    /// Budgeted best-effort kNN; see
    /// [`BudgetedSearch`](vantage_core::BudgetedSearch).
    pub fn knn_budgeted(&self, query: &S::Item, k: usize, budget: SearchBudget) -> BudgetedKnn
    where
        M: BoundedMetric<S::Item>,
    {
        self.kernel(query).knn_budgeted(k, budget)
    }
}
