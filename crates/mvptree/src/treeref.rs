//! Borrowed mvp-tree views: answer every query form without owning
//! nodes or items.
//!
//! An [`MvpTreeRef`] is the zero-copy counterpart of
//! [`MvpTree`](crate::MvpTree): the node arena is a borrowed
//! [`MvpArenaView`] (an owned tree's, or one resolved inside a
//! memory-mapped snapshot section) and the items come from any
//! [`ItemStore`] — a plain slice, or a flat buffer such as
//! [`FlatF64s`](vantage_core::FlatF64s) — laid out in the arena's row
//! order, with the id→row table the arena derives
//! ([`MvpArenaView::id_rows`]). Every search of an owned tree runs
//! through this view too, so a mapped snapshot answers bit-identically
//! to the tree it was saved from.

use vantage_core::budget::{BudgetedKnn, SearchBudget};
use vantage_core::trace::{NoTrace, TraceSink};
use vantage_core::{BoundedMetric, ItemStore, Neighbor, Query, Search};

use crate::arena::MvpArenaView;
use crate::kernel::Kernel;

/// A borrowed mvp-tree: arena view + row-ordered item store + id→row
/// table + metric + PATH cap.
///
/// Construction performs no validation — the arena and store must
/// describe a structurally valid tree (every id in range, spans in
/// bounds). The owned-tree path guarantees this by construction; the
/// snapshot path validates once at open time, before any view is built.
#[derive(Debug, Clone, Copy)]
pub struct MvpTreeRef<'a, S, M> {
    arena: MvpArenaView<'a>,
    root: Option<u32>,
    store: S,
    rows: &'a [u32],
    metric: &'a M,
    p: usize,
}

impl<'a, S: ItemStore, M> MvpTreeRef<'a, S, M> {
    /// Binds a validated arena view, root, row-ordered item store, the
    /// arena's id→row table ([`MvpArenaView::id_rows`]), metric and PATH
    /// cap (`MvpParams::p`).
    pub fn new(
        arena: MvpArenaView<'a>,
        root: Option<u32>,
        store: S,
        rows: &'a [u32],
        metric: &'a M,
        p: usize,
    ) -> Self {
        MvpTreeRef {
            arena,
            root,
            store,
            rows,
            metric,
            p,
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

    /// The item stored at `row` of the row-ordered store.
    pub(crate) fn row(&self, row: u32) -> &S::Item {
        self.store.get(row)
    }

    /// The metric in use.
    pub fn metric(&self) -> &'a M {
        self.metric
    }

    /// The underlying arena view.
    pub fn arena(&self) -> MvpArenaView<'a> {
        self.arena
    }

    pub(crate) fn kernel<'k>(&'k self, query: &'k S::Item) -> Kernel<'k, S, M, S::Item> {
        Kernel {
            arena: self.arena,
            root: self.root,
            items: &self.store,
            rows: self.rows,
            metric: self.metric,
            query,
            p: self.p,
        }
    }

    /// Range search: all items within `radius` of `query`.
    pub fn range(&self, query: &S::Item, radius: f64) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.search(query, Query::Range(radius), &mut NoTrace)
    }

    /// k-nearest-neighbor search.
    pub fn knn(&self, query: &S::Item, k: usize) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.search(query, Query::Knn(k), &mut NoTrace)
    }

    /// Far-range search: all items at distance ≥ `radius` from `query`.
    pub fn range_beyond(&self, query: &S::Item, radius: f64) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.search(query, Query::Beyond(radius), &mut NoTrace)
    }

    /// The k items farthest from `query`.
    pub fn k_farthest(&self, query: &S::Item, k: usize) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        self.search(query, Query::Kfn(k), &mut NoTrace)
    }

    /// kNN answered by a scan of the tree's own row-ordered item store
    /// ([`vantage_core::scan`] over every row, each named by the id
    /// [`MvpArenaView::row_order`] gives it) instead of a descent: `n`
    /// candidate distances, the same answer as the kNN
    /// [`search`](Search::search) (the collector's tie-break is
    /// canonical).
    pub fn knn_scan<Sink: TraceSink>(
        &self,
        query: &S::Item,
        k: usize,
        sink: &mut Sink,
    ) -> Vec<Neighbor>
    where
        M: BoundedMetric<S::Item>,
    {
        let rows = (0..)
            .zip(self.arena.row_order())
            .map(|(row, id)| (id as usize, self.store.get(row)));
        vantage_core::scan(self.metric, query, Query::Knn(k), rows, sink)
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
