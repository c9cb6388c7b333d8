//! The [`VpTree`] type and its public surface.

use std::marker::PhantomData;

use vantage_core::{BoundedMetric, MetricIndex, Neighbor, NoTrace, Query, RowStore, Search};

use crate::arena::{VpArena, VpArenaView};
use crate::params::VpTreeParams;
use crate::treeref::VpTreeRef;

/// An m-way vantage-point tree over items of type `T` under metric `M`,
/// holding its items in the row store `S`.
///
/// Built once from a dataset ([`VpTree::build`]); answers range and
/// k-nearest-neighbor queries through [`MetricIndex`]. Nodes live in a
/// flat, index-addressed [`VpArena`]; see the crate docs for the
/// algorithm and the faithfulness notes. Items are stored in the arena's
/// row order (see [`crate::arena`]), so each leaf bucket is one
/// contiguous block; item ids keep naming the caller's original order.
///
/// [`build`](VpTree::build) keeps a `Vec<T>`;
/// [`with_rows`](VpTree::with_rows) builds over vectors or strings
/// packed into one flat buffer (`RowStore::from_items`), the layout a
/// mapped snapshot serves, and queries then take the unsized item
/// (`&[f64]`, `&str`). Every search runs through [`as_view`](VpTree::as_view).
#[derive(Debug, Clone)]
pub struct VpTree<T, M, S = Vec<T>> {
    /// Items in row order: row `rows[id]` holds item `id`.
    pub(crate) items: S,
    /// The id→row table, derived from the arena.
    pub(crate) rows: Vec<u32>,
    pub(crate) metric: M,
    pub(crate) arena: VpArena,
    pub(crate) root: Option<u32>,
    pub(crate) params: VpTreeParams,
    /// Distance computations the build performed.
    pub(crate) build_distances: u64,
    pub(crate) item: PhantomData<fn() -> T>,
}

impl<T, M, S: RowStore<T>> VpTree<T, M, S> {
    /// The construction parameters.
    pub fn params(&self) -> &VpTreeParams {
        &self.params
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Distance computations the build performed, vantage-point
    /// selection included — the paper's construction cost, counted by
    /// the builder itself, whatever the metric and worker count.
    pub fn build_distances(&self) -> u64 {
        self.build_distances
    }

    /// All indexed items in id order (the order they were built from).
    pub fn items_by_id(&self) -> impl ExactSizeIterator<Item = &S::Item> + '_ {
        self.rows.iter().map(|&row| self.items.row(row))
    }

    /// All indexed items in row order — the layout the search kernels
    /// and snapshots use ([`VpArenaView::row_order`] names the id at
    /// each row).
    pub fn row_items(&self) -> S::View<'_> {
        self.items.view()
    }

    /// The flat node arena.
    pub fn arena(&self) -> VpArenaView<'_> {
        self.arena.view()
    }

    /// Arena id of the root node (`None` for an empty tree).
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    /// Borrows the tree as a [`VpTreeRef`] — the same view type the
    /// zero-copy snapshot path serves queries through, and the one every
    /// search of this tree runs on.
    pub fn as_view(&self) -> VpTreeRef<'_, S::View<'_>, M> {
        VpTreeRef::new(
            self.arena.view(),
            self.root,
            self.items.view(),
            &self.rows,
            &self.metric,
        )
    }
}

impl<T, M, S> MetricIndex<S::Item> for VpTree<T, M, S>
where
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn get(&self, id: usize) -> Option<&S::Item> {
        self.rows.get(id).map(|&row| self.items.row(row))
    }

    fn range(&self, query: &S::Item, radius: f64) -> Vec<Neighbor> {
        self.search(query, Query::Range(radius), &mut NoTrace)
    }

    fn knn(&self, query: &S::Item, k: usize) -> Vec<Neighbor> {
        self.search(query, Query::Knn(k), &mut NoTrace)
    }
}
