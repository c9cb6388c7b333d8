//! The [`MvpTree`] type and its public surface.

use std::marker::PhantomData;

use vantage_core::{BoundedMetric, MetricIndex, Neighbor, NoTrace, Query, RowStore, Search};

use crate::arena::{MvpArena, MvpArenaView};
use crate::params::MvpParams;
use crate::treeref::MvpTreeRef;

/// A multi-vantage-point tree over items of type `T` under metric `M`,
/// holding its items in the row store `S`.
///
/// Built once from a dataset ([`MvpTree::build`], paper §4.2); answers
/// range and k-nearest-neighbor queries through [`MetricIndex`] (paper
/// §4.3). Nodes live in a flat, index-addressed [`MvpArena`]; see the
/// crate docs for the algorithm. Items are stored in the arena's row
/// order (see [`crate::arena`]), so each leaf's candidates are one
/// contiguous block; item ids keep naming the caller's original order.
///
/// [`build`](MvpTree::build) keeps a `Vec<T>`;
/// [`with_rows`](MvpTree::with_rows) builds over vectors or strings
/// packed into one flat buffer ([`F64Rows`],
/// [`StrRows`](vantage_core::StrRows), by `RowStore::from_items`), the
/// layout a mapped snapshot serves, and queries then take the unsized
/// item (`&[f64]`, `&str`).
/// Every search runs through [`as_view`](MvpTree::as_view), so both
/// stores answer bit-identically.
///
/// [`F64Rows`]: vantage_core::F64Rows
#[derive(Debug, Clone)]
pub struct MvpTree<T, M, S = Vec<T>> {
    /// Items in row order: row `rows[id]` holds item `id`.
    pub(crate) items: S,
    /// The id→row table, derived from the arena.
    pub(crate) rows: Vec<u32>,
    pub(crate) metric: M,
    pub(crate) arena: MvpArena,
    pub(crate) root: Option<u32>,
    pub(crate) params: MvpParams,
    /// Distance computations the build performed.
    pub(crate) build_distances: u64,
    pub(crate) item: PhantomData<fn() -> T>,
}

impl<T, M, S: RowStore<T>> MvpTree<T, M, S> {
    /// The construction parameters.
    pub fn params(&self) -> &MvpParams {
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
    /// and snapshots use ([`MvpArenaView::row_order`] names the id at
    /// each row).
    pub fn row_items(&self) -> S::View<'_> {
        self.items.view()
    }

    /// The flat node arena.
    pub fn arena(&self) -> MvpArenaView<'_> {
        self.arena.view()
    }

    /// Arena id of the root node (`None` for an empty tree).
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    /// Borrows the tree as an [`MvpTreeRef`] — the same view type the
    /// zero-copy snapshot path serves queries through, and the one every
    /// search of this tree runs on.
    pub fn as_view(&self) -> MvpTreeRef<'_, S::View<'_>, M> {
        MvpTreeRef::new(
            self.arena.view(),
            self.root,
            self.items.view(),
            &self.rows,
            &self.metric,
            self.params.p,
        )
    }
}

impl<T, M, S> MetricIndex<S::Item> for MvpTree<T, M, S>
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
