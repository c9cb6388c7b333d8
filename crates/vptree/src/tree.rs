//! The [`VpTree`] type and its public surface.

use vantage_core::{MetricIndex, Neighbor};

use crate::arena::{VpArena, VpArenaView};
use crate::params::VpTreeParams;
use crate::treeref::VpTreeRef;

/// An m-way vantage-point tree over items of type `T` under metric `M`.
///
/// Built once from a dataset ([`VpTree::build`]); answers range and
/// k-nearest-neighbor queries through [`MetricIndex`]. Nodes live in a
/// flat, index-addressed [`VpArena`]; see the crate docs for the
/// algorithm and the faithfulness notes. Items are stored in the arena's
/// row order (see [`crate::arena`]), so each leaf bucket is one
/// contiguous block; item ids keep naming the caller's original order.
#[derive(Debug, Clone)]
pub struct VpTree<T, M> {
    /// Items in row order: `items[rows[id]]` is item `id`.
    pub(crate) items: Vec<T>,
    /// The id→row table, derived from the arena.
    pub(crate) rows: Vec<u32>,
    pub(crate) metric: M,
    pub(crate) arena: VpArena,
    pub(crate) root: Option<u32>,
    pub(crate) params: VpTreeParams,
    /// Distance computations the build performed.
    pub(crate) build_distances: u64,
}

impl<T, M> VpTree<T, M> {
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
    pub fn items_by_id(&self) -> impl ExactSizeIterator<Item = &T> + '_ {
        self.rows.iter().map(|&row| &self.items[row as usize])
    }

    /// All indexed items in row order — the layout the search kernels
    /// and snapshots use ([`VpArenaView::row_order`] names the id at
    /// each row).
    pub fn row_items(&self) -> &[T] {
        &self.items
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
    /// zero-copy snapshot path serves queries through.
    pub fn as_view(&self) -> VpTreeRef<'_, &[T], M> {
        VpTreeRef::new(
            self.arena.view(),
            self.root,
            self.items.as_slice(),
            &self.rows,
            &self.metric,
        )
    }
}

impl<T, M: vantage_core::BoundedMetric<T>> MetricIndex<T> for VpTree<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.rows.get(id).map(|&row| &self.items[row as usize])
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.range_search(query, radius)
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.knn_search(query, k)
    }
}
