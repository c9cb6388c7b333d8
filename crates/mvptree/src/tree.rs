//! The [`MvpTree`] type and its public surface.

use vantage_core::{MetricIndex, Neighbor};

use crate::arena::{MvpArena, MvpArenaView};
use crate::params::MvpParams;
use crate::treeref::MvpTreeRef;

/// A multi-vantage-point tree over items of type `T` under metric `M`.
///
/// Built once from a dataset ([`MvpTree::build`], paper §4.2); answers
/// range and k-nearest-neighbor queries through [`MetricIndex`] (paper
/// §4.3). Nodes live in a flat, index-addressed [`MvpArena`]; see the
/// crate docs for the algorithm. Items are stored in the arena's row
/// order (see [`crate::arena`]), so each leaf's candidates are one
/// contiguous block; item ids keep naming the caller's original order.
#[derive(Debug, Clone)]
pub struct MvpTree<T, M> {
    /// Items in row order: `items[rows[id]]` is item `id`.
    pub(crate) items: Vec<T>,
    /// The id→row table, derived from the arena.
    pub(crate) rows: Vec<u32>,
    pub(crate) metric: M,
    pub(crate) arena: MvpArena,
    pub(crate) root: Option<u32>,
    pub(crate) params: MvpParams,
}

impl<T, M> MvpTree<T, M> {
    /// The construction parameters.
    pub fn params(&self) -> &MvpParams {
        &self.params
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// All indexed items in id order (the order they were built from).
    pub fn items_by_id(&self) -> impl ExactSizeIterator<Item = &T> + '_ {
        self.rows.iter().map(|&row| &self.items[row as usize])
    }

    /// All indexed items in row order — the layout the search kernels
    /// and snapshots use ([`MvpArenaView::row_order`] names the id at
    /// each row).
    pub fn row_items(&self) -> &[T] {
        &self.items
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
    /// zero-copy snapshot path serves queries through.
    pub fn as_view(&self) -> MvpTreeRef<'_, &[T], M> {
        MvpTreeRef::new(
            self.arena.view(),
            self.root,
            self.items.as_slice(),
            &self.rows,
            &self.metric,
            self.params.p,
        )
    }
}

impl<T, M: vantage_core::BoundedMetric<T>> MetricIndex<T> for MvpTree<T, M> {
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
