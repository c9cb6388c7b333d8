//! The [`VpTree`] type and its public surface.

use vantage_core::{MetricIndex, Neighbor, Result};

use crate::arena::{VpArena, VpArenaView};
use crate::params::VpTreeParams;
use crate::treeref::VpTreeRef;
use crate::validate::validate_arena;

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

    /// Assembles a tree from items in row order, a metric, parameters
    /// and a flat node arena, validating every structural invariant the
    /// search paths rely on — the decode path of the persistence layer.
    /// The id→row table is derived from the validated arena.
    ///
    /// # Errors
    ///
    /// [`CorruptSnapshot`](vantage_core::VantageError::CorruptSnapshot)
    /// describing the first violated invariant, or an
    /// [`InvalidParameter`](vantage_core::VantageError::InvalidParameter)
    /// from the embedded params.
    pub fn from_arena(
        items: Vec<T>,
        metric: M,
        params: VpTreeParams,
        root: Option<u32>,
        arena: VpArena,
    ) -> Result<Self> {
        params.validate()?;
        validate_arena(arena.view(), root, items.len(), &params)?;
        let rows = arena.view().id_rows(items.len());
        Ok(VpTree {
            items,
            rows,
            metric,
            arena,
            root,
            params,
        })
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
