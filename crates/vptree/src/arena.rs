//! Flat, index-addressed node storage.
//!
//! The arena is the vp-tree's only node representation: construction
//! pushes nodes straight into it in DFS preorder, snapshots write its
//! arrays verbatim, and every search runs over it. The nodes live in a
//! handful of contiguous, fixed-stride arrays addressed by offsets
//! into shared buffers, with no per-node heap allocation. Every array
//! is addressed by plain integer arithmetic:
//!
//! * `meta[id]` — one `u32` per node: bit 31 set ⇒ leaf, the low
//!   31 bits are the node's *rank* among nodes of its class (its index
//!   into the class-segregated arrays below);
//! * internal rank `r`: `vantage[r]`, `children[r·order ..]` (child
//!   arena ids, [`NO_CHILD`] for empty partitions) and
//!   `cutoffs[r·(order−1) ..]`;
//! * leaf rank `r`: `leaf_spans[2r] .. +leaf_spans[2r+1]` delimits the
//!   leaf's bucket inside one shared `leaf_items` buffer.
//!
//! The tree's items are stored in **row order**
//! ([`VpArenaView::row_order`]): rows `0..L` are the leaf items in
//! `leaf_items` order, so each leaf scan reads one contiguous block of
//! the item store, then come the vantage points by internal rank. The
//! arrays above still name items by their original ids — what results
//! report — and the id→row table is derived from them.
//!
//! The same six arrays exist in two forms: [`VpArena`] owns them
//! (`Vec`s, the materialized tree), [`VpArenaView`] borrows them —
//! possibly straight out of a memory-mapped snapshot section. All
//! search, validation and statistics code is written against the view,
//! so the materialized and zero-copy paths run byte-for-byte the same
//! kernel.

/// Child-slot sentinel for an empty partition.
pub const NO_CHILD: u32 = u32::MAX;

/// Bit 31 of `meta`: set for leaves.
const LEAF_BIT: u32 = 1 << 31;

/// Packs a node-class flag and class rank into one `meta` word.
#[inline]
fn pack_meta(is_leaf: bool, rank: u32) -> u32 {
    debug_assert!(rank < LEAF_BIT);
    if is_leaf {
        rank | LEAF_BIT
    } else {
        rank
    }
}

/// Owned flat node storage of a vp-tree. See the module docs for the
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct VpArena {
    pub(crate) order: u32,
    pub(crate) meta: Vec<u32>,
    pub(crate) vantage: Vec<u32>,
    pub(crate) children: Vec<u32>,
    pub(crate) cutoffs: Vec<f64>,
    pub(crate) leaf_spans: Vec<u32>,
    pub(crate) leaf_items: Vec<u32>,
}

impl VpArena {
    /// An empty arena of fanout `order`, ready for construction to push
    /// nodes into in DFS preorder.
    pub(crate) fn new(order: usize) -> VpArena {
        VpArena {
            order: order as u32,
            meta: Vec::new(),
            vantage: Vec::new(),
            children: Vec::new(),
            cutoffs: Vec::new(),
            leaf_spans: Vec::new(),
            leaf_items: Vec::new(),
        }
    }

    /// Appends one `meta` word and returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed 2³¹ − 1 nodes.
    fn push_meta(&mut self, is_leaf: bool, rank: usize) -> u32 {
        let id = self.meta.len();
        assert!(id < LEAF_BIT as usize, "node arena exceeds 2^31 - 1 nodes");
        self.meta.push(pack_meta(is_leaf, rank as u32));
        id as u32
    }

    /// Appends a leaf bucket holding `items` and returns its node id.
    pub(crate) fn push_leaf(&mut self, items: &[u32]) -> u32 {
        let id = self.push_meta(true, self.leaf_spans.len() / 2);
        self.leaf_spans.push(self.leaf_items.len() as u32);
        self.leaf_spans.push(items.len() as u32);
        self.leaf_items.extend_from_slice(items);
        id
    }

    /// Appends an interior node whose `order` child slots all start as
    /// [`NO_CHILD`], and returns its node id. Construction reserves the
    /// node before recursing and fills the slots with
    /// [`set_children`](Self::set_children) once the subtrees exist.
    pub(crate) fn push_internal(&mut self, vantage: u32, cutoffs: &[f64]) -> u32 {
        let order = self.order as usize;
        debug_assert_eq!(cutoffs.len() + 1, order, "cutoffs match order");
        let id = self.push_meta(false, self.vantage.len());
        self.vantage.push(vantage);
        self.children.resize(self.children.len() + order, NO_CHILD);
        self.cutoffs.extend_from_slice(cutoffs);
        id
    }

    /// Fills interior node `node`'s child slots (`None` stays
    /// [`NO_CHILD`]).
    pub(crate) fn set_children(&mut self, node: u32, children: &[Option<u32>]) {
        let order = self.order as usize;
        let rank = (self.meta[node as usize] & !LEAF_BIT) as usize;
        debug_assert!(self.meta[node as usize] & LEAF_BIT == 0, "node is internal");
        for (slot, child) in self.children[rank * order..(rank + 1) * order]
            .iter_mut()
            .zip(children)
        {
            *slot = child.unwrap_or(NO_CHILD);
        }
    }

    /// Appends `local` (a subtree a worker built into its own arena)
    /// after every node already here, and returns the id offset its
    /// nodes moved by. Child ids, class ranks and leaf bucket starts are
    /// rebased, so splicing subtrees in child order yields exactly the
    /// arrays a sequential build pushes.
    pub(crate) fn splice(&mut self, local: VpArena) -> u32 {
        let offset = self.meta.len() as u32;
        let internals = self.vantage.len() as u32;
        let leaves = (self.leaf_spans.len() / 2) as u32;
        let items = self.leaf_items.len() as u32;
        assert!(
            self.meta.len() + local.meta.len() <= LEAF_BIT as usize,
            "node arena exceeds 2^31 - 1 nodes"
        );
        self.meta.extend(local.meta.iter().map(|&meta| {
            if meta & LEAF_BIT != 0 {
                meta + leaves
            } else {
                meta + internals
            }
        }));
        self.vantage.extend_from_slice(&local.vantage);
        self.children.extend(
            local
                .children
                .iter()
                .map(|&c| if c == NO_CHILD { c } else { c + offset }),
        );
        self.cutoffs.extend_from_slice(&local.cutoffs);
        self.leaf_spans.extend(
            local
                .leaf_spans
                .chunks_exact(2)
                .flat_map(|span| [span[0] + items, span[1]]),
        );
        self.leaf_items.extend_from_slice(&local.leaf_items);
        offset
    }

    /// Assembles an arena from raw flat arrays (the snapshot decode
    /// path). No validation happens here — callers must pass the result
    /// through the tree-level structural validation before searching.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_arrays(
        order: u32,
        meta: Vec<u32>,
        vantage: Vec<u32>,
        children: Vec<u32>,
        cutoffs: Vec<f64>,
        leaf_spans: Vec<u32>,
        leaf_items: Vec<u32>,
    ) -> VpArena {
        VpArena {
            order,
            meta,
            vantage,
            children,
            cutoffs,
            leaf_spans,
            leaf_items,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Borrows the arena as a view — the form every kernel consumes.
    pub fn view(&self) -> VpArenaView<'_> {
        VpArenaView {
            order: self.order as usize,
            meta: &self.meta,
            vantage: &self.vantage,
            children: &self.children,
            cutoffs: &self.cutoffs,
            leaf_spans: &self.leaf_spans,
            leaf_items: &self.leaf_items,
        }
    }
}

/// Borrowed flat node storage — over a [`VpArena`] or directly over the
/// typed slices of a snapshot section.
#[derive(Debug, Clone, Copy)]
pub struct VpArenaView<'a> {
    pub(crate) order: usize,
    pub(crate) meta: &'a [u32],
    pub(crate) vantage: &'a [u32],
    pub(crate) children: &'a [u32],
    pub(crate) cutoffs: &'a [f64],
    pub(crate) leaf_spans: &'a [u32],
    pub(crate) leaf_items: &'a [u32],
}

/// One resolved node of a [`VpArenaView`].
#[derive(Debug, Clone, Copy)]
pub enum VpNodeView<'a> {
    /// Interior node: vantage point, `order − 1` cutoffs, `order` child
    /// slots ([`NO_CHILD`] marks an empty partition).
    Internal {
        /// Item id of the node's vantage point.
        vantage: u32,
        /// Partition boundaries, non-decreasing.
        cutoffs: &'a [f64],
        /// Child arena ids, one slot per partition.
        children: &'a [u32],
    },
    /// Leaf bucket of item ids.
    Leaf {
        /// Item ids stored in this bucket.
        items: &'a [u32],
        /// The item-store row of `items[0]`: buckets are stored in
        /// `leaf_items` order, so `items[i]` sits at row `first_row + i`.
        first_row: u32,
    },
}

impl<'a> VpArenaView<'a> {
    /// Assembles a view from raw borrowed arrays (the zero-copy snapshot
    /// path). Like [`VpArena::from_raw_arrays`], shapes must have been
    /// validated before the view is searched.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        order: usize,
        meta: &'a [u32],
        vantage: &'a [u32],
        children: &'a [u32],
        cutoffs: &'a [f64],
        leaf_spans: &'a [u32],
        leaf_items: &'a [u32],
    ) -> Self {
        VpArenaView {
            order,
            meta,
            vantage,
            children,
            cutoffs,
            leaf_spans,
            leaf_items,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The tree fanout the strides are computed with.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of interior nodes.
    pub fn internal_count(&self) -> usize {
        self.vantage.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaf_spans.len() / 2
    }

    /// The per-node meta words (leaf bit + class rank).
    pub fn meta(&self) -> &'a [u32] {
        self.meta
    }

    /// Vantage-point item ids, one per interior node.
    pub fn vantage(&self) -> &'a [u32] {
        self.vantage
    }

    /// The contiguous child-id buffer (`internal_count × order`).
    pub fn children(&self) -> &'a [u32] {
        self.children
    }

    /// The contiguous cutoff buffer (`internal_count × (order − 1)`).
    pub fn cutoffs(&self) -> &'a [f64] {
        self.cutoffs
    }

    /// Leaf bucket spans: `(start, len)` per leaf into `leaf_items`.
    pub fn leaf_spans(&self) -> &'a [u32] {
        self.leaf_spans
    }

    /// The shared leaf bucket buffer.
    pub fn leaf_items(&self) -> &'a [u32] {
        self.leaf_items
    }

    /// The item id stored at each row, in row order: every leaf item
    /// (`leaf_items` order), then the vantage points by internal rank.
    /// Over a valid arena this names every item exactly once.
    pub fn row_order(&self) -> impl Iterator<Item = u32> + 'a {
        self.leaf_items.iter().chain(self.vantage).copied()
    }

    /// The id→row table of an arena over `n` items: `rows[id]` is the
    /// item-store row holding item `id`. The arena must have passed
    /// [`validate_arena`](crate::validate_arena) for `n` items.
    pub fn id_rows(&self, n: usize) -> Vec<u32> {
        vantage_core::id_rows(self.row_order(), n)
    }

    /// Resolves node `id` into its class arrays.
    #[inline]
    pub fn node(&self, id: u32) -> VpNodeView<'a> {
        let meta = self.meta[id as usize];
        let rank = (meta & !LEAF_BIT) as usize;
        if meta & LEAF_BIT != 0 {
            let start = self.leaf_spans[2 * rank] as usize;
            let len = self.leaf_spans[2 * rank + 1] as usize;
            VpNodeView::Leaf {
                items: &self.leaf_items[start..start + len],
                first_row: start as u32,
            }
        } else {
            let m = self.order;
            VpNodeView::Internal {
                vantage: self.vantage[rank],
                cutoffs: &self.cutoffs[rank * (m - 1)..(rank + 1) * (m - 1)],
                children: &self.children[rank * m..(rank + 1) * m],
            }
        }
    }

    /// Whether node `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: u32) -> bool {
        self.meta[id as usize] & LEAF_BIT != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VpArena {
        // root (internal, order 2) -> [leaf {1,2}, leaf {3}]
        let mut arena = VpArena::new(2);
        let root = arena.push_internal(0, &[1.5]);
        let left = arena.push_leaf(&[1, 2]);
        let right = arena.push_leaf(&[3]);
        arena.set_children(root, &[Some(left), Some(right)]);
        arena
    }

    #[test]
    fn pushes_nodes_into_flat_arrays() {
        let arena = sample();
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.meta, vec![0, LEAF_BIT, LEAF_BIT | 1]);
        assert_eq!(arena.vantage, vec![0]);
        assert_eq!(arena.children, vec![1, 2]);
        assert_eq!(arena.cutoffs, vec![1.5]);
        assert_eq!(arena.leaf_spans, vec![0, 2, 2, 1]);
        assert_eq!(arena.leaf_items, vec![1, 2, 3]);
    }

    #[test]
    fn splicing_matches_pushing_in_place() {
        // The same tree with its right leaf built in a worker-local
        // arena, then spliced back after the left leaf.
        let mut arena = VpArena::new(2);
        let root = arena.push_internal(0, &[1.5]);
        let left = arena.push_leaf(&[1, 2]);
        let mut local = VpArena::new(2);
        let local_root = local.push_leaf(&[3]);
        let right = local_root + arena.splice(local);
        arena.set_children(root, &[Some(left), Some(right)]);
        assert_eq!(arena, sample());
    }

    #[test]
    fn splicing_rebases_child_ids_and_ranks() {
        let mut local = VpArena::new(2);
        let sub = local.push_internal(4, &[0.5]);
        let leaf = local.push_leaf(&[5]);
        local.set_children(sub, &[None, Some(leaf)]);
        let mut arena = sample();
        assert_eq!(arena.splice(local), 3);
        assert_eq!(arena.meta, vec![0, LEAF_BIT, LEAF_BIT | 1, 1, LEAF_BIT | 2]);
        assert_eq!(arena.children, vec![1, 2, NO_CHILD, 4]);
        assert_eq!(arena.leaf_spans, vec![0, 2, 2, 1, 3, 1]);
        assert_eq!(arena.leaf_items, vec![1, 2, 3, 5]);
    }

    #[test]
    fn view_resolves_both_classes() {
        let arena = sample();
        let view = arena.view();
        assert!(!view.is_leaf(0));
        match view.node(0) {
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                assert_eq!(vantage, 0);
                assert_eq!(cutoffs, &[1.5]);
                assert_eq!(children, &[1, 2]);
            }
            VpNodeView::Leaf { .. } => panic!("node 0 is internal"),
        }
        match view.node(2) {
            VpNodeView::Leaf { items, first_row } => {
                assert_eq!(items, &[3]);
                assert_eq!(first_row, 2);
            }
            VpNodeView::Internal { .. } => panic!("node 2 is a leaf"),
        }
    }

    #[test]
    fn row_order_is_leaf_items_then_vantages() {
        let arena = sample();
        let order: Vec<u32> = arena.view().row_order().collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(arena.view().id_rows(4), vec![3, 0, 1, 2]);
    }

    #[test]
    fn empty_partitions_are_no_child() {
        let mut arena = VpArena::new(2);
        let root = arena.push_internal(0, &[0.5]);
        assert_eq!(arena.children, vec![NO_CHILD, NO_CHILD]);
        let leaf = arena.push_leaf(&[1]);
        arena.set_children(root, &[None, Some(leaf)]);
        assert_eq!(arena.children, vec![NO_CHILD, 1]);
    }
}
