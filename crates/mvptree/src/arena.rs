//! Flat, index-addressed node storage for mvp-trees.
//!
//! The arena is the mvp-tree's only node representation (paper §4.2,
//! Figure 3): construction pushes nodes straight into it in DFS
//! preorder, snapshots write its arrays verbatim, and every search runs
//! over it. Like the vp-tree's arena, the nodes live in contiguous,
//! fixed-stride arrays addressed by offsets into shared buffers, with
//! no per-node heap allocation. Every array is addressed by plain
//! integer arithmetic:
//!
//! * `meta[id]` — one `u32` per node: bit 31 set ⇒ leaf, the low 31 bits
//!   are the node's *rank* among nodes of its class (its index into the
//!   class-segregated arrays below);
//! * internal rank `r`: `vp1[r]`, `vp2[r]`,
//!   `children[r·m² ..]` (child arena ids in row-major `(i, j)` order,
//!   [`NO_CHILD`] for empty partitions), `cutoffs1[r·(m−1) ..]` and
//!   `cutoffs2[r·m·(m−1) ..]` (the `m` second-level cutoff rows of
//!   `m − 1` values each, row-major);
//! * leaf rank `r`: a 6-word head
//!   `leaf_heads[6r ..] = (vp1, vp2, entry_start, entry_len, path_len,
//!   path_start)` — `vp2` is [`NO_CHILD`] for single-point leaves —
//!   delimiting the leaf's rows inside the shared `ids`/`d1`/`d2`
//!   columns and its `entry_len × path_len` block inside the shared
//!   row-major `path` buffer.
//!
//! The tree's items are stored in **row order**
//! ([`MvpArenaView::row_order`]): rows `0..E` are the leaf entries in
//! `ids` column order, so entry `e`'s item is row `e` and each leaf
//! scan reads one contiguous block of the item store; then come the
//! interior vantage points `(vp1, vp2)` by internal rank, and last each
//! leaf's `vp1`/`vp2` by leaf rank. The arrays above are unchanged by
//! this — they still name items by their original ids, which is what
//! results report — and the id→row table is derived from them.
//!
//! The same arrays exist in two forms: [`MvpArena`] owns them (`Vec`s,
//! the materialized tree), [`MvpArenaView`] borrows them — possibly
//! straight out of a memory-mapped snapshot section. All search,
//! validation and statistics code is written against the view, so the
//! materialized and zero-copy paths run byte-for-byte the same kernel.

/// Child-slot sentinel for an empty partition; also marks an absent
/// second vantage point in a leaf head.
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

/// Owned flat node storage of an mvp-tree. See the module docs for the
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct MvpArena {
    pub(crate) m: u32,
    pub(crate) meta: Vec<u32>,
    pub(crate) vp1: Vec<u32>,
    pub(crate) vp2: Vec<u32>,
    pub(crate) children: Vec<u32>,
    pub(crate) cutoffs1: Vec<f64>,
    pub(crate) cutoffs2: Vec<f64>,
    pub(crate) leaf_heads: Vec<u32>,
    pub(crate) ids: Vec<u32>,
    pub(crate) d1: Vec<f64>,
    pub(crate) d2: Vec<f64>,
    pub(crate) path: Vec<f64>,
}

impl MvpArena {
    /// An empty arena of per-vantage-point fanout `m`, ready for
    /// construction to push nodes into in DFS preorder.
    pub(crate) fn new(m: usize) -> MvpArena {
        MvpArena {
            m: m as u32,
            meta: Vec::new(),
            vp1: Vec::new(),
            vp2: Vec::new(),
            children: Vec::new(),
            cutoffs1: Vec::new(),
            cutoffs2: Vec::new(),
            leaf_heads: Vec::new(),
            ids: Vec::new(),
            d1: Vec::new(),
            d2: Vec::new(),
            path: Vec::new(),
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

    /// Appends a leaf with no entries yet and returns its node id. The
    /// leaf's entries, each carrying `path_len` PATH distances, follow
    /// through [`push_leaf_entry`](Self::push_leaf_entry).
    pub(crate) fn push_leaf(&mut self, vp1: u32, vp2: Option<u32>, path_len: usize) -> u32 {
        let id = self.push_meta(true, self.leaf_heads.len() / 6);
        self.leaf_heads.extend_from_slice(&[
            vp1,
            vp2.unwrap_or(NO_CHILD),
            self.ids.len() as u32,
            0,
            path_len as u32,
            self.path.len() as u32,
        ]);
        id
    }

    /// Appends one entry (Figure 3's `D1[i]`, `D2[i]` and `PATH[i]`) to
    /// the most recently pushed leaf.
    pub(crate) fn push_leaf_entry(&mut self, id: u32, d1: f64, d2: f64, path: &[f64]) {
        debug_assert!(
            self.meta.last().is_some_and(|&meta| meta & LEAF_BIT != 0),
            "entries follow their leaf"
        );
        let head = self.leaf_heads.len() - 6;
        debug_assert_eq!(
            path.len(),
            self.leaf_heads[head + 4] as usize,
            "leaf PATH lengths are uniform"
        );
        self.leaf_heads[head + 3] += 1;
        self.ids.push(id);
        self.d1.push(d1);
        self.d2.push(d2);
        self.path.extend_from_slice(path);
    }

    /// Appends an interior node whose `m²` child slots all start as
    /// [`NO_CHILD`], and returns its node id. `cutoffs2` holds the `m`
    /// second-level rows back to back. Construction reserves the node
    /// before recursing and fills the slots with
    /// [`set_children`](Self::set_children) once the subtrees exist.
    pub(crate) fn push_internal(
        &mut self,
        vp1: u32,
        vp2: u32,
        cutoffs1: &[f64],
        cutoffs2: &[f64],
    ) -> u32 {
        let m = self.m as usize;
        debug_assert_eq!(cutoffs1.len() + 1, m, "first-level cutoffs match m");
        debug_assert_eq!(cutoffs2.len(), m * (m - 1), "m second-level rows");
        let id = self.push_meta(false, self.vp1.len());
        self.vp1.push(vp1);
        self.vp2.push(vp2);
        self.children.resize(self.children.len() + m * m, NO_CHILD);
        self.cutoffs1.extend_from_slice(cutoffs1);
        self.cutoffs2.extend_from_slice(cutoffs2);
        id
    }

    /// Fills interior node `node`'s `m²` child slots (`None` stays
    /// [`NO_CHILD`]).
    pub(crate) fn set_children(&mut self, node: u32, children: &[Option<u32>]) {
        let fanout = (self.m * self.m) as usize;
        let rank = (self.meta[node as usize] & !LEAF_BIT) as usize;
        debug_assert!(self.meta[node as usize] & LEAF_BIT == 0, "node is internal");
        for (slot, child) in self.children[rank * fanout..(rank + 1) * fanout]
            .iter_mut()
            .zip(children)
        {
            *slot = child.unwrap_or(NO_CHILD);
        }
    }

    /// Appends `local` (a subtree a worker built into its own arena)
    /// after every node already here, and returns the id offset its
    /// nodes moved by. Child ids, class ranks and the leaf heads' entry
    /// and PATH starts are rebased, so splicing subtrees in child order
    /// yields exactly the arrays a sequential build pushes.
    pub(crate) fn splice(&mut self, local: MvpArena) -> u32 {
        let offset = self.meta.len() as u32;
        let internals = self.vp1.len() as u32;
        let leaves = (self.leaf_heads.len() / 6) as u32;
        let entries = self.ids.len() as u32;
        let paths = self.path.len() as u32;
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
        self.vp1.extend_from_slice(&local.vp1);
        self.vp2.extend_from_slice(&local.vp2);
        self.children.extend(
            local
                .children
                .iter()
                .map(|&c| if c == NO_CHILD { c } else { c + offset }),
        );
        self.cutoffs1.extend_from_slice(&local.cutoffs1);
        self.cutoffs2.extend_from_slice(&local.cutoffs2);
        self.leaf_heads
            .extend(local.leaf_heads.chunks_exact(6).flat_map(|head| {
                [
                    head[0],
                    head[1],
                    head[2] + entries,
                    head[3],
                    head[4],
                    head[5] + paths,
                ]
            }));
        self.ids.extend_from_slice(&local.ids);
        self.d1.extend_from_slice(&local.d1);
        self.d2.extend_from_slice(&local.d2);
        self.path.extend_from_slice(&local.path);
        offset
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
    pub fn view(&self) -> MvpArenaView<'_> {
        MvpArenaView {
            m: self.m as usize,
            meta: &self.meta,
            vp1: &self.vp1,
            vp2: &self.vp2,
            children: &self.children,
            cutoffs1: &self.cutoffs1,
            cutoffs2: &self.cutoffs2,
            leaf_heads: &self.leaf_heads,
            ids: &self.ids,
            d1: &self.d1,
            d2: &self.d2,
            path: &self.path,
        }
    }
}

/// Borrowed flat node storage — over an [`MvpArena`] or directly over
/// the typed slices of a snapshot section.
#[derive(Debug, Clone, Copy)]
pub struct MvpArenaView<'a> {
    pub(crate) m: usize,
    pub(crate) meta: &'a [u32],
    pub(crate) vp1: &'a [u32],
    pub(crate) vp2: &'a [u32],
    pub(crate) children: &'a [u32],
    pub(crate) cutoffs1: &'a [f64],
    pub(crate) cutoffs2: &'a [f64],
    pub(crate) leaf_heads: &'a [u32],
    pub(crate) ids: &'a [u32],
    pub(crate) d1: &'a [f64],
    pub(crate) d2: &'a [f64],
    pub(crate) path: &'a [f64],
}

/// One leaf's entry table resolved out of the shared columns, in
/// struct-of-arrays layout: Figure 3's `D1[·]`/`D2[·]` arrays plus a
/// row-major `PATH` block. Every entry of a leaf has the same PATH
/// length, because all of a leaf's points descend through the same
/// ancestor vantage points and the accumulator is capped at `p`
/// uniformly; entry `i`'s PATH is `path[i·path_len .. (i+1)·path_len]`.
#[derive(Debug, Clone, Copy)]
pub struct LeafEntriesView<'a> {
    first_row: u32,
    ids: &'a [u32],
    d1: &'a [f64],
    d2: &'a [f64],
    path_len: usize,
    path: &'a [f64],
}

impl<'a> LeafEntriesView<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the leaf stores no entries beyond its vantage points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The shared PATH length of this leaf's entries.
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// All entry ids, in insertion order.
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// Entry `i`'s id.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// The item-store row holding entry `i`'s item: entries are stored
    /// in `ids` column order, so a leaf's rows are one contiguous run.
    #[inline]
    pub fn row(&self, i: usize) -> u32 {
        self.first_row + i as u32
    }

    /// Entry `i`'s pre-computed distance to the first vantage point.
    #[inline]
    pub fn d1(&self, i: usize) -> f64 {
        self.d1[i]
    }

    /// Entry `i`'s pre-computed distance to the second vantage point.
    #[inline]
    pub fn d2(&self, i: usize) -> f64 {
        self.d2[i]
    }

    /// Entry `i`'s PATH slice.
    #[inline]
    pub fn path(&self, i: usize) -> &'a [f64] {
        &self.path[i * self.path_len..(i + 1) * self.path_len]
    }

    /// This leaf's full `D1` column.
    pub fn d1_column(&self) -> &'a [f64] {
        self.d1
    }

    /// This leaf's full `D2` column.
    pub fn d2_column(&self) -> &'a [f64] {
        self.d2
    }

    /// This leaf's full row-major PATH block.
    pub fn path_block(&self) -> &'a [f64] {
        self.path
    }
}

/// One resolved node of an [`MvpArenaView`].
#[derive(Debug, Clone, Copy)]
pub enum MvpNodeView<'a> {
    /// Interior node: two vantage points, first- and second-level
    /// cutoffs, `m²` child slots in row-major order.
    Internal {
        /// First vantage point's item id.
        vp1: u32,
        /// Second vantage point's item id.
        vp2: u32,
        /// `m − 1` first-level cutoffs, non-decreasing.
        cutoffs1: &'a [f64],
        /// `m` second-level rows of `m − 1` cutoffs each, row-major
        /// (row `i` is `cutoffs2[i·(m−1) .. (i+1)·(m−1)]`).
        cutoffs2: &'a [f64],
        /// Child arena ids, slot `i·m + j` is subgroup `j` of group `i`
        /// ([`NO_CHILD`] marks an empty partition).
        children: &'a [u32],
    },
    /// Leaf node: its own vantage points plus the entry table.
    Leaf {
        /// The leaf's first vantage point.
        vp1: u32,
        /// The leaf's second vantage point (`None` for single-point
        /// leaves).
        vp2: Option<u32>,
        /// The leaf's data points with pre-computed distances.
        entries: LeafEntriesView<'a>,
    },
}

impl<'a> MvpArenaView<'a> {
    /// Assembles a view from raw borrowed arrays (the snapshot load
    /// path). No validation happens here: the view must pass
    /// [`validate_arena`](crate::validate_arena) before it is searched.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        m: usize,
        meta: &'a [u32],
        vp1: &'a [u32],
        vp2: &'a [u32],
        children: &'a [u32],
        cutoffs1: &'a [f64],
        cutoffs2: &'a [f64],
        leaf_heads: &'a [u32],
        ids: &'a [u32],
        d1: &'a [f64],
        d2: &'a [f64],
        path: &'a [f64],
    ) -> Self {
        MvpArenaView {
            m,
            meta,
            vp1,
            vp2,
            children,
            cutoffs1,
            cutoffs2,
            leaf_heads,
            ids,
            d1,
            d2,
            path,
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

    /// The per-vantage-point fanout the strides are computed with (a
    /// node's fanout is `m²`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of interior nodes.
    pub fn internal_count(&self) -> usize {
        self.vp1.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaf_heads.len() / 6
    }

    /// The per-node meta words (leaf bit + class rank).
    pub fn meta(&self) -> &'a [u32] {
        self.meta
    }

    /// First vantage points, one per interior node.
    pub fn vp1(&self) -> &'a [u32] {
        self.vp1
    }

    /// Second vantage points, one per interior node.
    pub fn vp2(&self) -> &'a [u32] {
        self.vp2
    }

    /// The contiguous child-id buffer (`internal_count × m²`).
    pub fn children(&self) -> &'a [u32] {
        self.children
    }

    /// The contiguous first-level cutoff buffer
    /// (`internal_count × (m − 1)`).
    pub fn cutoffs1(&self) -> &'a [f64] {
        self.cutoffs1
    }

    /// The contiguous second-level cutoff buffer
    /// (`internal_count × m × (m − 1)`, row-major).
    pub fn cutoffs2(&self) -> &'a [f64] {
        self.cutoffs2
    }

    /// Leaf heads: 6 words per leaf (see the module docs).
    pub fn leaf_heads(&self) -> &'a [u32] {
        self.leaf_heads
    }

    /// The shared leaf entry-id column.
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The shared `D1` column.
    pub fn d1(&self) -> &'a [f64] {
        self.d1
    }

    /// The shared `D2` column.
    pub fn d2(&self) -> &'a [f64] {
        self.d2
    }

    /// The shared row-major PATH buffer.
    pub fn path(&self) -> &'a [f64] {
        self.path
    }

    /// The item id stored at each row, in row order: every leaf entry
    /// (`ids` column order), then the interior vantage points `(vp1,
    /// vp2)` by internal rank, then each leaf's `vp1` and present `vp2`
    /// by leaf rank. Over a valid arena this names every item exactly
    /// once.
    pub fn row_order(&self) -> impl Iterator<Item = u32> + 'a {
        self.ids.iter().copied().chain(self.vantage_order())
    }

    /// The item id stored at each vantage row, the rows after the
    /// `ids().len()` leaf entries, in row order: the interior vantage
    /// points `(vp1, vp2)` by internal rank, then each leaf's `vp1` and
    /// present `vp2` by leaf rank.
    pub fn vantage_order(&self) -> impl Iterator<Item = u32> + 'a {
        let internal = self.vp1.iter().zip(self.vp2).flat_map(|(&a, &b)| [a, b]);
        let leaves = self
            .leaf_heads
            .chunks_exact(6)
            .flat_map(|head| [head[0], head[1]])
            .filter(|&vp| vp != NO_CHILD);
        internal.chain(leaves)
    }

    /// The id→row table of an arena over `n` items: `rows[id]` is the
    /// item-store row holding item `id`. The arena must have passed
    /// [`validate_arena`](crate::validate_arena) for `n` items.
    pub fn id_rows(&self, n: usize) -> Vec<u32> {
        vantage_core::id_rows(self.row_order(), n)
    }

    /// Resolves node `id` into its class arrays.
    #[inline]
    pub fn node(&self, id: u32) -> MvpNodeView<'a> {
        let meta = self.meta[id as usize];
        let rank = (meta & !LEAF_BIT) as usize;
        if meta & LEAF_BIT != 0 {
            let head = &self.leaf_heads[6 * rank..6 * rank + 6];
            let start = head[2] as usize;
            let len = head[3] as usize;
            let path_len = head[4] as usize;
            let path_start = head[5] as usize;
            MvpNodeView::Leaf {
                vp1: head[0],
                vp2: (head[1] != NO_CHILD).then_some(head[1]),
                entries: LeafEntriesView {
                    first_row: start as u32,
                    ids: &self.ids[start..start + len],
                    d1: &self.d1[start..start + len],
                    d2: &self.d2[start..start + len],
                    path_len,
                    path: &self.path[path_start..path_start + len * path_len],
                },
            }
        } else {
            let m = self.m;
            MvpNodeView::Internal {
                vp1: self.vp1[rank],
                vp2: self.vp2[rank],
                cutoffs1: &self.cutoffs1[rank * (m - 1)..(rank + 1) * (m - 1)],
                cutoffs2: &self.cutoffs2[rank * m * (m - 1)..(rank + 1) * m * (m - 1)],
                children: &self.children[rank * m * m..(rank + 1) * m * m],
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

    fn sample() -> MvpArena {
        // root (internal, m = 2) -> [leaf {vp 1, vp 2, entries 3, 4},
        // leaf {vp 5}] in slots (0,0) and (1,1).
        let mut arena = MvpArena::new(2);
        let root = arena.push_internal(0, 6, &[1.5], &[2.5, 3.5]);
        let full = arena.push_leaf(1, Some(2), 2);
        arena.push_leaf_entry(3, 1.0, 2.0, &[0.5, 0.25]);
        arena.push_leaf_entry(4, 3.0, 4.0, &[0.125, 0.0625]);
        let single = arena.push_leaf(5, None, 0);
        arena.set_children(root, &[Some(full), None, None, Some(single)]);
        arena
    }

    #[test]
    fn pushes_nodes_into_flat_arrays() {
        let arena = sample();
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.meta, vec![0, LEAF_BIT, LEAF_BIT | 1]);
        assert_eq!(arena.vp1, vec![0]);
        assert_eq!(arena.vp2, vec![6]);
        assert_eq!(arena.children, vec![1, NO_CHILD, NO_CHILD, 2]);
        assert_eq!(arena.cutoffs1, vec![1.5]);
        assert_eq!(arena.cutoffs2, vec![2.5, 3.5]);
        assert_eq!(
            arena.leaf_heads,
            vec![1, 2, 0, 2, 2, 0, 5, NO_CHILD, 2, 0, 0, 4]
        );
        assert_eq!(arena.ids, vec![3, 4]);
        assert_eq!(arena.d1, vec![1.0, 3.0]);
        assert_eq!(arena.d2, vec![2.0, 4.0]);
        assert_eq!(arena.path, vec![0.5, 0.25, 0.125, 0.0625]);
    }

    #[test]
    fn splicing_matches_pushing_in_place() {
        // The same tree with both leaves built in worker-local arenas,
        // then spliced back in child order.
        let mut arena = MvpArena::new(2);
        let root = arena.push_internal(0, 6, &[1.5], &[2.5, 3.5]);
        let mut first = MvpArena::new(2);
        let full = first.push_leaf(1, Some(2), 2);
        first.push_leaf_entry(3, 1.0, 2.0, &[0.5, 0.25]);
        first.push_leaf_entry(4, 3.0, 4.0, &[0.125, 0.0625]);
        let mut second = MvpArena::new(2);
        let single = second.push_leaf(5, None, 0);
        let full = full + arena.splice(first);
        let single = single + arena.splice(second);
        arena.set_children(root, &[Some(full), None, None, Some(single)]);
        assert_eq!(arena, sample());
    }

    #[test]
    fn splicing_rebases_child_ids_ranks_and_leaf_starts() {
        let mut local = MvpArena::new(2);
        let sub = local.push_internal(7, 8, &[0.5], &[0.25, 0.75]);
        let leaf = local.push_leaf(9, Some(10), 2);
        local.push_leaf_entry(11, 0.5, 0.5, &[1.0, 2.0]);
        local.set_children(sub, &[None, None, Some(leaf), None]);
        let mut arena = sample();
        assert_eq!(arena.splice(local), 3);
        assert_eq!(arena.meta, vec![0, LEAF_BIT, LEAF_BIT | 1, 1, LEAF_BIT | 2]);
        assert_eq!(
            arena.children,
            vec![1, NO_CHILD, NO_CHILD, 2, NO_CHILD, NO_CHILD, 4, NO_CHILD]
        );
        assert_eq!(arena.leaf_heads[12..], [9, 10, 2, 1, 2, 4]);
        assert_eq!(arena.ids, vec![3, 4, 11]);
        assert_eq!(arena.path[4..], [1.0, 2.0]);
    }

    #[test]
    fn row_order_is_entries_then_internal_then_leaf_vantages() {
        let arena = sample();
        let order: Vec<u32> = arena.view().row_order().collect();
        assert_eq!(order, vec![3, 4, 0, 6, 1, 2, 5]);
        let rows = arena.view().id_rows(7);
        for (row, &id) in order.iter().enumerate() {
            assert_eq!(rows[id as usize], row as u32);
        }
    }

    #[test]
    fn view_resolves_both_classes() {
        let arena = sample();
        let view = arena.view();
        assert!(!view.is_leaf(0));
        match view.node(0) {
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                assert_eq!(vp1, 0);
                assert_eq!(vp2, 6);
                assert_eq!(cutoffs1, &[1.5]);
                assert_eq!(cutoffs2, &[2.5, 3.5]);
                assert_eq!(children, &[1, NO_CHILD, NO_CHILD, 2]);
            }
            MvpNodeView::Leaf { .. } => panic!("node 0 is internal"),
        }
        match view.node(1) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                assert_eq!(vp1, 1);
                assert_eq!(vp2, Some(2));
                assert_eq!(entries.len(), 2);
                assert_eq!(entries.id(1), 4);
                assert_eq!(entries.row(1), 1);
                assert_eq!(entries.d1(0), 1.0);
                assert_eq!(entries.d2(1), 4.0);
                assert_eq!(entries.path(0), &[0.5, 0.25]);
                assert_eq!(entries.path(1), &[0.125, 0.0625]);
            }
            MvpNodeView::Internal { .. } => panic!("node 1 is a leaf"),
        }
        match view.node(2) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                assert_eq!(vp1, 5);
                assert_eq!(vp2, None);
                assert!(entries.is_empty());
                assert_eq!(entries.path_len(), 0);
            }
            MvpNodeView::Internal { .. } => panic!("node 2 is a leaf"),
        }
    }
}
