//! Structural validation of flat arenas.
//!
//! [`validate_arena`] is the gate every untrusted arena passes through
//! (the snapshot load path, over mapped or owned bytes): it proves all
//! the invariants the search kernels rely on for memory safety and
//! termination, in `O(n + nodes)` with no distance computations. The
//! distance-recomputing [`VpTree::check_invariants`] remains a
//! test/diagnostic facility.

use vantage_core::{Metric, Result, RowStore, VantageError};

use crate::arena::{VpArenaView, VpNodeView, NO_CHILD};
use crate::params::VpTreeParams;
use crate::tree::VpTree;

fn corrupt(detail: impl Into<String>) -> VantageError {
    VantageError::corrupt(detail)
}

/// Validates every structural invariant of a flat arena: meta/rank
/// consistency, array strides, id ranges, arena preorder (every child id
/// exceeds its parent's, which also rules out cycles), cutoff shapes and
/// ordering, leaf spans tiling the bucket buffer, leaf capacities,
/// reachability of every node from the root, and exactly-once coverage
/// of every item.
///
/// A search over a view that passed this check can neither panic, index
/// out of bounds, nor fail to terminate — the contract the zero-copy
/// snapshot path relies on to run queries straight over mapped bytes.
///
/// # Errors
///
/// [`CorruptSnapshot`](VantageError::CorruptSnapshot) describing the
/// first violated invariant.
pub fn validate_arena(
    arena: VpArenaView<'_>,
    root: Option<u32>,
    item_count: usize,
    params: &VpTreeParams,
) -> Result<()> {
    let order = params.order;
    if arena.order() != order {
        return Err(corrupt(format!(
            "arena order {} does not match params order {order}",
            arena.order()
        )));
    }
    let n_nodes = arena.len();
    if n_nodes >= (1usize << 31) {
        return Err(corrupt("node arena exceeds 2^31 - 1 nodes"));
    }

    // Meta ranks must equal the running count of each node class, so the
    // class-segregated arrays are addressed densely and in arena order.
    let (mut internals, mut leaves) = (0usize, 0usize);
    for (node_id, &meta) in arena.meta().iter().enumerate() {
        let is_leaf = meta & (1 << 31) != 0;
        let rank = (meta & !(1u32 << 31)) as usize;
        let expected = if is_leaf { leaves } else { internals };
        if rank != expected {
            return Err(corrupt(format!(
                "node {node_id}: class rank {rank}, expected {expected}"
            )));
        }
        if is_leaf {
            leaves += 1;
        } else {
            internals += 1;
        }
    }
    if arena.vantage().len() != internals {
        return Err(corrupt(format!(
            "{} vantage entries for {internals} internal nodes",
            arena.vantage().len()
        )));
    }
    if arena.children().len() != internals * order {
        return Err(corrupt(format!(
            "{} child slots for {internals} internal nodes of order {order}",
            arena.children().len()
        )));
    }
    if arena.cutoffs().len() != internals * (order - 1) {
        return Err(corrupt(format!(
            "{} cutoffs for {internals} internal nodes of order {order}",
            arena.cutoffs().len()
        )));
    }
    if arena.leaf_spans().len() != leaves * 2 {
        return Err(corrupt(format!(
            "{} leaf-span words for {leaves} leaves",
            arena.leaf_spans().len()
        )));
    }

    // Leaf spans must tile the shared bucket buffer contiguously.
    let mut running = 0usize;
    for (leaf, span) in arena.leaf_spans().chunks_exact(2).enumerate() {
        let (start, len) = (span[0] as usize, span[1] as usize);
        if start != running {
            return Err(corrupt(format!(
                "leaf {leaf}: bucket starts at {start}, expected {running}"
            )));
        }
        if len == 0 {
            return Err(corrupt(format!("leaf {leaf}: empty leaf bucket")));
        }
        if len > params.leaf_capacity {
            return Err(corrupt(format!(
                "leaf {leaf}: holds {len} items, capacity is {}",
                params.leaf_capacity
            )));
        }
        running += len;
    }
    if running != arena.leaf_items().len() {
        return Err(corrupt(format!(
            "leaf spans cover {running} items, bucket buffer holds {}",
            arena.leaf_items().len()
        )));
    }

    match root {
        None => {
            if item_count != 0 || n_nodes != 0 {
                return Err(corrupt(format!(
                    "rootless tree carries {item_count} items and {n_nodes} nodes"
                )));
            }
        }
        Some(root) => {
            if (root as usize) >= n_nodes {
                return Err(corrupt(format!(
                    "root id {root} out of range ({n_nodes} nodes)"
                )));
            }
        }
    }

    let mut seen = vec![false; item_count];
    let mut mark = |id: u32| -> Result<()> {
        let slot = seen
            .get_mut(id as usize)
            .ok_or_else(|| corrupt(format!("item id {id} out of range ({item_count} items)")))?;
        if *slot {
            return Err(corrupt(format!("item id {id} appears more than once")));
        }
        *slot = true;
        Ok(())
    };
    // Child links into a node must come from exactly one parent and
    // point strictly forward; with the root at the front this makes
    // the arena an acyclic preorder forest rooted at `root`.
    let mut referenced = vec![false; n_nodes];
    for node_id in 0..n_nodes {
        match arena.node(node_id as u32) {
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                mark(vantage)?;
                if cutoffs.iter().any(|c| c.is_nan()) {
                    return Err(corrupt(format!("node {node_id}: NaN cutoff")));
                }
                if cutoffs.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt(format!(
                        "node {node_id}: cutoffs not sorted: {cutoffs:?}"
                    )));
                }
                for &child in children.iter().filter(|&&c| c != NO_CHILD) {
                    if (child as usize) >= n_nodes {
                        return Err(corrupt(format!(
                            "node {node_id}: child id {child} out of range ({n_nodes} nodes)"
                        )));
                    }
                    if (child as usize) <= node_id {
                        return Err(corrupt(format!(
                            "node {node_id}: child id {child} does not follow its parent"
                        )));
                    }
                    if referenced[child as usize] {
                        return Err(corrupt(format!(
                            "node {child} is referenced by more than one parent"
                        )));
                    }
                    referenced[child as usize] = true;
                }
            }
            VpNodeView::Leaf { items, .. } => {
                for &id in items {
                    mark(id)?;
                }
            }
        }
    }
    if let Some(root) = root {
        if referenced[root as usize] {
            return Err(corrupt("root node is also referenced as a child"));
        }
    }
    // Every non-root node must be someone's child: single-reference
    // plus exactly-once item coverage then imply the whole arena is
    // reachable from the root.
    if let Some(orphan) = referenced
        .iter()
        .enumerate()
        .position(|(id, &linked)| !linked && Some(id as u32) != root)
    {
        return Err(corrupt(format!(
            "node {orphan} is unreachable from the root"
        )));
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(corrupt(format!("item {missing} appears in no node")));
    }
    Ok(())
}

impl<T, M, S> VpTree<T, M, S>
where
    S: RowStore<T>,
    M: Metric<S::Item>,
{
    /// Verifies the tree's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// 1. every item id appears exactly once (as a vantage point or in a
    ///    leaf);
    /// 2. every point in child `i`'s subtree lies inside the spherical
    ///    shell `[lo_i, hi_i]` around the node's vantage point;
    /// 3. cutoff sequences are non-decreasing;
    /// 4. leaf buckets respect the configured capacity.
    ///
    /// This re-computes `O(n · height)` distances, so it is strictly a
    /// test/diagnostic facility.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let view = self.arena.view();
        let mut seen = vec![false; self.rows.len()];
        if let Some(root) = self.root {
            self.check_node(view, root, &mut seen)?;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("item {missing} not reachable from the root"));
        }
        Ok(())
    }

    fn mark(&self, id: u32, seen: &mut [bool]) -> std::result::Result<(), String> {
        let slot = seen
            .get_mut(id as usize)
            .ok_or_else(|| format!("item id {id} out of bounds"))?;
        if *slot {
            return Err(format!("item {id} appears more than once"));
        }
        *slot = true;
        Ok(())
    }

    fn check_node(
        &self,
        view: VpArenaView<'_>,
        node: u32,
        seen: &mut [bool],
    ) -> std::result::Result<(), String> {
        match view.node(node) {
            VpNodeView::Leaf { items, .. } => {
                if items.len() > self.params.leaf_capacity {
                    return Err(format!(
                        "leaf holds {} items, capacity is {}",
                        items.len(),
                        self.params.leaf_capacity
                    ));
                }
                for &id in items {
                    self.mark(id, seen)?;
                }
                Ok(())
            }
            VpNodeView::Internal {
                vantage,
                cutoffs,
                children,
            } => {
                self.mark(vantage, seen)?;
                if children.len() != self.params.order {
                    return Err(format!(
                        "internal node has {} child slots, order is {}",
                        children.len(),
                        self.params.order
                    ));
                }
                if cutoffs.len() + 1 != self.params.order {
                    return Err(format!(
                        "internal node has {} cutoffs, expected {}",
                        cutoffs.len(),
                        self.params.order - 1
                    ));
                }
                if cutoffs.windows(2).any(|w| w[0] > w[1]) {
                    return Err(format!("cutoffs not sorted: {cutoffs:?}"));
                }
                for (i, &child) in children.iter().enumerate() {
                    if child == NO_CHILD {
                        continue;
                    }
                    let lo = if i == 0 { 0.0 } else { cutoffs[i - 1] };
                    let hi = if i == cutoffs.len() {
                        f64::INFINITY
                    } else {
                        cutoffs[i]
                    };
                    let mut subtree = Vec::new();
                    collect_subtree(view, child, &mut subtree);
                    let item = |id: u32| self.items.row(self.rows[id as usize]);
                    for id in subtree {
                        let d = self.metric.distance(item(vantage), item(id));
                        // Tolerance-free: cutoffs are exact stored
                        // distances and the metric is deterministic.
                        if d < lo || d > hi {
                            return Err(format!(
                                "item {id} at distance {d} outside shell [{lo}, {hi}] of child {i}"
                            ));
                        }
                    }
                    self.check_node(view, child, seen)?;
                }
                Ok(())
            }
        }
    }
}

fn collect_subtree(view: VpArenaView<'_>, node: u32, out: &mut Vec<u32>) {
    match view.node(node) {
        VpNodeView::Leaf { items, .. } => out.extend_from_slice(items),
        VpNodeView::Internal {
            vantage, children, ..
        } => {
            out.push(vantage);
            for &child in children.iter().filter(|&&c| c != NO_CHILD) {
                collect_subtree(view, child, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::arena::{VpArena, NO_CHILD};
    use crate::params::VpTreeParams;
    use crate::tree::VpTree;
    use vantage_core::prelude::*;
    use vantage_core::select::VantageSelector;
    use vantage_core::VantageError;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect()
    }

    fn tree() -> VpTree<Vec<f64>, Euclidean> {
        VpTree::build(
            points(120),
            Euclidean,
            VpTreeParams::with_order(3).leaf_capacity(4).seed(7),
        )
        .unwrap()
    }

    /// Copies `tree`'s arena, lets `corrupt` break one array, and runs
    /// [`validate_arena`](super::validate_arena) over the result for
    /// `items` items — the check every snapshot load makes.
    fn reassemble(
        tree: &VpTree<Vec<f64>, Euclidean>,
        items: usize,
        corrupt: impl FnOnce(&mut VpArena),
    ) -> Result<()> {
        let mut arena = tree.arena.clone();
        corrupt(&mut arena);
        super::validate_arena(arena.view(), tree.root(), items, tree.params())
    }

    fn assert_corrupt(result: Result<()>) {
        let err = result.unwrap_err();
        assert!(matches!(err, VantageError::CorruptSnapshot { .. }), "{err}");
    }

    #[test]
    fn untouched_arena_copy_validates() {
        let original = tree();
        reassemble(&original, original.len(), |_| {}).unwrap();
    }

    #[test]
    fn out_of_range_item_id_is_rejected() {
        // Fewer items than the arena references.
        assert_corrupt(reassemble(&tree(), 10, |_| {}));
    }

    #[test]
    fn backward_child_link_is_rejected() {
        let original = tree();
        assert_corrupt(reassemble(&original, original.len(), |arena| {
            // Point a non-root internal node's first live child back at
            // the root.
            let order = arena.order as usize;
            let child = arena.children[order..]
                .iter_mut()
                .find(|c| **c != NO_CHILD)
                .expect("tree has a non-root internal node");
            *child = 0;
        }));
    }

    #[test]
    fn duplicated_item_is_rejected() {
        let original = tree();
        assert_corrupt(reassemble(&original, original.len(), |arena| {
            let start = arena
                .leaf_spans
                .chunks_exact(2)
                .find(|span| span[1] >= 2)
                .expect("tree has a multi-item leaf")[0] as usize;
            arena.leaf_items[start] = arena.leaf_items[start + 1];
        }));
    }

    #[test]
    fn reversed_cutoffs_are_rejected() {
        let original = tree();
        assert_corrupt(reassemble(&original, original.len(), |arena| {
            // The root (internal rank 0) of a 120-item order-3 tree has
            // two distinct cutoffs; reversing them breaks their order.
            let root = &mut arena.cutoffs[..2];
            assert!(root[0] < root[1], "{root:?}");
            root.reverse();
        }));
    }

    #[test]
    fn built_trees_satisfy_invariants() {
        let points: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![f64::from(i % 17), f64::from(i % 23)])
            .collect();
        for order in [2, 3, 4] {
            for leaf in [1, 5] {
                for selector in [
                    VantageSelector::Random,
                    VantageSelector::FirstItem,
                    VantageSelector::SampledSpread {
                        candidates: 3,
                        sample: 5,
                    },
                ] {
                    let t = VpTree::build(
                        points.clone(),
                        Euclidean,
                        VpTreeParams::with_order(order)
                            .leaf_capacity(leaf)
                            .selector(selector)
                            .seed(7),
                    )
                    .unwrap();
                    t.check_invariants().unwrap();
                }
            }
        }
    }

    #[test]
    fn built_trees_pass_arena_validation() {
        let points: Vec<Vec<f64>> = (0..250)
            .map(|i| vec![f64::from(i % 13), f64::from(i % 29)])
            .collect();
        for order in [2, 3, 5] {
            let t = VpTree::build(
                points.clone(),
                Euclidean,
                VpTreeParams::with_order(order).leaf_capacity(3).seed(9),
            )
            .unwrap();
            super::validate_arena(t.arena(), t.root(), t.len(), t.params()).unwrap();
        }
    }

    #[test]
    fn empty_tree_is_valid() {
        let t = VpTree::build(Vec::<Vec<f64>>::new(), Euclidean, VpTreeParams::binary()).unwrap();
        t.check_invariants().unwrap();
        super::validate_arena(t.arena(), t.root(), 0, t.params()).unwrap();
    }
}
