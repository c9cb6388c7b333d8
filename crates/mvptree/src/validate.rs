//! Structural validation of flat arenas.
//!
//! [`validate_arena`] is the gate every untrusted arena passes through
//! (the snapshot load path, over mapped or owned bytes): it proves all
//! the invariants the search kernels rely on for memory safety and
//! termination, in `O(n + nodes)` with no distance computations. The
//! distance-recomputing [`MvpTree::check_invariants`] remains a
//! test/diagnostic facility.

use vantage_core::{Metric, Result, RowStore, VantageError};

use crate::arena::{LeafEntriesView, MvpArenaView, MvpNodeView, NO_CHILD};
use crate::params::MvpParams;
use crate::tree::MvpTree;

fn corrupt(detail: impl Into<String>) -> VantageError {
    VantageError::corrupt(detail)
}

/// Validates every structural invariant of a flat arena: meta/rank
/// consistency, array strides, id ranges, arena preorder (every child id
/// exceeds its parent's, which also rules out cycles), cutoff shapes and
/// ordering, leaf entry and PATH spans tiling their shared buffers,
/// leaf capacities, finite precomputed distances, reachability of every
/// node from the root, and exactly-once coverage of every item.
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
    arena: MvpArenaView<'_>,
    root: Option<u32>,
    item_count: usize,
    params: &MvpParams,
) -> Result<()> {
    let m = params.m;
    if arena.m() != m {
        return Err(corrupt(format!(
            "arena fanout {} does not match params m = {m}",
            arena.m()
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
    if arena.vp1().len() != internals || arena.vp2().len() != internals {
        return Err(corrupt(format!(
            "{}/{} vantage entries for {internals} internal nodes",
            arena.vp1().len(),
            arena.vp2().len()
        )));
    }
    if arena.children().len() != internals * m * m {
        return Err(corrupt(format!(
            "{} child slots for {internals} internal nodes of fanout {m}",
            arena.children().len()
        )));
    }
    if arena.cutoffs1().len() != internals * (m - 1) {
        return Err(corrupt(format!(
            "{} first-level cutoffs for {internals} internal nodes of fanout {m}",
            arena.cutoffs1().len()
        )));
    }
    if arena.cutoffs2().len() != internals * m * (m - 1) {
        return Err(corrupt(format!(
            "{} second-level cutoffs for {internals} internal nodes of fanout {m}",
            arena.cutoffs2().len()
        )));
    }
    if arena.leaf_heads().len() != leaves * 6 {
        return Err(corrupt(format!(
            "{} leaf-head words for {leaves} leaves",
            arena.leaf_heads().len()
        )));
    }
    if arena.d1().len() != arena.ids().len() || arena.d2().len() != arena.ids().len() {
        return Err(corrupt(format!(
            "D1/D2 columns hold {}/{} distances for {} leaf entries",
            arena.d1().len(),
            arena.d2().len(),
            arena.ids().len()
        )));
    }

    // Leaf entry spans must tile the shared id/D1/D2 columns
    // contiguously, and PATH spans the shared path buffer.
    let mut running = 0usize;
    let mut running_path = 0usize;
    for (leaf, head) in arena.leaf_heads().chunks_exact(6).enumerate() {
        let (start, len) = (head[2] as usize, head[3] as usize);
        let (path_len, path_start) = (head[4] as usize, head[5] as usize);
        if start != running {
            return Err(corrupt(format!(
                "leaf {leaf}: entries start at {start}, expected {running}"
            )));
        }
        if len > params.k {
            return Err(corrupt(format!(
                "leaf {leaf}: holds {len} entries, capacity k = {}",
                params.k
            )));
        }
        if path_len > params.p {
            return Err(corrupt(format!(
                "leaf {leaf}: PATH length {path_len} exceeds p = {}",
                params.p
            )));
        }
        if path_start != running_path {
            return Err(corrupt(format!(
                "leaf {leaf}: PATH block starts at {path_start}, expected {running_path}"
            )));
        }
        if head[1] == NO_CHILD && len != 0 {
            return Err(corrupt(format!(
                "leaf {leaf}: {len} entries but no second vantage point"
            )));
        }
        running += len;
        running_path += len * path_len;
    }
    if running != arena.ids().len() {
        return Err(corrupt(format!(
            "leaf spans cover {running} entries, id column holds {}",
            arena.ids().len()
        )));
    }
    if running_path != arena.path().len() {
        return Err(corrupt(format!(
            "leaf PATH spans cover {running_path} distances, path buffer holds {}",
            arena.path().len()
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
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                mark(vp1)?;
                mark(vp2)?;
                if cutoffs1.iter().any(|c| c.is_nan()) {
                    return Err(corrupt(format!("node {node_id}: NaN first-level cutoff")));
                }
                if cutoffs1.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corrupt(format!(
                        "node {node_id}: cutoffs1 not sorted: {cutoffs1:?}"
                    )));
                }
                for row in cutoffs2.chunks_exact(m - 1) {
                    if row.iter().any(|c| c.is_nan()) {
                        return Err(corrupt(format!("node {node_id}: NaN second-level cutoff")));
                    }
                    if row.windows(2).any(|w| w[0] > w[1]) {
                        return Err(corrupt(format!(
                            "node {node_id}: cutoffs2 row not sorted: {row:?}"
                        )));
                    }
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
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                mark(vp1)?;
                if let Some(vp2) = vp2 {
                    mark(vp2)?;
                }
                for i in 0..entries.len() {
                    mark(entries.id(i))?;
                }
                if entries.d1_column().iter().any(|d| d.is_nan())
                    || entries.d2_column().iter().any(|d| d.is_nan())
                    || entries.path_block().iter().any(|d| d.is_nan())
                {
                    return Err(corrupt(format!(
                        "node {node_id}: NaN precomputed leaf distance"
                    )));
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

impl<T, M, S> MvpTree<T, M, S>
where
    S: RowStore<T>,
    M: Metric<S::Item>,
{
    /// Verifies the tree's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// 1. every item id appears exactly once (vantage point or leaf
    ///    entry);
    /// 2. every point in subgroup `(i, j)`'s subtree lies inside shell `i`
    ///    of the node's first vantage point **and** shell `(i, j)` of its
    ///    second vantage point;
    /// 3. leaf `D1`/`D2` arrays hold the exact distances to the leaf's
    ///    vantage points;
    /// 4. every leaf entry's `PATH[i]` equals the exact distance to the
    ///    i-th ancestor vantage point (root-to-leaf, first-then-second),
    ///    with length `min(p, 2 × internal depth)`;
    /// 5. leaves respect capacity `k`; cutoff vectors are sorted.
    ///
    /// Re-computes `O(n · height)` distances — strictly for tests.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let view = self.arena.view();
        let mut seen = vec![false; self.rows.len()];
        if let Some(root) = self.root {
            let mut ancestors = Vec::new();
            self.check_node(view, root, &mut ancestors, &mut seen)?;
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

    fn dist(&self, a: u32, b: u32) -> f64 {
        let item = |id: u32| self.items.row(self.rows[id as usize]);
        self.metric.distance(item(a), item(b))
    }

    fn check_leaf(
        &self,
        vp1: u32,
        vp2: Option<u32>,
        entries: LeafEntriesView<'_>,
        ancestors: &[u32],
        seen: &mut [bool],
    ) -> std::result::Result<(), String> {
        self.mark(vp1, seen)?;
        if let Some(v2) = vp2 {
            self.mark(v2, seen)?;
        } else if !entries.is_empty() {
            return Err("leaf has entries but no second vantage point".into());
        }
        if entries.len() > self.params.k {
            return Err(format!(
                "leaf holds {} entries, capacity k = {}",
                entries.len(),
                self.params.k
            ));
        }
        for idx in 0..entries.len() {
            let id = entries.id(idx);
            self.mark(id, seen)?;
            let d1 = self.dist(vp1, id);
            if d1 != entries.d1(idx) {
                return Err(format!(
                    "entry {id}: stored D1 {} != recomputed {d1}",
                    entries.d1(idx)
                ));
            }
            let v2 = vp2.expect("entries imply vp2");
            let d2 = self.dist(v2, id);
            if d2 != entries.d2(idx) {
                return Err(format!(
                    "entry {id}: stored D2 {} != recomputed {d2}",
                    entries.d2(idx)
                ));
            }
            let expected_len = self.params.p.min(ancestors.len());
            if entries.path(idx).len() != expected_len {
                return Err(format!(
                    "entry {id}: PATH length {} != min(p, ancestors) = {}",
                    entries.path(idx).len(),
                    expected_len
                ));
            }
            for (i, (&stored, &vp)) in entries.path(idx).iter().zip(ancestors.iter()).enumerate() {
                let d = self.dist(vp, id);
                if d != stored {
                    return Err(format!(
                        "entry {id}: PATH[{i}] = {stored} != recomputed {d}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_node(
        &self,
        view: MvpArenaView<'_>,
        node: u32,
        ancestors: &mut Vec<u32>,
        seen: &mut [bool],
    ) -> std::result::Result<(), String> {
        match view.node(node) {
            MvpNodeView::Leaf { vp1, vp2, entries } => {
                self.check_leaf(vp1, vp2, entries, ancestors, seen)
            }
            MvpNodeView::Internal {
                vp1,
                vp2,
                cutoffs1,
                cutoffs2,
                children,
            } => {
                let m = self.params.m;
                self.mark(vp1, seen)?;
                self.mark(vp2, seen)?;
                if cutoffs1.windows(2).any(|w| w[0] > w[1]) {
                    return Err(format!("cutoffs1 not sorted: {cutoffs1:?}"));
                }
                for c in cutoffs2.chunks_exact(m - 1) {
                    if c.windows(2).any(|w| w[0] > w[1]) {
                        return Err(format!("cutoffs2 not sorted: {c:?}"));
                    }
                }
                for i in 0..m {
                    let lo1 = if i == 0 { 0.0 } else { cutoffs1[i - 1] };
                    let hi1 = if i == m - 1 {
                        f64::INFINITY
                    } else {
                        cutoffs1[i]
                    };
                    let row = &cutoffs2[i * (m - 1)..(i + 1) * (m - 1)];
                    for j in 0..m {
                        let child = children[i * m + j];
                        if child == NO_CHILD {
                            continue;
                        }
                        let lo2 = if j == 0 { 0.0 } else { row[j - 1] };
                        let hi2 = if j == m - 1 { f64::INFINITY } else { row[j] };
                        let mut subtree = Vec::new();
                        collect_subtree(view, child, &mut subtree);
                        for id in subtree {
                            let d1 = self.dist(vp1, id);
                            if d1 < lo1 || d1 > hi1 {
                                return Err(format!(
                                    "item {id}: d(vp1) = {d1} outside shell [{lo1}, {hi1}] of group {i}"
                                ));
                            }
                            let d2 = self.dist(vp2, id);
                            if d2 < lo2 || d2 > hi2 {
                                return Err(format!(
                                    "item {id}: d(vp2) = {d2} outside shell [{lo2}, {hi2}] of subgroup ({i}, {j})"
                                ));
                            }
                        }
                        ancestors.push(vp1);
                        ancestors.push(vp2);
                        self.check_node(view, child, ancestors, seen)?;
                        ancestors.pop();
                        ancestors.pop();
                    }
                }
                Ok(())
            }
        }
    }
}

fn collect_subtree(view: MvpArenaView<'_>, node: u32, out: &mut Vec<u32>) {
    match view.node(node) {
        MvpNodeView::Leaf { vp1, vp2, entries } => {
            out.push(vp1);
            if let Some(v2) = vp2 {
                out.push(v2);
            }
            out.extend_from_slice(entries.ids());
        }
        MvpNodeView::Internal {
            vp1, vp2, children, ..
        } => {
            out.push(vp1);
            out.push(vp2);
            for &child in children.iter().filter(|&&c| c != NO_CHILD) {
                collect_subtree(view, child, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::arena::{MvpArena, NO_CHILD};
    use crate::params::{MvpParams, SecondVantage};
    use crate::tree::MvpTree;
    use vantage_core::prelude::*;
    use vantage_core::VantageError;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![f64::from(i as u32 % 23), f64::from(i as u32 % 31)])
            .collect()
    }

    fn tree() -> MvpTree<Vec<f64>, Euclidean> {
        MvpTree::build(points(300), Euclidean, MvpParams::paper(3, 8, 4).seed(11)).unwrap()
    }

    /// Copies `tree`'s arena and params, lets `corrupt` break either,
    /// and runs [`validate_arena`](super::validate_arena) over the
    /// result — the check every snapshot load makes.
    fn reassemble(
        tree: &MvpTree<Vec<f64>, Euclidean>,
        corrupt: impl FnOnce(&mut MvpArena, &mut MvpParams),
    ) -> Result<()> {
        let mut arena = tree.arena.clone();
        let mut params = tree.params().clone();
        corrupt(&mut arena, &mut params);
        super::validate_arena(arena.view(), tree.root(), tree.len(), &params)
    }

    fn assert_corrupt(result: Result<()>) {
        let err = result.unwrap_err();
        assert!(matches!(err, VantageError::CorruptSnapshot { .. }), "{err}");
    }

    #[test]
    fn untouched_arena_copy_validates() {
        reassemble(&tree(), |_, _| {}).unwrap();
    }

    #[test]
    fn missing_entry_id_is_rejected() {
        // Drop one entry id from a populated leaf but keep its D1/D2
        // rows: the column shapes must catch this.
        assert_corrupt(reassemble(&tree(), |arena, _| {
            let start = arena
                .leaf_heads
                .chunks_exact(6)
                .find(|head| head[3] > 0)
                .expect("tree has a populated leaf")[2];
            arena.ids.remove(start as usize);
        }));
    }

    #[test]
    fn short_path_buffer_is_rejected() {
        assert_corrupt(reassemble(&tree(), |arena, _| {
            assert!(!arena.path.is_empty(), "tree keeps PATH data");
            arena.path.pop();
        }));
    }

    #[test]
    fn leaf_over_capacity_is_rejected() {
        // Shrink the declared capacity below an existing leaf's size.
        assert_corrupt(reassemble(&tree(), |_, params| params.k = 1));
    }

    #[test]
    fn forward_link_violation_is_rejected() {
        assert_corrupt(reassemble(&tree(), |arena, _| {
            // Point a non-root internal node's first live child back at
            // the root.
            let fanout = (arena.m * arena.m) as usize;
            let child = arena.children[fanout..]
                .iter_mut()
                .find(|c| **c != NO_CHILD)
                .expect("tree has a non-root internal node");
            *child = 0;
        }));
    }

    #[test]
    fn built_trees_satisfy_invariants() {
        let points: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![f64::from(i % 19), f64::from(i % 29), f64::from(i % 7)])
            .collect();
        for m in [2, 3] {
            for k in [1, 9, 40] {
                for p in [0, 2, 8] {
                    for second in [SecondVantage::Farthest, SecondVantage::Random] {
                        let t = MvpTree::build(
                            points.clone(),
                            Euclidean,
                            MvpParams::paper(m, k, p).second(second).seed(3),
                        )
                        .unwrap();
                        t.check_invariants()
                            .unwrap_or_else(|e| panic!("m={m} k={k} p={p}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn built_trees_pass_arena_validation() {
        let points: Vec<Vec<f64>> = (0..250)
            .map(|i| vec![f64::from(i % 13), f64::from(i % 29)])
            .collect();
        for (m, k, p) in [(2, 5, 2), (3, 9, 5), (4, 13, 0)] {
            let t = MvpTree::build(points.clone(), Euclidean, MvpParams::paper(m, k, p).seed(9))
                .unwrap();
            super::validate_arena(t.arena(), t.root(), t.len(), t.params()).unwrap();
        }
    }

    #[test]
    fn empty_and_tiny_trees_are_valid() {
        for n in 0..8 {
            let points: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i)]).collect();
            let t = MvpTree::build(points, Euclidean, MvpParams::binary(3, 2)).unwrap();
            t.check_invariants().unwrap();
            super::validate_arena(t.arena(), t.root(), t.len(), t.params()).unwrap();
        }
    }
}
