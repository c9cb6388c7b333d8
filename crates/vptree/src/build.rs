//! vp-tree construction (paper §3.3).
//!
//! At every interior node: choose a vantage point among the points indexed
//! below, compute its distance to every remaining point, order by distance
//! and split into `m` groups of equal cardinality, recording the boundary
//! distances as cutoffs. Construction performs `O(n log_m n)` distance
//! computations; the builder counts them itself, in a [`DistanceTally`]
//! threaded through the recursion (one per parallel job, summed as the
//! arenas are spliced), and the tree reports the total as
//! [`VpTree::build_distances`].
//!
//! ## Parallel construction
//!
//! Construction parallelizes on two independent axes, controlled by
//! [`VpTreeParams::threads`]:
//!
//! * the distance sweep at a node (every `d(vantage, x)` is independent);
//! * sibling subtrees (disjoint id sets, disjoint arena regions).
//!
//! The build is **bit-identical across worker counts**. Two mechanisms
//! guarantee it (see `DESIGN.md`, "Threading model"):
//!
//! 1. *Seed splitting.* Instead of threading one RNG through the whole
//!    recursion, every node draws one fresh seed per child — in child
//!    order — and each subtree is built from its own `StdRng`. The random
//!    stream a subtree sees is then a pure function of (params seed, path
//!    from root), independent of traversal timing.
//! 2. *Arena splicing.* Workers build subtrees into local arenas; the
//!    parent splices them back in child order, rebasing node ids, class
//!    ranks and leaf bucket starts. The result is exactly the
//!    DFS-preorder layout of a sequential build.
//!
//! Once the arena is complete, the items are permuted in place into its
//! row order (leaf buckets first, in `leaf_items` order; see
//! [`crate::arena`]). Construction itself reads items by id, so the
//! tree is the same; only where each item is stored changes.

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::parallel::{fork_join, par_map_slice, share_workers};
use vantage_core::util::{checked_item_count, split_into_quantiles};
use vantage_core::{DistanceTally, ItemStore, Metric, Result, RowStore};

use crate::arena::VpArena;
use crate::params::VpTreeParams;
use crate::tree::VpTree;

/// Minimum working-set size before a node's distance sweep fans out to
/// worker threads; below this the spawn overhead dominates.
const PARALLEL_SWEEP_MIN: usize = 1024;

impl<T, M: Metric<T>> VpTree<T, M> {
    /// Builds a vp-tree over `items`.
    ///
    /// Distance computations at construction: one per (vantage point,
    /// descendant point) pair, plus whatever the selector costs — read
    /// the total from [`build_distances`](VpTree::build_distances) to
    /// reproduce the paper's construction-cost discussion. The worker count
    /// ([`VpTreeParams::threads`]) never changes the tree, only the
    /// wall-clock spent building it.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn build(items: Vec<T>, metric: M, params: VpTreeParams) -> Result<Self>
    where
        T: Sync,
        M: Sync,
    {
        VpTree::with_rows(items, metric, params)
    }
}

impl<T, M, S> VpTree<T, M, S>
where
    S: RowStore<T> + Sync,
    M: Metric<S::Item> + Sync,
{
    /// Builds a vp-tree over items already packed in the row store `S`,
    /// in id order (see [`build`](VpTree::build)); the items are then
    /// permuted into row order in place.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn with_rows(mut items: S, metric: M, params: VpTreeParams) -> Result<Self> {
        params.validate()?;
        let workers = params.threads.resolve();
        let n = items.view().len();
        let ids: Vec<u32> = (0..checked_item_count(n, "vp-tree")?).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut arena = VpArena::new(params.order);
        let builder = Builder {
            items: &items,
            metric: &metric,
            params: &params,
            item: PhantomData,
        };
        let mut tally = DistanceTally::new();
        let root = builder.build_subtree(ids, &mut rng, workers, &mut arena, &mut tally);
        // Store the items in the arena's row order, so each leaf scan
        // reads one contiguous block: one in-place permutation, no clone.
        let rows = arena.view().id_rows(n);
        items.permute(&rows);
        Ok(VpTree {
            items,
            rows,
            metric,
            arena,
            root,
            params,
            build_distances: tally.totals().computations,
            item: PhantomData,
        })
    }
}

/// Borrowed construction context, shareable across scoped workers.
/// Items are read by id: the store is still in id order.
struct Builder<'a, T, S, M> {
    items: &'a S,
    metric: &'a M,
    params: &'a VpTreeParams,
    item: PhantomData<fn() -> T>,
}

impl<T, S: RowStore<T> + Sync, M: Metric<S::Item> + Sync> Builder<'_, T, S, M> {
    /// Builds the subtree over `ids` into `arena` (DFS preorder), using up
    /// to `workers` threads, charges its distance computations to
    /// `tally`, and returns the subtree root's arena id.
    fn build_subtree(
        &self,
        ids: Vec<u32>,
        rng: &mut StdRng,
        workers: usize,
        arena: &mut VpArena,
        tally: &mut DistanceTally,
    ) -> Option<u32> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= self.params.leaf_capacity {
            return Some(arena.push_leaf(&ids));
        }

        // Select the vantage point and remove it from the working set.
        let vantage_pos =
            self.params
                .selector
                .select(&self.items.view(), &ids, self.metric, rng, tally);
        let vantage = ids[vantage_pos];
        let rest: Vec<u32> = ids.into_iter().filter(|&id| id != vantage).collect();
        tally.add_computations(rest.len() as u64);
        let sweep = |&id: &u32| {
            (
                id,
                self.metric
                    .distance(self.items.row(vantage), self.items.row(id)),
            )
        };
        let vantage_item_distances: Vec<(u32, f64)> =
            if workers > 1 && rest.len() >= PARALLEL_SWEEP_MIN {
                par_map_slice(workers, &rest, sweep)
            } else {
                rest.iter().map(sweep).collect()
            };

        let (groups, cutoffs) = split_into_quantiles(vantage_item_distances, self.params.order);
        let child_sets: Vec<Vec<u32>> = groups
            .into_iter()
            .map(|group| group.into_iter().map(|(id, _)| id).collect())
            .collect();
        // One seed per child, drawn in child order: each subtree's random
        // stream becomes a function of its path from the root alone, so
        // any scheduling of the recursions below grows the same tree.
        let child_seeds: Vec<u64> = child_sets.iter().map(|_| rng.random::<u64>()).collect();

        // Reserve this node's slot before recursing so parents precede
        // children in the arena; its child slots stay `NO_CHILD` until
        // the subtrees below exist.
        let node_id = arena.push_internal(vantage, &cutoffs);

        let heavy_children = child_sets
            .iter()
            .filter(|set| set.len() > self.params.leaf_capacity)
            .count();
        let children: Vec<Option<u32>> = if workers > 1 && heavy_children >= 2 {
            let shares = share_workers(
                workers,
                &child_sets.iter().map(Vec::len).collect::<Vec<_>>(),
            );
            let jobs: Vec<_> = child_sets
                .into_iter()
                .zip(child_seeds)
                .zip(shares)
                .map(|((set, seed), share)| {
                    move || {
                        let mut local = VpArena::new(self.params.order);
                        let mut local_tally = DistanceTally::new();
                        let mut child_rng = StdRng::seed_from_u64(seed);
                        let local_root = self.build_subtree(
                            set,
                            &mut child_rng,
                            share,
                            &mut local,
                            &mut local_tally,
                        );
                        (local_root, local, local_tally)
                    }
                })
                .collect();
            fork_join(jobs)
                .into_iter()
                .map(|(local_root, local, local_tally)| {
                    *tally += local_tally;
                    let offset = arena.splice(local);
                    local_root.map(|root| root + offset)
                })
                .collect()
        } else {
            child_sets
                .into_iter()
                .zip(child_seeds)
                .map(|(set, seed)| {
                    let mut child_rng = StdRng::seed_from_u64(seed);
                    self.build_subtree(set, &mut child_rng, workers, arena, tally)
                })
                .collect()
        };
        arena.set_children(node_id, &children);
        Some(node_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn empty_dataset_builds_empty_tree() {
        let tree =
            VpTree::build(Vec::<Vec<f64>>::new(), Euclidean, VpTreeParams::binary()).unwrap();
        assert!(tree.is_empty());
        assert!(tree.root.is_none());
    }

    #[test]
    fn singleton_is_one_leaf() {
        let tree = VpTree::build(points(1), Euclidean, VpTreeParams::binary()).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.arena.len(), 1);
    }

    #[test]
    fn invalid_params_error() {
        assert!(VpTree::build(points(4), Euclidean, VpTreeParams::with_order(1)).is_err());
    }

    #[test]
    fn construction_cost_is_n_log_n_scale() {
        // Binary tree, leaf capacity 1: each level computes ~n distances,
        // so total is ~n·log2(n). Allow generous slack.
        let n = 512;
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let params = VpTreeParams::binary().selector(crate::VantageSelector::FirstItem);
        let tree = VpTree::build(points(n), metric, params).unwrap();
        assert_eq!(tree.build_distances(), probe.count());
        let count = probe.count() as f64;
        let n_log_n = (n as f64) * (n as f64).log2();
        assert!(count < 2.0 * n_log_n, "count {count} vs n log n {n_log_n}");
        assert!(count > 0.5 * n_log_n, "count {count} vs n log n {n_log_n}");
    }

    #[test]
    fn same_seed_same_tree() {
        let params = VpTreeParams::with_order(3).seed(99);
        let a = VpTree::build(points(100), Euclidean, params.clone()).unwrap();
        let b = VpTree::build(points(100), Euclidean, params).unwrap();
        assert_eq!(a.arena, b.arena);
    }

    #[test]
    fn different_seed_usually_differs() {
        let a = VpTree::build(points(100), Euclidean, VpTreeParams::binary().seed(1)).unwrap();
        let b = VpTree::build(points(100), Euclidean, VpTreeParams::binary().seed(2)).unwrap();
        assert_ne!(a.arena, b.arena);
    }

    #[test]
    fn worker_count_never_changes_the_tree() {
        // The tentpole guarantee: node-for-node identical arenas from one
        // worker to many, across fanouts and leaf sizes.
        for (order, leaf) in [(2, 1), (3, 4), (5, 2)] {
            let base = VpTreeParams::with_order(order)
                .leaf_capacity(leaf)
                .seed(41)
                .threads(Threads::SEQUENTIAL);
            let sequential = VpTree::build(points(500), Euclidean, base.clone()).unwrap();
            for workers in [2, 3, 8] {
                let parallel = VpTree::build(
                    points(500),
                    Euclidean,
                    base.clone().threads(Threads::Fixed(workers)),
                )
                .unwrap();
                assert_eq!(
                    sequential.arena, parallel.arena,
                    "order {order}, leaf {leaf}, {workers} workers"
                );
                assert_eq!(sequential.root, parallel.root);
            }
        }
    }

    #[test]
    fn leaf_capacity_bounds_leaf_sizes() {
        let tree = VpTree::build(
            points(200),
            Euclidean,
            VpTreeParams::with_order(3).leaf_capacity(7),
        )
        .unwrap();
        let view = tree.arena();
        for id in 0..view.len() as u32 {
            if let crate::arena::VpNodeView::Leaf { items, .. } = view.node(id) {
                assert!(items.len() <= 7);
            }
        }
    }

    #[test]
    fn all_items_appear_exactly_once() {
        let tree = VpTree::build(
            points(157),
            Euclidean,
            VpTreeParams::with_order(4).leaf_capacity(3).seed(5),
        )
        .unwrap();
        let mut seen = vec![0u32; tree.len()];
        let view = tree.arena();
        for id in 0..view.len() as u32 {
            match view.node(id) {
                crate::arena::VpNodeView::Internal { vantage, .. } => seen[vantage as usize] += 1,
                crate::arena::VpNodeView::Leaf { items, .. } => {
                    for &id in items {
                        seen[id as usize] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn parents_precede_children_in_the_arena() {
        // The spliced parallel arena must keep the sequential invariant.
        let tree = VpTree::build(
            points(300),
            Euclidean,
            VpTreeParams::with_order(3)
                .leaf_capacity(2)
                .threads(Threads::Fixed(4)),
        )
        .unwrap();
        assert_eq!(tree.root, Some(0));
        let view = tree.arena();
        for id in 0..view.len() as u32 {
            if let crate::arena::VpNodeView::Internal { children, .. } = view.node(id) {
                for &child in children.iter().filter(|&&c| c != crate::arena::NO_CHILD) {
                    assert!(
                        child as usize > id as usize,
                        "child {child} precedes parent {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_points_build_fine() {
        let items = vec![vec![1.0]; 50];
        let tree = VpTree::build(items, Euclidean, VpTreeParams::binary()).unwrap();
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.range(&vec![1.0], 0.0).len(), 50);
    }
}
