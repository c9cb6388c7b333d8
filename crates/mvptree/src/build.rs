//! mvp-tree construction — the paper's §4.2 algorithm, generalized from
//! the presented `m = 2` to any `m ≥ 2`.
//!
//! Outline for a point set `S` (paper steps in parentheses):
//!
//! * `|S| ≤ k + 2`: build a **leaf** — pick the first vantage point
//!   arbitrarily (2.1), record every remaining point's distance to it in
//!   `D1` (2.3), pick the *farthest* point as the second vantage point
//!   (2.4) and record distances to it in `D2` (2.6).
//! * otherwise build an **internal node** — pick the first vantage point
//!   (3.1), compute distances (3.3) feeding each point's `PATH` while it
//!   has fewer than `p` entries, quantile-split into `m` groups recording
//!   cutoffs (3.4, the paper's `M1`), pick the second vantage point from
//!   the farthest group (3.5), compute its distances to all remaining
//!   points (3.7, feeding `PATH` again), split *each group separately*
//!   into `m` subgroups recording per-group cutoffs (3.8–3.9, the paper's
//!   `M2[·]`), and recurse on the `m²` subgroups.
//!
//! Construction cost: two distance computations per (node, descendant)
//! pair — `O(n log_{m²} n × 2) = O(n log_m n)` as the paper states, and
//! it is exactly these distances whose first `p` entries the leaves keep.
//! The builder counts them itself, in a [`DistanceTally`] threaded
//! through the recursion (one per parallel job, summed as the arenas are
//! spliced), and the tree reports the total as
//! [`MvpTree::build_distances`].
//!
//! ## Parallel construction
//!
//! Like the vp-tree, construction parallelizes the per-node distance
//! sweeps and the recursion into the `m²` independent subgroups, under
//! [`MvpParams::threads`], while staying **bit-identical across worker
//! counts** (see `DESIGN.md`, "Threading model"): every node draws one
//! seed per child in child order and each subtree builds from its own
//! `StdRng`; workers fill local arenas that the parent splices back in
//! child order, rebasing node ids, class ranks and leaf row starts. To
//! make subtrees fully independent, each point's `PATH` accumulator
//! travels *with* the point ([`PathedId`]) instead of living in a shared
//! table — an id sits in exactly one branch, so ownership moves down the
//! recursion for free.
//!
//! ## Row order
//!
//! Once the arena is complete, the items are permuted in place into its
//! row order (leaf entries first, in `ids` column order; see
//! [`crate::arena`]). Construction itself reads items by id, so the
//! tree is the same; only where each item is stored changes.

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::parallel::{fork_join, par_map_slice, share_workers};
use vantage_core::util::{checked_item_count, split_into_quantiles};
use vantage_core::{DistanceTally, ItemStore, Metric, Result, RowStore};

use crate::arena::MvpArena;
use crate::params::{MvpParams, SecondVantage};
use crate::tree::MvpTree;

/// Minimum working-set size before a node's distance sweep fans out to
/// worker threads; below this the spawn overhead dominates.
const PARALLEL_SWEEP_MIN: usize = 1024;

/// A point id bundled with its PATH accumulator (paper §4.2): the
/// distances to the vantage points above it, capped at `p` entries,
/// harvested when the point settles in a leaf.
struct PathedId {
    id: u32,
    path: Vec<f64>,
}

impl<T, M: Metric<T>> MvpTree<T, M> {
    /// Builds an mvp-tree over `items`.
    ///
    /// The worker count ([`MvpParams::threads`]) never changes the tree,
    /// only the wall-clock spent building it.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn build(items: Vec<T>, metric: M, params: MvpParams) -> Result<Self>
    where
        T: Sync,
        M: Sync,
    {
        MvpTree::with_rows(items, metric, params)
    }
}

impl<T, M, S> MvpTree<T, M, S>
where
    S: RowStore<T> + Sync,
    M: Metric<S::Item> + Sync,
{
    /// Builds an mvp-tree over items already packed in the row store
    /// `S`, in id order (see [`build`](MvpTree::build)); the items are
    /// then permuted into row order in place. The dynamic tree's
    /// rebuilds take this path, packing the live rows without an owned
    /// copy of each.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn with_rows(mut items: S, metric: M, params: MvpParams) -> Result<Self> {
        params.validate()?;
        let workers = params.threads.resolve();
        let n = items.view().len();
        let ids: Vec<PathedId> = (0..checked_item_count(n, "mvp-tree")?)
            .map(|id| PathedId {
                id,
                path: Vec::new(),
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut arena = MvpArena::new(params.m);
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
        Ok(MvpTree {
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
    params: &'a MvpParams,
    item: PhantomData<fn() -> T>,
}

impl<T, S: RowStore<T> + Sync, M: Metric<S::Item> + Sync> Builder<'_, T, S, M> {
    fn distance_between(&self, a: u32, b: u32) -> f64 {
        self.metric.distance(self.items.row(a), self.items.row(b))
    }

    /// Computes each member's distance to `vantage` (in parallel when the
    /// group is large enough), charging them to `tally`, and appends it
    /// to PATHs shorter than `p`.
    fn sweep(
        &self,
        vantage: u32,
        members: &mut [PathedId],
        workers: usize,
        tally: &mut DistanceTally,
    ) -> Vec<f64> {
        tally.add_computations(members.len() as u64);
        let distance_to = |e: &PathedId| self.distance_between(vantage, e.id);
        let distances = if workers > 1 && members.len() >= PARALLEL_SWEEP_MIN {
            par_map_slice(workers, members, distance_to)
        } else {
            members.iter().map(distance_to).collect::<Vec<f64>>()
        };
        for (e, &d) in members.iter_mut().zip(&distances) {
            if e.path.len() < self.params.p {
                e.path.push(d);
            }
        }
        distances
    }

    /// Builds the subtree over `ids` into `arena` (DFS preorder), using up
    /// to `workers` threads, charges its distance computations to
    /// `tally`, and returns the subtree root's arena id.
    fn build_subtree(
        &self,
        ids: Vec<PathedId>,
        rng: &mut StdRng,
        workers: usize,
        arena: &mut MvpArena,
        tally: &mut DistanceTally,
    ) -> Option<u32> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= self.params.k + 2 {
            return Some(self.build_leaf(ids, rng, arena, tally));
        }

        let m = self.params.m;

        // (3.1) First vantage point.
        let id_view: Vec<u32> = ids.iter().map(|e| e.id).collect();
        let vp1_pos =
            self.params
                .selector
                .select(&self.items.view(), &id_view, self.metric, rng, tally);
        let vp1 = id_view[vp1_pos];
        let mut rest: Vec<PathedId> = ids.into_iter().filter(|e| e.id != vp1).collect();

        // (3.3) Distances to vp1, feeding PATH; (3.4) split into m groups.
        let d1 = self.sweep(vp1, &mut rest, workers, tally);
        let d1_list: Vec<(PathedId, f64)> = rest.into_iter().zip(d1).collect();
        let (mut groups, cutoffs1) = split_into_quantiles(d1_list, m);

        // (3.5) Second vantage point.
        let vp2 = match self.params.second {
            SecondVantage::Farthest => {
                // An arbitrary object from the farthest partition (the
                // paper's SS2); the last group is never empty.
                let group = groups
                    .iter_mut()
                    .rev()
                    .find(|g| !g.is_empty())
                    .expect("at least one non-empty group");
                let pos = rng.random_range(0..group.len());
                group.swap_remove(pos).0.id
            }
            SecondVantage::Random => {
                let total: usize = groups.iter().map(Vec::len).sum();
                let mut target = rng.random_range(0..total);
                let mut picked = None;
                for group in &mut groups {
                    if target < group.len() {
                        picked = Some(group.swap_remove(target).0.id);
                        break;
                    }
                    target -= group.len();
                }
                picked.expect("target within total")
            }
        };

        // (3.7) Distances to vp2 for every remaining point, feeding PATH;
        // (3.8–3.9) split each group separately around vp2.
        let mut cutoffs2: Vec<f64> = Vec::with_capacity(m * (m - 1));
        let mut subgroups: Vec<Vec<PathedId>> = Vec::with_capacity(m * m);
        for group in groups {
            let mut members: Vec<PathedId> = group.into_iter().map(|(e, _)| e).collect();
            let d2 = self.sweep(vp2, &mut members, workers, tally);
            let d2_list: Vec<(PathedId, f64)> = members.into_iter().zip(d2).collect();
            let (subs, cuts) = split_into_quantiles(d2_list, m);
            cutoffs2.extend(cuts);
            subgroups.extend(
                subs.into_iter()
                    .map(|sub| sub.into_iter().map(|(e, _)| e).collect::<Vec<PathedId>>()),
            );
        }

        // One seed per child, drawn in child order: each subtree's random
        // stream becomes a function of its path from the root alone, so
        // any scheduling of the recursions below grows the same tree.
        let child_seeds: Vec<u64> = subgroups.iter().map(|_| rng.random::<u64>()).collect();

        // Reserve the node slot before recursing (parents precede
        // children in the arena); its child slots stay `NO_CHILD` until
        // the subtrees below exist.
        let node_id = arena.push_internal(vp1, vp2, &cutoffs1, &cutoffs2);

        let heavy_children = subgroups
            .iter()
            .filter(|sub| sub.len() > self.params.k + 2)
            .count();
        let children: Vec<Option<u32>> = if workers > 1 && heavy_children >= 2 {
            let shares =
                share_workers(workers, &subgroups.iter().map(Vec::len).collect::<Vec<_>>());
            let jobs: Vec<_> = subgroups
                .into_iter()
                .zip(child_seeds)
                .zip(shares)
                .map(|((sub, seed), share)| {
                    move || {
                        let mut local = MvpArena::new(self.params.m);
                        let mut local_tally = DistanceTally::new();
                        let mut child_rng = StdRng::seed_from_u64(seed);
                        let local_root = self.build_subtree(
                            sub,
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
            subgroups
                .into_iter()
                .zip(child_seeds)
                .map(|(sub, seed)| {
                    let mut child_rng = StdRng::seed_from_u64(seed);
                    self.build_subtree(sub, &mut child_rng, workers, arena, tally)
                })
                .collect()
        };
        arena.set_children(node_id, &children);
        Some(node_id)
    }

    /// Builds a leaf from `1 ≤ ids.len() ≤ k + 2` points (paper step 2)
    /// into `arena`, charges its distance computations to `tally`, and
    /// returns its arena id.
    fn build_leaf(
        &self,
        ids: Vec<PathedId>,
        rng: &mut StdRng,
        arena: &mut MvpArena,
        tally: &mut DistanceTally,
    ) -> u32 {
        // (2.1) First vantage point, arbitrary.
        let id_view: Vec<u32> = ids.iter().map(|e| e.id).collect();
        let vp1_pos =
            self.params
                .selector
                .select(&self.items.view(), &id_view, self.metric, rng, tally);
        let vp1 = id_view[vp1_pos];
        let mut rest: Vec<PathedId> = ids.into_iter().filter(|e| e.id != vp1).collect();
        if rest.is_empty() {
            return arena.push_leaf(vp1, None, 0);
        }

        // (2.3) D1 distances; (2.6) below computes as many D2 distances
        // less the second vantage point's own.
        tally.add_computations(2 * rest.len() as u64 - 1);
        let d1: Vec<f64> = rest
            .iter()
            .map(|e| self.distance_between(vp1, e.id))
            .collect();

        // (2.4) Second vantage point: the farthest point from vp1 (or a
        // random one under the ablation setting).
        let vp2_pos = match self.params.second {
            SecondVantage::Farthest => d1
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("rest is non-empty"),
            SecondVantage::Random => rng.random_range(0..rest.len()),
        };
        let vp2 = rest.swap_remove(vp2_pos).id;
        let mut d1: Vec<f64> = d1;
        d1.swap_remove(vp2_pos);

        // (2.6) D2 distances and entry assembly into the arena's shared
        // struct-of-arrays columns. Every point in this leaf shares the
        // same ancestors, so the PATH lengths are uniform.
        let path_len = rest.first().map_or(0, |e| e.path.len());
        let leaf = arena.push_leaf(vp1, Some(vp2), path_len);
        for (e, d1) in rest.into_iter().zip(d1) {
            arena.push_leaf_entry(e.id, d1, self.distance_between(vp2, e.id), &e.path);
        }
        leaf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{MvpNodeView, NO_CHILD};
    use vantage_core::prelude::*;
    use vantage_core::MetricIndex;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn empty_dataset_builds_empty_tree() {
        let t = MvpTree::build(Vec::<Vec<f64>>::new(), Euclidean, MvpParams::binary(4, 2)).unwrap();
        assert!(t.is_empty());
        assert!(t.root.is_none());
    }

    #[test]
    fn tiny_datasets_build_single_leaves() {
        for n in 1..=6 {
            let t = MvpTree::build(points(n), Euclidean, MvpParams::binary(4, 2)).unwrap();
            assert_eq!(t.len(), n);
            assert_eq!(t.arena.len(), 1, "n={n} should be one leaf (k+2=6)");
        }
    }

    #[test]
    fn single_point_leaf_has_no_second_vantage() {
        let t = MvpTree::build(points(1), Euclidean, MvpParams::binary(4, 2)).unwrap();
        match t.arena.view().node(0) {
            MvpNodeView::Leaf { vp2, entries, .. } => {
                assert!(vp2.is_none());
                assert!(entries.is_empty());
            }
            MvpNodeView::Internal { .. } => panic!("expected leaf"),
        }
    }

    #[test]
    fn two_point_leaf_is_two_vantages() {
        let t = MvpTree::build(points(2), Euclidean, MvpParams::binary(4, 2)).unwrap();
        match t.arena.view().node(0) {
            MvpNodeView::Leaf { vp2, entries, .. } => {
                assert!(vp2.is_some());
                assert!(entries.is_empty());
            }
            MvpNodeView::Internal { .. } => panic!("expected leaf"),
        }
    }

    #[test]
    fn leaf_second_vantage_is_farthest_from_first() {
        // Force FirstItem selection so vp1 = id 0 (value 0.0); the
        // farthest is id 4 (value 4.0).
        let t = MvpTree::build(
            points(5),
            Euclidean,
            MvpParams::binary(4, 2).selector(VantageSelector::FirstItem),
        )
        .unwrap();
        match t.arena.view().node(0) {
            MvpNodeView::Leaf { vp1, vp2, .. } => {
                assert_eq!(vp1, 0);
                assert_eq!(vp2, Some(4));
            }
            MvpNodeView::Internal { .. } => panic!("expected leaf"),
        }
    }

    #[test]
    fn every_item_appears_exactly_once() {
        let t = MvpTree::build(points(533), Euclidean, MvpParams::paper(3, 7, 4).seed(13)).unwrap();
        let mut seen = vec![0u32; t.len()];
        let view = t.arena.view();
        for id in 0..view.len() as u32 {
            match view.node(id) {
                MvpNodeView::Internal { vp1, vp2, .. } => {
                    seen[vp1 as usize] += 1;
                    seen[vp2 as usize] += 1;
                }
                MvpNodeView::Leaf { vp1, vp2, entries } => {
                    seen[vp1 as usize] += 1;
                    if let Some(v) = vp2 {
                        seen[v as usize] += 1;
                    }
                    for &id in entries.ids() {
                        seen[id as usize] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn internal_node_shapes_match_m() {
        let m = 3;
        let t = MvpTree::build(points(400), Euclidean, MvpParams::paper(m, 5, 4).seed(1)).unwrap();
        let view = t.arena.view();
        let mut internals = 0;
        for id in 0..view.len() as u32 {
            if let MvpNodeView::Internal {
                cutoffs1,
                cutoffs2,
                children,
                ..
            } = view.node(id)
            {
                internals += 1;
                assert_eq!(cutoffs1.len(), m - 1);
                assert_eq!(cutoffs2.len(), m * (m - 1));
                assert_eq!(children.len(), m * m);
            }
        }
        assert!(internals > 0);
    }

    #[test]
    fn path_arrays_are_capped_at_p() {
        let p = 3;
        let t = MvpTree::build(points(1000), Euclidean, MvpParams::paper(2, 4, p).seed(5)).unwrap();
        let view = t.arena.view();
        let mut max_len = 0;
        for id in 0..view.len() as u32 {
            if let MvpNodeView::Leaf { entries, .. } = view.node(id) {
                if !entries.is_empty() {
                    max_len = max_len.max(entries.path_len());
                    assert!(entries.path_len() <= p);
                }
            }
        }
        assert_eq!(max_len, p, "deep tree should fill PATH to p");
    }

    #[test]
    fn p_zero_keeps_no_paths() {
        let t = MvpTree::build(points(500), Euclidean, MvpParams::paper(2, 4, 0).seed(5)).unwrap();
        let view = t.arena.view();
        for id in 0..view.len() as u32 {
            if let MvpNodeView::Leaf { entries, .. } = view.node(id) {
                assert_eq!(entries.path_len(), 0);
                for i in 0..entries.len() {
                    assert!(entries.path(i).is_empty());
                }
            }
        }
    }

    #[test]
    fn construction_cost_scales_as_n_log_n() {
        let n = 1024;
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let tree = MvpTree::build(points(n), metric, MvpParams::paper(2, 1, 0).seed(1)).unwrap();
        assert_eq!(tree.build_distances(), probe.count());
        let count = probe.count() as f64;
        // Two vantage points per node over log_{m²}(n) levels ≈ n·log2(n)
        // for m = 2; allow generous slack for uneven splits.
        let n_log_n = (n as f64) * (n as f64).log2();
        assert!(count < 2.0 * n_log_n, "count {count}");
        assert!(count > 0.4 * n_log_n, "count {count}");
    }

    #[test]
    fn same_seed_same_tree() {
        let a = MvpTree::build(points(300), Euclidean, MvpParams::paper(3, 9, 5).seed(8)).unwrap();
        let b = MvpTree::build(points(300), Euclidean, MvpParams::paper(3, 9, 5).seed(8)).unwrap();
        assert_eq!(a.arena, b.arena);
    }

    #[test]
    fn worker_count_never_changes_the_tree() {
        // The tentpole guarantee: node-for-node identical arenas from one
        // worker to many, across shapes and both vantage strategies.
        for (m, k, p) in [(2, 4, 3), (3, 9, 5)] {
            for second in [SecondVantage::Farthest, SecondVantage::Random] {
                let base = MvpParams::paper(m, k, p)
                    .second(second)
                    .seed(77)
                    .threads(Threads::SEQUENTIAL);
                let sequential = MvpTree::build(points(800), Euclidean, base.clone()).unwrap();
                for workers in [2, 4, 8] {
                    let parallel = MvpTree::build(
                        points(800),
                        Euclidean,
                        base.clone().threads(Threads::Fixed(workers)),
                    )
                    .unwrap();
                    assert_eq!(
                        sequential.arena, parallel.arena,
                        "m={m} k={k} p={p} {second:?} {workers} workers"
                    );
                    assert_eq!(sequential.root, parallel.root);
                }
            }
        }
    }

    #[test]
    fn parents_precede_children_in_the_arena() {
        // The spliced parallel arena must keep the sequential invariant.
        let t = MvpTree::build(
            points(900),
            Euclidean,
            MvpParams::paper(2, 4, 2).threads(Threads::Fixed(4)),
        )
        .unwrap();
        assert_eq!(t.root, Some(0));
        let view = t.arena.view();
        for id in 0..view.len() as u32 {
            if let MvpNodeView::Internal { children, .. } = view.node(id) {
                for &child in children.iter().filter(|&&c| c != NO_CHILD) {
                    assert!(child > id, "child {child} precedes parent {id}");
                }
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_points_build_and_search() {
        let items = vec![vec![2.5]; 100];
        let t = MvpTree::build(items, Euclidean, MvpParams::paper(2, 8, 3)).unwrap();
        assert_eq!(t.range(&vec![2.5], 0.0).len(), 100);
    }

    #[test]
    fn invalid_params_error() {
        assert!(MvpTree::build(points(10), Euclidean, MvpParams::paper(1, 5, 2)).is_err());
        assert!(MvpTree::build(points(10), Euclidean, MvpParams::paper(2, 0, 2)).is_err());
    }

    #[test]
    fn random_second_vantage_builds_correctly() {
        let t = MvpTree::build(
            points(200),
            Euclidean,
            MvpParams::paper(2, 5, 3)
                .second(SecondVantage::Random)
                .seed(3),
        )
        .unwrap();
        t.check_invariants().unwrap();
    }
}
