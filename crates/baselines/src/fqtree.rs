//! The fixed-queries tree (FQ-tree) of Baeza-Yates, Cunto, Manber &
//! Wu (CPM 1994).
//!
//! A close intellectual neighbor of the mvp-tree's Observation 1 (§4.1:
//! *"we can use the same vantage point to partition the regions associated
//! with the nodes at the same level"*): the FQ-tree commits to exactly
//! that — **every node at depth `d` shares the same vantage ("fixed
//! query") point**, so a search computes at most one distance per *level*
//! regardless of how many branches it descends. The trade-off is that the
//! per-level pivot is not adapted to each subtree, so partitions are less
//! balanced than a vp-tree's.
//!
//! This implementation follows the continuous-metric generalization:
//! each node quantile-splits its points by distance to the level pivot
//! into `m` children with recorded cutoffs (the original buckets discrete
//! distances, which it recovers exactly when the metric is integral and
//! `m` spans the distance range). Pivots are drawn per level from the
//! dataset; points equal to a pivot remain indexed (pivots are *queries*,
//! not removed data points — unlike vp-trees).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::util::split_into_quantiles;
use vantage_core::{
    BoundedMetric, KnnCollector, Metric, MetricIndex, Neighbor, Result, VantageError,
};

type NodeId = u32;

/// Construction parameters for [`FqTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FqTreeParams {
    /// Partitions per level (`≥ 2`).
    pub order: usize,
    /// Maximum points per leaf bucket (`≥ 1`).
    pub leaf_capacity: usize,
    /// Maximum number of levels (= fixed pivots); deeper buckets stay
    /// leaves. Keeps pathological datasets (many duplicates) from
    /// recursing forever, since FQ-tree pivots are not removed from the
    /// indexed set.
    pub max_depth: usize,
    /// Seed for pivot sampling.
    pub seed: u64,
}

impl FqTreeParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when `order < 2`, `leaf_capacity == 0` or
    /// `max_depth == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.order < 2 {
            return Err(VantageError::invalid_parameter(
                "order",
                format!("FQ-tree order must be at least 2, got {}", self.order),
            ));
        }
        if self.leaf_capacity == 0 {
            return Err(VantageError::invalid_parameter(
                "leaf_capacity",
                "leaf capacity must be at least 1",
            ));
        }
        if self.max_depth == 0 {
            return Err(VantageError::invalid_parameter(
                "max_depth",
                "depth budget must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for FqTreeParams {
    fn default() -> Self {
        FqTreeParams {
            order: 4,
            leaf_capacity: 4,
            max_depth: 32,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Internal {
        /// Depth of this node = index of its pivot in `pivots`.
        level: u32,
        cutoffs: Vec<f64>,
        children: Vec<Option<NodeId>>,
    },
    Leaf {
        items: Vec<u32>,
    },
}

/// A fixed-queries tree: one shared vantage point per level.
#[derive(Debug, Clone)]
pub struct FqTree<T, M> {
    items: Vec<T>,
    metric: M,
    /// The fixed per-level query points (item ids).
    pivots: Vec<u32>,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    params: FqTreeParams,
}

impl<T, M: Metric<T>> FqTree<T, M> {
    /// Builds an FQ-tree over `items`.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn build(items: Vec<T>, metric: M, params: FqTreeParams) -> Result<Self> {
        params.validate()?;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = items.len() as u32;
        // One fixed pivot per possible level, sampled up front so sibling
        // subtrees agree by construction.
        let pivots: Vec<u32> = (0..params.max_depth.min(items.len()))
            .map(|_| rng.random_range(0..n.max(1)))
            .collect();
        let mut tree = FqTree {
            items,
            metric,
            pivots,
            nodes: Vec::new(),
            root: None,
            params,
        };
        let ids: Vec<u32> = (0..n).collect();
        tree.root = tree.build_node(ids, 0);
        Ok(tree)
    }

    /// The fixed per-level pivot ids.
    pub fn pivots(&self) -> &[u32] {
        &self.pivots
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    fn build_node(&mut self, ids: Vec<u32>, level: usize) -> Option<NodeId> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= self.params.leaf_capacity || level >= self.pivots.len() {
            return Some(self.push(Node::Leaf { items: ids }));
        }
        let pivot = self.pivots[level] as usize;
        let entries: Vec<(u32, f64)> = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    self.metric
                        .distance(&self.items[pivot], &self.items[id as usize]),
                )
            })
            .collect();
        let (groups, cutoffs) = split_into_quantiles(entries, self.params.order);
        // Degenerate split (every point at one distance, e.g. all
        // duplicates): recursing cannot make progress, so bucket here.
        if groups.iter().filter(|g| !g.is_empty()).count() <= 1 {
            return Some(self.push(Node::Leaf { items: ids }));
        }
        let node_id = self.push(Node::Internal {
            level: level as u32,
            cutoffs,
            children: Vec::new(),
        });
        let children: Vec<Option<NodeId>> = groups
            .into_iter()
            .map(|g| self.build_node(g.into_iter().map(|(id, _)| id).collect(), level + 1))
            .collect();
        match &mut self.nodes[node_id as usize] {
            Node::Internal { children: slot, .. } => *slot = children,
            Node::Leaf { .. } => unreachable!("reserved slot is internal"),
        }
        Some(node_id)
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }

    /// The FQ-tree advantage: `pivot_distances[level]` is computed lazily
    /// **once per query**, no matter how many level-`level` nodes the
    /// search visits.
    fn pivot_distance(&self, query: &T, level: u32, cache: &mut [Option<f64>]) -> f64 {
        let slot = &mut cache[level as usize];
        if let Some(d) = *slot {
            return d;
        }
        let d = self
            .metric
            .distance(query, &self.items[self.pivots[level as usize] as usize]);
        *slot = Some(d);
        d
    }
}

impl<T, M: BoundedMetric<T>> FqTree<T, M> {
    fn range_node(
        &self,
        node: NodeId,
        query: &T,
        radius: f64,
        cache: &mut [Option<f64>],
        out: &mut Vec<Neighbor>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { items } => {
                for &id in items {
                    if let Some(d) =
                        self.metric
                            .distance_within(query, &self.items[id as usize], radius)
                    {
                        out.push(Neighbor::new(id as usize, d));
                    }
                }
            }
            Node::Internal {
                level,
                cutoffs,
                children,
            } => {
                let d = self.pivot_distance(query, *level, cache);
                for (i, child) in children.iter().enumerate() {
                    let Some(child) = child else { continue };
                    let lo = if i == 0 { 0.0 } else { cutoffs[i - 1] };
                    let hi = if i == cutoffs.len() {
                        f64::INFINITY
                    } else {
                        cutoffs[i]
                    };
                    if d - radius <= hi && d + radius >= lo {
                        self.range_node(*child, query, radius, cache, out);
                    }
                }
            }
        }
    }

    fn knn_node(
        &self,
        node: NodeId,
        query: &T,
        collector: &mut KnnCollector,
        cache: &mut [Option<f64>],
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { items } => {
                for &id in items {
                    // `offer` only admits strictly closer candidates, so a
                    // candidate abandoned at the current radius could never
                    // have been accepted; skipping it is bit-identical.
                    if let Some(d) = self.metric.distance_within(
                        query,
                        &self.items[id as usize],
                        collector.radius(),
                    ) {
                        collector.offer(id as usize, d);
                    }
                }
            }
            Node::Internal {
                level,
                cutoffs,
                children,
            } => {
                let d = self.pivot_distance(query, *level, cache);
                let mut order: Vec<(f64, NodeId)> = children
                    .iter()
                    .enumerate()
                    .filter_map(|(i, child)| {
                        child.map(|c| {
                            let lo = if i == 0 { 0.0 } else { cutoffs[i - 1] };
                            let hi = if i == cutoffs.len() {
                                f64::INFINITY
                            } else {
                                cutoffs[i]
                            };
                            ((d - hi).max(lo - d).max(0.0), c)
                        })
                    })
                    .collect();
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for (bound, child) in order {
                    if bound > collector.radius() {
                        break;
                    }
                    self.knn_node(child, query, collector, cache);
                }
            }
        }
    }
}

impl<T, M: BoundedMetric<T>> MetricIndex<T> for FqTree<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            let mut cache = vec![None; self.pivots.len()];
            self.range_node(root, query, radius, &mut cache, &mut out);
        }
        out
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        let mut collector = KnnCollector::new(k);
        if k > 0 {
            if let Some(root) = self.root {
                let mut cache = vec![None; self.pivots.len()];
                self.knn_node(root, query, &mut collector, &mut cache);
            }
        }
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    fn ids(mut v: Vec<Neighbor>) -> Vec<usize> {
        v.sort_unstable_by_key(|n| n.id);
        v.into_iter().map(|n| n.id).collect()
    }

    #[test]
    fn range_matches_linear_scan() {
        let o = LinearScan::new(grid(), Euclidean);
        for order in [2, 4, 8] {
            let t = FqTree::build(
                grid(),
                Euclidean,
                FqTreeParams {
                    order,
                    ..FqTreeParams::default()
                },
            )
            .unwrap();
            for (q, r) in [
                (vec![5.0, 5.0], 2.0),
                (vec![0.0, 0.0], 6.0),
                (vec![11.0, 0.0], 0.0),
                (vec![6.0, 6.0], 100.0),
            ] {
                assert_eq!(ids(t.range(&q, r)), ids(o.range(&q, r)), "order={order}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = FqTree::build(grid(), Euclidean, FqTreeParams::default()).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 9, 100, 144, 200] {
            let a = t.knn(&vec![3.5, 8.2], k);
            let b = o.knn(&vec![3.5, 8.2], k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12, "k={k}");
            }
        }
    }

    #[test]
    fn one_pivot_distance_per_level_per_query() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = FqTree::build(
            grid(),
            metric,
            FqTreeParams {
                order: 2,
                leaf_capacity: 1,
                ..FqTreeParams::default()
            },
        )
        .unwrap();
        let levels = t.pivots().len() as u64;
        probe.reset();
        // A radius large enough to visit every branch: pivot distances
        // must still be computed at most once per level, so total cost is
        // bounded by n (leaf evaluations) + levels.
        t.range(&vec![5.0, 5.0], 1e9);
        assert!(
            probe.count() <= 144 + levels,
            "cost {} exceeds n + levels = {}",
            probe.count(),
            144 + levels
        );
    }

    #[test]
    fn duplicates_terminate_via_degenerate_split_guard() {
        let t = FqTree::build(vec![vec![3.0]; 100], Euclidean, FqTreeParams::default()).unwrap();
        assert_eq!(t.range(&vec![3.0], 0.0).len(), 100);
    }

    #[test]
    fn empty_and_tiny() {
        for n in 0..4 {
            let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i)]).collect();
            let t = FqTree::build(pts, Euclidean, FqTreeParams::default()).unwrap();
            assert_eq!(t.range(&vec![0.0], 100.0).len(), n as usize);
            assert_eq!(t.knn(&vec![0.0], 10).len(), n as usize);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = |f: fn(&mut FqTreeParams)| {
            let mut p = FqTreeParams::default();
            f(&mut p);
            FqTree::build(grid(), Euclidean, p).is_err()
        };
        assert!(bad(|p| p.order = 1));
        assert!(bad(|p| p.leaf_capacity = 0));
        assert!(bad(|p| p.max_depth = 0));
    }

    #[test]
    fn every_item_is_reachable() {
        let t = FqTree::build(grid(), Euclidean, FqTreeParams::default()).unwrap();
        assert_eq!(t.range(&vec![0.0, 0.0], 1e9).len(), 144);
    }
}
