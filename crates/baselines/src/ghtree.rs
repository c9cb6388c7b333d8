//! The generalized hyperplane (gh) tree \[Uhl91\].
//!
//! Paper §3.2: *"At the top node, two points are picked and the remaining
//! points are divided into two groups depending on which of these two
//! points they are closer to. The two branches for the two groups are
//! built recursively in the same way. Unlike the vp-trees, the branching
//! factor can only be two."*
//!
//! Pruning uses the hyperplane bound: for any point `x` on the `p2` side
//! (`d(x, p2) ≤ d(x, p1)`), the triangle inequality gives
//! `d(q, x) ≥ (d(q, p1) − d(q, p2)) / 2`, so the right branch can be
//! skipped whenever that bound exceeds the query radius (symmetrically for
//! the left branch).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vantage_core::trace::{DistanceRole, NoTrace, PruneReason, TraceSink};
use vantage_core::{
    BoundedMetric, KnnCollector, Metric, MetricIndex, Neighbor, Result, VantageError,
};

type NodeId = u32;

/// Construction parameters for [`GhTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhTreeParams {
    /// Maximum number of points kept in a leaf bucket (`≥ 1`). Because an
    /// internal node needs two pivots, sets of two points always become
    /// leaves — the effective bucket bound is `max(leaf_capacity, 2)`.
    pub leaf_capacity: usize,
    /// Seed for random pivot pairs.
    pub seed: u64,
}

impl GhTreeParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when `leaf_capacity == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.leaf_capacity == 0 {
            return Err(VantageError::invalid_parameter(
                "leaf_capacity",
                "leaf capacity must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for GhTreeParams {
    fn default() -> Self {
        GhTreeParams {
            leaf_capacity: 1,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Internal {
        p1: u32,
        p2: u32,
        /// Points closer to `p1`.
        left: Option<NodeId>,
        /// Points closer to `p2`.
        right: Option<NodeId>,
    },
    Leaf {
        items: Vec<u32>,
    },
}

/// A generalized hyperplane tree.
#[derive(Debug, Clone)]
pub struct GhTree<T, M> {
    items: Vec<T>,
    metric: M,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    params: GhTreeParams,
}

impl<T, M: Metric<T>> GhTree<T, M> {
    /// Builds a gh-tree over `items`.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn build(items: Vec<T>, metric: M, params: GhTreeParams) -> Result<Self> {
        params.validate()?;
        let mut tree = GhTree {
            items,
            metric,
            nodes: Vec::new(),
            root: None,
            params,
        };
        let ids: Vec<u32> = (0..tree.items.len() as u32).collect();
        let mut rng = StdRng::seed_from_u64(tree.params.seed);
        tree.root = tree.build_node(ids, &mut rng);
        Ok(tree)
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    fn build_node(&mut self, mut ids: Vec<u32>, rng: &mut StdRng) -> Option<NodeId> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= self.params.leaf_capacity.max(2) {
            // A node needs two pivots; sets of ≤ max(capacity, 2) points
            // become leaves (so a 2-point set is a leaf, not a childless
            // internal node).
            return Some(self.push(Node::Leaf { items: ids }));
        }
        let i1 = rng.random_range(0..ids.len());
        let p1 = ids.swap_remove(i1);
        let i2 = rng.random_range(0..ids.len());
        let p2 = ids.swap_remove(i2);
        let (left, right): (Vec<u32>, Vec<u32>) = ids.into_iter().partition(|&id| {
            let d1 = self
                .metric
                .distance(&self.items[p1 as usize], &self.items[id as usize]);
            let d2 = self
                .metric
                .distance(&self.items[p2 as usize], &self.items[id as usize]);
            d1 <= d2
        });
        let node_id = self.push(Node::Internal {
            p1,
            p2,
            left: None,
            right: None,
        });
        let l = self.build_node(left, rng);
        let r = self.build_node(right, rng);
        match &mut self.nodes[node_id as usize] {
            Node::Internal { left, right, .. } => {
                *left = l;
                *right = r;
            }
            Node::Leaf { .. } => unreachable!("reserved slot is internal"),
        }
        Some(node_id)
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }
}

impl<T, M: BoundedMetric<T>> GhTree<T, M> {
    /// [`range`](MetricIndex::range) with instrumentation: reports pivot
    /// and candidate distances, hyperplane prunes (with the bound
    /// `(d_far − d_near)/2` that justified them) and per-level fanout
    /// into `sink`. Answers and distance computations are identical to
    /// the untraced method.
    pub fn range_traced<S: TraceSink>(
        &self,
        query: &T,
        radius: f64,
        sink: &mut S,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_node(root, query, radius, 0, sink, &mut out);
        }
        out
    }

    /// [`knn`](MetricIndex::knn) with instrumentation; see
    /// [`range_traced`](GhTree::range_traced).
    pub fn knn_traced<S: TraceSink>(&self, query: &T, k: usize, sink: &mut S) -> Vec<Neighbor> {
        let mut collector = KnnCollector::new(k);
        if k > 0 {
            if let Some(root) = self.root {
                self.knn_node(root, query, 0, &mut collector, sink);
            }
        }
        collector.into_sorted()
    }

    fn range_node<S: TraceSink>(
        &self,
        node: NodeId,
        query: &T,
        radius: f64,
        level: u32,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { items } => {
                sink.enter_node(level, true);
                for &id in items {
                    sink.distance(DistanceRole::Candidate);
                    match self
                        .metric
                        .distance_within_frac(query, &self.items[id as usize], radius)
                    {
                        (Some(d), _) => out.push(Neighbor::new(id as usize, d)),
                        (None, work) => {
                            sink.abandon(DistanceRole::Candidate, work);
                        }
                    }
                }
            }
            Node::Internal {
                p1,
                p2,
                left,
                right,
            } => {
                sink.enter_node(level, false);
                sink.distance(DistanceRole::Vantage);
                let d1 = self.metric.distance(query, &self.items[*p1 as usize]);
                if d1 <= radius {
                    out.push(Neighbor::new(*p1 as usize, d1));
                }
                sink.distance(DistanceRole::Vantage);
                let d2 = self.metric.distance(query, &self.items[*p2 as usize]);
                if d2 <= radius {
                    out.push(Neighbor::new(*p2 as usize, d2));
                }
                if let Some(left) = left {
                    if (d1 - d2) / 2.0 <= radius {
                        self.range_node(*left, query, radius, level + 1, sink, out);
                    } else if S::ENABLED {
                        sink.prune(level + 1, PruneReason::Hyperplane, (d1 - d2) / 2.0);
                    }
                }
                if let Some(right) = right {
                    if (d2 - d1) / 2.0 <= radius {
                        self.range_node(*right, query, radius, level + 1, sink, out);
                    } else if S::ENABLED {
                        sink.prune(level + 1, PruneReason::Hyperplane, (d2 - d1) / 2.0);
                    }
                }
            }
        }
    }

    fn knn_node<S: TraceSink>(
        &self,
        node: NodeId,
        query: &T,
        level: u32,
        collector: &mut KnnCollector,
        sink: &mut S,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { items } => {
                sink.enter_node(level, true);
                for &id in items {
                    sink.distance(DistanceRole::Candidate);
                    // Bounded by the current k-th best distance: an
                    // abandoned candidate is one the collector's strict
                    // `<` would have discarded.
                    match self.metric.distance_within_frac(
                        query,
                        &self.items[id as usize],
                        collector.radius(),
                    ) {
                        (Some(d), _) => {
                            collector.offer(id as usize, d);
                        }
                        (None, work) => {
                            sink.abandon(DistanceRole::Candidate, work);
                        }
                    }
                }
            }
            Node::Internal {
                p1,
                p2,
                left,
                right,
            } => {
                sink.enter_node(level, false);
                sink.distance(DistanceRole::Vantage);
                let d1 = self.metric.distance(query, &self.items[*p1 as usize]);
                collector.offer(*p1 as usize, d1);
                sink.distance(DistanceRole::Vantage);
                let d2 = self.metric.distance(query, &self.items[*p2 as usize]);
                collector.offer(*p2 as usize, d2);
                // Nearer side first so the radius shrinks early.
                let l = left.map(|n| ((d1 - d2) / 2.0, n));
                let r = right.map(|n| ((d2 - d1) / 2.0, n));
                let mut order: Vec<(f64, NodeId)> = [l, r].into_iter().flatten().collect();
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for (bound, child) in order {
                    if bound <= collector.radius() {
                        self.knn_node(child, query, level + 1, collector, sink);
                    } else if S::ENABLED {
                        sink.prune(level + 1, PruneReason::Hyperplane, bound);
                    }
                }
            }
        }
    }
}

impl<T, M: BoundedMetric<T>> MetricIndex<T> for GhTree<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.range_traced(query, radius, &mut NoTrace)
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.knn_traced(query, k, &mut NoTrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
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
        let t = GhTree::build(grid(), Euclidean, GhTreeParams::default()).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for (q, r) in [
            (vec![5.0, 5.0], 2.0),
            (vec![0.0, 0.0], 4.5),
            (vec![9.9, 9.9], 0.5),
        ] {
            assert_eq!(ids(t.range(&q, r)), ids(o.range(&q, r)));
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = GhTree::build(grid(), Euclidean, GhTreeParams::default()).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 5, 50, 120] {
            let a = t.knn(&vec![3.2, 6.7], k);
            let b = o.knn(&vec![3.2, 6.7], k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn duplicate_points_terminate() {
        let t = GhTree::build(vec![vec![0.5]; 60], Euclidean, GhTreeParams::default()).unwrap();
        assert_eq!(t.range(&vec![0.5], 0.0).len(), 60);
    }

    #[test]
    fn empty_and_tiny() {
        for n in 0..4 {
            let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i)]).collect();
            let t = GhTree::build(pts, Euclidean, GhTreeParams::default()).unwrap();
            assert_eq!(t.range(&vec![0.0], 100.0).len(), n as usize);
        }
    }

    #[test]
    fn prunes_distance_computations() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = GhTree::build(grid(), metric, GhTreeParams::default()).unwrap();
        probe.reset();
        t.range(&vec![2.0, 2.0], 1.0);
        assert!(probe.count() < 100);
    }

    #[test]
    fn zero_capacity_rejected() {
        let params = GhTreeParams {
            leaf_capacity: 0,
            seed: 0,
        };
        assert!(GhTree::build(grid(), Euclidean, params).is_err());
    }
}
