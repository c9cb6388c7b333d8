//! GNAT — the Geometric Near-neighbor Access Tree \[Bri95\].
//!
//! Paper §3.2: *"A k number of split points are chosen at the top level.
//! Each one of the remaining points are associated with one of the k
//! datasets (one for each split point), depending on which split point
//! they are closest to. For each split point, the minimum and maximum
//! distances from the points in the datasets of other split points are
//! recorded. The tree is recursively built for each dataset at the next
//! level."*
//!
//! Search keeps a set of live subtrees; each computed query-to-split-point
//! distance eliminates every subtree `j` whose recorded range
//! `[min_ij, max_ij]` cannot intersect `[d(q, p_i) − r, d(q, p_i) + r]`.

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use vantage_core::trace::{DistanceRole, NoTrace, PruneReason, TraceSink};
use vantage_core::{
    BoundedMetric, KnnCollector, Metric, MetricIndex, Neighbor, Result, VantageError,
};

type NodeId = u32;

/// Construction parameters for [`Gnat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnatParams {
    /// Number of split points per node (`≥ 2`). Brin adapts this per
    /// subtree cardinality; a fixed degree (his default experiments use
    /// 50, smaller works better for small datasets) is used here, clamped
    /// to the available points.
    pub degree: usize,
    /// Maximum points in a leaf bucket (`≥ 1`).
    pub leaf_capacity: usize,
    /// Seed for split-point sampling.
    pub seed: u64,
}

impl GnatParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when `degree < 2` or `leaf_capacity == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.degree < 2 {
            return Err(VantageError::invalid_parameter(
                "degree",
                format!("GNAT degree must be at least 2, got {}", self.degree),
            ));
        }
        if self.leaf_capacity == 0 {
            return Err(VantageError::invalid_parameter(
                "leaf_capacity",
                "leaf capacity must be at least 1",
            ));
        }
        Ok(())
    }
}

impl Default for GnatParams {
    fn default() -> Self {
        GnatParams {
            degree: 8,
            leaf_capacity: 4,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Internal {
        /// The split points (item ids), `2 ≤ len ≤ degree`.
        splits: Vec<u32>,
        /// `ranges[i][j] = (min, max)` of `d(splits[i], x)` over all `x`
        /// in dataset `j` **plus the split point `p_j` itself when
        /// `i ≠ j`** — including `p_j` is what lets the iterative
        /// elimination skip computing `d(q, p_j)` entirely when dataset
        /// `j` is ruled out. `ranges[j][j]` covers dataset `j` only and
        /// is inverted (`min > max`) when the dataset is empty.
        ranges: Vec<Vec<(f64, f64)>>,
        children: Vec<Option<NodeId>>,
    },
    Leaf {
        items: Vec<u32>,
    },
}

/// Brin's Geometric Near-neighbor Access Tree.
#[derive(Debug, Clone)]
pub struct Gnat<T, M> {
    items: Vec<T>,
    metric: M,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    params: GnatParams,
}

impl<T, M: Metric<T>> Gnat<T, M> {
    /// Builds a GNAT over `items`.
    ///
    /// Construction is more expensive than a vp-tree (the paper notes
    /// this): every node computes `k` distances per point for assignment
    /// and range maintenance.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn build(items: Vec<T>, metric: M, params: GnatParams) -> Result<Self> {
        params.validate()?;
        let mut tree = Gnat {
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

    fn dist(&self, a: u32, b: u32) -> f64 {
        self.metric
            .distance(&self.items[a as usize], &self.items[b as usize])
    }

    fn build_node(&mut self, ids: Vec<u32>, rng: &mut StdRng) -> Option<NodeId> {
        if ids.is_empty() {
            return None;
        }
        if ids.len() <= self.params.leaf_capacity.max(2) {
            return Some(self.push(Node::Leaf { items: ids }));
        }
        let k = self.params.degree.min(ids.len());
        let split_positions = sample(rng, ids.len(), k);
        let mut is_split = vec![false; ids.len()];
        let splits: Vec<u32> = split_positions
            .iter()
            .map(|pos| {
                is_split[pos] = true;
                ids[pos]
            })
            .collect();

        // Assign every remaining point to its closest split point, and
        // track min/max distance from *every* split point to every
        // dataset.
        let mut datasets: Vec<Vec<u32>> = vec![Vec::new(); k];
        // Inverted sentinel for empty datasets; finite so the structure
        // stays JSON-serializable (JSON has no infinities).
        let mut ranges: Vec<Vec<(f64, f64)>> = vec![vec![(f64::MAX, f64::MIN); k]; k];
        for (pos, &id) in ids.iter().enumerate() {
            if is_split[pos] {
                continue;
            }
            let dists: Vec<f64> = splits.iter().map(|&s| self.dist(s, id)).collect();
            let closest = dists
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("k >= 2 split points");
            datasets[closest].push(id);
            for (i, &d) in dists.iter().enumerate() {
                let (lo, hi) = &mut ranges[i][closest];
                *lo = lo.min(d);
                *hi = hi.max(d);
            }
        }
        // Fold the split points themselves into the cross ranges (i ≠ j)
        // so eliminating dataset j also soundly eliminates p_j.
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                let d = self.dist(splits[i], splits[j]);
                let (lo, hi) = &mut ranges[i][j];
                *lo = lo.min(d);
                *hi = hi.max(d);
            }
        }

        let node_id = self.push(Node::Internal {
            splits,
            ranges,
            children: Vec::new(),
        });
        let children: Vec<Option<NodeId>> = datasets
            .into_iter()
            .map(|set| self.build_node(set, rng))
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
}

impl<T, M: BoundedMetric<T>> Gnat<T, M> {
    /// [`range`](MetricIndex::range) with instrumentation: reports
    /// split-point and candidate distances, every subtree eliminated by
    /// the range tables (with the bound that ruled it out) and per-level
    /// fanout into `sink`. Answers and distance computations are
    /// identical to the untraced method.
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
    /// [`range_traced`](Gnat::range_traced).
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
                splits,
                ranges,
                children,
            } => {
                sink.enter_node(level, false);
                let k = splits.len();
                // Brin's iterative elimination: process live split points
                // one at a time; each computed distance may rule out
                // whole subtrees — split point included, because
                // `ranges[i][j]` covers `p_j` — before their own
                // distances are ever computed.
                let mut alive = vec![true; k];
                let mut split_distance = vec![f64::NAN; k];
                for i in 0..k {
                    if !alive[i] {
                        continue;
                    }
                    sink.distance(DistanceRole::Vantage);
                    let d = self.metric.distance(query, &self.items[splits[i] as usize]);
                    split_distance[i] = d;
                    if d <= radius {
                        out.push(Neighbor::new(splits[i] as usize, d));
                    }
                    for (j, alive_j) in alive.iter_mut().enumerate() {
                        if !*alive_j || j == i {
                            continue;
                        }
                        let (lo, hi) = ranges[i][j];
                        if d - radius > hi || d + radius < lo {
                            *alive_j = false;
                            if S::ENABLED && children[j].is_some() {
                                sink.prune(
                                    level + 1,
                                    PruneReason::DistanceTable,
                                    (d - hi).max(lo - d),
                                );
                            }
                        }
                    }
                }
                // Descend into surviving children, additionally checking
                // each child's own dataset range.
                for (j, child) in children.iter().enumerate() {
                    if !alive[j] {
                        continue;
                    }
                    let Some(child) = child else { continue };
                    let d = split_distance[j];
                    debug_assert!(!d.is_nan(), "alive split has a distance");
                    let (lo, hi) = ranges[j][j];
                    if d - radius > hi || d + radius < lo {
                        if S::ENABLED {
                            sink.prune(level + 1, PruneReason::DistanceTable, (d - hi).max(lo - d));
                        }
                        continue;
                    }
                    self.range_node(*child, query, radius, level + 1, sink, out);
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
                    // `offer` only admits strictly closer candidates, so a
                    // candidate abandoned at the current radius could never
                    // have been accepted; skipping it is bit-identical.
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
                splits,
                ranges,
                children,
            } => {
                sink.enter_node(level, false);
                let k = splits.len();
                let mut split_distance = Vec::with_capacity(k);
                for &s in splits {
                    sink.distance(DistanceRole::Vantage);
                    let d = self.metric.distance(query, &self.items[s as usize]);
                    collector.offer(s as usize, d);
                    split_distance.push(d);
                }
                // Lower bound for child j: the tightest over all split
                // points' recorded ranges.
                let mut order: Vec<(f64, NodeId)> = Vec::new();
                for (j, child) in children.iter().enumerate() {
                    let Some(child) = child else { continue };
                    let mut bound = 0.0f64;
                    for i in 0..k {
                        let (lo, hi) = ranges[i][j];
                        if lo > hi {
                            continue; // empty dataset, unreachable child
                        }
                        bound = bound
                            .max(split_distance[i] - hi)
                            .max(lo - split_distance[i]);
                    }
                    order.push((bound, *child));
                }
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                let mut abandoned = None;
                for (pos, &(bound, child)) in order.iter().enumerate() {
                    if bound > collector.radius() {
                        abandoned = Some(pos);
                        break;
                    }
                    self.knn_node(child, query, level + 1, collector, sink);
                }
                if S::ENABLED {
                    if let Some(pos) = abandoned {
                        for &(bound, _) in &order[pos..] {
                            sink.prune(level + 1, PruneReason::DistanceTable, bound);
                        }
                    }
                }
            }
        }
    }
}

impl<T, M: BoundedMetric<T>> MetricIndex<T> for Gnat<T, M> {
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
        for degree in [2, 4, 8] {
            let params = GnatParams {
                degree,
                ..GnatParams::default()
            };
            let t = Gnat::build(grid(), Euclidean, params).unwrap();
            for (q, r) in [
                (vec![5.0, 5.0], 2.0),
                (vec![0.0, 0.0], 5.0),
                (vec![11.5, 11.5], 1.0),
                (vec![6.0, 6.0], 0.0),
            ] {
                assert_eq!(
                    ids(t.range(&q, r)),
                    ids(o.range(&q, r)),
                    "degree={degree} q={q:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = Gnat::build(grid(), Euclidean, GnatParams::default()).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 6, 60, 144, 200] {
            let a = t.knn(&vec![7.3, 2.8], k);
            let b = o.knn(&vec![7.3, 2.8], k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.distance - y.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_tiny_duplicate_datasets() {
        for n in 0..5 {
            let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i)]).collect();
            let t = Gnat::build(pts, Euclidean, GnatParams::default()).unwrap();
            assert_eq!(t.range(&vec![0.0], 100.0).len(), n as usize);
        }
        let dup = Gnat::build(vec![vec![1.0]; 40], Euclidean, GnatParams::default()).unwrap();
        assert_eq!(dup.range(&vec![1.0], 0.0).len(), 40);
    }

    #[test]
    fn prunes_distance_computations() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let t = Gnat::build(grid(), metric, GnatParams::default()).unwrap();
        probe.reset();
        t.range(&vec![3.0, 3.0], 1.0);
        assert!(probe.count() < 144, "used {}", probe.count());
    }

    #[test]
    fn invalid_params_rejected() {
        let bad_degree = GnatParams {
            degree: 1,
            ..GnatParams::default()
        };
        assert!(Gnat::build(grid(), Euclidean, bad_degree).is_err());
        let bad_leaf = GnatParams {
            leaf_capacity: 0,
            ..GnatParams::default()
        };
        assert!(Gnat::build(grid(), Euclidean, bad_leaf).is_err());
    }
}
