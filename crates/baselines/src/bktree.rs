//! The Burkhard–Keller tree \[BK73\].
//!
//! The mvp-tree paper reviews this as the first distance-based structure
//! (§3.2): *"They employ a metric distance function on the key space which
//! always returns discrete values … At the top level, they pick an
//! arbitrary element from the key domain, and group the rest of the keys
//! with respect to their distances to that key. The keys that are of the
//! same distance from that key get into the same group."*
//!
//! Requires a [`DiscreteMetric`]: children are bucketed by exact integer
//! distance. Search at a node with root key `t` recurses only into child
//! buckets `c` with `|d(q, t) − c| ≤ r` — the triangle inequality again.

use vantage_core::trace::{DistanceRole, NoTrace, PruneReason, TraceSink};
use vantage_core::{BoundedMetric, DiscreteMetric, KnnCollector, MetricIndex, Neighbor};

type NodeId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct BkNode {
    item: u32,
    /// Children keyed by exact distance to `item`, sorted by key.
    children: Vec<(u64, NodeId)>,
}

/// A Burkhard–Keller tree over items of type `T` under a discrete metric.
#[derive(Debug, Clone)]
pub struct BkTree<T, M> {
    items: Vec<T>,
    metric: M,
    nodes: Vec<BkNode>,
    root: Option<NodeId>,
}

impl<T, M: DiscreteMetric<T>> BkTree<T, M> {
    /// Builds a BK-tree by successive insertion (the structure is
    /// insertion-order dependent, as in the original).
    pub fn build(items: Vec<T>, metric: M) -> Self {
        let mut tree = BkTree {
            items,
            metric,
            nodes: Vec::new(),
            root: None,
        };
        for id in 0..tree.items.len() as u32 {
            tree.insert_id(id);
        }
        tree
    }

    fn insert_id(&mut self, id: u32) {
        let Some(root) = self.root else {
            self.root = Some(self.push(id));
            return;
        };
        let mut current = root;
        loop {
            let node_item = self.nodes[current as usize].item;
            let d = self
                .metric
                .distance_u(&self.items[node_item as usize], &self.items[id as usize]);
            let pos = self.nodes[current as usize]
                .children
                .binary_search_by_key(&d, |&(key, _)| key);
            match pos {
                Ok(i) => current = self.nodes[current as usize].children[i].1,
                Err(i) => {
                    let child = self.push(id);
                    self.nodes[current as usize].children.insert(i, (d, child));
                    return;
                }
            }
        }
    }

    fn push(&mut self, item: u32) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(BkNode {
            item,
            children: Vec::new(),
        });
        id
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// All indexed items, in insertion order.
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

impl<T, M: DiscreteMetric<T> + BoundedMetric<T>> BkTree<T, M> {
    /// [`range`](MetricIndex::range) with instrumentation: reports every
    /// node distance (role [`DistanceRole::Vantage`], since each BK-tree
    /// node routes by its own exact distance), every child bucket skipped
    /// by the discrete triangle filter (as a
    /// [`PruneReason::DistanceTable`] prune with the bound `|d − key|`),
    /// and per-level fanout into `sink`. Answers and distance
    /// computations are identical to the untraced method.
    pub fn range_traced<S: TraceSink>(
        &self,
        query: &T,
        radius: f64,
        sink: &mut S,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            let r = if radius < 0.0 {
                return out;
            } else {
                radius.floor() as u64
            };
            self.range_node(root, query, r, 0, sink, &mut out);
        }
        out
    }

    /// [`knn`](MetricIndex::knn) with instrumentation; see
    /// [`range_traced`](BkTree::range_traced).
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
        radius: u64,
        level: u32,
        sink: &mut S,
        out: &mut Vec<Neighbor>,
    ) {
        let n = &self.nodes[node as usize];
        sink.enter_node(level, n.children.is_empty());
        sink.distance(DistanceRole::Vantage);
        if n.children.is_empty() {
            // A childless node's distance routes no traversal — it is a
            // pure candidate check, so the bounded kernel applies.
            match self.metric.distance_within_frac(
                query,
                &self.items[n.item as usize],
                radius as f64,
            ) {
                (Some(d), _) => out.push(Neighbor::new(n.item as usize, d)),
                (None, work) => {
                    sink.abandon(DistanceRole::Vantage, work);
                }
            }
            return;
        }
        let d = self.metric.distance_u(query, &self.items[n.item as usize]);
        if d <= radius {
            out.push(Neighbor::new(n.item as usize, d as f64));
        }
        let lo = d.saturating_sub(radius);
        let hi = d.saturating_add(radius);
        let start = n.children.partition_point(|&(key, _)| key < lo);
        if S::ENABLED {
            for &(key, _) in &n.children[..start] {
                sink.prune(
                    level + 1,
                    PruneReason::DistanceTable,
                    d.abs_diff(key) as f64,
                );
            }
        }
        for (pos, &(key, child)) in n.children[start..].iter().enumerate() {
            if key > hi {
                if S::ENABLED {
                    for &(far_key, _) in &n.children[start + pos..] {
                        sink.prune(
                            level + 1,
                            PruneReason::DistanceTable,
                            d.abs_diff(far_key) as f64,
                        );
                    }
                }
                break;
            }
            self.range_node(child, query, radius, level + 1, sink, out);
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
        let n = &self.nodes[node as usize];
        sink.enter_node(level, n.children.is_empty());
        sink.distance(DistanceRole::Vantage);
        if n.children.is_empty() {
            // `offer` only admits strictly closer candidates, so a
            // candidate abandoned at the current radius could never have
            // been accepted; skipping it is bit-identical.
            match self.metric.distance_within_frac(
                query,
                &self.items[n.item as usize],
                collector.radius(),
            ) {
                (Some(d), _) => {
                    collector.offer(n.item as usize, d);
                }
                (None, work) => {
                    sink.abandon(DistanceRole::Vantage, work);
                }
            }
            return;
        }
        let d = self.metric.distance_u(query, &self.items[n.item as usize]);
        collector.offer(n.item as usize, d as f64);
        // Visit children in order of |key − d| (best lower bound first).
        let mut order: Vec<(u64, NodeId)> = n
            .children
            .iter()
            .map(|&(key, child)| (key.abs_diff(d), child))
            .collect();
        order.sort_unstable();
        let mut abandoned = None;
        for (pos, &(bound, child)) in order.iter().enumerate() {
            if (bound as f64) > collector.radius() {
                abandoned = Some(pos);
                break;
            }
            self.knn_node(child, query, level + 1, collector, sink);
        }
        if S::ENABLED {
            if let Some(pos) = abandoned {
                for &(bound, _) in &order[pos..] {
                    sink.prune(level + 1, PruneReason::DistanceTable, bound as f64);
                }
            }
        }
    }
}

impl<T, M: DiscreteMetric<T> + BoundedMetric<T>> MetricIndex<T> for BkTree<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    /// Range search. Non-integral radii are meaningful for a discrete
    /// metric only through their floor, which is what the triangle filter
    /// uses; results still honor the exact `d ≤ radius` predicate.
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

    fn words() -> Vec<String> {
        [
            "book", "books", "cake", "boo", "boon", "cook", "cape", "cart", "back", "bake",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    fn tree() -> BkTree<String, Levenshtein> {
        BkTree::build(words(), Levenshtein)
    }

    fn oracle() -> LinearScan<String, Levenshtein> {
        LinearScan::new(words(), Levenshtein)
    }

    fn ids(mut v: Vec<Neighbor>) -> Vec<usize> {
        v.sort_unstable_by_key(|n| n.id);
        v.into_iter().map(|n| n.id).collect()
    }

    #[test]
    fn range_matches_linear_scan() {
        let t = tree();
        let o = oracle();
        for r in 0..5 {
            let q = "bool".to_string();
            assert_eq!(
                ids(t.range(&q, f64::from(r))),
                ids(o.range(&q, f64::from(r)))
            );
        }
    }

    #[test]
    fn exact_match_at_radius_zero() {
        let hits = tree().range(&"cake".to_string(), 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = tree();
        let o = oracle();
        for k in [1, 3, 10, 20] {
            let a = t.knn(&"bok".to_string(), k);
            let b = o.knn(&"bok".to_string(), k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.distance, y.distance);
            }
        }
    }

    #[test]
    fn duplicates_chain_at_distance_zero() {
        let t = BkTree::build(vec!["same".to_string(); 7], Levenshtein);
        assert_eq!(t.range(&"same".to_string(), 0.0).len(), 7);
        assert_eq!(t.knn(&"same".to_string(), 7).len(), 7);
    }

    #[test]
    fn empty_tree() {
        let t: BkTree<String, Levenshtein> = BkTree::build(vec![], Levenshtein);
        assert!(t.is_empty());
        assert!(t.range(&"x".to_string(), 5.0).is_empty());
        assert!(t.knn(&"x".to_string(), 3).is_empty());
    }

    #[test]
    fn search_prunes_distance_computations() {
        let many: Vec<String> = (0..200)
            .map(|i| format!("{:08b}", i)) // 8-char binary strings
            .collect();
        let metric = Counted::new(Hamming);
        let probe = metric.clone();
        let t = BkTree::build(many, metric);
        probe.reset();
        t.range(&"00000000".to_string(), 1.0);
        assert!(
            probe.count() < 200,
            "no pruning happened: {}",
            probe.count()
        );
    }

    #[test]
    fn negative_radius_is_empty() {
        assert!(tree().range(&"book".to_string(), -1.0).is_empty());
    }
}
