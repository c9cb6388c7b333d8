//! Scatter-gather participation: mvp-trees as shards of a
//! [`ShardedIndex`](vantage_core::shard::ShardedIndex).
//!
//! A shard answers range and beyond queries through its [`Search`]
//! impl. `knn_shared` / `kfn_shared` run the exact same traversals as
//! its kNN / kFN search, only through a collector wired to the
//! group-shared bound — the shared value changes *which subtrees get
//! pruned*, never the answer. Every search reports into the caller's
//! sink.
//!
//! [`Search`]: vantage_core::Search

use std::sync::Arc;

use vantage_core::farthest::KfnCollector;
use vantage_core::shard::{ShardSearch, SharedLowerBound, SharedUpperBound};
use vantage_core::trace::TraceSink;
use vantage_core::{BoundedMetric, KnnCollector, Neighbor, RowStore};

use crate::tree::MvpTree;

impl<T, M, S> ShardSearch<S::Item> for MvpTree<T, M, S>
where
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn knn_shared<Sink: TraceSink>(
        &self,
        query: &S::Item,
        k: usize,
        shared: Arc<SharedUpperBound>,
        sink: &mut Sink,
    ) -> Vec<Neighbor> {
        let mut collector = KnnCollector::with_shared(k, shared);
        self.as_view().kernel(query).knn_into(&mut collector, sink);
        collector.into_sorted()
    }

    fn kfn_shared<Sink: TraceSink>(
        &self,
        query: &S::Item,
        k: usize,
        shared: Arc<SharedLowerBound>,
        sink: &mut Sink,
    ) -> Vec<Neighbor> {
        let mut collector = KfnCollector::with_shared(k, shared);
        self.as_view().kernel(query).kfn_into(&mut collector, sink);
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use crate::params::MvpParams;
    use crate::tree::MvpTree;
    use vantage_core::prelude::*;
    use vantage_core::shard::ShardedIndex;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..12 {
            for y in 0..12 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    #[test]
    fn sharded_mvp_trees_match_linear_scan() {
        let oracle = LinearScan::new(grid(), Euclidean);
        let q = vec![5.5, 5.5];
        for shards in [1, 2, 3, 7] {
            let idx = ShardedIndex::build(grid(), shards, Threads::Fixed(4), |s, part| {
                MvpTree::build(part, Euclidean, MvpParams::paper(3, 9, 5).seed(s as u64))
            })
            .unwrap();
            for k in [1, 4, 10, 144, 200] {
                assert_eq!(idx.knn(&q, k), oracle.knn(&q, k), "shards={shards} k={k}");
                assert_eq!(
                    idx.k_farthest(&q, k),
                    oracle.k_farthest(&q, k),
                    "shards={shards} k={k}"
                );
            }
            assert_eq!(idx.range(&q, 3.0), oracle.range(&q, 3.0), "shards={shards}");
            assert_eq!(
                idx.range_beyond(&q, 6.0),
                oracle.range_beyond(&q, 6.0),
                "shards={shards}"
            );
        }
    }
}
