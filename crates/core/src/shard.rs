//! Sharded scatter-gather execution of metric queries.
//!
//! In genuinely high-dimensional metric spaces, exact tree search
//! degenerates toward linear scan (Pestov's lower bounds; see
//! `PAPERS.md`), so past some intrinsic dimension the only wall-clock
//! lever left is parallelism. [`ShardedIndex`] partitions a dataset
//! **round-robin** across `S` sub-indexes and answers range / kNN /
//! farthest queries scatter-gather: every shard searches its subset, and
//! the merged answer is **bit-identical** to the same query on a single
//! unsharded index over the whole dataset.
//!
//! Two mechanisms make that identity hold:
//!
//! * **Canonical tie-breaking.** Every collector in the workspace
//!   ([`KnnCollector`], [`KfnCollector`]) resolves equal
//!   distances toward the smaller id, so each index — sharded or not —
//!   returns *the* `(distance, id)`-lexicographic top `k`, and a merge of
//!   per-shard answers re-sorted under the same order is exactly the
//!   unsharded answer.
//! * **A shared atomic bound.** For kNN the shards share a
//!   [`SharedUpperBound`]: each shard publishes its local k-th best
//!   distance as it improves, and prunes against the minimum published by
//!   any shard. Any shard's k-th best over a *subset* of the data is ≥
//!   the global k-th distance, so the shared value is always a valid
//!   upper bound and pruning against it never discards a true answer —
//!   under any thread interleaving. [`SharedLowerBound`] mirrors this for
//!   k-farthest. The bound changes *which computations are pruned*, never
//!   the answer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::budget::{BudgetedKnn, BudgetedSearch, SearchBudget};
use crate::error::{Result, VantageError};
use crate::farthest::{FarthestIndex, KfnCollector};
use crate::index::MetricIndex;
use crate::knn::KnnCollector;
use crate::linear::LinearScan;
use crate::metric::BoundedMetric;
use crate::parallel::{fork_join, Threads};
use crate::query::Neighbor;

/// A monotonically *decreasing* `f64` shared across threads — the kNN
/// pruning radius published by whichever shard currently holds the
/// tightest k-th best distance.
///
/// Stored as `AtomicU64` over the IEEE-754 bit pattern; updates go
/// through a compare-exchange loop that keeps the minimum, so the value
/// only ever tightens. `Relaxed` ordering suffices: the bound is a
/// single self-contained scalar used as a performance hint — no other
/// memory is published through it, and a stale read merely delays a
/// prune.
#[derive(Debug)]
pub struct SharedUpperBound(AtomicU64);

impl SharedUpperBound {
    /// Starts at `+∞` (nothing collected anywhere yet).
    pub fn new() -> Self {
        SharedUpperBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Current bound.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the bound to `candidate` if it is strictly tighter.
    /// Returns `true` if this call changed the value. `NaN` candidates
    /// are ignored.
    pub fn tighten(&self, candidate: f64) -> bool {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            // Strict `Less` only: equal, greater, and NaN all bail out.
            let cmp = candidate.partial_cmp(&f64::from_bits(current));
            if cmp != Some(std::cmp::Ordering::Less) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                candidate.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }
}

impl Default for SharedUpperBound {
    fn default() -> Self {
        Self::new()
    }
}

/// A monotonically *increasing* `f64` shared across threads — the
/// k-farthest pruning threshold. Mirror image of [`SharedUpperBound`]:
/// starts at `-∞` and only ever rises.
#[derive(Debug)]
pub struct SharedLowerBound(AtomicU64);

impl SharedLowerBound {
    /// Starts at `-∞`.
    pub fn new() -> Self {
        SharedLowerBound(AtomicU64::new(f64::NEG_INFINITY.to_bits()))
    }

    /// Current bound.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Raises the bound to `candidate` if it is strictly tighter.
    /// Returns `true` if this call changed the value. `NaN` candidates
    /// are ignored.
    pub fn tighten(&self, candidate: f64) -> bool {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            // Strict `Greater` only: equal, less, and NaN all bail out.
            let cmp = candidate.partial_cmp(&f64::from_bits(current));
            if cmp != Some(std::cmp::Ordering::Greater) {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                candidate.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }
}

impl Default for SharedLowerBound {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-shard query interface [`ShardedIndex`] scatters over.
///
/// Beyond the ordinary exact queries (via the [`MetricIndex`] /
/// [`FarthestIndex`] supertraits), a shard participates in cooperative
/// pruning: `knn_shared` / `kfn_shared` run the same traversal as
/// `knn` / `k_farthest` but through a collector wired to the
/// group-shared bound, so shards tighten each other's radius mid-flight.
pub trait ShardSearch<T>: MetricIndex<T> + FarthestIndex<T> {
    /// [`knn`](MetricIndex::knn) pruning against (and tightening) a
    /// bound shared with the other shards of the same query.
    fn knn_shared(&self, query: &T, k: usize, shared: Arc<SharedUpperBound>) -> Vec<Neighbor>;

    /// [`k_farthest`](FarthestIndex::k_farthest) pruning against (and
    /// tightening) a shared lower bound.
    fn kfn_shared(&self, query: &T, k: usize, shared: Arc<SharedLowerBound>) -> Vec<Neighbor>;
}

impl<T, M: BoundedMetric<T>> ShardSearch<T> for LinearScan<T, M> {
    fn knn_shared(&self, query: &T, k: usize, shared: Arc<SharedUpperBound>) -> Vec<Neighbor> {
        let mut collector = KnnCollector::with_shared(k, shared);
        for (id, item) in self.items().iter().enumerate() {
            if let (Some(d), _) =
                self.metric()
                    .distance_within_frac(query, item, collector.radius())
            {
                collector.offer(id, d);
            }
        }
        collector.into_sorted()
    }

    fn kfn_shared(&self, query: &T, k: usize, shared: Arc<SharedLowerBound>) -> Vec<Neighbor> {
        let mut collector = KfnCollector::with_shared(k, shared);
        for (id, item) in self.items().iter().enumerate() {
            collector.offer(id, self.metric().distance(query, item));
        }
        collector.into_sorted()
    }
}

/// A dataset partitioned round-robin across `S` sub-indexes, queried
/// scatter-gather.
///
/// Object `g` of the original dataset lives in shard `g % S` under local
/// id `g / S`; results are remapped back (`global = local·S + shard`)
/// before merging. Because the round-robin map is monotone in id within
/// each shard, canonical (smaller-id) tie-breaking inside a shard
/// remains canonical after remapping, and the merged answers are
/// bit-identical to an unsharded index over the same data — the
/// differential suites enforce this for every query form.
///
/// Scatter runs one scoped thread per shard via
/// [`fork_join`] unless `threads` resolves
/// to a single worker (or there is a single shard), in which case shards
/// are searched sequentially in shard order — same answers, no threads.
#[derive(Debug, Clone)]
pub struct ShardedIndex<I> {
    shards: Vec<I>,
    len: usize,
    threads: Threads,
}

impl<I> ShardedIndex<I> {
    /// Builds `shards` sub-indexes over a round-robin partition of
    /// `items`, invoking `builder(shard_idx, part)` for each part —
    /// in parallel when `threads` allows.
    ///
    /// Parts may be empty (fewer items than shards); builders must
    /// accept empty inputs. Fails with
    /// [`InvalidParameter`](VantageError::InvalidParameter) when
    /// `shards == 0`.
    pub fn build<T, F>(items: Vec<T>, shards: usize, threads: Threads, builder: F) -> Result<Self>
    where
        T: Send,
        I: Send,
        F: Fn(usize, Vec<T>) -> Result<I> + Sync,
    {
        if shards == 0 {
            return Err(VantageError::invalid_parameter(
                "shards",
                "shard count must be at least 1",
            ));
        }
        let len = items.len();
        let mut parts: Vec<Vec<T>> = (0..shards)
            .map(|s| Vec::with_capacity(len / shards + usize::from(s < len % shards)))
            .collect();
        for (g, item) in items.into_iter().enumerate() {
            parts[g % shards].push(item);
        }
        let built: Vec<Result<I>> = if threads.resolve() <= 1 || shards == 1 {
            parts
                .into_iter()
                .enumerate()
                .map(|(s, part)| builder(s, part))
                .collect()
        } else {
            let builder = &builder;
            fork_join(
                parts
                    .into_iter()
                    .enumerate()
                    .map(|(s, part)| move || builder(s, part))
                    .collect(),
            )
        };
        let shards = built.into_iter().collect::<Result<Vec<I>>>()?;
        Ok(ShardedIndex {
            shards,
            len,
            threads,
        })
    }

    /// Number of shards (`S ≥ 1`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sub-indexes, in shard order.
    pub fn shards(&self) -> &[I] {
        &self.shards
    }

    /// The scatter thread policy.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// Maps a shard-local neighbor back to its global id.
    fn remap(&self, shard: usize, n: Neighbor) -> Neighbor {
        Neighbor::new(n.id * self.shards.len() + shard, n.distance)
    }

    /// Runs `run(shard_idx, shard)` on every shard — one scoped thread
    /// each when the thread policy allows, sequentially otherwise — and
    /// returns per-shard results in shard order.
    fn scatter<R, F>(&self, run: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(usize, &I) -> R + Sync,
    {
        if self.threads.resolve() <= 1 || self.shards.len() <= 1 {
            self.shards
                .iter()
                .enumerate()
                .map(|(s, shard)| run(s, shard))
                .collect()
        } else {
            let run = &run;
            fork_join(
                self.shards
                    .iter()
                    .enumerate()
                    .map(|(s, shard)| move || run(s, shard))
                    .collect(),
            )
        }
    }

    /// Gathers per-shard hit lists into one global-id-sorted answer
    /// (the order [`LinearScan`] produces for range queries).
    fn gather_by_id(&self, per_shard: Vec<Vec<Neighbor>>) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(s, hits)| hits.into_iter().map(move |n| (s, n)))
            .map(|(s, n)| self.remap(s, n))
            .collect();
        all.sort_unstable_by_key(|n| n.id);
        all
    }
}

impl<T: Sync, I: ShardSearch<T> + Sync> MetricIndex<T> for ShardedIndex<I> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, id: usize) -> Option<&T> {
        if id >= self.len {
            return None;
        }
        let s = self.shards.len();
        self.shards[id % s].get(id / s)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.gather_by_id(self.scatter(|_, shard| shard.range(query, radius)))
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        let shared = Arc::new(SharedUpperBound::new());
        let per_shard = self.scatter(|_, shard| shard.knn_shared(query, k, Arc::clone(&shared)));
        let mut all: Vec<Neighbor> = per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(s, hits)| hits.into_iter().map(move |n| (s, n)))
            .map(|(s, n)| self.remap(s, n))
            .collect();
        // Canonical (distance, id) order: the merge of per-shard top-k
        // truncated to k is exactly the global top-k.
        all.sort_unstable();
        all.truncate(k);
        all
    }
}

impl<T: Sync, I: ShardSearch<T> + Sync> FarthestIndex<T> for ShardedIndex<I> {
    fn range_beyond(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.gather_by_id(self.scatter(|_, shard| shard.range_beyond(query, radius)))
    }

    fn k_farthest(&self, query: &T, k: usize) -> Vec<Neighbor> {
        let shared = Arc::new(SharedLowerBound::new());
        let per_shard = self.scatter(|_, shard| shard.kfn_shared(query, k, Arc::clone(&shared)));
        let mut all: Vec<Neighbor> = per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(s, hits)| hits.into_iter().map(move |n| (s, n)))
            .map(|(s, n)| self.remap(s, n))
            .collect();
        all.sort_unstable_by(|a, b| {
            b.distance
                .total_cmp(&a.distance)
                .then_with(|| a.id.cmp(&b.id))
        });
        all.truncate(k);
        all
    }
}

impl<T: Sync, I: ShardSearch<T> + BudgetedSearch<T> + Sync> BudgetedSearch<T> for ShardedIndex<I> {
    /// Splits the budget evenly across shards (remainder to the lowest
    /// shard indexes, deterministically) and merges best-effort answers.
    ///
    /// No bound is shared between shards here: budgeted pruning depends
    /// on *which* computations were already spent, so a racy shared
    /// radius would make results timing-dependent. Budgeted sharded
    /// queries trade a little pruning for determinism.
    ///
    /// The merged recall estimate is the shard-size-weighted mean of the
    /// per-shard estimates: under round-robin partitioning each true
    /// global neighbor lands in shard `s` with probability
    /// `len_s / n`, and shard `s` finds the true neighbors it owns with
    /// estimated probability `est_s`.
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
        let s = self.shards.len();
        let per_shard_budget = |idx: usize| -> SearchBudget {
            if budget.is_unlimited() {
                SearchBudget::UNLIMITED
            } else {
                let total = budget.max_distances();
                let share = total / s as u64 + u64::from((idx as u64) < total % s as u64);
                SearchBudget::limited(share)
            }
        };
        let per_shard =
            self.scatter(|idx, shard| shard.knn_budgeted(query, k, per_shard_budget(idx)));
        let mut all: Vec<Neighbor> = Vec::new();
        let mut estimated_recall = 0.0;
        let mut exhausted = false;
        let mut spent = 0u64;
        for (idx, out) in per_shard.into_iter().enumerate() {
            let weight = if self.len == 0 {
                0.0
            } else {
                self.shards[idx].len() as f64 / self.len as f64
            };
            estimated_recall += weight * out.estimated_recall;
            exhausted |= out.exhausted;
            spent += out.spent;
            all.extend(out.neighbors.into_iter().map(|n| self.remap(idx, n)));
        }
        // No shard ran out → every shard's answer is exact, and so is
        // the merge: report exactly 1.0 rather than the weighted sum,
        // whose float accumulation can land a few ulps under it.
        if !exhausted || self.len == 0 || k == 0 {
            estimated_recall = 1.0;
        }
        all.sort_unstable();
        all.truncate(k);
        BudgetedKnn {
            neighbors: all,
            estimated_recall: estimated_recall.clamp(0.0, 1.0),
            exhausted,
            spent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    type Scan = LinearScan<Vec<f64>, Euclidean>;

    fn sharded(items: Vec<Vec<f64>>, shards: usize, threads: Threads) -> ShardedIndex<Scan> {
        ShardedIndex::build(items, shards, threads, |_, part| {
            Ok(LinearScan::new(part, Euclidean))
        })
        .expect("build")
    }

    fn dataset(n: usize) -> Vec<Vec<f64>> {
        // Plenty of exact ties: values repeat every 5 ids.
        (0..n).map(|i| vec![(i % 5) as f64]).collect()
    }

    #[test]
    fn upper_bound_only_tightens() {
        let b = SharedUpperBound::new();
        assert_eq!(b.get(), f64::INFINITY);
        assert!(b.tighten(5.0));
        assert!(!b.tighten(7.0));
        assert_eq!(b.get(), 5.0);
        assert!(b.tighten(2.0));
        assert_eq!(b.get(), 2.0);
        assert!(!b.tighten(f64::NAN));
        assert_eq!(b.get(), 2.0);
    }

    #[test]
    fn lower_bound_only_rises() {
        let b = SharedLowerBound::new();
        assert_eq!(b.get(), f64::NEG_INFINITY);
        assert!(b.tighten(1.0));
        assert!(!b.tighten(0.5));
        assert!(b.tighten(3.0));
        assert_eq!(b.get(), 3.0);
        assert!(!b.tighten(f64::NAN));
        assert_eq!(b.get(), 3.0);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let err = ShardedIndex::<Scan>::build(dataset(4), 0, Threads::SEQUENTIAL, |_, part| {
            Ok(LinearScan::new(part, Euclidean))
        })
        .unwrap_err();
        assert!(matches!(err, VantageError::InvalidParameter { .. }));
    }

    #[test]
    fn get_follows_the_round_robin_map() {
        let items = dataset(11);
        for s in [1, 2, 3, 7] {
            let idx = sharded(items.clone(), s, Threads::SEQUENTIAL);
            assert_eq!(idx.len(), 11);
            assert_eq!(idx.shard_count(), s);
            for (g, item) in items.iter().enumerate() {
                assert_eq!(idx.get(g), Some(item), "shards={s} id={g}");
            }
            assert_eq!(idx.get(11), None);
        }
    }

    #[test]
    fn queries_match_unsharded_for_every_shard_count() {
        let items = dataset(23);
        let oracle: Scan = LinearScan::new(items.clone(), Euclidean);
        let q = vec![1.6];
        for s in [1, 2, 3, 7] {
            for threads in [Threads::SEQUENTIAL, Threads::Fixed(4)] {
                let idx = sharded(items.clone(), s, threads);
                assert_eq!(idx.range(&q, 1.0), oracle.range(&q, 1.0), "shards={s}");
                for k in [0, 1, 4, 23, 50] {
                    assert_eq!(idx.knn(&q, k), oracle.knn(&q, k), "shards={s} k={k}");
                    assert_eq!(
                        idx.k_farthest(&q, k),
                        oracle.k_farthest(&q, k),
                        "shards={s} k={k}"
                    );
                }
                assert_eq!(
                    idx.range_beyond(&q, 1.5),
                    oracle.range_beyond(&q, 1.5),
                    "shards={s}"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_shards() {
        // 2 items over 7 shards: five shards are empty.
        let items = dataset(2);
        let oracle: Scan = LinearScan::new(items.clone(), Euclidean);
        let idx = sharded(items, 7, Threads::Fixed(4));
        let q = vec![0.4];
        assert_eq!(idx.knn(&q, 5), oracle.knn(&q, 5));
        assert_eq!(idx.k_farthest(&q, 5), oracle.k_farthest(&q, 5));
        assert_eq!(idx.range(&q, 10.0), oracle.range(&q, 10.0));

        let empty = sharded(Vec::new(), 3, Threads::SEQUENTIAL);
        assert!(empty.is_empty());
        assert!(empty.knn(&q, 3).is_empty());
        assert!(empty.k_farthest(&q, 3).is_empty());
        assert!(empty.range(&q, 1.0).is_empty());
    }

    #[test]
    fn unlimited_budget_matches_exact_knn() {
        let items = dataset(23);
        let idx = sharded(items, 3, Threads::SEQUENTIAL);
        let q = vec![2.2];
        let out = idx.knn_budgeted(&q, 6, SearchBudget::UNLIMITED);
        assert_eq!(out.neighbors, idx.knn(&q, 6));
        assert_eq!(out.estimated_recall, 1.0);
        assert!(!out.exhausted);
        assert_eq!(out.spent, 23);
    }

    #[test]
    fn budget_split_is_deterministic_and_covers_remainders() {
        let items = dataset(20);
        let idx = sharded(items, 3, Threads::Fixed(4));
        let q = vec![2.2];
        // 10 = 4 + 3 + 3 across the three shards.
        let a = idx.knn_budgeted(&q, 4, SearchBudget::limited(10));
        let b = idx.knn_budgeted(&q, 4, SearchBudget::limited(10));
        assert_eq!(a, b);
        assert!(a.exhausted);
        assert_eq!(a.spent, 10);
        assert!(a.estimated_recall < 1.0);
        assert!(a.estimated_recall > 0.0);
    }
}
