//! A concurrently readable dynamic mvp-tree:
//! [`DynamicMvpTree`](crate::dynamic::DynamicMvpTree)'s
//! amortized-rebuild strategy folded behind the RCU-style
//! [`SwapCell`], so sustained ingest and
//! heavy concurrent reads coexist without readers ever blocking.
//!
//! [`DynamicMvpTree`](crate::dynamic::DynamicMvpTree) is single-threaded:
//! `insert`/`remove` take `&mut self`, and an insert that trips the
//! rebuild threshold stalls every caller behind the rebuild.
//! [`ConcurrentMvpTree`] keeps the exact same amortized-rebuilding
//! policy (overflow buffer, tombstones, rebuild at ¼ overflow or ½ dead)
//! but splits the structure into:
//!
//! * a **write side** behind a `Mutex` — the authority store, tombstone
//!   set and overflow ledger. Writers serialize with each other; a
//!   rebuild runs on the writing thread while readers continue on the
//!   published generation.
//! * a **read side** published through a `SwapCell`: an immutable
//!   [`MvpReadSnapshot`] sharing the expensive static tree via `Arc` so
//!   publishing after a small write is cheap (the overflow vector is
//!   copied; the tree and id map are not).
//!
//! Every write publishes a new generation, so a reader that pins a
//! snapshot gets a point-in-time view: queries against one guard are
//! internally consistent even while writers churn, and the generation a
//! rebuild displaces is reclaimed only after its last reader exits —
//! the drain guarantee the serving layer's `reload` command relies on.

use std::collections::HashSet;
use std::sync::Arc;

use vantage_core::swap::{Retired, SwapCell, SwapGuard};
use vantage_core::{
    BoundedMetric, DistanceRole, KfnCollector, KnnCollector, Neighbor, NoTrace, Result, TraceSink,
};

use crate::params::MvpParams;
use crate::tree::MvpTree;

/// Minimum overflow-buffer size before a rebuild is considered (matches
/// [`DynamicMvpTree`](crate::dynamic::DynamicMvpTree)).
const MIN_REBUILD_BUFFER: usize = 32;

/// The mutable authority state, guarded by the writer mutex.
#[derive(Debug)]
struct WriteSide<T, M> {
    /// Stable id → item. Never shrinks.
    store: Vec<T>,
    /// Stable ids that have been removed.
    tombstones: HashSet<usize>,
    /// Copy-on-write mirror of `tombstones` shared with published
    /// snapshots; refreshed only when a tombstone is added.
    published_tombstones: Arc<HashSet<usize>>,
    /// Stable ids not yet in the tree (scanned exhaustively by readers).
    overflow: Vec<usize>,
    /// The currently published static tree, shared with snapshots.
    tree: Option<Arc<MvpTree<T, M>>>,
    /// The published tree's internal id → stable id map.
    tree_ids: Arc<Vec<usize>>,
    /// Tombstoned ids still inside the published tree.
    tree_dead: usize,
    /// Bumped every rebuild so vantage-point randomization varies.
    epoch: u64,
}

/// An immutable point-in-time view of the tree, published as one swap
/// generation. Shares the static tree and id map by `Arc`; owns only the
/// (small, threshold-bounded) overflow entries.
#[derive(Debug)]
pub struct MvpReadSnapshot<T, M> {
    metric: M,
    tree: Option<Arc<MvpTree<T, M>>>,
    tree_ids: Arc<Vec<usize>>,
    tombstones: Arc<HashSet<usize>>,
    tree_dead: usize,
    overflow: Vec<(usize, T)>,
    live: usize,
}

impl<T, M: BoundedMetric<T>> MvpReadSnapshot<T, M> {
    /// Number of live items visible to this snapshot.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether this snapshot sees no live items.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// All items within `radius` of `query` (stable ids), exactly as
    /// [`DynamicMvpTree::range`](crate::dynamic::DynamicMvpTree::range)
    /// would answer over the same live set. Every distance the search
    /// computes is reported to `sink`: the tree's descent through
    /// [`MvpTree::range_traced`], then one leaf-candidate evaluation per
    /// overflow entry (and its early abandon, if any), so a
    /// [`DistanceTally`](vantage_core::DistanceTally) reads this query's
    /// exact cost whatever runs concurrently.
    pub fn range<S: TraceSink>(&self, query: &T, radius: f64, sink: &mut S) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if let Some(tree) = &self.tree {
            for n in tree.range_traced(query, radius, sink) {
                let stable = self.tree_ids[n.id];
                if !self.tombstones.contains(&stable) {
                    out.push(Neighbor::new(stable, n.distance));
                }
            }
        }
        for (id, item) in &self.overflow {
            if let Some(d) = candidate(&self.metric, query, item, radius, sink) {
                out.push(Neighbor::new(*id, d));
            }
        }
        out
    }

    /// The `k` nearest live items (stable ids), sorted by distance;
    /// distances are reported to `sink` as in [`range`](Self::range).
    /// `k = 0` computes nothing, tombstones and overflow included.
    pub fn knn<S: TraceSink>(&self, query: &T, k: usize, sink: &mut S) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut collector = KnnCollector::new(k);
        if let Some(tree) = &self.tree {
            // Over-fetch to survive tombstoned results: at most
            // `tree_dead` of the tree's answers can be dead.
            for n in tree.knn_traced(query, k.saturating_add(self.tree_dead), sink) {
                let stable = self.tree_ids[n.id];
                if !self.tombstones.contains(&stable) {
                    collector.offer(stable, n.distance);
                }
            }
        }
        for (id, item) in &self.overflow {
            if let Some(d) = candidate(&self.metric, query, item, collector.radius(), sink) {
                collector.offer(*id, d);
            }
        }
        collector.into_sorted()
    }

    /// Every live item at distance **at least** `radius` from `query`
    /// (the far-neighbor complement of [`range`](Self::range)). Answered
    /// by exhaustive scan over the live set, one leaf-candidate distance
    /// reported to `sink` per item: far-neighbor pruning needs the
    /// static tree's shell bounds, which the churn-era overflow entries
    /// lack, so correctness wins over pruning here.
    pub fn range_beyond<S: TraceSink>(
        &self,
        query: &T,
        radius: f64,
        sink: &mut S,
    ) -> Vec<Neighbor> {
        self.live_items()
            .filter_map(|(id, item)| {
                sink.distance(DistanceRole::Candidate);
                let d = self.metric.distance(query, item);
                (d >= radius).then_some(Neighbor::new(id, d))
            })
            .collect()
    }

    /// The `k` live items farthest from `query`, sorted by descending
    /// distance (exhaustive, like [`range_beyond`](Self::range_beyond)).
    pub fn k_farthest<S: TraceSink>(&self, query: &T, k: usize, sink: &mut S) -> Vec<Neighbor> {
        let mut collector = KfnCollector::new(k);
        for (id, item) in self.live_items() {
            sink.distance(DistanceRole::Candidate);
            collector.offer(id, self.metric.distance(query, item));
        }
        collector.into_sorted()
    }

    /// Iterates over every `(stable id, item)` pair visible to this
    /// snapshot — the exact population queries answer over. Order is
    /// unspecified.
    pub fn live_items(&self) -> impl Iterator<Item = (usize, &T)> {
        let tree_items = self
            .tree
            .iter()
            .flat_map(move |tree| tree.items_by_id().enumerate())
            .filter_map(move |(internal, item)| {
                let stable = self.tree_ids[internal];
                (!self.tombstones.contains(&stable)).then_some((stable, item))
            });
        tree_items.chain(self.overflow.iter().map(|(id, item)| (*id, item)))
    }
}

/// One overflow entry checked against `bound` through the bounded
/// kernel, reported to `sink` as one leaf-candidate evaluation (and an
/// abandon when the kernel cuts it short), as a linear scan reports it.
fn candidate<T, M: BoundedMetric<T>, S: TraceSink>(
    metric: &M,
    query: &T,
    item: &T,
    bound: f64,
    sink: &mut S,
) -> Option<f64> {
    sink.distance(DistanceRole::Candidate);
    let (d, work) = metric.distance_within_frac(query, item, bound);
    if d.is_none() {
        sink.abandon(DistanceRole::Candidate, work);
    }
    d
}

/// A shared, concurrently readable dynamic mvp-tree.
///
/// All methods take `&self`: share the structure across threads with an
/// `Arc` and call [`insert`](Self::insert)/[`remove`](Self::remove) from
/// writers while readers run [`range`](Self::range)/[`knn`](Self::knn)
/// (or pin a [`MvpReadSnapshot`] via [`read`](Self::read) for multi-query
/// consistency). Rebuilds happen on the writing thread and are published
/// atomically — readers are never blocked and never observe a partially
/// rebuilt tree.
#[derive(Debug)]
pub struct ConcurrentMvpTree<T, M> {
    params: MvpParams,
    metric: M,
    write: std::sync::Mutex<WriteSide<T, M>>,
    cell: SwapCell<MvpReadSnapshot<T, M>>,
}

impl<T, M> ConcurrentMvpTree<T, M>
where
    T: Clone + Sync,
    M: BoundedMetric<T> + Clone + Sync,
{
    /// Creates an empty tree.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn new(metric: M, params: MvpParams) -> Result<Self> {
        ConcurrentMvpTree::with_items(Vec::new(), metric, params)
    }

    /// Bulk-loads an initial dataset (stable ids `0..items.len()`).
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn with_items(items: Vec<T>, metric: M, params: MvpParams) -> Result<Self> {
        params.validate()?;
        let mut write = WriteSide {
            store: items,
            tombstones: HashSet::new(),
            published_tombstones: Arc::new(HashSet::new()),
            overflow: Vec::new(),
            tree: None,
            tree_ids: Arc::new(Vec::new()),
            tree_dead: 0,
            epoch: 0,
        };
        let snapshot = Self::rebuilt_snapshot(&metric, &params, &mut write);
        Ok(ConcurrentMvpTree {
            params,
            metric,
            write: std::sync::Mutex::new(write),
            cell: SwapCell::new(snapshot),
        })
    }

    /// Pins the current generation for reading. All queries through the
    /// returned snapshot see one consistent point in time; writers
    /// publishing new generations do not disturb it.
    pub fn read(&self) -> SwapGuard<MvpReadSnapshot<T, M>> {
        self.cell.read()
    }

    /// Number of live items in the current generation.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the current generation holds no live items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current published generation number (advances on every write).
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Readers currently pinning the current generation.
    pub fn in_flight(&self) -> u64 {
        self.cell.in_flight()
    }

    /// Distance computations the build behind the current generation
    /// performed: the bulk load, or the latest rebuild. Publishing a
    /// small write computes none.
    pub fn build_distances(&self) -> u64 {
        self.read()
            .tree
            .as_ref()
            .map_or(0, |tree| tree.build_distances())
    }

    /// All live items within `radius` of `query` (stable ids), against
    /// the current generation.
    pub fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.read().range(query, radius, &mut NoTrace)
    }

    /// The `k` nearest live items (stable ids) in the current generation.
    pub fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.read().knn(query, k, &mut NoTrace)
    }

    /// Inserts an item, returning its stable id. May rebuild (amortized);
    /// concurrent readers keep answering from the previous generation
    /// until the new one is published.
    pub fn insert(&self, item: T) -> usize {
        let mut write = self.write.lock().expect("writer lock poisoned");
        let id = write.store.len();
        write.store.push(item);
        write.overflow.push(id);
        let threshold = MIN_REBUILD_BUFFER.max(write.tree_ids.len() / 4);
        let snapshot = if write.overflow.len() > threshold {
            Self::rebuilt_snapshot(&self.metric, &self.params, &mut write)
        } else {
            Self::incremental_snapshot(&self.metric, &write)
        };
        self.publish(snapshot);
        id
    }

    /// Removes the item with the given stable id. Returns `false` when
    /// the id is unknown or already removed.
    pub fn remove(&self, id: usize) -> bool {
        let mut write = self.write.lock().expect("writer lock poisoned");
        if id >= write.store.len() || !write.tombstones.insert(id) {
            return false;
        }
        // Published snapshots share the tombstone set: copy-on-write.
        write.published_tombstones = Arc::new(write.tombstones.clone());
        let snapshot = if let Ok(pos) = write.overflow.binary_search(&id) {
            // Overflow ids are appended in increasing order, so binary
            // search finds buffered items directly.
            write.overflow.remove(pos);
            Self::incremental_snapshot(&self.metric, &write)
        } else {
            write.tree_dead += 1;
            if write.tree_dead * 2 > write.tree_ids.len() {
                Self::rebuilt_snapshot(&self.metric, &self.params, &mut write)
            } else {
                Self::incremental_snapshot(&self.metric, &write)
            }
        };
        self.publish(snapshot);
        true
    }

    /// Forces a rebuild over all live items and publishes it, returning
    /// the new generation number. The rebuild runs on the calling thread;
    /// readers continue on the old generation until the swap.
    pub fn reindex(&self) -> u64 {
        let mut write = self.write.lock().expect("writer lock poisoned");
        let snapshot = Self::rebuilt_snapshot(&self.metric, &self.params, &mut write);
        self.publish(snapshot);
        self.cell.generation()
    }

    /// Swaps in `snapshot` and lets the displaced generation drain in
    /// the background (reclamation rides on the last guard's drop).
    fn publish(&self, snapshot: MvpReadSnapshot<T, M>) {
        let retired: Retired<MvpReadSnapshot<T, M>> = self.cell.swap(snapshot);
        drop(retired);
    }

    /// A snapshot republishing the current tree with fresh overflow /
    /// tombstone views (cheap: no distance computations).
    fn incremental_snapshot(metric: &M, write: &WriteSide<T, M>) -> MvpReadSnapshot<T, M> {
        MvpReadSnapshot {
            metric: metric.clone(),
            tree: write.tree.clone(),
            tree_ids: Arc::clone(&write.tree_ids),
            tombstones: Arc::clone(&write.published_tombstones),
            tree_dead: write.tree_dead,
            overflow: write
                .overflow
                .iter()
                .map(|&id| (id, write.store[id].clone()))
                .collect(),
            live: write.store.len() - write.tombstones.len(),
        }
    }

    /// Rebuilds the static tree over all live items (the expensive,
    /// amortized step), resetting the overflow ledger.
    fn rebuilt_snapshot(
        metric: &M,
        params: &MvpParams,
        write: &mut WriteSide<T, M>,
    ) -> MvpReadSnapshot<T, M> {
        let live: Vec<usize> = (0..write.store.len())
            .filter(|id| !write.tombstones.contains(id))
            .collect();
        let items: Vec<T> = live.iter().map(|&id| write.store[id].clone()).collect();
        write.epoch += 1;
        let params = params.clone().seed(params.seed.wrapping_add(write.epoch));
        let tree = MvpTree::build(items, metric.clone(), params)
            .expect("params validated at construction");
        write.tree = Some(Arc::new(tree));
        write.tree_ids = Arc::new(live);
        write.tree_dead = 0;
        write.overflow.clear();
        MvpReadSnapshot {
            metric: metric.clone(),
            tree: write.tree.clone(),
            tree_ids: Arc::clone(&write.tree_ids),
            tombstones: Arc::clone(&write.published_tombstones),
            tree_dead: 0,
            overflow: Vec::new(),
            live: write.store.len() - write.tombstones.len(),
        }
    }
}
