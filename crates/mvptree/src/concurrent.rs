//! A concurrently readable dynamic mvp-tree:
//! [`DynamicMvpTree`]'s amortized-rebuild strategy folded behind the
//! RCU-style [`SwapCell`], so sustained ingest and heavy concurrent reads
//! coexist without readers ever blocking.
//!
//! [`DynamicMvpTree`] is single-threaded: `insert`/`remove` take
//! `&mut self`, and an insert that trips the rebuild threshold stalls
//! every caller behind the rebuild. [`ConcurrentMvpTree`] keeps the exact
//! same tree and policy (overflow buffer, tombstones, rebuild at ¼
//! overflow or ½ dead) but splits it into:
//!
//! * a **write side** behind a `Mutex` — the [`DynamicMvpTree`] itself.
//!   Writers serialize with each other; a rebuild runs on the writing
//!   thread while readers continue on the published generation.
//! * a **read side** published through a `SwapCell`: an immutable
//!   [`MvpReadSnapshot`] of the write side's live set. Its parts are
//!   shared by `Arc` (see [`crate::dynamic`]), so publishing after a
//!   small write copies at most one overflow chunk (an insert) or the
//!   tombstone bitmap (a delete), never the tree.
//!
//! Every write publishes a new generation, so a reader that pins a
//! snapshot gets a point-in-time view: queries against one guard are
//! internally consistent even while writers churn, and the generation a
//! rebuild displaces is reclaimed only after its last reader exits —
//! the drain guarantee the serving layer's `reload` command relies on.

use std::borrow::Borrow;
use std::sync::Mutex;

use vantage_core::swap::{SwapCell, SwapGuard};
use vantage_core::{BoundedMetric, Neighbor, NoTrace, Query, Result, RowStore, Search};

use crate::dynamic::DynamicMvpTree;
pub use crate::dynamic::MvpReadSnapshot;
use crate::params::MvpParams;

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
pub struct ConcurrentMvpTree<T, M, S = Vec<T>> {
    write: Mutex<DynamicMvpTree<T, M, S>>,
    cell: SwapCell<MvpReadSnapshot<T, M, S>>,
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
        ConcurrentMvpTree::with_rows(items, metric, params)
    }
}

impl<T, M, S> ConcurrentMvpTree<T, M, S>
where
    T: Borrow<S::Item> + Clone + Sync,
    S: RowStore<T> + Clone + Sync,
    S::Item: ToOwned<Owned = T>,
    M: BoundedMetric<S::Item> + Clone + Sync,
{
    /// Bulk-loads items already packed in the row store `S` (stable ids
    /// `0..n`); every rebuild packs into `S` too.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn with_rows(items: S, metric: M, params: MvpParams) -> Result<Self> {
        let write = DynamicMvpTree::with_rows(items, metric, params)?;
        Ok(ConcurrentMvpTree {
            cell: SwapCell::new(write.snapshot()),
            write: Mutex::new(write),
        })
    }

    /// Pins the current generation for reading. All queries through the
    /// returned snapshot see one consistent point in time; writers
    /// publishing new generations do not disturb it.
    pub fn read(&self) -> SwapGuard<MvpReadSnapshot<T, M, S>> {
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
        self.read().build_distances()
    }

    /// All live items within `radius` of `query` (stable ids), against
    /// the current generation.
    pub fn range(&self, query: &S::Item, radius: f64) -> Vec<Neighbor> {
        self.read()
            .search(query, Query::Range(radius), &mut NoTrace)
    }

    /// The `k` nearest live items (stable ids) in the current generation.
    pub fn knn(&self, query: &S::Item, k: usize) -> Vec<Neighbor> {
        self.read().search(query, Query::Knn(k), &mut NoTrace)
    }

    /// Inserts an item, returning its stable id. May rebuild (amortized);
    /// concurrent readers keep answering from the previous generation
    /// until the new one is published.
    pub fn insert(&self, item: T) -> usize {
        let mut write = self.lock();
        let id = write.insert(item);
        self.cell.swap(write.snapshot());
        id
    }

    /// Removes the item with the given stable id. Returns `false` when
    /// the id is unknown or already removed.
    pub fn remove(&self, id: usize) -> bool {
        let mut write = self.lock();
        if !write.remove(id) {
            return false;
        }
        self.cell.swap(write.snapshot());
        true
    }

    /// Forces a rebuild over all live items and publishes it, returning
    /// the new generation number. The rebuild runs on the calling thread;
    /// readers continue on the old generation until the swap.
    pub fn reindex(&self) -> u64 {
        let mut write = self.lock();
        write.rebuild();
        self.cell.swap(write.snapshot());
        self.cell.generation()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DynamicMvpTree<T, M, S>> {
        self.write.lock().expect("writer lock poisoned")
    }
}
