//! Dynamic updates on top of the static mvp-tree.
//!
//! The paper (§6) leaves updates open: *"Mvp-trees, like other distance
//! based index structures, is a static index structure … Handling update
//! operations (insertion and deletion) without major restructuring, and
//! without violating the balanced structure of the tree is an open
//! problem."*
//!
//! [`DynamicMvpTree`] closes the gap with the classic static-to-dynamic
//! transformation (amortized rebuilding) rather than in-place
//! restructuring, preserving the paper's balance guarantee:
//!
//! * **inserts** accumulate in an overflow buffer that queries scan
//!   exhaustively; when the buffer exceeds a fraction of the indexed size
//!   the whole structure is rebuilt (amortized `O(log² n)` extra distance
//!   computations per insert);
//! * **deletes** tombstone their target; when live points drop below half
//!   the structure is rebuilt without the tombstones.
//!
//! Items keep **stable ids** across rebuilds (the id returned by
//! [`insert`](DynamicMvpTree::insert) is permanent), unlike the static
//! tree where ids are positions in the construction vector.
//!
//! # Layout
//!
//! The live set is one [`MvpReadSnapshot`], whose parts are all shared
//! by `Arc`: cloning it — what
//! [`ConcurrentMvpTree`](crate::ConcurrentMvpTree) publishes after every
//! write — copies no item.
//!
//! * **Slots.** The tree's internal id `i` is slot `i`; the `j`-th item
//!   inserted since the last rebuild is slot `tree_len + j`. Stable ids
//!   increase with slots (the tree is built in stable-id order, and later
//!   inserts take larger ids), so one [`KnnCollector`] over slots breaks
//!   distance ties exactly as one over stable ids would.
//! * **Overflow.** Inserted items live in append-only chunks of
//!   [`OVERFLOW_CHUNK`] items. An insert copies at most the last chunk
//!   (when a published snapshot shares it).
//! * **Tombstones.** A bitmap over slots. A delete copies it (one bit
//!   per slot) and never an item. The tree's kNN descent refuses dead
//!   slots as it offers them, so its pruning radius is the k-th *live*
//!   distance; the overflow is scanned by [`scan_into`] over its live
//!   rows.

use std::borrow::Borrow;
use std::sync::Arc;

use vantage_core::{
    scan, scan_into, BoundedMetric, ItemStore, KnnCollector, MetricIndex, Neighbor, NoTrace, Query,
    Result, RowStore, Search, TraceSink,
};

use crate::kernel::Collect;
use crate::params::MvpParams;
use crate::tree::MvpTree;

/// Minimum overflow-buffer size before a rebuild is considered.
const MIN_REBUILD_BUFFER: usize = 32;

/// Items per overflow chunk. An insert copies at most one chunk (the
/// last, when a published snapshot shares it), so this bounds the item
/// copies of a write; a read walks one chunk pointer per this many
/// overflow items.
pub const OVERFLOW_CHUNK: usize = 32;

/// The removed slots, one bit each. Slots past the end are live.
#[derive(Debug, Clone, Default)]
struct DeadSlots(Vec<u64>);

impl DeadSlots {
    #[inline]
    fn contains(&self, slot: usize) -> bool {
        self.0
            .get(slot / 64)
            .is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    fn insert(&mut self, slot: usize) {
        let word = slot / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (slot % 64);
    }
}

/// A kNN collector over slots that refuses dead ones.
struct SkipDead<'a> {
    collector: &'a mut KnnCollector,
    dead: &'a DeadSlots,
}

impl Collect for SkipDead<'_> {
    #[inline]
    fn k(&self) -> usize {
        self.collector.k()
    }

    #[inline]
    fn radius(&self) -> f64 {
        self.collector.radius()
    }

    #[inline]
    fn offer(&mut self, slot: usize, distance: f64) {
        if !self.dead.contains(slot) {
            self.collector.offer(slot, distance);
        }
    }
}

/// A point-in-time view of a dynamic tree's live set: the static tree
/// over the live items at the last rebuild, the items inserted since,
/// and the tombstones (see the [module docs](self) for the layout).
/// [`ConcurrentMvpTree`](crate::ConcurrentMvpTree) publishes one per
/// write; [`DynamicMvpTree`] answers through its own. The tree keeps its
/// items in the row store `S`; the overflow keeps inserted items as
/// they came, and queries borrow both down to `S::Item`.
#[derive(Debug, Clone)]
pub struct MvpReadSnapshot<T, M, S = Vec<T>> {
    metric: M,
    tree: Option<Arc<MvpTree<T, M, S>>>,
    /// Slot (the tree's internal id) → stable id, strictly increasing.
    tree_ids: Arc<[usize]>,
    /// Stable id of the first overflow slot.
    first_overflow_id: usize,
    /// The overflow's items in slot order; every chunk but the last
    /// holds [`OVERFLOW_CHUNK`] items.
    overflow: Vec<Arc<Vec<T>>>,
    dead: Arc<DeadSlots>,
    /// Dead slots inside the tree.
    tree_dead: usize,
    /// Dead slots inside the overflow.
    overflow_dead: usize,
}

impl<T, M, S> MvpReadSnapshot<T, M, S> {
    /// An empty live set with no tree.
    fn empty(metric: M) -> Self {
        MvpReadSnapshot {
            metric,
            tree: None,
            tree_ids: Arc::from([]),
            first_overflow_id: 0,
            overflow: Vec::new(),
            dead: Arc::default(),
            tree_dead: 0,
            overflow_dead: 0,
        }
    }

    /// Number of live items visible to this snapshot.
    pub fn len(&self) -> usize {
        self.tree_ids.len() - self.tree_dead + self.overflow_len()
    }

    /// Whether this snapshot sees no live items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live items inserted since the last rebuild (scanned by every
    /// query).
    pub fn overflow_len(&self) -> usize {
        self.overflow_slots() - self.overflow_dead
    }

    /// Removed items still inside the tree (descended past by every
    /// query until the next rebuild).
    pub fn tree_dead(&self) -> usize {
        self.tree_dead
    }

    /// Distance computations the build of the tree performed.
    pub(crate) fn build_distances(&self) -> u64 {
        self.tree.as_ref().map_or(0, |tree| tree.build_distances)
    }

    /// Overflow slots, dead ones included.
    fn overflow_slots(&self) -> usize {
        self.overflow.last().map_or(0, |last| {
            (self.overflow.len() - 1) * OVERFLOW_CHUNK + last.len()
        })
    }

    /// The stable id the next insert takes.
    fn next_id(&self) -> usize {
        self.first_overflow_id + self.overflow_slots()
    }

    /// The stable id of `slot`.
    #[inline]
    fn stable(&self, slot: usize) -> usize {
        match self.tree_ids.get(slot) {
            Some(&id) => id,
            None => self.first_overflow_id + (slot - self.tree_ids.len()),
        }
    }

    /// The slot of stable id `id`, dead or alive; `None` for ids never
    /// issued or dropped by a rebuild.
    fn slot(&self, id: usize) -> Option<usize> {
        if id >= self.first_overflow_id {
            let j = id - self.first_overflow_id;
            (j < self.overflow_slots()).then_some(self.tree_ids.len() + j)
        } else {
            self.tree_ids.binary_search(&id).ok()
        }
    }
}

impl<T: Borrow<S::Item>, M, S: RowStore<T>> MvpReadSnapshot<T, M, S> {
    /// The item in `slot`.
    fn item(&self, slot: usize) -> Option<&S::Item> {
        match slot.checked_sub(self.tree_ids.len()) {
            None => {
                let tree = self.tree.as_ref()?;
                Some(tree.items.row(tree.rows[slot]))
            }
            Some(j) => self
                .overflow
                .get(j / OVERFLOW_CHUNK)
                .and_then(|chunk| chunk.get(j % OVERFLOW_CHUNK))
                .map(Borrow::borrow),
        }
    }

    /// The overflow's items in slot order, dead ones included.
    fn overflow_items(&self) -> impl Iterator<Item = &S::Item> {
        self.overflow
            .iter()
            .flat_map(|chunk| chunk.iter().map(Borrow::borrow))
    }

    /// Every live `(slot, item)` of the overflow, in slot order.
    fn overflow_rows(&self) -> impl Iterator<Item = (usize, &S::Item)> {
        (self.tree_ids.len()..)
            .zip(self.overflow_items())
            .filter(|&(slot, _)| !self.dead.contains(slot))
    }

    /// Iterates over every `(stable id, item)` pair visible to this
    /// snapshot — the exact population queries answer over — in
    /// increasing stable id.
    pub fn live_items(&self) -> impl Iterator<Item = (usize, &S::Item)> {
        let tree = self.tree.iter().flat_map(|tree| tree.items_by_id());
        tree.chain(self.overflow_items())
            .enumerate()
            .filter(|&(slot, _)| !self.dead.contains(slot))
            .map(|(slot, item)| (self.stable(slot), item))
    }
}

/// The live set's answers, in stable ids. Every distance the search
/// computes is reported to `sink`, so a
/// [`DistanceTally`](vantage_core::DistanceTally) reads this query's
/// exact cost whatever runs concurrently.
///
/// Range and kNN descend the tree, then [`scan`] the live overflow rows.
/// The kNN descent refuses dead items as it meets them, so it prunes at
/// the k-th live distance, and the overflow scan offers its rows to the
/// same collector. Beyond and kFN scan the whole live set: far-neighbor
/// pruning needs the static tree's shell bounds, which the overflow
/// items lack, so correctness wins over pruning here. Every verb's scan
/// (of the overflow rows, or of the live set) reports one leaf visit, as
/// a [`LinearScan`](vantage_core::LinearScan) does. `k = 0` computes
/// nothing.
impl<T, M, S> Search<S::Item> for MvpReadSnapshot<T, M, S>
where
    T: Borrow<S::Item>,
    S: RowStore<T>,
    M: BoundedMetric<S::Item>,
{
    fn search<Sink: TraceSink>(
        &self,
        item: &S::Item,
        query: Query,
        sink: &mut Sink,
    ) -> Vec<Neighbor> {
        match query {
            Query::Range(_) => {
                let mut out = Vec::new();
                if let Some(tree) = &self.tree {
                    for n in tree.search(item, query, sink) {
                        if !self.dead.contains(n.id) {
                            out.push(Neighbor::new(self.tree_ids[n.id], n.distance));
                        }
                    }
                }
                let overflow = scan(&self.metric, item, query, self.overflow_rows(), sink);
                out.extend(
                    overflow
                        .into_iter()
                        .map(|n| Neighbor::new(self.stable(n.id), n.distance)),
                );
                out
            }
            Query::Knn(k) => {
                let mut collector = KnnCollector::new(k);
                if let Some(tree) = &self.tree {
                    let mut live = SkipDead {
                        collector: &mut collector,
                        dead: &self.dead,
                    };
                    tree.as_view().kernel(item).knn_into(&mut live, sink);
                }
                scan_into(
                    &self.metric,
                    item,
                    &mut collector,
                    self.overflow_rows(),
                    sink,
                );
                let mut out = collector.into_sorted();
                for n in &mut out {
                    n.id = self.stable(n.id);
                }
                out
            }
            Query::Beyond(_) | Query::Kfn(_) => {
                scan(&self.metric, item, query, self.live_items(), sink)
            }
        }
    }
}

/// An mvp-tree supporting inserts and deletes via amortized rebuilding.
///
/// Requires `T: Clone` (rebuilds re-index copies of live items) and
/// `M: Clone` (each rebuilt tree owns the metric; clone a
/// [`Counted`](vantage_core::Counted) to keep a shared tally). Every
/// rebuilt tree keeps its items in the row store `S`
/// ([`with_rows`](DynamicMvpTree::with_rows)).
#[derive(Debug, Clone)]
pub struct DynamicMvpTree<T, M, S = Vec<T>> {
    params: MvpParams,
    /// The live set; its parts are shared with published snapshots.
    live: MvpReadSnapshot<T, M, S>,
    /// Bumped every rebuild so vantage-point randomization varies.
    epoch: u64,
}

impl<T: Clone + Sync, M: BoundedMetric<T> + Clone + Sync> DynamicMvpTree<T, M> {
    /// Creates an empty dynamic tree.
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn new(metric: M, params: MvpParams) -> Result<Self> {
        params.validate()?;
        Ok(DynamicMvpTree {
            params,
            live: MvpReadSnapshot::empty(metric),
            epoch: 0,
        })
    }

    /// Bulk-loads an initial dataset (stable ids `0..items.len()`).
    ///
    /// # Errors
    ///
    /// Returns an error when `params` is invalid.
    pub fn with_items(items: Vec<T>, metric: M, params: MvpParams) -> Result<Self> {
        DynamicMvpTree::with_rows(items, metric, params)
    }
}

impl<T, M, S> DynamicMvpTree<T, M, S>
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
        params.validate()?;
        let mut this = DynamicMvpTree {
            params,
            live: MvpReadSnapshot::empty(metric),
            epoch: 0,
        };
        let n = items.view().len();
        this.build((0..n).collect(), items, n);
        Ok(this)
    }

    /// Number of live (non-deleted) items.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live items remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items currently in the overflow buffer (diagnostic).
    pub fn overflow_len(&self) -> usize {
        self.live.overflow_len()
    }

    /// A snapshot of the live set: `Arc` clones, no item copied.
    pub(crate) fn snapshot(&self) -> MvpReadSnapshot<T, M, S> {
        self.live.clone()
    }

    /// Inserts an item, returning its stable id.
    ///
    /// # Panics
    ///
    /// A rebuild this insert triggers panics if the row store refuses an
    /// item (a vector of another dimension than the rest, for
    /// [`F64Rows`](vantage_core::F64Rows)); callers check what they
    /// insert.
    pub fn insert(&mut self, item: T) -> usize {
        let id = self.live.next_id();
        match self.live.overflow.last_mut() {
            Some(chunk) if chunk.len() < OVERFLOW_CHUNK => {
                if Arc::get_mut(chunk).is_none() {
                    // Shared with a snapshot: copy it, full size.
                    let mut copy = Vec::with_capacity(OVERFLOW_CHUNK);
                    copy.extend(chunk.iter().cloned());
                    *chunk = Arc::new(copy);
                }
                Arc::get_mut(chunk).expect("unshared chunk").push(item);
            }
            _ => {
                let mut chunk = Vec::with_capacity(OVERFLOW_CHUNK);
                chunk.push(item);
                self.live.overflow.push(Arc::new(chunk));
            }
        }
        let threshold = MIN_REBUILD_BUFFER.max(self.live.tree_ids.len() / 4);
        if self.live.overflow_len() > threshold {
            self.rebuild();
        }
        id
    }

    /// Removes the item with the given stable id. Returns `false` when the
    /// id is unknown or already removed.
    pub fn remove(&mut self, id: usize) -> bool {
        let Some(slot) = self.live.slot(id) else {
            return false;
        };
        if self.live.dead.contains(slot) {
            return false;
        }
        Arc::make_mut(&mut self.live.dead).insert(slot);
        if slot >= self.live.tree_ids.len() {
            self.live.overflow_dead += 1;
            return true;
        }
        self.live.tree_dead += 1;
        if self.live.tree_dead * 2 > self.live.tree_ids.len() {
            self.rebuild();
        }
        true
    }

    /// Returns the live item with this stable id.
    pub fn get(&self, id: usize) -> Option<&S::Item> {
        let slot = self.live.slot(id)?;
        if self.live.dead.contains(slot) {
            return None;
        }
        self.live.item(slot)
    }

    /// Rebuilds the static tree over all live items, emptying the
    /// overflow buffer and dropping tombstones from the snapshot. The
    /// live rows are packed straight into a new store, not copied into
    /// owned items first.
    pub fn rebuild(&mut self) {
        let (ids, rows): (Vec<usize>, Vec<&S::Item>) = self.live.live_items().unzip();
        let items = S::from_rows(rows.into_iter()).expect("every item fits the row store");
        self.build(ids, items, self.live.next_id());
    }

    /// Builds the tree over `items` (stable ids `ids`, increasing),
    /// emptying the overflow and the tombstones; the next insert takes
    /// stable id `next_id`.
    fn build(&mut self, ids: Vec<usize>, items: S, next_id: usize) {
        self.epoch += 1;
        let params = self
            .params
            .clone()
            .seed(self.params.seed.wrapping_add(self.epoch));
        let tree = MvpTree::with_rows(items, self.live.metric.clone(), params)
            .expect("params validated at construction");
        let live = &mut self.live;
        live.first_overflow_id = next_id;
        live.tree = Some(Arc::new(tree));
        live.tree_ids = ids.into();
        live.overflow.clear();
        live.dead = Arc::default();
        live.tree_dead = 0;
        live.overflow_dead = 0;
    }

    /// All items within `radius` of `query` (stable ids).
    pub fn range(&self, query: &S::Item, radius: f64) -> Vec<Neighbor> {
        self.live.search(query, Query::Range(radius), &mut NoTrace)
    }

    /// The `k` nearest live items (stable ids), sorted by distance.
    pub fn knn(&self, query: &S::Item, k: usize) -> Vec<Neighbor> {
        self.live.search(query, Query::Knn(k), &mut NoTrace)
    }

    /// Verifies the wrapper's bookkeeping invariants (and the inner
    /// tree's structural invariants), returning a description of the
    /// first violation found:
    ///
    /// 1. the inner static tree passes [`MvpTree::check_invariants`] and
    ///    holds one item per entry of the slot → stable id map;
    /// 2. that map is strictly increasing and below the first overflow
    ///    id (so slot order is stable-id order);
    /// 3. every overflow chunk but the last is full, and none is empty;
    /// 4. no tombstone lies past the last slot, and `tree_dead` and the
    ///    overflow's dead count equal the tombstones in their slots;
    /// 5. `len()` equals the number of live items a query scans.
    ///
    /// Re-computes `O(n · height)` distances — strictly for tests.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, as human-readable text.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let live = &self.live;
        let tree_len = live.tree_ids.len();
        match &live.tree {
            Some(tree) => {
                tree.check_invariants()?;
                if tree.len() != tree_len {
                    return Err(format!(
                        "tree holds {} items but tree_ids maps {tree_len}",
                        tree.len()
                    ));
                }
            }
            None if tree_len > 0 => return Err("tree_ids non-empty with no tree".into()),
            None => {}
        }
        if let Some(w) = live.tree_ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("tree_ids not strictly increasing at {w:?}"));
        }
        if let Some(&last) = live.tree_ids.last() {
            if last >= live.first_overflow_id {
                return Err(format!(
                    "tree id {last} not below the first overflow id {}",
                    live.first_overflow_id
                ));
            }
        }
        let chunks = live.overflow.len();
        for (i, chunk) in live.overflow.iter().enumerate() {
            let full = chunk.len() == OVERFLOW_CHUNK;
            if chunk.is_empty() || (i + 1 < chunks && !full) || chunk.len() > OVERFLOW_CHUNK {
                return Err(format!(
                    "overflow chunk {i} of {chunks} holds {}",
                    chunk.len()
                ));
            }
        }
        let slots = tree_len + live.overflow_slots();
        if let Some(slot) = (slots..live.dead.0.len() * 64).find(|&s| live.dead.contains(s)) {
            return Err(format!("tombstone past the last slot: {slot}"));
        }
        let dead_in =
            |from: usize, to: usize| (from..to).filter(|&s| live.dead.contains(s)).count();
        let tree_dead = dead_in(0, tree_len);
        if tree_dead != live.tree_dead {
            return Err(format!(
                "tree_dead = {} but {tree_dead} tree slots are tombstoned",
                live.tree_dead
            ));
        }
        let overflow_dead = dead_in(tree_len, slots);
        if overflow_dead != live.overflow_dead {
            return Err(format!(
                "overflow_dead = {} but {overflow_dead} overflow slots are tombstoned",
                live.overflow_dead
            ));
        }
        if live.live_items().count() != self.len() {
            return Err("len() disagrees with the live items".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn params() -> MvpParams {
        MvpParams::paper(2, 4, 2).seed(1)
    }

    fn pt(x: f64) -> Vec<f64> {
        vec![x]
    }

    /// Every mutation in these tests is followed by a full invariant
    /// check; drift shows up at the mutating call, not at the query.
    #[track_caller]
    fn check<T: Clone + Sync, M: BoundedMetric<T> + Clone + Sync>(t: &DynamicMvpTree<T, M>) {
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_then_query() {
        let mut t = DynamicMvpTree::new(Euclidean, params()).unwrap();
        for i in 0..100 {
            t.insert(pt(f64::from(i)));
            check(&t);
        }
        assert_eq!(t.len(), 100);
        let hits = t.range(&pt(50.0), 1.5);
        let mut ids: Vec<usize> = hits.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![49, 50, 51]);
    }

    #[test]
    fn ids_are_stable_across_rebuilds() {
        let mut t = DynamicMvpTree::new(Euclidean, params()).unwrap();
        let id7 = (0..8).map(|i| t.insert(pt(f64::from(i)))).last().unwrap();
        assert_eq!(id7, 7);
        check(&t);
        for i in 8..300 {
            t.insert(pt(f64::from(i))); // forces several rebuilds
            check(&t);
        }
        let hits = t.range(&pt(7.0), 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
        assert_eq!(t.get(7), Some(&pt(7.0)));
    }

    #[test]
    fn remove_hides_items_from_queries() {
        let mut t = DynamicMvpTree::with_items(
            (0..50).map(|i| pt(f64::from(i))).collect(),
            Euclidean,
            params(),
        )
        .unwrap();
        check(&t);
        assert!(t.remove(25));
        check(&t);
        assert!(!t.remove(25), "double delete must fail");
        assert!(!t.remove(999), "unknown id must fail");
        check(&t);
        assert_eq!(t.len(), 49);
        assert!(t.range(&pt(25.0), 0.0).is_empty());
        assert!(t.get(25).is_none());
        let nn = t.knn(&pt(25.0), 2);
        let mut ids: Vec<usize> = nn.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![24, 26]);
    }

    #[test]
    fn remove_from_overflow_buffer() {
        let mut t = DynamicMvpTree::new(Euclidean, params()).unwrap();
        let a = t.insert(pt(1.0));
        let b = t.insert(pt(2.0));
        check(&t);
        assert!(t.remove(a));
        check(&t);
        assert_eq!(t.len(), 1);
        assert!(t.range(&pt(1.0), 0.1).is_empty());
        assert_eq!(t.range(&pt(2.0), 0.1)[0].id, b);
    }

    #[test]
    fn heavy_deletion_triggers_rebuild_and_stays_correct() {
        let mut t = DynamicMvpTree::with_items(
            (0..200).map(|i| pt(f64::from(i))).collect(),
            Euclidean,
            params(),
        )
        .unwrap();
        check(&t);
        for id in 0..150 {
            assert!(t.remove(id));
            check(&t);
        }
        assert_eq!(t.len(), 50);
        let hits = t.range(&pt(175.0), 5.0);
        assert_eq!(hits.len(), 11); // 170..=180
        assert!(hits.iter().all(|n| n.id >= 150));
    }

    #[test]
    fn matches_linear_scan_under_churn() {
        let mut t = DynamicMvpTree::new(Euclidean, params()).unwrap();
        let mut live: Vec<(usize, Vec<f64>)> = Vec::new();
        for i in 0usize..250 {
            let v = pt(((i * 37) % 101) as f64);
            let id = t.insert(v.clone());
            check(&t);
            live.push((id, v));
            if i % 3 == 0 {
                let victim = live.remove((i / 3) % live.len());
                assert!(t.remove(victim.0));
                check(&t);
            }
        }
        let q = pt(40.0);
        let mut got: Vec<usize> = t.range(&q, 7.0).into_iter().map(|n| n.id).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = live
            .iter()
            .filter(|(_, v)| Euclidean.distance(&q, v) <= 7.0)
            .map(|(id, _)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);

        // kNN distances agree with brute force over live items.
        let knn = t.knn(&q, 10);
        let mut brute: Vec<f64> = live
            .iter()
            .map(|(_, v)| Euclidean.distance(&q, v))
            .collect();
        brute.sort_unstable_by(f64::total_cmp);
        for (n, want) in knn.iter().zip(&brute) {
            assert!((n.distance - want).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t = DynamicMvpTree::<Vec<f64>, _>::new(Euclidean, params()).unwrap();
        check(&t);
        assert!(t.is_empty());
        assert!(t.range(&pt(0.0), 10.0).is_empty());
        assert!(t.knn(&pt(0.0), 5).is_empty());
    }

    #[test]
    fn counted_metric_clones_share_tally() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let mut t = DynamicMvpTree::new(metric, params()).unwrap();
        for i in 0..64 {
            t.insert(pt(f64::from(i)));
        }
        check(&t);
        probe.reset();
        t.range(&pt(10.0), 1.0);
        assert!(probe.count() > 0);
    }
}
