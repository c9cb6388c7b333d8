//! Snapshot loading: one validation pipeline over mapped or owned
//! bytes, then queries straight over those bytes.
//!
//! Every vp- and mvp-tree load goes through here. [`open_vp_tree`] /
//! [`open_mvp_tree`] map the snapshot file (`mmap(2)`, with an owned
//! read as fallback); [`decode_vp_tree`] / [`decode_mvp_tree`] copy an
//! in-memory snapshot into an owned 8-aligned buffer. Either storage
//! then takes the same route: container checksums, typed tag checks,
//! layout bounds, item encoding checks, `params.validate()` and the tree
//! crates' complete `validate_arena`, run **once**. What comes back is
//! the storage plus a handful of `Range<usize>` spans: a
//! [`MappedVpTree`] / [`MappedMvpTree`]. Each query builds a borrowed
//! [`VpTreeRef`] / [`MvpTreeRef`] directly over the bytes — the same
//! kernels the owned trees run, so answers are bit-identical to the
//! tree that was saved. Cold start from a file is `O(header +
//! validation)`, and the page cache, not the heap, holds the data.
//!
//! Tree items are served in the row order the snapshot stores them in
//! (see [`crate::format`]) and never permuted at load — a second copy
//! would double a server's resident memory. The only per-item heap
//! state is the id→row table (4 bytes per item), derived from the
//! validated arena in one O(n) pass.
//!
//! Item access is typed through [`FlatItems`]: [`F64Vectors`] and
//! [`U8Vectors`] serve `[f64]` / `[u8]` rows of one width `d` out of
//! the value buffer, addressed by stride (the loader refuses a ragged
//! vector section as corrupt), [`Utf8Strings`] serves `&str` out of the
//! text through its offsets (validated as UTF-8 once at load). These
//! are the same views an owned tree's [`F64Rows`]/[`U8Rows`]/[`StrRows`]
//! hand out, so a tree built in memory and a snapshot search the same
//! row layout. Queries therefore take unsized borrows (`&[f64]`,
//! `&[u8]`, `&str`) — every workspace metric implements both the sized
//! and unsized item forms. A linear-scan
//! snapshot is read through the same item checks and copied out into
//! an owned [`LinearScan`].

use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

use vantage_core::{
    BoundedMetric, BudgetedKnn, BudgetedSearch, F64Rows, FarthestIndex, FlatF64s, FlatStrs,
    FlatU8s, ItemStore, LinearScan, MetricIndex, Neighbor, NoTrace, Query, Result, RowStore,
    Search, SearchBudget, StrRows, TraceSink, U8Rows, VantageError,
};
use vantage_mvptree::{MvpArenaView, MvpParams, MvpTreeRef};
use vantage_vptree::{VpArenaView, VpTreeParams, VpTreeRef};

use crate::codec::{ItemCodec, MetricTag};
use crate::format::{parse, Container, IndexKind};
use crate::layout::{ItemsLayout, MvpLayout, VpLayout};
use crate::mem::{self, Storage};
use crate::trees::{check_tags, decode_mvp_params, decode_vp_params, root_from_wire};

/// An item encoding that can be served in place from snapshot bytes.
///
/// The load-side twin of [`ItemCodec`]: same tags, same payload layout,
/// but instead of materializing owned values it builds a borrowed
/// [`ItemStore`] over the validated offset and data spans.
pub trait FlatItems {
    /// Unsized item form queries borrow (`[f64]`, `[u8]`, `str`).
    type Item: ?Sized + ToOwned;
    /// The borrowed store built over snapshot spans.
    type Store<'a>: ItemStore<Item = Self::Item> + Copy;
    /// The owned row store whose view is [`Store`](FlatItems::Store): a
    /// tree built in memory holds its items in it.
    type Rows: RowStore<<Self::Item as ToOwned>::Owned, Item = Self::Item>
        + Clone
        + Send
        + Sync
        + 'static;
    /// Item-encoding tag — matches the [`ItemCodec`] twin.
    const TAG: u8;
    /// Encoding name for mismatch errors.
    const NAME: &'static str;
    /// Bytes per data element (8 for `f64`, 1 for bytes and UTF-8).
    const ELEM: usize;
    /// Load-time validation of the raw data region beyond what the
    /// layout parser checks (e.g. UTF-8 well-formedness).
    ///
    /// # Errors
    ///
    /// [`VantageError::CorruptSnapshot`] when the data region cannot
    /// back this encoding.
    fn check(data: &[u8], offsets: &[u64]) -> Result<()>;
    /// Builds the borrowed store over validated spans.
    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> Self::Store<'a>;
    /// The item at `row` of `store`, borrowed for the spans' lifetime.
    fn row<'a>(store: Self::Store<'a>, row: u32) -> &'a Self::Item;
}

/// Marker: snapshot items are `f64` vectors, served as `&[f64]`.
#[derive(Debug)]
pub enum F64Vectors {}

impl FlatItems for F64Vectors {
    type Item = [f64];
    type Store<'a> = FlatF64s<'a>;
    type Rows = F64Rows;
    const TAG: u8 = <[f64] as ItemCodec>::TAG;
    const NAME: &'static str = <[f64] as ItemCodec>::NAME;
    const ELEM: usize = 8;

    fn check(_data: &[u8], offsets: &[u64]) -> Result<()> {
        // Every aligned 8-byte span is a valid f64, and the layout
        // parser already verified sizes and fences.
        check_stride(offsets)
    }

    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> FlatF64s<'a> {
        let len = offsets.len() - 1;
        let dim = offsets.get(1).map_or(0, |&end| end as usize);
        FlatF64s::new(mem::f64s(data), dim, len)
    }

    fn row<'a>(store: Self::Store<'a>, row: u32) -> &'a [f64] {
        store.row(row)
    }
}

/// Marker: snapshot items are byte vectors, served as `&[u8]`.
#[derive(Debug)]
pub enum U8Vectors {}

impl FlatItems for U8Vectors {
    type Item = [u8];
    type Store<'a> = FlatU8s<'a>;
    type Rows = U8Rows;
    const TAG: u8 = <[u8] as ItemCodec>::TAG;
    const NAME: &'static str = <[u8] as ItemCodec>::NAME;
    const ELEM: usize = 1;

    fn check(_data: &[u8], offsets: &[u64]) -> Result<()> {
        check_stride(offsets)
    }

    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> FlatU8s<'a> {
        let len = offsets.len() - 1;
        let dim = offsets.get(1).map_or(0, |&end| end as usize);
        FlatU8s::new(data, dim, len)
    }

    fn row<'a>(store: Self::Store<'a>, row: u32) -> &'a [u8] {
        store.row(row)
    }
}

/// Refuses a ragged vector section: rows are addressed by one stride,
/// the first row's width, so every fence must sit at a multiple of it.
fn check_stride(offsets: &[u64]) -> Result<()> {
    let dim = offsets.get(1).copied().unwrap_or(0);
    let stride = |i: usize| (i as u64).checked_mul(dim);
    match (1..offsets.len()).find(|&i| stride(i) != Some(offsets[i])) {
        None => Ok(()),
        Some(i) => Err(VantageError::corrupt(format!(
            "ragged vector items: item {} has {} values, item 0 has {dim}",
            i - 1,
            offsets[i] - offsets[i - 1]
        ))),
    }
}

/// Marker: snapshot items are UTF-8 strings, served as `&str`.
#[derive(Debug)]
pub enum Utf8Strings {}

impl FlatItems for Utf8Strings {
    type Item = str;
    type Store<'a> = FlatStrs<'a>;
    type Rows = StrRows;
    const TAG: u8 = <str as ItemCodec>::TAG;
    const NAME: &'static str = <str as ItemCodec>::NAME;
    const ELEM: usize = 1;

    fn check(data: &[u8], offsets: &[u64]) -> Result<()> {
        let text = std::str::from_utf8(data)
            .map_err(|e| VantageError::corrupt(format!("string items: {e}")))?;
        // Fences must land on character boundaries or per-item slicing
        // would split a code point (offsets are already bounds-checked
        // against the data length by the layout parser).
        for &off in offsets {
            if !text.is_char_boundary(off as usize) {
                return Err(VantageError::corrupt(format!(
                    "item offset {off} splits a UTF-8 code point"
                )));
            }
        }
        Ok(())
    }

    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> FlatStrs<'a> {
        FlatStrs::new(offsets, mem::str_validated(data))
    }

    fn row<'a>(store: Self::Store<'a>, row: u32) -> &'a str {
        store.row(row)
    }
}

/// Absolute spans of a validated items payload.
#[derive(Debug)]
struct ItemSpans {
    count: usize,
    offsets: Range<usize>,
    data: Range<usize>,
}

impl ItemSpans {
    fn store<'a, K: FlatItems>(&self, bytes: &'a [u8]) -> K::Store<'a> {
        K::store(
            mem::u64s(&bytes[self.offsets.clone()]),
            &bytes[self.data.clone()],
        )
    }
}

/// Load-time item plumbing shared by every index kind: container parse,
/// tag checks, item layout and encoding validation. Returns the parsed
/// container (the caller decodes its own params and structure inside
/// the same borrow of `bytes`) plus absolute item spans.
fn check_items<'a, K: FlatItems>(
    bytes: &'a [u8],
    kind: IndexKind,
    metric_tag: &'static str,
) -> Result<(Container<'a>, ItemSpans)> {
    let c = parse(bytes)?;
    check_tags(&c, kind, K::TAG, K::NAME, metric_tag)?;
    let ilay = ItemsLayout::parse(c.items, c.items_off, c.count, K::ELEM)?;
    K::check(&bytes[ilay.data.clone()], &ilay.offsets)?;
    let spans = ItemSpans {
        count: ilay.count,
        offsets: ilay.offsets_bytes,
        data: ilay.data,
    };
    Ok((c, spans))
}

/// Implements the shared accessors and the workspace query traits
/// (over the unsized item form) for a loaded tree handle.
macro_rules! loaded_tree {
    ($tree:ident, $params:ty) => {
        impl<K: FlatItems, M> $tree<K, M> {
            /// Number of indexed items.
            pub fn len(&self) -> usize {
                self.items.count
            }

            /// Whether the snapshot indexes no items.
            pub fn is_empty(&self) -> bool {
                self.items.count == 0
            }

            /// Construction parameters recorded in the snapshot.
            pub fn params(&self) -> &$params {
                &self.params
            }

            /// Arena id of the root node (`None` for an empty tree).
            pub fn root(&self) -> Option<u32> {
                self.root
            }

            /// The reconstructed metric (shared by every view).
            pub fn metric(&self) -> &M {
                &self.metric
            }

            /// Whether the backing storage is an actual `mmap` (vs an
            /// owned buffer: the `decode_*` loaders, or the read
            /// fallback on platforms or files that refuse mapping).
            pub fn is_mapped(&self) -> bool {
                self.storage.is_mapped()
            }

            /// The item with original id `id`.
            ///
            /// # Panics
            ///
            /// Panics if `id >= len()`.
            pub fn item(&self, id: u32) -> &K::Item {
                K::row(self.store(), self.rows[id as usize])
            }

            fn store(&self) -> K::Store<'_> {
                self.items.store::<K>(self.storage.bytes())
            }
        }

        impl<K: FlatItems, M: BoundedMetric<K::Item>> MetricIndex<K::Item> for $tree<K, M> {
            fn len(&self) -> usize {
                self.items.count
            }

            fn get(&self, id: usize) -> Option<&K::Item> {
                (id < self.items.count).then(|| self.item(id as u32))
            }

            fn range(&self, query: &K::Item, radius: f64) -> Vec<Neighbor> {
                self.search(query, Query::Range(radius), &mut NoTrace)
            }

            fn knn(&self, query: &K::Item, k: usize) -> Vec<Neighbor> {
                self.search(query, Query::Knn(k), &mut NoTrace)
            }
        }

        impl<K: FlatItems, M: BoundedMetric<K::Item>> FarthestIndex<K::Item> for $tree<K, M> {
            fn range_beyond(&self, query: &K::Item, radius: f64) -> Vec<Neighbor> {
                self.search(query, Query::Beyond(radius), &mut NoTrace)
            }

            fn k_farthest(&self, query: &K::Item, k: usize) -> Vec<Neighbor> {
                self.search(query, Query::Kfn(k), &mut NoTrace)
            }
        }

        impl<K: FlatItems, M: BoundedMetric<K::Item>> Search<K::Item> for $tree<K, M> {
            fn search<S: TraceSink>(
                &self,
                item: &K::Item,
                query: Query,
                sink: &mut S,
            ) -> Vec<Neighbor> {
                self.view().search(item, query, sink)
            }
        }

        impl<K: FlatItems, M: BoundedMetric<K::Item>> BudgetedSearch<K::Item> for $tree<K, M> {
            fn knn_budgeted(&self, query: &K::Item, k: usize, budget: SearchBudget) -> BudgetedKnn {
                self.view().knn_budgeted(query, k, budget)
            }
        }
    };
}

/// A vp-tree served directly out of snapshot bytes — a file mapping
/// ([`open_vp_tree`]) or an owned copy ([`decode_vp_tree`]).
///
/// Owns the storage and the validated spans; [`view`](Self::view)
/// assembles a borrowed [`VpTreeRef`] per query at pointer-arithmetic
/// cost. Validation (container checksums, layout bounds, params, full
/// structural invariants) ran once at load — views are built unchecked
/// afterwards. Implements [`Search`], [`MetricIndex`], [`FarthestIndex`]
/// and [`BudgetedSearch`] over the unsized item form (`[f64]`, `str`).
#[derive(Debug)]
pub struct MappedVpTree<K: FlatItems, M> {
    storage: Storage,
    params: VpTreeParams,
    root: Option<u32>,
    metric: M,
    items: ItemSpans,
    rows: Vec<u32>,
    lay: VpLayout,
    _items: PhantomData<K>,
}

loaded_tree!(MappedVpTree, VpTreeParams);

impl<K: FlatItems, M> MappedVpTree<K, M> {
    /// A borrowed tree over the snapshot bytes, ready to answer any
    /// query form bit-identically to the tree that was saved.
    pub fn view(&self) -> VpTreeRef<'_, K::Store<'_>, M> {
        VpTreeRef::new(
            self.arena(),
            self.root,
            self.store(),
            &self.rows,
            &self.metric,
        )
    }

    /// The flat node arena, borrowed from the snapshot bytes.
    pub fn arena(&self) -> VpArenaView<'_> {
        let b = self.storage.bytes();
        VpArenaView::from_raw_parts(
            self.params.order,
            mem::u32s(&b[self.lay.meta.clone()]),
            mem::u32s(&b[self.lay.vantage.clone()]),
            mem::u32s(&b[self.lay.children.clone()]),
            mem::f64s(&b[self.lay.cutoffs.clone()]),
            mem::u32s(&b[self.lay.leaf_spans.clone()]),
            mem::u32s(&b[self.lay.leaf_items.clone()]),
        )
    }
}

/// Opens a vp-tree snapshot file for zero-copy serving: the file is
/// mapped, verified once, and served in place.
///
/// # Errors
///
/// [`VantageError::Io`] for open/metadata failures, otherwise as
/// [`decode_vp_tree`].
pub fn open_vp_tree<K: FlatItems, M: MetricTag>(
    path: impl AsRef<Path>,
) -> Result<MappedVpTree<K, M>> {
    vp_from_storage(Storage::open(path.as_ref())?)
}

/// Loads a vp-tree snapshot held in memory: the bytes are copied once
/// into an owned 8-aligned buffer and served exactly like a mapped file.
///
/// # Errors
///
/// Typed [`VantageError`]s for version/kind/item/metric mismatches, any
/// form of corruption ([`VantageError::CorruptSnapshot`]), invalid
/// recorded params, and a big-endian host
/// ([`VantageError::InvalidParameter`]); never panics on malformed
/// input.
pub fn decode_vp_tree<K: FlatItems, M: MetricTag>(bytes: &[u8]) -> Result<MappedVpTree<K, M>> {
    vp_from_storage(Storage::from_bytes(bytes))
}

/// The one vp-tree load path behind [`open_vp_tree`] and
/// [`decode_vp_tree`]: validates everything, then derives the id→row
/// table from the validated arena.
fn vp_from_storage<K: FlatItems, M: MetricTag>(storage: Storage) -> Result<MappedVpTree<K, M>> {
    mem::check_little_endian()?;
    let (params, lay, items) = {
        let bytes = storage.bytes();
        let (c, items) = check_items::<K>(bytes, IndexKind::VpTree, M::TAG)?;
        let params = decode_vp_params(c.params)?;
        let lay = VpLayout::parse(c.structure, c.structure_off, params.order)?;
        (params, lay, items)
    };
    params.validate()?;
    let tree = MappedVpTree {
        storage,
        params,
        root: root_from_wire(lay.root),
        metric: M::reconstruct(),
        items,
        rows: Vec::new(),
        lay,
        _items: PhantomData,
    };
    let arena = tree.arena();
    vantage_vptree::validate_arena(arena, tree.root, tree.items.count, &tree.params)?;
    let rows = arena.id_rows(tree.items.count);
    Ok(MappedVpTree { rows, ..tree })
}

/// An mvp-tree served directly out of snapshot bytes; the
/// multi-vantage twin of [`MappedVpTree`].
#[derive(Debug)]
pub struct MappedMvpTree<K: FlatItems, M> {
    storage: Storage,
    params: MvpParams,
    root: Option<u32>,
    metric: M,
    items: ItemSpans,
    rows: Vec<u32>,
    lay: MvpLayout,
    _items: PhantomData<K>,
}

loaded_tree!(MappedMvpTree, MvpParams);

impl<K: FlatItems, M> MappedMvpTree<K, M> {
    /// A borrowed tree over the snapshot bytes.
    pub fn view(&self) -> MvpTreeRef<'_, K::Store<'_>, M> {
        MvpTreeRef::new(
            self.arena(),
            self.root,
            self.store(),
            &self.rows,
            &self.metric,
            self.params.p,
        )
    }

    /// The flat node arena, borrowed from the snapshot bytes.
    pub fn arena(&self) -> MvpArenaView<'_> {
        let b = self.storage.bytes();
        MvpArenaView::from_raw_parts(
            self.params.m,
            mem::u32s(&b[self.lay.meta.clone()]),
            mem::u32s(&b[self.lay.vp1.clone()]),
            mem::u32s(&b[self.lay.vp2.clone()]),
            mem::u32s(&b[self.lay.children.clone()]),
            mem::f64s(&b[self.lay.cutoffs1.clone()]),
            mem::f64s(&b[self.lay.cutoffs2.clone()]),
            mem::u32s(&b[self.lay.leaf_heads.clone()]),
            mem::u32s(&b[self.lay.ids.clone()]),
            mem::f64s(&b[self.lay.d1.clone()]),
            mem::f64s(&b[self.lay.d2.clone()]),
            mem::f64s(&b[self.lay.path.clone()]),
        )
    }
}

/// Opens an mvp-tree snapshot file for zero-copy serving; see
/// [`open_vp_tree`].
///
/// # Errors
///
/// As [`open_vp_tree`].
pub fn open_mvp_tree<K: FlatItems, M: MetricTag>(
    path: impl AsRef<Path>,
) -> Result<MappedMvpTree<K, M>> {
    mvp_from_storage(Storage::open(path.as_ref())?)
}

/// Loads an mvp-tree snapshot held in memory; see [`decode_vp_tree`].
///
/// # Errors
///
/// As [`decode_vp_tree`].
pub fn decode_mvp_tree<K: FlatItems, M: MetricTag>(bytes: &[u8]) -> Result<MappedMvpTree<K, M>> {
    mvp_from_storage(Storage::from_bytes(bytes))
}

/// The one mvp-tree load path; see [`vp_from_storage`].
fn mvp_from_storage<K: FlatItems, M: MetricTag>(storage: Storage) -> Result<MappedMvpTree<K, M>> {
    mem::check_little_endian()?;
    let (params, lay, items) = {
        let bytes = storage.bytes();
        let (c, items) = check_items::<K>(bytes, IndexKind::MvpTree, M::TAG)?;
        let params = decode_mvp_params(c.params)?;
        let lay = MvpLayout::parse(c.structure, c.structure_off, params.m)?;
        (params, lay, items)
    };
    params.validate()?;
    let tree = MappedMvpTree {
        storage,
        params,
        root: root_from_wire(lay.root),
        metric: M::reconstruct(),
        items,
        rows: Vec::new(),
        lay,
        _items: PhantomData,
    };
    let arena = tree.arena();
    vantage_mvptree::validate_arena(arena, tree.root, tree.items.count, &tree.params)?;
    let rows = arena.id_rows(tree.items.count);
    Ok(MappedMvpTree { rows, ..tree })
}

/// Loads a linear-scan snapshot held in memory: the items pass the same
/// checks as a tree's and are copied out, in id order, into an owned
/// [`LinearScan`] (`Vec<f64>` for [`F64Vectors`], `Vec<u8>` for
/// [`U8Vectors`], `String` for [`Utf8Strings`]).
///
/// # Errors
///
/// As [`decode_vp_tree`], plus [`VantageError::CorruptSnapshot`] when
/// the params or structure section is not empty.
pub fn decode_linear_scan<K: FlatItems, M: MetricTag>(
    bytes: &[u8],
) -> Result<LinearScan<<K::Item as ToOwned>::Owned, M>> {
    linear_from_storage::<K, M>(Storage::from_bytes(bytes))
}

/// The linear-scan load path behind [`decode_linear_scan`] and
/// [`crate::load_linear_scan`].
pub(crate) fn linear_from_storage<K: FlatItems, M: MetricTag>(
    storage: Storage,
) -> Result<LinearScan<<K::Item as ToOwned>::Owned, M>> {
    mem::check_little_endian()?;
    let bytes = storage.bytes();
    let (c, items) = check_items::<K>(bytes, IndexKind::Linear, M::TAG)?;
    if !c.params.is_empty() {
        return Err(VantageError::corrupt(
            "linear-scan snapshot carries a non-empty params section",
        ));
    }
    if !c.structure.is_empty() {
        return Err(VantageError::corrupt(
            "linear-scan snapshot carries a non-empty structure section",
        ));
    }
    let store = items.store::<K>(bytes);
    let owned = (0..items.count as u32)
        .map(|row| store.get(row).to_owned())
        .collect();
    Ok(LinearScan::new(owned, M::reconstruct()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;
    use vantage_mvptree::MvpTree;
    use vantage_vptree::VpTree;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vantage-mapped-{}-{name}", std::process::id()))
    }

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![f64::from(i as u32 % 23), f64::from(i as u32 % 7), 0.25])
            .collect()
    }

    #[test]
    fn mapped_vp_tree_answers_bit_identically() {
        let tree = VpTree::build(
            points(300),
            Euclidean,
            vantage_vptree::VpTreeParams::with_order(3)
                .leaf_capacity(4)
                .seed(11),
        )
        .unwrap();
        let path = temp_path("vp.vsnap");
        crate::save_vp_tree(&tree, &path).unwrap();

        let mapped = open_vp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        assert_eq!(mapped.len(), 300);
        let view = mapped.view();
        for q in [vec![3.0, 2.0, 0.25], vec![20.0, 6.0, 0.0]] {
            assert_eq!(view.range(q.as_slice(), 4.0), tree.range(&q, 4.0));
            assert_eq!(view.knn(q.as_slice(), 9), tree.knn(&q, 9));
            assert_eq!(
                view.range_beyond(q.as_slice(), 15.0),
                tree.range_beyond(&q, 15.0)
            );
            assert_eq!(view.k_farthest(q.as_slice(), 5), tree.k_farthest(&q, 5));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_mvp_tree_answers_bit_identically_on_strings() {
        let words: Vec<String> = [
            "carrot", "carol", "", "härlig", "caring", "carrots", "barrel",
        ]
        .iter()
        .cycle()
        .take(140)
        .enumerate()
        .map(|(i, w)| format!("{w}{}", i % 13))
        .collect();
        let tree = MvpTree::build(
            words.clone(),
            Levenshtein,
            vantage_mvptree::MvpParams::paper(2, 5, 3).seed(9),
        )
        .unwrap();
        let path = temp_path("mvp.vsnap");
        crate::save_mvp_tree(&tree, &path).unwrap();

        let mapped = open_mvp_tree::<Utf8Strings, Levenshtein>(&path).unwrap();
        let view = mapped.view();
        for q in ["carrot7", "härlig", ""] {
            let owned = q.to_string();
            assert_eq!(view.range(q, 3.0), tree.range(&owned, 3.0));
            assert_eq!(view.knn(q, 8), tree.knn(&owned, 8));
            assert_eq!(view.k_farthest(q, 4), tree.k_farthest(&owned, 4));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_tree_opens_and_answers_empty() {
        let tree = VpTree::build(
            Vec::<Vec<f64>>::new(),
            Euclidean,
            vantage_vptree::VpTreeParams::binary(),
        )
        .unwrap();
        let path = temp_path("empty.vsnap");
        crate::save_vp_tree(&tree, &path).unwrap();
        let mapped = open_vp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(mapped.view().knn([0.0].as_slice(), 3).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_checks_tags_like_decode() {
        let tree = VpTree::build(
            points(40),
            Euclidean,
            vantage_vptree::VpTreeParams::binary().seed(1),
        )
        .unwrap();
        let path = temp_path("tags.vsnap");
        crate::save_vp_tree(&tree, &path).unwrap();
        let err = open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap_err();
        assert!(
            matches!(err, VantageError::SnapshotMismatch { .. }),
            "{err}"
        );
        let err = open_vp_tree::<Utf8Strings, Levenshtein>(&path).unwrap_err();
        assert!(
            matches!(err, VantageError::SnapshotMismatch { .. }),
            "{err}"
        );
        let err = open_vp_tree::<F64Vectors, Manhattan>(&path).unwrap_err();
        assert!(
            matches!(err, VantageError::SnapshotMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counted_probe_counts_mapped_distances() {
        let tree = VpTree::build(
            points(100),
            Counted::new(Euclidean),
            vantage_vptree::VpTreeParams::binary().seed(4),
        )
        .unwrap();
        let path = temp_path("counted.vsnap");
        crate::save_vp_tree(&tree, &path).unwrap();
        let mapped = open_vp_tree::<F64Vectors, Counted<Euclidean>>(&path).unwrap();
        // validate_arena runs metric-free, but the open-time count may
        // stay zero only until the first query touches the metric.
        let before = mapped.metric().count();
        mapped.view().knn([1.0, 1.0, 0.25].as_slice(), 5);
        assert!(mapped.metric().count() > before);
        std::fs::remove_file(&path).ok();
    }
}
