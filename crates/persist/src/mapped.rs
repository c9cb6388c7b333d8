//! Zero-copy snapshot serving: `open(2)` → answer queries, no
//! materialization.
//!
//! The `decode_*` loaders copy every section into owned `Vec`s and
//! rebuild an owned tree — `O(file)` allocation and copying before the
//! first query can run. The `open_*` loaders in this module map the
//! snapshot file instead ([`crate::mem`]), run the exact same
//! container, layout and structural validation **once**, and then keep
//! only byte ranges: a [`MappedVpTree`] / [`MappedMvpTree`] is the
//! storage plus a handful of `Range<usize>` spans. Each query builds a
//! borrowed [`VpTreeRef`] / [`MvpTreeRef`] directly over the mapped
//! bytes — the same kernels the owned trees run, so answers are
//! bit-identical to the `decode_*` path, but cold start is `O(header +
//! validation)` and the page cache, not the heap, holds the data.
//!
//! Tree items are mapped in the row order the file stores them in (see
//! [`crate::format`]) and never permuted at load — a second copy would
//! double a server's resident memory. The only per-item heap state is
//! the id→row table (4 bytes per item), derived from the validated
//! arena in one O(n) pass at open.
//!
//! Item access is typed through [`FlatItems`]: [`F64Vectors`] serves
//! `[f64]` slices out of the mapped value buffer, [`Utf8Strings`]
//! serves `&str` out of the mapped text (validated as UTF-8 once at
//! open). Queries therefore take unsized borrows (`&[f64]`, `&str`) —
//! every workspace metric implements both the sized and unsized item
//! forms.

use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

use vantage_core::{FlatF64s, FlatStrs, ItemStore, Result, VantageError};
use vantage_mvptree::{MvpArenaView, MvpParams, MvpTreeRef};
use vantage_vptree::{VpArenaView, VpTreeParams, VpTreeRef};

use crate::codec::{ItemCodec, MetricTag};
use crate::format::{parse, IndexKind};
use crate::layout::{ItemsLayout, MvpLayout, VpLayout};
use crate::mem::{self, Storage};
use crate::trees::{check_tags, decode_mvp_params, decode_vp_params, root_from_wire};

/// An item encoding that can be served in place from mapped snapshot
/// bytes.
///
/// This is the zero-copy counterpart of [`ItemCodec`]: same tags, same
/// payload layout, but instead of materializing owned values it builds
/// a borrowed [`ItemStore`] over the validated offset and data spans.
pub trait FlatItems {
    /// Unsized item form queries borrow (`[f64]`, `str`).
    type Item: ?Sized;
    /// The borrowed store built over mapped spans.
    type Store<'a>: ItemStore<Item = Self::Item> + Copy;
    /// Item-encoding tag — matches the [`ItemCodec`] twin.
    const TAG: u8;
    /// Encoding name for mismatch errors.
    const NAME: &'static str;
    /// Bytes per data element (8 for `f64`, 1 for UTF-8 bytes).
    const ELEM: usize;
    /// Open-time validation of the raw data region beyond what the
    /// layout parser checks (e.g. UTF-8 well-formedness).
    ///
    /// # Errors
    ///
    /// [`VantageError::CorruptSnapshot`] when the data region cannot
    /// back this encoding.
    fn check(data: &[u8], offsets: &[u64]) -> Result<()>;
    /// Builds the borrowed store over validated spans.
    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> Self::Store<'a>;
}

/// Marker: snapshot items are `f64` vectors, served as `&[f64]`.
#[derive(Debug)]
pub enum F64Vectors {}

impl FlatItems for F64Vectors {
    type Item = [f64];
    type Store<'a> = FlatF64s<'a>;
    const TAG: u8 = <Vec<f64> as ItemCodec>::TAG;
    const NAME: &'static str = <Vec<f64> as ItemCodec>::NAME;
    const ELEM: usize = 8;

    fn check(_data: &[u8], _offsets: &[u64]) -> Result<()> {
        // Every aligned 8-byte span is a valid f64; the layout parser
        // already verified sizes and fences.
        Ok(())
    }

    fn store<'a>(offsets: &'a [u64], data: &'a [u8]) -> FlatF64s<'a> {
        FlatF64s::new(offsets, mem::f64s(data))
    }
}

/// Marker: snapshot items are UTF-8 strings, served as `&str`.
#[derive(Debug)]
pub enum Utf8Strings {}

impl FlatItems for Utf8Strings {
    type Item = str;
    type Store<'a> = FlatStrs<'a>;
    const TAG: u8 = <String as ItemCodec>::TAG;
    const NAME: &'static str = <String as ItemCodec>::NAME;
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
}

/// Shifts a payload-relative span to an absolute file span.
fn rebase(r: &Range<usize>, off: usize) -> Range<usize> {
    r.start + off..r.end + off
}

/// Open-time item plumbing shared by both trees: container parse, tag
/// checks, item layout and encoding validation. Returns the decoded
/// params bytes plus absolute item spans; the caller parses its own
/// structure payload inside the same borrow of `bytes`.
struct ItemSpans {
    count: usize,
    offsets: Range<usize>,
    data: Range<usize>,
}

fn check_items<'a, K: FlatItems>(
    bytes: &'a [u8],
    kind: IndexKind,
    metric_tag: &'static str,
) -> Result<(crate::format::Container<'a>, ItemSpans)> {
    let c = parse(bytes)?;
    check_tags(&c, kind, K::TAG, K::NAME, metric_tag)?;
    let ilay = ItemsLayout::parse(c.items, c.items_off, c.count, K::ELEM)?;
    K::check(&c.items[ilay.data.clone()], &ilay.offsets)?;
    let spans = ItemSpans {
        count: ilay.count,
        offsets: rebase(&ilay.offsets_bytes, c.items_off),
        data: rebase(&ilay.data, c.items_off),
    };
    Ok((c, spans))
}

/// A vp-tree served directly out of a mapped snapshot file.
///
/// Owns the storage and the validated spans; [`view`](Self::view)
/// assembles a borrowed [`VpTreeRef`] per query at pointer-arithmetic
/// cost. Validation (container checksums, layout bounds, full
/// structural invariants) ran once inside [`open_vp_tree`] — views are
/// built unchecked afterwards.
#[derive(Debug)]
pub struct MappedVpTree<K: FlatItems, M> {
    storage: Storage,
    params: VpTreeParams,
    root: Option<u32>,
    metric: M,
    count: usize,
    item_offsets: Range<usize>,
    item_data: Range<usize>,
    rows: Vec<u32>,
    lay: VpLayout,
    _items: PhantomData<K>,
}

impl<K: FlatItems, M> MappedVpTree<K, M> {
    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the snapshot indexes no items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Construction parameters recorded in the snapshot.
    pub fn params(&self) -> &VpTreeParams {
        &self.params
    }

    /// The reconstructed metric (shared by every view).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Whether the backing storage is an actual `mmap` (vs the owned
    /// read fallback on platforms or files that refuse mapping).
    pub fn is_mapped(&self) -> bool {
        self.storage.is_mapped()
    }

    /// A borrowed tree over the mapped bytes, ready to answer any
    /// query form bit-identically to the materialized tree.
    pub fn view(&self) -> VpTreeRef<'_, K::Store<'_>, M> {
        VpTreeRef::new(
            self.arena(),
            self.root,
            self.store(),
            &self.rows,
            &self.metric,
        )
    }

    fn store(&self) -> K::Store<'_> {
        let b = self.storage.bytes();
        K::store(
            mem::u64s(&b[self.item_offsets.clone()]),
            &b[self.item_data.clone()],
        )
    }

    fn arena(&self) -> VpArenaView<'_> {
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

/// Opens a vp-tree snapshot for zero-copy serving.
///
/// Runs the full verification pipeline once — container checksums,
/// typed tag checks, layout bounds, item encoding checks and the tree
/// crates' complete `validate_arena` — then derives the id→row table
/// from the validated arena and returns a handle that builds borrowed
/// views without touching the bulk of the file again.
///
/// # Errors
///
/// The same typed errors as [`crate::decode_vp_tree`] plus
/// [`VantageError::Io`] for open/metadata failures and
/// [`VantageError::InvalidParameter`] on big-endian hosts.
pub fn open_vp_tree<K: FlatItems, M: MetricTag>(
    path: impl AsRef<Path>,
) -> Result<MappedVpTree<K, M>> {
    mem::check_little_endian()?;
    let storage = Storage::open(path.as_ref())?;
    let (params, root, lay, spans) = {
        let bytes = storage.bytes();
        let (c, spans) = check_items::<K>(bytes, IndexKind::VpTree, M::TAG)?;
        let params = decode_vp_params(c.params)?;
        let slay = VpLayout::parse(c.structure, c.structure_off, params.order)?;
        let lay = VpLayout {
            root: slay.root,
            meta: rebase(&slay.meta, c.structure_off),
            vantage: rebase(&slay.vantage, c.structure_off),
            children: rebase(&slay.children, c.structure_off),
            leaf_spans: rebase(&slay.leaf_spans, c.structure_off),
            leaf_items: rebase(&slay.leaf_items, c.structure_off),
            cutoffs: rebase(&slay.cutoffs, c.structure_off),
        };
        (params, root_from_wire(slay.root), lay, spans)
    };
    let tree = MappedVpTree {
        storage,
        params,
        root,
        metric: M::reconstruct(),
        count: spans.count,
        item_offsets: spans.offsets,
        item_data: spans.data,
        rows: Vec::new(),
        lay,
        _items: PhantomData,
    };
    let arena = tree.arena();
    vantage_vptree::validate_arena(arena, root, tree.count, &tree.params)?;
    let rows = arena.id_rows(tree.count);
    Ok(MappedVpTree { rows, ..tree })
}

/// An mvp-tree served directly out of a mapped snapshot file; the
/// multi-vantage twin of [`MappedVpTree`].
#[derive(Debug)]
pub struct MappedMvpTree<K: FlatItems, M> {
    storage: Storage,
    params: MvpParams,
    root: Option<u32>,
    metric: M,
    count: usize,
    item_offsets: Range<usize>,
    item_data: Range<usize>,
    rows: Vec<u32>,
    lay: MvpLayout,
    _items: PhantomData<K>,
}

impl<K: FlatItems, M> MappedMvpTree<K, M> {
    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the snapshot indexes no items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Construction parameters recorded in the snapshot.
    pub fn params(&self) -> &MvpParams {
        &self.params
    }

    /// The reconstructed metric (shared by every view).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Whether the backing storage is an actual `mmap`.
    pub fn is_mapped(&self) -> bool {
        self.storage.is_mapped()
    }

    /// A borrowed tree over the mapped bytes.
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

    fn store(&self) -> K::Store<'_> {
        let b = self.storage.bytes();
        K::store(
            mem::u64s(&b[self.item_offsets.clone()]),
            &b[self.item_data.clone()],
        )
    }

    fn arena(&self) -> MvpArenaView<'_> {
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

/// Opens an mvp-tree snapshot for zero-copy serving; see
/// [`open_vp_tree`] for the verification pipeline and error contract.
///
/// # Errors
///
/// As [`open_vp_tree`], against [`crate::decode_mvp_tree`]'s checks.
pub fn open_mvp_tree<K: FlatItems, M: MetricTag>(
    path: impl AsRef<Path>,
) -> Result<MappedMvpTree<K, M>> {
    mem::check_little_endian()?;
    let storage = Storage::open(path.as_ref())?;
    let (params, root, lay, spans) = {
        let bytes = storage.bytes();
        let (c, spans) = check_items::<K>(bytes, IndexKind::MvpTree, M::TAG)?;
        let params = decode_mvp_params(c.params)?;
        let slay = MvpLayout::parse(c.structure, c.structure_off, params.m)?;
        let lay = MvpLayout {
            root: slay.root,
            meta: rebase(&slay.meta, c.structure_off),
            vp1: rebase(&slay.vp1, c.structure_off),
            vp2: rebase(&slay.vp2, c.structure_off),
            children: rebase(&slay.children, c.structure_off),
            leaf_heads: rebase(&slay.leaf_heads, c.structure_off),
            ids: rebase(&slay.ids, c.structure_off),
            cutoffs1: rebase(&slay.cutoffs1, c.structure_off),
            cutoffs2: rebase(&slay.cutoffs2, c.structure_off),
            d1: rebase(&slay.d1, c.structure_off),
            d2: rebase(&slay.d2, c.structure_off),
            path: rebase(&slay.path, c.structure_off),
        };
        (params, root_from_wire(slay.root), lay, spans)
    };
    let tree = MappedMvpTree {
        storage,
        params,
        root,
        metric: M::reconstruct(),
        count: spans.count,
        item_offsets: spans.offsets,
        item_data: spans.data,
        rows: Vec::new(),
        lay,
        _items: PhantomData,
    };
    let arena = tree.arena();
    vantage_mvptree::validate_arena(arena, root, tree.count, &tree.params)?;
    let rows = arena.id_rows(tree.count);
    Ok(MappedMvpTree { rows, ..tree })
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
