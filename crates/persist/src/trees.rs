//! Per-index encoding and decoding: params and structure payloads for
//! the vp-tree, mvp-tree and linear scan, plus the typed
//! `encode_*`/`decode_*` entry points over the container format.
//!
//! Decoding never trusts the payload: the shared [`crate::layout`]
//! parser bounds-checks every declared count against the bytes actually
//! present (a fabricated count cannot trigger a large allocation), and
//! the final `from_arena` validation re-checks every structural
//! invariant before a tree is handed back. The structure payloads are
//! the arenas' flat arrays written verbatim, so encoding is a handful
//! of `memcpy`-shaped appends and decoding is the reverse — no per-node
//! record walking on either side. Tree items are written in the tree's
//! row order (see [`crate::format`]), exactly as the tree stores them.

use vantage_core::parallel::Threads;
use vantage_core::select::VantageSelector;
use vantage_core::{LinearScan, Result, VantageError};
use vantage_mvptree::params::{MvpParams, SecondVantage};
use vantage_mvptree::{MvpArena, MvpTree};
use vantage_vptree::{VpArena, VpTree, VpTreeParams};

use crate::codec::{ItemCodec, MetricTag};
use crate::format::{
    assemble, items_payload_offset, parse, structure_payload_offset, Container, IndexKind,
};
use crate::layout::{self, MvpLayout, VpLayout};
use crate::wire::{Cursor, Out};

/// Human-readable name for an item-encoding tag (known or not).
pub(crate) fn item_tag_name(tag: u8) -> String {
    match tag {
        t if t == <Vec<f64> as ItemCodec>::TAG => <Vec<f64> as ItemCodec>::NAME.to_string(),
        t if t == <String as ItemCodec>::TAG => <String as ItemCodec>::NAME.to_string(),
        other => format!("unknown item tag {other}"),
    }
}

/// Checks a parsed container against the expected kind/item/metric tags.
pub(crate) fn check_tags(
    c: &Container<'_>,
    expect: IndexKind,
    item_tag: u8,
    item_name: &'static str,
    metric_tag: &'static str,
) -> Result<()> {
    if c.kind != expect {
        return Err(VantageError::mismatch(
            "index kind",
            c.kind.name(),
            expect.name(),
        ));
    }
    if c.item_tag != item_tag {
        return Err(VantageError::mismatch(
            "item type",
            item_tag_name(c.item_tag),
            item_name,
        ));
    }
    if c.metric != metric_tag {
        return Err(VantageError::mismatch("metric", &c.metric, metric_tag));
    }
    Ok(())
}

fn check_typed<T: ItemCodec, M: MetricTag>(c: &Container<'_>, expect: IndexKind) -> Result<()> {
    check_tags(c, expect, T::TAG, T::NAME, M::TAG)
}

/// `root` wire form: node ids stay below 2³¹, so `u32::MAX` is a free
/// sentinel for the empty tree.
pub(crate) fn root_to_wire(root: Option<u32>) -> u32 {
    root.unwrap_or(u32::MAX)
}

/// Inverse of [`root_to_wire`].
pub(crate) fn root_from_wire(raw: u32) -> Option<u32> {
    (raw != u32::MAX).then_some(raw)
}

// ---------------------------------------------------------------- shared

fn put_selector(out: &mut Out, sel: VantageSelector) {
    match sel {
        VantageSelector::Random => out.u8(0),
        VantageSelector::FirstItem => out.u8(1),
        VantageSelector::SampledSpread { candidates, sample } => {
            out.u8(2);
            out.usize(candidates);
            out.usize(sample);
        }
    }
}

fn get_selector(cur: &mut Cursor<'_>) -> Result<VantageSelector> {
    match cur.u8("selector tag")? {
        0 => Ok(VantageSelector::Random),
        1 => Ok(VantageSelector::FirstItem),
        2 => Ok(VantageSelector::SampledSpread {
            candidates: cur.usize_scalar("selector candidates")?,
            sample: cur.usize_scalar("selector sample")?,
        }),
        tag => Err(VantageError::corrupt(format!("unknown selector tag {tag}"))),
    }
}

fn put_threads(out: &mut Out, threads: Threads) {
    match threads {
        Threads::Auto => out.u8(0),
        Threads::Fixed(n) => {
            out.u8(1);
            out.usize(n);
        }
    }
}

fn get_threads(cur: &mut Cursor<'_>) -> Result<Threads> {
    match cur.u8("threads tag")? {
        0 => Ok(Threads::Auto),
        1 => Ok(Threads::Fixed(cur.usize_scalar("threads count")?)),
        tag => Err(VantageError::corrupt(format!("unknown threads tag {tag}"))),
    }
}

// --------------------------------------------------------------- vp-tree

fn encode_vp_params(params: &VpTreeParams) -> Vec<u8> {
    let mut out = Out::new();
    out.usize(params.order);
    out.usize(params.leaf_capacity);
    put_selector(&mut out, params.selector);
    out.u64(params.seed);
    put_threads(&mut out, params.threads);
    out.0
}

pub(crate) fn decode_vp_params(payload: &[u8]) -> Result<VpTreeParams> {
    let mut cur = Cursor::new(payload);
    let params = VpTreeParams {
        order: cur.usize_scalar("order")?,
        leaf_capacity: cur.usize_scalar("leaf capacity")?,
        selector: get_selector(&mut cur)?,
        seed: cur.u64("seed")?,
        threads: get_threads(&mut cur)?,
    };
    cur.finish("params section")?;
    Ok(params)
}

fn encode_vp_structure<T, M>(tree: &VpTree<T, M>, base: usize) -> Vec<u8> {
    let a = tree.arena();
    let mut out = Out::new();
    out.align8(base);
    out.u32(root_to_wire(tree.root()));
    out.u32(a.len() as u32);
    out.u32(a.internal_count() as u32);
    out.u32(a.leaf_count() as u32);
    out.u32(a.leaf_items().len() as u32);
    out.u32s(a.meta());
    out.u32s(a.vantage());
    out.u32s(a.children());
    out.u32s(a.leaf_spans());
    out.u32s(a.leaf_items());
    out.align8(base);
    out.f64s(a.cutoffs());
    out.0
}

fn decode_vp_structure(
    payload: &[u8],
    base: usize,
    order: usize,
) -> Result<(Option<u32>, VpArena)> {
    let lay = VpLayout::parse(payload, base, order)?;
    let arena = VpArena::from_raw_arrays(
        order as u32,
        layout::u32s_in(payload, &lay.meta),
        layout::u32s_in(payload, &lay.vantage),
        layout::u32s_in(payload, &lay.children),
        layout::f64s_in(payload, &lay.cutoffs),
        layout::u32s_in(payload, &lay.leaf_spans),
        layout::u32s_in(payload, &lay.leaf_items),
    );
    Ok((root_from_wire(lay.root), arena))
}

/// Encodes a vp-tree into a complete snapshot byte buffer.
pub fn encode_vp_tree<T: ItemCodec, M: MetricTag>(tree: &VpTree<T, M>) -> Vec<u8> {
    let params = encode_vp_params(tree.params());
    let items_off = items_payload_offset(M::TAG.len(), params.len());
    let items = T::encode_section(tree.row_items(), items_off);
    let structure_off = structure_payload_offset(items_off, items.len());
    let structure = encode_vp_structure(tree, structure_off);
    assemble(
        IndexKind::VpTree,
        T::TAG,
        M::TAG,
        tree.row_items().len() as u64,
        &params,
        &items,
        &structure,
    )
}

/// Decodes (and fully validates) a vp-tree snapshot.
///
/// # Errors
///
/// Typed [`VantageError`]s for version/kind/item/metric mismatches and
/// any form of corruption; never panics on malformed input.
pub fn decode_vp_tree<T: ItemCodec, M: MetricTag>(bytes: &[u8]) -> Result<VpTree<T, M>> {
    let c = parse(bytes)?;
    check_typed::<T, M>(&c, IndexKind::VpTree)?;
    let params = decode_vp_params(c.params)?;
    let items = T::decode_section(c.items, c.items_off, c.count)?;
    let (root, arena) = decode_vp_structure(c.structure, c.structure_off, params.order)?;
    VpTree::from_arena(items, M::reconstruct(), params, root, arena)
}

// -------------------------------------------------------------- mvp-tree

fn encode_mvp_params(params: &MvpParams) -> Vec<u8> {
    let mut out = Out::new();
    out.usize(params.m);
    out.usize(params.k);
    out.usize(params.p);
    put_selector(&mut out, params.selector);
    out.u8(match params.second {
        SecondVantage::Farthest => 0,
        SecondVantage::Random => 1,
    });
    out.u64(params.seed);
    put_threads(&mut out, params.threads);
    out.0
}

pub(crate) fn decode_mvp_params(payload: &[u8]) -> Result<MvpParams> {
    let mut cur = Cursor::new(payload);
    let params = MvpParams {
        m: cur.usize_scalar("m")?,
        k: cur.usize_scalar("k")?,
        p: cur.usize_scalar("p")?,
        selector: get_selector(&mut cur)?,
        second: match cur.u8("second-vantage tag")? {
            0 => SecondVantage::Farthest,
            1 => SecondVantage::Random,
            tag => {
                return Err(VantageError::corrupt(format!(
                    "unknown second-vantage tag {tag}"
                )))
            }
        },
        seed: cur.u64("seed")?,
        threads: get_threads(&mut cur)?,
    };
    cur.finish("params section")?;
    Ok(params)
}

fn encode_mvp_structure<T, M>(tree: &MvpTree<T, M>, base: usize) -> Vec<u8> {
    let a = tree.arena();
    let mut out = Out::new();
    out.align8(base);
    out.u64(a.path().len() as u64);
    out.u32(root_to_wire(tree.root()));
    out.u32(a.len() as u32);
    out.u32(a.internal_count() as u32);
    out.u32(a.leaf_count() as u32);
    out.u32(a.ids().len() as u32);
    out.u32s(a.meta());
    out.u32s(a.vp1());
    out.u32s(a.vp2());
    out.u32s(a.children());
    out.u32s(a.leaf_heads());
    out.u32s(a.ids());
    out.align8(base);
    out.f64s(a.cutoffs1());
    out.f64s(a.cutoffs2());
    out.f64s(a.d1());
    out.f64s(a.d2());
    out.f64s(a.path());
    out.0
}

fn decode_mvp_structure(payload: &[u8], base: usize, m: usize) -> Result<(Option<u32>, MvpArena)> {
    let lay = MvpLayout::parse(payload, base, m)?;
    let arena = MvpArena::from_raw_arrays(
        m as u32,
        layout::u32s_in(payload, &lay.meta),
        layout::u32s_in(payload, &lay.vp1),
        layout::u32s_in(payload, &lay.vp2),
        layout::u32s_in(payload, &lay.children),
        layout::f64s_in(payload, &lay.cutoffs1),
        layout::f64s_in(payload, &lay.cutoffs2),
        layout::u32s_in(payload, &lay.leaf_heads),
        layout::u32s_in(payload, &lay.ids),
        layout::f64s_in(payload, &lay.d1),
        layout::f64s_in(payload, &lay.d2),
        layout::f64s_in(payload, &lay.path),
    );
    Ok((root_from_wire(lay.root), arena))
}

/// Encodes an mvp-tree into a complete snapshot byte buffer.
pub fn encode_mvp_tree<T: ItemCodec, M: MetricTag>(tree: &MvpTree<T, M>) -> Vec<u8> {
    let params = encode_mvp_params(tree.params());
    let items_off = items_payload_offset(M::TAG.len(), params.len());
    let items = T::encode_section(tree.row_items(), items_off);
    let structure_off = structure_payload_offset(items_off, items.len());
    let structure = encode_mvp_structure(tree, structure_off);
    assemble(
        IndexKind::MvpTree,
        T::TAG,
        M::TAG,
        tree.row_items().len() as u64,
        &params,
        &items,
        &structure,
    )
}

/// Decodes (and fully validates) an mvp-tree snapshot.
///
/// # Errors
///
/// Typed [`VantageError`]s for version/kind/item/metric mismatches and
/// any form of corruption; never panics on malformed input.
pub fn decode_mvp_tree<T: ItemCodec, M: MetricTag>(bytes: &[u8]) -> Result<MvpTree<T, M>> {
    let c = parse(bytes)?;
    check_typed::<T, M>(&c, IndexKind::MvpTree)?;
    let params = decode_mvp_params(c.params)?;
    let items = T::decode_section(c.items, c.items_off, c.count)?;
    let (root, arena) = decode_mvp_structure(c.structure, c.structure_off, params.m)?;
    MvpTree::from_arena(items, M::reconstruct(), params, root, arena)
}

// ---------------------------------------------------------- linear scan

/// Encodes a linear scan into a complete snapshot byte buffer (the
/// params and structure sections are empty — a scan is just its items).
pub fn encode_linear_scan<T: ItemCodec, M: MetricTag>(scan: &LinearScan<T, M>) -> Vec<u8> {
    let items_off = items_payload_offset(M::TAG.len(), 0);
    let items = T::encode_section(scan.items(), items_off);
    assemble(
        IndexKind::Linear,
        T::TAG,
        M::TAG,
        scan.items().len() as u64,
        &[],
        &items,
        &[],
    )
}

/// Decodes (and fully validates) a linear-scan snapshot.
///
/// # Errors
///
/// Typed [`VantageError`]s for version/kind/item/metric mismatches and
/// any form of corruption; never panics on malformed input.
pub fn decode_linear_scan<T: ItemCodec, M: MetricTag>(bytes: &[u8]) -> Result<LinearScan<T, M>> {
    let c = parse(bytes)?;
    check_typed::<T, M>(&c, IndexKind::Linear)?;
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
    let items = T::decode_section(c.items, c.items_off, c.count)?;
    Ok(LinearScan::new(items, M::reconstruct()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![f64::from(i as u32 % 17), f64::from(i as u32 % 5)])
            .collect()
    }

    #[test]
    fn vp_tree_snapshot_round_trips() {
        let tree = VpTree::build(
            points(150),
            Euclidean,
            vantage_vptree::VpTreeParams::with_order(3)
                .leaf_capacity(4)
                .seed(5),
        )
        .unwrap();
        let bytes = encode_vp_tree(&tree);
        let back: VpTree<Vec<f64>, Euclidean> = decode_vp_tree(&bytes).unwrap();
        assert_eq!(encode_vp_tree(&back), bytes);
        assert_eq!(back.row_items(), tree.row_items());
        assert!(back.items_by_id().eq(tree.items_by_id()));
        let q = vec![3.0, 2.0];
        assert_eq!(back.range(&q, 2.5), tree.range(&q, 2.5));
    }

    #[test]
    fn mvp_tree_snapshot_round_trips() {
        let tree =
            MvpTree::build(points(200), Euclidean, MvpParams::paper(3, 6, 4).seed(2)).unwrap();
        let bytes = encode_mvp_tree(&tree);
        let back: MvpTree<Vec<f64>, Euclidean> = decode_mvp_tree(&bytes).unwrap();
        assert_eq!(encode_mvp_tree(&back), bytes);
        assert_eq!(back.row_items(), tree.row_items());
        assert!(back.items_by_id().eq(tree.items_by_id()));
        let q = vec![8.0, 1.0];
        assert_eq!(back.knn(&q, 6), tree.knn(&q, 6));
    }

    #[test]
    fn linear_scan_snapshot_round_trips() {
        let scan = LinearScan::new(
            vec!["carrot".to_string(), "carol".to_string(), "".to_string()],
            Levenshtein,
        );
        let bytes = encode_linear_scan(&scan);
        let back: LinearScan<String, Levenshtein> = decode_linear_scan(&bytes).unwrap();
        assert_eq!(back.items(), scan.items());
        let hits = back.range(&"carrots".to_string(), 2.0);
        assert_eq!(hits, scan.range(&"carrots".to_string(), 2.0));
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let tree = VpTree::build(
            points(30),
            Euclidean,
            vantage_vptree::VpTreeParams::binary(),
        )
        .unwrap();
        let bytes = encode_vp_tree(&tree);
        let err = decode_mvp_tree::<Vec<f64>, Euclidean>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                VantageError::SnapshotMismatch {
                    field: "index kind",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn metric_mismatch_is_typed() {
        let tree = VpTree::build(
            points(30),
            Euclidean,
            vantage_vptree::VpTreeParams::binary(),
        )
        .unwrap();
        let bytes = encode_vp_tree(&tree);
        let err = decode_vp_tree::<Vec<f64>, Manhattan>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                VantageError::SnapshotMismatch {
                    field: "metric",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn item_type_mismatch_is_typed() {
        let scan = LinearScan::new(points(10), Euclidean);
        let bytes = encode_linear_scan(&scan);
        let err = decode_linear_scan::<String, Levenshtein>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                VantageError::SnapshotMismatch {
                    field: "item type",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn counted_wrapper_is_snapshot_transparent() {
        // A tree built with Counted<L2> and one built with plain L2 have
        // the same metric tag; loading either as Counted starts counting
        // from zero.
        let tree = VpTree::build(
            points(60),
            Counted::new(Euclidean),
            vantage_vptree::VpTreeParams::binary().seed(1),
        )
        .unwrap();
        let bytes = encode_vp_tree(&tree);
        let back: VpTree<Vec<f64>, Counted<Euclidean>> = decode_vp_tree(&bytes).unwrap();
        assert_eq!(back.metric().count(), 0);
        let plain: VpTree<Vec<f64>, Euclidean> = decode_vp_tree(&bytes).unwrap();
        assert_eq!(encode_vp_tree(&plain), bytes);
        assert_eq!(encode_vp_tree(&back), bytes);
    }
}
