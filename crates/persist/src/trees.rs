//! Per-index encoding: params and structure payloads for the vp-tree,
//! mvp-tree and linear scan, plus the typed `encode_*` entry points over
//! the container format, and the params decoders and tag checks the
//! load path in [`crate::mapped`] shares.
//!
//! The structure payloads are the arenas' flat arrays written verbatim,
//! so encoding is a handful of `memcpy`-shaped appends, and loading
//! reinterprets the same arrays in place. Tree items are written in the
//! tree's row order (see [`crate::format`]), exactly as the tree stores
//! them.

use vantage_core::parallel::Threads;
use vantage_core::select::VantageSelector;
use vantage_core::{LinearScan, Result, VantageError};
use vantage_mvptree::params::{MvpParams, SecondVantage};
use vantage_mvptree::MvpTree;
use vantage_vptree::{VpTree, VpTreeParams};

use crate::codec::{ItemCodec, MetricTag};
use crate::format::{
    assemble, items_payload_offset, structure_payload_offset, Container, IndexKind,
};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_linear_scan, decode_mvp_tree, decode_vp_tree, F64Vectors, Utf8Strings};
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
        let back = decode_vp_tree::<F64Vectors, Euclidean>(&encode_vp_tree(&tree)).unwrap();
        assert_eq!(back.params(), tree.params());
        assert_eq!(back.root(), tree.root());
        let (a, b) = (back.arena(), tree.arena());
        assert_eq!(a.meta(), b.meta());
        assert_eq!(a.vantage(), b.vantage());
        assert_eq!(a.children(), b.children());
        assert_eq!(a.cutoffs(), b.cutoffs());
        assert_eq!(a.leaf_spans(), b.leaf_spans());
        assert_eq!(a.leaf_items(), b.leaf_items());
        assert!(a.row_order().map(|id| back.item(id)).eq(tree.row_items()));
        let q = [3.0, 2.0];
        assert_eq!(back.view().range(&q, 2.5), tree.range(&q.to_vec(), 2.5));
    }

    #[test]
    fn mvp_tree_snapshot_round_trips() {
        let tree =
            MvpTree::build(points(200), Euclidean, MvpParams::paper(3, 6, 4).seed(2)).unwrap();
        let back = decode_mvp_tree::<F64Vectors, Euclidean>(&encode_mvp_tree(&tree)).unwrap();
        assert_eq!(back.params(), tree.params());
        assert_eq!(back.root(), tree.root());
        let (a, b) = (back.arena(), tree.arena());
        assert_eq!(a.meta(), b.meta());
        assert_eq!((a.vp1(), a.vp2()), (b.vp1(), b.vp2()));
        assert_eq!(a.children(), b.children());
        assert_eq!((a.cutoffs1(), a.cutoffs2()), (b.cutoffs1(), b.cutoffs2()));
        assert_eq!((a.leaf_heads(), a.ids()), (b.leaf_heads(), b.ids()));
        assert_eq!((a.d1(), a.d2(), a.path()), (b.d1(), b.d2(), b.path()));
        assert!(a.row_order().map(|id| back.item(id)).eq(tree.row_items()));
        let q = [8.0, 1.0];
        assert_eq!(back.view().knn(&q, 6), tree.knn(&q.to_vec(), 6));
    }

    #[test]
    fn linear_scan_snapshot_round_trips() {
        let scan = LinearScan::new(
            vec!["carrot".to_string(), "carol".to_string(), "".to_string()],
            Levenshtein,
        );
        let bytes = encode_linear_scan(&scan);
        let back = decode_linear_scan::<Utf8Strings, Levenshtein>(&bytes).unwrap();
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
        let err = decode_mvp_tree::<F64Vectors, Euclidean>(&bytes).unwrap_err();
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
        let err = decode_vp_tree::<F64Vectors, Manhattan>(&bytes).unwrap_err();
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
        let err = decode_linear_scan::<Utf8Strings, Levenshtein>(&bytes).unwrap_err();
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
        let back = decode_vp_tree::<F64Vectors, Counted<Euclidean>>(&bytes).unwrap();
        assert_eq!(back.metric().count(), 0);
        let plain = decode_vp_tree::<F64Vectors, Euclidean>(&bytes).unwrap();
        let q = [4.0, 1.0];
        assert_eq!(plain.view().knn(&q, 5), back.view().knn(&q, 5));
        assert!(back.metric().count() > 0);
    }

    /// Assembles an empty-tree container whose CRCs are all valid but
    /// whose params fail `validate()`.
    fn invalid_params_container(
        kind: IndexKind,
        params: &[u8],
        structure: impl Fn(usize) -> Vec<u8>,
    ) -> Vec<u8> {
        let items_off = items_payload_offset(<Euclidean as MetricTag>::TAG.len(), params.len());
        let items = <Vec<f64>>::encode_section(&[], items_off);
        let structure = structure(structure_payload_offset(items_off, items.len()));
        let tag = <Vec<f64> as ItemCodec>::TAG;
        assemble(kind, tag, "l2", 0, params, &items, &structure)
    }

    #[test]
    fn invalid_params_are_refused_by_every_load_path() {
        let vp = VpTree::build(Vec::<Vec<f64>>::new(), Euclidean, VpTreeParams::binary()).unwrap();
        let mvp = MvpTree::build(Vec::<Vec<f64>>::new(), Euclidean, MvpParams::default()).unwrap();
        let vp_params = VpTreeParams {
            leaf_capacity: 0,
            ..VpTreeParams::binary()
        };
        let mvp_params = MvpParams {
            k: 0,
            ..MvpParams::default()
        };
        let vp_bytes =
            invalid_params_container(IndexKind::VpTree, &encode_vp_params(&vp_params), |base| {
                encode_vp_structure(&vp, base)
            });
        let mvp_bytes = invalid_params_container(
            IndexKind::MvpTree,
            &encode_mvp_params(&mvp_params),
            |base| encode_mvp_structure(&mvp, base),
        );
        let invalid = |r: Result<()>| match r {
            Err(VantageError::InvalidParameter { .. }) => {}
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        invalid(decode_vp_tree::<F64Vectors, Euclidean>(&vp_bytes).map(drop));
        invalid(decode_mvp_tree::<F64Vectors, Euclidean>(&mvp_bytes).map(drop));
        let path = std::env::temp_dir().join(format!(
            "vantage-trees-invalid-params-{}.vsnap",
            std::process::id()
        ));
        std::fs::write(&path, &vp_bytes).unwrap();
        invalid(crate::open_vp_tree::<F64Vectors, Euclidean>(&path).map(drop));
        std::fs::write(&path, &mvp_bytes).unwrap();
        invalid(crate::open_mvp_tree::<F64Vectors, Euclidean>(&path).map(drop));
        std::fs::remove_file(&path).ok();
    }
}
