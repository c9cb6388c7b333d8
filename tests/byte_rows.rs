//! Byte rows: an mvp-tree over 8-bit vectors held as `U8Rows` (and
//! mapped from a `u8-vector` snapshot) is the same tree, with the same
//! answers and the same costs, as the one over the same vectors widened
//! to `f64` and held as `F64Rows` (or mapped from an `f64-vector`
//! snapshot).
//!
//! The data is the benchmark's MRI workload: `MriConfig::paper(1)` at
//! 64×64, 1 151 images. Both builds use one seed. They must agree on
//! `build_distances` and the row order, and every RANGE (at the
//! benchmark's radius rule), KNN, KFN and BEYOND query must return the
//! same ids and distance bits with the same `DistanceTally` totals:
//! distances, abandoned count and abandoned-work bits.

use vantage::prelude::*;
use vantage_core::{F64Rows, RowStore, U8Rows};
use vantage_datasets::{synthetic_mri_images, MriConfig};
use vantage_mvptree::MvpTreeRef;
use vantage_persist::{self as persist, F64Vectors, U8Vectors};

fn mri() -> Vec<Vec<u8>> {
    let config = MriConfig {
        width: 64,
        height: 64,
        ..MriConfig::paper(1)
    };
    synthetic_mri_images(&config)
        .unwrap()
        .iter()
        .map(|img| img.pixels().to_vec())
        .collect()
}

fn widen(v: &[u8]) -> Vec<f64> {
    v.iter().map(|&b| f64::from(b)).collect()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vantage-byte-rows-{}-{name}", std::process::id()))
}

/// One query's answer (ids and distance bits) and its tally, with the
/// abandoned work as bits.
type Record = (Vec<(usize, u64)>, u64, u64, u64);

fn record(answer: Vec<Neighbor>, tally: DistanceTally) -> Record {
    let t = tally.totals();
    let bits = answer
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect();
    (
        bits,
        t.computations,
        t.abandoned,
        t.abandoned_work.to_bits(),
    )
}

/// The four query forms over one tree view, each query at every
/// parameter.
fn transcript<S, M, Q>(
    tree: &MvpTreeRef<'_, S, M>,
    queries: &[Q],
    radius: f64,
    beyond: f64,
) -> Vec<Record>
where
    S: vantage_core::ItemStore + Copy,
    M: BoundedMetric<S::Item>,
    Q: std::borrow::Borrow<S::Item>,
{
    let mut out = Vec::new();
    for q in queries {
        let q = q.borrow();
        let mut tally = DistanceTally::new();
        let mut hits = tree.search(q, Query::Range(radius), &mut tally);
        hits.sort_unstable();
        out.push(record(hits, tally));
        for k in [1, 10] {
            let mut tally = DistanceTally::new();
            out.push(record(tree.search(q, Query::Knn(k), &mut tally), tally));
        }
        let mut tally = DistanceTally::new();
        let mut far = tree.search(q, Query::Beyond(beyond), &mut tally);
        far.sort_unstable();
        out.push(record(far, tally));
        let mut tally = DistanceTally::new();
        out.push(record(tree.search(q, Query::Kfn(5), &mut tally), tally));
    }
    out
}

#[test]
fn byte_and_f64_rows_build_and_answer_alike_on_mri_images() {
    let bytes = mri();
    assert_eq!(bytes.len(), 1151);
    let wide: Vec<Vec<f64>> = bytes.iter().map(|v| widen(v)).collect();
    let n = bytes.len();
    let queries: Vec<Vec<u8>> = (0..12).map(|i| bytes[i * 97 % n].clone()).collect();
    let wide_queries: Vec<Vec<f64>> = queries.iter().map(|v| widen(v)).collect();

    // The benchmark's radius rule: the median distance to the 6th
    // nearest neighbour; BEYOND at the median 5th-farthest distance.
    let scan = LinearScan::new(wide.clone(), Manhattan);
    let median = |mut d: Vec<f64>| {
        d.sort_by(f64::total_cmp);
        d[(d.len() - 1) / 2]
    };
    let radius = median(
        wide_queries
            .iter()
            .map(|q| scan.knn(q, 6)[5].distance)
            .collect(),
    );
    let beyond = median(
        wide_queries
            .iter()
            .map(|q| scan.k_farthest(q, 5)[4].distance)
            .collect(),
    );

    let params = MvpParams::paper(3, 80, 5).seed(1);
    let f64_tree = MvpTree::with_rows(
        F64Rows::from_items(wide).unwrap(),
        Manhattan,
        params.clone(),
    )
    .unwrap();
    let u8_tree =
        MvpTree::with_rows(U8Rows::from_items(bytes).unwrap(), Manhattan, params).unwrap();
    assert_eq!(f64_tree.build_distances(), u8_tree.build_distances());
    assert!(f64_tree.arena().row_order().eq(u8_tree.arena().row_order()));

    let (f64_path, u8_path) = (temp_path("f64.vsnap"), temp_path("u8.vsnap"));
    persist::save_mvp_tree(&f64_tree, &f64_path).unwrap();
    persist::save_mvp_tree(&u8_tree, &u8_path).unwrap();
    let f64_mapped = persist::open_mvp_tree::<F64Vectors, Manhattan>(&f64_path).unwrap();
    let u8_mapped = persist::open_mvp_tree::<U8Vectors, Manhattan>(&u8_path).unwrap();
    std::fs::remove_file(&f64_path).ok();
    std::fs::remove_file(&u8_path).ok();
    assert!(u8_mapped
        .arena()
        .row_order()
        .eq(f64_mapped.arena().row_order()));

    let want = transcript(&f64_tree.as_view(), &wide_queries, radius, beyond);
    assert!(want.iter().any(|r| r.2 > 0), "some distances abandon");
    assert!(
        want.iter().any(|r| r.0.len() > 1),
        "some answers hold several neighbours"
    );
    let forms = [
        (
            "owned u8",
            transcript(&u8_tree.as_view(), &queries, radius, beyond),
        ),
        (
            "mapped f64",
            transcript(&f64_mapped.view(), &wide_queries, radius, beyond),
        ),
        (
            "mapped u8",
            transcript(&u8_mapped.view(), &queries, radius, beyond),
        ),
    ];
    for (form, got) in forms {
        assert!(got == want, "{form} differs from owned f64");
    }
}
