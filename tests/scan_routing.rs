//! Scan routing: a kNN query answered by a scan of the mvp-tree's own
//! row-ordered item store, and the per-bucket calibration that decides
//! when to answer that way.
//!
//! The scan ([`MvpTreeRef::knn_scan`]) must answer every query
//! bit for bit as the tree's descent and a `LinearScan` do — ids and
//! distance bits — for `k` from 0 past `n`, on owned and mapped trees,
//! with duplicate items (distance ties), with vectors of 64 dimensions
//! and more (where the metric does not batch four rows and every row
//! takes the bounded path), and with Levenshtein strings. It computes
//! one candidate distance per item, and none at `k = 0`.
//!
//! A calibration ([`ScanRouter`]) is a function of the tree and the `k`
//! bucket alone: the same for trees built under any worker count, and
//! for every load of the same snapshot.

use vantage::prelude::*;
use vantage_core::ItemStore;
use vantage_datasets::{clustered_vectors, random_words, uniform_vectors, ClusteredConfig};
use vantage_mvptree::route::k_bucket;
use vantage_mvptree::{MvpTreeRef, ScanRouter};
use vantage_persist::{self as persist, F64Vectors, Utf8Strings};

/// Answers as `(id, distance bits)`, so equal means bit-identical.
fn bits(answers: &[Neighbor]) -> Vec<(usize, u64)> {
    answers
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// The `k`s every query is asked with: none, one, a few, more than a
/// leaf block, and around the index size.
fn ks(n: usize) -> [usize; 7] {
    [0, 1, 7, 64, n - 1, n, n + 5]
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "vantage-scan-routing-{}-{name}",
        std::process::id()
    ))
}

/// Checks the row scan of one tree view against its descent and the
/// `LinearScan` oracle for every query and `k`.
fn check_scan<S, M>(
    label: &str,
    view: &MvpTreeRef<'_, S, M>,
    queries: &[&S::Item],
    oracle: &dyn Fn(&S::Item, usize) -> Vec<Neighbor>,
) where
    S: ItemStore,
    M: BoundedMetric<S::Item>,
{
    let n = view.len();
    for (qi, query) in queries.iter().enumerate() {
        for k in ks(n) {
            let mut tally = DistanceTally::new();
            let scanned = bits(&view.knn_scan(query, k, &mut tally));
            let at = format!("{label}: query {qi}, k = {k}");
            assert_eq!(scanned, bits(&view.knn(query, k)), "{at}: scan vs tree");
            assert_eq!(scanned, bits(&oracle(query, k)), "{at}: scan vs LinearScan");
            let expected = if k == 0 { 0 } else { n as u64 };
            assert_eq!(tally.totals().computations, expected, "{at}: scan cost");
        }
    }
}

/// Builds `items` into an mvp-tree, owned and mapped from a snapshot,
/// and checks both forms' scans with the items at `query_ids` and
/// `fresh` as queries.
fn check_vectors(label: &str, items: Vec<Vec<f64>>, query_ids: &[usize], fresh: Vec<Vec<f64>>) {
    let params = MvpParams::paper(3, 20, 4).seed(5);
    let tree = MvpTree::build(items.clone(), Euclidean, params).unwrap();
    let scan = LinearScan::new(items.clone(), Euclidean);
    let mut queries: Vec<Vec<f64>> = query_ids.iter().map(|&i| items[i].clone()).collect();
    queries.extend(fresh);

    let owned: Vec<&Vec<f64>> = queries.iter().collect();
    check_scan(
        &format!("{label} owned"),
        &tree.as_view(),
        &owned,
        &|q, k| scan.knn(q, k),
    );

    let path = temp_path(label);
    persist::save_mvp_tree(&tree, &path).unwrap();
    let mapped = persist::open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let borrowed: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    check_scan(
        &format!("{label} mapped"),
        &mapped.view(),
        &borrowed,
        &|q, k| scan.knn(&q.to_vec(), k),
    );
}

#[test]
fn row_scans_answer_as_the_tree_and_linear_scan_on_vectors() {
    // Uniform 20-d points, each stored twice (ids i and i + 300), so
    // every member query ties at distance 0 and every answer crosses
    // id tie-breaks.
    let base = uniform_vectors(300, 20, 21);
    let doubled: Vec<Vec<f64>> = base.iter().chain(&base).cloned().collect();
    check_vectors(
        "uniform-20d",
        doubled,
        &[0, 299, 457],
        uniform_vectors(2, 20, 22),
    );

    let clustered = clustered_vectors(&ClusteredConfig {
        clusters: 6,
        cluster_size: 100,
        dim: 20,
        epsilon: 0.15,
        seed: 23,
    })
    .unwrap();
    check_vectors(
        "clustered-20d",
        clustered,
        &[3, 350],
        uniform_vectors(1, 20, 24),
    );

    // 80 dimensions: past the first early-abandon checkpoint, so the
    // metric batches nothing and the scan bounds every row.
    let wide = uniform_vectors(250, 80, 25);
    assert!(Euclidean
        .distance_x4(&wide[0], [&wide[1], &wide[2], &wide[3], &wide[4]])
        .is_none());
    check_vectors("uniform-80d", wide, &[7, 200], uniform_vectors(2, 80, 26));
}

#[test]
fn row_scans_answer_as_the_tree_and_linear_scan_on_strings() {
    let base = random_words(200, 3, 9, 27);
    let words: Vec<String> = base.iter().chain(&base).cloned().collect();
    let tree = MvpTree::build(
        words.clone(),
        Levenshtein,
        MvpParams::paper(2, 15, 3).seed(5),
    )
    .unwrap();
    let scan = LinearScan::new(words.clone(), Levenshtein);
    let queries = [words[0].clone(), words[333].clone(), "zzyzx".to_string()];

    let owned: Vec<&String> = queries.iter().collect();
    check_scan("words owned", &tree.as_view(), &owned, &|q, k| {
        scan.knn(q, k)
    });

    let bytes = persist::encode_mvp_tree(&tree);
    let mapped = persist::decode_mvp_tree::<Utf8Strings, Levenshtein>(&bytes).unwrap();
    let borrowed: Vec<&str> = queries.iter().map(String::as_str).collect();
    check_scan("words mapped", &mapped.view(), &borrowed, &|q, k| {
        scan.knn(&q.to_string(), k)
    });
}

/// Calibrates every bucket from `k = 0` to past `n` on `view`.
fn calibrations<S, M>(view: &MvpTreeRef<'_, S, M>) -> Vec<(usize, u64, bool)>
where
    S: ItemStore,
    M: BoundedMetric<S::Item>,
{
    let router = ScanRouter::new();
    for k in [0, 1, 2, 5, 10, 100, view.len() + 1] {
        router.calibrate(view, k);
    }
    router
        .calibrated()
        .map(|c| (c.bucket, c.probe_distances, c.scan()))
        .collect()
}

/// The calibrations of `items`' tree built under 1 and 4 workers, and
/// of two loads of its snapshot; all must agree.
fn repeatable_calibrations(label: &str, items: Vec<Vec<f64>>) -> Vec<(usize, u64, bool)> {
    let build = |threads| {
        let params = MvpParams::paper(3, 80, 5).seed(1).threads(threads);
        MvpTree::build(items.clone(), Euclidean, params).unwrap()
    };
    let tree = build(Threads::SEQUENTIAL);
    let decided = calibrations(&tree.as_view());
    assert_eq!(
        calibrations(&build(Threads::Fixed(4)).as_view()),
        decided,
        "{label}: 4 build workers"
    );
    let path = temp_path(&format!("calibration-{label}"));
    persist::save_mvp_tree(&tree, &path).unwrap();
    for load in 0..2 {
        let mapped = persist::open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        assert_eq!(
            calibrations(&mapped.view()),
            decided,
            "{label}: load {load}"
        );
    }
    std::fs::remove_file(&path).ok();
    decided
}

#[test]
fn calibration_repeats_across_loads_and_worker_counts() {
    let uniform = repeatable_calibrations("uniform", uniform_vectors(3000, 20, 31));
    // Distances concentrate: every bucket's probes compute nearly every
    // distance, so every bucket routes to the scan.
    assert!(uniform.iter().all(|&(_, _, scan)| scan), "{uniform:?}");

    let clustered = repeatable_calibrations(
        "clustered",
        clustered_vectors(&ClusteredConfig {
            clusters: 30,
            cluster_size: 100,
            dim: 20,
            epsilon: 0.15,
            seed: 32,
        })
        .unwrap(),
    );
    // The tree prunes a nearest-neighbor search inside a cluster.
    let (bucket, _, scan) = clustered[0];
    assert_eq!(bucket, k_bucket(1));
    assert!(!scan, "{clustered:?}");
}

#[test]
fn a_routed_knn_zero_computes_no_distance() {
    let tree = MvpTree::build(
        uniform_vectors(2000, 20, 41),
        Euclidean,
        MvpParams::paper(3, 80, 5).seed(1),
    )
    .unwrap();
    let view = tree.as_view();
    let router = ScanRouter::new();
    assert!(router.calibrate(&view, 0).scan(), "uniform k = 0 routes");
    let mut tally = DistanceTally::new();
    let query = uniform_vectors(1, 20, 42).remove(0);
    assert!(view.knn_scan(&query, 0, &mut tally).is_empty());
    assert_eq!(tally.totals(), DistanceTotals::default());
}
