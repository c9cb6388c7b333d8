//! Adversarial differential sweep: every index structure × degenerate
//! datasets (duplicates, all-identical points, a single point, an empty
//! index) × degenerate queries (zero radius, radius past the dataset
//! diameter), all checked against the [`LinearScan`] oracle.

use vantage::prelude::*;

fn sorted_ids(mut v: Vec<Neighbor>) -> Vec<usize> {
    v.sort_unstable_by_key(|n| n.id);
    v.into_iter().map(|n| n.id).collect()
}

fn sorted_distances(v: &[Neighbor]) -> Vec<f64> {
    let mut d: Vec<f64> = v.iter().map(|n| n.distance).collect();
    d.sort_unstable_by(f64::total_cmp);
    d
}

type NamedIndexes = Vec<(&'static str, Box<dyn MetricIndex<Vec<f64>>>)>;

/// Every vector-capable structure over the same dataset.
fn vector_indexes(points: &[Vec<f64>]) -> NamedIndexes {
    vec![
        (
            "linear",
            Box::new(LinearScan::new(points.to_vec(), Euclidean)),
        ),
        (
            "vpt(2)",
            Box::new(
                VpTree::build(points.to_vec(), Euclidean, VpTreeParams::binary().seed(3)).unwrap(),
            ),
        ),
        (
            "vpt(3) bucketed",
            Box::new(
                VpTree::build(
                    points.to_vec(),
                    Euclidean,
                    VpTreeParams::with_order(3).leaf_capacity(4).seed(4),
                )
                .unwrap(),
            ),
        ),
        (
            "mvpt(3,8,5)",
            Box::new(
                MvpTree::build(
                    points.to_vec(),
                    Euclidean,
                    MvpParams::paper(3, 8, 5).seed(5),
                )
                .unwrap(),
            ),
        ),
        (
            "mvpt(2,5,2)",
            Box::new(
                MvpTree::build(
                    points.to_vec(),
                    Euclidean,
                    MvpParams::paper(2, 5, 2).seed(6),
                )
                .unwrap(),
            ),
        ),
        (
            "gh-tree",
            Box::new(GhTree::build(points.to_vec(), Euclidean, GhTreeParams::default()).unwrap()),
        ),
        (
            "gnat",
            Box::new(Gnat::build(points.to_vec(), Euclidean, GnatParams::default()).unwrap()),
        ),
        (
            "fq-tree",
            Box::new(FqTree::build(points.to_vec(), Euclidean, FqTreeParams::default()).unwrap()),
        ),
        (
            "laesa(4)",
            Box::new(Laesa::build(points.to_vec(), Euclidean, 4).unwrap()),
        ),
        ("aesa", Box::new(Aesa::build(points.to_vec(), Euclidean))),
    ]
}

/// The adversarial dataset zoo. Each dataset pairs with queries probing
/// its pathologies: members (so duplicates tie), near-misses, and points
/// far outside the populated region.
fn datasets() -> Vec<(&'static str, Vec<Vec<f64>>)> {
    // Ten distinct points, each duplicated five times, deterministically
    // interleaved.
    let mut duplicates = Vec::new();
    for _rep in 0..5 {
        for i in 0..10 {
            let x = f64::from(i) * 0.7;
            let y = f64::from((i * 3) % 7);
            duplicates.push(vec![x, y]);
        }
    }
    vec![
        ("empty", Vec::new()),
        ("single point", vec![vec![0.3, 0.7]]),
        ("all identical", vec![vec![0.5, 0.5]; 37]),
        ("duplicates", duplicates),
    ]
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![0.5, 0.5],  // exact member of several datasets
        vec![0.3, 0.7],  // the single point
        vec![0.51, 0.5], // near miss
        vec![1e6, -1e6], // far outside every dataset
        vec![0.0, 0.0],
    ]
}

/// Radii per dataset: zero, and one safely past the dataset diameter.
fn radii(points: &[Vec<f64>]) -> Vec<f64> {
    let mut diameter = 0.0f64;
    for a in points {
        for b in points {
            let d: f64 = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            diameter = diameter.max(d);
        }
    }
    vec![0.0, diameter * 2.0 + 10.0]
}

#[test]
fn every_index_matches_linear_scan_on_degenerate_range_queries() {
    for (dataset_name, points) in datasets() {
        let indexes = vector_indexes(&points);
        let oracle = &indexes[0].1;
        for q in &queries() {
            // Far-away queries at huge radius still need to see everything:
            // include a radius that swallows the query-to-dataset distance.
            let mut rs = radii(&points);
            rs.push(1e7);
            for r in rs {
                let want = sorted_ids(oracle.range(q, r));
                for (name, index) in &indexes[1..] {
                    assert_eq!(
                        sorted_ids(index.range(q, r)),
                        want,
                        "{name} disagrees with linear scan on '{dataset_name}' q={q:?} r={r}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_index_matches_linear_scan_on_degenerate_knn() {
    for (dataset_name, points) in datasets() {
        let n = points.len();
        let indexes = vector_indexes(&points);
        let oracle = &indexes[0].1;
        for q in &queries() {
            for k in [0, 1, n.saturating_sub(1), n, n + 5] {
                let want = oracle.knn(q, k);
                for (name, index) in &indexes[1..] {
                    let got = index.knn(q, k);
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{name} wrong answer count on '{dataset_name}' q={q:?} k={k}"
                    );
                    assert_eq!(
                        sorted_distances(&got),
                        sorted_distances(&want),
                        "{name} wrong distance multiset on '{dataset_name}' q={q:?} k={k}"
                    );
                }
            }
        }
    }
}

#[test]
fn string_indexes_match_linear_scan_on_degenerate_inputs() {
    let datasets: Vec<(&str, Vec<String>)> = vec![
        ("empty", Vec::new()),
        ("single word", vec!["word".to_string()]),
        ("all identical", vec!["same".to_string(); 23]),
        (
            "duplicates",
            ["abc", "abd", "xyz", "abc", "xyz", "abc", "", "a", "abc"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
    ];
    for (dataset_name, words) in datasets {
        let oracle = LinearScan::new(words.clone(), Levenshtein);
        let bk = BkTree::build(words.clone(), Levenshtein);
        let vp = VpTree::build(words.clone(), Levenshtein, VpTreeParams::binary().seed(1)).unwrap();
        let mvp = MvpTree::build(
            words.clone(),
            Levenshtein,
            MvpParams::paper(2, 4, 2).seed(2),
        )
        .unwrap();
        for q in ["abc", "same", "", "completely-unrelated"] {
            let q = q.to_string();
            // 0 = exact-match radius; 64 exceeds any edit distance here.
            for r in [0.0, 64.0] {
                let want = sorted_ids(oracle.range(&q, r));
                assert_eq!(
                    sorted_ids(bk.range(&q, r)),
                    want,
                    "bk disagrees on '{dataset_name}' q={q:?} r={r}"
                );
                assert_eq!(
                    sorted_ids(vp.range(&q, r)),
                    want,
                    "vp disagrees on '{dataset_name}' q={q:?} r={r}"
                );
                assert_eq!(
                    sorted_ids(mvp.range(&q, r)),
                    want,
                    "mvp disagrees on '{dataset_name}' q={q:?} r={r}"
                );
            }
        }
    }
}

#[test]
fn traced_searches_agree_on_degenerate_inputs_too() {
    // The trace layer must not disturb degenerate-input behavior either.
    for (dataset_name, points) in datasets() {
        let oracle = LinearScan::new(points.clone(), Euclidean);
        let vp = VpTree::build(points.clone(), Euclidean, VpTreeParams::binary().seed(3)).unwrap();
        let mvp =
            MvpTree::build(points.clone(), Euclidean, MvpParams::paper(2, 5, 2).seed(6)).unwrap();
        for q in &queries() {
            for r in radii(&points) {
                let want = sorted_ids(oracle.range(q, r));
                let mut p1 = QueryProfile::new();
                let mut p2 = QueryProfile::new();
                assert_eq!(
                    sorted_ids(vp.search(q, Query::Range(r), &mut p1)),
                    want,
                    "traced vp disagrees on '{dataset_name}' q={q:?} r={r}"
                );
                assert_eq!(
                    sorted_ids(mvp.search(q, Query::Range(r), &mut p2)),
                    want,
                    "traced mvp disagrees on '{dataset_name}' q={q:?} r={r}"
                );
            }
        }
    }
}
