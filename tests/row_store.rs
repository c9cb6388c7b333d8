//! Flat row stores: a tree built with `with_rows` over items packed into
//! `F64Rows`/`StrRows` answers exactly as the `Vec<T>` tree built from
//! the same items, and as the snapshot of either, decoded from bytes or
//! mapped from a file.
//!
//! Every case builds one tree per shape, then asks the four forms — the
//! `Vec<T>` tree, the flat tree, the decoded snapshot and the mapped
//! snapshot — range, kNN, beyond, kFN and budgeted kNN, each through one
//! sink that records the answer's ids and distance bits, its
//! `DistanceTally`, its `QueryProfile` and every prune/reject event. The
//! four transcripts must be equal, and the flat tree must encode to the
//! `Vec<T>` tree's snapshot bytes: the two builds make the same tree. Data: uniform, clustered and
//! duplicated vectors, `d = 1`, 80-d vectors (past every batched kernel
//! width), Levenshtein words, the empty tree and `n = 1`.

use std::fmt::Write as _;

use vantage::prelude::*;
use vantage_core::{EventLog, RowStore};
use vantage_datasets::{clustered_vectors, random_words, uniform_vectors, ClusteredConfig};
use vantage_persist::{self as persist, F64Vectors, FlatItems, ItemCodec, MetricTag, Utf8Strings};

/// One query's sink: aggregate profile, every event, and the tally.
type Sink = (QueryProfile, (EventLog, DistanceTally));

/// Radii, kNN sizes and budgets one dataset is queried with.
struct Plan {
    radii: Vec<f64>,
    beyond: Vec<f64>,
    ks: Vec<usize>,
    budgets: Vec<u64>,
}

/// Appends one query's answer and everything its sink saw.
fn record(out: &mut String, form: &str, answer: &[Neighbor], sink: Sink) {
    let (profile, (events, tally)) = sink;
    let bits: Vec<(usize, u64)> = answer
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect();
    let _ = writeln!(
        out,
        "{form}: {bits:?} {:?} {profile:?} {:?}",
        tally.totals(),
        events.events()
    );
}

/// The transcript of every query form of `$tree` over `$queries`.
/// A macro, not a function: the trees share method names, not a trait
/// covering `knn_budgeted` on the views.
macro_rules! transcript {
    ($tree:expr, $queries:expr, $plan:expr) => {{
        let (tree, plan) = (&$tree, &$plan);
        let mut out = String::new();
        for (qi, q) in $queries.enumerate() {
            for &r in &plan.radii {
                let mut sink = Sink::default();
                let answer = tree.search(q, Query::Range(r), &mut sink);
                record(&mut out, &format!("q{qi} range {r}"), &answer, sink);
            }
            for &k in &plan.ks {
                let mut sink = Sink::default();
                let answer = tree.search(q, Query::Knn(k), &mut sink);
                record(&mut out, &format!("q{qi} knn {k}"), &answer, sink);
            }
            for &r in &plan.beyond {
                let mut sink = Sink::default();
                let answer = tree.search(q, Query::Beyond(r), &mut sink);
                record(&mut out, &format!("q{qi} beyond {r}"), &answer, sink);
            }
            for &k in &plan.ks {
                let mut sink = Sink::default();
                let answer = tree.search(q, Query::Kfn(k), &mut sink);
                record(&mut out, &format!("q{qi} kfn {k}"), &answer, sink);
            }
            for &k in &plan.ks {
                for &budget in &plan.budgets {
                    let got = tree.knn_budgeted(q, k, SearchBudget::limited(budget));
                    let _ = writeln!(
                        out,
                        "q{qi} budget {k}/{budget}: {:?} {} {} {:?}",
                        got.neighbors,
                        got.exhausted,
                        got.estimated_recall.to_bits(),
                        got.cost()
                    );
                }
            }
        }
        out
    }};
}

/// A plan scaled to the data: radii at the 1st, 5th and 20th nearest
/// neighbour of the first query, beyond radii at its 5th farthest.
fn plan_for<T, M: BoundedMetric<T>>(items: &[T], queries: &[T], metric: &M) -> Plan
where
    T: Clone,
{
    let n = items.len();
    let scan = LinearScan::new(items.to_vec(), metric);
    let near = scan.knn(&queries[0], 20);
    let far = scan.k_farthest(&queries[0], 5);
    let at =
        |v: &[Neighbor], i: usize| v.get(i.min(v.len().max(1) - 1)).map_or(1.0, |n| n.distance);
    Plan {
        radii: vec![0.0, at(&near, 0), at(&near, 4), at(&near, 19)],
        beyond: vec![0.0, at(&far, 4)],
        ks: vec![0, 1, 10, n + 1],
        budgets: vec![0, 3, 40],
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vantage-row-store-{}-{name}", std::process::id()))
}

/// Builds vp- and mvp-trees over `items` for every shape and checks the
/// four forms of each against one another.
fn check_case<T, M, K>(
    name: &str,
    items: &[T],
    queries: &[T],
    metric: M,
    row: impl Fn(&T) -> &K::Item,
) where
    T: ItemCodec + Clone + PartialEq + std::fmt::Debug + Sync,
    M: BoundedMetric<T> + BoundedMetric<K::Item> + MetricTag + Clone + Sync,
    K: FlatItems,
    K::Item: ItemCodec + ToOwned<Owned = T> + PartialEq + std::fmt::Debug,
{
    let plan = plan_for(items, queries, &metric);
    for (order, leaf) in [(2, 1), (3, 4), (2, 60)] {
        let label = format!("{name} vp order={order} leaf={leaf}");
        let params = VpTreeParams::with_order(order).leaf_capacity(leaf).seed(3);
        let owned = VpTree::build(items.to_vec(), metric.clone(), params.clone()).unwrap();
        let flat = VpTree::with_rows(
            K::Rows::from_items(items.to_vec()).unwrap(),
            metric.clone(),
            params,
        )
        .unwrap();
        let bytes = persist::encode_vp_tree(&owned);
        assert!(
            bytes == persist::encode_vp_tree(&flat),
            "{label}: snapshot bytes"
        );
        let path = temp_path(&format!("{name}-vp-{order}-{leaf}"));
        std::fs::write(&path, &bytes).unwrap();
        let decoded = persist::decode_vp_tree::<K, M>(&bytes).unwrap();
        let mapped = persist::open_vp_tree::<K, M>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            owned.items_by_id().map(&row).eq(flat.items_by_id()),
            "{label}: items"
        );

        let want = transcript!(owned, queries.iter(), plan);
        let forms = [
            ("flat", transcript!(flat, queries.iter().map(&row), plan)),
            (
                "decoded",
                transcript!(decoded.view(), queries.iter().map(&row), plan),
            ),
            (
                "mapped",
                transcript!(mapped.view(), queries.iter().map(&row), plan),
            ),
        ];
        for (form, got) in forms {
            assert!(got == want, "{label}: {form} transcript differs");
        }
    }
    for (m, k, p) in [(2, 1, 2), (3, 9, 5), (3, 80, 5), (2, 200, 4)] {
        let label = format!("{name} mvp m={m} k={k} p={p}");
        let params = MvpParams::paper(m, k, p).seed(4);
        let owned = MvpTree::build(items.to_vec(), metric.clone(), params.clone()).unwrap();
        let flat = MvpTree::with_rows(
            K::Rows::from_items(items.to_vec()).unwrap(),
            metric.clone(),
            params,
        )
        .unwrap();
        let bytes = persist::encode_mvp_tree(&owned);
        assert!(
            bytes == persist::encode_mvp_tree(&flat),
            "{label}: snapshot bytes"
        );
        let path = temp_path(&format!("{name}-mvp-{m}-{k}-{p}"));
        std::fs::write(&path, &bytes).unwrap();
        let decoded = persist::decode_mvp_tree::<K, M>(&bytes).unwrap();
        let mapped = persist::open_mvp_tree::<K, M>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            owned.items_by_id().map(&row).eq(flat.items_by_id()),
            "{label}: items"
        );

        let want = transcript!(owned, queries.iter(), plan);
        let forms = [
            ("flat", transcript!(flat, queries.iter().map(&row), plan)),
            (
                "decoded",
                transcript!(decoded.view(), queries.iter().map(&row), plan),
            ),
            (
                "mapped",
                transcript!(mapped.view(), queries.iter().map(&row), plan),
            ),
        ];
        for (form, got) in forms {
            assert!(got == want, "{label}: {form} transcript differs");
        }
    }
}

fn check_vectors(name: &str, items: &[Vec<f64>], queries: &[Vec<f64>]) {
    check_case::<_, _, F64Vectors>(name, items, queries, Euclidean, Vec::as_slice);
    check_case::<_, _, F64Vectors>(name, items, queries, Manhattan, Vec::as_slice);
}

/// Two members of `items` and two points off them.
fn vector_queries(items: &[Vec<f64>], dim: usize) -> Vec<Vec<f64>> {
    let mut queries: Vec<Vec<f64>> = items.iter().step_by(items.len() / 2 + 1).cloned().collect();
    queries.extend(uniform_vectors(2, dim, 99));
    queries
}

#[test]
fn uniform_vectors_answer_alike_in_every_store() {
    let items = uniform_vectors(500, 8, 7);
    check_vectors("uniform", &items, &vector_queries(&items, 8));
}

#[test]
fn clustered_vectors_answer_alike_in_every_store() {
    let config = ClusteredConfig {
        clusters: 5,
        cluster_size: 100,
        ..ClusteredConfig::paper(7)
    };
    let items = clustered_vectors(&config).unwrap();
    check_vectors("clustered", &items, &vector_queries(&items, 20));
}

#[test]
fn duplicated_vectors_answer_alike_in_every_store() {
    let grid = (0..5).flat_map(|x| (0..5).map(move |y| vec![f64::from(x), f64::from(y)]));
    let items: Vec<Vec<f64>> = grid.clone().chain(grid.clone()).chain(grid).collect();
    check_vectors("duplicated", &items, &vector_queries(&items, 2));
}

#[test]
fn one_dimensional_vectors_answer_alike_in_every_store() {
    let items: Vec<Vec<f64>> = (0..300u32).map(|i| vec![f64::from(i * 37 % 101)]).collect();
    check_vectors("d=1", &items, &vector_queries(&items, 1));
}

#[test]
fn wide_vectors_answer_alike_in_every_store() {
    let items = uniform_vectors(150, 80, 3);
    check_vectors("80-d", &items, &vector_queries(&items, 80));
}

#[test]
fn empty_and_single_item_trees_answer_alike_in_every_store() {
    let queries = vec![vec![0.5, 0.5, 0.5], vec![3.0, -1.0, 0.0]];
    check_vectors("n=0", &[], &queries);
    check_vectors("n=1", &[vec![1.0, 2.0, 3.0]], &queries);
    let words = vec!["carrot".to_string(), String::new()];
    check_case::<_, _, Utf8Strings>("edit n=0", &[], &words, Levenshtein, String::as_str);
    let one = ["härlig".to_string()];
    check_case::<_, _, Utf8Strings>("edit n=1", &one, &words, Levenshtein, String::as_str);
}

#[test]
fn words_answer_alike_in_every_store() {
    let mut items = random_words(300, 0, 9, 7);
    items.extend_from_within(..40);
    items.push("härlig".to_string());
    let queries: Vec<String> = ["car", "", "härlig", &items[17]]
        .iter()
        .map(|w| w.to_string())
        .collect();
    check_case::<_, _, Utf8Strings>("edit", &items, &queries, Levenshtein, String::as_str);
}

#[test]
fn ragged_vectors_are_refused_by_the_flat_store() {
    let items = vec![vec![0.0, 0.0], vec![1.0, 1.0, 1.0], vec![2.0, 2.0]];
    let err = vantage_core::F64Rows::from_items(items).unwrap_err();
    assert_eq!(err, VantageError::DimensionMismatch { left: 2, right: 3 });
}

#[test]
fn row_stores_keep_the_items_in_order() {
    let rows = <vantage_core::StrRows as RowStore<String>>::from_items(vec![
        "a".into(),
        "".into(),
        "bc".into(),
    ])
    .unwrap();
    let view = rows.view();
    assert_eq!(vantage_core::ItemStore::len(&view), 3);
    assert_eq!([rows.row(0), rows.row(1), rows.row(2)], ["a", "", "bc"]);
}
