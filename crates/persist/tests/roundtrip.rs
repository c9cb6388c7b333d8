//! Build → save → load round trips.
//!
//! The contract under test: a reloaded index answers a seeded query
//! sweep **bit-identically** to the freshly built one — same neighbors
//! in the same order for `range`, `knn` and `k_farthest`, and the same
//! `Counted` distance-computation tally for every single query. The
//! sweep runs over the paper's two item flavors (clustered Euclidean
//! vectors and edit-distance words), byte vectors, and all three
//! snapshot-able structures.

use std::borrow::Borrow;
use std::fmt::Debug;

use proptest::prelude::*;
use vantage_core::farthest::FarthestIndex;
use vantage_core::prelude::*;
use vantage_core::MetricIndex;
use vantage_datasets::ClusteredConfig;
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist::{self as persist, F64Vectors, FlatItems, U8Vectors, Utf8Strings};
use vantage_persist::{MappedMvpTree, MappedVpTree};
use vantage_vptree::{VpTree, VpTreeParams};

fn clustered(clusters: usize, cluster_size: usize, seed: u64) -> Vec<Vec<f64>> {
    vantage_datasets::clustered_vectors(&ClusteredConfig {
        clusters,
        cluster_size,
        dim: 6,
        epsilon: 0.15,
        seed,
    })
    .unwrap()
}

/// One query's full answer sheet: every result list plus the `Counted`
/// tally each phase consumed.
#[derive(Debug, PartialEq)]
struct Answers {
    range: Vec<Neighbor>,
    range_cost: u64,
    knn: Vec<Neighbor>,
    knn_cost: u64,
    farthest: Vec<Neighbor>,
    farthest_cost: u64,
}

/// Runs the seeded sweep against one index, reading the cost of each
/// query off the shared `Counted` probe. Owned indexes take `&Vec<f64>`
/// / `&String` queries, loaded ones the unsized `&[f64]` / `&str`.
fn sweep<'q, Q, M, I>(
    index: &I,
    probe: &Counted<M>,
    queries: impl IntoIterator<Item = &'q Q>,
    radius: f64,
) -> Vec<Answers>
where
    Q: ?Sized + 'q,
    I: MetricIndex<Q> + FarthestIndex<Q>,
{
    probe.reset();
    queries
        .into_iter()
        .map(|q| {
            let mut range = index.range(q, radius);
            range.sort_unstable();
            let range_cost = probe.take();
            let knn = index.knn(q, 5);
            let knn_cost = probe.take();
            let farthest = index.k_farthest(q, 3);
            let farthest_cost = probe.take();
            Answers {
                range,
                range_cost,
                knn,
                knn_cost,
                farthest,
                farthest_cost,
            }
        })
        .collect()
}

fn slices(queries: &[Vec<f64>]) -> impl Iterator<Item = &[f64]> {
    queries.iter().map(Vec::as_slice)
}

fn strs(queries: &[String]) -> impl Iterator<Item = &str> {
    queries.iter().map(String::as_str)
}

/// Pins a loaded vp-tree to the tree it was saved from: params, root,
/// every arena array, and the items in row order.
fn assert_same_vp<K, M, T, N>(loaded: &MappedVpTree<K, M>, tree: &VpTree<T, N>)
where
    K: FlatItems,
    K::Item: PartialEq + Debug,
    T: Borrow<K::Item>,
{
    assert_eq!(loaded.params(), tree.params());
    assert_eq!(loaded.root(), tree.root());
    let (a, b) = (loaded.arena(), tree.arena());
    assert_eq!(a.meta(), b.meta());
    assert_eq!(a.vantage(), b.vantage());
    assert_eq!(a.children(), b.children());
    assert_eq!(a.cutoffs(), b.cutoffs());
    assert_eq!(a.leaf_spans(), b.leaf_spans());
    assert_eq!(a.leaf_items(), b.leaf_items());
    let rows: Vec<&K::Item> = a.row_order().map(|id| loaded.item(id)).collect();
    let want: Vec<&K::Item> = tree.row_items().iter().map(Borrow::borrow).collect();
    assert_eq!(rows, want, "row items");
}

/// The mvp-tree twin of [`assert_same_vp`].
fn assert_same_mvp<K, M, T, N>(loaded: &MappedMvpTree<K, M>, tree: &MvpTree<T, N>)
where
    K: FlatItems,
    K::Item: PartialEq + Debug,
    T: Borrow<K::Item>,
{
    assert_eq!(loaded.params(), tree.params());
    assert_eq!(loaded.root(), tree.root());
    let (a, b) = (loaded.arena(), tree.arena());
    assert_eq!(a.meta(), b.meta());
    assert_eq!((a.vp1(), a.vp2()), (b.vp1(), b.vp2()));
    assert_eq!(a.children(), b.children());
    assert_eq!((a.cutoffs1(), a.cutoffs2()), (b.cutoffs1(), b.cutoffs2()));
    assert_eq!((a.leaf_heads(), a.ids()), (b.leaf_heads(), b.ids()));
    assert_eq!((a.d1(), a.d2(), a.path()), (b.d1(), b.d2(), b.path()));
    let rows: Vec<&K::Item> = a.row_order().map(|id| loaded.item(id)).collect();
    let want: Vec<&K::Item> = tree.row_items().iter().map(Borrow::borrow).collect();
    assert_eq!(rows, want, "row items");
}

#[test]
fn vp_tree_round_trips_on_clustered_vectors() {
    let items = clustered(8, 40, 11);
    let queries = vantage_datasets::uniform_vectors(12, 6, 99);
    let tree = VpTree::build(
        items,
        Counted::new(Euclidean),
        VpTreeParams::binary().seed(3),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, 0.4);

    let bytes = persist::encode_vp_tree(&tree);
    let loaded = persist::decode_vp_tree::<F64Vectors, Counted<Euclidean>>(&bytes).unwrap();
    assert_same_vp(&loaded, &tree);
    assert_eq!(
        loaded.metric().take(),
        0,
        "a load must perform no metric evaluations"
    );
    let again = sweep(&loaded, loaded.metric(), slices(&queries), 0.4);
    assert_eq!(fresh, again);
}

#[test]
fn mvp_tree_round_trips_on_clustered_vectors() {
    let items = clustered(10, 35, 5);
    let queries = vantage_datasets::uniform_vectors(12, 6, 77);
    let tree = MvpTree::build(
        items,
        Counted::new(Euclidean),
        MvpParams::paper(3, 20, 5).seed(9),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, 0.4);

    let bytes = persist::encode_mvp_tree(&tree);
    let loaded = persist::decode_mvp_tree::<F64Vectors, Counted<Euclidean>>(&bytes).unwrap();
    assert_same_mvp(&loaded, &tree);
    let again = sweep(&loaded, loaded.metric(), slices(&queries), 0.4);
    assert_eq!(fresh, again);
}

#[test]
fn mvp_tree_round_trips_on_words() {
    let words = vantage_datasets::random_words(300, 4, 12, 21);
    let queries = vantage_datasets::random_words(10, 4, 12, 98);
    let tree = MvpTree::build(
        words,
        Counted::new(Levenshtein),
        MvpParams::paper(2, 12, 3).seed(1),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, 4.0);

    let bytes = persist::encode_mvp_tree(&tree);
    let loaded = persist::decode_mvp_tree::<Utf8Strings, Counted<Levenshtein>>(&bytes).unwrap();
    assert_same_mvp(&loaded, &tree);
    let again = sweep(&loaded, loaded.metric(), strs(&queries), 4.0);
    assert_eq!(fresh, again);
}

#[test]
fn vp_tree_round_trips_on_words_through_a_file() {
    let words = vantage_datasets::random_words(250, 4, 12, 33);
    let queries = vantage_datasets::random_words(8, 4, 12, 44);
    let tree = VpTree::build(
        words,
        Counted::new(Levenshtein),
        VpTreeParams::with_order(3).leaf_capacity(6).seed(2),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, 3.0);

    let mut path = std::env::temp_dir();
    path.push(format!("vantage-roundtrip-{}.vsnap", std::process::id()));
    let written = persist::save_vp_tree(&tree, &path).unwrap();
    assert_eq!(persist::inspect(&path).unwrap().bytes, written);
    let loaded = persist::open_vp_tree::<Utf8Strings, Counted<Levenshtein>>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_vp(&loaded, &tree);

    let again = sweep(&loaded, loaded.metric(), strs(&queries), 3.0);
    assert_eq!(fresh, again);
}

#[test]
fn linear_scan_round_trips_on_both_item_flavors() {
    let vectors = clustered(5, 30, 17);
    let vqueries = vantage_datasets::uniform_vectors(6, 6, 55);
    let scan = LinearScan::new(vectors, Counted::new(Euclidean));
    let fresh = sweep(&scan, scan.metric(), &vqueries, 0.5);
    let loaded = persist::decode_linear_scan::<F64Vectors, Counted<Euclidean>>(
        &persist::encode_linear_scan(&scan),
    )
    .unwrap();
    assert_eq!(fresh, sweep(&loaded, loaded.metric(), &vqueries, 0.5));

    let words = vantage_datasets::random_words(120, 4, 12, 3);
    let wqueries = vantage_datasets::random_words(6, 4, 12, 66);
    let scan = LinearScan::new(words, Counted::new(Levenshtein));
    let fresh = sweep(&scan, scan.metric(), &wqueries, 3.0);
    let loaded = persist::decode_linear_scan::<Utf8Strings, Counted<Levenshtein>>(
        &persist::encode_linear_scan(&scan),
    )
    .unwrap();
    assert_eq!(fresh, sweep(&loaded, loaded.metric(), &wqueries, 3.0));
}

/// 64-byte vectors: the `u8-vector` encoding round-trips in every
/// structure, under L1 and L2.
#[test]
fn byte_vector_indexes_round_trip_in_every_structure() {
    let bytes = |n: usize, seed: u64| -> Vec<Vec<u8>> {
        vantage_datasets::uniform_vectors(n, 64, seed)
            .iter()
            .map(|v| v.iter().map(|&x| (x * 255.0).round() as u8).collect())
            .collect()
    };
    let (items, queries) = (bytes(300, 7), bytes(8, 8));
    let radius = LinearScan::new(items.clone(), Manhattan).knn(&queries[0], 5)[4].distance;

    let tree = VpTree::build(
        items.clone(),
        Counted::new(Manhattan),
        VpTreeParams::with_order(3).leaf_capacity(6).seed(2),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, radius);
    let mut path = std::env::temp_dir();
    path.push(format!("vantage-roundtrip-u8-{}.vsnap", std::process::id()));
    persist::save_vp_tree(&tree, &path).unwrap();
    assert_eq!(persist::inspect(&path).unwrap().item, "u8-vector");
    let loaded = persist::open_vp_tree::<U8Vectors, Counted<Manhattan>>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_vp(&loaded, &tree);
    let again = sweep(
        &loaded,
        loaded.metric(),
        queries.iter().map(Vec::as_slice),
        radius,
    );
    assert_eq!(fresh, again);

    let tree = MvpTree::build(
        items.clone(),
        Counted::new(Manhattan),
        MvpParams::paper(3, 20, 5).seed(9),
    )
    .unwrap();
    let fresh = sweep(&tree, tree.metric(), &queries, radius);
    let bytes = persist::encode_mvp_tree(&tree);
    let loaded = persist::decode_mvp_tree::<U8Vectors, Counted<Manhattan>>(&bytes).unwrap();
    assert_same_mvp(&loaded, &tree);
    let again = sweep(
        &loaded,
        loaded.metric(),
        queries.iter().map(Vec::as_slice),
        radius,
    );
    assert_eq!(fresh, again);

    let scan = LinearScan::new(items, Counted::new(Euclidean));
    let fresh = sweep(&scan, scan.metric(), &queries, 300.0);
    let loaded = persist::decode_linear_scan::<U8Vectors, Counted<Euclidean>>(
        &persist::encode_linear_scan(&scan),
    )
    .unwrap();
    assert_eq!(fresh, sweep(&loaded, loaded.metric(), &queries, 300.0));
}

#[test]
fn empty_and_single_item_indexes_round_trip() {
    let empty = VpTree::build(Vec::<Vec<f64>>::new(), Euclidean, VpTreeParams::binary()).unwrap();
    let loaded =
        persist::decode_vp_tree::<F64Vectors, Euclidean>(&persist::encode_vp_tree(&empty)).unwrap();
    assert!(loaded.view().range(&[0.0], 10.0).is_empty());

    let one = MvpTree::build(vec![vec![1.0, 2.0]], Euclidean, MvpParams::default()).unwrap();
    let loaded =
        persist::decode_mvp_tree::<F64Vectors, Euclidean>(&persist::encode_mvp_tree(&one)).unwrap();
    assert_eq!(loaded.view().knn(&[0.0, 0.0], 1).len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random datasets, orders and leaf capacities: every tree that
    /// builds must survive the encode/decode round trip with identical
    /// answers and identical per-query costs.
    #[test]
    fn random_vp_trees_round_trip(
        n in 1usize..120,
        order in 2usize..4,
        leaf in 1usize..9,
        seed in 0u64..1000,
    ) {
        let items = vantage_datasets::uniform_vectors(n, 4, seed);
        let queries = vantage_datasets::uniform_vectors(4, 4, seed ^ 0xABCD);
        let tree = VpTree::build(
            items,
            Counted::new(Euclidean),
            VpTreeParams::with_order(order).leaf_capacity(leaf).seed(seed),
        )
        .unwrap();
        let fresh = sweep(&tree, tree.metric(), &queries, 0.3);
        let loaded = persist::decode_vp_tree::<F64Vectors, Counted<Euclidean>>(
            &persist::encode_vp_tree(&tree),
        )
        .unwrap();
        prop_assert_eq!(fresh, sweep(&loaded, loaded.metric(), slices(&queries), 0.3));
    }

    #[test]
    fn random_mvp_trees_round_trip(
        n in 1usize..120,
        m in 2usize..4,
        k in 4usize..16,
        p in 1usize..5,
        seed in 0u64..1000,
    ) {
        let items = vantage_datasets::uniform_vectors(n, 4, seed);
        let queries = vantage_datasets::uniform_vectors(4, 4, seed ^ 0x1234);
        let tree = MvpTree::build(
            items,
            Counted::new(Euclidean),
            MvpParams::paper(m, k, p).seed(seed),
        )
        .unwrap();
        let fresh = sweep(&tree, tree.metric(), &queries, 0.3);
        let loaded = persist::decode_mvp_tree::<F64Vectors, Counted<Euclidean>>(
            &persist::encode_mvp_tree(&tree),
        )
        .unwrap();
        prop_assert_eq!(fresh, sweep(&loaded, loaded.metric(), slices(&queries), 0.3));
    }
}
