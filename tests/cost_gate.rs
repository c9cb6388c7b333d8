//! The cost gate: exact distance and traversal counts on the datasets
//! the benchmark (`vbench`) serves, pinned at zero tolerance.
//!
//! The paper measures every structure by one number, distance
//! computations per query, and that number is deterministic: seeded
//! data, seeded builds, fixed queries. So it is gated exactly, here,
//! rather than timed. Each set is built with the generator and config
//! the benchmark uses, at its data seed 1, into the trees `vantage
//! build` makes (mvp(3, 80, 5) and the binary vp-tree, seed 1) over the
//! row store the server searches. 32 queries are picked from each set
//! by stride.
//!
//! For each set, structure and query form the table pins, summed over
//! the 32 queries: distances computed, how many of those the bounded
//! kernel abandoned, the abandoned work (its `f64` bits), nodes visited
//! and subtrees pruned; and each build's distances. mvp kNN is asked
//! the way `vantage serve` asks it, through a [`ScanRouter`], so the
//! uniform set pins the routed scan's count as well as the tree's own.
//! Budgeted kNN pins what it spent and its recall ×10⁴ at half the
//! mean exact cost, and the ingest set runs a fixed insert/delete
//! script through a [`ConcurrentMvpTree`] across its ¼-overflow
//! rebuild.
//!
//! A failure lists every pin that moved, by name, then prints the whole
//! table as measured. Any change to a pinned number is a change to the
//! paper's cost measure and must be justified where it is made.

use vantage::prelude::*;
use vantage_core::{F64Rows, ItemStore, RowStore, U8Rows};
use vantage_datasets::{
    clustered_vectors, synthetic_mri_images, uniform_vectors, ClusteredConfig, MriConfig,
};
use vantage_mvptree::{ConcurrentMvpTree, MvpTreeRef, ScanRouter};

/// Seed of every dataset and every tree, as the benchmark serves them.
const SEED: u64 = 1;

/// Queries per set, picked from the set by stride.
const QUERIES: usize = 32;

/// The RANGE radius on the MRI set: the median, over the set's
/// queries, of the distance to the 6th nearest neighbour (the
/// benchmark's rule).
const MRI_RADIUS: f64 = 21_556.0;

fn mvp_params() -> MvpParams {
    MvpParams::paper(3, 80, 5).seed(SEED)
}

fn vp_params() -> VpTreeParams {
    VpTreeParams::binary().seed(SEED)
}

/// Items `i·n/32` for `i` in `0..32`.
fn stride<T: Clone>(items: &[T]) -> Vec<T> {
    (0..QUERIES)
        .map(|i| items[i * items.len() / QUERIES].clone())
        .collect()
}

/// A search's profile and tally, accumulated over one form's queries.
type Sink = (QueryProfile, DistanceTally);

/// The numbers one set produces, named, in table order.
#[derive(Default)]
struct Pins(Vec<(String, u64)>);

impl Pins {
    fn push(&mut self, name: String, value: u64) {
        self.0.push((name, value));
    }

    /// Runs `search` for every query into one sink and records its sums
    /// under `label`.
    fn search<Q: ?Sized>(
        &mut self,
        label: &str,
        queries: &[&Q],
        mut search: impl FnMut(&Q, &mut Sink) -> Vec<Neighbor>,
    ) {
        let mut sink = (QueryProfile::new(), DistanceTally::new());
        for q in queries {
            search(q, &mut sink);
        }
        let (profile, tally) = sink;
        let totals = tally.totals();
        self.push(format!("{label} distances"), totals.computations);
        self.push(format!("{label} abandoned"), totals.abandoned);
        self.push(
            format!("{label} abandoned work bits"),
            totals.abandoned_work.to_bits(),
        );
        self.push(format!("{label} nodes visited"), profile.nodes_visited());
        self.push(
            format!("{label} subtrees pruned"),
            profile.subtrees_pruned(),
        );
    }

    /// Budgeted kNN at half the mean exact cost: the budget, what the
    /// queries spent within it, and their recall ×10⁴ against the exact
    /// answers (a neighbor counts by id or by exact distance, so an
    /// equidistant substitute counts as the correct answer it is).
    fn budgeted<Q: ?Sized, I: BudgetedSearch<Q>>(
        &mut self,
        label: &str,
        index: &I,
        queries: &[&Q],
        k: usize,
    ) {
        let exact: Vec<BudgetedKnn> = queries
            .iter()
            .map(|q| index.knn_budgeted(q, k, SearchBudget::UNLIMITED))
            .collect();
        let exact_cost: u64 = exact.iter().map(|e| e.spent).sum();
        let budget = (exact_cost / (2 * queries.len() as u64)).max(1);
        let mut spent = 0;
        let mut recall = 0.0;
        for (q, want) in queries.iter().zip(&exact) {
            let got = index.knn_budgeted(q, k, SearchBudget::limited(budget));
            spent += got.spent;
            let hits = got
                .neighbors
                .iter()
                .filter(|n| {
                    want.neighbors
                        .iter()
                        .any(|e| e.id == n.id || e.distance == n.distance)
                })
                .count();
            recall += hits as f64 / want.neighbors.len() as f64;
        }
        self.push(format!("{label} budget"), budget);
        self.push(format!("{label} spent"), spent);
        self.push(
            format!("{label} recall x1e4"),
            (recall / queries.len() as f64 * 10_000.0).round() as u64,
        );
    }
}

/// kNN the way `vantage serve` answers it for an mvp-tree: the router
/// calibrates `k`'s bucket on the tree's first such query, then the
/// bucket is answered by a scan of the tree's rows or by its descent.
fn routed<S: ItemStore, M: BoundedMetric<S::Item>>(
    view: &MvpTreeRef<'_, S, M>,
    router: &ScanRouter,
    query: &S::Item,
    k: usize,
    sink: &mut Sink,
) -> Vec<Neighbor> {
    if router.calibrate(view, k).scan() {
        view.knn_scan(query, k, sink)
    } else {
        view.search(query, Query::Knn(k), sink)
    }
}

/// Records each calibrated bucket of `router`: its probes' distances
/// and whether it routes to the scan.
fn routes(pins: &mut Pins, router: &ScanRouter) {
    for c in router.calibrated() {
        let k = c.min_k();
        pins.push(
            format!("mvp route k>={k} probe distances"),
            c.probe_distances,
        );
        pins.push(format!("mvp route k>={k} scans"), u64::from(c.scan()));
    }
}

/// Compares a set's measured numbers with its table.
#[track_caller]
fn check(set: &str, got: &Pins, want: &[(&str, u64)]) {
    let mut moved = Vec::new();
    for (i, (name, value)) in got.0.iter().enumerate() {
        match want.get(i) {
            Some(&(n, v)) if n == name && v == *value => {}
            Some(&(n, v)) if n == name => moved.push(describe(name, v, *value)),
            _ => moved.push(format!("{name}: not pinned at row {i}")),
        }
    }
    if want.len() > got.0.len() {
        moved.push(format!("{} pins not measured", want.len() - got.0.len()));
    }
    if !moved.is_empty() {
        let mut table = String::new();
        for (name, value) in &got.0 {
            table += &format!("    (\"{name}\", {value}),\n");
        }
        panic!(
            "{set}: {} pin(s) moved:\n  {}\nmeasured table:\n{table}",
            moved.len(),
            moved.join("\n  ")
        );
    }
}

/// One moved pin, with the `f64` behind a `bits` pin spelled out.
fn describe(name: &str, want: u64, got: u64) -> String {
    if name.ends_with(" bits") {
        let (w, g) = (f64::from_bits(want), f64::from_bits(got));
        format!("{name}: want {want} ({w:?}), got {got} ({g:?})")
    } else {
        format!("{name}: want {want}, got {got}")
    }
}

/// The served mvp-tree and vp-tree over `rows`.
fn trees<T, S, M>(rows: &S, metric: M) -> (MvpTree<T, M, S>, VpTree<T, M, S>)
where
    S: RowStore<T> + Clone + Sync,
    M: BoundedMetric<S::Item> + Clone + Sync,
{
    let mvp = MvpTree::with_rows(rows.clone(), metric.clone(), mvp_params()).unwrap();
    let vp = VpTree::with_rows(rows.clone(), metric, vp_params()).unwrap();
    (mvp, vp)
}

#[test]
fn clustered_paper_set() {
    let items = clustered_vectors(&ClusteredConfig::paper(SEED)).unwrap();
    let rows = F64Rows::from_items(items.clone()).unwrap();
    let (mvp, vp) = trees(&rows, Euclidean);
    let queries = stride(&items);
    let qs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let mut pins = Pins::default();
    pins.push("mvp build distances".into(), mvp.build_distances());
    pins.push("vp build distances".into(), vp.build_distances());
    let router = ScanRouter::new();
    let view = mvp.as_view();
    for k in [10, 1] {
        pins.search(&format!("mvp routed KNN {k}"), &qs, |q, s| {
            routed(&view, &router, q, k, s)
        });
    }
    routes(&mut pins, &router);
    let range = Query::Range(0.2);
    pins.search("mvp RANGE 0.2", &qs, |q, s| mvp.search(q, range, s));
    for k in [10, 1] {
        let knn = Query::Knn(k);
        pins.search(&format!("vp KNN {k}"), &qs, |q, s| vp.search(q, knn, s));
    }
    pins.search("vp RANGE 0.2", &qs, |q, s| vp.search(q, range, s));
    pins.budgeted("mvp budgeted KNN 10", &mvp, &qs, 10);
    pins.budgeted("vp budgeted KNN 10", &vp, &qs, 10);
    check("clustered", &pins, CLUSTERED);
}

#[test]
fn uniform_set() {
    let items = uniform_vectors(50_000, 20, SEED);
    let rows = F64Rows::from_items(items.clone()).unwrap();
    let (mvp, vp) = trees(&rows, Euclidean);
    let queries = stride(&items);
    let qs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let mut pins = Pins::default();
    pins.push("mvp build distances".into(), mvp.build_distances());
    pins.push("vp build distances".into(), vp.build_distances());
    let router = ScanRouter::new();
    let view = mvp.as_view();
    pins.search("mvp routed KNN 10", &qs, |q, s| {
        routed(&view, &router, q, 10, s)
    });
    routes(&mut pins, &router);
    let knn = Query::Knn(10);
    pins.search("mvp KNN 10", &qs, |q, s| mvp.search(q, knn, s));
    pins.search("vp KNN 10", &qs, |q, s| vp.search(q, knn, s));
    pins.budgeted("mvp budgeted KNN 10", &mvp, &qs, 10);
    pins.budgeted("vp budgeted KNN 10", &vp, &qs, 10);
    check("uniform", &pins, UNIFORM);
}

#[test]
fn mri_set() {
    let config = MriConfig {
        width: 64,
        height: 64,
        ..MriConfig::paper(SEED)
    };
    let items: Vec<Vec<u8>> = synthetic_mri_images(&config)
        .unwrap()
        .iter()
        .map(|img| img.pixels().to_vec())
        .collect();
    // 8-bit images are served as byte rows (`u8-vector` snapshots).
    let rows = U8Rows::from_items(items.clone()).unwrap();
    let (mvp, vp) = trees(&rows, Manhattan);
    let queries = stride(&items);
    let qs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let mut sixth: Vec<f64> = qs
        .iter()
        .map(|q| mvp.search(q, Query::Knn(6), &mut NoTrace)[5].distance)
        .collect();
    sixth.sort_by(f64::total_cmp);
    let radius = sixth[(sixth.len() - 1) / 2];
    assert_eq!(radius.to_bits(), MRI_RADIUS.to_bits(), "radius {radius}");
    let mut pins = Pins::default();
    pins.push("mvp build distances".into(), mvp.build_distances());
    pins.push("vp build distances".into(), vp.build_distances());
    let range = Query::Range(MRI_RADIUS);
    pins.search("mvp RANGE r", &qs, |q, s| mvp.search(q, range, s));
    pins.search("vp RANGE r", &qs, |q, s| vp.search(q, range, s));
    check("mri", &pins, MRI);
}

/// The ingest script: blocks of three inserts and one delete of the
/// oldest surviving insert, as the benchmark's ingest connections
/// write. Each insert perturbs an item of the set by at most ε per
/// coordinate, deterministically.
const INGEST_BLOCKS: usize = 1_300;

#[test]
fn ingest_set() {
    let config = ClusteredConfig {
        clusters: 10,
        cluster_size: 1000,
        ..ClusteredConfig::paper(SEED)
    };
    let items = clustered_vectors(&config).unwrap();
    let rows = F64Rows::from_items(items.clone()).unwrap();
    let tree = ConcurrentMvpTree::with_rows(rows, Euclidean, mvp_params()).unwrap();
    let queries = stride(&items);
    let qs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let knn = Query::Knn(10);
    let mut pins = Pins::default();
    let checkpoint = |pins: &mut Pins, at: &str| {
        let snapshot = tree.read();
        pins.push(format!("{at} build distances"), tree.build_distances());
        pins.push(format!("{at} live"), snapshot.len() as u64);
        pins.push(format!("{at} overflow"), snapshot.overflow_len() as u64);
        pins.push(format!("{at} tree dead"), snapshot.tree_dead() as u64);
        pins.search(&format!("{at} KNN 10"), &qs, |q, s| {
            snapshot.search(q, knn, s)
        });
    };
    checkpoint(&mut pins, "start");
    let mut inserted = std::collections::VecDeque::new();
    let mut rebuilt_at = None;
    for block in 0..INGEST_BLOCKS {
        for j in 0..3 {
            let i = block * 3 + j;
            let base = &items[i * 7_919 % items.len()];
            let item: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(d, x)| x + (((i * 31 + d * 17) % 13) as f64 / 6.0 - 1.0) * config.epsilon)
                .collect();
            let before = tree.read().overflow_len();
            inserted.push_back(tree.insert(item));
            if tree.read().overflow_len() < before {
                rebuilt_at.get_or_insert(i as u64);
            }
        }
        assert!(tree.remove(inserted.pop_front().unwrap()));
        if block == INGEST_BLOCKS / 2 {
            checkpoint(&mut pins, "midway");
        }
    }
    pins.push("rebuild at insert".into(), rebuilt_at.expect("no rebuild"));
    checkpoint(&mut pins, "end");
    check("ingest", &pins, INGEST);
}

const CLUSTERED: &[(&str, u64)] = &[
    ("mvp build distances", 397_132),
    ("vp build distances", 684_481),
    ("mvp routed KNN 10 distances", 314_636),
    ("mvp routed KNN 10 abandoned", 279_387),
    ("mvp routed KNN 10 abandoned work bits", 0x41110d6c00000000),
    ("mvp routed KNN 10 nodes visited", 16_856),
    ("mvp routed KNN 10 subtrees pruned", 3768),
    ("mvp routed KNN 1 distances", 1062),
    ("mvp routed KNN 1 abandoned", 687),
    ("mvp routed KNN 1 abandoned work bits", 0x4085780000000000),
    ("mvp routed KNN 1 nodes visited", 128),
    ("mvp routed KNN 1 subtrees pruned", 768),
    ("mvp route k>=1 probe distances", 33_735),
    ("mvp route k>=1 scans", 0),
    ("mvp route k>=8 probe distances", 166_082),
    ("mvp route k>=8 scans", 0),
    ("mvp RANGE 0.2 distances", 5609),
    ("mvp RANGE 0.2 abandoned", 1671),
    ("mvp RANGE 0.2 abandoned work bits", 0x409a1c0000000000),
    ("mvp RANGE 0.2 nodes visited", 1953),
    ("mvp RANGE 0.2 subtrees pruned", 3119),
    ("vp KNN 10 distances", 333_379),
    ("vp KNN 10 abandoned", 89_854),
    ("vp KNN 10 abandoned work bits", 0x40f5efe000000000),
    ("vp KNN 10 nodes visited", 333_379),
    ("vp KNN 10 subtrees pruned", 80_549),
    ("vp KNN 1 distances", 537),
    ("vp KNN 1 abandoned", 20),
    ("vp KNN 1 abandoned work bits", 0x4034000000000000),
    ("vp KNN 1 nodes visited", 537),
    ("vp KNN 1 subtrees pruned", 474),
    ("vp RANGE 0.2 distances", 21_404),
    ("vp RANGE 0.2 abandoned", 4143),
    ("vp RANGE 0.2 abandoned work bits", 0x40b02f0000000000),
    ("vp RANGE 0.2 nodes visited", 21_404),
    ("vp RANGE 0.2 subtrees pruned", 9200),
    ("mvp budgeted KNN 10 budget", 4916),
    ("mvp budgeted KNN 10 spent", 143_812),
    ("mvp budgeted KNN 10 recall x1e4", 8875),
    ("vp budgeted KNN 10 budget", 5209),
    ("vp budgeted KNN 10 spent", 162_139),
    ("vp budgeted KNN 10 recall x1e4", 9938),
];

const UNIFORM: &[(&str, u64)] = &[
    ("mvp build distances", 397_132),
    ("vp build distances", 684_481),
    ("mvp routed KNN 10 distances", 1_600_000),
    ("mvp routed KNN 10 abandoned", 1_597_103),
    ("mvp routed KNN 10 abandoned work bits", 0x41385eaf00000000),
    ("mvp routed KNN 10 nodes visited", 32),
    ("mvp routed KNN 10 subtrees pruned", 0),
    ("mvp route k>=8 probe distances", 771_618),
    ("mvp route k>=8 scans", 1),
    ("mvp KNN 10 distances", 1_560_102),
    ("mvp KNN 10 abandoned", 1_505_640),
    ("mvp KNN 10 abandoned work bits", 0x4136f96800000000),
    ("mvp KNN 10 nodes visited", 26_240),
    ("mvp KNN 10 subtrees pruned", 0),
    ("vp KNN 10 distances", 1_581_283),
    ("vp KNN 10 abandoned", 541_951),
    ("vp KNN 10 abandoned work bits", 0x412089fe00000000),
    ("vp KNN 10 nodes visited", 1_581_283),
    ("vp KNN 10 subtrees pruned", 7629),
    ("mvp budgeted KNN 10 budget", 24_376),
    ("mvp budgeted KNN 10 spent", 780_032),
    ("mvp budgeted KNN 10 recall x1e4", 8188),
    ("vp budgeted KNN 10 budget", 24_707),
    ("vp budgeted KNN 10 spent", 790_624),
    ("vp budgeted KNN 10 recall x1e4", 9781),
];

const MRI: &[(&str, u64)] = &[
    ("mvp build distances", 6589),
    ("vp build distances", 9474),
    ("mvp RANGE r distances", 2928),
    ("mvp RANGE r abandoned", 1316),
    ("mvp RANGE r abandoned work bits", 0x4094250000000000),
    ("mvp RANGE r nodes visited", 705),
    ("mvp RANGE r subtrees pruned", 992),
    ("vp RANGE r distances", 4031),
    ("vp RANGE r abandoned", 1044),
    ("vp RANGE r abandoned work bits", 0x408a7a0000000000),
    ("vp RANGE r nodes visited", 4031),
    ("vp RANGE r subtrees pruned", 1258),
];

const INGEST: &[(&str, u64)] = &[
    ("start build distances", 77_132),
    ("start live", 10_000),
    ("start overflow", 0),
    ("start tree dead", 0),
    ("start KNN 10 distances", 48_660),
    ("start KNN 10 abandoned", 26_482),
    ("start KNN 10 abandoned work bits", 0x40d9dc8000000000),
    ("start KNN 10 nodes visited", 10_618),
    ("start KNN 10 subtrees pruned", 7126),
    ("midway build distances", 77_132),
    ("midway live", 11_302),
    ("midway overflow", 1302),
    ("midway tree dead", 0),
    ("midway KNN 10 distances", 90_324),
    ("midway KNN 10 abandoned", 68_134),
    ("midway KNN 10 abandoned work bits", 0x40f0a26000000000),
    ("midway KNN 10 nodes visited", 10_650),
    ("midway KNN 10 subtrees pruned", 7126),
    ("rebuild at insert", 3749),
    ("end build distances", 97_140),
    ("end live", 12_600),
    ("end overflow", 150),
    ("end tree dead", 51),
    ("end KNN 10 distances", 51_671),
    ("end KNN 10 abandoned", 34_433),
    ("end KNN 10 abandoned work bits", 0x40e0d02000000000),
    ("end KNN 10 nodes visited", 8142),
    ("end KNN 10 subtrees pruned", 5611),
];
