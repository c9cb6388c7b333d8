//! The mvp-tree kNN leaf sweep across its block and PATH boundaries.
//!
//! The kNN leaf visit filters entries in fixed-size blocks and computes
//! distances only for the block's survivors, four at a time where the
//! metric batches them, with the PATH length as a compile-time constant
//! for short paths. This grid crosses every such boundary — leaf
//! capacities around the block size, PATH lengths past the specialised
//! range, several fanouts and `k` from 1 to past the leaf size — on
//! data where every point is stored three times.
//!
//! Each tree is searched with plain `Euclidean`, which batches leaf
//! distances, owned and mapped from a snapshot, and read through a
//! [`DistanceTally`]. Its kNN answers must equal a `LinearScan` oracle,
//! and a [`QueryProfile`] must read the tally's cost. The same tree
//! under `Counted<Euclidean>`, which keeps one bounded call per
//! candidate, must give the same answers, charge the same cost and
//! emit the same profile and event stream. The costs over the whole
//! grid are pinned by a digest taken from the one-entry-at-a-time leaf
//! loop the sweep replaced, so a sweep that computes one distance more
//! or fewer fails here even when its answers stay right.
//!
//! Queries with NaN and infinite coordinates have no oracle (every
//! distance is NaN or ∞), so their answers and costs are pinned as
//! literals taken from that loop too.

use vantage::prelude::*;
use vantage_datasets::uniform_vectors;
use vantage_persist::check::fnv1a64;
use vantage_persist::{self as persist, F64Vectors, MappedMvpTree};

const LEAF_CAPACITIES: [usize; 5] = [1, 63, 64, 65, 200];
const PATH_LENGTHS: [usize; 5] = [0, 1, 2, 5, 9];
const FANOUTS: [usize; 3] = [2, 3, 5];
const KS: [usize; 3] = [1, 10, 500];

/// FNV-1a digest of every grid search's distance computations and
/// abandoned computations, in grid order, as the per-entry leaf loop
/// the sweep replaced computed them.
const GRID_COST_DIGEST: u64 = 0x056c_37f7_1ae4_71d8;

/// 400 distinct 4-d points, each stored three times (ids `i`, `i + 400`,
/// `i + 800`), so equal distances and id tie-breaks occur in every leaf.
fn items() -> Vec<Vec<f64>> {
    let base = uniform_vectors(400, 4, 11);
    base.iter().chain(&base).chain(&base).cloned().collect()
}

/// Two member queries (their duplicates tie at distance 0) and two
/// fresh ones.
fn queries(items: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut q = vec![items[0].clone(), items[517].clone()];
    q.extend(uniform_vectors(2, 4, 12));
    q
}

/// One grid point's tree in every form searched: plain `Euclidean`
/// (batched leaf distances) owned and mapped, and `Counted<Euclidean>`
/// (one bounded call per leaf candidate).
struct Trees {
    owned: MvpTree<Vec<f64>, Euclidean>,
    mapped: MappedMvpTree<F64Vectors, Euclidean>,
    counted: MvpTree<Vec<f64>, Counted<Euclidean>>,
}

fn trees(m: usize, capacity: usize, p: usize) -> Trees {
    let params = || MvpParams::paper(m, capacity, p).seed(3);
    let owned = MvpTree::build(items(), Euclidean, params()).unwrap();
    let counted = MvpTree::build(items(), Counted::new(Euclidean), params()).unwrap();
    let path = std::env::temp_dir().join(format!(
        "vantage-leaf-sweep-{}-{m}-{capacity}-{p}",
        std::process::id()
    ));
    persist::save_mvp_tree(&owned, &path).unwrap();
    let mapped = persist::open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    Trees {
        owned,
        mapped,
        counted,
    }
}

/// The sink a kNN search reports into.
enum Via<'a> {
    Untraced,
    Tally(&'a mut DistanceTally),
    Events(&'a mut (QueryProfile, EventLog)),
}

/// What one search form observed: answers, the tally's cost, and the
/// profile and prune/reject events of an event-retaining run, each
/// rendered bit for bit (NaN bounds compare by bits).
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<(usize, u64)>,
    cost: DistanceTotals,
    profile: String,
    events: Vec<(u32, PruneReason, u64, bool)>,
}

/// One kNN search through the untraced, tallied and event-retaining
/// entry points of a tree form, checked for agreement.
fn observe(label: &str, search: &dyn Fn(Via<'_>) -> Vec<Neighbor>) -> Observed {
    let mut tally = DistanceTally::new();
    let answers = id_bits(&search(Via::Tally(&mut tally)));
    assert_eq!(
        id_bits(&search(Via::Untraced)),
        answers,
        "{label}: untraced answers"
    );
    let cost = tally.totals();

    let mut sink = (QueryProfile::new(), EventLog::new());
    assert_eq!(
        id_bits(&search(Via::Events(&mut sink))),
        answers,
        "{label}: traced answers"
    );
    let (profile, log) = sink;
    assert_eq!(
        profile.total_distances(),
        cost.computations,
        "{label}: profile distances"
    );
    assert_eq!(
        profile.total_abandoned(),
        cost.abandoned,
        "{label}: profile abandoned"
    );
    Observed {
        answers,
        cost,
        profile: format!("{profile:?}"),
        events: log
            .events()
            .iter()
            .map(|e| (e.level, e.reason, e.bound.to_bits(), e.subtree))
            .collect(),
    }
}

/// Every tree form's kNN for one query, checked against each other:
/// the batched owned and mapped searches, and the `Counted` tree's
/// single-pair loop, whose metric must also charge the tallied cost.
/// Returns the shared answers and cost.
fn knn_all(label: &str, trees: &Trees, q: &[f64], k: usize) -> (Vec<(usize, u64)>, DistanceTotals) {
    let qv = q.to_vec();
    let owned = observe(&format!("{label} owned"), &|via| match via {
        Via::Untraced => trees.owned.knn(&qv, k),
        Via::Tally(t) => trees.owned.search(&qv, Query::Knn(k), t),
        Via::Events(e) => trees.owned.search(&qv, Query::Knn(k), e),
    });
    let view = trees.mapped.view();
    let mapped = observe(&format!("{label} mapped"), &|via| match via {
        Via::Untraced => view.knn(q, k),
        Via::Tally(t) => view.search(q, Query::Knn(k), t),
        Via::Events(e) => view.search(q, Query::Knn(k), e),
    });
    assert_eq!(mapped, owned, "{label}: mapped against owned");

    let probe = trees.counted.metric();
    probe.reset();
    let single = observe(&format!("{label} counted"), &|via| match via {
        Via::Untraced => trees.counted.knn(&qv, k),
        Via::Tally(t) => trees.counted.search(&qv, Query::Knn(k), t),
        Via::Events(e) => trees.counted.search(&qv, Query::Knn(k), e),
    });
    // `observe` ran the search three times.
    let charged = probe.totals();
    assert_eq!(
        charged.computations,
        3 * single.cost.computations,
        "{label}: Counted computations"
    );
    assert_eq!(
        charged.abandoned,
        3 * single.cost.abandoned,
        "{label}: Counted abandoned"
    );
    assert_eq!(single, owned, "{label}: single-pair loop against batched");
    (owned.answers, owned.cost)
}

#[test]
fn knn_leaf_sweep_matches_linear_scan_across_block_and_path_boundaries() {
    let items = items();
    let queries = queries(&items);
    let oracle = LinearScan::new(items, Euclidean);
    let expected: Vec<Vec<Vec<Neighbor>>> = queries
        .iter()
        .map(|q| KS.iter().map(|&k| oracle.knn(q, k)).collect())
        .collect();

    let mut costs = Vec::new();
    for &capacity in &LEAF_CAPACITIES {
        for &p in &PATH_LENGTHS {
            for &m in &FANOUTS {
                let trees = trees(m, capacity, p);
                for (qi, q) in queries.iter().enumerate() {
                    for (ki, &k) in KS.iter().enumerate() {
                        let label = format!("m={m} capacity={capacity} p={p} q={qi} k={k}");
                        let (answers, cost) = knn_all(&label, &trees, q, k);
                        costs.extend(cost.computations.to_le_bytes());
                        costs.extend(cost.abandoned.to_le_bytes());
                        assert_eq!(answers, id_bits(&expected[qi][ki]), "{label}: oracle");
                    }
                }
            }
        }
    }
    assert_eq!(
        fnv1a64(&costs),
        GRID_COST_DIGEST,
        "grid distance costs moved"
    );
}

/// `(id, distance bits)` of each answer, for literal comparison (NaN
/// distances compare by bits).
fn id_bits(answers: &[Neighbor]) -> Vec<(usize, u64)> {
    answers
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// A NaN coordinate makes every distance NaN: each leaf rejects all its
/// entries and only vantage points are measured. An infinite one makes
/// every distance and every lower bound ∞, so nothing is pruned and the
/// smallest ids win the all-∞ tie.
const NAN_IDS: [usize; 10] = [6, 8, 9, 10, 15, 31, 35, 62, 66, 72];
const NAN_COST: u64 = 182;
const INF_COST: u64 = 1200;

#[test]
fn non_finite_queries_reproduce_the_per_entry_loop() {
    let trees = trees(3, 64, 5);
    let nan = vec![0.5, f64::NAN, 0.5, 0.5];
    let pos_inf = vec![f64::INFINITY, 0.5, 0.5, 0.5];
    let mixed_inf = vec![0.25, f64::NEG_INFINITY, 0.75, f64::INFINITY];
    let inf_ids: Vec<usize> = (0..10).collect();
    let pinned = [
        ("nan", &nan, &NAN_IDS[..], f64::NAN, NAN_COST),
        ("+inf", &pos_inf, &inf_ids[..], f64::INFINITY, INF_COST),
        (
            "mixed inf",
            &mixed_inf,
            &inf_ids[..],
            f64::INFINITY,
            INF_COST,
        ),
    ];
    for (name, q, ids, distance, cost) in pinned {
        for k in [1, 10] {
            let label = format!("{name} k={k}");
            let (answers, observed) = knn_all(&label, &trees, q, k);
            let expected: Vec<(usize, u64)> = ids[..k]
                .iter()
                .map(|&id| (id, distance.to_bits()))
                .collect();
            assert_eq!(answers, expected, "{label}: answers");
            assert_eq!(observed.computations, cost, "{label}: distances");
        }
    }
}
