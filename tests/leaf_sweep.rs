//! The mvp-tree kNN leaf sweep across its block and PATH boundaries.
//!
//! The kNN leaf visit filters entries in fixed-size blocks and computes
//! distances only for the block's survivors, with the PATH length as a
//! compile-time constant for short paths. This grid crosses every such
//! boundary — leaf capacities around the block size, PATH lengths past
//! the specialised range, several fanouts and `k` from 1 to past the
//! leaf size — on data where every point is stored three times.
//!
//! For each tree, owned and mapped from a snapshot, kNN answers must
//! equal a `LinearScan` oracle, and the `Counted` metric, a
//! [`DistanceTally`] and a [`QueryProfile`] must all read the same
//! distance cost. The costs over the whole grid are pinned by a digest
//! taken from the one-entry-at-a-time leaf loop the sweep replaced, so
//! a sweep that computes one distance more or fewer fails here even
//! when its answers stay right.
//!
//! Queries with NaN and infinite coordinates have no oracle (every
//! distance is NaN or ∞), so their answers and `Counted` totals are
//! pinned as literals taken from that loop too.

use vantage::prelude::*;
use vantage_datasets::uniform_vectors;
use vantage_persist::check::fnv1a64;
use vantage_persist::{self as persist, F64Vectors, MappedMvpTree};

const LEAF_CAPACITIES: [usize; 5] = [1, 63, 64, 65, 200];
const PATH_LENGTHS: [usize; 5] = [0, 1, 2, 5, 9];
const FANOUTS: [usize; 3] = [2, 3, 5];
const KS: [usize; 3] = [1, 10, 500];

/// FNV-1a digest of every grid search's `Counted` computations and
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

fn build(m: usize, capacity: usize, p: usize) -> MvpTree<Vec<f64>, Counted<Euclidean>> {
    MvpTree::build(
        items(),
        Counted::new(Euclidean),
        MvpParams::paper(m, capacity, p).seed(3),
    )
    .unwrap()
}

/// Writes `tree` as a snapshot and maps it back.
fn mapped(
    tree: &MvpTree<Vec<f64>, Counted<Euclidean>>,
    name: &str,
) -> MappedMvpTree<F64Vectors, Counted<Euclidean>> {
    let path =
        std::env::temp_dir().join(format!("vantage-leaf-sweep-{}-{name}", std::process::id()));
    persist::save_mvp_tree(tree, &path).unwrap();
    let mapped = persist::open_mvp_tree::<F64Vectors, Counted<Euclidean>>(&path).unwrap();
    std::fs::remove_file(&path).ok();
    mapped
}

/// The sink a kNN search reports into.
enum Via<'a> {
    Untraced,
    Tally(&'a mut DistanceTally),
    Profile(&'a mut QueryProfile),
}

/// One kNN search through the untraced, tallied and profiled entry
/// points of a tree form, checked for agreement; returns the answers and
/// the `Counted` totals of the untraced run.
fn knn_agreeing(
    label: &str,
    probe: &Counted<Euclidean>,
    search: &dyn Fn(Via<'_>) -> Vec<Neighbor>,
) -> (Vec<Neighbor>, DistanceTotals) {
    probe.reset();
    let answers = search(Via::Untraced);
    let counted = probe.totals();

    let mut tally = DistanceTally::new();
    assert_eq!(
        id_bits(&search(Via::Tally(&mut tally))),
        id_bits(&answers),
        "{label}: tallied answers"
    );
    let tally = tally.totals();
    assert_eq!(
        tally.computations, counted.computations,
        "{label}: tally computations"
    );
    assert_eq!(
        tally.abandoned, counted.abandoned,
        "{label}: tally abandoned"
    );
    assert_eq!(
        tally.abandoned_work.to_bits(),
        counted.abandoned_work.to_bits(),
        "{label}: tally abandoned work"
    );

    let mut profile = QueryProfile::new();
    assert_eq!(
        id_bits(&search(Via::Profile(&mut profile))),
        id_bits(&answers),
        "{label}: profiled answers"
    );
    assert_eq!(
        profile.total_distances(),
        counted.computations,
        "{label}: profile distances"
    );
    assert_eq!(
        profile.total_abandoned(),
        counted.abandoned,
        "{label}: profile abandoned"
    );
    probe.reset();
    (answers, counted)
}

/// Owned and mapped kNN for one query, checked against each other;
/// returns the shared answers and `Counted` totals.
fn knn_both(
    label: &str,
    owned: &MvpTree<Vec<f64>, Counted<Euclidean>>,
    mapped: &MappedMvpTree<F64Vectors, Counted<Euclidean>>,
    q: &[f64],
    k: usize,
) -> (Vec<Neighbor>, DistanceTotals) {
    let qv = q.to_vec();
    let from_owned = knn_agreeing(
        &format!("{label} owned"),
        owned.metric(),
        &|via| match via {
            Via::Untraced => owned.knn(&qv, k),
            Via::Tally(t) => owned.knn_traced(&qv, k, t),
            Via::Profile(p) => owned.knn_traced(&qv, k, p),
        },
    );
    let view = mapped.view();
    let from_mapped = knn_agreeing(
        &format!("{label} mapped"),
        view.metric(),
        &|via| match via {
            Via::Untraced => view.knn(q, k),
            Via::Tally(t) => view.knn_traced(q, k, t),
            Via::Profile(p) => view.knn_traced(q, k, p),
        },
    );
    assert_eq!(
        id_bits(&from_owned.0),
        id_bits(&from_mapped.0),
        "{label}: mapped answers"
    );
    assert_eq!(from_owned.1, from_mapped.1, "{label}: mapped cost");
    from_owned
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
                let owned = build(m, capacity, p);
                let mapped = mapped(&owned, &format!("{m}-{capacity}-{p}"));
                for (qi, q) in queries.iter().enumerate() {
                    for (ki, &k) in KS.iter().enumerate() {
                        let label = format!("m={m} capacity={capacity} p={p} q={qi} k={k}");
                        let (answers, cost) = knn_both(&label, &owned, &mapped, q, k);
                        costs.extend(cost.computations.to_le_bytes());
                        costs.extend(cost.abandoned.to_le_bytes());
                        assert_eq!(
                            id_bits(&answers),
                            id_bits(&expected[qi][ki]),
                            "{label}: oracle"
                        );
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
    let owned = build(3, 64, 5);
    let mapped = mapped(&owned, "non-finite");
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
            let (answers, counted) = knn_both(&label, &owned, &mapped, q, k);
            let expected: Vec<(usize, u64)> = ids[..k]
                .iter()
                .map(|&id| (id, distance.to_bits()))
                .collect();
            assert_eq!(id_bits(&answers), expected, "{label}: answers");
            assert_eq!(counted.computations, cost, "{label}: distances");
        }
    }
}
