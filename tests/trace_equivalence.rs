//! Tracing must be observation-only: with any sink attached, a search
//! returns bit-identical answers and performs bit-identical distance
//! computations ([`Counted`] totals) compared to the untraced path, the
//! [`QueryProfile`] role counts partition the [`Counted`] total exactly,
//! and a [`DistanceTally`] reads the same cost — abandoned work
//! included — that a [`Counted`] metric charges.

use vantage::prelude::*;
use vantage_datasets::uniform_vectors;

const RADII: [f64; 4] = [0.0, 0.3, 0.7, 2.0];
const KS: [usize; 4] = [1, 5, 40, 500];
/// Far-query radii: from "everything" down to "nothing" on 8-d data in
/// the unit cube.
const FAR_RADII: [f64; 4] = [0.0, 0.8, 1.4, 3.0];

fn queries() -> Vec<Vec<f64>> {
    uniform_vectors(6, 8, 2)
}

/// One search form with its radius or `k`.
type Form = Query;

fn forms() -> impl Iterator<Item = Form> {
    RADII
        .into_iter()
        .map(Form::Range)
        .chain(KS.into_iter().map(Form::Knn))
        .chain(FAR_RADII.into_iter().map(Form::Beyond))
        .chain(KS.into_iter().map(Form::Kfn))
}

/// A structure's search forms, untraced and traced into any sink. Forms
/// a structure does not offer (far queries on the gh-tree and GNAT)
/// answer `None`.
trait Searches<T> {
    fn untraced(&self, q: &T, form: Form) -> Option<Vec<Neighbor>>;
    fn traced<S: TraceSink>(&self, q: &T, form: Form, sink: &mut S) -> Option<Vec<Neighbor>>;
}

macro_rules! searches {
    ($ty:ident, far) => {
        impl<M: BoundedMetric<Vec<f64>>> Searches<Vec<f64>> for $ty<Vec<f64>, M> {
            fn untraced(&self, q: &Vec<f64>, form: Form) -> Option<Vec<Neighbor>> {
                Some(match form {
                    Form::Range(r) => self.range(q, r),
                    Form::Knn(k) => self.knn(q, k),
                    Form::Beyond(r) => self.range_beyond(q, r),
                    Form::Kfn(k) => self.k_farthest(q, k),
                })
            }

            fn traced<S: TraceSink>(
                &self,
                q: &Vec<f64>,
                form: Form,
                sink: &mut S,
            ) -> Option<Vec<Neighbor>> {
                Some(self.search(q, form, sink))
            }
        }
    };
    ($ty:ident, near) => {
        impl<M: BoundedMetric<Vec<f64>>> Searches<Vec<f64>> for $ty<Vec<f64>, M> {
            fn untraced(&self, q: &Vec<f64>, form: Form) -> Option<Vec<Neighbor>> {
                match form {
                    Form::Range(r) => Some(self.range(q, r)),
                    Form::Knn(k) => Some(self.knn(q, k)),
                    Form::Beyond(_) | Form::Kfn(_) => None,
                }
            }

            fn traced<S: TraceSink>(
                &self,
                q: &Vec<f64>,
                form: Form,
                sink: &mut S,
            ) -> Option<Vec<Neighbor>> {
                match form {
                    Form::Range(r) => Some(self.range_traced(q, r, sink)),
                    Form::Knn(k) => Some(self.knn_traced(q, k, sink)),
                    Form::Beyond(_) | Form::Kfn(_) => None,
                }
            }
        }
    };
}

searches!(VpTree, far);
searches!(MvpTree, far);
searches!(LinearScan, far);
searches!(GhTree, near);
searches!(Gnat, near);

/// Runs every (query, form) workload three times — untraced through the
/// index traits, traced into a fresh [`QueryProfile`], and traced into a
/// fresh [`DistanceTally`] — and checks answers, `Counted` totals, the
/// role-sum identity, and that the tally reads the untraced run's
/// `Counted` totals bit for bit.
fn assert_equivalent<I: Searches<Vec<f64>>>(name: &str, probe: &Counted<Euclidean>, index: &I) {
    for q in &queries() {
        for form in forms() {
            probe.reset();
            let Some(untraced) = index.untraced(q, form) else {
                continue;
            };
            let untraced_cost = probe.totals();
            probe.reset();

            let mut profile = QueryProfile::new();
            let traced = index.traced(q, form, &mut profile).expect("same forms");
            let traced_cost = probe.take();

            assert_eq!(untraced, traced, "{name} answers differ at {form:?}");
            assert_eq!(
                untraced_cost.computations, traced_cost,
                "{name} cost differs at {form:?}"
            );
            assert_eq!(
                profile.total_distances(),
                traced_cost,
                "{name} profile total != Counted total at {form:?}"
            );
            assert_eq!(
                profile.distances(DistanceRole::Vantage)
                    + profile.distances(DistanceRole::Candidate),
                traced_cost,
                "{name} role counts don't partition the Counted total at {form:?}"
            );

            let mut tally = DistanceTally::new();
            let tallied = index.traced(q, form, &mut tally).expect("same forms");
            probe.reset();
            assert_eq!(
                untraced, tallied,
                "{name} tallied answers differ at {form:?}"
            );
            let tally = tally.totals();
            assert_eq!(
                tally.computations, untraced_cost.computations,
                "{name} tally computations != Counted at {form:?}"
            );
            assert_eq!(
                tally.abandoned, untraced_cost.abandoned,
                "{name} tally abandoned != Counted at {form:?}"
            );
            assert_eq!(
                tally.abandoned_work.to_bits(),
                untraced_cost.abandoned_work.to_bits(),
                "{name} tally abandoned_work != Counted at {form:?}"
            );
        }
    }
}

#[test]
fn vp_tree_traced_is_bit_identical() {
    let metric = Counted::new(Euclidean);
    let probe = metric.clone();
    let tree = VpTree::build(
        uniform_vectors(400, 8, 1),
        metric,
        VpTreeParams::with_order(3).leaf_capacity(6).seed(7),
    )
    .unwrap();
    assert_equivalent("vp", &probe, &tree);
}

#[test]
fn mvp_tree_traced_is_bit_identical() {
    let metric = Counted::new(Euclidean);
    let probe = metric.clone();
    let tree = MvpTree::build(
        uniform_vectors(400, 8, 1),
        metric,
        MvpParams::paper(3, 20, 5).seed(7),
    )
    .unwrap();
    assert_equivalent("mvp", &probe, &tree);
}

#[test]
fn linear_scan_traced_is_bit_identical() {
    let metric = Counted::new(Euclidean);
    let probe = metric.clone();
    let scan = LinearScan::new(uniform_vectors(400, 8, 1), metric);
    assert_equivalent("linear", &probe, &scan);
}

#[test]
fn baseline_trees_traced_are_bit_identical() {
    let points = uniform_vectors(400, 8, 1);
    {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let gh = GhTree::build(points.clone(), metric, GhTreeParams::default()).unwrap();
        assert_equivalent("gh", &probe, &gh);
    }
    {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let gnat = Gnat::build(points, metric, GnatParams::default()).unwrap();
        assert_equivalent("gnat", &probe, &gnat);
    }
}

#[test]
fn bk_tree_traced_is_bit_identical() {
    let words = vantage_datasets::perturbed_words(80, 9, 3, 4);
    let metric = Counted::new(Levenshtein);
    let probe = metric.clone();
    let bk = BkTree::build(words, metric);
    for q in ["hello", "", "zzzzzzzzzz"] {
        let q = q.to_string();
        for r in [0.0, 1.0, 3.0, 20.0] {
            probe.reset();
            let untraced = bk.range(&q, r);
            let untraced_cost = probe.take();
            let mut profile = QueryProfile::new();
            let traced = bk.range_traced(&q, r, &mut profile);
            assert_eq!(untraced, traced, "bk range answers differ at r={r}");
            assert_eq!(profile.total_distances(), probe.take());
            assert_eq!(profile.total_distances(), untraced_cost);
        }
        for k in [1, 7, 200] {
            probe.reset();
            let untraced = bk.knn(&q, k);
            let untraced_cost = probe.take();
            let mut profile = QueryProfile::new();
            let traced = bk.knn_traced(&q, k, &mut profile);
            assert_eq!(untraced, traced, "bk knn answers differ at k={k}");
            assert_eq!(profile.total_distances(), probe.take());
            assert_eq!(profile.total_distances(), untraced_cost);
        }
    }
}

#[test]
fn profiles_see_pruning_on_selective_queries() {
    // A selective query on a real tree must show both savings mechanisms.
    let points = uniform_vectors(600, 8, 11);
    let tree = MvpTree::build(
        points.clone(),
        Euclidean,
        MvpParams::paper(3, 40, 5).seed(1),
    )
    .unwrap();
    let mut profile = QueryProfile::new();
    tree.search(&points[17], Query::Range(0.05), &mut profile);
    assert!(profile.nodes_visited() > 0);
    assert!(profile.subtrees_pruned() > 0, "no subtree was pruned");
    assert!(
        profile.candidates_rejected() > 0,
        "no leaf candidate was filtered"
    );
    assert!(profile.total_distances() < points.len() as u64);
    // Per-level fanout: level 0 is the root, visited exactly once, and
    // the per-level visit counts partition the node total.
    assert_eq!(profile.levels()[0].visited, 1);
    let by_level: u64 = profile.levels().iter().map(|l| l.visited).sum();
    assert_eq!(by_level, profile.nodes_visited());
}

#[test]
fn event_log_captures_individual_events() {
    let points = uniform_vectors(300, 8, 5);
    let tree = VpTree::build(points.clone(), Euclidean, VpTreeParams::binary().seed(2)).unwrap();
    let mut sink = (QueryProfile::new(), EventLog::new());
    tree.search(&points[3], Query::Range(0.1), &mut sink);
    let (profile, log) = sink;
    let events = log.events();
    assert!(!events.is_empty());
    let subtree_events = events.iter().filter(|e| e.subtree).count() as u64;
    assert_eq!(subtree_events, profile.subtrees_pruned());
    assert_eq!(
        events.len() as u64,
        profile.subtrees_pruned() + profile.candidates_rejected()
    );
    for e in events {
        assert!(!e.bound.is_nan());
    }
}

/// A metric that opts into [`BoundedMetric`] with the default
/// full-computation methods: it never abandons, so searching with it is
/// the pre-kernel "always evaluate fully" behavior.
#[derive(Clone)]
struct FullCompute;

impl Metric<Vec<f64>> for FullCompute {
    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        Euclidean.distance(a, b)
    }
}

impl BoundedMetric<Vec<f64>> for FullCompute {}

/// The tentpole's bit-identity claim, end to end: every structure must
/// return byte-for-byte the same answers (ids *and* f64 distances) and
/// charge the same number of distance computations whether its leaf
/// filters run the early-abandoning kernels (`Euclidean`) or always
/// evaluate fully (`FullCompute`).
#[test]
fn early_abandoning_search_is_bit_identical_to_full_evaluation() {
    let points = uniform_vectors(400, 8, 1);

    let fast_probe = Counted::new(Euclidean);
    let full_probe = Counted::new(FullCompute);
    let check = |name: &str, fast: &dyn MetricIndex<Vec<f64>>, full: &dyn MetricIndex<Vec<f64>>| {
        for q in &queries() {
            for r in RADII {
                fast_probe.reset();
                full_probe.reset();
                let a = fast.range(q, r);
                let b = full.range(q, r);
                assert_eq!(a, b, "{name} range answers differ at r={r}");
                assert_eq!(
                    fast_probe.take(),
                    full_probe.take(),
                    "{name} range cost differs at r={r}"
                );
            }
            for k in KS {
                fast_probe.reset();
                full_probe.reset();
                let a = fast.knn(q, k);
                let b = full.knn(q, k);
                assert_eq!(a, b, "{name} knn answers differ at k={k}");
                assert_eq!(
                    fast_probe.take(),
                    full_probe.take(),
                    "{name} knn cost differs at k={k}"
                );
            }
        }
    };

    let params = VpTreeParams::with_order(3).leaf_capacity(6).seed(7);
    check(
        "vp",
        &VpTree::build(points.clone(), fast_probe.clone(), params.clone()).unwrap(),
        &VpTree::build(points.clone(), full_probe.clone(), params).unwrap(),
    );
    let params = MvpParams::paper(3, 20, 5).seed(7);
    check(
        "mvp",
        &MvpTree::build(points.clone(), fast_probe.clone(), params.clone()).unwrap(),
        &MvpTree::build(points.clone(), full_probe.clone(), params).unwrap(),
    );
    check(
        "linear",
        &LinearScan::new(points.clone(), fast_probe.clone()),
        &LinearScan::new(points.clone(), full_probe.clone()),
    );
    check(
        "gh",
        &GhTree::build(points.clone(), fast_probe.clone(), GhTreeParams::default()).unwrap(),
        &GhTree::build(points.clone(), full_probe.clone(), GhTreeParams::default()).unwrap(),
    );
    check(
        "gnat",
        &Gnat::build(points.clone(), fast_probe.clone(), GnatParams::default()).unwrap(),
        &Gnat::build(points.clone(), full_probe.clone(), GnatParams::default()).unwrap(),
    );
    check(
        "fq",
        &FqTree::build(points.clone(), fast_probe.clone(), FqTreeParams::default()).unwrap(),
        &FqTree::build(points, full_probe.clone(), FqTreeParams::default()).unwrap(),
    );
}
