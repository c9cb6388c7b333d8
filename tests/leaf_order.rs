//! Differential tests for the row-ordered item layout.
//!
//! Trees store their items in row order (leaf entries first, so a leaf
//! scan reads one contiguous block) and resolve vantage points and
//! caller-facing ids through an id→row table. A scrambled table, an
//! off-by-one leaf row or a store written in the wrong order would pair
//! an id with the wrong item, so every answer here is checked against a
//! `LinearScan` oracle in ids, distance bits and tie order, over data
//! built to make such mix-ups visible: exact duplicates, equal-distance
//! ties, trees of 0–3 items, and mvp leaves holding a single point.
//!
//! Each tree is queried in three forms — owned (built), decoded from
//! snapshot bytes, and mapped from a snapshot file — through every query
//! form: range, kNN, beyond, kFN, budgeted kNN and the `*_traced`
//! variants. All forms must produce the same transcript of answers and
//! `Counted` tallies, and its digest is pinned: the row order moves no
//! visit and no distance computation, so the digests equal those of the
//! id-ordered layout the pins were taken from.

use vantage::prelude::*;
use vantage_mvptree::{MvpNodeView, MvpTreeRef};
use vantage_persist::check::fnv1a64;
use vantage_persist::{self as persist, F64Vectors, FlatItems, ItemCodec, MetricTag, Utf8Strings};
use vantage_vptree::VpTreeRef;

/// Every query form of one tree over queries of type `Q`.
trait Answers<Q: ?Sized> {
    fn range(&self, q: &Q, r: f64, profile: Option<&mut QueryProfile>) -> Vec<Neighbor>;
    fn knn(&self, q: &Q, k: usize, profile: Option<&mut QueryProfile>) -> Vec<Neighbor>;
    fn beyond(&self, q: &Q, r: f64, profile: Option<&mut QueryProfile>) -> Vec<Neighbor>;
    fn kfn(&self, q: &Q, k: usize, profile: Option<&mut QueryProfile>) -> Vec<Neighbor>;
    fn budgeted(&self, q: &Q, k: usize, budget: SearchBudget) -> BudgetedKnn;
    /// The item named by original id `id`.
    fn item(&self, id: u32) -> &Q;
    fn len(&self) -> usize;
    /// Distance computations and abandoned computations since the last
    /// call.
    fn take_totals(&self) -> (u64, u64);
}

/// Implements [`Answers`] for an owned tree type through its public
/// `MetricIndex`/`FarthestIndex`/`BudgetedSearch` and `*_traced` methods.
macro_rules! owned_answers {
    ($tree:ident) => {
        impl<T, M> Answers<T> for $tree<T, Counted<M>>
        where
            M: BoundedMetric<T>,
        {
            fn range(&self, q: &T, r: f64, profile: Option<&mut QueryProfile>) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.range_traced(q, r, p),
                    None => MetricIndex::range(self, q, r),
                }
            }
            fn knn(&self, q: &T, k: usize, profile: Option<&mut QueryProfile>) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.knn_traced(q, k, p),
                    None => MetricIndex::knn(self, q, k),
                }
            }
            fn beyond(&self, q: &T, r: f64, profile: Option<&mut QueryProfile>) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.beyond_traced(q, r, p),
                    None => self.range_beyond(q, r),
                }
            }
            fn kfn(&self, q: &T, k: usize, profile: Option<&mut QueryProfile>) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.kfn_traced(q, k, p),
                    None => self.k_farthest(q, k),
                }
            }
            fn budgeted(&self, q: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
                self.knn_budgeted(q, k, budget)
            }
            fn item(&self, id: u32) -> &T {
                MetricIndex::get(self, id as usize).expect("id in range")
            }
            fn len(&self) -> usize {
                MetricIndex::len(self)
            }
            fn take_totals(&self) -> (u64, u64) {
                let totals = (self.metric().count(), self.metric().abandoned());
                self.metric().reset();
                totals
            }
        }
    };
}

owned_answers!(VpTree);
owned_answers!(MvpTree);

/// Implements [`Answers`] for a borrowed (mapped) tree view.
macro_rules! view_answers {
    ($view:ident) => {
        impl<'a, S, M> Answers<S::Item> for $view<'a, S, Counted<M>>
        where
            S: vantage::core::ItemStore,
            M: BoundedMetric<S::Item>,
        {
            fn range(
                &self,
                q: &S::Item,
                r: f64,
                profile: Option<&mut QueryProfile>,
            ) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.range_traced(q, r, p),
                    None => $view::range(self, q, r),
                }
            }
            fn knn(
                &self,
                q: &S::Item,
                k: usize,
                profile: Option<&mut QueryProfile>,
            ) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.knn_traced(q, k, p),
                    None => $view::knn(self, q, k),
                }
            }
            fn beyond(
                &self,
                q: &S::Item,
                r: f64,
                profile: Option<&mut QueryProfile>,
            ) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.beyond_traced(q, r, p),
                    None => self.range_beyond(q, r),
                }
            }
            fn kfn(
                &self,
                q: &S::Item,
                k: usize,
                profile: Option<&mut QueryProfile>,
            ) -> Vec<Neighbor> {
                match profile {
                    Some(p) => self.kfn_traced(q, k, p),
                    None => self.k_farthest(q, k),
                }
            }
            fn budgeted(&self, q: &S::Item, k: usize, budget: SearchBudget) -> BudgetedKnn {
                self.knn_budgeted(q, k, budget)
            }
            fn item(&self, id: u32) -> &S::Item {
                $view::item(self, id)
            }
            fn len(&self) -> usize {
                $view::len(self)
            }
            fn take_totals(&self) -> (u64, u64) {
                let totals = (self.metric().count(), self.metric().abandoned());
                self.metric().reset();
                totals
            }
        }
    };
}

view_answers!(VpTreeRef);
view_answers!(MvpTreeRef);

/// Radii, kNN sizes and budgets one dataset is queried with.
struct Plan {
    radii: Vec<f64>,
    beyond: Vec<f64>,
    ks: Vec<usize>,
    budgets: Vec<u64>,
}

/// `(id, distance bits)` pairs: equality is exact, tie order included.
fn bits(answer: &[Neighbor]) -> Vec<(usize, u64)> {
    answer
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// Range-style answers come in traversal order; the oracle's in id
/// order.
fn by_id(answer: &[Neighbor]) -> Vec<(usize, u64)> {
    let mut sorted = bits(answer);
    sorted.sort_unstable();
    sorted
}

/// Runs one query untraced and then traced into a fresh
/// [`QueryProfile`], checks that both give the same answer and the same
/// `Counted` tallies and that the profile saw every distance, and
/// returns the answer with its `(distances, abandoned)` tallies.
fn run_traced<Q: ?Sized, A: Answers<Q>>(
    label: &str,
    tree: &A,
    form: &str,
    run: impl Fn(Option<&mut QueryProfile>) -> Vec<Neighbor>,
) -> (Vec<Neighbor>, (u64, u64)) {
    let plain = run(None);
    let cost = tree.take_totals();
    let mut profile = QueryProfile::new();
    let traced = run(Some(&mut profile));
    assert_eq!(bits(&plain), bits(&traced), "{label}: traced {form}");
    assert_eq!(tree.take_totals(), cost, "{label}: traced {form} cost");
    assert_eq!(profile.total_distances(), cost.0, "{label}: {form} profile");
    (plain, cost)
}

/// Runs every query form of `tree` over `queries`, checks each answer
/// against `oracle` (the same queries answered by `LinearScan`, in the
/// order [`oracle_answers`] produces them) and returns the transcript:
/// raw answers, `Counted` tallies and trace profiles.
fn transcript<Q: ?Sized, A: Answers<Q>>(
    label: &str,
    tree: &A,
    queries: &[&Q],
    plan: &Plan,
    oracle: &[Vec<(usize, u64)>],
) -> String {
    let mut out = String::new();
    let mut expected = oracle.iter();
    let mut check = |form: &str, got: Vec<(usize, u64)>| {
        let want = expected.next().expect("oracle answer");
        assert_eq!(&got, want, "{label}: {form} differs from LinearScan");
    };
    tree.take_totals();
    for (qi, &q) in queries.iter().enumerate() {
        for &r in &plan.radii {
            let form = format!("q{qi} range {r}");
            let (plain, cost) = run_traced(label, tree, &form, |p| tree.range(q, r, p));
            check(&form, by_id(&plain));
            out += &format!("{form}: {:?} {cost:?}\n", bits(&plain));
        }
        for &k in &plan.ks {
            let form = format!("q{qi} knn {k}");
            let (plain, cost) = run_traced(label, tree, &form, |p| tree.knn(q, k, p));
            check(&form, bits(&plain));
            out += &format!("{form}: {:?} {cost:?}\n", bits(&plain));
        }
        for &r in &plan.beyond {
            let form = format!("q{qi} beyond {r}");
            let (plain, cost) = run_traced(label, tree, &form, |p| tree.beyond(q, r, p));
            check(&form, by_id(&plain));
            out += &format!("{form}: {:?} {cost:?}\n", bits(&plain));
        }
        for &k in &plan.ks {
            let form = format!("q{qi} kfn {k}");
            let (plain, cost) = run_traced(label, tree, &form, |p| tree.kfn(q, k, p));
            check(&form, bits(&plain));
            out += &format!("{form}: {:?} {cost:?}\n", bits(&plain));
        }
        for &k in &plan.ks {
            let exact = tree.budgeted(q, k, SearchBudget::UNLIMITED);
            tree.take_totals();
            check(
                &format!("q{qi} unlimited budget {k}"),
                bits(&exact.neighbors),
            );
            for &budget in &plan.budgets {
                let got = tree.budgeted(q, k, SearchBudget::limited(budget));
                let cost = tree.take_totals();
                assert_eq!(got.spent, cost.0, "{label}: budget spent != Counted");
                out += &format!(
                    "q{qi} budget {k}/{budget}: {:?} {} {} {cost:?}\n",
                    bits(&got.neighbors),
                    got.exhausted,
                    got.estimated_recall.to_bits(),
                );
            }
        }
    }
    assert!(
        expected.next().is_none(),
        "{label}: unchecked oracle answers"
    );
    out
}

/// The oracle answers [`transcript`] checks, in the order it checks them.
fn oracle_answers<T, M: BoundedMetric<T>>(
    scan: &LinearScan<T, M>,
    queries: &[T],
    plan: &Plan,
) -> Vec<Vec<(usize, u64)>> {
    let mut out = Vec::new();
    for q in queries {
        for &r in &plan.radii {
            out.push(by_id(&scan.range(q, r)));
        }
        for &k in &plan.ks {
            out.push(bits(&scan.knn(q, k)));
        }
        for &r in &plan.beyond {
            out.push(by_id(&scan.range_beyond(q, r)));
        }
        for &k in &plan.ks {
            out.push(bits(&scan.k_farthest(q, k)));
        }
        for &k in &plan.ks {
            out.push(bits(&scan.knn(q, k)));
        }
    }
    out
}

/// Every original item comes back by its id, from any tree form.
fn assert_items_by_id<Q: ?Sized + PartialEq + std::fmt::Debug, A: Answers<Q>>(
    label: &str,
    tree: &A,
    items: &[&Q],
) {
    assert_eq!(tree.len(), items.len(), "{label}: len");
    for (id, &item) in items.iter().enumerate() {
        assert_eq!(tree.item(id as u32), item, "{label}: item {id}");
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vantage-leaf-order-{}-{name}", std::process::id()))
}

/// One dataset: its items, queries, query plan and metric.
struct Case<'a, T, M> {
    name: &'a str,
    items: Vec<T>,
    queries: Vec<T>,
    plan: Plan,
    metric: M,
}

/// One dataset's items and queries in the sized form owned trees take
/// and the unsized form mapped trees take, with the plan and oracle.
struct Inputs<'a, T, Q: ?Sized> {
    items: (Vec<&'a T>, Vec<&'a Q>),
    queries: (Vec<&'a T>, Vec<&'a Q>),
    plan: &'a Plan,
    oracle: Vec<Vec<(usize, u64)>>,
}

/// Checks one tree's owned, decoded and mapped forms: every original
/// item by id, and one identical transcript from all three. Returns the
/// transcript's digest.
fn check_forms<T, Q>(
    label: &str,
    (owned, decoded, mapped): (&impl Answers<T>, &impl Answers<Q>, &impl Answers<Q>),
    inputs: &Inputs<'_, T, Q>,
) -> u64
where
    T: PartialEq + std::fmt::Debug,
    Q: ?Sized + PartialEq + std::fmt::Debug,
{
    assert_items_by_id(label, owned, &inputs.items.0);
    assert_items_by_id(label, decoded, &inputs.items.1);
    assert_items_by_id(label, mapped, &inputs.items.1);
    let (plan, oracle) = (inputs.plan, &inputs.oracle);
    let a = transcript(label, owned, &inputs.queries.0, plan, oracle);
    let b = transcript(label, decoded, &inputs.queries.1, plan, oracle);
    let c = transcript(label, mapped, &inputs.queries.1, plan, oracle);
    assert_eq!(a, b, "{label}: decoded transcript differs");
    assert_eq!(a, c, "{label}: mapped transcript differs");
    fnv1a64(a.as_bytes())
}

/// Builds owned, decoded and mapped vp- and mvp-trees for `case` under
/// every shape in `vp_shapes` / `mvp_shapes`, checks them and returns
/// `(label, transcript digest)` per shape.
fn run_case<T, M, K>(
    case: &Case<'_, T, M>,
    vp_shapes: &[(usize, usize)],
    mvp_shapes: &[(usize, usize, usize)],
    unsized_query: impl Fn(&T) -> &K::Item,
) -> Vec<(String, u64)>
where
    T: ItemCodec + Clone + PartialEq + std::fmt::Debug + Send + Sync,
    M: BoundedMetric<T> + BoundedMetric<K::Item> + MetricTag + Clone + Send + Sync,
    K: FlatItems,
    K::Item: PartialEq + std::fmt::Debug,
{
    let scan = LinearScan::new(case.items.clone(), case.metric.clone());
    let inputs = Inputs {
        items: (
            case.items.iter().collect(),
            case.items.iter().map(&unsized_query).collect(),
        ),
        queries: (
            case.queries.iter().collect(),
            case.queries.iter().map(&unsized_query).collect(),
        ),
        plan: &case.plan,
        oracle: oracle_answers(&scan, &case.queries, &case.plan),
    };
    let mut digests = Vec::new();

    for &(order, leaf) in vp_shapes {
        let label = format!("vp {} order={order} leaf={leaf}", case.name);
        let params = VpTreeParams::with_order(order).leaf_capacity(leaf).seed(5);
        let owned = VpTree::build(
            case.items.clone(),
            Counted::new(case.metric.clone()),
            params,
        )
        .unwrap();
        let bytes = persist::encode_vp_tree(&owned);
        let decoded = persist::decode_vp_tree::<K, Counted<M>>(&bytes).unwrap();
        let path = temp_path(&format!("{}-vp-{order}-{leaf}", case.name));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = persist::open_vp_tree::<K, Counted<M>>(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(owned.items_by_id().eq(&case.items), "{label}: items_by_id");
        let digest = check_forms(&label, (&owned, &decoded.view(), &mapped.view()), &inputs);
        digests.push((label, digest));
    }

    for &(m, k, p) in mvp_shapes {
        let label = format!("mvp {} m={m} k={k} p={p}", case.name);
        let params = MvpParams::paper(m, k, p).seed(6);
        let owned = MvpTree::build(
            case.items.clone(),
            Counted::new(case.metric.clone()),
            params,
        )
        .unwrap();
        let bytes = persist::encode_mvp_tree(&owned);
        let decoded = persist::decode_mvp_tree::<K, Counted<M>>(&bytes).unwrap();
        let path = temp_path(&format!("{}-mvp-{m}-{k}-{p}", case.name));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = persist::open_mvp_tree::<K, Counted<M>>(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(owned.items_by_id().eq(&case.items), "{label}: items_by_id");
        let digest = check_forms(&label, (&owned, &decoded.view(), &mapped.view()), &inputs);
        digests.push((label, digest));
    }
    digests
}

/// Whether an mvp-tree holds a leaf with a single point.
fn has_single_point_leaf<T, M>(tree: &MvpTree<T, M>) -> bool {
    let view = tree.arena();
    (0..view.len() as u32).any(|id| matches!(view.node(id), MvpNodeView::Leaf { vp2: None, .. }))
}

/// A 4×4 integer grid with every point stored three times: exact
/// duplicates, and many equal distances from grid and half-grid
/// queries.
fn grid_with_duplicates() -> Vec<Vec<f64>> {
    // The grid repeats whole, so an item's duplicates have distant ids.
    let grid = (0..4).flat_map(|x| (0..4).map(move |y| vec![f64::from(x), f64::from(y)]));
    grid.clone().chain(grid.clone()).chain(grid).collect()
}

fn vector_plan(n: usize) -> Plan {
    Plan {
        radii: vec![0.0, 1.0, 1.5, 100.0],
        beyond: vec![0.0, 2.0, 100.0],
        ks: vec![1, 3, 7, n + 2],
        budgets: vec![0, 1, 4, 15],
    }
}

fn vector_queries() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 1.0],
        vec![1.5, 1.5],
        vec![0.5, 2.0],
        vec![-3.0, 9.0],
    ]
}

fn words_with_duplicates() -> Vec<String> {
    let base = [
        "car", "cart", "care", "bar", "art", "", "cat", "cab", "carts",
    ];
    base.iter()
        .cycle()
        .take(3 * base.len())
        .map(|w| w.to_string())
        .collect()
}

fn word_plan(n: usize) -> Plan {
    Plan {
        radii: vec![0.0, 1.0, 2.0, 10.0],
        beyond: vec![0.0, 3.0, 10.0],
        ks: vec![1, 3, 7, n + 2],
        budgets: vec![0, 1, 4, 15],
    }
}

fn word_queries() -> Vec<String> {
    ["car", "carx", "", "zzzzzz"]
        .iter()
        .map(|w| w.to_string())
        .collect()
}

const VP_SHAPES: [(usize, usize); 3] = [(2, 1), (3, 4), (2, 100)];
const MVP_SHAPES: [(usize, usize, usize); 3] = [(3, 1, 2), (2, 4, 3), (2, 100, 4)];

fn vector_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let items = grid_with_duplicates();
    let n = items.len();
    let case = Case {
        name: "l2 grid-x3",
        items,
        queries: vector_queries(),
        plan: vector_plan(n),
        metric: Euclidean,
    };
    out.extend(run_case::<_, _, F64Vectors>(
        &case,
        &VP_SHAPES,
        &MVP_SHAPES,
        Vec::as_slice,
    ));
    for n in 0..=3 {
        let items: Vec<Vec<f64>> = grid_with_duplicates().into_iter().take(n).collect();
        let name = format!("l2 n={n}");
        let case = Case {
            name: &name,
            items,
            queries: vector_queries(),
            plan: vector_plan(n),
            metric: Euclidean,
        };
        out.extend(run_case::<_, _, F64Vectors>(
            &case,
            &VP_SHAPES,
            &MVP_SHAPES,
            Vec::as_slice,
        ));
    }
    out
}

fn word_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let items = words_with_duplicates();
    let n = items.len();
    let case = Case {
        name: "edit words-x3",
        items,
        queries: word_queries(),
        plan: word_plan(n),
        metric: Levenshtein,
    };
    out.extend(run_case::<_, _, Utf8Strings>(
        &case,
        &VP_SHAPES,
        &MVP_SHAPES,
        String::as_str,
    ));
    for n in 0..=3 {
        let items: Vec<String> = words_with_duplicates().into_iter().take(n).collect();
        let name = format!("edit n={n}");
        let case = Case {
            name: &name,
            items,
            queries: word_queries(),
            plan: word_plan(n),
            metric: Levenshtein,
        };
        out.extend(run_case::<_, _, Utf8Strings>(
            &case,
            &VP_SHAPES,
            &MVP_SHAPES,
            String::as_str,
        ));
    }
    out
}

/// Compares computed digests with the pinned table and, on mismatch,
/// prints the full computed table in the pinned format.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let rendered: String = actual
        .iter()
        .map(|(label, digest)| format!("    (\"{label}\", {digest:#018x}),\n"))
        .collect();
    let matches = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((label, digest), (want_label, want))| label == want_label && digest == want);
    assert!(matches, "transcript digests moved; computed:\n{rendered}");
}

#[test]
fn the_data_exercises_single_point_mvp_leaves() {
    let (m, k, p) = MVP_SHAPES[0];
    let params = MvpParams::paper(m, k, p).seed(6);
    let tree = MvpTree::build(grid_with_duplicates(), Euclidean, params).unwrap();
    assert!(has_single_point_leaf(&tree));
}

#[test]
fn l2_vectors_match_linear_scan_in_every_tree_form() {
    check(&vector_digests(), VECTOR_PINNED);
}

#[test]
fn levenshtein_words_match_linear_scan_in_every_tree_form() {
    check(&word_digests(), WORD_PINNED);
}

/// Transcript digests taken with the id-ordered item layout (format v2).
const VECTOR_PINNED: &[(&str, u64)] = &[
    ("vp l2 grid-x3 order=2 leaf=1", 0x0c7be779f514bddf),
    ("vp l2 grid-x3 order=3 leaf=4", 0xd778fa8e6b61c6f4),
    ("vp l2 grid-x3 order=2 leaf=100", 0xc27e8932e60786f4),
    ("mvp l2 grid-x3 m=3 k=1 p=2", 0x08c393cd328ffa93),
    ("mvp l2 grid-x3 m=2 k=4 p=3", 0x73e72ca1caad7fa7),
    ("mvp l2 grid-x3 m=2 k=100 p=4", 0xb5cc50f018725233),
    ("vp l2 n=0 order=2 leaf=1", 0x31bae565507cfe15),
    ("vp l2 n=0 order=3 leaf=4", 0x31bae565507cfe15),
    ("vp l2 n=0 order=2 leaf=100", 0x31bae565507cfe15),
    ("mvp l2 n=0 m=3 k=1 p=2", 0x31bae565507cfe15),
    ("mvp l2 n=0 m=2 k=4 p=3", 0x31bae565507cfe15),
    ("mvp l2 n=0 m=2 k=100 p=4", 0x31bae565507cfe15),
    ("vp l2 n=1 order=2 leaf=1", 0x2be27ea95daa5248),
    ("vp l2 n=1 order=3 leaf=4", 0x2be27ea95daa5248),
    ("vp l2 n=1 order=2 leaf=100", 0x2be27ea95daa5248),
    ("mvp l2 n=1 m=3 k=1 p=2", 0x3eb384c3056a92e3),
    ("mvp l2 n=1 m=2 k=4 p=3", 0x3eb384c3056a92e3),
    ("mvp l2 n=1 m=2 k=100 p=4", 0x3eb384c3056a92e3),
    ("vp l2 n=2 order=2 leaf=1", 0x8dbbdb2c4bcb82f4),
    ("vp l2 n=2 order=3 leaf=4", 0xc858dafcede593f9),
    ("vp l2 n=2 order=2 leaf=100", 0xc858dafcede593f9),
    ("mvp l2 n=2 m=3 k=1 p=2", 0xace62703456054e7),
    ("mvp l2 n=2 m=2 k=4 p=3", 0xace62703456054e7),
    ("mvp l2 n=2 m=2 k=100 p=4", 0xace62703456054e7),
    ("vp l2 n=3 order=2 leaf=1", 0xf96cf44ad3215eb9),
    ("vp l2 n=3 order=3 leaf=4", 0x22377b872eae1cbd),
    ("vp l2 n=3 order=2 leaf=100", 0x22377b872eae1cbd),
    ("mvp l2 n=3 m=3 k=1 p=2", 0xf4dca6b216f35b13),
    ("mvp l2 n=3 m=2 k=4 p=3", 0xf4dca6b216f35b13),
    ("mvp l2 n=3 m=2 k=100 p=4", 0xf4dca6b216f35b13),
];

const WORD_PINNED: &[(&str, u64)] = &[
    ("vp edit words-x3 order=2 leaf=1", 0xd9d6ac4de68b4837),
    ("vp edit words-x3 order=3 leaf=4", 0x3894edcbefe393b6),
    ("vp edit words-x3 order=2 leaf=100", 0xa1955262034d88f2),
    ("mvp edit words-x3 m=3 k=1 p=2", 0xb2ada60ba030ff56),
    ("mvp edit words-x3 m=2 k=4 p=3", 0x28a2b08577a5432b),
    ("mvp edit words-x3 m=2 k=100 p=4", 0xd35f20b5b1680e72),
    ("vp edit n=0 order=2 leaf=1", 0xec0980e36c7629e1),
    ("vp edit n=0 order=3 leaf=4", 0xec0980e36c7629e1),
    ("vp edit n=0 order=2 leaf=100", 0xec0980e36c7629e1),
    ("mvp edit n=0 m=3 k=1 p=2", 0xec0980e36c7629e1),
    ("mvp edit n=0 m=2 k=4 p=3", 0xec0980e36c7629e1),
    ("mvp edit n=0 m=2 k=100 p=4", 0xec0980e36c7629e1),
    ("vp edit n=1 order=2 leaf=1", 0x089d2a51e1b9d2fb),
    ("vp edit n=1 order=3 leaf=4", 0x089d2a51e1b9d2fb),
    ("vp edit n=1 order=2 leaf=100", 0x089d2a51e1b9d2fb),
    ("mvp edit n=1 m=3 k=1 p=2", 0x9b7c94a9c3eec0a8),
    ("mvp edit n=1 m=2 k=4 p=3", 0x9b7c94a9c3eec0a8),
    ("mvp edit n=1 m=2 k=100 p=4", 0x9b7c94a9c3eec0a8),
    ("vp edit n=2 order=2 leaf=1", 0x8b521a469e10d36a),
    ("vp edit n=2 order=3 leaf=4", 0xc0bebeac700d7f2e),
    ("vp edit n=2 order=2 leaf=100", 0xc0bebeac700d7f2e),
    ("mvp edit n=2 m=3 k=1 p=2", 0x3d4f8574ec1d8d5b),
    ("mvp edit n=2 m=2 k=4 p=3", 0x3d4f8574ec1d8d5b),
    ("mvp edit n=2 m=2 k=100 p=4", 0x3d4f8574ec1d8d5b),
    ("vp edit n=3 order=2 leaf=1", 0x318e94d8c1ae0d3e),
    ("vp edit n=3 order=3 leaf=4", 0xf5f730a8a5d2071b),
    ("vp edit n=3 order=2 leaf=100", 0xf5f730a8a5d2071b),
    ("mvp edit n=3 m=3 k=1 p=2", 0xc3bee7a1edcd2386),
    ("mvp edit n=3 m=2 k=4 p=3", 0xc3bee7a1edcd2386),
    ("mvp edit n=3 m=2 k=100 p=4", 0xc3bee7a1edcd2386),
];
