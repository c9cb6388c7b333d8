//! Pins what the exhaustive scans answer and report, form by form.
//!
//! Two structures answer by scanning rows rather than descending a
//! tree: [`LinearScan`] and the dynamic tree's
//! [`MvpReadSnapshot`], whose tombstoned tree and overflow buffer are
//! both populated here. For every query form — range and beyond at
//! several radii, kNN and kFN at `k ∈ {1, 5, n + 3}` — one line records
//! the answer's ids and distance bits and the `Debug` form of the
//! [`QueryProfile`] the search filled (visits, distances by role,
//! abandoned counts and work, prunes, rejects, levels). One FNV-1a 64
//! digest per structure and form pins those lines.
//!
//! The digests were recorded before the scans were merged into one
//! loop, so any change in an answer, its order, a distance count, an
//! abandoned-work bit or a leaf-visit report moves one. The dynamic
//! snapshot's range, beyond and kFN digests were re-recorded when its
//! scans began to report their leaf visit as its kNN scan does; only
//! the visit counts moved.

use vantage::prelude::*;
use vantage_mvptree::{ConcurrentMvpTree, MvpParams, MvpReadSnapshot};
use vantage_persist::check::fnv1a64;

/// Four-dimensional points on a coarse lattice: many exact distance
/// ties, and narrow enough that the kNN scan evaluates rows four at a
/// time where the metric batches.
fn points(n: usize, salt: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let j = i * 7 + salt;
            vec![
                (j % 11) as f64,
                ((j / 3) % 5) as f64 * 0.5,
                (j % 4) as f64,
                ((j * 13) % 9) as f64 * 0.25,
            ]
        })
        .collect()
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![3.0, 1.0, 2.0, 1.0],
        vec![5.2, 0.7, 1.4, 0.3],
        vec![-2.0, 4.0, 6.5, 3.0],
    ]
}

const RADII: [f64; 4] = [0.0, 1.5, 3.25, 9.0];

#[derive(Clone, Copy, Debug)]
enum Form {
    Range(f64),
    Knn(usize),
    Beyond(f64),
    Kfn(usize),
}

impl Form {
    fn name(self) -> &'static str {
        match self {
            Form::Range(_) => "range",
            Form::Knn(_) => "knn",
            Form::Beyond(_) => "beyond",
            Form::Kfn(_) => "kfn",
        }
    }
}

/// Every pinned query of one form over an index of `n` items.
fn forms(name: &str, n: usize) -> Vec<Form> {
    let ks = [1, 5, n + 3];
    match name {
        "range" => RADII.iter().map(|&r| Form::Range(r)).collect(),
        "beyond" => RADII.iter().map(|&r| Form::Beyond(r)).collect(),
        "knn" => ks.iter().map(|&k| Form::Knn(k)).collect(),
        "kfn" => ks.iter().map(|&k| Form::Kfn(k)).collect(),
        _ => unreachable!(),
    }
}

const FORMS: [&str; 4] = ["range", "knn", "beyond", "kfn"];

/// One line per query: its form, the answer in the order returned
/// (`id:distance-bits`), then each sink's profile.
fn line(form: Form, answer: &[Neighbor], profiles: &[QueryProfile]) -> String {
    let mut s = format!("{form:?} =>");
    for n in answer {
        s += &format!(" {}:{:016x}", n.id, n.distance.to_bits());
    }
    for p in profiles {
        s += &format!(" | {p:?}");
    }
    s
}

fn digest(lines: &[String]) -> u64 {
    fnv1a64(lines.join("\n").as_bytes())
}

// Adapters: one query of one form, traced into fresh profiles.

type Scan = LinearScan<Vec<f64>, Euclidean>;

impl Form {
    fn query(self) -> Query {
        match self {
            Form::Range(r) => Query::Range(r),
            Form::Knn(k) => Query::Knn(k),
            Form::Beyond(r) => Query::Beyond(r),
            Form::Kfn(k) => Query::Kfn(k),
        }
    }
}

fn linear(index: &Scan, q: &Vec<f64>, form: Form) -> (Vec<Neighbor>, Vec<QueryProfile>) {
    let mut p = QueryProfile::new();
    let answer = index.search(q, form.query(), &mut p);
    (answer, vec![p])
}

fn dynamic(
    snapshot: &MvpReadSnapshot<Vec<f64>, Euclidean>,
    q: &Vec<f64>,
    form: Form,
) -> (Vec<Neighbor>, Vec<QueryProfile>) {
    let mut p = QueryProfile::new();
    let answer = snapshot.search(q, form.query(), &mut p);
    (answer, vec![p])
}

/// The digest of every pinned query of form `name`.
fn pin(
    name: &str,
    n: usize,
    mut run: impl FnMut(&Vec<f64>, Form) -> (Vec<Neighbor>, Vec<QueryProfile>),
) -> u64 {
    let mut lines = Vec::new();
    for q in queries() {
        for form in forms(name, n) {
            assert_eq!(form.name(), name);
            let (answer, profiles) = run(&q, form);
            lines.push(line(form, &answer, &profiles));
        }
    }
    digest(&lines)
}

#[track_caller]
fn check(structure: &str, got: [u64; 4], want: [u64; 4]) {
    assert_eq!(got, want, "{structure} digests ({FORMS:?}): {got:#018x?}");
}

const N: usize = 120;

#[test]
fn linear_scan_answers_and_reports_are_pinned() {
    let index = LinearScan::new(points(N, 0), Euclidean);
    let got = FORMS.map(|name| pin(name, N, |q, form| linear(&index, q, form)));
    check(
        "linear",
        got,
        [
            0xbbaf395902c0318e,
            0x52dc46e4194e3069,
            0x9e346087ce5328c2,
            0x3861e5b59f53338d,
        ],
    );
}

#[test]
fn dynamic_snapshot_answers_and_reports_are_pinned() {
    let tree =
        ConcurrentMvpTree::with_items(points(N, 0), Euclidean, MvpParams::paper(3, 9, 4).seed(5))
            .unwrap();
    // Tombstones inside the tree, fewer than half of it: no rebuild.
    for id in (0..N).step_by(9) {
        assert!(tree.remove(id));
    }
    // Overflow items, below the rebuild threshold, one of them removed.
    let inserted: Vec<usize> = points(20, 3).into_iter().map(|p| tree.insert(p)).collect();
    assert!(tree.remove(inserted[6]));
    let snapshot = tree.read();
    assert_eq!(snapshot.overflow_len(), 19);
    assert_eq!(snapshot.tree_dead(), N.div_ceil(9));
    let n = snapshot.len();
    let got = FORMS.map(|name| pin(name, n, |q, form| dynamic(&snapshot, q, form)));
    check(
        "dynamic",
        got,
        [
            0xd22cd106662f8b60,
            0xa69e5dee17a33dab,
            0xc8a38b891cc49b0f,
            0x5dd45d579161ed2b,
        ],
    );
}
