//! Correctness of [`ConcurrentMvpTree`]: differential testing against a
//! brute-force scan under churn, and multi-threaded stress where every
//! reader verifies query answers against the *same pinned snapshot's*
//! own live set — so a torn or stale publication cannot hide.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vantage_core::prelude::*;
use vantage_core::F64Rows;
use vantage_mvptree::dynamic::OVERFLOW_CHUNK;
use vantage_mvptree::{ConcurrentMvpTree, MvpParams};

fn pt(x: f64, y: f64) -> Vec<f64> {
    vec![x, y]
}

/// Deterministic pseudo-random stream (splitmix64).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn coord(state: &mut u64) -> f64 {
    (next(state) % 1000) as f64 / 10.0
}

fn sorted_ids(mut neighbors: Vec<Neighbor>) -> Vec<usize> {
    neighbors.sort_by_key(|a| a.id);
    neighbors.into_iter().map(|n| n.id).collect()
}

/// Brute-force range over an explicit `(id, item)` live set.
fn brute_range(live: &[(usize, Vec<f64>)], query: &[f64], radius: f64) -> Vec<usize> {
    let mut ids: Vec<usize> = live
        .iter()
        .filter(|(_, item)| Euclidean.distance(&query.to_vec(), item) <= radius)
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Answers as `(id, distance bits)`, so equal means bit-identical.
fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u64)> {
    neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

#[test]
fn matches_brute_force_under_insert_delete_churn() {
    let params = MvpParams::paper(2, 2, 4);
    let tree = ConcurrentMvpTree::new(Euclidean, params.clone()).expect("valid params");
    // The same churn on a tree whose rebuilds pack flat rows: every
    // answer must match the `Vec<T>` tree's bit for bit.
    let flat =
        ConcurrentMvpTree::with_rows(F64Rows::default(), Euclidean, params).expect("valid params");
    let mut live: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut state = 0xc0ffee_u64;

    for step in 0..400 {
        if step % 5 == 4 && !live.is_empty() {
            // Delete a pseudo-random live item.
            let victim = (next(&mut state) as usize) % live.len();
            let (id, _) = live.swap_remove(victim);
            assert!(tree.remove(id), "live id {id} failed to remove");
            assert!(!tree.remove(id), "double remove of {id} succeeded");
            assert!(flat.remove(id), "flat: live id {id} failed to remove");
            assert!(!flat.remove(id), "flat: double remove of {id} succeeded");
        } else {
            let item = pt(coord(&mut state), coord(&mut state));
            let id = tree.insert(item.clone());
            assert_eq!(flat.insert(item.clone()), id, "flat: id at step {step}");
            live.push((id, item));
        }

        if step % 7 == 0 {
            let query = pt(coord(&mut state), coord(&mut state));
            let radius = 12.5;
            assert_eq!(
                sorted_ids(tree.range(&query, radius)),
                brute_range(&live, &query, radius),
                "range diverged at step {step}"
            );
            assert_eq!(
                bits(&flat.range(&query, radius)),
                bits(&tree.range(&query, radius)),
                "flat range diverged at step {step}"
            );
            assert_eq!(
                bits(&flat.knn(&query, 5)),
                bits(&tree.knn(&query, 5)),
                "flat knn diverged at step {step}"
            );
            let got = tree.knn(&query, 5);
            let k = got.len();
            assert_eq!(k, live.len().min(5), "knn cardinality at step {step}");
            // kNN distances must match the brute-force k smallest.
            let mut expected: Vec<f64> = live
                .iter()
                .map(|(_, item)| Euclidean.distance(&query, item))
                .collect();
            expected.sort_by(f64::total_cmp);
            for (n, want) in got.iter().zip(expected.iter().take(k)) {
                assert_eq!(n.distance, *want, "knn distance at step {step}");
            }
        }
        assert_eq!(tree.len(), live.len(), "live count at step {step}");
        assert_eq!(flat.len(), live.len(), "flat live count at step {step}");
    }
}

#[test]
fn pinned_snapshot_is_immutable_while_writers_churn() {
    let params = MvpParams::paper(2, 2, 4);
    let tree = ConcurrentMvpTree::new(Euclidean, params).expect("valid params");
    let mut state = 7_u64;
    for _ in 0..64 {
        tree.insert(pt(coord(&mut state), coord(&mut state)));
    }

    let snapshot = tree.read();
    let frozen: Vec<(usize, Vec<f64>)> = snapshot
        .live_items()
        .map(|(id, item)| (id, item.clone()))
        .collect();
    let query = pt(50.0, 50.0);
    let before = sorted_ids(snapshot.search(&query, Query::Range(30.0), &mut NoTrace));

    // Churn heavily: inserts, deletes, and forced rebuilds.
    for i in 0..64 {
        tree.insert(pt(coord(&mut state), coord(&mut state)));
        if i % 2 == 0 {
            tree.remove(i);
        }
    }
    tree.reindex();

    // The pinned snapshot still answers from its point in time.
    assert_eq!(snapshot.len(), frozen.len());
    assert_eq!(
        sorted_ids(snapshot.search(&query, Query::Range(30.0), &mut NoTrace)),
        before
    );
    assert_eq!(before, brute_range(&frozen, &query, 30.0));
    // While the current generation has moved on.
    assert_ne!(tree.len(), frozen.len());
}

#[test]
fn concurrent_readers_always_see_internally_consistent_generations() {
    let params = MvpParams::paper(2, 2, 4);
    let tree = Arc::new(ConcurrentMvpTree::new(Euclidean, params).expect("valid params"));
    let mut state = 99_u64;
    for _ in 0..128 {
        tree.insert(pt(coord(&mut state), coord(&mut state)));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let checks = Arc::clone(&checks);
            std::thread::spawn(move || {
                let mut state = 0x5eed_u64 ^ (r as u64);
                let mut last_generation = 0;
                while !stop.load(Ordering::Acquire) {
                    // Pin one generation and verify a query against that
                    // same generation's own live set: any torn swap or
                    // mixed-generation view diverges from the brute force.
                    let snapshot = tree.read();
                    assert!(
                        snapshot.generation() >= last_generation,
                        "reader saw time move backwards"
                    );
                    last_generation = snapshot.generation();
                    let live: Vec<(usize, Vec<f64>)> = snapshot
                        .live_items()
                        .map(|(id, item)| (id, item.clone()))
                        .collect();
                    assert_eq!(snapshot.len(), live.len());
                    let query = pt(coord(&mut state), coord(&mut state));
                    assert_eq!(
                        sorted_ids(snapshot.search(&query, Query::Range(15.0), &mut NoTrace)),
                        brute_range(&live, &query, 15.0),
                        "pinned generation disagreed with its own live set"
                    );
                    checks.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Writer: sustained ingest with deletes and periodic full reindexes,
    // crossing many rebuild thresholds while the readers verify.
    let mut removable = 0;
    for i in 0..600 {
        tree.insert(pt(coord(&mut state), coord(&mut state)));
        if i % 3 == 0 {
            tree.remove(removable);
            removable += 1;
        }
        if i % 200 == 199 {
            tree.reindex();
        }
    }

    stop.store(true, Ordering::Release);
    for handle in readers {
        handle.join().expect("reader panicked");
    }
    assert!(
        checks.load(Ordering::Relaxed) >= 4,
        "readers barely ran; stress proved nothing"
    );
    // Every write published a generation: 600 inserts + 200 removes + 3
    // reindexes (the final i=599 one counted already) at minimum.
    assert!(tree.generation() >= 800);
}

#[test]
fn knn_survives_tombstones_without_losing_neighbors() {
    let params = MvpParams::paper(2, 2, 4);
    // A line of points; delete the nearest ones and verify knn falls back
    // to the survivors (the over-fetch path).
    let items: Vec<Vec<f64>> = (0..40).map(|i| pt(f64::from(i), 0.0)).collect();
    let tree = ConcurrentMvpTree::with_items(items, Euclidean, params).expect("valid params");
    for id in 0..10 {
        assert!(tree.remove(id));
    }
    let got = tree.knn(&pt(0.0, 0.0), 3);
    let ids: Vec<usize> = got.iter().map(|n| n.id).collect();
    assert_eq!(ids, vec![10, 11, 12]);
}

#[test]
fn snapshot_sinks_read_the_counted_cost_of_every_query_form() {
    // A tree, tombstones inside it and an overflow buffer: each query
    // form's tally must equal the distances a `Counted` metric charges,
    // abandons included, and the build count must equal the bulk load's.
    let params = MvpParams::paper(2, 3, 2).seed(5);
    let mut state = 0x7a11_u64;
    let items: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..80).map(|_| coord(&mut state)).collect())
        .collect();
    let metric = Counted::new(Euclidean);
    let probe = metric.clone();
    let tree = ConcurrentMvpTree::with_items(items, metric, params).expect("valid params");
    assert_eq!(tree.build_distances(), probe.take());
    for id in (0..300).step_by(7) {
        assert!(tree.remove(id));
    }
    for _ in 0..20 {
        tree.insert((0..80).map(|_| coord(&mut state)).collect());
    }
    assert_eq!(probe.take(), 0, "small writes compute no distances");
    let snapshot = tree.read();
    let query: Vec<f64> = (0..80).map(|_| coord(&mut state)).collect();
    // Radii with a handful of answers each side.
    let near = snapshot.search(&query, Query::Knn(12), &mut NoTrace)[11].distance;
    let far = snapshot.search(&query, Query::Kfn(12), &mut NoTrace)[11].distance;
    type Run<'a> = &'a dyn Fn(&mut DistanceTally) -> Vec<Neighbor>;
    let forms: [(&str, Run); 4] = [
        ("range", &|t| snapshot.search(&query, Query::Range(near), t)),
        ("knn", &|t| snapshot.search(&query, Query::Knn(5), t)),
        ("beyond", &|t| {
            snapshot.search(&query, Query::Beyond(far), t)
        }),
        ("kfn", &|t| snapshot.search(&query, Query::Kfn(5), t)),
    ];
    for (name, search) in forms {
        probe.reset();
        let mut tally = DistanceTally::new();
        let answers = search(&mut tally);
        let counted = probe.totals();
        let tallied = tally.totals();
        assert_eq!(tallied.computations, counted.computations, "{name}");
        assert_eq!(tallied.abandoned, counted.abandoned, "{name}");
        assert_eq!(
            tallied.abandoned_work.to_bits(),
            counted.abandoned_work.to_bits(),
            "{name}"
        );
        assert!(tallied.computations > 0, "{name}");
        assert!(!answers.is_empty(), "{name} answered nothing");
    }
}

/// Euclidean distance that records every item it is asked about (the
/// second argument: searches pass the query first).
#[derive(Debug, Clone, Default)]
struct Touching {
    touched: Arc<std::sync::Mutex<Vec<Vec<f64>>>>,
}

impl Touching {
    fn note(&self, item: &[f64]) {
        self.touched.lock().unwrap().push(item.to_vec());
    }
}

impl Metric<Vec<f64>> for Touching {
    fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        self.note(b);
        Euclidean.distance(a, b)
    }
}

impl BoundedMetric<Vec<f64>> for Touching {
    fn distance_within_frac(&self, a: &Vec<f64>, b: &Vec<f64>, bound: f64) -> (Option<f64>, f64) {
        self.note(b);
        Euclidean.distance_within_frac(a, b, bound)
    }
}

#[test]
fn far_deletes_do_not_change_a_near_knn_cost() {
    // Two clusters 1000 apart; a kNN near the first never needs the
    // second, so tombstones there must not cost it anything.
    let mut state = 0xfa7_u64;
    let mut cluster = |center: f64| -> Vec<Vec<f64>> {
        (0..400)
            .map(|_| (0..4).map(|_| center + coord(&mut state)).collect())
            .collect()
    };
    let mut items = cluster(0.0);
    items.extend(cluster(1000.0));
    let metric = Touching::default();
    let tree =
        ConcurrentMvpTree::with_items(items.clone(), metric.clone(), MvpParams::paper(3, 9, 5))
            .expect("valid params");
    let query = vec![50.0; 4];
    let cost = || {
        let mut tally = DistanceTally::new();
        let answer = tree.read().search(&query, Query::Knn(10), &mut tally);
        (answer, tally.totals().computations)
    };
    metric.touched.lock().unwrap().clear();
    let (before, before_cost) = cost();
    let touched = std::mem::take(&mut *metric.touched.lock().unwrap());

    // Remove every far item the query did not compute a distance to.
    let mut removed = 0;
    for (id, item) in items.iter().enumerate().skip(400) {
        if !touched.contains(item) {
            assert!(tree.remove(id));
            removed += 1;
        }
    }
    assert!(removed >= 300, "only {removed} far items were untouched");
    assert!(
        removed * 2 < items.len(),
        "deletes must stay below the rebuild"
    );
    assert_eq!(tree.read().tree_dead(), removed, "no rebuild ran");

    let (after, after_cost) = cost();
    assert_eq!(after_cost, before_cost, "far tombstones changed the cost");
    assert_eq!(after, before);
    let live: Vec<(usize, Vec<f64>)> = items
        .into_iter()
        .enumerate()
        .filter(|&(id, ref item)| id < 400 || touched.contains(item))
        .collect();
    let brute = LinearScan::new(
        live.iter().map(|(_, item)| item.clone()).collect(),
        Euclidean,
    )
    .knn(&query, 10);
    let brute: Vec<Neighbor> = brute
        .into_iter()
        .map(|n| Neighbor::new(live[n.id].0, n.distance))
        .collect();
    assert_eq!(after, brute);
}

static CLONES: AtomicU64 = AtomicU64::new(0);

/// A point whose every clone is counted.
#[derive(Debug)]
struct Tracked(Vec<f64>);

impl Clone for Tracked {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Tracked(self.0.clone())
    }
}

#[derive(Debug, Clone, Copy)]
struct TrackedL2;

impl Metric<Tracked> for TrackedL2 {
    fn distance(&self, a: &Tracked, b: &Tracked) -> f64 {
        Euclidean.distance(&a.0, &b.0)
    }
}

impl BoundedMetric<Tracked> for TrackedL2 {
    fn distance_within_frac(&self, a: &Tracked, b: &Tracked, bound: f64) -> (Option<f64>, f64) {
        Euclidean.distance_within_frac(&a.0, &b.0, bound)
    }
}

#[test]
fn a_write_copies_a_bounded_number_of_items() {
    let mut state = 0xc1_u64;
    let mut point = || Tracked(vec![coord(&mut state), coord(&mut state)]);
    let items: Vec<Tracked> = (0..2000).map(|_| point()).collect();
    let tree = ConcurrentMvpTree::with_items(items, TrackedL2, MvpParams::paper(2, 8, 2))
        .expect("valid params");
    // Below the rebuild threshold (a quarter of 2000) throughout.
    let n = 400;
    CLONES.store(0, Ordering::Relaxed);
    let ids: Vec<usize> = (0..n).map(|_| tree.insert(point())).collect();
    for id in ids.iter().step_by(2) {
        assert!(tree.remove(*id));
    }
    for id in 0..100 {
        assert!(tree.remove(id));
    }
    let clones = CLONES.load(Ordering::Relaxed) as usize;
    let snapshot = tree.read();
    assert_eq!(snapshot.overflow_len(), n / 2, "no rebuild ran");
    assert_eq!(snapshot.tree_dead(), 100, "no rebuild ran");
    assert!(
        clones <= OVERFLOW_CHUNK * n,
        "{n} inserts and {} deletes cloned {clones} items",
        n / 2 + 100
    );
    // Every surviving insert is still found.
    for &id in ids.iter().skip(1).step_by(2) {
        assert!(snapshot.live_items().any(|(live, _)| live == id));
    }
}
