//! Distance-computation accounting under sharded execution.
//!
//! [`Counted`] clones share one tally through an `Arc`, so cloning a
//! single probe into every shard of a [`ShardedIndex`] must make
//! `Counted::totals()` read the *cross-shard* query total — each
//! distance charged exactly once, with no double-counting from the
//! shared-bound fast path and no drift between the budget meter's
//! `spent` and the metric-level tally. The per-shard [`DistanceTally`]s
//! of a `search_per_shard` query must sum to that same total.

use vantage::prelude::*;
use vantage_datasets::uniform_vectors;

fn tie_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 5) as f64, (i % 3) as f64])
        .collect()
}

#[test]
fn sharded_linear_knn_counts_each_distance_exactly_once() {
    let n = 120;
    for shards in [1, 2, 4, 7] {
        for threads in [Threads::SEQUENTIAL, Threads::Fixed(4)] {
            let counted = Counted::new(Euclidean);
            let probe = counted.clone();
            let idx = ShardedIndex::build(tie_points(n), shards, threads, |_, part| {
                Ok(LinearScan::new(part, counted.clone()))
            })
            .unwrap();
            probe.reset();
            // A linear scan evaluates every item exactly once per query —
            // the shared kNN bound changes early-abandon cutoffs, never
            // whether an item is charged. Repeat to catch any
            // interleaving-dependent double-count.
            for rep in 0..5 {
                probe.reset();
                idx.knn(&vec![1.1, 0.6], 9);
                assert_eq!(
                    probe.totals().computations,
                    n as u64,
                    "knn S={shards} {threads:?} rep={rep}"
                );
            }
            probe.reset();
            idx.range(&vec![1.1, 0.6], 1.5);
            assert_eq!(
                probe.totals().computations,
                n as u64,
                "range S={shards} {threads:?}"
            );
            probe.reset();
            idx.k_farthest(&vec![1.1, 0.6], 9);
            assert_eq!(
                probe.totals().computations,
                n as u64,
                "k_farthest S={shards} {threads:?}"
            );
        }
    }
}

#[test]
fn sharded_total_matches_the_unsharded_oracle_cost() {
    // For linear shards the scatter-gather query total must equal the
    // unsharded scan's cost: sharding redistributes work, it never adds
    // or hides distance computations.
    let n = 90;
    let oracle_counted = Counted::new(Euclidean);
    let oracle_probe = oracle_counted.clone();
    let oracle = LinearScan::new(tie_points(n), oracle_counted);
    oracle_probe.reset();
    oracle.knn(&vec![2.2, 1.4], 7);
    let oracle_cost = oracle_probe.take();
    assert_eq!(oracle_cost, n as u64);

    for shards in [2, 3, 7] {
        let counted = Counted::new(Euclidean);
        let probe = counted.clone();
        let idx = ShardedIndex::build(tie_points(n), shards, Threads::SEQUENTIAL, |_, part| {
            Ok(LinearScan::new(part, counted.clone()))
        })
        .unwrap();
        probe.reset();
        idx.knn(&vec![2.2, 1.4], 7);
        assert_eq!(probe.take(), oracle_cost, "S={shards}");
    }
}

#[test]
fn per_shard_counters_sum_to_the_shared_query_total() {
    // Two identical sharded vp-tree layouts (same seeds, same parts):
    // one where every shard shares a single probe, one where each shard
    // owns its own. Under sequential scatter both executions are
    // deterministic, so the shared tally must equal the per-shard sum at
    // every step.
    let points = tie_points(100);
    let shards = 4;

    let shared_counted = Counted::new(Euclidean);
    let shared_probe = shared_counted.clone();
    let shared = ShardedIndex::build(points.clone(), shards, Threads::SEQUENTIAL, |s, part| {
        VpTree::build(
            part,
            shared_counted.clone(),
            VpTreeParams::binary().seed(s as u64),
        )
    })
    .unwrap();

    let probes: Vec<Counted<Euclidean>> = (0..shards).map(|_| Counted::new(Euclidean)).collect();
    let split = ShardedIndex::build(points, shards, Threads::SEQUENTIAL, |s, part| {
        VpTree::build(
            part,
            probes[s].clone(),
            VpTreeParams::binary().seed(s as u64),
        )
    })
    .unwrap();

    let per_shard_sum = |probes: &[Counted<Euclidean>]| -> u64 {
        probes.iter().map(|p| p.totals().computations).sum()
    };

    // Construction costs the same distances either way.
    assert_eq!(shared_probe.totals().computations, per_shard_sum(&probes));

    shared_probe.reset();
    for p in &probes {
        p.reset();
    }
    for q in [vec![0.3, 0.3], vec![2.0, 1.0], vec![9.0, -9.0]] {
        shared_probe.reset();
        for p in &probes {
            p.reset();
        }
        assert_eq!(shared.knn(&q, 6), split.knn(&q, 6));
        assert_eq!(
            shared_probe.totals().computations,
            per_shard_sum(&probes),
            "knn q={q:?}"
        );

        shared_probe.reset();
        for p in &probes {
            p.reset();
        }
        assert_eq!(shared.range(&q, 1.2), split.range(&q, 1.2));
        assert_eq!(
            shared_probe.totals().computations,
            per_shard_sum(&probes),
            "range q={q:?}"
        );
    }
}

/// Runs every query form on `idx` through `search_per_shard` and
/// checks the answer against the untraced method and the summed
/// per-shard tallies against the `probe` delta of the same run. Returns
/// how many evaluations the bounded kernel abandoned along the way.
fn assert_tallies_sum_to_counted<I>(
    name: &str,
    idx: &ShardedIndex<I>,
    probe: &Counted<Euclidean>,
) -> u64
where
    I: ShardSearch<Vec<f64>> + Sync,
{
    let sum = |tallies: Vec<DistanceTally>| tallies.into_iter().sum::<DistanceTally>().totals();
    let mut abandoned = 0;
    for q in uniform_vectors(3, 16, 4) {
        for rep in 0..3 {
            let at = format!("{name} q={q:?} rep={rep}");
            probe.reset();
            let (hits, tallies) = idx.search_per_shard(&q, Query::Range(1.2));
            assert_eq!(sum(tallies), probe.totals(), "range {at}");
            abandoned += probe.totals().abandoned;
            assert_eq!(hits, idx.range(&q, 1.2), "range {at}");

            probe.reset();
            let (hits, tallies) = idx.search_per_shard(&q, Query::Knn(9));
            assert_eq!(sum(tallies), probe.totals(), "knn {at}");
            abandoned += probe.totals().abandoned;
            assert_eq!(hits, idx.knn(&q, 9), "knn {at}");

            probe.reset();
            let (hits, tallies) = idx.search_per_shard(&q, Query::Beyond(2.0));
            assert_eq!(sum(tallies), probe.totals(), "beyond {at}");
            assert_eq!(hits, idx.range_beyond(&q, 2.0), "beyond {at}");

            probe.reset();
            let (hits, tallies) = idx.search_per_shard(&q, Query::Kfn(9));
            assert_eq!(sum(tallies), probe.totals(), "kfn {at}");
            assert_eq!(hits, idx.k_farthest(&q, 9), "kfn {at}");
        }
    }
    abandoned
}

#[test]
fn per_shard_tallies_sum_to_the_counted_total_under_parallel_scatter() {
    // One scatter, two channels: the shared probe and each shard's own
    // tally observe the same run, so under parallel scatter (where the
    // shared kNN bound makes the cost interleaving-dependent) the tallies
    // must still sum to the probe's cross-shard delta exactly —
    // abandoned evaluations and their work included.
    let threads = Threads::Fixed(4);
    let points = uniform_vectors(200, 16, 3);
    for shards in [2, 4] {
        let counted = Counted::new(Euclidean);
        let idx = ShardedIndex::build(points.clone(), shards, threads, |_, part| {
            Ok(LinearScan::new(part, counted.clone()))
        })
        .unwrap();
        let abandoned =
            assert_tallies_sum_to_counted(&format!("linear S={shards}"), &idx, &counted);
        assert!(abandoned > 0, "the bounded kernel never abandoned");

        let idx = ShardedIndex::build(points.clone(), shards, threads, |s, part| {
            VpTree::build(part, counted.clone(), VpTreeParams::binary().seed(s as u64))
        })
        .unwrap();
        assert_tallies_sum_to_counted(&format!("vp S={shards}"), &idx, &counted);

        let idx = ShardedIndex::build(points.clone(), shards, threads, |s, part| {
            MvpTree::build(
                part,
                counted.clone(),
                MvpParams::paper(3, 6, 3).seed(s as u64),
            )
        })
        .unwrap();
        assert_tallies_sum_to_counted(&format!("mvp S={shards}"), &idx, &counted);
    }
}

#[test]
fn budget_meter_spend_matches_the_metric_tally() {
    // The budget counts the paper's cost model — metric distance
    // evaluations, exactly what `Counted` tallies. The meter's `spent`
    // and the probe's delta must agree for every structure and budget.
    let points = tie_points(80);
    let q = vec![1.7, 0.9];
    for budget in [0u64, 5, 17, 60, 200, u64::MAX] {
        let b = if budget == u64::MAX {
            SearchBudget::UNLIMITED
        } else {
            SearchBudget::limited(budget)
        };

        let counted = Counted::new(Euclidean);
        let probe = counted.clone();
        let scan = LinearScan::new(points.clone(), counted.clone());
        probe.reset();
        let out = scan.knn_budgeted(&q, 6, b);
        assert_eq!(probe.take(), out.spent, "linear budget={budget}");

        let tree = VpTree::build(
            points.clone(),
            counted.clone(),
            VpTreeParams::binary().seed(9),
        )
        .unwrap();
        probe.reset();
        let out = tree.knn_budgeted(&q, 6, b);
        assert_eq!(probe.take(), out.spent, "vpt budget={budget}");

        let sharded = ShardedIndex::build(points.clone(), 3, Threads::SEQUENTIAL, |s, part| {
            VpTree::build(part, counted.clone(), VpTreeParams::binary().seed(s as u64))
        })
        .unwrap();
        probe.reset();
        let out = sharded.knn_budgeted(&q, 6, b);
        assert_eq!(probe.take(), out.spent, "sharded budget={budget}");
    }
}
