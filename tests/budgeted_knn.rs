//! Property tests for budgeted (best-effort) kNN across every
//! [`BudgetedSearch`] implementation: linear scan, vp-tree and mvp-tree.
//!
//! The contract under test (see `vantage_core::budget`):
//!
//! * an unlimited budget is the exact search, bit-identical;
//! * `spent` never exceeds the budget;
//! * `estimated_recall` is always in `[0, 1]`, and a reported `1.0`
//!   means the answer is *provably exact* — no returned neighbor may be
//!   farther than the true k-th distance, and a non-exhausted run must
//!   reproduce the exact answer outright.

use proptest::prelude::*;
use vantage::prelude::*;

/// Cases per property: each case builds three index structures, so keep
/// the datasets small rather than the case count.
const CASES: u32 = 96;

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, 3), 0..48)
}

fn query_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-12.0f64..12.0, 3)
}

/// A labelled budget-capable index over owned points.
type NamedBudgeted = (&'static str, Box<dyn BudgetedSearch<Vec<f64>>>);

/// Every budgeted structure over the same dataset.
fn budgeted_indexes(points: &[Vec<f64>]) -> Vec<NamedBudgeted> {
    vec![
        (
            "linear",
            Box::new(LinearScan::new(points.to_vec(), Euclidean)),
        ),
        (
            "vpt(2)",
            Box::new(
                VpTree::build(points.to_vec(), Euclidean, VpTreeParams::binary().seed(3)).unwrap(),
            ),
        ),
        (
            "mvpt(2,5,2)",
            Box::new(
                MvpTree::build(
                    points.to_vec(),
                    Euclidean,
                    MvpParams::paper(2, 5, 2).seed(5),
                )
                .unwrap(),
            ),
        ),
    ]
}

fn is_canonically_sorted(v: &[Neighbor]) -> bool {
    v.windows(2).all(|w| {
        w[0].distance < w[1].distance || (w[0].distance == w[1].distance && w[0].id < w[1].id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact_knn(
        points in points_strategy(),
        q in query_strategy(),
        k in 0usize..8,
    ) {
        for (name, index) in budgeted_indexes(&points) {
            let exact = index.knn(&q, k);
            let got = index.knn_budgeted(&q, k, SearchBudget::UNLIMITED);
            prop_assert_eq!(&got.neighbors, &exact, "{}", name);
            prop_assert_eq!(got.estimated_recall, 1.0, "{}", name);
            prop_assert!(!got.exhausted, "{}", name);
        }
    }

    #[test]
    fn budgeted_answers_obey_the_contract(
        points in points_strategy(),
        q in query_strategy(),
        k in 0usize..8,
        budget in 0u64..64,
    ) {
        for (name, index) in budgeted_indexes(&points) {
            let exact = index.knn(&q, k);
            let got = index.knn_budgeted(&q, k, SearchBudget::limited(budget));

            prop_assert!(got.spent <= budget, "{}: spent {} > budget {}", name, got.spent, budget);
            prop_assert!(
                (0.0..=1.0).contains(&got.estimated_recall),
                "{}: estimate {} outside [0, 1]", name, got.estimated_recall
            );
            prop_assert!(got.neighbors.len() <= k, "{}", name);
            prop_assert!(is_canonically_sorted(&got.neighbors), "{}", name);

            // A budget at least the dataset size can never be exceeded,
            // so the answer must be exact and not exhausted.
            if budget >= points.len() as u64 {
                prop_assert_eq!(&got.neighbors, &exact, "{}", name);
                prop_assert!(!got.exhausted, "{}", name);
                prop_assert_eq!(got.estimated_recall, 1.0, "{}", name);
            }

            // Prefix quality: a reported recall of 1.0 promises a
            // provably exact answer — same answer count, and no returned
            // neighbor farther than the true k-th distance.
            if got.estimated_recall == 1.0 {
                prop_assert_eq!(got.neighbors.len(), exact.len(), "{}", name);
                if let Some(kth) = exact.last() {
                    for n in &got.neighbors {
                        prop_assert!(
                            n.distance <= kth.distance,
                            "{}: claimed-exact neighbor {} at {} beyond true k-th {}",
                            name, n.id, n.distance, kth.distance
                        );
                    }
                }
                if !got.exhausted {
                    prop_assert_eq!(&got.neighbors, &exact, "{}", name);
                }
            }

            // Every returned neighbor is a real dataset point at its
            // true distance (best-effort never fabricates).
            for n in &got.neighbors {
                let item = index.get(n.id);
                prop_assert!(item.is_some(), "{}: id {} out of range", name, n.id);
                let d = Euclidean.distance(&q, item.unwrap());
                prop_assert_eq!(n.distance, d, "{}: id {}", name, n.id);
            }
        }
    }
}

#[test]
fn budget_meter_spend_matches_the_metric_tally() {
    // The budget counts the paper's cost model — metric distance
    // evaluations, exactly what `Counted` tallies. The meter's `spent`
    // and the probe's delta must agree for every structure and budget.
    let points: Vec<Vec<f64>> = (0..80)
        .map(|i| vec![(i % 5) as f64, (i % 3) as f64])
        .collect();
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

        let tree = MvpTree::build(
            points.clone(),
            counted.clone(),
            MvpParams::paper(2, 5, 2).seed(9),
        )
        .unwrap();
        probe.reset();
        let out = tree.knn_budgeted(&q, 6, b);
        assert_eq!(probe.take(), out.spent, "mvpt budget={budget}");
    }
}
