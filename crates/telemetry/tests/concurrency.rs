//! Registry concurrency: many threads hammer one registry; after they
//! join, the snapshot totals are exact — nothing lost, nothing double
//! counted, no torn histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use vantage_telemetry::{CostDelta, MetricsRegistry, OpKind};

const THREADS: usize = 8;
// Divisible by OpKind::COUNT (4) and by 3, so the per-kind round-robin
// and the `i % 3` abandonment pattern below come out exact.
const OPS_PER_THREAD: u64 = 5_004;

#[test]
fn concurrent_recording_snapshots_exactly() {
    let registry = MetricsRegistry::new();
    let distance_sum = AtomicU64::new(0);

    thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            let distance_sum = &distance_sum;
            scope.spawn(move || {
                // Every thread races the same get-or-create path.
                let metrics = registry.index("shared");
                for i in 0..OPS_PER_THREAD {
                    let kind = OpKind::ALL[(t as u64 + i) as usize % OpKind::COUNT];
                    let computations = (t as u64) * 31 + i % 97;
                    distance_sum.fetch_add(computations, Ordering::Relaxed);
                    metrics.record(
                        kind,
                        Duration::from_nanos(100 + i),
                        CostDelta {
                            computations,
                            abandoned: i % 3,
                            abandoned_work: 0.5,
                        },
                    );
                }
            });
        }
    });

    let snap = registry.snapshot();
    assert_eq!(snap.indexes.len(), 1, "racing registration must dedupe");
    let shared = snap.index("shared").unwrap();

    let total_ops: u64 = shared.ops.iter().map(|op| op.ops).sum();
    assert_eq!(total_ops, THREADS as u64 * OPS_PER_THREAD);

    // Each kind gets exactly 1/COUNT of each thread's ops (the
    // round-robin above visits every kind equally).
    for kind in OpKind::ALL {
        let op = shared.op(kind).unwrap();
        assert_eq!(
            op.ops,
            THREADS as u64 * OPS_PER_THREAD / OpKind::COUNT as u64
        );
        assert_eq!(
            op.latency_ns.count, op.ops,
            "latency histogram lost samples"
        );
        assert_eq!(
            op.distances.count, op.ops,
            "distance histogram lost samples"
        );
        let buckets: u64 = op.latency_ns.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(buckets, op.ops, "bucket counts disagree with total");
    }

    let recorded_distances: u64 = shared.ops.iter().map(|op| op.distances.sum).sum();
    assert_eq!(recorded_distances, distance_sum.load(Ordering::Relaxed));

    let abandoned: u64 = shared.ops.iter().map(|op| op.abandoned).sum();
    // i % 3 over 0..5004 sums to (5004 / 3) × (0 + 1 + 2) per thread.
    assert_eq!(abandoned, THREADS as u64 * OPS_PER_THREAD);

    let work: f64 = shared.ops.iter().map(|op| op.abandoned_work).sum();
    // 0.5 recorded only when abandoned > 0: i % 3 != 0 for 2/3 of ops.
    let expected = THREADS as f64 * (OPS_PER_THREAD as f64 * 2.0 / 3.0) * 0.5;
    assert!((work - expected).abs() < 1e-3, "work {work} != {expected}");
}

#[test]
fn concurrent_registration_of_distinct_labels() {
    let registry = MetricsRegistry::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                for r in 0..50 {
                    let metrics = registry.index(&format!("idx-{}", (t + r) % 10));
                    metrics.record(
                        OpKind::Range,
                        Duration::from_nanos(50),
                        CostDelta::default(),
                    );
                }
            });
        }
    });
    let snap = registry.snapshot();
    assert_eq!(snap.indexes.len(), 10);
    let total: u64 = snap
        .indexes
        .iter()
        .flat_map(|i| i.ops.iter())
        .map(|op| op.ops)
        .sum();
    assert_eq!(total, THREADS as u64 * 50);
}

#[test]
fn snapshot_during_traffic_is_self_consistent() {
    let registry = MetricsRegistry::new();
    thread::scope(|scope| {
        for _ in 0..4 {
            let registry = &registry;
            scope.spawn(move || {
                let metrics = registry.index("live");
                for i in 0..2_000u64 {
                    metrics.record(
                        OpKind::Knn,
                        Duration::from_nanos(i),
                        CostDelta {
                            computations: 10,
                            ..CostDelta::default()
                        },
                    );
                }
            });
        }
        // Interleave snapshots with live traffic: totals must never
        // exceed the final tally and histograms must stay internally
        // consistent (bucket sum == count).
        for _ in 0..20 {
            let snap = registry.snapshot();
            if let Some(op) = snap.index("live").and_then(|i| i.op(OpKind::Knn)) {
                assert!(op.ops <= 8_000);
                let buckets: u64 = op.latency_ns.buckets.iter().map(|&(_, c)| c).sum();
                assert_eq!(buckets, op.latency_ns.count);
            }
        }
    });
    let op = registry.snapshot();
    let op = op.index("live").unwrap().op(OpKind::Knn).unwrap();
    assert_eq!(op.ops, 8_000);
    assert_eq!(op.distances.sum, 80_000);
}
