//! The [`Instrumented`] index wrapper: always-on serving telemetry with
//! zero changes to the wrapped index.
//!
//! `Instrumented<I>` implements [`MetricIndex`] by delegating to the
//! inner index and, around each query, timing the call and reading the
//! distance-cost delta from a [`CostProbe`] (usually a clone of the
//! [`Counted`] metric the index was built with). Answers are returned
//! untouched — instrumentation never changes results, and the per-query
//! overhead is two monotonic-clock reads plus a handful of relaxed
//! atomics.

use std::sync::Arc;
use std::time::Instant;

use vantage_core::parallel::Threads;
use vantage_core::query::Neighbor;
use vantage_core::{
    BudgetedKnn, BudgetedSearch, Counted, DistanceTotals, MetricIndex, SearchBudget,
};

use crate::registry::{CostDelta, IndexMetrics, OpKind};

/// A source of monotonic distance-cost readings.
///
/// The wrapper reads totals before and after each operation and records
/// the difference, so the probe must never be reset while instrumented
/// queries are running. Under concurrent queries sharing one probe, each
/// operation's delta may include evaluations from overlapping operations
/// on other threads — totals across a snapshot remain exact, per-op
/// attribution is best-effort (see DESIGN.md §Telemetry).
pub trait CostProbe: Send + Sync {
    /// Current cumulative totals.
    fn totals(&self) -> DistanceTotals;
}

impl<M: Send + Sync> CostProbe for Counted<M> {
    fn totals(&self) -> DistanceTotals {
        Counted::totals(self)
    }
}

/// A probe that always reads zero — for indexes whose metric is not
/// wrapped in [`Counted`]. Latency histograms still populate; distance
/// histograms record zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl CostProbe for NoProbe {
    fn totals(&self) -> DistanceTotals {
        DistanceTotals::default()
    }
}

impl From<DistanceTotals> for CostDelta {
    fn from(d: DistanceTotals) -> CostDelta {
        CostDelta {
            computations: d.computations,
            abandoned: d.abandoned,
            abandoned_work: d.abandoned_work,
        }
    }
}

/// A [`MetricIndex`] wrapper that records every operation into an
/// [`IndexMetrics`] handle.
///
/// ```
/// use vantage_core::prelude::*;
/// use vantage_telemetry::{Instrumented, MetricsRegistry, OpKind};
///
/// let registry = MetricsRegistry::new();
/// let metric = Counted::new(Euclidean);
/// let probe = metric.clone();
/// let index = Instrumented::with_probe(
///     LinearScan::new(vec![vec![0.0], vec![1.0]], metric),
///     registry.index("scan"),
///     probe,
/// );
/// index.range(&vec![0.5], 10.0);
/// let snap = registry.snapshot();
/// assert_eq!(snap.index("scan").unwrap().op(OpKind::Range).unwrap().ops, 1);
/// ```
pub struct Instrumented<I> {
    inner: I,
    metrics: Arc<IndexMetrics>,
    probe: Arc<dyn CostProbe>,
}

impl<I> Instrumented<I> {
    /// Wraps `inner`, reporting into `metrics` with no distance probe
    /// (latency only).
    pub fn new(inner: I, metrics: Arc<IndexMetrics>) -> Self {
        Instrumented::with_probe(inner, metrics, NoProbe)
    }

    /// Wraps `inner` with a probe for distance-cost attribution. Pass a
    /// clone of the index's [`Counted`] metric.
    pub fn with_probe(
        inner: I,
        metrics: Arc<IndexMetrics>,
        probe: impl CostProbe + 'static,
    ) -> Self {
        Instrumented {
            inner,
            metrics,
            probe: Arc::new(probe),
        }
    }

    /// Runs `build`, records its wall-clock and distance cost as one
    /// [`OpKind::Build`] operation, and wraps the result.
    pub fn build_with<F>(
        metrics: Arc<IndexMetrics>,
        probe: impl CostProbe + 'static,
        build: F,
    ) -> Self
    where
        F: FnOnce() -> I,
    {
        let probe: Arc<dyn CostProbe> = Arc::new(probe);
        let before = probe.totals();
        let start = Instant::now();
        let inner = build();
        let delta = probe.totals().since(&before);
        metrics.record(OpKind::Build, start.elapsed(), delta.into());
        Instrumented {
            inner,
            metrics,
            probe,
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwraps, discarding the telemetry handles.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// The metrics handle this wrapper reports into.
    pub fn metrics(&self) -> &Arc<IndexMetrics> {
        &self.metrics
    }

    #[inline]
    fn observe<R>(&self, kind: OpKind, op: impl FnOnce(&I) -> R) -> R {
        let before = self.probe.totals();
        let start = Instant::now();
        let result = op(&self.inner);
        let delta = self.probe.totals().since(&before);
        self.metrics.record(kind, start.elapsed(), delta.into());
        result
    }
}

impl<T: ?Sized, I: MetricIndex<T>> MetricIndex<T> for Instrumented<I> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.inner.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        self.observe(OpKind::Range, |i| i.range(query, radius))
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        self.observe(OpKind::Knn, |i| i.knn(query, k))
    }
}

// Budgeted queries record under `OpKind::Knn` like their exact
// counterpart, with two extra signals the answer itself carries: whether
// the budget ran out and the search's own recall estimate.
impl<T: ?Sized, I: BudgetedSearch<T>> BudgetedSearch<T> for Instrumented<I> {
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
        let before = self.probe.totals();
        let start = Instant::now();
        let result = self.inner.knn_budgeted(query, k, budget);
        let delta = self.probe.totals().since(&before);
        self.metrics.record_budgeted(
            OpKind::Knn,
            start.elapsed(),
            delta.into(),
            result.exhausted,
            result.estimated_recall,
        );
        result
    }
}

// Batch operations are *inherent* methods, not a `BatchIndex` impl: the
// blanket `impl<I: MetricIndex + Sync> BatchIndex for I` already covers
// `Instrumented`, and inherent methods win method resolution, so
// `instrumented.batch_range(..)` records ONE batch operation instead of
// one op per member query. (Calling through `&dyn BatchIndex` instead
// falls back to the blanket impl and records per-query range/knn ops —
// still correct totals, different op attribution.)
impl<I> Instrumented<I> {
    /// Answers a range-query batch, recorded as one
    /// [`OpKind::BatchRange`] operation.
    pub fn batch_range<T>(&self, queries: &[T], radius: f64, threads: Threads) -> Vec<Vec<Neighbor>>
    where
        T: Sync,
        I: MetricIndex<T> + Sync,
    {
        use vantage_core::BatchIndex as _;
        self.observe(OpKind::BatchRange, |i| {
            i.batch_range(queries, radius, threads)
        })
    }

    /// Answers a kNN batch, recorded as one [`OpKind::BatchKnn`]
    /// operation.
    pub fn batch_knn<T>(&self, queries: &[T], k: usize, threads: Threads) -> Vec<Vec<Neighbor>>
    where
        T: Sync,
        I: MetricIndex<T> + Sync,
    {
        use vantage_core::BatchIndex as _;
        self.observe(OpKind::BatchKnn, |i| i.batch_knn(queries, k, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use vantage_core::linear::LinearScan;
    use vantage_core::metrics::minkowski::Euclidean;

    fn points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect()
    }

    type CountedScan = Instrumented<LinearScan<Vec<f64>, Counted<Euclidean>>>;

    fn instrumented(registry: &MetricsRegistry, label: &str) -> (CountedScan, Counted<Euclidean>) {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let index = Instrumented::build_with(registry.index(label), probe.clone(), || {
            LinearScan::new(points(32), metric)
        });
        (index, probe)
    }

    #[test]
    fn answers_are_bit_identical_to_bare_index() {
        let registry = MetricsRegistry::new();
        let (index, _) = instrumented(&registry, "scan");
        let bare = LinearScan::new(points(32), Euclidean);
        let q = vec![4.5, 3.0];
        assert_eq!(index.range(&q, 5.0), bare.range(&q, 5.0));
        assert_eq!(index.knn(&q, 7), bare.knn(&q, 7));
        assert_eq!(index.len(), bare.len());
        assert_eq!(index.get(3), bare.get(3));
    }

    #[test]
    fn ops_and_distance_deltas_are_recorded() {
        let registry = MetricsRegistry::new();
        let (index, probe) = instrumented(&registry, "scan");
        let q = vec![1.0, 2.0];
        index.range(&q, 3.0);
        index.range(&q, 6.0);
        index.knn(&q, 5);

        let snap = registry.index("scan").snapshot();
        let range = snap.op(OpKind::Range).unwrap();
        assert_eq!(range.ops, 2);
        // LinearScan evaluates every object per query: 32 each.
        assert_eq!(range.distances.sum, 64);
        assert_eq!(snap.op(OpKind::Knn).unwrap().distances.sum, 32);
        // Build was recorded too (LinearScan builds without distances).
        assert_eq!(snap.op(OpKind::Build).unwrap().ops, 1);
        // The probe itself was never reset: totals stay monotonic.
        assert_eq!(probe.count(), 96);
    }

    #[test]
    fn batch_ops_record_one_operation_per_batch() {
        let registry = MetricsRegistry::new();
        let (index, _) = instrumented(&registry, "scan");
        let queries = points(5);
        let batched = index.batch_range(&queries, 4.0, Threads::Fixed(2));
        index.batch_knn(&queries, 3, Threads::SEQUENTIAL);

        let snap = registry.index("scan").snapshot();
        let br = snap.op(OpKind::BatchRange).unwrap();
        assert_eq!(br.ops, 1);
        assert_eq!(br.distances.sum, 5 * 32);
        assert_eq!(snap.op(OpKind::BatchKnn).unwrap().ops, 1);
        // No per-query range/knn ops leaked from the batch path.
        assert!(snap.op(OpKind::Range).is_none());
        assert!(snap.op(OpKind::Knn).is_none());

        // And the answers match the single-query path exactly.
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batched[i], index.inner().range(q, 4.0));
        }
    }

    #[test]
    fn no_probe_records_latency_with_zero_distances() {
        let registry = MetricsRegistry::new();
        let index = Instrumented::new(
            LinearScan::new(points(8), Euclidean),
            registry.index("bare"),
        );
        index.knn(&vec![0.0, 0.0], 2);
        let snap = registry.index("bare").snapshot();
        let knn = snap.op(OpKind::Knn).unwrap();
        assert_eq!(knn.ops, 1);
        assert_eq!(knn.distances.sum, 0);
        assert_eq!(knn.latency_ns.count, 1);
    }

    #[test]
    fn budgeted_knn_records_recall_and_matches_inner() {
        let registry = MetricsRegistry::new();
        let (index, _) = instrumented(&registry, "scan");
        let q = vec![4.5, 3.0];
        let full = index.knn_budgeted(&q, 5, SearchBudget::UNLIMITED);
        assert_eq!(full.neighbors, index.inner().knn(&q, 5));
        let partial = index.knn_budgeted(&q, 5, SearchBudget::limited(8));
        assert!(partial.exhausted);

        let snap = registry.index("scan").snapshot();
        let knn = snap.op(OpKind::Knn).unwrap();
        assert_eq!(knn.ops, 2);
        assert_eq!(knn.budget_exhausted, 1);
        assert_eq!(knn.estimated_recall_bp.count, 2);
        assert_eq!(knn.estimated_recall_bp.max, 10_000);
        // The unlimited query evaluated all 32 points, the partial 8.
        assert_eq!(knn.distances.sum, 40);
    }

    #[test]
    fn abandoned_tallies_flow_through() {
        let registry = MetricsRegistry::new();
        // Spread-out points in high dimension with a tiny radius: the
        // bounded kernel abandons most candidate evaluations.
        let data: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 * 10.0; 64]).collect();
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let index = Instrumented::with_probe(
            LinearScan::new(data, metric),
            registry.index("hidim"),
            probe,
        );
        index.range(&vec![0.25; 64], 1.0);
        let snap = registry.index("hidim").snapshot();
        let range = snap.op(OpKind::Range).unwrap();
        assert!(range.abandoned > 0, "expected abandoned evaluations");
        assert!(range.abandoned_work > 0.0);
    }
}
