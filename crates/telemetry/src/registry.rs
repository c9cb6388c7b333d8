//! The lock-free metrics registry.
//!
//! One [`MetricsRegistry`] serves a whole process (or one test): it hands
//! out [`IndexMetrics`] handles keyed by an index *label* (e.g. `"mvp"`,
//! `"serve/gen2"`). Label registration is the only code path that takes a
//! lock, and it happens once per index at startup; the record path —
//! [`IndexMetrics::record`] — touches only sharded atomic counters and
//! atomic histogram buckets, so any number of serving threads can report
//! concurrently without blocking each other or a snapshot reader.
//!
//! Per label, the registry keeps one [`OpMetrics`] slot per operation
//! kind ([`OpKind`]): operation count, a log-linear wall-clock latency
//! histogram (nanoseconds), a log-linear distance-computation histogram
//! (the paper's cost currency), and the early-abandoning tallies from the
//! kernel layer (abandoned evaluation count + estimated fractional work).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use crate::counter::ShardedCounter;
use crate::histogram::{AtomicHistogram, HistogramSnapshot};
use crate::snapshot::{GaugeSnapshot, IndexSnapshot, OpSnapshot, RegistrySnapshot};

/// The kind of index operation a telemetry sample describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Bulk construction of the index.
    Build = 0,
    /// A single range query.
    Range = 1,
    /// A single k-nearest-neighbor query.
    Knn = 2,
    /// A batch of range queries answered as one operation.
    BatchRange = 3,
    /// A batch of kNN queries answered as one operation.
    BatchKnn = 4,
    /// A snapshot loaded from disk in place of a build. The "distances"
    /// histogram carries the snapshot size in **bytes** for this kind —
    /// a load performs no metric evaluations, and the byte count is the
    /// load's natural cost currency.
    SnapshotLoad = 5,
}

impl OpKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 6;
    /// Every kind, in counter order.
    pub const ALL: [OpKind; Self::COUNT] = [
        OpKind::Build,
        OpKind::Range,
        OpKind::Knn,
        OpKind::BatchRange,
        OpKind::BatchKnn,
        OpKind::SnapshotLoad,
    ];

    /// Stable machine-readable name (used in JSON and Prometheus labels).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Build => "build",
            OpKind::Range => "range",
            OpKind::Knn => "knn",
            OpKind::BatchRange => "batch_range",
            OpKind::BatchKnn => "batch_knn",
            OpKind::SnapshotLoad => "snapshot_load",
        }
    }

    /// Parses [`name`](OpKind::name) back into a kind.
    pub fn parse(name: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The distance-computation cost of one operation, as a *delta* between
/// two monotonic [`Counted`](vantage_core::Counted) readings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostDelta {
    /// Metric evaluations performed (the paper's cost measure).
    pub computations: u64,
    /// How many of those the bounded kernel abandoned early.
    pub abandoned: u64,
    /// Estimated arithmetic done by the abandoned evaluations, in units
    /// of one full evaluation.
    pub abandoned_work: f64,
}

/// Fixed-point scale for accumulating fractional work in an atomic
/// counter (mirrors `Counted`'s internal representation).
const WORK_SCALE: f64 = 1_000_000.0;

/// Fixed-point scale for recall estimates: a recall in `[0, 1]` is
/// recorded in the histogram as basis points in `[0, 10000]`, the finest
/// resolution the log-linear buckets can hold without loss of meaning.
pub const RECALL_SCALE: f64 = 10_000.0;

/// Live telemetry for one operation kind of one index.
#[derive(Debug, Default)]
pub struct OpMetrics {
    ops: ShardedCounter,
    latency_ns: AtomicHistogram,
    distances: AtomicHistogram,
    abandoned: ShardedCounter,
    abandoned_work_scaled: ShardedCounter,
    budget_exhausted: ShardedCounter,
    estimated_recall_bp: AtomicHistogram,
}

impl OpMetrics {
    /// Number of operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    fn record(&self, latency: Duration, cost: CostDelta) {
        self.ops.incr();
        self.latency_ns
            .record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        self.distances.record(cost.computations);
        if cost.abandoned > 0 {
            self.abandoned.add(cost.abandoned);
            self.abandoned_work_scaled
                .add((cost.abandoned_work.max(0.0) * WORK_SCALE) as u64);
        }
    }

    fn record_budget(&self, exhausted: bool, estimated_recall: f64) {
        if exhausted {
            self.budget_exhausted.incr();
        }
        self.estimated_recall_bp
            .record((estimated_recall.clamp(0.0, 1.0) * RECALL_SCALE).round() as u64);
    }

    fn snapshot(&self, kind: OpKind) -> OpSnapshot {
        // An untouched recall histogram freezes to the canonical empty
        // snapshot (`min` would otherwise read `u64::MAX`), matching
        // what `from_json` reconstructs when the field is absent.
        let estimated_recall_bp = self.estimated_recall_bp.snapshot();
        let estimated_recall_bp = if estimated_recall_bp.count == 0 {
            HistogramSnapshot::default()
        } else {
            estimated_recall_bp
        };
        OpSnapshot {
            kind,
            ops: self.ops.get(),
            latency_ns: self.latency_ns.snapshot(),
            distances: self.distances.snapshot(),
            abandoned: self.abandoned.get(),
            abandoned_work: self.abandoned_work_scaled.get() as f64 / WORK_SCALE,
            budget_exhausted: self.budget_exhausted.get(),
            estimated_recall_bp,
        }
    }
}

/// All telemetry for one labeled index: one [`OpMetrics`] per [`OpKind`].
///
/// Handles are shared via [`Arc`]; the hot path never consults the
/// registry map again after the handle is created.
#[derive(Debug)]
pub struct IndexMetrics {
    label: String,
    ops: [OpMetrics; OpKind::COUNT],
}

impl IndexMetrics {
    fn new(label: String) -> Self {
        IndexMetrics {
            label,
            ops: Default::default(),
        }
    }

    /// The index label this handle reports under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The live metrics slot for one operation kind.
    pub fn op(&self, kind: OpKind) -> &OpMetrics {
        &self.ops[kind as usize]
    }

    /// Records one completed operation: its wall-clock latency and its
    /// distance-computation cost delta. Lock-free.
    pub fn record(&self, kind: OpKind, latency: Duration, cost: CostDelta) {
        self.ops[kind as usize].record(latency, cost);
    }

    /// Records one completed *budgeted* operation: everything
    /// [`record`](IndexMetrics::record) captures, plus whether the search
    /// budget ran out and the search's own recall estimate (recorded as
    /// basis points, see [`RECALL_SCALE`]). Lock-free.
    pub fn record_budgeted(
        &self,
        kind: OpKind,
        latency: Duration,
        cost: CostDelta,
        exhausted: bool,
        estimated_recall: f64,
    ) {
        let op = &self.ops[kind as usize];
        op.record(latency, cost);
        op.record_budget(exhausted, estimated_recall);
    }

    /// Freezes this index's counters into a snapshot.
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            label: self.label.clone(),
            ops: OpKind::ALL
                .into_iter()
                .map(|kind| self.ops[kind as usize].snapshot(kind))
                .filter(|op| op.ops > 0)
                .collect(),
        }
    }
}

/// A point-in-time instantaneous value (as opposed to the monotonic
/// counters in [`OpMetrics`]): current serving generation, in-flight
/// query count, completed swaps. Updated lock-free from any thread;
/// handles are shared via [`Arc`] from [`MetricsRegistry::gauge`].
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Release);
    }

    /// Adds (or, negative, subtracts) a delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::AcqRel);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A process- or test-scoped collection of [`IndexMetrics`].
///
/// `Default`-constructible for isolated use in tests; long-lived binaries
/// usually share [`MetricsRegistry::global`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // Registration is rare (once per index) and may take the write lock;
    // recording goes through previously returned Arc handles and never
    // touches this map.
    indexes: RwLock<Vec<Arc<IndexMetrics>>>,
    gauges: RwLock<Vec<(String, Arc<Gauge>)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide shared registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Returns the metrics handle for `label`, creating it on first use.
    /// Two calls with the same label return the same handle.
    pub fn index(&self, label: &str) -> Arc<IndexMetrics> {
        if let Some(existing) = self
            .indexes
            .read()
            .expect("registry lock poisoned")
            .iter()
            .find(|m| m.label == label)
        {
            return Arc::clone(existing);
        }
        let mut write = self.indexes.write().expect("registry lock poisoned");
        // Re-check under the write lock: another thread may have won.
        if let Some(existing) = write.iter().find(|m| m.label == label) {
            return Arc::clone(existing);
        }
        let created = Arc::new(IndexMetrics::new(label.to_string()));
        write.push(Arc::clone(&created));
        created
    }

    /// Returns the gauge named `name`, creating it (at zero) on first
    /// use. Two calls with the same name return the same handle.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some((_, existing)) = self
            .gauges
            .read()
            .expect("registry lock poisoned")
            .iter()
            .find(|(n, _)| n == name)
        {
            return Arc::clone(existing);
        }
        let mut write = self.gauges.write().expect("registry lock poisoned");
        if let Some((_, existing)) = write.iter().find(|(n, _)| n == name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(Gauge::default());
        write.push((name.to_string(), Arc::clone(&created)));
        created
    }

    /// Labels registered so far, in registration order.
    pub fn labels(&self) -> Vec<String> {
        self.indexes
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|m| m.label.clone())
            .collect()
    }

    /// Freezes every registered index into a [`RegistrySnapshot`].
    ///
    /// Safe to call while traffic is in flight: each atomic is read once,
    /// so an in-flight operation lands wholly in this snapshot or wholly
    /// in the next.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let handles: Vec<Arc<IndexMetrics>> = self
            .indexes
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(Arc::clone)
            .collect();
        let gauges: Vec<GaugeSnapshot> = self
            .gauges
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, gauge)| GaugeSnapshot {
                name: name.clone(),
                value: gauge.get(),
            })
            .collect();
        RegistrySnapshot {
            indexes: handles.iter().map(|m| m.snapshot()).collect(),
            gauges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_names_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::parse("bogus"), None);
    }

    #[test]
    fn same_label_returns_same_handle() {
        let registry = MetricsRegistry::new();
        let a = registry.index("mvp");
        let b = registry.index("mvp");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.labels(), vec!["mvp".to_string()]);
    }

    #[test]
    fn record_and_snapshot() {
        let registry = MetricsRegistry::new();
        let metrics = registry.index("vp");
        metrics.record(
            OpKind::Range,
            Duration::from_micros(150),
            CostDelta {
                computations: 37,
                abandoned: 5,
                abandoned_work: 0.75,
            },
        );
        metrics.record(
            OpKind::Range,
            Duration::from_micros(50),
            CostDelta::default(),
        );
        metrics.record(
            OpKind::Build,
            Duration::from_millis(2),
            CostDelta::default(),
        );

        let snap = registry.snapshot();
        assert_eq!(snap.indexes.len(), 1);
        let vp = &snap.indexes[0];
        assert_eq!(vp.label, "vp");
        // Only the two kinds with traffic appear.
        assert_eq!(vp.ops.len(), 2);
        let range = vp.op(OpKind::Range).unwrap();
        assert_eq!(range.ops, 2);
        assert_eq!(range.distances.sum, 37);
        assert_eq!(range.abandoned, 5);
        assert!((range.abandoned_work - 0.75).abs() < 1e-6);
        assert_eq!(range.latency_ns.count, 2);
        assert!(range.latency_ns.min >= 49_000 && range.latency_ns.max >= 150_000);
        assert!(vp.op(OpKind::Knn).is_none());
    }

    #[test]
    fn snapshot_load_records_bytes_in_the_cost_histogram() {
        let registry = MetricsRegistry::new();
        let metrics = registry.index("mvp");
        metrics.record(
            OpKind::SnapshotLoad,
            Duration::from_micros(800),
            CostDelta {
                computations: 4_096, // snapshot bytes, per the kind's contract
                ..CostDelta::default()
            },
        );
        let snap = registry.snapshot();
        let load = snap.indexes[0].op(OpKind::SnapshotLoad).unwrap();
        assert_eq!(load.ops, 1);
        assert_eq!(load.distances.sum, 4_096);
        assert_eq!(OpKind::parse("snapshot_load"), Some(OpKind::SnapshotLoad));
    }

    #[test]
    fn budgeted_records_exhaustion_and_recall_basis_points() {
        let registry = MetricsRegistry::new();
        let metrics = registry.index("vp");
        metrics.record_budgeted(
            OpKind::Knn,
            Duration::from_micros(90),
            CostDelta {
                computations: 64,
                ..CostDelta::default()
            },
            true,
            0.85,
        );
        metrics.record_budgeted(
            OpKind::Knn,
            Duration::from_micros(120),
            CostDelta {
                computations: 128,
                ..CostDelta::default()
            },
            false,
            1.0,
        );
        let snap = registry.snapshot();
        let knn = snap.indexes[0].op(OpKind::Knn).unwrap();
        assert_eq!(knn.ops, 2);
        assert_eq!(knn.budget_exhausted, 1);
        assert_eq!(knn.estimated_recall_bp.count, 2);
        assert_eq!(knn.estimated_recall_bp.sum, 8_500 + 10_000);
        // Plain records leave the budget telemetry untouched.
        metrics.record(OpKind::Knn, Duration::from_micros(70), CostDelta::default());
        let knn = registry.snapshot().indexes[0]
            .op(OpKind::Knn)
            .unwrap()
            .clone();
        assert_eq!(knn.ops, 3);
        assert_eq!(knn.budget_exhausted, 1);
        assert_eq!(knn.estimated_recall_bp.count, 2);
    }

    #[test]
    fn empty_index_is_omitted_from_snapshot_only_if_untouched() {
        let registry = MetricsRegistry::new();
        let _quiet = registry.index("quiet");
        let snap = registry.snapshot();
        assert_eq!(snap.indexes.len(), 1);
        assert!(snap.indexes[0].ops.is_empty());
    }
}
