//! Frozen registry state: snapshot types, merge, and the human-readable
//! stats table.
//!
//! A [`RegistrySnapshot`] is a plain data structure — no atomics, no
//! `Arc`s — so it can be merged across processes or scrape intervals and
//! serialized by the exporters ([`export`](crate::export)).

use std::fmt::Write as _;

use crate::export::thousands;
use crate::histogram::HistogramSnapshot;
use crate::registry::OpKind;

/// Frozen telemetry for one operation kind of one index.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSnapshot {
    /// Which operation this describes.
    pub kind: OpKind,
    /// Completed operations.
    pub ops: u64,
    /// Wall-clock latency distribution, nanoseconds per operation.
    pub latency_ns: HistogramSnapshot,
    /// Distance-computation distribution, evaluations per operation.
    pub distances: HistogramSnapshot,
    /// Early-abandoned evaluations (subset of the distance totals).
    pub abandoned: u64,
    /// Estimated arithmetic done by the abandoned evaluations, in units
    /// of one full evaluation.
    pub abandoned_work: f64,
    /// Budgeted operations whose search budget ran out before the
    /// traversal finished. Zero for indexes that never run budgeted
    /// queries.
    pub budget_exhausted: u64,
    /// Self-reported recall estimates of budgeted operations, in basis
    /// points (`0..=10000`; see
    /// [`RECALL_SCALE`](crate::registry::RECALL_SCALE)). Empty for
    /// indexes that never run budgeted queries.
    pub estimated_recall_bp: HistogramSnapshot,
}

impl OpSnapshot {
    /// An empty snapshot for `kind`.
    pub fn empty(kind: OpKind) -> Self {
        OpSnapshot {
            kind,
            ops: 0,
            latency_ns: HistogramSnapshot::default(),
            distances: HistogramSnapshot::default(),
            abandoned: 0,
            abandoned_work: 0.0,
            budget_exhausted: 0,
            estimated_recall_bp: HistogramSnapshot::default(),
        }
    }

    /// Accumulates another snapshot of the same kind.
    ///
    /// # Panics
    ///
    /// Panics when the kinds differ.
    pub fn merge(&mut self, other: &OpSnapshot) {
        assert_eq!(self.kind, other.kind, "cannot merge different op kinds");
        self.ops += other.ops;
        self.latency_ns.merge(&other.latency_ns);
        self.distances.merge(&other.distances);
        self.abandoned += other.abandoned;
        self.abandoned_work += other.abandoned_work;
        self.budget_exhausted += other.budget_exhausted;
        self.estimated_recall_bp.merge(&other.estimated_recall_bp);
    }
}

/// Frozen telemetry for one labeled index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSnapshot {
    /// The index label.
    pub label: String,
    /// Per-operation snapshots; kinds with zero traffic are omitted.
    pub ops: Vec<OpSnapshot>,
}

impl IndexSnapshot {
    /// The snapshot for one operation kind, if it saw traffic.
    pub fn op(&self, kind: OpKind) -> Option<&OpSnapshot> {
        self.ops.iter().find(|op| op.kind == kind)
    }

    /// Accumulates another index snapshot (same label) into this one.
    pub fn merge(&mut self, other: &IndexSnapshot) {
        for src in &other.ops {
            match self.ops.iter_mut().find(|op| op.kind == src.kind) {
                Some(dst) => dst.merge(src),
                None => self.ops.push(src.clone()),
            }
        }
        self.ops.sort_by_key(|op| op.kind as usize);
    }
}

/// A frozen gauge reading: an instantaneous value (serving generation,
/// in-flight queries, …) rather than a monotonic counter.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// The gauge name (e.g. `"serve/generation"`).
    pub name: String,
    /// The value at snapshot time.
    pub value: i64,
}

/// A frozen view of a whole [`MetricsRegistry`](crate::MetricsRegistry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// One entry per registered index, in registration order.
    pub indexes: Vec<IndexSnapshot>,
    /// Gauge readings at snapshot time, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
}

impl RegistrySnapshot {
    /// The snapshot for one index label, if present.
    pub fn index(&self, label: &str) -> Option<&IndexSnapshot> {
        self.indexes.iter().find(|i| i.label == label)
    }

    /// The reading of one gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Accumulates another snapshot (e.g. from another process or an
    /// earlier scrape) into this one, matching indexes by label. Gauges
    /// are instantaneous, not additive: `other`'s reading wins when both
    /// snapshots carry the same gauge (treat `other` as the newer scrape).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for src in &other.indexes {
            match self.indexes.iter_mut().find(|i| i.label == src.label) {
                Some(dst) => dst.merge(src),
                None => self.indexes.push(src.clone()),
            }
        }
        for src in &other.gauges {
            match self.gauges.iter_mut().find(|g| g.name == src.name) {
                Some(dst) => dst.value = src.value,
                None => self.gauges.push(src.clone()),
            }
        }
    }

    /// Renders the per-index, per-operation stats table printed by
    /// `vantage stats --metrics`: operation count, p50/p95/p99 latency,
    /// and distance-count percentiles, plus abandoned-evaluation rates
    /// where the kernel layer reported any.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.indexes.iter().all(|i| i.ops.is_empty()) && self.gauges.is_empty() {
            out.push_str("no telemetry recorded\n");
            return out;
        }
        if self.indexes.iter().any(|i| !i.ops.is_empty()) {
            let _ = writeln!(
                out,
                "{:<14} {:<12} {:>10}  {:>24}  {:>26}  {:>10}",
                "index", "op", "count", "latency p50/p95/p99", "distances p50/p95/p99", "abandoned"
            );
            let _ = writeln!(out, "{}", "-".repeat(104));
        }
        for index in &self.indexes {
            for op in &index.ops {
                let lat = render_percentiles(&op.latency_ns, format_ns);
                let dist = render_percentiles(&op.distances, thousands);
                let abandoned = if op.abandoned == 0 {
                    "-".to_string()
                } else {
                    thousands(op.abandoned)
                };
                let _ = writeln!(
                    out,
                    "{:<14} {:<12} {:>10}  {:>24}  {:>26}  {:>10}",
                    index.label,
                    op.kind.name(),
                    thousands(op.ops),
                    lat,
                    dist,
                    abandoned
                );
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<30} {:>12}", "gauge", "value");
            let _ = writeln!(out, "{}", "-".repeat(43));
            for gauge in &self.gauges {
                let _ = writeln!(out, "{:<30} {:>12}", gauge.name, gauge.value);
            }
        }
        out
    }
}

fn render_percentiles(h: &HistogramSnapshot, fmt: impl Fn(u64) -> String) -> String {
    match (h.percentile(0.5), h.percentile(0.95), h.percentile(0.99)) {
        (Some(p50), Some(p95), Some(p99)) => {
            format!("{} / {} / {}", fmt(p50), fmt(p95), fmt(p99))
        }
        _ => "-".to_string(),
    }
}

/// Formats a nanosecond value at a human scale (ns/µs/ms/s).
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CostDelta, MetricsRegistry};
    use std::time::Duration;

    fn sample() -> RegistrySnapshot {
        let registry = MetricsRegistry::new();
        let m = registry.index("mvp");
        for i in 0..100u64 {
            m.record(
                OpKind::Knn,
                Duration::from_micros(100 + i),
                CostDelta {
                    computations: 200 + i,
                    abandoned: i % 3,
                    abandoned_work: 0.1,
                },
            );
        }
        registry.snapshot()
    }

    #[test]
    fn table_contains_percentile_columns() {
        let table = sample().render_table();
        assert!(table.contains("mvp"), "{table}");
        assert!(table.contains("knn"), "{table}");
        assert!(table.contains("latency p50/p95/p99"), "{table}");
        assert!(table.contains("µs"), "{table}");
    }

    #[test]
    fn empty_table_says_so() {
        assert!(RegistrySnapshot::default()
            .render_table()
            .contains("no telemetry recorded"));
    }

    #[test]
    fn merge_accumulates_ops_and_new_labels() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        let op = a.index("mvp").unwrap().op(OpKind::Knn).unwrap();
        assert_eq!(op.ops, 200);
        assert_eq!(op.distances.count, 200);

        let registry = MetricsRegistry::new();
        registry.index("vp").record(
            OpKind::Build,
            Duration::from_millis(1),
            CostDelta::default(),
        );
        a.merge(&registry.snapshot());
        assert!(a.index("vp").is_some());
    }

    #[test]
    #[should_panic(expected = "different op kinds")]
    fn op_merge_rejects_kind_mismatch() {
        let mut a = OpSnapshot::empty(OpKind::Range);
        a.merge(&OpSnapshot::empty(OpKind::Knn));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(format_ns(5), "5ns");
        assert_eq!(format_ns(5_000), "5.0µs");
        assert_eq!(format_ns(5_000_000), "5.00ms");
        assert_eq!(format_ns(5_000_000_000), "5.00s");
    }
}
