//! Live SLO surface: windowed latency percentiles per operation kind
//! with exemplar trace IDs.
//!
//! The [`MetricsRegistry`](crate::MetricsRegistry) histograms are
//! *cumulative* — ideal for long-horizon dashboards, useless for "what
//! is p99 right now". [`SloSurface`] keeps a small sliding window of the
//! most recent latencies per [`OpKind`], recorded
//! lock-free on the request path, and computes nearest-rank p50/p99/
//! p999 on demand. Each window also remembers the trace ID beside every
//! latency, so the worst observation in a window links directly to its
//! trace in the ring (`TRACE <id>`), when that request was sampled.
//!
//! Recording is two relaxed atomic stores into a slot claimed by one
//! `fetch_add` — no locks, no allocation. A snapshot racing a writer
//! can pair a latency with the exemplar ID of the slot's previous
//! occupant; the surface is an observability aid, so best-effort pairs
//! are an accepted trade for a zero-wait request path (the percentile
//! ranks themselves are computed from latencies actually stored).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::OpKind;

/// Latencies retained per operation window.
pub const WINDOW: usize = 1024;

/// One op kind's sliding latency window.
#[derive(Debug)]
struct SloWindow {
    latency_ns: Vec<AtomicU64>,
    exemplar: Vec<AtomicU64>,
    head: AtomicU64,
}

impl SloWindow {
    fn new() -> SloWindow {
        SloWindow {
            latency_ns: (0..WINDOW).map(|_| AtomicU64::new(0)).collect(),
            exemplar: (0..WINDOW).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn record(&self, latency_ns: u64, exemplar_bits: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let i = (seq % WINDOW as u64) as usize;
        self.latency_ns[i].store(latency_ns, Ordering::Relaxed);
        self.exemplar[i].store(exemplar_bits, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SloSnapshot {
        let total = self.head.load(Ordering::Relaxed);
        let filled = (total.min(WINDOW as u64)) as usize;
        let mut pairs: Vec<(u64, u64)> = (0..filled)
            .map(|i| {
                (
                    self.latency_ns[i].load(Ordering::Relaxed),
                    self.exemplar[i].load(Ordering::Relaxed),
                )
            })
            .collect();
        pairs.sort_unstable_by_key(|&(ns, _)| ns);
        let rank = |q: f64| -> u64 {
            if pairs.is_empty() {
                return 0;
            }
            let r = (q * pairs.len() as f64).ceil().max(1.0) as usize;
            pairs[r.min(pairs.len()) - 1].0
        };
        let worst = pairs.last().copied().unwrap_or((0, 0));
        SloSnapshot {
            total,
            window: filled as u64,
            samples: filled as u64,
            p50_ns: rank(0.50),
            p99_ns: rank(0.99),
            p999_ns: rank(0.999),
            p50_converged: filled >= 2,
            p99_converged: filled >= 100,
            p999_converged: filled >= 1000,
            worst_ns: worst.0,
            worst_exemplar: worst.1,
        }
    }
}

/// A frozen view of one operation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSnapshot {
    /// Requests ever recorded for this op kind.
    pub total: u64,
    /// Observations currently in the window (≤ [`WINDOW`]).
    pub window: u64,
    /// Effective sample count behind every percentile below — the same
    /// value as `window`, surfaced explicitly so a reader checking
    /// "is this p999 meaningful?" doesn't have to know the aliasing.
    pub samples: u64,
    /// Nearest-rank median latency over the window, nanoseconds.
    pub p50_ns: u64,
    /// Nearest-rank p99 latency over the window, nanoseconds.
    pub p99_ns: u64,
    /// Nearest-rank p99.9 latency over the window, nanoseconds.
    pub p999_ns: u64,
    /// Whether the window holds enough samples (≥ 2) for `p50_ns` to be
    /// a rank-distinct statistic rather than an alias of the extremes.
    pub p50_converged: bool,
    /// Whether the window holds ≥ 100 samples — below that,
    /// nearest-rank p99 silently equals the worst observation.
    pub p99_converged: bool,
    /// Whether the window holds ≥ 1000 samples — below that,
    /// nearest-rank p99.9 silently equals the worst observation.
    pub p999_converged: bool,
    /// Worst latency in the window, nanoseconds.
    pub worst_ns: u64,
    /// Trace-ID bits recorded beside the worst latency (0 when the
    /// request carried no trace).
    pub worst_exemplar: u64,
}

/// Per-[`OpKind`] sliding latency windows for the serve path.
#[derive(Debug)]
pub struct SloSurface {
    windows: Vec<SloWindow>,
}

impl Default for SloSurface {
    fn default() -> Self {
        SloSurface::new()
    }
}

impl SloSurface {
    /// Creates an empty surface (one window per op kind).
    pub fn new() -> SloSurface {
        SloSurface {
            windows: (0..OpKind::COUNT).map(|_| SloWindow::new()).collect(),
        }
    }

    /// Records one request: two relaxed stores, no locks. `exemplar`
    /// carries the request's trace-ID bits (0 for none).
    pub fn record(&self, kind: OpKind, latency_ns: u64, exemplar: u64) {
        self.windows[kind as usize].record(latency_ns, exemplar);
    }

    /// Snapshots one op kind's window.
    pub fn snapshot(&self, kind: OpKind) -> SloSnapshot {
        self.windows[kind as usize].snapshot()
    }

    /// Snapshots every op kind that has recorded at least one request.
    pub fn snapshots(&self) -> Vec<(OpKind, SloSnapshot)> {
        OpKind::ALL
            .into_iter()
            .map(|kind| (kind, self.snapshot(kind)))
            .filter(|(_, snap)| snap.total > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_surface_reports_nothing() {
        let slo = SloSurface::new();
        assert!(slo.snapshots().is_empty());
        let snap = slo.snapshot(OpKind::Knn);
        assert_eq!(snap.total, 0);
        assert_eq!(snap.p99_ns, 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let slo = SloSurface::new();
        for ns in 1..=100u64 {
            slo.record(OpKind::Range, ns * 1000, ns);
        }
        let snap = slo.snapshot(OpKind::Range);
        assert_eq!(snap.total, 100);
        assert_eq!(snap.window, 100);
        assert_eq!(snap.samples, 100);
        assert_eq!(snap.p50_ns, 50_000);
        assert_eq!(snap.p99_ns, 99_000);
        assert_eq!(snap.p999_ns, 100_000);
        assert_eq!(snap.worst_ns, 100_000);
        assert_eq!(snap.worst_exemplar, 100);
        // At 100 samples p99 is a real rank but p999 still aliases the
        // worst observation — the convergence flags say so.
        assert!(snap.p50_converged);
        assert!(snap.p99_converged);
        assert!(!snap.p999_converged);
    }

    #[test]
    fn sparse_windows_expose_unconverged_percentiles() {
        let slo = SloSurface::new();
        for ns in [10u64, 20, 30] {
            slo.record(OpKind::Knn, ns, 0);
        }
        let snap = slo.snapshot(OpKind::Knn);
        assert_eq!(snap.samples, 3);
        // With 3 samples every high percentile collapses to the worst
        // value; the flags make the aliasing visible to clients.
        assert_eq!(snap.p99_ns, snap.worst_ns);
        assert_eq!(snap.p999_ns, snap.worst_ns);
        assert!(snap.p50_converged);
        assert!(!snap.p99_converged);
        assert!(!snap.p999_converged);
    }

    #[test]
    fn full_window_converges_every_percentile() {
        let slo = SloSurface::new();
        for i in 0..WINDOW as u64 {
            slo.record(OpKind::Range, i + 1, 0);
        }
        let snap = slo.snapshot(OpKind::Range);
        assert_eq!(snap.samples, WINDOW as u64);
        assert!(snap.p999_converged);
        // 1024 samples: p999 rank = ceil(0.999·1024) = 1023 ≠ worst.
        assert_eq!(snap.p999_ns, 1023);
        assert_eq!(snap.worst_ns, 1024);
    }

    #[test]
    fn window_slides_past_capacity() {
        let slo = SloSurface::new();
        // Fill with slow observations, then overwrite with fast ones.
        for _ in 0..WINDOW {
            slo.record(OpKind::Knn, 1_000_000, 1);
        }
        for _ in 0..WINDOW {
            slo.record(OpKind::Knn, 1_000, 2);
        }
        let snap = slo.snapshot(OpKind::Knn);
        assert_eq!(snap.total, 2 * WINDOW as u64);
        assert_eq!(snap.window, WINDOW as u64);
        assert_eq!(snap.p99_ns, 1_000);
        assert_eq!(snap.worst_exemplar, 2);
    }

    #[test]
    fn kinds_are_independent() {
        let slo = SloSurface::new();
        slo.record(OpKind::Range, 5, 0);
        assert_eq!(slo.snapshot(OpKind::Knn).total, 0);
        assert_eq!(slo.snapshots().len(), 1);
    }
}
