//! Always-on serving telemetry for vantage indexes.
//!
//! The paper's experiments (§5) measure *distance computations per query*
//! offline; a serving system needs the same currency **continuously**, at
//! negligible overhead, alongside wall-clock latency. This crate provides
//! that observability layer:
//!
//! * [`MetricsRegistry`] — a process-scoped registry of per-index,
//!   per-operation metrics. Registration takes a lock once per index;
//!   recording is lock-free (sharded atomic counters + atomic log-linear
//!   histograms), so serving threads never contend with each other or
//!   with a scraper.
//! * [`AtomicHistogram`] — an HDR-style log-linear histogram over `u64`
//!   (1920 buckets, ≤3.2% relative error) used for both latency in
//!   nanoseconds and distance-computation counts per operation.
//! * [`RegistrySnapshot`] — a frozen, mergeable view with a
//!   human-readable table ([`RegistrySnapshot::render_table`]), plus
//!   lossless JSON ([`export::to_json`]/[`export::from_json`]) and
//!   Prometheus text ([`export::to_prometheus`]) exporters.
//! * [`TraceRing`] — a bounded, never-blocking ring of sampled request
//!   traces ([`TraceRecord`]) backing the serve protocol's `SLOW` /
//!   `TRACE` commands and the Chrome trace-event exporter
//!   ([`ring::chrome_from_trace_json`]).
//! * [`SloSurface`] — windowed p50/p99/p999 latency per operation kind
//!   with exemplar trace IDs, recorded lock-free on the request path.
//!
//! The serving layer records into the registry directly: each search
//! counts its own cost in a per-query sink, so concurrent queries never
//! read each other's counts. See `vantage serve` (`STATS`, `SLO`,
//! `TRACE`, `--metrics-out`), `vantage query`/`explain --metrics` and
//! `vantage stats --metrics` for the CLI surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod ring;
pub mod slo;
pub mod snapshot;

pub use counter::ShardedCounter;
pub use histogram::{AtomicHistogram, HistogramSnapshot};
pub use json::Json;
pub use registry::{CostDelta, Gauge, IndexMetrics, MetricsRegistry, OpKind, RECALL_SCALE};
pub use ring::{chrome_from_trace_json, profile_to_json, TraceRecord, TraceRing};
pub use slo::{SloSnapshot, SloSurface};
pub use snapshot::{format_ns, GaugeSnapshot, IndexSnapshot, OpSnapshot, RegistrySnapshot};
