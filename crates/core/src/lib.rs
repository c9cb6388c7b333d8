//! # vantage-core
//!
//! Foundations for distance-based indexing of high-dimensional metric
//! spaces, reproducing the substrate assumed by Bozkaya & Özsoyoğlu,
//! *"Distance-Based Indexing for High-Dimensional Metric Spaces"*
//! (SIGMOD 1997).
//!
//! A *metric space* is a set of objects together with a distance function
//! `d` satisfying symmetry, non-negativity, identity of indiscernibles and
//! the triangle inequality (paper §2). Distance-based index structures rely
//! on nothing else — no coordinates, no geometry — which is what lets them
//! serve image, sequence and text workloads alike.
//!
//! This crate provides:
//!
//! * the [`Metric`], [`DiscreteMetric`] and [`BoundedMetric`] traits
//!   ([`metric`]) — the latter the early-abandoning bounded-distance
//!   kernel layer every search hot path verifies candidates through;
//! * a library of concrete metrics: Minkowski/Lp norms, weighted Lp,
//!   Levenshtein edit distance, Hamming distance, gray-level image L1/L2
//!   with the paper's normalizations, and histogram distances
//!   ([`metrics`]);
//! * the [`Counted`] wrapper that counts distance evaluations — the paper's
//!   cost measure — and the per-query [`DistanceTally`] sink that counts
//!   the same cost without shared state ([`counting`]);
//! * query vocabulary: [`Neighbor`], the [`MetricIndex`] trait and kNN
//!   collection helpers ([`query`], [`index`], [`knn`]);
//! * one entry point for every query form: the [`Query`] a client asks
//!   and the [`Search`] trait that answers it into any [`TraceSink`]
//!   ([`search`]);
//! * the exhaustive [`LinearScan`] baseline every index is tested
//!   against, and the one exhaustive loop behind it and every other
//!   scan, [`scan`] ([`linear`]);
//! * pairwise distance statistics used to regenerate the paper's
//!   distance-distribution histograms, Figures 4–7 ([`stats`]);
//! * scoped fork-join parallelism — the [`Threads`] knob, order-preserving
//!   parallel maps, and the [`BatchIndex`] batch-query extension available
//!   on every `MetricIndex + Sync` ([`parallel`], [`index`]);
//! * RCU-style zero-downtime value swapping for long-lived serving
//!   processes: [`SwapCell`] publishes index generations atomically,
//!   readers pin a generation with [`SwapGuard`]s, and displaced
//!   generations drain through [`Retired`] handles ([`swap`]);
//! * query observability: the [`TraceSink`] instrumentation interface
//!   (zero-cost via [`NoTrace`]), per-query [`QueryProfile`]s attributing
//!   distance computations and prunes to filter stages, and the
//!   [`SearchProfiler`] workload aggregator ([`trace`]);
//! * request-scoped tracing for serving processes: deterministic
//!   [`TraceId`]s and 1-in-N [`Sampler`]s plus the [`SpanRecorder`]
//!   laying a request's phases on one timeline with their
//!   [`DistanceTotals`] deltas ([`span`]).
//!
//! ## Quick start
//!
//! ```
//! use vantage_core::prelude::*;
//!
//! let points: Vec<Vec<f64>> = vec![
//!     vec![0.0, 0.0],
//!     vec![1.0, 0.0],
//!     vec![0.0, 3.0],
//! ];
//! let scan = LinearScan::new(points, Euclidean);
//! let hits = scan.range(&vec![0.1, 0.0], 1.0);
//! assert_eq!(hits.len(), 2);
//! ```

// Unsafe is denied crate-wide and re-allowed in exactly one place: the
// `std::arch` AVX2 backend in [`simd`], which is gated behind runtime
// CPU-feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod counting;
pub mod error;
pub mod farthest;
pub mod index;
pub mod items;
pub mod knn;
pub mod linear;
pub mod metric;
pub mod metrics;
pub mod parallel;
pub mod query;
pub mod search;
pub mod select;
pub mod simd;
pub mod span;
pub mod stats;
pub mod swap;
pub mod trace;
pub mod util;

pub use budget::{scan_budgeted, BudgetMeter, BudgetedKnn, BudgetedSearch, SearchBudget};
pub use counting::{Counted, DistanceTally, DistanceTotals};
pub use error::{Result, VantageError};
pub use farthest::{FarthestIndex, KfnCollector};
pub use index::{BatchIndex, MetricIndex};
pub use items::{
    id_rows, F64Rows, FlatF64s, FlatStrs, FlatU8s, FlatVecs, ItemStore, RowStore, StrRows, U8Rows,
    VecRows,
};
pub use knn::KnnCollector;
pub use linear::{scan, scan_into, Gather, LinearScan, ScanRows, Slab, SlabThen, SLAB_BLOCK};
pub use metric::{BoundedMetric, DiscreteMetric, Metric};
pub use parallel::Threads;
pub use query::Neighbor;
pub use search::{Query, Search};
pub use select::VantageSelector;
pub use simd::SimdPath;
pub use span::{Sampler, SpanRecord, SpanRecorder, SpanTimer, TraceId};
pub use stats::DistanceHistogram;
pub use swap::{Retired, SwapCell, SwapGuard};
pub use trace::{
    BoundStats, DistanceRole, EventLog, LevelStats, NoTrace, PruneReason, QueryProfile,
    SearchProfiler, TraceEvent, TraceSink,
};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::budget::{BudgetMeter, BudgetedKnn, BudgetedSearch, SearchBudget};
    pub use crate::counting::{Counted, DistanceTally, DistanceTotals};
    pub use crate::error::{Result, VantageError};
    pub use crate::farthest::{FarthestIndex, KfnCollector};
    pub use crate::index::{BatchIndex, MetricIndex};
    pub use crate::knn::KnnCollector;
    pub use crate::linear::LinearScan;
    pub use crate::metric::{BoundedMetric, DiscreteMetric, Metric};
    pub use crate::metrics::angular::Angular;
    pub use crate::metrics::edit::Levenshtein;
    pub use crate::metrics::hamming::Hamming;
    pub use crate::metrics::histogram::{gray_histogram, HistogramL1};
    pub use crate::metrics::image::{GrayImage, ImageL1, ImageL2};
    pub use crate::metrics::jaccard::{sorted_set, Jaccard};
    pub use crate::metrics::minkowski::{Chebyshev, Euclidean, Manhattan, Minkowski};
    pub use crate::metrics::weighted::WeightedLp;
    pub use crate::parallel::Threads;
    pub use crate::query::Neighbor;
    pub use crate::search::{Query, Search};
    pub use crate::select::VantageSelector;
    pub use crate::simd::SimdPath;
    pub use crate::span::{Sampler, SpanRecord, SpanRecorder, SpanTimer, TraceId};
    pub use crate::stats::DistanceHistogram;
    pub use crate::swap::{Retired, SwapCell, SwapGuard};
    pub use crate::trace::{
        BoundStats, DistanceRole, EventLog, LevelStats, NoTrace, PruneReason, QueryProfile,
        SearchProfiler, TraceEvent, TraceSink,
    };
}
