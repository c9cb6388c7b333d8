//! # vantage
//!
//! Distance-based indexing for high-dimensional metric spaces — a
//! production-quality Rust reproduction of Bozkaya & Özsoyoğlu,
//! *"Distance-Based Indexing for High-Dimensional Metric Spaces"*,
//! SIGMOD 1997 (the **mvp-tree** paper).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the [`Metric`] trait, a metric library
//!   (Lp, edit, Hamming, image, histogram), distance counting, linear
//!   scan, pairwise statistics;
//! * [`mvptree`] — the paper's contribution: the
//!   [`MvpTree`] with `(m, k, p)` parameters, plus a dynamic wrapper;
//! * [`vptree`] — the [`VpTree`] baseline;
//! * [`baselines`] — BK-tree, GH-tree, GNAT,
//!   AESA/LAESA;
//! * [`datasets`] — seeded workload generators
//!   reproducing the paper's datasets;
//! * [`telemetry`] — always-on serving telemetry: a lock-free
//!   [`MetricsRegistry`] of latency/distance histograms that `vantage
//!   serve`, `query` and `explain` record into, and JSON + Prometheus
//!   exporters (see DESIGN.md §Telemetry);
//! * [`persist`] — versioned, checksummed on-disk
//!   snapshots of built indexes: save with `vantage build --save`, reload
//!   with `--index` for bit-identical query behavior without paying the
//!   construction cost again (see DESIGN.md §Persistence).
//!
//! ## Quick start
//!
//! ```
//! use vantage::prelude::*;
//!
//! // Index 1 000 points from a metric space (here: 8-d Euclidean).
//! let points: Vec<Vec<f64>> = (0..1000)
//!     .map(|i| (0..8).map(|d| ((i * (d + 3)) % 97) as f64 / 97.0).collect())
//!     .collect();
//! let tree = MvpTree::build(points, Euclidean, MvpParams::default()).unwrap();
//!
//! // All points within distance 0.25 of a query object:
//! let near = tree.range(&vec![0.5; 8], 0.25);
//!
//! // The 5 nearest neighbors:
//! let nn = tree.knn(&vec![0.5; 8], 5);
//! assert_eq!(nn.len(), 5);
//! assert!(nn[0].distance <= nn[4].distance);
//! # let _ = near;
//! ```
//!
//! ## Choosing parameters
//!
//! The paper's guidance, confirmed by the reproduced experiments
//! (EXPERIMENTS.md):
//!
//! * **`m` (partition order)**: 3 is the sweet spot for the evaluated
//!   workloads; each node uses two vantage points and has fanout `m²`.
//! * **`k` (leaf capacity)**: large — most points should live in leaves
//!   where the pre-computed-distance filters apply. `mvpt(3, 80)` beat
//!   `mvpt(3, 9)` everywhere in the paper.
//! * **`p` (path distances)**: 5 for the vector workloads, 4 for images;
//!   more is better until the filters stop discriminating.
//!
//! ## Cost model
//!
//! Everything here is designed around the paper's assumption that the
//! metric dominates all other costs (a 65 536-dimensional image L2 is
//! *much* slower than tree bookkeeping). Wrap any metric in
//! [`Counted`] to measure exactly how many evaluations construction and
//! queries perform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vantage_baselines as baselines;
pub use vantage_core as core;
pub use vantage_datasets as datasets;
pub use vantage_mvptree as mvptree;
pub use vantage_persist as persist;
pub use vantage_telemetry as telemetry;
pub use vantage_vptree as vptree;

pub use vantage_baselines::{
    Aesa, BkTree, FqTree, FqTreeParams, GhTree, GhTreeParams, Gnat, GnatParams, Laesa, TwoStage,
};
pub use vantage_core::{
    BatchIndex, BoundStats, Counted, DiscreteMetric, DistanceHistogram, DistanceRole, KnnCollector,
    LevelStats, LinearScan, Metric, MetricIndex, Neighbor, NoTrace, PruneReason, QueryProfile,
    Result, SearchProfiler, Threads, TraceSink, VantageError, VantageSelector,
};
pub use vantage_mvptree::{DynamicMvpTree, MvpParams, MvpTree, MvpTreeStats, SecondVantage};
pub use vantage_telemetry::{MetricsRegistry, OpKind, RegistrySnapshot};
pub use vantage_vptree::{VpTree, VpTreeParams, VpTreeStats};

/// One-stop imports for applications.
pub mod prelude {
    pub use vantage_baselines::{
        Aesa, BkTree, FqTree, FqTreeParams, GhTree, GhTreeParams, Gnat, GnatParams, Laesa, TwoStage,
    };
    pub use vantage_core::prelude::*;
    pub use vantage_mvptree::{DynamicMvpTree, MvpParams, MvpTree, MvpTreeStats, SecondVantage};
    pub use vantage_telemetry::{MetricsRegistry, OpKind, RegistrySnapshot};
    pub use vantage_vptree::{VpTree, VpTreeParams, VpTreeStats};
}
