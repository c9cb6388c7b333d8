//! # vantage-mvptree
//!
//! The **multi-vantage-point (mvp) tree** — the primary contribution of
//! Bozkaya & Özsoyoğlu, *"Distance-Based Indexing for High-Dimensional
//! Metric Spaces"*, SIGMOD 1997 (§4).
//!
//! Like the vp-tree, the mvp-tree partitions a metric space into spherical
//! cuts around vantage points and answers similarity queries using nothing
//! but the triangle inequality. It improves on the vp-tree with three
//! ideas:
//!
//! 1. **Two vantage points per node.** The first vantage point splits the
//!    points below a node into `m` groups; the second vantage point splits
//!    each of those into `m` more, for a fanout of `m²` — two vp-tree
//!    levels collapsed into one node, so a query descending several
//!    branches pays for far fewer query-to-vantage-point distances
//!    (Observation 1, §4.1: one vantage point can partition regions it is
//!    not inside of).
//! 2. **Pre-computed path distances.** Construction necessarily computes
//!    the distance between every data point and each vantage point above
//!    it. The mvp-tree keeps the first `p` of these for every leaf-resident
//!    point (`PATH` arrays) and uses them as a triangle-inequality filter
//!    at query time — distance computations the vp-tree simply discards
//!    (Observation 2, §4.1).
//! 3. **Large leaves.** With leaf capacity `k` large, most points live in
//!    leaves where the `D1`/`D2`/`PATH` filters apply: *"the major
//!    filtering step … is delayed to the leaf level"* (§4.2).
//!
//! The paper's `mvpt(m, k)` notation (with `p` fixed per experiment) maps
//! to [`MvpParams`] `{ m, k, p }`.
//!
//! ```
//! use vantage_core::prelude::*;
//! use vantage_mvptree::{MvpParams, MvpTree};
//!
//! let points: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i)]).collect();
//! let tree = MvpTree::build(points, Euclidean, MvpParams::paper(3, 9, 5)).unwrap();
//! assert_eq!(tree.range(&vec![77.0], 1.0).len(), 3);
//! let nn = tree.knn(&vec![40.4], 2);
//! assert_eq!(nn[0].id, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod build;
mod farthest;
mod kernel;
mod search;
mod stats;
mod tree;
mod treeref;
mod validate;

pub mod arena;
pub mod concurrent;
pub mod dynamic;
pub mod params;
pub mod route;

pub use arena::{LeafEntriesView, MvpArena, MvpArenaView, MvpNodeView, NO_CHILD};
pub use concurrent::{ConcurrentMvpTree, MvpReadSnapshot};
pub use dynamic::DynamicMvpTree;
pub use params::{MvpParams, SecondVantage};
pub use route::{ScanCalibration, ScanRouter, SCAN_BETA};
pub use stats::MvpTreeStats;
pub use tree::MvpTree;
pub use treeref::MvpTreeRef;
pub use validate::validate_arena;
