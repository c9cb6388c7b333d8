//! # vantage-vptree
//!
//! The **vantage-point tree** (vp-tree) of Uhlmann \[Uhl91\] and Yiannilos
//! \[Yia93\] — the baseline structure the mvp-tree paper (Bozkaya &
//! Özsoyoğlu, SIGMOD 1997, §3.3) compares against.
//!
//! At every node a *vantage point* is chosen among the data points indexed
//! below that node; the remaining points are sorted by their distance to
//! the vantage point and split into `m` groups of equal cardinality
//! ("spherical cuts"). The `m − 1` boundary distances are recorded as
//! *cutoff values*. A range query with radius `r` computes `d(q, vantage)`
//! at each visited node and descends only into children whose spherical
//! shell can intersect the query ball — correctness follows from the
//! triangle inequality (the paper's Appendix).
//!
//! Faithfulness notes (deliberate, to serve as the paper's baseline):
//!
//! * the vp-tree does **not** retain construction-time distances for leaf
//!   filtering — that is precisely the mvp-tree's innovation;
//! * the default leaf capacity is 1 (the paper's vp-trees store single
//!   data-point references in leaves);
//! * `vpt(2)` / `vpt(3)` from the paper's figures are
//!   [`VpTreeParams::order`] 2 and 3.
//!
//! ```
//! use vantage_core::prelude::*;
//! use vantage_vptree::{VpTree, VpTreeParams};
//!
//! let points: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
//! let tree = VpTree::build(points, Euclidean, VpTreeParams::binary()).unwrap();
//! let hits = tree.range(&vec![50.0], 1.5);
//! assert_eq!(hits.len(), 3); // 49, 50, 51
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod budget;
mod build;
mod farthest;
mod kernel;
mod search;
mod shard;
mod stats;
mod tree;
mod treeref;
mod validate;

pub mod arena;
pub mod params;

pub use arena::{VpArena, VpArenaView, VpNodeView, NO_CHILD};
pub use params::VpTreeParams;
pub use stats::VpTreeStats;
pub use tree::VpTree;
pub use treeref::VpTreeRef;
pub use validate::validate_arena;
pub use vantage_core::select::VantageSelector;
