//! One entry point for every query form.
//!
//! The paper's §2 names the near-neighbor query (by range, or the `k`
//! closest) and says the far variants — objects farther than a range,
//! the `k` farthest — are *"similar to the near neighbor query"*. A
//! [`Query`] names one of the four with its parameter, and a [`Search`]
//! answers any of them through one method, reporting the search into a
//! [`TraceSink`]: [`NoTrace`](crate::NoTrace) for the plain answer, a
//! [`DistanceTally`](crate::DistanceTally) for its cost, a
//! [`QueryProfile`](crate::QueryProfile) for its pruning profile.
//!
//! [`MetricIndex`](crate::MetricIndex) and
//! [`FarthestIndex`](crate::FarthestIndex) stay the object-safe,
//! untraced face of the same searches.

use crate::query::Neighbor;
use crate::trace::TraceSink;

/// A query form with its parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Every object within this distance, the boundary included (the
    /// paper's `d(Xi, Y) ≤ r`).
    Range(f64),
    /// The `k` nearest objects, by ascending distance (ties by id).
    Knn(usize),
    /// Every object at least this far, the boundary included.
    Beyond(f64),
    /// The `k` farthest objects, by descending distance (ties by id).
    Kfn(usize),
}

/// An index that answers every [`Query`] form through one method.
///
/// The answer is the one [`MetricIndex`](crate::MetricIndex) /
/// [`FarthestIndex`](crate::FarthestIndex) give for the same form:
/// `Range`/`Beyond` hits in the structure's own order, `Knn`/`Kfn`
/// sorted. Every distance the search computes, and every early abandon,
/// is reported to `sink`, so any sink can count the search's full cost;
/// with [`NoTrace`](crate::NoTrace) the reports compile away. A `k = 0`
/// query computes nothing.
pub trait Search<T: ?Sized> {
    /// Answers `query` about `item`, reporting the search into `sink`.
    fn search<S: TraceSink>(&self, item: &T, query: Query, sink: &mut S) -> Vec<Neighbor>;
}
