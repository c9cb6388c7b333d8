//! Distance-computation counting.
//!
//! The paper's cost measure (§5): *"Since the distance computations are
//! very costly for high-dimensional metric spaces, we use the number of
//! distance computations as the cost measure."* [`Counted`] wraps any
//! metric and counts every evaluation, letting the experiment harness
//! reproduce the paper's y-axes exactly. [`DistanceTally`] charges the
//! same cost to one search (or one construction) at a time, through the
//! search's [`TraceSink`] instead of the metric — the form every index
//! and the CLI count in; `Counted` remains the adapter for experiments
//! and tests that need a count no search hands back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metric::{BoundedMetric, DiscreteMetric, Metric};
use crate::trace::{DistanceRole, TraceSink};

/// Fixed-point scale for accumulating work fractions in an atomic
/// integer (there are no atomic f64 adds): one full distance evaluation
/// is `WORK_SCALE` units.
const WORK_SCALE: f64 = 1_000_000.0;

/// One abandoned evaluation's work fraction in fixed-point units. Both
/// [`Counted`] and [`DistanceTally`] accumulate through this, so their
/// `abandoned_work` readings agree to the bit.
#[inline]
fn work_units(work: f64) -> u64 {
    (work.clamp(0.0, 1.0) * WORK_SCALE) as u64
}

/// Accumulated fixed-point work units in full-evaluation units.
fn units_to_work(units: u64) -> f64 {
    units as f64 / WORK_SCALE
}

/// A consistent reading of every [`Counted`] tally at one moment.
///
/// Readings are monotonic (absent a [`reset`](Counted::reset)), so two
/// readings bracket an operation and their difference is that operation's
/// cost — this is how the telemetry layer attributes distances to
/// individual queries without resetting a shared counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistanceTotals {
    /// Total distance evaluations ([`Counted::count`]).
    pub computations: u64,
    /// Evaluations abandoned early ([`Counted::abandoned`]).
    pub abandoned: u64,
    /// Estimated work done by abandoned evaluations, in full-evaluation
    /// units ([`Counted::abandoned_work`]).
    pub abandoned_work: f64,
}

impl DistanceTotals {
    /// The change from `earlier` to `self`, saturating at zero if a
    /// concurrent reset moved the counters backwards.
    pub fn since(&self, earlier: &DistanceTotals) -> DistanceTotals {
        DistanceTotals {
            computations: self.computations.saturating_sub(earlier.computations),
            abandoned: self.abandoned.saturating_sub(earlier.abandoned),
            abandoned_work: (self.abandoned_work - earlier.abandoned_work).max(0.0),
        }
    }
}

/// A metric wrapper that counts how many times `distance` is invoked.
///
/// The counter is shared through an [`Arc`], so cloning a `Counted` yields
/// a handle onto the *same* counter: hand one clone to an index at
/// construction time and keep another to read the tally. Counting uses
/// relaxed atomics; the overhead is a few nanoseconds per call, negligible
/// next to the high-dimensional distances being counted.
///
/// ```
/// use vantage_core::prelude::*;
///
/// let metric = Counted::new(Euclidean);
/// let probe = metric.clone();
/// let scan = LinearScan::new(vec![vec![0.0], vec![1.0]], metric);
/// scan.range(&vec![0.5], 10.0);
/// assert_eq!(probe.count(), 2); // one distance per data object
/// ```
#[derive(Debug)]
pub struct Counted<M> {
    inner: M,
    counter: Arc<AtomicU64>,
    abandoned: Arc<AtomicU64>,
    abandoned_work: Arc<AtomicU64>,
}

impl<M> Counted<M> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: M) -> Self {
        Counted {
            inner,
            counter: Arc::new(AtomicU64::new(0)),
            abandoned: Arc::new(AtomicU64::new(0)),
            abandoned_work: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of distance evaluations since construction or the last
    /// [`reset`](Counted::reset).
    ///
    /// Matching the paper's cost model, an early-abandoned bounded
    /// evaluation still counts as **one** evaluation; the separate
    /// [`abandoned`](Counted::abandoned) tally says how many of the
    /// counted evaluations were cut short.
    pub fn count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Number of counted evaluations that were abandoned early by
    /// [`BoundedMetric::distance_within`] — the bound was provably
    /// exceeded before the computation finished.
    pub fn abandoned(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Estimated arithmetic actually performed by the *abandoned*
    /// evaluations, in units of one full distance computation (e.g. `0.25`
    /// means the abandoned calls together did a quarter of one full
    /// evaluation's work). Completed evaluations contribute nothing here;
    /// the total work estimate is `count() - abandoned() + abandoned_work()`.
    pub fn abandoned_work(&self) -> f64 {
        units_to_work(self.abandoned_work.load(Ordering::Relaxed))
    }

    /// Reads every tally in one step.
    ///
    /// The three loads are individually relaxed, so under concurrent
    /// traffic the reading is a consistent *cut* rather than an instant;
    /// once writers quiesce it is exact.
    pub fn totals(&self) -> DistanceTotals {
        DistanceTotals {
            computations: self.count(),
            abandoned: self.abandoned(),
            abandoned_work: self.abandoned_work(),
        }
    }

    /// Resets all counters to zero (affects all clones).
    pub fn reset(&self) {
        self.counter.store(0, Ordering::Relaxed);
        self.abandoned.store(0, Ordering::Relaxed);
        self.abandoned_work.store(0, Ordering::Relaxed);
    }

    /// Returns the evaluation count and resets all counters in one step.
    pub fn take(&self) -> u64 {
        self.abandoned.store(0, Ordering::Relaxed);
        self.abandoned_work.store(0, Ordering::Relaxed);
        self.counter.swap(0, Ordering::Relaxed)
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    #[inline]
    fn record_abandon(&self, work: f64) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
        self.abandoned_work
            .fetch_add(work_units(work), Ordering::Relaxed);
    }
}

impl<M: Clone> Clone for Counted<M> {
    fn clone(&self) -> Self {
        Counted {
            inner: self.inner.clone(),
            counter: Arc::clone(&self.counter),
            abandoned: Arc::clone(&self.abandoned),
            abandoned_work: Arc::clone(&self.abandoned_work),
        }
    }
}

impl<T: ?Sized, M: Metric<T>> Metric<T> for Counted<M> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }
}

impl<T: ?Sized, M: DiscreteMetric<T>> DiscreteMetric<T> for Counted<M> {
    fn distance_u(&self, a: &T, b: &T) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.inner.distance_u(a, b)
    }
}

impl<T: ?Sized, M: BoundedMetric<T>> BoundedMetric<T> for Counted<M> {
    fn distance_within(&self, a: &T, b: &T, bound: f64) -> Option<f64> {
        self.distance_within_frac(a, b, bound).0
    }

    fn distance_within_frac(&self, a: &T, b: &T, bound: f64) -> (Option<f64>, f64) {
        // The paper's cost model charges one computation whether or not
        // the evaluation runs to completion.
        self.counter.fetch_add(1, Ordering::Relaxed);
        let (d, frac) = self.inner.distance_within_frac(a, b, bound);
        if d.is_none() {
            self.record_abandon(frac);
        }
        (d, frac)
    }
}

/// One search's distance cost, counted through its [`TraceSink`] in
/// plain fields that only the searching thread touches.
///
/// A [`Counted`] metric charges every evaluation to atomics shared by
/// all its clones, so concurrent queries contend on one cache line and
/// a before/after reading absorbs whatever ran alongside. A tally is a
/// per-query value instead: hand a fresh one to a search (or one
/// per shard, then [`sum`](Iterator::sum) them) and it reads exactly
/// that search's cost. Searches report every evaluation to their sink,
/// so the totals are bit-equal to the [`Counted`] delta of the same
/// search, abandoned work included.
///
/// ```
/// use vantage_core::prelude::*;
///
/// let scan = LinearScan::new(vec![vec![0.0], vec![1.0]], Euclidean);
/// let mut tally = DistanceTally::new();
/// scan.search(&vec![0.5], Query::Range(10.0), &mut tally);
/// assert_eq!(tally.totals().computations, 2); // one per data object
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceTally {
    computations: u64,
    abandoned: u64,
    /// Fixed-point, as in [`Counted`].
    abandoned_work: u64,
}

impl DistanceTally {
    /// An empty tally.
    pub fn new() -> Self {
        DistanceTally::default()
    }

    /// Everything counted so far.
    pub fn totals(&self) -> DistanceTotals {
        DistanceTotals {
            computations: self.computations,
            abandoned: self.abandoned,
            abandoned_work: units_to_work(self.abandoned_work),
        }
    }

    /// Charges `n` completed evaluations at once, for code that counts
    /// the distances it computes itself rather than reporting them one
    /// by one — a construction sweep charges its whole working set.
    #[inline]
    pub fn add_computations(&mut self, n: u64) {
        self.computations += n;
    }
}

impl std::ops::AddAssign for DistanceTally {
    fn add_assign(&mut self, other: DistanceTally) {
        self.computations += other.computations;
        self.abandoned += other.abandoned;
        self.abandoned_work += other.abandoned_work;
    }
}

impl std::iter::Sum for DistanceTally {
    fn sum<I: Iterator<Item = DistanceTally>>(iter: I) -> Self {
        iter.fold(DistanceTally::new(), |mut acc, t| {
            acc += t;
            acc
        })
    }
}

impl TraceSink for DistanceTally {
    /// Counting needs none of the trace-only attribution.
    const ENABLED: bool = false;

    #[inline]
    fn distance(&mut self, _role: DistanceRole) {
        self.computations += 1;
    }

    #[inline]
    fn abandon(&mut self, _role: DistanceRole, work: f64) {
        self.abandoned += 1;
        self.abandoned_work += work_units(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::edit::Levenshtein;
    use crate::metrics::minkowski::Euclidean;

    #[test]
    fn counts_each_evaluation() {
        let m = Counted::new(Euclidean);
        let a = vec![0.0];
        let b = vec![1.0];
        assert_eq!(m.count(), 0);
        m.distance(&a, &b);
        m.distance(&a, &b);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn clones_share_the_counter() {
        let m = Counted::new(Euclidean);
        let probe = m.clone();
        m.distance(&vec![0.0], &vec![1.0]);
        assert_eq!(probe.count(), 1);
        probe.reset();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn take_reads_and_resets() {
        let m = Counted::new(Euclidean);
        m.distance(&vec![0.0], &vec![2.0]);
        assert_eq!(m.take(), 1);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn discrete_counting_counts_too() {
        let m = Counted::new(Levenshtein);
        let d = m.distance_u(&"kitten".to_string(), &"sitting".to_string());
        assert_eq!(d, 3);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn preserves_wrapped_distance() {
        let m = Counted::new(Euclidean);
        assert_eq!(m.distance(&vec![0.0, 0.0], &vec![3.0, 4.0]), 5.0);
    }

    #[test]
    fn bounded_evaluation_counts_once() {
        let m = Counted::new(Euclidean);
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(m.distance_within(&a, &b, 10.0), Some(5.0));
        assert_eq!(m.count(), 1);
        assert_eq!(m.abandoned(), 0);
        assert_eq!(m.abandoned_work(), 0.0);
    }

    #[test]
    fn abandoned_evaluation_is_counted_and_tallied() {
        let m = Counted::new(Euclidean);
        // Far pair in high dimension: the kernel abandons within the
        // first few chunks, so the fractional work is small but the
        // evaluation still costs one distance computation.
        let a = vec![0.0; 1024];
        let b = vec![10.0; 1024];
        assert_eq!(m.distance_within(&a, &b, 1.0), None);
        assert_eq!(m.count(), 1);
        assert_eq!(m.abandoned(), 1);
        let work = m.abandoned_work();
        assert!(work > 0.0 && work < 0.5, "work fraction {work}");
    }

    #[test]
    fn totals_reads_all_tallies_and_since_gives_deltas() {
        let m = Counted::new(Euclidean);
        let a = vec![0.0; 64];
        let b = vec![10.0; 64];
        m.distance(&a, &b);
        let before = m.totals();
        assert_eq!(before.computations, 1);
        assert_eq!(before.abandoned, 0);
        m.distance_within(&a, &b, 1.0);
        let delta = m.totals().since(&before);
        assert_eq!(delta.computations, 1);
        assert_eq!(delta.abandoned, 1);
        assert!(delta.abandoned_work > 0.0);
        // A reset between readings saturates to zero instead of wrapping.
        m.reset();
        assert_eq!(m.totals().since(&before), DistanceTotals::default());
    }

    #[test]
    fn clones_share_abandon_tallies_and_reset_clears_them() {
        let m = Counted::new(Euclidean);
        let probe = m.clone();
        let a = vec![0.0; 64];
        let b = vec![10.0; 64];
        m.distance_within(&a, &b, 1.0);
        assert_eq!(probe.abandoned(), 1);
        assert!(probe.abandoned_work() > 0.0);
        probe.reset();
        assert_eq!(m.abandoned(), 0);
        assert_eq!(m.abandoned_work(), 0.0);
        m.distance_within(&a, &b, 1.0);
        assert_eq!(m.take(), 1);
        assert_eq!(m.abandoned(), 0);
        assert_eq!(m.abandoned_work(), 0.0);
    }

    #[test]
    fn tally_counts_like_counted_and_sums_exactly() {
        let m = Counted::new(Euclidean);
        let mut tallies = [DistanceTally::new(), DistanceTally::new()];
        for (i, work) in [0.1, 0.3, 1.5, -2.0, 0.7].into_iter().enumerate() {
            let tally = &mut tallies[i % 2];
            tally.distance(DistanceRole::Candidate);
            tally.abandon(DistanceRole::Candidate, work);
            m.record_abandon(work);
        }
        tallies[0].distance(DistanceRole::Vantage);
        let sum: DistanceTally = tallies.into_iter().sum();
        let totals = sum.totals();
        assert_eq!(totals.computations, 6);
        assert_eq!(totals.abandoned, m.abandoned());
        assert_eq!(
            totals.abandoned_work.to_bits(),
            m.abandoned_work().to_bits()
        );
        assert_eq!(DistanceTally::new().totals(), DistanceTotals::default());
    }
}
