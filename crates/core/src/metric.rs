//! The [`Metric`] and [`DiscreteMetric`] traits.
//!
//! A metric distance function `d(x, y)` must satisfy (paper §2):
//!
//! 1. symmetry: `d(x, y) = d(y, x)`;
//! 2. non-negativity: `0 < d(x, y) < ∞` for `x ≠ y`;
//! 3. identity: `d(x, x) = 0`;
//! 4. the triangle inequality: `d(x, y) ≤ d(x, z) + d(z, y)`.
//!
//! Every index structure in the workspace relies on *only* these axioms —
//! never on coordinates or geometry — so anything implementing [`Metric`]
//! can be indexed, including non-spatial domains such as strings under edit
//! distance.

/// A metric distance function over values of type `T`.
///
/// Implementations must uphold the four metric axioms listed in the module
/// documentation; the index structures prune subtrees with the triangle
/// inequality, so a non-metric "distance" silently produces wrong (missed)
/// query results. The property-test suite checks the axioms for every
/// metric shipped in this workspace.
///
/// Metrics are passed by reference and may be stateful (see
/// [`Counted`](crate::counting::Counted)), but `distance` must be pure with
/// respect to its arguments: the same pair always yields the same value.
pub trait Metric<T: ?Sized> {
    /// Computes the distance between `a` and `b`.
    ///
    /// The returned value must be finite and non-negative for all inputs
    /// the embedding application can produce.
    fn distance(&self, a: &T, b: &T) -> f64;
}

/// A metric whose distances are always non-negative integers.
///
/// Burkhard–Keller trees (\[BK73\], reviewed in paper §3.2) bucket children
/// by exact integer distance and therefore require a discrete metric.
/// Implementors must keep [`Metric::distance`] consistent:
/// `self.distance(a, b) == self.distance_u(a, b) as f64`.
pub trait DiscreteMetric<T: ?Sized>: Metric<T> {
    /// Computes the distance between `a` and `b` as an integer.
    fn distance_u(&self, a: &T, b: &T) -> u64;
}

/// A metric that can abandon a distance computation early once the result
/// provably exceeds a caller-supplied bound.
///
/// Search algorithms verify leaf candidates against a *known* bound — the
/// range-query radius, or the current k-th best distance of a kNN heap.
/// When the true distance exceeds that bound the exact value is never
/// used; only the fact `d > bound` matters. Metrics built from a monotone
/// running accumulation (every `L_p` norm, Hamming mismatch counts, the
/// banded Levenshtein recurrence, …) can therefore stop mid-computation
/// as soon as a partial lower bound crosses `bound`, doing a fraction of
/// the arithmetic (the UCR-suite "early abandoning" technique).
///
/// # Contract
///
/// For every `a`, `b` and every `bound`:
///
/// * if `self.distance(a, b) <= bound`, then `distance_within` returns
///   `Some(d)` where `d` is **bit-identical** to `self.distance(a, b)`;
/// * otherwise it returns `None`.
///
/// In other words `distance_within(a, b, bound)` is observationally
/// equivalent to `Some(distance(a, b)).filter(|d| *d <= bound)` — early
/// abandonment is purely an optimization and must never change a search
/// result. The workspace's `bounded_kernels` property tests pin this
/// contract for every shipped metric.
///
/// The default implementations compute the full distance and threshold
/// it, so `impl BoundedMetric<T> for MyMetric {}` is always correct;
/// override the methods only with a genuinely abandoning kernel.
pub trait BoundedMetric<T: ?Sized>: Metric<T> {
    /// Computes `d(a, b)` if it is at most `bound`; returns `None` as
    /// soon as a running lower bound proves `d(a, b) > bound`.
    #[inline]
    fn distance_within(&self, a: &T, b: &T, bound: f64) -> Option<f64> {
        let d = self.distance(a, b);
        (d <= bound).then_some(d)
    }

    /// [`distance_within`](BoundedMetric::distance_within), additionally
    /// reporting the fraction of the full computation's arithmetic that
    /// was performed (`1.0` when the computation ran to completion,
    /// `processed / total` when it abandoned part-way).
    ///
    /// The fraction feeds [`Counted`](crate::Counted) and
    /// [`TraceSink::abandon`](crate::trace::TraceSink::abandon) so
    /// wall-clock savings are observable per query; it is an estimate and
    /// carries no correctness contract beyond lying in `[0.0, 1.0]`.
    #[inline]
    fn distance_within_frac(&self, a: &T, b: &T, bound: f64) -> (Option<f64>, f64) {
        (self.distance_within(a, b, bound), 1.0)
    }

    /// The full distances from `a` to each of `bs`, computed together,
    /// or `None` when the metric cannot promise what leaf loops rely on
    /// to use them.
    ///
    /// `Some(ds)` is a promise, for every `j` and every `bound`, that
    /// `distance_within_frac(a, bs[j], bound)` equals
    /// `(Some(ds[j]), 1.0)` when `ds[j] <= bound` and `(None, 1.0)`
    /// otherwise, with `ds[j]` bit-identical to `distance(a, bs[j])`: the
    /// bounded kernel would never abandon part-way. A search may then
    /// compute four candidates' distances ahead of time and test each
    /// against the radius at that candidate's own turn, which is the
    /// same call.
    ///
    /// The default is `None`, which is always correct. Wrappers that
    /// count evaluations (like [`Counted`](crate::Counted)) must keep it:
    /// a loop discards the values of candidates whose lower bound fails
    /// at their turn, and those were never computations of the
    /// single-pair loop.
    #[inline]
    fn distance_x4(&self, a: &T, bs: [&T; 4]) -> Option<[f64; 4]> {
        let _ = (a, bs);
        None
    }
}

impl<T: ?Sized, M: Metric<T> + ?Sized> Metric<T> for &M {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (**self).distance(a, b)
    }
}

impl<T: ?Sized, M: DiscreteMetric<T> + ?Sized> DiscreteMetric<T> for &M {
    fn distance_u(&self, a: &T, b: &T) -> u64 {
        (**self).distance_u(a, b)
    }
}

impl<T: ?Sized, M: BoundedMetric<T> + ?Sized> BoundedMetric<T> for &M {
    #[inline]
    fn distance_within(&self, a: &T, b: &T, bound: f64) -> Option<f64> {
        (**self).distance_within(a, b, bound)
    }

    #[inline]
    fn distance_within_frac(&self, a: &T, b: &T, bound: f64) -> (Option<f64>, f64) {
        (**self).distance_within_frac(a, b, bound)
    }

    #[inline]
    fn distance_x4(&self, a: &T, bs: [&T; 4]) -> Option<[f64; 4]> {
        (**self).distance_x4(a, bs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    #[test]
    fn metric_impl_for_reference_delegates() {
        let m = Euclidean;
        let r = &m;
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(r.distance(&a, &b), 5.0);
        assert_eq!(Metric::distance(&&r, &a, &b), 5.0);
    }

    #[test]
    fn bounded_impl_for_reference_delegates() {
        let m = Euclidean;
        let r = &m;
        let a = vec![0.0, 0.0];
        let b = vec![3.0, 4.0];
        assert_eq!(r.distance_within(&a, &b, 5.0), Some(5.0));
        assert_eq!(r.distance_within(&a, &b, 4.9), None);
        let (d, frac) = BoundedMetric::distance_within_frac(&&r, &a, &b, 10.0);
        assert_eq!(d, Some(5.0));
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn bounded_default_thresholds_full_distance() {
        // A metric that only opts in to the trait exercises the default
        // full-compute-then-threshold bodies.
        struct Plain;
        impl Metric<f64> for Plain {
            fn distance(&self, a: &f64, b: &f64) -> f64 {
                (a - b).abs()
            }
        }
        impl BoundedMetric<f64> for Plain {}
        assert_eq!(Plain.distance_within(&1.0, &4.0, 3.0), Some(3.0));
        assert_eq!(Plain.distance_within(&1.0, &4.0, 2.9), None);
        assert_eq!(Plain.distance_within_frac(&1.0, &4.0, 2.9), (None, 1.0));
        assert_eq!(
            Plain.distance_within_frac(&1.0, &4.0, 3.0),
            (Some(3.0), 1.0)
        );
    }
}
