//! Pairwise distance-distribution statistics.
//!
//! The paper characterizes every dataset by the histogram of all pairwise
//! distances (Figures 4–7) because *"the distance distribution of data
//! points plays an important role in the efficiency of the index
//! structures"* (§1). [`DistanceHistogram`] reproduces those figures:
//! fixed-width bins (the paper samples at intervals of 0.01 for vectors
//! and 1 for normalized image distances) plus summary statistics.

use std::thread;

use crate::metric::Metric;
use crate::{Result, VantageError};

/// A fixed-bin-width histogram of distances with running summary
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceHistogram {
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl DistanceHistogram {
    /// Creates an empty histogram with the given bin width.
    ///
    /// # Errors
    ///
    /// Returns an error when `bin_width` is not finite and positive.
    pub fn new(bin_width: f64) -> Result<Self> {
        if !bin_width.is_finite() || bin_width <= 0.0 {
            return Err(VantageError::invalid_parameter(
                "bin_width",
                format!("bin width must be finite and positive, got {bin_width}"),
            ));
        }
        Ok(DistanceHistogram {
            bin_width,
            counts: Vec::new(),
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        })
    }

    /// Records one distance observation.
    pub fn record(&mut self, distance: f64) {
        debug_assert!(distance.is_finite() && distance >= 0.0);
        let bin = (distance / self.bin_width) as usize;
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.total += 1;
        self.min = self.min.min(distance);
        self.max = self.max.max(distance);
        self.sum += distance;
    }

    /// Merges another histogram (same bin width) into this one.
    ///
    /// # Panics
    ///
    /// Panics when the bin widths differ.
    pub fn merge(&mut self, other: &DistanceHistogram) {
        assert_eq!(
            self.bin_width, other.bin_width,
            "cannot merge histograms with different bin widths"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Computes the histogram of **all pairwise distances** among `items`
    /// (each unordered pair once), the quantity plotted in paper Figures
    /// 4–7.
    ///
    /// Work is spread over `threads` OS threads (row-striped so the
    /// triangular pair space load-balances); pass 1 for a sequential run.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid `bin_width` or `threads == 0`.
    pub fn pairwise<T, M>(items: &[T], metric: &M, bin_width: f64, threads: usize) -> Result<Self>
    where
        T: Sync,
        M: Metric<T> + Sync,
    {
        if threads == 0 {
            return Err(VantageError::invalid_parameter(
                "threads",
                "thread count must be at least 1",
            ));
        }
        let mut result = DistanceHistogram::new(bin_width)?;
        if items.len() < 2 {
            return Ok(result);
        }
        if threads == 1 {
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    result.record(metric.distance(&items[i], &items[j]));
                }
            }
            return Ok(result);
        }
        let partials = thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let handle = scope.spawn(move || {
                    let mut local =
                        DistanceHistogram::new(bin_width).expect("bin width validated above");
                    let mut i = t;
                    while i < items.len() {
                        for j in (i + 1)..items.len() {
                            local.record(metric.distance(&items[i], &items[j]));
                        }
                        i += threads;
                    }
                    local
                });
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("histogram worker panicked"))
                .collect::<Vec<_>>()
        });
        for partial in &partials {
            result.merge(partial);
        }
        Ok(result)
    }

    /// The bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Per-bin counts; bin `i` covers `[i·w, (i+1)·w)`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The inclusive lower edge of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        i as f64 * self.bin_width
    }

    /// Total number of recorded distances.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded distance (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded distance (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean recorded distance (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.total as f64
    }

    /// The lower edge of the fullest bin (`None` when empty) — the mode of
    /// the distribution at bin resolution.
    pub fn mode_bin(&self) -> Option<f64> {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| self.bin_start(i))
    }

    /// Iterates `(bin_lower_edge, count)` for every non-empty trailing-
    /// trimmed bin, the rows the figure reproductions print.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_start(i), c))
    }

    /// The approximate `q`-quantile of the recorded distances (upper edge
    /// of the bin where the cumulative count crosses `q·total`), or
    /// `None` when the histogram is empty or `q` is outside `[0, 1]`.
    ///
    /// This is how the paper turns Figures 6–7 into experiment inputs:
    /// *"This distribution also gives us an idea about choosing
    /// meaningful tolerance factors for similarity queries"* — e.g. the
    /// 1–5 % quantile of pairwise distances is a sensible range-query
    /// radius.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Some(self.bin_start(i) + self.bin_width);
            }
        }
        Some(self.bin_start(self.counts.len()))
    }

    /// Downsamples the histogram into `buckets` equal-width groups over
    /// `[0, max)` for compact terminal rendering. Returns
    /// `(bucket_lower_edge, count)` pairs.
    pub fn downsample(&self, buckets: usize) -> Vec<(f64, u64)> {
        if buckets == 0 || self.counts.is_empty() {
            return Vec::new();
        }
        let per = self.counts.len().div_ceil(buckets);
        self.counts
            .chunks(per)
            .enumerate()
            .map(|(i, chunk)| ((i * per) as f64 * self.bin_width, chunk.iter().sum::<u64>()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::minkowski::Euclidean;

    #[test]
    fn record_places_into_bins() {
        let mut h = DistanceHistogram::new(0.5).unwrap();
        h.record(0.0);
        h.record(0.49);
        h.record(0.5);
        h.record(1.7);
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1.7);
        assert!((h.mean() - (0.0 + 0.49 + 0.5 + 1.7) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_bin_width_rejected() {
        assert!(DistanceHistogram::new(0.0).is_err());
        assert!(DistanceHistogram::new(-1.0).is_err());
        assert!(DistanceHistogram::new(f64::NAN).is_err());
    }

    #[test]
    fn pairwise_counts_all_unordered_pairs() {
        let items: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let h = DistanceHistogram::pairwise(&items, &Euclidean, 1.0, 1).unwrap();
        assert_eq!(h.total(), 45); // C(10, 2)
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i) * 0.37, f64::from(i % 7)])
            .collect();
        let seq = DistanceHistogram::pairwise(&items, &Euclidean, 0.25, 1).unwrap();
        let par = DistanceHistogram::pairwise(&items, &Euclidean, 0.25, 4).unwrap();
        assert_eq!(seq.counts(), par.counts());
        assert_eq!(seq.total(), par.total());
        assert_eq!(seq.min(), par.min());
        assert_eq!(seq.max(), par.max());
        // Summation order differs between thread counts; the mean agrees
        // up to float round-off.
        assert!((seq.mean() - par.mean()).abs() < 1e-9);
    }

    #[test]
    fn pairwise_with_fewer_than_two_items_is_empty() {
        let items: Vec<Vec<f64>> = vec![vec![1.0]];
        let h = DistanceHistogram::pairwise(&items, &Euclidean, 1.0, 2).unwrap();
        assert_eq!(h.total(), 0);
        assert!(h.mode_bin().is_none());
    }

    #[test]
    fn zero_threads_rejected() {
        let items: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0]];
        assert!(DistanceHistogram::pairwise(&items, &Euclidean, 1.0, 0).is_err());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DistanceHistogram::new(1.0).unwrap();
        a.record(0.5);
        let mut b = DistanceHistogram::new(1.0).unwrap();
        b.record(2.5);
        b.record(0.1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts(), &[2, 0, 1]);
        assert_eq!(a.max(), 2.5);
    }

    #[test]
    #[should_panic(expected = "different bin widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = DistanceHistogram::new(1.0).unwrap();
        let b = DistanceHistogram::new(0.5).unwrap();
        a.merge(&b);
    }

    #[test]
    fn mode_bin_finds_peak() {
        let mut h = DistanceHistogram::new(1.0).unwrap();
        for _ in 0..5 {
            h.record(3.3);
        }
        h.record(0.2);
        assert_eq!(h.mode_bin(), Some(3.0));
    }

    #[test]
    fn downsample_groups_bins() {
        let mut h = DistanceHistogram::new(1.0).unwrap();
        for d in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5] {
            h.record(d);
        }
        let rows = h.downsample(3);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 6);
        assert_eq!(rows[0], (0.0, 2));
    }

    #[test]
    fn downsample_zero_buckets_is_empty() {
        let h = DistanceHistogram::new(1.0).unwrap();
        assert!(h.downsample(0).is_empty());
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = DistanceHistogram::new(1.0).unwrap();
        for d in 0..100 {
            h.record(f64::from(d) + 0.5); // one observation per unit bin
        }
        assert_eq!(h.quantile(0.01), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // Monotone in q.
        assert!(h.quantile(0.25).unwrap() <= h.quantile(0.75).unwrap());
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = DistanceHistogram::new(1.0).unwrap();
        assert_eq!(empty.quantile(0.5), None);
        let mut h = DistanceHistogram::new(1.0).unwrap();
        h.record(3.0);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(0.0), Some(4.0)); // ceil(0*1).max(1) = first bin
        assert_eq!(h.quantile(1.0), Some(4.0));
    }
}
