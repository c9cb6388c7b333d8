//! Scan routing: answer a kNN query with a scan of the tree's own
//! row-ordered item store when the tree cannot prune at that `k`.
//!
//! Where distances concentrate (paper Fig 8, uniform vectors), a metric
//! tree computes nearly every distance anyway (Pestov's lower bounds),
//! and pays for its descent, filters and scattered rows on top. A scan
//! of the same rows ([`MvpTreeRef::knn_scan`]) then answers the
//! same neighbors faster. Which search is cheaper is a property of the
//! tree and of `k`, so it is measured on the tree itself: a
//! [`ScanRouter`] calibrates each power-of-two `k` bucket once, on the
//! bucket's first query, with [`PROBES`] kNN searches from items of the
//! tree, and routes the bucket to the scan iff the probes' share of
//! distances computed is at least [`SCAN_BETA`]. Decisions are exact,
//! deterministic functions of the tree and the bucket; a new tree (a new
//! served generation) gets a new router and recalibrates.

use std::sync::OnceLock;

use vantage_core::{BoundedMetric, DistanceTally, ItemStore, Query, Search};

use crate::treeref::MvpTreeRef;

/// The routing threshold β: the ratio of a row-store scan's cost per
/// item to the tree's cost per computed distance. A tree computing a
/// share `ρ` of the `n` distances costs about `ρ·n` tree distances, a
/// scan `β·n`, so a bucket routes to the scan iff `ρ ≥ β`.
///
/// Measured on the `uniform-knn` benchmark data (50 000 uniform 20-d
/// vectors, `KNN 10`, 2-vCPU Xeon, AVX2), where the tree is cheapest
/// per distance: a scan of its row store cost 0.47–0.62 of the tree's
/// time per computed distance in six single-threaded rounds, 0.49 in
/// `vbench trace --seed 1`. Where the tree prunes, each of its
/// distances costs more (the ratio was 0.28 on the clustered data), so
/// there the scan breaks even at a lower share and this β errs toward
/// the tree. The measurements are in DESIGN.md, "Scan routing".
pub const SCAN_BETA: f64 = 0.5;

/// Probe searches per calibrated `k` bucket.
pub const PROBES: usize = 16;

/// Number of `k` buckets: one per bit of `usize`.
const BUCKETS: usize = usize::BITS as usize;

/// The power-of-two bucket of `k`: bucket `b` holds `k` in
/// `[2^b, 2^(b+1))`, and bucket 0 also holds `k = 0`.
pub fn k_bucket(k: usize) -> usize {
    k.max(1).ilog2() as usize
}

/// One calibrated bucket: what its probes measured and the decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanCalibration {
    /// The bucket ([`k_bucket`]); its smallest `k` is `2^bucket`.
    pub bucket: usize,
    /// Distances the [`PROBES`] probe searches computed, together.
    pub probe_distances: u64,
    /// Items in the tree, which is what one scan computes.
    pub items: usize,
}

impl ScanCalibration {
    /// Calibrates `bucket` on `tree`: the items at rows `i·n/16` for
    /// `i` in `0..16` each search the tree for their `2^bucket + 1`
    /// nearest neighbors (one of which is the probe item itself, so the
    /// other `2^bucket` stand in for a query from outside the tree),
    /// counted in one [`DistanceTally`].
    fn probe<S, M>(tree: &MvpTreeRef<'_, S, M>, bucket: usize) -> ScanCalibration
    where
        S: ItemStore,
        M: BoundedMetric<S::Item>,
    {
        let n = tree.len();
        let k = (1usize << bucket).saturating_add(1);
        let mut tally = DistanceTally::new();
        if n > 0 {
            for i in 0..PROBES {
                let row = (i * n / PROBES) as u32;
                tree.search(tree.row(row), Query::Knn(k), &mut tally);
            }
        }
        ScanCalibration {
            bucket,
            probe_distances: tally.totals().computations,
            items: n,
        }
    }

    /// The smallest `k` of the bucket.
    pub fn min_k(&self) -> usize {
        1 << self.bucket
    }

    /// The probes' share of distances computed: probe distances ÷
    /// (16·n), 0 for an empty tree.
    pub fn ratio(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        self.probe_distances as f64 / (PROBES * self.items) as f64
    }

    /// Whether the bucket's kNN queries are answered by a scan: the
    /// probe ratio is at least [`SCAN_BETA`].
    pub fn scan(&self) -> bool {
        self.ratio() >= SCAN_BETA
    }
}

/// One tree's routing decisions, one per `k` bucket, each calibrated on
/// the bucket's first query by [`PROBES`] tree searches. A router
/// belongs to one tree: pair each tree (each served generation) with a
/// router of its own.
#[derive(Debug)]
pub struct ScanRouter {
    buckets: [OnceLock<ScanCalibration>; BUCKETS],
}

impl Default for ScanRouter {
    fn default() -> Self {
        ScanRouter {
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl ScanRouter {
    /// A router with no bucket calibrated yet.
    pub fn new() -> Self {
        ScanRouter::default()
    }

    /// The calibration of `k`'s bucket on `tree`, probing it first if
    /// this is the bucket's first query (concurrent first queries wait
    /// for one calibration).
    pub fn calibrate<S, M>(&self, tree: &MvpTreeRef<'_, S, M>, k: usize) -> ScanCalibration
    where
        S: ItemStore,
        M: BoundedMetric<S::Item>,
    {
        let bucket = k_bucket(k);
        *self.buckets[bucket].get_or_init(|| ScanCalibration::probe(tree, bucket))
    }

    /// The buckets calibrated so far, in bucket order.
    pub fn calibrated(&self) -> impl Iterator<Item = ScanCalibration> + '_ {
        self.buckets.iter().filter_map(|b| b.get().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(k_bucket(0), 0);
        assert_eq!(k_bucket(1), 0);
        assert_eq!(k_bucket(2), 1);
        assert_eq!(k_bucket(3), 1);
        assert_eq!(k_bucket(8), 3);
        assert_eq!(k_bucket(15), 3);
        assert_eq!(k_bucket(usize::MAX), BUCKETS - 1);
    }

    #[test]
    fn an_empty_tree_never_routes() {
        let c = ScanCalibration {
            bucket: 3,
            probe_distances: 0,
            items: 0,
        };
        assert_eq!(c.ratio(), 0.0);
        assert!(!c.scan());
        assert_eq!(c.min_k(), 8);
    }
}
