//! Lock-free log-linear histograms (HDR-style).
//!
//! Serving telemetry needs per-operation latency and distance-count
//! distributions that are cheap to record from many threads at once and
//! bounded in memory regardless of the value range. A fixed-bin-width
//! histogram ([`DistanceHistogram`](vantage_core::DistanceHistogram))
//! cannot do that for nanosecond latencies spanning nine orders of
//! magnitude, so this module uses the classic *log-linear* bucket layout:
//!
//! * values below `2^SUB_BITS` get their own width-1 bucket (exact);
//! * every power-of-two octave `[2^m, 2^(m+1))` above that is split into
//!   `2^SUB_BITS` equal sub-buckets.
//!
//! With [`SUB_BITS`] = 5 the relative quantization error is at most
//! `2^-5` ≈ 3.1 % and the whole `u64` range fits in [`BUCKETS`] = 1 920
//! buckets (15 KiB of counters per histogram).
//!
//! [`AtomicHistogram`] is the live, write-side type: recording is one
//! relaxed `fetch_add` on the bucket plus a handful of relaxed updates to
//! the summary atomics — no locks anywhere, so concurrent recorders never
//! block and a snapshot can be taken while traffic is in flight.
//! [`HistogramSnapshot`] is the frozen read side with merge and
//! percentile support; it is what the exporters serialize.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket resolution: each octave has `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave.
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` value range.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// The bucket index holding `value`.
///
/// Monotone in `value`: larger values never map to smaller buckets.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS + 1) as u64;
    let sub = (value >> (msb - SUB_BITS)) - SUB_COUNT;
    ((octave << SUB_BITS) + sub) as usize
}

/// The inclusive lower edge of bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    let index = index as u64;
    let octave = index >> SUB_BITS;
    let sub = index & (SUB_COUNT - 1);
    if octave == 0 {
        return sub;
    }
    (SUB_COUNT + sub) << (octave - 1)
}

/// The inclusive upper edge of bucket `index` (the largest value that
/// maps into it).
pub fn bucket_upper(index: usize) -> u64 {
    let octave = (index as u64) >> SUB_BITS;
    if octave == 0 {
        return bucket_lower(index);
    }
    let width = 1u64 << (octave - 1);
    bucket_lower(index).saturating_add(width - 1)
}

/// A concurrently-writable log-linear histogram of `u64` values.
///
/// All methods take `&self`; recording uses only relaxed atomics.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        AtomicHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; safe to call from any number
    /// of threads concurrently.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the current state into a [`HistogramSnapshot`].
    ///
    /// Taken concurrently with writers, the snapshot is a consistent
    /// *bucket-wise* view: each counter is read once; a write racing the
    /// snapshot lands wholly in this snapshot or wholly in the next.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: sparse `(bucket index, count)` pairs plus summary
/// statistics. Supports merge and nearest-rank percentiles; serialized by
/// the exporters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded observations (sum of bucket counts).
    pub count: u64,
    /// Sum of all recorded values (wraps only after `u64` overflow —
    /// ~584 years of summed nanoseconds).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sparse non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The nearest-rank `q`-percentile (`0.0 ≤ q ≤ 1.0`), or `None` when
    /// the histogram is empty or `q` is out of range.
    ///
    /// Returns the upper edge of the bucket containing the rank, clamped
    /// to the recorded `max` — so quantization error is bounded by the
    /// bucket's relative width (≤ `2^-SUB_BITS`) and `percentile(1.0)`
    /// is exactly the maximum.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(index, c) in &self.buckets {
            cumulative += c;
            if cumulative >= target {
                return Some(bucket_upper(index as usize).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Accumulates another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        // Walk every bucket edge: each bucket's upper edge + 1 must land
        // in the next bucket.
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i);
            if upper == u64::MAX {
                break;
            }
            let next = bucket_index(upper + 1);
            assert_eq!(next, i + 1, "bucket {i} upper {upper}");
            assert!(next > prev || prev == 0);
            prev = next;
        }
    }

    #[test]
    fn value_maps_within_its_bucket_bounds() {
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            123_456_789,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper(i), "{v} > upper({i})");
            assert!(i < BUCKETS);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 10_000, 1_000_000, 123_456_789_012] {
            let i = bucket_index(v);
            let width = bucket_upper(i) - bucket_lower(i);
            assert!(
                (width as f64) <= (v as f64) / 16.0,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.percentile(0.5).unwrap();
        assert!((480..=520).contains(&p50), "p50 {p50}");
        assert_eq!(s.percentile(1.0), Some(1000));
        assert!(s.percentile(0.0).unwrap() >= 1);
        assert_eq!(s.percentile(1.5), None);
    }

    #[test]
    fn empty_snapshot() {
        let s = AtomicHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn merge_equals_joint_recording() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        let joint = AtomicHistogram::new();
        for v in [1u64, 5, 40, 40, 999, 123_456] {
            a.record(v);
            joint.record(v);
        }
        for v in [2u64, 40, 7_000_000] {
            b.record(v);
            joint.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, joint.snapshot());
    }
}
