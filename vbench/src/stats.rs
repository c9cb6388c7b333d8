//! Order statistics over raw samples: exact nearest-rank percentiles,
//! never histogram bucket edges.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`, at most one
/// decimal) of `sorted`, which must be sorted ascending: the smallest
/// sample with at least `p` % of the samples at or below it. The rank is
/// computed in integers, so p99.9 of 1 000 samples is the 999th, not the
/// 1 000th that `ceil(0.999 * 1000.0)` gives. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let per_mille = (p * 10.0).round() as usize;
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile worth printing for `n` samples: p999 needs at
/// least ten samples beyond it, so 10 000 samples.
pub fn supports_p999(n: usize) -> bool {
    n >= 10_000
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`, the "inclusive" method.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method), which is how run
/// spreads are judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_checked_arrays() {
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 50.0), Some(5));
        assert_eq!(percentile(&ten, 90.0), Some(9));
        assert_eq!(percentile(&ten, 99.0), Some(10));
        assert_eq!(percentile(&ten, 100.0), Some(10));
        assert_eq!(percentile(&ten, 0.1), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 1..=1000: p99 is the 990th sample, p999 the 999th.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990));
        assert_eq!(percentile(&thousand, 99.9), Some(999));
        // A tail the old histogram reported as a bucket edge stays exact.
        let mut skewed = vec![786_000u64; 98];
        skewed.extend([786_431, 900_001]);
        assert_eq!(percentile(&skewed, 50.0), Some(786_000));
        assert_eq!(percentile(&skewed, 99.0), Some(786_431));
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        assert!(!supports_p999(9_999));
        assert!(supports_p999(10_000));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
    }
}
