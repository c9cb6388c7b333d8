//! Hamming distance with a length-difference extension.
//!
//! On equal-length sequences this is the classic Hamming distance (number
//! of mismatching positions) — the metric of Burkhard & Keller's original
//! key-matching application \[BK73\]. To stay total over sequences of
//! *different* lengths (a metric must be defined on the whole domain), the
//! surplus positions of the longer sequence each count as one mismatch:
//!
//! `d(a, b) = |{i < min : a_i ≠ b_i}| + (max − min)`
//!
//! which is exactly Hamming distance after padding the shorter sequence
//! with a symbol outside the alphabet, hence still a metric.

use crate::metric::{BoundedMetric, DiscreteMetric, Metric};
use crate::simd;

/// Hamming distance over byte sequences and strings (by `char`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hamming;

impl Hamming {
    /// Hamming distance between two byte slices (with the length-difference
    /// extension).
    #[inline]
    pub fn bytes(a: &[u8], b: &[u8]) -> u64 {
        // Mismatch counts are exact integers, so routing through the
        // dispatched kernel cannot change the result on any path.
        simd::hamming_bytes::<false>(simd::active(), a, b, f64::INFINITY)
            .0
            .unwrap() as u64
    }

    /// Hamming distance between two strings, by `char`.
    #[inline]
    pub fn chars(a: &str, b: &str) -> u64 {
        Hamming::chars_within::<false>(a, b, f64::INFINITY)
            .0
            .unwrap() as u64
    }

    /// Bounded char-wise Hamming: the mismatch count only grows, so the
    /// scan can stop as soon as it exceeds `bound`. Work fractions are
    /// estimated from consumed byte offsets (chars have variable width).
    #[inline]
    fn chars_within<const BOUNDED: bool>(a: &str, b: &str, bound: f64) -> (Option<f64>, f64) {
        let total = a.len().max(b.len()).max(1);
        let mut ai = a.char_indices();
        let mut bi = b.char_indices();
        let mut d = 0u64;
        loop {
            let progress = match (ai.next(), bi.next()) {
                (Some((ia, x)), Some((ib, y))) => {
                    d += u64::from(x != y);
                    ia.max(ib)
                }
                (Some((ia, _)), None) => {
                    d += 1;
                    ia
                }
                (None, Some((ib, _))) => {
                    d += 1;
                    ib
                }
                (None, None) => break,
            };
            if BOUNDED && d as f64 > bound {
                return (None, progress as f64 / total as f64);
            }
        }
        let dist = d as f64;
        if BOUNDED && dist > bound {
            (None, 1.0)
        } else {
            (Some(dist), 1.0)
        }
    }
}

impl Metric<[u8]> for Hamming {
    #[inline]
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        Hamming::bytes(a, b) as f64
    }
}

impl DiscreteMetric<[u8]> for Hamming {
    #[inline]
    fn distance_u(&self, a: &[u8], b: &[u8]) -> u64 {
        Hamming::bytes(a, b)
    }
}

impl BoundedMetric<[u8]> for Hamming {
    #[inline]
    fn distance_within(&self, a: &[u8], b: &[u8], bound: f64) -> Option<f64> {
        simd::hamming_bytes::<true>(simd::active(), a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &[u8], b: &[u8], bound: f64) -> (Option<f64>, f64) {
        simd::hamming_bytes::<true>(simd::active(), a, b, bound)
    }
}

impl Metric<Vec<u8>> for Hamming {
    #[inline]
    fn distance(&self, a: &Vec<u8>, b: &Vec<u8>) -> f64 {
        Hamming::bytes(a, b) as f64
    }
}

impl DiscreteMetric<Vec<u8>> for Hamming {
    #[inline]
    fn distance_u(&self, a: &Vec<u8>, b: &Vec<u8>) -> u64 {
        Hamming::bytes(a, b)
    }
}

impl BoundedMetric<Vec<u8>> for Hamming {
    #[inline]
    fn distance_within(&self, a: &Vec<u8>, b: &Vec<u8>, bound: f64) -> Option<f64> {
        simd::hamming_bytes::<true>(simd::active(), a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &Vec<u8>, b: &Vec<u8>, bound: f64) -> (Option<f64>, f64) {
        simd::hamming_bytes::<true>(simd::active(), a, b, bound)
    }
}

impl Metric<String> for Hamming {
    #[inline]
    fn distance(&self, a: &String, b: &String) -> f64 {
        Hamming::chars(a, b) as f64
    }
}

impl DiscreteMetric<String> for Hamming {
    #[inline]
    fn distance_u(&self, a: &String, b: &String) -> u64 {
        Hamming::chars(a, b)
    }
}

impl BoundedMetric<String> for Hamming {
    #[inline]
    fn distance_within(&self, a: &String, b: &String, bound: f64) -> Option<f64> {
        Hamming::chars_within::<true>(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &String, b: &String, bound: f64) -> (Option<f64>, f64) {
        Hamming::chars_within::<true>(a, b, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_length_counts_mismatches() {
        assert_eq!(Hamming::bytes(b"karolin", b"kathrin"), 3);
        assert_eq!(Hamming::bytes(b"1011101", b"1001001"), 2);
    }

    #[test]
    fn identical_is_zero() {
        assert_eq!(Hamming::bytes(b"abc", b"abc"), 0);
        assert_eq!(Hamming::chars("日本", "日本"), 0);
    }

    #[test]
    fn length_difference_counts_fully() {
        assert_eq!(Hamming::bytes(b"abc", b"abcd"), 1);
        assert_eq!(Hamming::bytes(b"", b"xyz"), 3);
    }

    #[test]
    fn mixed_mismatch_and_tail() {
        // positions: a≠x, b≠b(match), tail "cd" = 2
        assert_eq!(Hamming::bytes(b"ab", b"xbcd"), 3);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            Hamming::bytes(b"foo", b"foobar"),
            Hamming::bytes(b"foobar", b"foo")
        );
    }

    #[test]
    fn char_based_handles_multibyte() {
        assert_eq!(Hamming::chars("héllo", "hello"), 1);
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let (a, b, c) = (
            b"abcde".as_slice(),
            b"abxde".as_slice(),
            b"zzzde".as_slice(),
        );
        let ab = Hamming::bytes(a, b);
        let bc = Hamming::bytes(b, c);
        let ac = Hamming::bytes(a, c);
        assert!(ac <= ab + bc);
    }

    #[test]
    fn metric_and_discrete_agree() {
        let a = vec![1u8, 2, 3];
        let b = vec![1u8, 9, 3, 7];
        assert_eq!(
            Metric::<Vec<u8>>::distance(&Hamming, &a, &b),
            DiscreteMetric::<Vec<u8>>::distance_u(&Hamming, &a, &b) as f64
        );
    }

    #[test]
    fn bounded_bytes_respects_exact_boundary() {
        let a = vec![0u8; 200];
        let b = vec![1u8; 200];
        assert_eq!(Hamming.distance_within(&a, &b, 200.0), Some(200.0));
        assert_eq!(Hamming.distance_within(&a, &b, 199.0), None);
        let (d, frac) = Hamming.distance_within_frac(&a, &b, 50.0);
        assert_eq!(d, None);
        assert!(frac < 1.0);
    }

    #[test]
    fn bounded_chars_matches_full() {
        let a = "héllo wörld".to_string();
        let b = "hello world".to_string();
        let full = Metric::<String>::distance(&Hamming, &a, &b);
        assert_eq!(Hamming.distance_within(&a, &b, full), Some(full));
        assert_eq!(Hamming.distance_within(&a, &b, full - 1.0), None);
        // Empty strings at a negative bound must still report None.
        let e = String::new();
        assert_eq!(Hamming.distance_within(&e, &e.clone(), -1.0), None);
    }
}
