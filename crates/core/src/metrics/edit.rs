//! Levenshtein edit distance.
//!
//! The paper motivates distance-based indexing for *"domains where the data
//! is non-spatial … such as in the case of text databases which generally
//! use the edit distance (which is metric)"* (§3.1). The edit distance is
//! the minimum number of single-character insertions, deletions and
//! substitutions transforming one string into the other; with unit costs it
//! is a metric on strings.
//!
//! Implementation notes: two-row dynamic programming, `O(|a|·|b|)` time and
//! `O(min(|a|, |b|))` space, operating on `char`s so multi-byte UTF-8 is
//! handled correctly. The [`BoundedMetric`] implementation adds the classic
//! row-minimum early exit used when an upper bound is known (e.g. a range
//! query radius), which does not change any reported *count* of distance
//! computations — a bounded evaluation is still one evaluation.

use crate::metric::{BoundedMetric, DiscreteMetric, Metric};

/// Unit-cost Levenshtein edit distance over strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Levenshtein;

impl Levenshtein {
    /// Computes the edit distance between `a` and `b`.
    #[inline]
    pub fn edit_distance(a: &str, b: &str) -> u64 {
        Levenshtein::core::<false>(a, b, 0).0.unwrap()
    }

    /// The shared DP core. Only the shorter string is materialized as a
    /// `Vec<char>` (it must be random-access indexed per row); the longer
    /// string is re-iterated from the UTF-8 bytes, saving one allocation
    /// per call. With `BOUNDED` the routine abandons when the length
    /// difference alone exceeds `bound` (before any DP work) or when a
    /// completed row's minimum — a lower bound on every extension —
    /// exceeds `bound`. The DP recurrence itself is identical either way,
    /// so a bounded call that completes returns the exact distance.
    fn core<const BOUNDED: bool>(a: &str, b: &str, bound: u64) -> (Option<u64>, f64) {
        let a_len = a.chars().count();
        let b_len = b.chars().count();
        let (short_str, short_len, long_str, long_len) = if a_len <= b_len {
            (a, a_len, b, b_len)
        } else {
            (b, b_len, a, a_len)
        };
        if BOUNDED && (long_len - short_len) as u64 > bound {
            return (None, 0.0);
        }
        if short_len == 0 {
            let d = long_len as u64;
            return if BOUNDED && d > bound {
                (None, 0.0)
            } else {
                (Some(d), 1.0)
            };
        }
        let short: Vec<char> = short_str.chars().collect();
        let mut row: Vec<u64> = (0..=short.len() as u64).collect();
        for (i, lc) in long_str.chars().enumerate() {
            let mut prev_diag = row[0];
            row[0] = i as u64 + 1;
            let mut row_min = row[0];
            for (j, &sc) in short.iter().enumerate() {
                let substitution = prev_diag + u64::from(lc != sc);
                let insertion = row[j] + 1;
                let deletion = row[j + 1] + 1;
                prev_diag = row[j + 1];
                row[j + 1] = substitution.min(insertion).min(deletion);
                if BOUNDED {
                    row_min = row_min.min(row[j + 1]);
                }
            }
            if BOUNDED && row_min > bound {
                return (None, (i + 1) as f64 / long_len as f64);
            }
        }
        let d = row[short.len()];
        if BOUNDED && d > bound {
            (None, 1.0)
        } else {
            (Some(d), 1.0)
        }
    }

    #[inline]
    fn within(a: &str, b: &str, bound: f64) -> (Option<f64>, f64) {
        // `!(bound >= 0)` rejects both negative and NaN bounds: nothing
        // satisfies `d <= bound` for either.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(bound >= 0.0) {
            return (None, 0.0);
        }
        // Integer distances satisfy `d <= bound` iff `d <= floor(bound)`;
        // the cast saturates, so an infinite bound never abandons.
        let (d, frac) = Levenshtein::core::<true>(a, b, bound as u64);
        (d.map(|d| d as f64), frac)
    }
}

impl Metric<str> for Levenshtein {
    #[inline]
    fn distance(&self, a: &str, b: &str) -> f64 {
        Levenshtein::edit_distance(a, b) as f64
    }
}

impl DiscreteMetric<str> for Levenshtein {
    #[inline]
    fn distance_u(&self, a: &str, b: &str) -> u64 {
        Levenshtein::edit_distance(a, b)
    }
}

impl BoundedMetric<str> for Levenshtein {
    #[inline]
    fn distance_within(&self, a: &str, b: &str, bound: f64) -> Option<f64> {
        Levenshtein::within(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &str, b: &str, bound: f64) -> (Option<f64>, f64) {
        Levenshtein::within(a, b, bound)
    }
}

impl Metric<String> for Levenshtein {
    #[inline]
    fn distance(&self, a: &String, b: &String) -> f64 {
        Levenshtein::edit_distance(a, b) as f64
    }
}

impl DiscreteMetric<String> for Levenshtein {
    #[inline]
    fn distance_u(&self, a: &String, b: &String) -> u64 {
        Levenshtein::edit_distance(a, b)
    }
}

impl BoundedMetric<String> for Levenshtein {
    #[inline]
    fn distance_within(&self, a: &String, b: &String, bound: f64) -> Option<f64> {
        Levenshtein::within(a, b, bound).0
    }

    #[inline]
    fn distance_within_frac(&self, a: &String, b: &String, bound: f64) -> (Option<f64>, f64) {
        Levenshtein::within(a, b, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(a: &str, b: &str) -> u64 {
        Levenshtein::edit_distance(a, b)
    }

    #[test]
    fn classic_examples() {
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("flaw", "lawn"), 2);
        assert_eq!(d("intention", "execution"), 5);
    }

    #[test]
    fn empty_strings() {
        assert_eq!(d("", ""), 0);
        assert_eq!(d("", "abc"), 3);
        assert_eq!(d("abc", ""), 3);
    }

    #[test]
    fn identical_strings_are_zero() {
        assert_eq!(d("same", "same"), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(d("cat", "cut"), 1); // substitution
        assert_eq!(d("cat", "cats"), 1); // insertion
        assert_eq!(d("cat", "at"), 1); // deletion
    }

    #[test]
    fn symmetric() {
        assert_eq!(d("abcdef", "azced"), d("azced", "abcdef"));
    }

    #[test]
    fn multibyte_utf8_counts_chars_not_bytes() {
        assert_eq!(d("héllo", "hello"), 1);
        assert_eq!(d("日本語", "日本"), 1);
    }

    #[test]
    fn distance_within_matches_exact_when_bounded() {
        let cases = [("kitten", "sitting"), ("", "abc"), ("abc", "abc")];
        for (a, b) in cases {
            let exact = d(a, b) as f64;
            assert_eq!(Levenshtein.distance_within(a, b, exact), Some(exact));
            assert_eq!(Levenshtein.distance_within(a, b, exact + 5.0), Some(exact));
            if exact > 0.0 {
                assert_eq!(Levenshtein.distance_within(a, b, exact - 1.0), None);
            }
        }
    }

    #[test]
    fn distance_within_length_shortcut() {
        let (none, frac) = Levenshtein.distance_within_frac("a", "abcdefgh", 3.0);
        assert_eq!(none, None);
        assert_eq!(frac, 0.0, "length shortcut must abandon before any DP work");
    }

    #[test]
    fn distance_within_negative_bound_is_none() {
        assert_eq!(Levenshtein.distance_within("", "", -1.0), None);
        assert_eq!(Levenshtein.distance_within("abc", "abc", -0.5), None);
    }

    #[test]
    fn metric_impls_agree() {
        let a = "vantage".to_string();
        let b = "advantage".to_string();
        let cont: f64 = Metric::<String>::distance(&Levenshtein, &a, &b);
        let disc: u64 = DiscreteMetric::<String>::distance_u(&Levenshtein, &a, &b);
        assert_eq!(cont, disc as f64);
        assert_eq!(disc, 2);
        let bounded = BoundedMetric::<String>::distance_within(&Levenshtein, &a, &b, 10.0);
        assert_eq!(bounded, Some(cont));
    }
}
