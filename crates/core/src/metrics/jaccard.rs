//! Jaccard distance on finite sets.
//!
//! `d(A, B) = 1 − |A ∩ B| / |A ∪ B|` (with `d(∅, ∅) = 0`) is a metric on
//! finite sets — the classic choice for keyword sets, shingled documents
//! and tag collections in the information-retrieval domain the paper
//! motivates (§1). Being bounded by 1 it composes well with vantage-point
//! indexing: distance distributions are wide enough to partition.
//!
//! Sets are represented as **strictly increasing** `Vec<u64>` element
//! lists, compared by linear merge — `O(|A| + |B|)` with no hashing.

use crate::metric::{BoundedMetric, Metric};

/// A set as a strictly increasing list of element ids.
pub type SortedSet = Vec<u64>;

/// Builds a [`SortedSet`] from arbitrary elements (sorts and dedups).
pub fn sorted_set(elements: impl IntoIterator<Item = u64>) -> SortedSet {
    let mut v: Vec<u64> = elements.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Jaccard distance between sorted sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Jaccard {
    /// Intersection and union sizes by linear merge.
    ///
    /// # Panics
    ///
    /// Debug-asserts that inputs are strictly increasing.
    fn intersect_union(a: &[u64], b: &[u64]) -> (usize, usize) {
        debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "set not sorted/deduped");
        debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "set not sorted/deduped");
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (inter, a.len() + b.len() - inter)
    }
}

impl Metric<SortedSet> for Jaccard {
    fn distance(&self, a: &SortedSet, b: &SortedSet) -> f64 {
        let (inter, union) = Jaccard::intersect_union(a, b);
        if union == 0 {
            0.0
        } else {
            1.0 - inter as f64 / union as f64
        }
    }
}

// `1 − |∩|/|∪|` only shrinks as the merge discovers matches, so a prefix
// of the merge bounds the distance from *above*, not below — no early
// abandoning is possible and the full-compute fallback applies.
impl BoundedMetric<SortedSet> for Jaccard {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_are_zero() {
        let a = sorted_set([1, 2, 3]);
        assert_eq!(Jaccard.distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn disjoint_sets_are_one() {
        let a = sorted_set([1, 2]);
        let b = sorted_set([3, 4]);
        assert_eq!(Jaccard.distance(&a, &b), 1.0);
    }

    #[test]
    fn half_overlap() {
        let a = sorted_set([1, 2, 3]);
        let b = sorted_set([2, 3, 4]);
        // |∩| = 2, |∪| = 4 → d = 0.5
        assert_eq!(Jaccard.distance(&a, &b), 0.5);
    }

    #[test]
    fn empty_set_conventions() {
        let e: SortedSet = vec![];
        let a = sorted_set([7]);
        assert_eq!(Jaccard.distance(&e, &e.clone()), 0.0);
        assert_eq!(Jaccard.distance(&e, &a), 1.0);
    }

    #[test]
    fn symmetric() {
        let a = sorted_set([1, 5, 9, 12]);
        let b = sorted_set([5, 9]);
        assert_eq!(Jaccard.distance(&a, &b), Jaccard.distance(&b, &a));
    }

    #[test]
    fn sorted_set_dedups() {
        assert_eq!(sorted_set([3, 1, 3, 2, 1]), vec![1, 2, 3]);
    }

    #[test]
    fn triangle_inequality_exhaustive_small_universe() {
        // All subsets of a 4-element universe: 16³ triples.
        let subsets: Vec<SortedSet> = (0u32..16)
            .map(|mask| {
                (0u32..4)
                    .filter(|b| mask & (1 << b) != 0)
                    .map(u64::from)
                    .collect()
            })
            .collect();
        for a in &subsets {
            for b in &subsets {
                for c in &subsets {
                    let ab = Jaccard.distance(a, b);
                    let ac = Jaccard.distance(a, c);
                    let cb = Jaccard.distance(c, b);
                    assert!(
                        ab <= ac + cb + 1e-12,
                        "triangle violated: {a:?} {b:?} {c:?}"
                    );
                }
            }
        }
    }
}
