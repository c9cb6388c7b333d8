//! Query result vocabulary.

use std::cmp::Ordering;

/// One query answer: a data object identified by its insertion index,
/// together with its distance from the query object.
///
/// `id` refers to the position of the object in the `Vec<T>` the index was
/// built from, so results can be joined back to application payloads
/// without the index storing them twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Insertion index of the matching object in the original dataset.
    pub id: usize,
    /// Distance from the query object (finite, non-negative).
    pub distance: f64,
}

impl Neighbor {
    /// Creates a new neighbor record.
    pub fn new(id: usize, distance: f64) -> Self {
        Neighbor { id, distance }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders by distance first (total order via [`f64::total_cmp`]),
    /// breaking ties by id so sorting is deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Sorts a result set by ascending distance (ties by id).
pub fn sort_by_distance(results: &mut [Neighbor]) {
    results.sort_unstable();
}

/// Sorts a result set by ascending id, the canonical form used when
/// comparing result *sets* (e.g. index output vs. linear scan) where
/// distance ties make distance order ambiguous.
pub fn sort_by_id(results: &mut [Neighbor]) {
    results.sort_unstable_by_key(|n| n.id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_distance_then_id() {
        let a = Neighbor::new(7, 1.0);
        let b = Neighbor::new(3, 1.0);
        let c = Neighbor::new(0, 2.0);
        let mut v = vec![c, a, b];
        sort_by_distance(&mut v);
        assert_eq!(v, vec![b, a, c]);
    }

    #[test]
    fn sort_by_id_orders_ids() {
        let mut v = vec![Neighbor::new(5, 0.1), Neighbor::new(1, 9.0)];
        sort_by_id(&mut v);
        assert_eq!(v[0].id, 1);
        assert_eq!(v[1].id, 5);
    }

    #[test]
    fn total_order_handles_equal_records() {
        let a = Neighbor::new(1, 0.5);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
