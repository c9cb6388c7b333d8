//! Pre-computed distance tables: AESA and LAESA.
//!
//! Paper §3.2 on \[SW90\]: *"a table of size O(n²) keeps the distances
//! between data objects if they are pre-computed … The technique of
//! storing and using pre-computed distances may be effective for data
//! domains with small cardinality, however, the space requirements and
//! the search complexity becomes overwhelming for larger domains."*
//!
//! [`Aesa`] is the full-table variant: `n(n−1)/2` stored distances, and a
//! query loop that repeatedly (1) picks the live candidate with the
//! smallest triangle-inequality lower bound, (2) computes its true
//! distance, and (3) uses that distance to tighten every other candidate's
//! bound and eliminate the hopeless ones. It achieves the fewest
//! query-time distance computations of anything in this workspace — at
//! quadratic space, exactly the trade-off the paper describes.
//!
//! [`Laesa`] bounds the memory at `m · n` by pre-computing distances to
//! `m` pivots only (chosen by greedy max-min separation).

use vantage_core::{KnnCollector, Metric, MetricIndex, Neighbor, Result, VantageError};

/// Full O(n²) pre-computed distance table.
#[derive(Debug, Clone)]
pub struct Aesa<T, M> {
    items: Vec<T>,
    metric: M,
    /// Lower-triangular packed pairwise distances; entry `(i, j)` with
    /// `i > j` lives at `i(i−1)/2 + j`.
    table: Vec<f64>,
}

impl<T, M: Metric<T>> Aesa<T, M> {
    /// Builds the table, computing all `n(n−1)/2` pairwise distances.
    pub fn build(items: Vec<T>, metric: M) -> Self {
        let n = items.len();
        let mut table = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in 0..i {
                table.push(metric.distance(&items[i], &items[j]));
            }
        }
        Aesa {
            items,
            metric,
            table,
        }
    }

    /// The stored distance between items `i` and `j`.
    pub fn stored_distance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.table[hi * (hi - 1) / 2 + lo]
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Shared AESA loop: returns `(id, true_distance)` for every candidate
    /// whose distance was actually computed, eliminating candidates via
    /// `should_keep(lower_bound)` and feeding every computed distance to
    /// `on_computed`.
    fn drive(
        &self,
        query: &T,
        mut keep: impl FnMut(f64) -> bool,
        mut on_computed: impl FnMut(usize, f64),
    ) {
        let n = self.items.len();
        // state: NaN bound = live; computed/eliminated candidates leave
        // the pool.
        let mut lower = vec![0.0f64; n];
        let mut live: Vec<usize> = (0..n).collect();
        while !live.is_empty() {
            // Pick the live candidate with the smallest lower bound — the
            // classic AESA pivot-selection heuristic.
            let (pos, &pivot) = live
                .iter()
                .enumerate()
                .min_by(|a, b| lower[*a.1].total_cmp(&lower[*b.1]))
                .expect("live is non-empty");
            live.swap_remove(pos);
            let d = self.metric.distance(query, &self.items[pivot]);
            on_computed(pivot, d);
            // Tighten bounds and eliminate.
            live.retain(|&x| {
                let bound = (d - self.stored_distance(pivot, x)).abs();
                if bound > lower[x] {
                    lower[x] = bound;
                }
                keep(lower[x])
            });
        }
    }
}

impl<T, M: Metric<T>> MetricIndex<T> for Aesa<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.drive(
            query,
            |bound| bound <= radius,
            |id, d| {
                if d <= radius {
                    out.push(Neighbor::new(id, d));
                }
            },
        );
        out
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        let mut collector = KnnCollector::new(k);
        if k == 0 {
            return Vec::new();
        }
        // The pruning radius shrinks as better neighbors arrive; a cell
        // keeps the closure Fn-compatible without aliasing issues.
        let collector_cell = std::cell::RefCell::new(&mut collector);
        self.drive(
            query,
            |bound| bound <= collector_cell.borrow().radius(),
            |id, d| {
                collector_cell.borrow_mut().offer(id, d);
            },
        );
        collector.into_sorted()
    }
}

/// LAESA: pre-computed distances to `m` pivots (linear memory).
#[derive(Debug, Clone)]
pub struct Laesa<T, M> {
    items: Vec<T>,
    metric: M,
    /// Pivot item ids.
    pivots: Vec<usize>,
    /// `pivot_distances[p][x]` = distance from pivot `p` to item `x`.
    pivot_distances: Vec<Vec<f64>>,
}

impl<T, M: Metric<T>> Laesa<T, M> {
    /// Builds a LAESA index with `m` pivots chosen by greedy max-min
    /// separation (first pivot = item 0; each next pivot maximizes its
    /// minimum distance to the chosen set).
    ///
    /// # Errors
    ///
    /// Returns an error when `m == 0` (with a non-empty dataset).
    pub fn build(items: Vec<T>, metric: M, m: usize) -> Result<Self> {
        if m == 0 && !items.is_empty() {
            return Err(VantageError::invalid_parameter(
                "m",
                "LAESA needs at least one pivot",
            ));
        }
        let n = items.len();
        let m = m.min(n);
        let mut pivots: Vec<usize> = Vec::with_capacity(m);
        let mut pivot_distances: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut min_dist = vec![f64::INFINITY; n];
        let mut next = 0usize;
        for _ in 0..m {
            pivots.push(next);
            let row: Vec<f64> = (0..n)
                .map(|x| metric.distance(&items[next], &items[x]))
                .collect();
            for (md, &d) in min_dist.iter_mut().zip(&row) {
                *md = md.min(d);
            }
            pivot_distances.push(row);
            next = min_dist
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            // Max-min separation of 0 means every remaining point is at
            // distance 0 from a chosen pivot, so its distance row would
            // duplicate that pivot's row exactly (triangle inequality) —
            // and re-selecting an existing pivot id would make `knn`
            // offer it twice. Stop early; the chosen pivots already
            // bound everything these could.
            if min_dist[next] == 0.0 {
                break;
            }
        }
        Ok(Laesa {
            items,
            metric,
            pivots,
            pivot_distances,
        })
    }

    /// The pivot item ids.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Computes the pivot distances for `query` and each item's lower
    /// bound `max_p |d(q, pivot_p) − d(pivot_p, x)|`.
    fn bounds(&self, query: &T) -> (Vec<f64>, Vec<f64>) {
        let n = self.items.len();
        let query_pivot: Vec<f64> = self
            .pivots
            .iter()
            .map(|&p| self.metric.distance(query, &self.items[p]))
            .collect();
        let mut lower = vec![0.0f64; n];
        for (qp, row) in query_pivot.iter().zip(&self.pivot_distances) {
            for (lb, &px) in lower.iter_mut().zip(row) {
                let b = (qp - px).abs();
                if b > *lb {
                    *lb = b;
                }
            }
        }
        (query_pivot, lower)
    }
}

impl<T, M: Metric<T>> MetricIndex<T> for Laesa<T, M> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.items.get(id)
    }

    fn range(&self, query: &T, radius: f64) -> Vec<Neighbor> {
        if self.items.is_empty() {
            return Vec::new();
        }
        let (query_pivot, lower) = self.bounds(query);
        let mut out = Vec::new();
        for (x, &lb) in lower.iter().enumerate() {
            if let Some(p) = self.pivots.iter().position(|&p| p == x) {
                // Pivot distances are already exact.
                if query_pivot[p] <= radius {
                    out.push(Neighbor::new(x, query_pivot[p]));
                }
                continue;
            }
            if lb > radius {
                continue;
            }
            let d = self.metric.distance(query, &self.items[x]);
            if d <= radius {
                out.push(Neighbor::new(x, d));
            }
        }
        out
    }

    fn knn(&self, query: &T, k: usize) -> Vec<Neighbor> {
        let mut collector = KnnCollector::new(k);
        if k == 0 || self.items.is_empty() {
            return Vec::new();
        }
        let (query_pivot, lower) = self.bounds(query);
        for (p, &pivot) in self.pivots.iter().enumerate() {
            collector.offer(pivot, query_pivot[p]);
        }
        // Ascending lower bound: good neighbors early, radius shrinks
        // fast.
        let mut order: Vec<usize> = (0..self.items.len())
            .filter(|x| !self.pivots.contains(x))
            .collect();
        order.sort_unstable_by(|&a, &b| lower[a].total_cmp(&lower[b]));
        for x in order {
            if lower[x] > collector.radius() {
                break;
            }
            collector.offer(x, self.metric.distance(query, &self.items[x]));
        }
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                v.push(vec![f64::from(x), f64::from(y)]);
            }
        }
        v
    }

    fn ids(mut v: Vec<Neighbor>) -> Vec<usize> {
        v.sort_unstable_by_key(|n| n.id);
        v.into_iter().map(|n| n.id).collect()
    }

    #[test]
    fn aesa_table_is_symmetric_and_exact() {
        let a = Aesa::build(grid(), Euclidean);
        assert_eq!(a.stored_distance(3, 3), 0.0);
        assert_eq!(a.stored_distance(0, 1), 1.0);
        assert_eq!(a.stored_distance(1, 0), 1.0);
        assert_eq!(a.stored_distance(0, 11), 2.0f64.sqrt());
    }

    #[test]
    fn aesa_range_matches_linear_scan() {
        let a = Aesa::build(grid(), Euclidean);
        let o = LinearScan::new(grid(), Euclidean);
        for (q, r) in [
            (vec![5.0, 5.0], 2.0),
            (vec![0.0, 0.0], 4.5),
            (vec![-1.0, 3.0], 2.5),
            (vec![4.0, 4.0], 0.0),
        ] {
            assert_eq!(ids(a.range(&q, r)), ids(o.range(&q, r)));
        }
    }

    #[test]
    fn aesa_knn_matches_brute_force() {
        let a = Aesa::build(grid(), Euclidean);
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 4, 25, 100, 150] {
            let got = a.knn(&vec![6.1, 2.9], k);
            let want = o.knn(&vec![6.1, 2.9], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.distance - w.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn aesa_uses_very_few_query_distances() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let a = Aesa::build(grid(), metric);
        probe.reset();
        a.range(&vec![5.0, 5.0], 1.0);
        let used = probe.count();
        assert!(used < 30, "AESA used {used} distances for a tight query");
    }

    #[test]
    fn aesa_empty_dataset() {
        let a: Aesa<Vec<f64>, Euclidean> = Aesa::build(vec![], Euclidean);
        assert!(a.range(&vec![0.0], 5.0).is_empty());
        assert!(a.knn(&vec![0.0], 3).is_empty());
    }

    #[test]
    fn laesa_range_matches_linear_scan() {
        let o = LinearScan::new(grid(), Euclidean);
        for m in [1, 3, 8] {
            let l = Laesa::build(grid(), Euclidean, m).unwrap();
            for (q, r) in [(vec![5.0, 5.0], 2.0), (vec![0.0, 9.0], 3.3)] {
                assert_eq!(ids(l.range(&q, r)), ids(o.range(&q, r)), "m={m}");
            }
        }
    }

    #[test]
    fn laesa_knn_matches_brute_force() {
        let l = Laesa::build(grid(), Euclidean, 5).unwrap();
        let o = LinearScan::new(grid(), Euclidean);
        for k in [1, 9, 99] {
            let got = l.knn(&vec![2.2, 7.7], k);
            let want = o.knn(&vec![2.2, 7.7], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.distance - w.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn laesa_pivots_are_spread_out() {
        let l = Laesa::build(grid(), Euclidean, 4).unwrap();
        // Greedy max-min from item 0 (corner) should reach other corners:
        // pairwise pivot distances all ≥ grid side / 2.
        let p = l.pivots();
        for i in 0..p.len() {
            for j in 0..i {
                let d = Euclidean.distance(&l.items[p[i]], &l.items[p[j]]);
                assert!(d >= 4.5, "pivots {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn laesa_pivot_selection_stops_on_degenerate_data() {
        // All-identical points: greedy max-min separation bottoms out at
        // 0 after the first pivot; the selection must not repeat an id
        // (repeated pivots made knn return duplicate answers).
        let l = Laesa::build(vec![vec![1.0]; 20], Euclidean, 8).unwrap();
        assert_eq!(l.pivots().len(), 1);
        let hits = l.knn(&vec![1.0], 25);
        assert_eq!(hits.len(), 20);
        let mut ids: Vec<usize> = hits.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "knn returned duplicate ids");
    }

    #[test]
    fn laesa_zero_pivots_rejected() {
        assert!(Laesa::build(grid(), Euclidean, 0).is_err());
        // …but an empty dataset with m = 0 is fine.
        assert!(Laesa::build(Vec::<Vec<f64>>::new(), Euclidean, 0).is_ok());
    }

    #[test]
    fn laesa_query_cost_is_pivots_plus_survivors() {
        let metric = Counted::new(Euclidean);
        let probe = metric.clone();
        let l = Laesa::build(grid(), metric, 6).unwrap();
        probe.reset();
        l.range(&vec![5.0, 5.0], 1.0);
        let used = probe.count();
        assert!(used < 100, "LAESA used {used} >= linear scan");
        assert!(used >= 6, "must at least probe every pivot");
    }
}
