//! Vantage-point selection strategies.
//!
//! The paper picks vantage points *"arbitrarily"* (its experiments average
//! over four random seeds) and notes that *"any optimization technique
//! (such as a heuristic to chose the best vantage point) for vp-trees can
//! also be applied to the mvp-trees"* (§4.2). [`VantageSelector`] captures
//! the strategies studied in the literature so both trees — and the
//! ablation benches — can share them.

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::RngExt;

use crate::counting::DistanceTally;
use crate::items::ItemStore;
use crate::metric::Metric;
use crate::{Result, VantageError};

/// Strategy for choosing a vantage point among a set of candidate ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VantageSelector {
    /// Uniformly random choice (the paper's protocol). Distance cost: 0.
    Random,
    /// The first candidate in insertion order. Deterministic and free;
    /// useful for reproducible tests, poor for adversarial input orders.
    FirstItem,
    /// Yiannilos' sampling heuristic \[Yia93\]: evaluate `candidates`
    /// **distinct** random candidates against a random sample of `sample`
    /// other points each and keep the candidate whose distances have the
    /// largest spread (second moment about the median) — a point near a
    /// "corner" of the space. The probe sample never includes the
    /// candidate itself (a self-probe is a guaranteed `d = 0` that skews
    /// the spread estimate). Distance cost:
    /// `min(candidates, |ids|) × sample` per selection.
    SampledSpread {
        /// Number of candidate vantage points evaluated.
        candidates: usize,
        /// Number of sampled points each candidate is scored against.
        sample: usize,
    },
}

impl VantageSelector {
    /// Validates strategy parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when a [`VantageSelector::SampledSpread`] count is
    /// zero.
    pub fn validate(&self) -> Result<()> {
        if let VantageSelector::SampledSpread { candidates, sample } = self {
            if *candidates == 0 || *sample == 0 {
                return Err(VantageError::invalid_parameter(
                    "selector",
                    "SampledSpread candidates and sample must be at least 1",
                ));
            }
        }
        Ok(())
    }

    /// Picks the index *within `ids`* of the vantage point.
    ///
    /// `items` is the backing arena the ids refer into. Distance
    /// computations made here happen at construction time; each one is
    /// charged to `tally`, the builder's construction-cost count,
    /// mirroring the paper's construction-cost accounting.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty.
    pub fn select<I: ItemStore + ?Sized, M: Metric<I::Item>>(
        &self,
        items: &I,
        ids: &[u32],
        metric: &M,
        rng: &mut StdRng,
        tally: &mut DistanceTally,
    ) -> usize {
        assert!(
            !ids.is_empty(),
            "cannot select a vantage point from nothing"
        );
        match *self {
            VantageSelector::FirstItem => 0,
            VantageSelector::Random => rng.random_range(0..ids.len()),
            VantageSelector::SampledSpread {
                candidates,
                sample: probes,
            } => {
                if ids.len() == 1 {
                    // One candidate and nobody to probe it against.
                    return 0;
                }
                let mut best_idx = 0usize;
                let mut best_spread = f64::NEG_INFINITY;
                // Distinct candidates: drawing with replacement would
                // spend part of the distance budget re-scoring the same
                // point. A candidate can exceed `ids.len()` only on tiny
                // working sets, where evaluating everything is cheap.
                let n_candidates = candidates.min(ids.len());
                for cand_idx in sample(rng, ids.len(), n_candidates) {
                    let cand = items.get(ids[cand_idx]);
                    let mut dists: Vec<f64> = (0..probes)
                        .map(|_| {
                            // Probe among the *other* points: including the
                            // candidate itself guarantees a d = 0 outlier
                            // that drags the spread estimate toward zero.
                            let mut probe = rng.random_range(0..ids.len() - 1);
                            if probe >= cand_idx {
                                probe += 1;
                            }
                            tally.add_computations(1);
                            metric.distance(cand, items.get(ids[probe]))
                        })
                        .collect();
                    dists.sort_unstable_by(f64::total_cmp);
                    let median = dists[dists.len() / 2];
                    let spread = dists
                        .iter()
                        .map(|d| (d - median) * (d - median))
                        .sum::<f64>()
                        / dists.len() as f64;
                    if spread > best_spread {
                        best_spread = spread;
                        best_idx = cand_idx;
                    }
                }
                best_idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use rand::SeedableRng;

    /// `select` under Euclidean distance, with a throwaway tally.
    fn pick(sel: VantageSelector, items: &[Vec<f64>], ids: &[u32], rng: &mut StdRng) -> usize {
        sel.select(items, ids, &Euclidean, rng, &mut DistanceTally::new())
    }

    fn arena() -> Vec<Vec<f64>> {
        (0..20).map(|i| vec![f64::from(i)]).collect()
    }

    #[test]
    fn first_item_is_zero() {
        let items = arena();
        let ids: Vec<u32> = (0..20).collect();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pick(VantageSelector::FirstItem, &items, &ids, &mut rng), 0);
    }

    #[test]
    fn random_is_in_range_and_seed_deterministic() {
        let items = arena();
        let ids: Vec<u32> = (0..20).collect();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            pick(VantageSelector::Random, &items, &ids, &mut rng)
        };
        assert!(draw(7) < 20);
        assert_eq!(draw(7), draw(7));
    }

    #[test]
    fn sampled_spread_prefers_corner_points() {
        // On a uniform 1-d segment, endpoints see the widest distance
        // distribution ([Yia93]'s rationale): the heuristic should pick
        // points from the outer thirds far more often than the middle.
        let items: Vec<Vec<f64>> = (0..30).map(|i| vec![f64::from(i)]).collect();
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let sel = VantageSelector::SampledSpread {
            candidates: 10,
            sample: 15,
        };
        let mut outer = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = pick(sel, &items, &ids, &mut rng);
            let value = items[ids[idx] as usize][0];
            if !(10.0..20.0).contains(&value) {
                outer += 1;
            }
        }
        assert!(
            outer >= 15,
            "picked outer-third points only {outer}/20 times"
        );
    }

    #[test]
    fn sampled_spread_counts_distances() {
        let items = arena();
        let ids: Vec<u32> = (0..20).collect();
        let metric = Counted::new(Euclidean);
        let mut rng = StdRng::seed_from_u64(3);
        let mut tally = DistanceTally::new();
        VantageSelector::SampledSpread {
            candidates: 4,
            sample: 5,
        }
        .select(items.as_slice(), &ids, &metric, &mut rng, &mut tally);
        assert_eq!(metric.count(), 20);
        assert_eq!(tally.totals().computations, 20);
    }

    /// Records every (candidate, probe) pair the selector evaluates.
    struct Recording(std::cell::RefCell<Vec<(f64, f64)>>);

    impl Metric<Vec<f64>> for Recording {
        fn distance(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
            self.0.borrow_mut().push((a[0], b[0]));
            (a[0] - b[0]).abs()
        }
    }

    #[test]
    fn sampled_spread_never_probes_the_candidate_itself() {
        let items = arena();
        let ids: Vec<u32> = (0..20).collect();
        let metric = Recording(Default::default());
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            VantageSelector::SampledSpread {
                candidates: 6,
                sample: 8,
            }
            .select(
                items.as_slice(),
                &ids,
                &metric,
                &mut rng,
                &mut DistanceTally::new(),
            );
        }
        let calls = metric.0.borrow();
        assert!(!calls.is_empty());
        assert!(
            calls.iter().all(|(cand, probe)| cand != probe),
            "selector probed a candidate against itself"
        );
    }

    #[test]
    fn sampled_spread_candidates_are_distinct() {
        // With candidates >= |ids|, a dedup'd draw must score *every*
        // point exactly once; with replacement some would repeat and
        // others would be missed.
        let items = arena();
        let ids: Vec<u32> = (0..20).collect();
        let metric = Recording(Default::default());
        let mut rng = StdRng::seed_from_u64(11);
        VantageSelector::SampledSpread {
            candidates: 100,
            sample: 2,
        }
        .select(
            items.as_slice(),
            &ids,
            &metric,
            &mut rng,
            &mut DistanceTally::new(),
        );
        let calls = metric.0.borrow();
        assert_eq!(calls.len(), 20 * 2, "budget is min(candidates, n) × sample");
        let mut seen: Vec<f64> = calls.iter().map(|(cand, _)| *cand).collect();
        seen.sort_unstable_by(f64::total_cmp);
        seen.dedup();
        assert_eq!(seen.len(), 20, "every point scored as a candidate once");
    }

    #[test]
    fn sampled_spread_two_items_is_well_defined() {
        let items = arena();
        let mut rng = StdRng::seed_from_u64(4);
        let idx = pick(
            VantageSelector::SampledSpread {
                candidates: 5,
                sample: 5,
            },
            &items,
            &[3, 9],
            &mut rng,
        );
        assert!(idx < 2);
    }

    #[test]
    fn validate_rejects_zero_counts() {
        assert!(VantageSelector::SampledSpread {
            candidates: 0,
            sample: 5
        }
        .validate()
        .is_err());
        assert!(VantageSelector::SampledSpread {
            candidates: 5,
            sample: 0
        }
        .validate()
        .is_err());
        assert!(VantageSelector::Random.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn empty_ids_panics() {
        let items = arena();
        let mut rng = StdRng::seed_from_u64(0);
        pick(VantageSelector::Random, &items, &[], &mut rng);
    }

    #[test]
    fn singleton_ids_selects_it() {
        let items = arena();
        let mut rng = StdRng::seed_from_u64(0);
        for sel in [
            VantageSelector::Random,
            VantageSelector::FirstItem,
            VantageSelector::SampledSpread {
                candidates: 3,
                sample: 3,
            },
        ] {
            assert_eq!(pick(sel, &items, &[5], &mut rng), 0);
        }
    }
}
