//! Pruning-breakdown experiment: *where* does the mvp-tree's advantage
//! come from?
//!
//! The paper's figures report only the total number of distance
//! computations per search. This experiment re-runs the Figure 8 workload
//! with the observability layer attached and decomposes the cost by
//! filter stage: how many distance computations go to vantage-point
//! navigation vs surviving leaf candidates, and how many subtrees/leaf
//! entries each triangle-inequality filter eliminated at each radius.
//! The breakdown makes the paper's §5.2 claim directly visible — the
//! pre-computed leaf distances (`D1`/`D2`/`PATH`) do the heavy lifting
//! precisely where totals alone cannot show it.

use vantage_core::prelude::*;
use vantage_core::{F64Rows, RowStore};
use vantage_datasets::{queries, uniform_vectors};
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_vptree::{VpTree, VpTreeParams};

use crate::figures::{DATA_SEED, QUERY_SEED};
use crate::report::{format_csv, format_table, FigureReport};
use crate::scale::Scale;

/// Aggregated per-radius breakdown for one structure.
#[derive(Debug, Clone)]
pub struct PruningPoint {
    /// Query radius.
    pub range: f64,
    /// Profiler over every (seed × query) run at this radius.
    pub profiler: SearchProfiler,
}

/// A structure's pruning series across all radii.
#[derive(Debug, Clone)]
pub struct PruningSeries {
    /// Structure name (paper notation).
    pub name: String,
    /// One aggregated point per radius.
    pub points: Vec<PruningPoint>,
}

/// Runs traced range searches for the paper's two headline vector
/// structures — `vpt(2)` and `mvpt(3,80)` — over the Figure 8 workload.
pub fn run_pruning_breakdown(scale: Scale) -> Vec<PruningSeries> {
    let rows = F64Rows::from_items(uniform_vectors(scale.vector_count(), 20, DATA_SEED))
        .expect("uniform vectors share one width");
    let query_batch = queries::uniform_queries(scale.vector_queries(), 20, QUERY_SEED);
    let ranges = [0.15, 0.2, 0.3, 0.4, 0.5];
    let seeds = scale.seeds();

    let mut vp_points: Vec<PruningPoint> = ranges
        .iter()
        .map(|&range| PruningPoint {
            range,
            profiler: SearchProfiler::new(),
        })
        .collect();
    let mut mvp_points = vp_points.clone();

    for &seed in &seeds {
        let vp = VpTree::with_rows(
            rows.clone(),
            Euclidean,
            VpTreeParams::with_order(2).seed(seed),
        )
        .expect("valid params");
        let mvp = MvpTree::with_rows(
            rows.clone(),
            Euclidean,
            MvpParams::paper(3, 80, 5).seed(seed),
        )
        .expect("valid params");
        for (vp_point, mvp_point) in vp_points.iter_mut().zip(&mut mvp_points) {
            for q in &query_batch {
                let mut profile = QueryProfile::new();
                vp.search(q, Query::Range(vp_point.range), &mut profile);
                vp_point.profiler.record(&profile);

                let mut profile = QueryProfile::new();
                mvp.search(q, Query::Range(mvp_point.range), &mut profile);
                mvp_point.profiler.record(&profile);
            }
        }
    }
    vec![
        PruningSeries {
            name: "vpt(2)".into(),
            points: vp_points,
        },
        PruningSeries {
            name: "mvpt(3,80)".into(),
            points: mvp_points,
        },
    ]
}

/// Table rows: one per (structure, radius), with the cost split by role
/// and the eliminations split by filter stage.
fn breakdown_rows(series: &[PruningSeries]) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "structure".to_string(),
        "range".to_string(),
        "distances".to_string(),
        "vantage".to_string(),
        "candidate".to_string(),
        "subtrees cut".to_string(),
        "leaf cuts D1".to_string(),
        "leaf cuts D2".to_string(),
        "leaf cuts PATH".to_string(),
    ]];
    for s in series {
        for p in &s.points {
            let n = p.profiler.queries().max(1) as f64;
            let totals = p.profiler.totals();
            let per_query = |v: u64| format!("{:.1}", v as f64 / n);
            rows.push(vec![
                s.name.clone(),
                format!("{:.2}", p.range),
                format!("{:.1}", p.profiler.mean_distances()),
                per_query(totals.distances(DistanceRole::Vantage)),
                per_query(totals.distances(DistanceRole::Candidate)),
                per_query(totals.subtrees_pruned()),
                per_query(totals.reject_stats(PruneReason::PrecomputedD1).count()),
                per_query(totals.reject_stats(PruneReason::PrecomputedD2).count()),
                per_query(totals.reject_stats(PruneReason::PathFilter).count()),
            ]);
        }
    }
    rows
}

/// The full pruning-breakdown report ("distance computations vs radius,
/// by filter stage").
pub fn pruning_breakdown(scale: Scale) -> FigureReport {
    let series = run_pruning_breakdown(scale);
    let rows = breakdown_rows(&series);
    let n_queries = series
        .first()
        .and_then(|s| s.points.first())
        .map_or(0, |p| p.profiler.queries());
    FigureReport {
        title: format!("Pruning breakdown — cost per search by filter stage ({scale} scale)"),
        table: format_table(&rows),
        csv: format_csv(&rows),
        notes: format!(
            "Figure 8 workload (uniform [0,1]^20 vectors), range queries, averages over\n\
             {n_queries} (seed x query) runs per radius. `vantage`/`candidate` split the\n\
             distance computations by role; `leaf cuts` count candidates eliminated by\n\
             the precomputed D1/D2 and PATH filters without a distance computation."
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_series() -> Vec<PruningSeries> {
        // Hand-rolled miniature of the experiment so tests stay fast.
        let items = uniform_vectors(400, 8, DATA_SEED);
        let query_batch = queries::uniform_queries(5, 8, QUERY_SEED);
        let mvp = MvpTree::build(items, Euclidean, MvpParams::paper(3, 20, 5).seed(1)).unwrap();
        let mut point = PruningPoint {
            range: 0.3,
            profiler: SearchProfiler::new(),
        };
        for q in &query_batch {
            let mut profile = QueryProfile::new();
            mvp.search(q, Query::Range(point.range), &mut profile);
            point.profiler.record(&profile);
        }
        vec![PruningSeries {
            name: "mvpt(3,20)".into(),
            points: vec![point],
        }]
    }

    #[test]
    fn roles_partition_the_total() {
        for s in tiny_series() {
            for p in &s.points {
                let t = p.profiler.totals();
                assert_eq!(
                    t.distances(DistanceRole::Vantage) + t.distances(DistanceRole::Candidate),
                    t.total_distances()
                );
            }
        }
    }

    #[test]
    fn rows_cover_every_structure_and_radius() {
        let series = tiny_series();
        let rows = breakdown_rows(&series);
        assert_eq!(rows.len(), 2); // header + 1 structure x 1 radius
        assert_eq!(rows[0].len(), rows[1].len());
        assert_eq!(rows[1][0], "mvpt(3,20)");
    }

    #[test]
    fn report_renders_with_notes() {
        let series = tiny_series();
        let rows = breakdown_rows(&series);
        let table = format_table(&rows);
        assert!(table.contains("leaf cuts D1"));
        assert!(table.contains("mvpt(3,20)"));
    }
}
