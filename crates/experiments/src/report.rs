//! Table and CSV rendering for experiment results.

use crate::harness::QueryCostSeries;

/// A rendered experiment report: a title, a human-readable aligned table,
/// machine-readable CSV, and free-form notes (protocol, substitutions,
/// expectations from the paper).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// e.g. `"Figure 8 — random vectors"`.
    pub title: String,
    /// Aligned text table.
    pub table: String,
    /// CSV with a header row.
    pub csv: String,
    /// Protocol notes.
    pub notes: String,
}

impl FigureReport {
    /// Renders the full report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        if !self.notes.is_empty() {
            for line in self.notes.lines() {
                out.push_str(&format!("   {line}\n"));
            }
        }
        out.push('\n');
        out.push_str(&self.table);
        out
    }
}

/// Renders an aligned text table. The first row is the header.
pub fn format_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; columns];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| format!("{:>width$}", cell, width = widths[i]))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
        if r == 0 {
            let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&sep.join("  "));
            out.push('\n');
        }
    }
    out
}

/// Renders rows as CSV (no quoting — cells are numeric or simple names).
pub fn format_csv(rows: &[Vec<String>]) -> String {
    rows.iter()
        .map(|row| row.join(","))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Builds the standard query-cost table: one row per query range, one
/// column per structure (the layout of the paper's Figures 8–11), plus a
/// final row with construction costs.
pub fn query_cost_rows(series: &[QueryCostSeries]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut header = vec!["query range".to_string()];
    header.extend(series.iter().map(|s| s.name.clone()));
    rows.push(header);
    if let Some(first) = series.first() {
        for (i, point) in first.points.iter().enumerate() {
            let mut row = vec![format!("{:.4}", point.range)];
            for s in series {
                row.push(format!("{:.1}", s.points[i].avg_distances));
            }
            rows.push(row);
        }
    }
    let mut build_row = vec!["(build)".to_string()];
    build_row.extend(series.iter().map(|s| format!("{:.0}", s.build_distances)));
    rows.push(build_row);
    rows
}

/// Extracts a flat `metric name → value` map from a report's CSV: every
/// numeric cell becomes `"<column header>@<row label>"` (e.g.
/// `"mvpt(3,80)@0.1500"`). Non-numeric cells are skipped, so the same
/// conversion works for every report layout. This is the format
/// dashboards consume.
pub fn csv_metrics(csv: &str) -> Vec<(String, f64)> {
    // Structure names like `mvpt(3,80)` embed commas, and the CSV writer
    // does not quote; commas inside parentheses are not separators.
    fn split_cells(line: &str) -> Vec<String> {
        let mut cells = Vec::new();
        let mut cell = String::new();
        let mut depth = 0usize;
        for c in line.chars() {
            match c {
                '(' => {
                    depth += 1;
                    cell.push(c);
                }
                ')' => {
                    depth = depth.saturating_sub(1);
                    cell.push(c);
                }
                ',' if depth == 0 => cells.push(std::mem::take(&mut cell)),
                _ => cell.push(c),
            }
        }
        cells.push(cell);
        cells
    }

    let mut lines = csv.lines();
    let header: Vec<String> = match lines.next() {
        Some(h) => split_cells(h),
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    for line in lines {
        let cells = split_cells(line);
        let label = match cells.first() {
            Some(l) => l,
            None => continue,
        };
        for (i, cell) in cells.iter().enumerate().skip(1) {
            if let (Some(column), Ok(value)) = (header.get(i), cell.parse::<f64>()) {
                out.push((format!("{column}@{label}"), value));
            }
        }
    }
    out
}

/// Serializes the full experiment-suite outcome as `results.json`: one
/// entry per figure with its title, wall-clock seconds, raw CSV rows, and
/// the flattened [`csv_metrics`] map.
pub fn results_json(scale: &str, entries: &[(f64, &FigureReport)]) -> String {
    use std::collections::BTreeMap;
    use vantage_telemetry::Json;

    let figures: Vec<Json> = entries
        .iter()
        .map(|&(wall_clock_s, report)| {
            let rows: Vec<Json> = report
                .csv
                .lines()
                .map(|line| Json::Arr(line.split(',').map(|c| Json::Str(c.into())).collect()))
                .collect();
            let metrics: BTreeMap<String, Json> = csv_metrics(&report.csv)
                .into_iter()
                .map(|(k, v)| (k, Json::Num(v)))
                .collect();
            let mut obj = BTreeMap::new();
            obj.insert("title".into(), Json::Str(report.title.clone()));
            obj.insert("wall_clock_s".into(), Json::Num(wall_clock_s));
            obj.insert("rows".into(), Json::Arr(rows));
            obj.insert("metrics".into(), Json::Obj(metrics));
            obj.insert("notes".into(), Json::Str(report.notes.clone()));
            Json::Obj(obj)
        })
        .collect();
    let mut root = BTreeMap::new();
    root.insert("version".into(), Json::Num(1.0));
    root.insert("scale".into(), Json::Str(scale.into()));
    root.insert("figures".into(), Json::Arr(figures));
    Json::Obj(root).render_pretty()
}

/// Builds a histogram table of `(bin lower edge, count)` rows.
pub fn histogram_rows(rows: &[(f64, u64)], edge_label: &str) -> Vec<Vec<String>> {
    let mut out = vec![vec![edge_label.to_string(), "pairs".to_string()]];
    for &(edge, count) in rows {
        out.push(vec![format!("{edge:.2}"), count.to_string()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::QueryCostPoint;

    fn sample_series() -> Vec<QueryCostSeries> {
        vec![
            QueryCostSeries {
                name: "vpt(2)".into(),
                build_distances: 1000.0,
                points: vec![QueryCostPoint {
                    range: 0.15,
                    avg_distances: 42.5,
                    avg_results: 1.0,
                }],
            },
            QueryCostSeries {
                name: "mvpt(3,80)".into(),
                build_distances: 900.0,
                points: vec![QueryCostPoint {
                    range: 0.15,
                    avg_distances: 10.25,
                    avg_results: 1.0,
                }],
            },
        ]
    }

    #[test]
    fn table_aligns_columns() {
        let rows = query_cost_rows(&sample_series());
        let table = format_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header, separator, one range, build
        assert!(lines[0].contains("vpt(2)"));
        assert!(lines[2].contains("42.5"));
        assert!(lines[2].contains("10.2"));
        assert!(lines[3].contains("1000"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = query_cost_rows(&sample_series());
        let csv = format_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "query range,vpt(2),mvpt(3,80)");
        assert!(lines[1].starts_with("0.1500,"));
    }

    #[test]
    fn histogram_rows_format() {
        let rows = histogram_rows(&[(0.0, 10), (0.5, 20)], "distance");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], vec!["0.00".to_string(), "10".to_string()]);
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(format_table(&[]).is_empty());
    }

    #[test]
    fn csv_metrics_flattens_numeric_cells() {
        let csv = format_csv(&query_cost_rows(&sample_series()));
        let metrics = csv_metrics(&csv);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing {name} in {metrics:?}"))
                .1
        };
        assert_eq!(get("vpt(2)@0.1500"), 42.5);
        // The CSV renders query costs at {:.1} precision.
        assert_eq!(get("mvpt(3,80)@0.1500"), 10.2);
        assert_eq!(get("vpt(2)@(build)"), 1000.0);
        assert!(csv_metrics("").is_empty());
        // Non-numeric cells are skipped, not errors.
        assert!(csv_metrics("a,b\nx,not-a-number\n").is_empty());
    }

    #[test]
    fn results_json_is_parseable_and_complete() {
        let report = FigureReport {
            title: "Figure 8".into(),
            table: String::new(),
            csv: format_csv(&query_cost_rows(&sample_series())),
            notes: "protocol".into(),
        };
        let text = results_json("quick", &[(1.5, &report)]);
        let root = vantage_telemetry::Json::parse(&text).expect("results.json must parse");
        assert_eq!(root.get("scale").and_then(|v| v.as_str()), Some("quick"));
        let figures = root.get("figures").and_then(|v| v.as_array()).unwrap();
        assert_eq!(figures.len(), 1);
        let fig = &figures[0];
        assert_eq!(fig.get("title").and_then(|v| v.as_str()), Some("Figure 8"));
        assert_eq!(fig.get("wall_clock_s").and_then(|v| v.as_f64()), Some(1.5));
        let metrics = fig.get("metrics").and_then(|v| v.as_object()).unwrap();
        assert_eq!(
            metrics.get("mvpt(3,80)@0.1500").and_then(|v| v.as_f64()),
            Some(10.2)
        );
        assert_eq!(fig.get("rows").and_then(|v| v.as_array()).unwrap().len(), 3);
    }

    #[test]
    fn report_render_includes_notes_and_table() {
        let r = FigureReport {
            title: "Figure X".into(),
            table: "a  b\n".into(),
            csv: String::new(),
            notes: "line one\nline two".into(),
        };
        let s = r.render();
        assert!(s.contains("== Figure X =="));
        assert!(s.contains("   line two"));
        assert!(s.ends_with("a  b\n"));
    }
}
