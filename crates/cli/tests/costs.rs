//! Pins the distance costs `build`, `query` and `explain` report.
//!
//! The paper's cost measure is the number of distance computations, and
//! the CLI prints it on every path: construction cost after `build`, the
//! `cost:` line (and `budget:` line) after `query`, the role split and
//! early-abandon counts after `explain`, and the per-operation totals in
//! a `--metrics` snapshot. Every figure below was recorded once and is a
//! literal here, so any change to how the CLI counts — which wrapper,
//! which sink, which thread — must reproduce each one exactly.

use vantage_telemetry::{export, OpKind};

fn run_ok(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    vantage_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("{argv:?} failed: {e}"));
    out
}

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("vantage-costs-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// The lines of `out` that contain one of `needles`.
fn lines_with(out: &str, needles: &[&str]) -> Vec<String> {
    out.lines()
        .filter(|l| needles.iter().any(|p| l.contains(p)))
        .map(str::to_string)
        .collect()
}

/// The distance totals a `--metrics` snapshot recorded for `op`, with
/// the abandoned work as exact `f64` bits.
fn metrics_line(path: &str, label: &str, op: OpKind) -> String {
    let text = std::fs::read_to_string(path).expect("metrics snapshot written");
    let snapshot = export::from_json(&text).expect("metrics snapshot parses");
    let stats = snapshot
        .index(label)
        .and_then(|i| i.op(op))
        .unwrap_or_else(|| panic!("no {} op under {label}", op.name()));
    format!(
        "metrics {}: distances={} abandoned={} abandoned_work={:#018x}",
        op.name(),
        stats.distances.sum,
        stats.abandoned,
        stats.abandoned_work.to_bits()
    )
}

/// Runs every pinned command and collects its labelled cost lines.
fn observed() -> Vec<String> {
    let data = temp_path("data.csv");
    let metrics = temp_path("metrics.json");
    run_ok(&[
        "generate",
        "clustered",
        "--clusters",
        "24",
        "--size",
        "50",
        "--dim",
        "160",
        "--seed",
        "5",
        "--out",
        &data,
    ]);
    // The first item as the query: its cluster answers the range query.
    let text = std::fs::read_to_string(&data).expect("dataset written");
    let query = text
        .lines()
        .next()
        .expect("dataset is not empty")
        .to_string();
    let query = query.as_str();
    let mut out = Vec::new();
    let mut push = |label: String, lines: Vec<String>| {
        for line in lines {
            out.push(format!("{label}: {line}"));
        }
    };

    for structure in ["mvp", "vp", "linear"] {
        let snap = temp_path(&format!("{structure}.vsnap"));
        for threads in ["1", "4"] {
            let built = run_ok(&[
                "build",
                "--data",
                &data,
                "--save",
                &snap,
                "--structure",
                structure,
                "--seed",
                "3",
                "--threads",
                threads,
                "--metrics",
                &metrics,
            ]);
            let label = format!("build {structure} t={threads}");
            push(label.clone(), lines_with(&built, &["built "]));
            push(
                label,
                vec![metrics_line(&metrics, structure, OpKind::Build)],
            );
        }

        for (flag, value, op) in [
            ("--knn", "7", OpKind::Knn),
            ("--range", "2.0", OpKind::Range),
        ] {
            let data_src = vec!["--data", &data, "--structure", structure, "--seed", "3"];
            for (source, src) in [("data", data_src), ("index", vec!["--index", &snap])] {
                let mut argv = vec!["query"];
                argv.extend(&src);
                argv.extend([flag, value, "--query", query, "--metrics", &metrics]);
                let label = format!("query {structure} {flag} {source}");
                push(
                    label.clone(),
                    lines_with(&run_ok(&argv), &[" results:", "cost:"]),
                );
                push(label, vec![metrics_line(&metrics, structure, op)]);

                let mut argv = vec!["explain"];
                argv.extend(&src);
                argv.extend([flag, value, "--query", query]);
                push(
                    format!("explain {structure} {flag} {source}"),
                    lines_with(
                        &run_ok(&argv),
                        &["distance computations:", "abandoned early:"],
                    ),
                );
            }

            let argv = [
                "query",
                "--data",
                &data,
                "--structure",
                structure,
                "--seed",
                "3",
                flag,
                value,
                "--query",
                query,
                "--shards",
                "2",
                // Parallel shards tighten a shared kNN bound in whatever
                // order they race to it; one worker visits them in turn.
                "--threads",
                "1",
            ];
            push(
                format!("query {structure} {flag} data shards=2"),
                lines_with(&run_ok(&argv), &["cost:"]),
            );
        }

        for (source, src) in [
            (
                "data",
                vec!["--data", &data, "--structure", structure, "--seed", "3"],
            ),
            ("index", vec!["--index", &snap]),
            (
                "data shards=2",
                vec![
                    "--data",
                    &data,
                    "--structure",
                    structure,
                    "--seed",
                    "3",
                    "--shards",
                    "2",
                ],
            ),
        ] {
            let mut argv = vec!["query"];
            argv.extend(&src);
            argv.extend([
                "--knn",
                "7",
                "--query",
                query,
                "--budget",
                "50",
                "--metrics",
                &metrics,
            ]);
            let label = format!("query {structure} --budget 50 {source}");
            push(
                label.clone(),
                lines_with(&run_ok(&argv), &["cost:", "budget:"]),
            );
            push(label, vec![metrics_line(&metrics, structure, OpKind::Knn)]);
        }
        let _ = std::fs::remove_file(&snap);
    }
    for p in [&data, &metrics] {
        let _ = std::fs::remove_file(p);
    }
    out
}

/// Every pinned figure, labelled by the command that printed it.
const PINNED: &[&str] = &[
    "build mvp t=1: built mvp index over 1200 items (6883 distance computations)",
    "build mvp t=1: metrics build: distances=6883 abandoned=0 abandoned_work=0x0000000000000000",
    "build mvp t=4: built mvp index over 1200 items (6883 distance computations)",
    "build mvp t=4: metrics build: distances=6883 abandoned=0 abandoned_work=0x0000000000000000",
    "query mvp --knn data: 7 results:",
    "query mvp --knn data: cost: 475 distance computations over 1200 items (39.6% of linear scan)",
    "query mvp --knn data: metrics knn: distances=475 abandoned=298 abandoned_work=0x406059999999999a",
    "explain mvp --knn data: distance computations: 475 = 164 vantage-point (34.5%) + 311 leaf-candidate (65.5%); 39.6% of linear scan",
    "explain mvp --knn data: abandoned early:       298 = 0 vantage-point + 298 leaf-candidate (est. work ~308 full evaluations)",
    "query mvp --knn index: 7 results:",
    "query mvp --knn index: cost: 475 distance computations over 1200 items (39.6% of linear scan)",
    "query mvp --knn index: metrics knn: distances=475 abandoned=298 abandoned_work=0x406059999999999a",
    "explain mvp --knn index: distance computations: 475 = 164 vantage-point (34.5%) + 311 leaf-candidate (65.5%); 39.6% of linear scan",
    "explain mvp --knn index: abandoned early:       298 = 0 vantage-point + 298 leaf-candidate (est. work ~308 full evaluations)",
    "query mvp --knn data shards=2: cost: 913 distance computations over 1200 items (76.1% of linear scan)",
    "query mvp --range data: 36 results:",
    "query mvp --range data: cost: 486 distance computations over 1200 items (40.5% of linear scan)",
    "query mvp --range data: metrics range: distances=486 abandoned=291 abandoned_work=0x405e8ccccccccccd",
    "explain mvp --range data: distance computations: 486 = 164 vantage-point (33.7%) + 322 leaf-candidate (66.3%); 40.5% of linear scan",
    "explain mvp --range data: abandoned early:       291 = 0 vantage-point + 291 leaf-candidate (est. work ~317 full evaluations)",
    "query mvp --range index: 36 results:",
    "query mvp --range index: cost: 486 distance computations over 1200 items (40.5% of linear scan)",
    "query mvp --range index: metrics range: distances=486 abandoned=291 abandoned_work=0x405e8ccccccccccd",
    "explain mvp --range index: distance computations: 486 = 164 vantage-point (33.7%) + 322 leaf-candidate (66.3%); 40.5% of linear scan",
    "explain mvp --range index: abandoned early:       291 = 0 vantage-point + 291 leaf-candidate (est. work ~317 full evaluations)",
    "query mvp --range data shards=2: cost: 804 distance computations over 1200 items (67.0% of linear scan)",
    "query mvp --budget 50 data: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query mvp --budget 50 data: budget: spent 50 of 50 (exhausted), estimated recall 0.829",
    "query mvp --budget 50 data: metrics knn: distances=50 abandoned=16 abandoned_work=0x401b333333333333",
    "query mvp --budget 50 index: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query mvp --budget 50 index: budget: spent 50 of 50 (exhausted), estimated recall 0.829",
    "query mvp --budget 50 index: metrics knn: distances=50 abandoned=16 abandoned_work=0x401b333333333333",
    "query mvp --budget 50 data shards=2: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query mvp --budget 50 data shards=2: budget: spent 50 of 50 (exhausted), estimated recall 0.800",
    "query mvp --budget 50 data shards=2: metrics knn: distances=50 abandoned=18 abandoned_work=0x4032000000000000",
    "build vp t=1: built vp index over 1200 items (9964 distance computations)",
    "build vp t=1: metrics build: distances=9964 abandoned=0 abandoned_work=0x0000000000000000",
    "build vp t=4: built vp index over 1200 items (9964 distance computations)",
    "build vp t=4: metrics build: distances=9964 abandoned=0 abandoned_work=0x0000000000000000",
    "query vp --knn data: 7 results:",
    "query vp --knn data: cost: 573 distance computations over 1200 items (47.8% of linear scan)",
    "query vp --knn data: metrics knn: distances=573 abandoned=157 abandoned_work=0x4051733333333333",
    "explain vp --knn data: distance computations: 573 = 412 vantage-point (71.9%) + 161 leaf-candidate (28.1%); 47.8% of linear scan",
    "explain vp --knn data: abandoned early:       157 = 0 vantage-point + 157 leaf-candidate (est. work ~486 full evaluations)",
    "query vp --knn index: 7 results:",
    "query vp --knn index: cost: 573 distance computations over 1200 items (47.8% of linear scan)",
    "query vp --knn index: metrics knn: distances=573 abandoned=157 abandoned_work=0x4051733333333333",
    "explain vp --knn index: distance computations: 573 = 412 vantage-point (71.9%) + 161 leaf-candidate (28.1%); 47.8% of linear scan",
    "explain vp --knn index: abandoned early:       157 = 0 vantage-point + 157 leaf-candidate (est. work ~486 full evaluations)",
    "query vp --knn data shards=2: cost: 689 distance computations over 1200 items (57.4% of linear scan)",
    "query vp --range data: 36 results:",
    "query vp --range data: cost: 573 distance computations over 1200 items (47.8% of linear scan)",
    "query vp --range data: metrics range: distances=573 abandoned=145 abandoned_work=0x404e19999999999a",
    "explain vp --range data: distance computations: 573 = 412 vantage-point (71.9%) + 161 leaf-candidate (28.1%); 47.8% of linear scan",
    "explain vp --range data: abandoned early:       145 = 0 vantage-point + 145 leaf-candidate (est. work ~488 full evaluations)",
    "query vp --range index: 36 results:",
    "query vp --range index: cost: 573 distance computations over 1200 items (47.8% of linear scan)",
    "query vp --range index: metrics range: distances=573 abandoned=145 abandoned_work=0x404e19999999999a",
    "explain vp --range index: distance computations: 573 = 412 vantage-point (71.9%) + 161 leaf-candidate (28.1%); 47.8% of linear scan",
    "explain vp --range index: abandoned early:       145 = 0 vantage-point + 145 leaf-candidate (est. work ~488 full evaluations)",
    "query vp --range data shards=2: cost: 690 distance computations over 1200 items (57.5% of linear scan)",
    "query vp --budget 50 data: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query vp --budget 50 data: budget: spent 50 of 50 (exhausted), estimated recall 0.871",
    "query vp --budget 50 data: metrics knn: distances=50 abandoned=4 abandoned_work=0x400199999999999a",
    "query vp --budget 50 index: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query vp --budget 50 index: budget: spent 50 of 50 (exhausted), estimated recall 0.871",
    "query vp --budget 50 index: metrics knn: distances=50 abandoned=4 abandoned_work=0x400199999999999a",
    "query vp --budget 50 data shards=2: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query vp --budget 50 data shards=2: budget: spent 50 of 50 (exhausted), estimated recall 0.861",
    "query vp --budget 50 data shards=2: metrics knn: distances=50 abandoned=6 abandoned_work=0x4017333333333333",
    "build linear t=1: built linear index over 1200 items (0 distance computations)",
    "build linear t=1: metrics build: distances=0 abandoned=0 abandoned_work=0x0000000000000000",
    "build linear t=4: built linear index over 1200 items (0 distance computations)",
    "build linear t=4: metrics build: distances=0 abandoned=0 abandoned_work=0x0000000000000000",
    "query linear --knn data: 7 results:",
    "query linear --knn data: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --knn data: metrics knn: distances=1200 abandoned=1188 abandoned_work=0x407ea00000000000",
    "explain linear --knn data: distance computations: 1,200 = 0 vantage-point (0.0%) + 1,200 leaf-candidate (100.0%); 100.0% of linear scan",
    "explain linear --knn data: abandoned early:       1,188 = 0 vantage-point + 1,188 leaf-candidate (est. work ~502 full evaluations)",
    "query linear --knn index: 7 results:",
    "query linear --knn index: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --knn index: metrics knn: distances=1200 abandoned=1188 abandoned_work=0x407ea00000000000",
    "explain linear --knn index: distance computations: 1,200 = 0 vantage-point (0.0%) + 1,200 leaf-candidate (100.0%); 100.0% of linear scan",
    "explain linear --knn index: abandoned early:       1,188 = 0 vantage-point + 1,188 leaf-candidate (est. work ~502 full evaluations)",
    "query linear --knn data shards=2: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --range data: 36 results:",
    "query linear --range data: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --range data: metrics range: distances=1200 abandoned=1164 abandoned_work=0x407d866666666666",
    "explain linear --range data: distance computations: 1,200 = 0 vantage-point (0.0%) + 1,200 leaf-candidate (100.0%); 100.0% of linear scan",
    "explain linear --range data: abandoned early:       1,164 = 0 vantage-point + 1,164 leaf-candidate (est. work ~508 full evaluations)",
    "query linear --range index: 36 results:",
    "query linear --range index: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --range index: metrics range: distances=1200 abandoned=1164 abandoned_work=0x407d866666666666",
    "explain linear --range index: distance computations: 1,200 = 0 vantage-point (0.0%) + 1,200 leaf-candidate (100.0%); 100.0% of linear scan",
    "explain linear --range index: abandoned early:       1,164 = 0 vantage-point + 1,164 leaf-candidate (est. work ~508 full evaluations)",
    "query linear --range data shards=2: cost: 1200 distance computations over 1200 items (100.0% of linear scan)",
    "query linear --budget 50 data: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query linear --budget 50 data: budget: spent 50 of 50 (exhausted), estimated recall 0.042",
    "query linear --budget 50 data: metrics knn: distances=50 abandoned=38 abandoned_work=0x403e000000000000",
    "query linear --budget 50 index: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query linear --budget 50 index: budget: spent 50 of 50 (exhausted), estimated recall 0.042",
    "query linear --budget 50 index: metrics knn: distances=50 abandoned=38 abandoned_work=0x403e000000000000",
    "query linear --budget 50 data shards=2: cost: 50 distance computations over 1200 items (4.2% of linear scan)",
    "query linear --budget 50 data shards=2: budget: spent 50 of 50 (exhausted), estimated recall 0.042",
    "query linear --budget 50 data shards=2: metrics knn: distances=50 abandoned=31 abandoned_work=0x4038666666666666",
];

#[test]
fn cli_costs_match_the_pinned_figures() {
    let observed = observed();
    let rendered: String = observed.iter().map(|l| format!("    {l:?},\n")).collect();
    let first_diff = observed
        .iter()
        .zip(PINNED)
        .position(|(a, b)| a != b)
        .unwrap_or(observed.len().min(PINNED.len()));
    assert!(
        observed.len() == PINNED.len() && first_diff == observed.len(),
        "CLI costs moved (first difference at line {first_diff}); observed:\n{rendered}"
    );
}

/// `KNN 0` asks for nothing, so no structure may compute a distance for
/// it: unsharded and sharded from `--data`, and from a snapshot.
#[test]
fn knn_zero_computes_no_distance_on_any_structure() {
    let data = temp_path("knn0.csv");
    run_ok(&[
        "generate", "uniform", "--n", "300", "--dim", "6", "--seed", "8", "--out", &data,
    ]);
    let query = "0.5,0.5,0.5,0.5,0.5,0.5";
    for structure in ["mvp", "vp", "linear"] {
        let snap = temp_path(&format!("knn0-{structure}.vsnap"));
        run_ok(&[
            "build",
            "--data",
            &data,
            "--metric",
            "l2",
            "--structure",
            structure,
            "--save",
            &snap,
        ]);
        let runs: [&[&str]; 3] = [
            &["--data", &data, "--structure", structure],
            &["--data", &data, "--structure", structure, "--shards", "2"],
            &["--index", &snap],
        ];
        for source in runs {
            let mut argv = vec!["query", "--metric", "l2", "--knn", "0", "--query", query];
            argv.extend_from_slice(source);
            let out = run_ok(&argv);
            assert_eq!(
                lines_with(&out, &["results", "cost:"]),
                [
                    "0 results:",
                    "cost: 0 distance computations over 300 items (0.0% of linear scan)"
                ],
                "{source:?}"
            );
        }
        let _ = std::fs::remove_file(&snap);
    }
    let _ = std::fs::remove_file(&data);
}
