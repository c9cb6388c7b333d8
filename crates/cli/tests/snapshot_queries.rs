//! `query --index` and `explain --index` through the `vantage` binary:
//! a query of the wrong dimension is refused with exit code 1 on `f64`
//! and byte snapshots alike, and `explain` names the route that answered
//! a byte snapshot's query.

use std::process::{Command, Output};

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "vantage-snapshot-queries-{}-{name}",
        std::process::id()
    ));
    p.to_string_lossy().into_owned()
}

fn vantage(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vantage"))
        .args(argv)
        .output()
        .expect("cannot run vantage")
}

fn vantage_ok(argv: &[&str]) -> String {
    let out = vantage(argv);
    assert!(
        out.status.success(),
        "{argv:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Writes 200 rows of 64 coordinates — integers 0..=255 when `bytes`,
/// else with a fraction — and saves them as an L1 mvp-tree snapshot.
/// Returns the snapshot's path (named after `test`, so tests running
/// in parallel never share a file) and its item encoding.
fn snapshot(test: &str, bytes: bool) -> (String, String) {
    let name = format!("{test}-{}", if bytes { "bytes" } else { "floats" });
    let (data, snap) = (
        temp_path(&format!("{name}.csv")),
        temp_path(&format!("{name}.vsnap")),
    );
    let mut csv = String::new();
    for i in 0..200u32 {
        let row: Vec<String> = (0..64u32)
            .map(|j| {
                let x = (i * 37 + j * 11) % 256;
                if bytes {
                    x.to_string()
                } else {
                    format!("{x}.25")
                }
            })
            .collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    std::fs::write(&data, csv).unwrap();
    vantage_ok(&[
        "build",
        "--data",
        &data,
        "--metric",
        "l1",
        "--structure",
        "mvp",
        "--seed",
        "1",
        "--save",
        &snap,
    ]);
    let _ = std::fs::remove_file(&data);
    let stats = vantage_ok(&["stats", "--index", &snap]);
    let item = if bytes { "u8-vector" } else { "f64-vector" };
    assert!(stats.contains(&format!("200 × {item}")), "{stats}");
    (snap, item.to_string())
}

#[test]
fn a_query_of_the_wrong_dimension_is_refused_on_every_item_encoding() {
    for bytes in [false, true] {
        let (snap, item) = snapshot("wrong-dimension", bytes);
        for command in ["query", "explain"] {
            for ask in [["--knn", "3"], ["--range", "10"]] {
                let out = vantage(&[
                    command, "--index", &snap, ask[0], ask[1], "--query", "1,2,3",
                ]);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "{item} {command} {ask:?}: {stderr}"
                );
                assert_eq!(stderr, "error: query has 3 coordinates, index has 64\n");
                assert!(out.stdout.is_empty(), "{item} {command} {ask:?}");
            }
        }
        let _ = std::fs::remove_file(&snap);
    }
}

#[test]
fn explain_names_the_widened_scan_on_a_byte_snapshot() {
    let (snap, _) = snapshot("route", true);
    let route = |ask: [&str; 2], query: &str| {
        let out = vantage_ok(&[
            "explain", "--index", &snap, ask[0], ask[1], "--query", query,
        ]);
        let line = out.lines().find(|l| l.starts_with("route: "));
        line.unwrap_or_else(|| panic!("no route line: {out}"))
            .to_string()
    };
    let fraction = vec!["0.5"; 64].join(",");
    let widened = "route: widened scan (the query is not all bytes 0..=255, \
                   so each byte row is widened to f64; a scan costs 200 distances)";
    assert_eq!(route(["--knn", "3"], &fraction), widened);
    assert_eq!(route(["--range", "3000"], &fraction), widened);
    // A byte query searches the byte tree: its route is the tree's own.
    let byte = vec!["7"; 64].join(",");
    assert!(!route(["--knn", "3"], &byte).starts_with("route: widened"));
    assert_eq!(
        route(["--range", "3000"], &byte),
        "route: search (only mvp-tree kNN queries are routed)"
    );
    let _ = std::fs::remove_file(&snap);
}
