//! `vantage stats --metrics` through the binary, on metrics snapshots
//! written by an older build.

use std::process::{Command, Output, Stdio};

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "vantage-metrics-test-{}-{name}",
        std::process::id()
    ));
    p.to_string_lossy().into_owned()
}

fn vantage(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vantage"))
        .args(argv)
        .stdin(Stdio::null())
        .output()
        .expect("cannot run vantage")
}

fn vantage_ok(argv: &[&str]) {
    let out = vantage(argv);
    assert!(out.status.success(), "{argv:?}: {out:?}");
}

/// Snapshots once held `batch_range`/`batch_knn` ops. Those kinds are
/// gone, so such a file is refused with an error that names the kind:
/// exit 1, not a panic (101).
#[test]
fn a_snapshot_with_a_retired_op_kind_is_refused_by_name() {
    let (data, metrics, old) = (
        temp_path("data.csv"),
        temp_path("metrics.json"),
        temp_path("batch.json"),
    );
    vantage_ok(&[
        "generate", "uniform", "--n", "100", "--dim", "3", "--seed", "1", "--out", &data,
    ]);
    vantage_ok(&[
        "query",
        "--data",
        &data,
        "--knn",
        "2",
        "--query",
        "0.5,0.5,0.5",
        "--metrics",
        &metrics,
    ]);
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"knn\""), "{json}");
    std::fs::write(&old, json.replace("\"knn\"", "\"batch_knn\"")).unwrap();

    let out = vantage(&["stats", "--metrics", &old]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown op kind `batch_knn`"), "{stderr}");
    for path in [data, metrics, old] {
        let _ = std::fs::remove_file(path);
    }
}
