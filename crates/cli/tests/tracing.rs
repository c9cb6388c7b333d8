//! End-to-end tests for `vantage serve` request tracing: deterministic
//! sampling across client thread counts, answer-neutrality of the
//! traced path, per-shard span accounting, the slow-query log, the
//! `SLOW`/`TRACE`/`SLO` protocol surface, and the Chrome trace export.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vantage_telemetry::{export, Json};

fn run(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    match vantage_cli::run(&argv, &mut out) {
        Ok(()) => Ok(out),
        Err(e) => Err(e.to_string()),
    }
}

fn run_ok(argv: &[&str]) -> String {
    run(argv).unwrap_or_else(|e| panic!("cli failed: {e}"))
}

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("vantage-trace-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Spawns `vantage serve` on an ephemeral port in a background thread and
/// returns `(addr, join handle)` once the server has published its
/// address.
fn spawn_server(
    mut argv: Vec<String>,
) -> (String, std::thread::JoinHandle<Result<String, String>>) {
    let addr_file = temp_path(&format!("addr-{:?}", std::thread::current().id()));
    let _ = std::fs::remove_file(&addr_file);
    argv.extend(["--addr".into(), "127.0.0.1:0".into()]);
    argv.extend(["--addr-file".into(), addr_file.clone()]);
    let handle = std::thread::spawn(move || {
        let mut out = String::new();
        vantage_cli::run(&argv, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string())
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                let _ = std::fs::remove_file(&addr_file);
                return (addr, handle);
            }
        }
        assert!(
            Instant::now() < deadline,
            "server did not publish its address in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A persistent line-protocol connection (unlike `vantage client`, which
/// reconnects per command — connection reuse matters for the
/// thread-count experiments below).
struct Line {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Line {
    fn connect(addr: &str) -> Line {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let writer = stream.try_clone().expect("clone stream");
                    return Line {
                        reader: BufReader::new(stream),
                        writer,
                    };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn send(&mut self, command: &str) -> String {
        self.writer
            .write_all(command.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }
}

/// Parses an `OK <json>` reply body.
fn ok_json(reply: &str) -> Json {
    let body = reply
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("expected OK reply, got: {reply}"));
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON in reply: {e}"))
}

/// A deterministic mixed query workload over 4-dim vectors in the unit
/// cube (matching `generate uniform` output).
fn workload(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let a = (i % 10) as f64 / 10.0;
            let b = (i % 7) as f64 / 7.0;
            let q = format!("{a},{b},0.25,0.75");
            match i % 4 {
                0 | 1 => format!("KNN 5 {q}"),
                2 => format!("RANGE 0.6 {q}"),
                _ => format!("KFN 3 {q}"),
            }
        })
        .collect()
}

/// Extracts the set of captured trace IDs from a `SLOW <n>` reply.
fn captured_ids(slow_reply: &str) -> std::collections::BTreeSet<String> {
    ok_json(slow_reply)
        .as_array()
        .expect("SLOW returns an array")
        .iter()
        .map(|r| {
            r.get("id")
                .and_then(Json::as_str)
                .expect("trace has an id")
                .to_string()
        })
        .collect()
}

#[test]
fn sampling_is_deterministic_across_client_thread_counts() {
    let data = temp_path("det-data.csv");
    let snap = temp_path("det-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "150", "--dim", "4", "--seed", "21", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let serve_args: Vec<String> = [
        "serve",
        "--index",
        &snap,
        "--seed",
        "5",
        "--trace-sample",
        "4",
        "--slow-ms",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let lines = Arc::new(workload(160));

    // Same request stream, one connection, sequential.
    let (addr_a, server_a) = spawn_server(serve_args.clone());
    let mut conn = Line::connect(&addr_a);
    for line in lines.iter() {
        assert!(conn.send(line).starts_with("OK "), "query failed: {line}");
    }
    let ids_sequential = captured_ids(&conn.send("SLOW 1000"));
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server_a.join().unwrap().unwrap();

    // Same request stream, 4 threads, striped across 4 connections.
    let (addr_b, server_b) = spawn_server(serve_args);
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr_b.clone();
            let lines = Arc::clone(&lines);
            std::thread::spawn(move || {
                let mut conn = Line::connect(&addr);
                let mut i = t;
                while i < lines.len() {
                    assert!(conn.send(&lines[i]).starts_with("OK "));
                    i += 4;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let mut conn = Line::connect(&addr_b);
    let ids_threaded = captured_ids(&conn.send("SLOW 1000"));
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server_b.join().unwrap().unwrap();

    // The sampled *set* is a pure function of (seed, request line): the
    // client-side thread count and arrival order must not change it.
    assert!(!ids_sequential.is_empty(), "sampler kept nothing");
    assert!(
        ids_sequential.len() < lines.len() / 2,
        "1-in-4 sampling kept too much: {}",
        ids_sequential.len()
    );
    assert_eq!(ids_sequential, ids_threaded);

    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn traced_replies_are_byte_identical_and_shard_spans_sum_to_totals() {
    let data = temp_path("neutral-data.csv");
    let snap = temp_path("neutral-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "240", "--dim", "4", "--seed", "13", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    // Every request traced (--trace-sample 1), sharded 3 ways: the smoke
    // harness checks each reply byte-for-byte against a direct untraced,
    // unsharded run — tracing must be answer-neutral.
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--shards".into(),
        "3".into(),
        "--seed".into(),
        "13".into(),
        "--trace-sample".into(),
        "1".into(),
        "--slow-ms".into(),
        "0".into(),
        "--trace-ring".into(),
        "512".into(),
    ]);
    let smoke = run_ok(&[
        "serve-smoke",
        "--addr",
        &addr,
        "--index",
        &snap,
        "--threads",
        "4",
        "--queries",
        "120",
        "--reloads",
        "1",
    ]);
    assert!(smoke.contains("PASS"), "{smoke}");

    let mut conn = Line::connect(&addr);
    let info = conn.send("INFO");
    assert!(info.contains("uptime_s="), "{info}");

    // Pull captured traces: every sampled static-sharded trace must hold
    // one parse span, one span per shard, a merge and a reply span.
    let slow = ok_json(&conn.send("SLOW 64"));
    let records = slow.as_array().expect("array");
    assert!(!records.is_empty(), "no traces captured");
    let mut verified = 0;
    for record in records {
        let spans = record.get("spans").and_then(Json::as_array).expect("spans");
        let shard_spans: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("shard"))
            .collect();
        if shard_spans.is_empty() {
            continue; // captured on a non-sharded path
        }
        assert_eq!(shard_spans.len(), 3, "one span per shard");
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for phase in ["parse", "merge", "reply"] {
            assert!(names.contains(&phase), "missing {phase} span in {names:?}");
        }
        verified += 1;
    }
    assert!(verified > 0, "no sharded traces verified");

    // With the server now quiescent (smoke connections closed, this is
    // the only client), issue one fresh query and check the acceptance
    // contract: the tallies its shard spans carry sum exactly to the
    // descent profile's own counts — two independent measurement
    // channels agreeing. k=7 is unique to this query (the
    // smoke workload uses k=5 and k=3), so its record is unambiguous.
    let reply = conn.send("KNN 7 0.123,0.456,0.789,0.321");
    assert!(reply.starts_with("OK "), "{reply}");
    let slow = ok_json(&conn.send("SLOW 512"));
    let quiet = slow
        .as_array()
        .expect("array")
        .iter()
        .find(|r| {
            r.get("verb").and_then(Json::as_str) == Some("KNN")
                && r.get("results").and_then(Json::as_u64) == Some(7)
        })
        .expect("freshly traced KNN 7 present in ring");
    let spans = quiet.get("spans").and_then(Json::as_array).expect("spans");
    let shard_spans: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("shard"))
        .collect();
    assert_eq!(shard_spans.len(), 3, "one span per shard");
    let span_distances: u64 = shard_spans
        .iter()
        .filter_map(|s| s.get("distances").and_then(Json::as_u64))
        .sum();
    let span_abandoned: u64 = shard_spans
        .iter()
        .filter_map(|s| s.get("abandoned").and_then(Json::as_u64))
        .sum();
    let profile = quiet.get("profile").expect("sampled trace has profile");
    let sum_roles = |key: &str| -> u64 {
        profile
            .get(key)
            .and_then(Json::as_object)
            .map(|roles| roles.values().filter_map(Json::as_u64).sum())
            .unwrap_or(0)
    };
    assert_eq!(
        span_distances,
        sum_roles("distances"),
        "probe deltas and descent profile disagree: {quiet:?}"
    );
    assert_eq!(
        span_abandoned,
        sum_roles("abandoned"),
        "probe abandon deltas and descent profile disagree: {quiet:?}"
    );
    assert!(span_distances > 0, "query computed no distances");

    // TRACE round-trip by id.
    let first_id = records[0]
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string();
    let traced = ok_json(&conn.send(&format!("TRACE {first_id}")));
    assert_eq!(
        traced.get("id").and_then(Json::as_str),
        Some(first_id.as_str())
    );
    let missing = conn.send("TRACE 00000000000000aa");
    assert!(missing.starts_with("ERR"), "{missing}");

    // Live SLO surface: windowed percentiles per op kind with exemplars.
    let slo = ok_json(&conn.send("SLO"));
    let knn = slo.get("knn").expect("knn SLO entry");
    assert!(knn.get("count").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(knn.get("p99_ns").and_then(Json::as_u64).unwrap_or(0) > 0);
    let exemplar = knn.get("worst_trace").and_then(Json::as_str).expect("hex");
    assert_eq!(exemplar.len(), 16, "{exemplar}");

    // STATS carries the SLO gauges and the uptime/timestamp gauges.
    let stats = conn.send("STATS");
    assert!(stats.contains("slo/knn/p99_ns"), "{stats}");
    assert!(stats.contains("serve/uptime_s"), "{stats}");
    assert!(stats.contains("serve/started_unix_ms"), "{stats}");
    assert!(stats.contains("serve/gen0/loaded_unix_ms"), "{stats}");
    assert!(stats.contains("serve/gen1/loaded_unix_ms"), "{stats}");
    drop(conn);

    // Chrome trace-event export through the `vantage trace` client.
    let export_path = temp_path("neutral-trace.json");
    let out = run_ok(&["trace", "--addr", &addr, "--export", &export_path]);
    assert!(out.contains("exported to"), "{out}");
    let chrome = Json::parse(&std::fs::read_to_string(&export_path).expect("export written"))
        .expect("chrome JSON parses");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    let mut conn = Line::connect(&addr);
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server.join().unwrap().unwrap();
    for p in [&data, &snap, &export_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn slow_queries_land_in_the_log_with_synthesized_spans() {
    let data = temp_path("slow-data.csv");
    let snap = temp_path("slow-index.vantage");
    let slow_log = temp_path("slow-log.jsonl");
    let metrics_out = temp_path("slow-metrics.json");
    let _ = std::fs::remove_file(&slow_log);
    run_ok(&[
        "generate", "uniform", "--n", "120", "--dim", "4", "--seed", "3", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    // Head sampling off, slow threshold far below any real latency:
    // every query goes through the slow-only capture path, which
    // synthesizes a single search span from the measured latency+cost.
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--trace-sample".into(),
        "0".into(),
        "--slow-ms".into(),
        "0.00001".into(),
        "--slow-log".into(),
        slow_log.clone(),
        "--metrics-out".into(),
        metrics_out.clone(),
    ]);
    let mut conn = Line::connect(&addr);
    for line in workload(12) {
        assert!(conn.send(&line).starts_with("OK "));
    }
    let slow = ok_json(&conn.send("SLOW 20"));
    assert_eq!(slow.as_array().map(<[Json]>::len), Some(12));
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server.join().unwrap().unwrap();

    let log = std::fs::read_to_string(&slow_log).expect("slow log written");
    let entries: Vec<Json> = log
        .lines()
        .map(|l| Json::parse(l).expect("slow-log line parses"))
        .collect();
    assert_eq!(entries.len(), 12, "one JSON line per slow query");
    for entry in &entries {
        assert_eq!(entry.get("slow"), Some(&Json::Bool(true)));
        assert_eq!(entry.get("sampled"), Some(&Json::Bool(false)));
        assert_eq!(
            entry.get("id").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        let spans = entry.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(spans.len(), 1, "synthesized traces carry one span");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("search"));
        assert!(
            spans[0]
                .get("distances")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0
        );
    }

    // Satellite: uptime and load timestamps survive into the flushed
    // metrics snapshot as gauges.
    let text = std::fs::read_to_string(&metrics_out).expect("metrics written");
    let snapshot = export::from_json(&text).expect("metrics parse");
    assert!(snapshot.gauge("serve/uptime_s").is_some());
    assert!(snapshot.gauge("serve/started_unix_ms").unwrap_or(0) > 0);
    assert!(snapshot.gauge("serve/gen0/loaded_unix_ms").unwrap_or(0) > 0);

    for p in [&data, &snap, &slow_log, &metrics_out] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dynamic_mode_traces_carry_a_single_search_span() {
    let data = temp_path("dyntrace-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "80", "--dim", "3", "--seed", "11", "--out", &data,
    ]);
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--data".into(),
        data.clone(),
        "--metric".into(),
        "l2".into(),
        "--trace-sample".into(),
        "1".into(),
        "--slow-ms".into(),
        "0".into(),
    ]);
    let mut conn = Line::connect(&addr);
    assert!(conn.send("KNN 3 0.5,0.5,0.5").starts_with("OK 3 "));
    let slow = ok_json(&conn.send("SLOW 5"));
    let records = slow.as_array().expect("array");
    assert_eq!(records.len(), 1);
    let spans = records[0]
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"search"), "{names:?}");
    assert!(names.contains(&"reply"), "{names:?}");
    assert!(!names.contains(&"shard"), "{names:?}");
    // The pinned generation answers through a descent sink as well: the
    // profile's per-role counts sum to the search span's own tally.
    let profile = records[0]
        .get("profile")
        .expect("dynamic traces carry a profile");
    let roles = profile.get("distances").expect("per-role distances");
    let role_sum: u64 = ["vantage-point", "leaf-candidate"]
        .iter()
        .map(|role| roles.get(role).and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let search_distances = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("search"))
        .and_then(|s| s.get("distances"))
        .and_then(Json::as_u64);
    assert!(role_sum > 0);
    assert_eq!(Some(role_sum), search_distances);
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&data);
}

/// The spans of the sampled trace whose reply held `results` hits.
fn spans_of(records: &[Json], results: u64) -> Vec<String> {
    let record = records
        .iter()
        .find(|r| r.get("results").and_then(Json::as_u64) == Some(results))
        .unwrap_or_else(|| panic!("no trace with {results} results"));
    let spans = record.get("spans").and_then(Json::as_array).expect("spans");
    spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_byte_snapshot_query_is_parsed_once() {
    // 64-d integer rows: `build` saves them as a `u8-vector` snapshot.
    let data = temp_path("bytetrace-data.csv");
    let snap = temp_path("bytetrace.vantage");
    let rows: Vec<String> = (0..100u32)
        .map(|i| {
            let row: Vec<String> = (0..64u32)
                .map(|j| ((i * 31 + j * 7) % 256).to_string())
                .collect();
            row.join(",") + "\n"
        })
        .collect();
    std::fs::write(&data, rows.concat()).unwrap();
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l1"]);
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--trace-sample".into(),
        "1".into(),
        "--slow-ms".into(),
        "0".into(),
    ]);
    let mut conn = Line::connect(&addr);
    assert!(conn.send("INFO").contains(" item=u8-vector "));
    // Plain bytes, bytes written as `.0` floats, and a fractional query
    // (the widened scan); `k` tells their traces apart.
    let queries = [
        vec!["9"; 64].join(","),
        vec!["9.0"; 64].join(","),
        vec!["9.5"; 64].join(","),
    ];
    for (k, query) in (3..).zip(&queries) {
        let reply = conn.send(&format!("KNN {k} {query}"));
        assert!(reply.starts_with(&format!("OK {k} ")), "{reply}");
    }
    let slow = ok_json(&conn.send("SLOW 16"));
    let records = slow.as_array().expect("array");
    for k in 3..3 + queries.len() as u64 {
        let names = spans_of(records, k);
        let parses = names.iter().filter(|n| *n == "parse").count();
        assert_eq!(parses, 1, "k = {k}: {names:?}");
        assert!(names.iter().any(|n| n == "search"), "k = {k}: {names:?}");
    }
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server.join().unwrap().unwrap();
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dynamic_mode_far_scans_report_one_leaf_visit() {
    let data = temp_path("dynleaf-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "60", "--dim", "3", "--seed", "4", "--out", &data,
    ]);
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--data".into(),
        data.clone(),
        "--trace-sample".into(),
        "1".into(),
        "--slow-ms".into(),
        "0".into(),
    ]);
    let mut conn = Line::connect(&addr);
    // Beyond and kFN scan the whole live set: one leaf visit each.
    assert!(conn.send("KFN 2 0.5,0.5,0.5").starts_with("OK 2 "));
    assert!(conn.send("BEYOND 0 0.5,0.5,0.5").starts_with("OK 60 "));
    let slow = ok_json(&conn.send("SLOW 8"));
    let records = slow.as_array().expect("array");
    assert_eq!(records.len(), 2);
    for record in records {
        let profile = record.get("profile").expect("profile");
        let leaves = profile.get("leaves_visited").and_then(Json::as_u64);
        assert_eq!(leaves, Some(1), "{}", record.render());
    }
    assert_eq!(conn.send("SHUTDOWN"), "OK bye");
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&data);
}
