//! End-to-end tests for `vantage serve`: a real TCP server on an
//! ephemeral port, concurrent smoke clients issuing queries during live
//! `RELOAD` swaps, the dynamic ingest mode, and the typed
//! metric-mismatch errors on every snapshot-loading path.

use std::time::{Duration, Instant};

use vantage_telemetry::export;

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
    p.push(format!("vantage-serve-test-{}-{name}", std::process::id()));
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

fn client(addr: &str, cmd: &str) -> String {
    run_ok(&["client", "--addr", addr, "--cmd", cmd])
        .trim_end()
        .to_string()
}

#[test]
fn smoke_clients_stay_bit_identical_across_live_reloads() {
    let data = temp_path("smoke-data.csv");
    let snap = temp_path("smoke-index.vantage");
    let metrics_out = temp_path("smoke-metrics.json");
    run_ok(&[
        "generate", "uniform", "--n", "250", "--dim", "4", "--seed", "7", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--index".into(),
        snap.clone(),
        "--metrics-out".into(),
        metrics_out.clone(),
    ]);

    // 4 client threads replay a scripted workload (KNN/RANGE/KFN derived
    // from the snapshot's own items) while 2 RELOADs swap the index live;
    // every reply must match a direct run against the loaded snapshot
    // byte-for-byte, with zero failures.
    let smoke = run_ok(&[
        "serve-smoke",
        "--addr",
        &addr,
        "--index",
        &snap,
        "--threads",
        "4",
        "--queries",
        "160",
        "--reloads",
        "2",
    ]);
    assert!(smoke.contains("PASS"), "{smoke}");
    assert!(smoke.contains("threads=4"), "{smoke}");
    assert!(smoke.contains("reloads=2"), "{smoke}");

    // A reload whose snapshot holds a different metric is refused with a
    // typed mismatch error on the wire — the old generation keeps serving.
    let wrong = temp_path("smoke-wrong-metric.vantage");
    run_ok(&["build", "--data", &data, "--save", &wrong, "--metric", "l1"]);
    let reply = client(&addr, &format!("RELOAD {wrong}"));
    assert!(
        reply.starts_with("ERR") && reply.contains("snapshot metric mismatch"),
        "{reply}"
    );
    let info = client(&addr, "INFO");
    assert!(
        info.contains("mode=static") && info.contains("generation=2"),
        "{info}"
    );

    assert!(client(&addr, "PING") == "OK pong");
    let stats = client(&addr, "STATS");
    assert!(stats.starts_with("OK {"), "{stats}");

    let reply = client(&addr, "SHUTDOWN");
    assert_eq!(reply, "OK bye");
    let out = server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    assert!(out.contains("shut down cleanly"), "{out}");

    // The flushed metrics snapshot carries per-generation serving labels
    // and the swap/generation gauges.
    let text = std::fs::read_to_string(&metrics_out).expect("metrics snapshot written");
    let snapshot = export::from_json(&text).expect("metrics snapshot parses");
    assert_eq!(snapshot.gauge("serve/generation"), Some(2));
    assert_eq!(snapshot.gauge("serve/swaps"), Some(2));
    assert_eq!(snapshot.gauge("serve/in_flight"), Some(0));
    assert!(
        snapshot.index("serve/gen0").is_some(),
        "per-generation label missing"
    );
    assert!(
        snapshot.index("serve/gen2").is_some(),
        "post-reload label missing"
    );

    for p in [&data, &snap, &wrong, &metrics_out] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sharded_server_replies_are_bit_identical_to_the_unsharded_snapshot() {
    let data = temp_path("shard-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "220", "--dim", "4", "--seed", "13", "--out", &data,
    ]);

    for structure in ["vp", "mvp", "linear"] {
        let snap = temp_path(&format!("shard-index-{structure}.vantage"));
        run_ok(&[
            "build",
            "--data",
            &data,
            "--save",
            &snap,
            "--metric",
            "l2",
            "--structure",
            structure,
        ]);

        // Unsharded, a tree snapshot is served in place and a linear
        // scan from its copied-out items.
        let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);
        let info = client(&addr, "INFO");
        let layout = match structure {
            "linear" => "layout=decoded",
            _ if cfg!(unix) => "layout=mmap",
            _ => "layout=read",
        };
        assert!(
            info.contains(&format!("structure={structure} ")) && info.contains(layout),
            "{structure}: {info}"
        );
        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");

        let (addr, server) = spawn_server(vec![
            "serve".into(),
            "--index".into(),
            snap.clone(),
            "--shards".into(),
            "4".into(),
        ]);
        let info = client(&addr, "INFO");
        assert!(
            info.contains("mode=static")
                && info.contains("shards=4")
                && info.contains("layout=decoded"),
            "{structure}: {info}"
        );

        // The smoke harness computes every expected reply from a direct,
        // *unsharded* load of the snapshot — so a passing run is exactly
        // the bit-identity guarantee, across live RELOAD swaps (which
        // rebuild the sharded layout) too.
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
        assert!(smoke.contains("PASS"), "{structure}: {smoke}");

        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
        let _ = std::fs::remove_file(&snap);
    }

    // The dynamic engine has no sharded mode: refuse, don't mis-serve.
    let e = run(&["serve", "--data", &data, "--shards", "2"]).expect_err("must refuse");
    assert!(e.contains("snapshot (--index) mode"), "{e}");
    let _ = std::fs::remove_file(&data);
}

/// Sends `lines` over one connection, one request at a time, and checks
/// every reply is an answer.
fn send_all(addr: &str, lines: &[String]) {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    for line in lines {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK "), "{line}: {reply}");
    }
}

#[test]
fn served_query_costs_are_exact_under_concurrent_load() {
    // A linear scan computes exactly n distances per KNN, so every
    // query's recorded cost must be n however many queries run beside
    // it — each query counts its own distances, sharded or not, and in
    // dynamic mode whatever rebuilds run beside it.
    const N: u64 = 4000;
    const CONNECTIONS: usize = 4;
    const PER_CONNECTION: usize = 250;
    let data = temp_path("exact-cost-data.csv");
    let snap = temp_path("exact-cost-index.vantage");
    let n = N.to_string();
    run_ok(&[
        "generate", "uniform", "--n", &n, "--dim", "8", "--seed", "4", "--out", &data,
    ]);
    run_ok(&[
        "build",
        "--data",
        &data,
        "--save",
        &snap,
        "--metric",
        "l2",
        "--structure",
        "linear",
    ]);

    for shards in ["1", "2"] {
        let (addr, server) = spawn_server(vec![
            "serve".into(),
            "--index".into(),
            snap.clone(),
            "--shards".into(),
            shards.into(),
        ]);
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = addr.clone();
                let lines: Vec<String> = (0..PER_CONNECTION)
                    .map(|i| {
                        let x = (c * PER_CONNECTION + i) as f64 / 1000.0;
                        format!("KNN 5 {x},0.5,0.25,{x},0.75,0.5,{x},0.1")
                    })
                    .collect();
                std::thread::spawn(move || send_all(&addr, &lines))
            })
            .collect();
        for c in clients {
            c.join().expect("client panicked");
        }

        let stats = client(&addr, "STATS");
        let json = stats.strip_prefix("OK ").expect("STATS answers OK");
        let snapshot = export::from_json(json).expect("STATS parses");
        let knn = snapshot
            .index("serve/gen0")
            .and_then(|i| i.op(vantage_telemetry::OpKind::Knn))
            .expect("knn recorded");
        let count = (CONNECTIONS * PER_CONNECTION) as u64;
        assert_eq!(knn.ops, count, "shards={shards}");
        assert_eq!(knn.distances.count, count, "shards={shards}");
        assert_eq!(knn.distances.min, N, "shards={shards}");
        assert_eq!(knn.distances.max, N, "shards={shards}");
        assert_eq!(knn.distances.sum, count * N, "shards={shards}");

        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
    }

    // Dynamic mode: a k-farthest query scans every live item, so it too
    // costs exactly n — while a fifth connection rebuilds the tree in a
    // loop, whose distances must not leak into any query's cost.
    let (addr, server) = spawn_server(vec!["serve".into(), "--data".into(), data.clone()]);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reindexer = {
        let (addr, stop) = (addr.clone(), std::sync::Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut rebuilds = 0;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                send_all(&addr, &["REINDEX".to_string()]);
                rebuilds += 1;
            }
            rebuilds
        })
    };
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let addr = addr.clone();
            let lines: Vec<String> = (0..PER_CONNECTION)
                .map(|i| {
                    let x = (c * PER_CONNECTION + i) as f64 / 1000.0;
                    format!("KFN 3 {x},0.5,0.25,{x},0.75,0.5,{x},0.1")
                })
                .collect();
            std::thread::spawn(move || send_all(&addr, &lines))
        })
        .collect();
    for c in clients {
        c.join().expect("client panicked");
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let rebuilds = reindexer.join().expect("reindexer panicked");
    assert!(rebuilds > 0, "no rebuild ran beside the queries");

    let stats = client(&addr, "STATS");
    let json = stats.strip_prefix("OK ").expect("STATS answers OK");
    let snapshot = export::from_json(json).expect("STATS parses");
    let knn = snapshot
        .index("serve/dynamic")
        .and_then(|i| i.op(vantage_telemetry::OpKind::Knn))
        .expect("knn recorded");
    let count = (CONNECTIONS * PER_CONNECTION) as u64;
    assert_eq!(knn.ops, count, "dynamic");
    assert_eq!(knn.distances.min, N, "dynamic");
    assert_eq!(knn.distances.max, N, "dynamic");
    assert_eq!(knn.distances.sum, count * N, "dynamic");
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");

    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn huge_k_answers_every_item_and_keeps_the_server_up() {
    let data = temp_path("huge-k-data.csv");
    let snap = temp_path("huge-k-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "50", "--dim", "3", "--seed", "5", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);

    // k far beyond any allocation the server could make up front.
    let knn = client(&addr, "KNN 100000000000000 0.5,0.5,0.5");
    assert!(knn.starts_with("OK 50 "), "{knn}");
    let kfn = client(&addr, "KFN 100000000000000 0.5,0.5,0.5");
    assert!(kfn.starts_with("OK 50 "), "{kfn}");
    assert_eq!(client(&addr, "PING"), "OK pong");

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn non_utf8_request_line_gets_an_error_and_keeps_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let data = temp_path("utf8-data.csv");
    let snap = temp_path("utf8-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "50", "--dim", "3", "--seed", "5", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    stream.write_all(b"\xff\xfe\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR request line is not valid UTF-8");
    reply.clear();
    stream.write_all(b"PING\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK pong");
    drop((stream, reader));

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dynamic_mode_serves_ingest_and_far_queries() {
    let data = temp_path("dyn-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "60", "--dim", "3", "--seed", "3", "--out", &data,
    ]);

    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--data".into(),
        data.clone(),
        "--metric".into(),
        "l2".into(),
    ]);

    let info = client(&addr, "INFO");
    assert!(
        info.contains("mode=dynamic") && info.contains("items=60"),
        "{info}"
    );

    // Insert a far-away point: it must be its own nearest neighbor.
    let reply = client(&addr, "INSERT 9,9,9");
    assert!(reply.starts_with("OK id=60"), "{reply}");
    let knn = client(&addr, "KNN 1 9,9,9");
    assert!(knn.starts_with("OK 1 60:0"), "{knn}");
    // And the farthest point from the origin-ish corner of the cube.
    let kfn = client(&addr, "KFN 1 0,0,0");
    assert!(kfn.starts_with("OK 1 60:"), "{kfn}");

    // Delete it: queries stop seeing the id immediately.
    let reply = client(&addr, "DELETE 60");
    assert!(reply.starts_with("OK removed=true"), "{reply}");
    let knn = client(&addr, "KNN 3 9,9,9");
    assert!(!knn.contains(" 60:"), "{knn}");
    assert!(client(&addr, "BEYOND 100 0,0,0") == "OK 0");

    // Static-only commands are typed errors, not panics.
    let reply = client(&addr, "RELOAD /tmp/nope");
    assert!(reply.starts_with("ERR"), "{reply}");

    // REINDEX rebuilds and publishes a fresh generation.
    let reply = client(&addr, "REINDEX");
    assert!(reply.starts_with("OK generation="), "{reply}");
    let info = client(&addr, "INFO");
    assert!(info.contains("items=60"), "{info}");

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    let _ = std::fs::remove_file(&data);
}

#[test]
fn dynamic_writes_leave_the_slo_gauges_to_stats_and_the_final_flush() {
    let data = temp_path("dyn-gauges-data.csv");
    let metrics_out = temp_path("dyn-gauges-metrics.json");
    run_ok(&[
        "generate", "uniform", "--n", "60", "--dim", "3", "--seed", "5", "--out", &data,
    ]);
    let (addr, server) = spawn_server(vec![
        "serve".into(),
        "--data".into(),
        data.clone(),
        "--metric".into(),
        "l2".into(),
        "--metrics-out".into(),
        metrics_out.clone(),
    ]);

    for _ in 0..3 {
        assert!(client(&addr, "KNN 2 0.5,0.5,0.5").starts_with("OK 2 "));
    }
    // Two inserts into the overflow, one delete of each kind.
    assert!(client(&addr, "INSERT 0.1,0.2,0.3").starts_with("OK id=60"));
    assert!(client(&addr, "INSERT 0.3,0.2,0.1").starts_with("OK id=61"));
    assert!(client(&addr, "DELETE 61").starts_with("OK removed=true"));
    assert!(client(&addr, "DELETE 7").starts_with("OK removed=true"));

    let info = client(&addr, "INFO");
    assert!(
        info.contains("items=60") && info.ends_with(" overflow=1 tree_dead=1"),
        "{info}"
    );
    assert_eq!(stats_gauge(&addr, "serve/generation"), Some(4));
    assert_eq!(stats_gauge(&addr, "serve/dynamic/overflow"), Some(1));
    assert_eq!(stats_gauge(&addr, "serve/dynamic/tree_dead"), Some(1));
    // Writes refresh only the generation; STATS still sorts the windows.
    assert_eq!(stats_gauge(&addr, "slo/knn/samples"), Some(3));
    for stat in ["p50_ns", "p99_ns", "p999_ns"] {
        let value = stats_gauge(&addr, &format!("slo/knn/{stat}"));
        assert!(value.is_some_and(|ns| ns > 0), "slo/knn/{stat}: {value:?}");
    }

    assert!(client(&addr, "INSERT 0.9,0.9,0.9").starts_with("OK id=62"));
    assert!(client(&addr, "KNN 1 0.9,0.9,0.9").starts_with("OK 1 62:0"));
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    // The final flush refreshes every gauge after the last write.
    let text = std::fs::read_to_string(&metrics_out).expect("metrics snapshot written");
    let snapshot = export::from_json(&text).expect("metrics snapshot parses");
    assert_eq!(snapshot.gauge("serve/generation"), Some(5));
    assert_eq!(snapshot.gauge("serve/dynamic/overflow"), Some(2));
    assert_eq!(snapshot.gauge("slo/knn/samples"), Some(4));
    for p in [&data, &metrics_out] {
        let _ = std::fs::remove_file(p);
    }
}

/// The `KNN` op recorded under `index` on the server at `addr`: its
/// operation count and largest per-query distance count.
fn knn_ops_and_max_distances(addr: &str, index: &str) -> (u64, u64) {
    let stats = client(addr, "STATS");
    let json = stats.strip_prefix("OK ").expect("STATS answers OK");
    let snapshot = export::from_json(json).expect("STATS parses");
    let knn = snapshot
        .index(index)
        .and_then(|i| i.op(vantage_telemetry::OpKind::Knn))
        .expect("knn recorded");
    (knn.ops, knn.distances.max)
}

#[test]
fn knn_zero_computes_no_distance_on_any_served_structure() {
    let data = temp_path("knn0-data.csv");
    run_ok(&[
        "generate", "uniform", "--n", "300", "--dim", "6", "--seed", "8", "--out", &data,
    ]);
    let knn0 = "KNN 0 0.5,0.5,0.5,0.5,0.5,0.5";
    for structure in ["mvp", "vp", "linear"] {
        let snap = temp_path(&format!("knn0-{structure}.vantage"));
        run_ok(&[
            "build",
            "--data",
            &data,
            "--save",
            &snap,
            "--metric",
            "l2",
            "--structure",
            structure,
        ]);
        for shards in ["1", "2"] {
            let (addr, server) = spawn_server(vec![
                "serve".into(),
                "--index".into(),
                snap.clone(),
                "--shards".into(),
                shards.into(),
            ]);
            assert_eq!(client(&addr, knn0), "OK 0", "{structure} shards={shards}");
            assert_eq!(
                knn_ops_and_max_distances(&addr, "serve/gen0"),
                (1, 0),
                "{structure} shards={shards}"
            );
            assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
            server
                .join()
                .expect("server thread panicked")
                .expect("server failed");
        }
        let _ = std::fs::remove_file(&snap);
    }

    // Dynamic mode, with a tombstoned tree item and an overflow item.
    let (addr, server) = spawn_server(vec!["serve".into(), "--data".into(), data.clone()]);
    assert!(client(&addr, "INSERT 9,9,9,9,9,9").starts_with("OK id=300"));
    assert!(client(&addr, "DELETE 0").starts_with("OK removed=true"));
    assert_eq!(client(&addr, knn0), "OK 0");
    assert_eq!(knn_ops_and_max_distances(&addr, "serve/dynamic"), (1, 0));
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    let _ = std::fs::remove_file(&data);
}

/// One persistent client connection: sends a line, returns the reply.
struct Line {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Line {
    fn open(addr: &str) -> Line {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        Line { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        use std::io::{BufRead, Write};
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

/// The gauge `name` in a STATS reply from the server at `addr`.
fn stats_gauge(addr: &str, name: &str) -> Option<i64> {
    let stats = client(addr, "STATS");
    let json = stats.strip_prefix("OK ").expect("STATS answers OK");
    export::from_json(json).expect("STATS parses").gauge(name)
}

/// Waits until the server at `addr` counts `open` connections besides
/// the STATS connection asking.
fn await_connections(addr: &str, open: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats_gauge(addr, "serve/connections") != Some(open + 1) {
        assert!(
            Instant::now() < deadline,
            "serve/connections never settled at {open}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn wrong_dimension_requests_get_an_error_and_keep_the_connection() {
    let data = temp_path("dims-data.csv");
    let snap = temp_path("dims-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "200", "--dim", "6", "--seed", "9", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);
    let good = "KNN 3 0.5,0.5,0.5,0.5,0.5,0.5";

    for mode in ["--index", "--data"] {
        let source = if mode == "--index" { &snap } else { &data };
        let (addr, server) = spawn_server(vec!["serve".into(), mode.into(), source.clone()]);
        let expected = client(&addr, good);
        assert!(expected.starts_with("OK 3 "), "{mode}: {expected}");

        let mut line = Line::open(&addr);
        for bad in [
            "KNN 3 1,2",
            "RANGE 0.5 1,2,3,4,5,6,7",
            "KFN 2 1",
            "BEYOND 0.1 1,2",
        ] {
            let n = bad.rsplit(' ').next().unwrap().split(',').count();
            assert_eq!(
                line.send(bad),
                format!("ERR query has {n} coordinates, index has 6"),
                "{mode}: {bad}"
            );
            assert_eq!(line.send("PING"), "OK pong", "{mode}: after {bad}");
            assert_eq!(line.send(good), expected, "{mode}: after {bad}");
        }
        if mode == "--data" {
            // A bad insert never reaches the tree or its overflow set.
            assert_eq!(
                line.send("INSERT 1,2"),
                "ERR item has 2 coordinates, index has 6"
            );
            assert_eq!(line.send("PING"), "OK pong");
            assert_eq!(line.send(good), expected);
            assert!(line.send("REINDEX").starts_with("OK generation="));
            assert_eq!(line.send(good), expected);
        } else {
            assert!(line.send("INSERT 1,2").starts_with("ERR INSERT is only"));
        }
        drop(line);
        await_connections(&addr, 0);

        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
    }
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_ragged_snapshot_is_refused_and_reload_keeps_the_old_generation() {
    use vantage_core::prelude::{Euclidean, LinearScan};

    let data = temp_path("ragged-data.csv");
    let snap = temp_path("ragged-good.vantage");
    let ragged = temp_path("ragged-bad.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "100", "--dim", "2", "--seed", "4", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);
    // Checksums valid, rows of 2, 3 and 2 values: `save_linear_scan`
    // refuses these items, so the bytes are written by hand.
    let rows = vec![vec![0.0, 0.0], vec![1.0, 1.0, 1.0], vec![2.0, 2.0]];
    let bytes = vantage_persist::encode_linear_scan(&LinearScan::new(rows, Euclidean));
    std::fs::write(&ragged, bytes).unwrap();

    let err = run(&[
        "query", "--index", &ragged, "--metric", "l2", "--knn", "3", "--query", "0,0",
    ])
    .unwrap_err();
    assert!(err.contains("ragged"), "{err}");
    let err = run(&["serve", "--index", &ragged, "--addr", "127.0.0.1:0"]).unwrap_err();
    assert!(err.contains("ragged"), "{err}");

    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);
    let mut line = Line::open(&addr);
    let good = "KNN 3 0,0";
    let expected = line.send(good);
    assert!(expected.starts_with("OK 3 "), "{expected}");
    let reply = line.send(&format!("RELOAD {ragged}"));
    assert!(
        reply.starts_with("ERR ") && reply.contains("ragged"),
        "{reply}"
    );
    assert_eq!(line.send(good), expected, "the old generation answers");
    assert_eq!(line.send("PING"), "OK pong");
    assert!(line.send("INFO").contains(" generation=0 "));
    drop(line);
    await_connections(&addr, 0);
    assert_eq!(stats_gauge(&addr, "serve/in_flight"), Some(0));

    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap, &ragged] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn non_finite_coordinates_and_nan_radii_are_refused() {
    let data = temp_path("nan-data.csv");
    let snap = temp_path("nan-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "100", "--dim", "3", "--seed", "9", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);
    for mode in ["--index", "--data"] {
        let source = if mode == "--index" { &snap } else { &data };
        let (addr, server) = spawn_server(vec!["serve".into(), mode.into(), source.clone()]);
        let mut line = Line::open(&addr);
        for bad in [
            "KNN 3 NaN,0.5,0.5",
            "KNN 3 0.5,inf,0.5",
            "KFN 3 0.5,0.5,-inf",
            "RANGE 0.5 nan,0.5,0.5",
            "RANGE NaN 0.5,0.5,0.5",
            "BEYOND nan 0.5,0.5,0.5",
        ] {
            let reply = line.send(bad);
            assert!(reply.starts_with("ERR "), "{mode}: {bad}: {reply}");
            assert_eq!(line.send("PING"), "OK pong", "{mode}: after {bad}");
        }
        let insert = line.send("INSERT 0.5,NaN,0.5");
        assert!(insert.starts_with("ERR "), "{mode}: {insert}");
        // An infinite radius is a real question: every item matches.
        assert!(line.send("RANGE inf 0.5,0.5,0.5").starts_with("OK 100 "));
        drop(line);
        assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
        server
            .join()
            .expect("server thread panicked")
            .expect("server failed");
    }
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn data_files_with_non_finite_coordinates_are_refused_with_file_and_line() {
    // A NaN coordinate used to load: vp then answered `RANGE 100 0,0`
    // with 2 items and left out item 0 at distance 0, while linear and
    // mvp answered 3.
    for (bad, line) in [("1,NaN", 2), ("2,inf", 3), ("-inf,3", 4)] {
        let data = temp_path("nonfinite.csv");
        let rows = ["0,0", "1,1", "2,2", "3,3"];
        let text: Vec<&str> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| if i + 1 == line { bad } else { r })
            .collect();
        std::fs::write(&data, text.join("\n") + "\n").unwrap();
        let at = format!("{data}:{line}: coordinates must be finite numbers");
        for structure in ["vp", "mvp", "linear"] {
            let e = run(&[
                "query",
                "--data",
                &data,
                "--structure",
                structure,
                "--range",
                "100",
                "--query",
                "0,0",
            ])
            .expect_err("query over a non-finite CSV must fail");
            assert!(e.contains(&at), "{structure}: {e}");
        }
        let snap = temp_path("nonfinite.vantage");
        let e = run(&["build", "--data", &data, "--save", &snap])
            .expect_err("build over a non-finite CSV must fail");
        assert!(e.contains(&at), "{e}");
        assert!(!std::path::Path::new(&snap).exists(), "build wrote {snap}");
        let e = run(&["serve", "--data", &data, "--addr", "127.0.0.1:0"])
            .expect_err("serve over a non-finite CSV must fail");
        assert!(e.contains(&at), "{e}");
        let _ = std::fs::remove_file(&data);
    }
}

#[test]
fn request_lines_past_the_cap_get_an_error_and_keep_the_connection() {
    use std::io::Write;
    let data = temp_path("cap-data.csv");
    let snap = temp_path("cap-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "50", "--dim", "3", "--seed", "5", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);
    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);
    const CAP: usize = 16 << 20;
    let too_long = format!("ERR request line longer than {CAP} bytes");
    let mut line = Line::open(&addr);
    // Exactly at the cap is served; one byte more is refused.
    assert_eq!(
        line.send(&format!("PING{}", " ".repeat(CAP - 4))),
        "OK pong"
    );
    assert_eq!(line.send(&format!("PING{}", " ".repeat(CAP - 3))), too_long);
    assert_eq!(line.send("PING"), "OK pong");
    // Lines that arrive in pieces across the server's read-poll
    // timeouts: a short one is reassembled, a long one is dropped as
    // it streams in and answered once its newline arrives.
    let pause = Duration::from_millis(250);
    line.stream.write_all(b"PI").unwrap();
    std::thread::sleep(pause);
    assert_eq!(line.send("NG"), "OK pong");
    line.stream.write_all(b"KNN 3 0.5,0.5,").unwrap();
    std::thread::sleep(pause);
    line.stream.write_all(&vec![b'0'; CAP]).unwrap();
    std::thread::sleep(pause);
    assert_eq!(line.send(",0.5"), too_long);
    assert!(line.send("KNN 3 0.5,0.5,0.5").starts_with("OK 3 "));
    drop(line);
    assert_eq!(stats_gauge(&addr, "serve/long_lines"), Some(2));
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn knn_routes_to_a_row_scan_where_the_tree_cannot_prune() {
    // Uniform 20-d points: the tree's probes compute nearly every
    // distance, so kNN routes to the scan. A linear-scan snapshot of the
    // same items, which is never routed, is the oracle.
    let data = temp_path("route-data.csv");
    let snap = temp_path("route-index.vantage");
    let linear = temp_path("route-linear.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "1500", "--dim", "20", "--seed", "6", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--seed", "1"]);
    let built = [
        "build",
        "--data",
        &data,
        "--save",
        &linear,
        "--structure",
        "linear",
    ];
    run_ok(&built);
    let queries: Vec<String> = std::fs::read_to_string(&data)
        .unwrap()
        .lines()
        .step_by(97)
        .flat_map(|q| {
            [
                format!("KNN 10 {q}"),
                format!("KNN 1 {q}"),
                format!("KNN 0 {q}"),
            ]
        })
        .collect();

    let (oracle_addr, oracle) =
        spawn_server(vec!["serve".into(), "--index".into(), linear.clone()]);
    let expected: Vec<String> = queries.iter().map(|q| client(&oracle_addr, q)).collect();
    assert_eq!(client(&oracle_addr, "SHUTDOWN"), "OK bye");
    oracle
        .join()
        .expect("oracle panicked")
        .expect("oracle failed");

    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);
    let mut line = Line::open(&addr);
    // The first query calibrates bucket 0 and is routed; at k = 0 the
    // scan computes nothing.
    assert_eq!(queries[2], format!("KNN 0 {}", &queries[0][7..]));
    assert_eq!(line.send(&queries[2]), "OK 0");
    assert_eq!(knn_ops_and_max_distances(&addr, "serve/gen0"), (1, 0));
    assert_eq!(stats_gauge(&addr, "serve/gen0/knn_answers/scan"), Some(1));
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&line.send(q), want, "{q}");
    }
    let served = queries.len() as i64 + 1;
    assert_eq!(
        stats_gauge(&addr, "serve/gen0/knn_answers/scan"),
        Some(served)
    );
    assert_eq!(stats_gauge(&addr, "serve/gen0/knn_answers/tree"), Some(0));
    for bucket in ["k1", "k8"] {
        let ratio = stats_gauge(
            &addr,
            &format!("serve/gen0/knn_route/{bucket}/probe_ratio_ppm"),
        );
        assert!(ratio.is_some_and(|r| r >= 500_000), "{bucket}: {ratio:?}");
        let scan = stats_gauge(&addr, &format!("serve/gen0/knn_route/{bucket}/scan"));
        assert_eq!(scan, Some(1), "{bucket}");
    }
    assert!(line.send("INFO").ends_with(&format!(" knn_scans={served}")));
    // Every routed kNN costs at most one scan.
    assert_eq!(
        knn_ops_and_max_distances(&addr, "serve/gen0"),
        (served as u64, 1500)
    );

    // RELOAD starts a generation that calibrates afresh; the displaced
    // generation's counts stay published.
    assert!(line
        .send(&format!("RELOAD {snap}"))
        .starts_with("OK generation=1"));
    assert_eq!(line.send(&queries[0]), expected[0]);
    assert_eq!(stats_gauge(&addr, "serve/gen1/knn_answers/scan"), Some(1));
    assert_eq!(
        stats_gauge(&addr, "serve/gen0/knn_answers/scan"),
        Some(served)
    );
    assert_eq!(stats_gauge(&addr, "serve/gen1/knn_route/k1/scan"), None);
    drop(line);
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap, &linear] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn clustered_knn_stays_on_the_tree() {
    let data = temp_path("route-clustered.csv");
    let snap = temp_path("route-clustered.vantage");
    run_ok(&[
        "generate",
        "clustered",
        "--clusters",
        "30",
        "--size",
        "100",
        "--dim",
        "20",
        "--seed",
        "6",
        "--out",
        &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--seed", "1"]);
    let (addr, server) = spawn_server(vec!["serve".into(), "--index".into(), snap.clone()]);
    let query = std::fs::read_to_string(&data)
        .unwrap()
        .lines()
        .nth(40)
        .unwrap()
        .to_string();
    assert_eq!(client(&addr, &format!("KNN 1 {query}")), "OK 1 40:0");
    assert_eq!(stats_gauge(&addr, "serve/gen0/knn_answers/tree"), Some(1));
    assert_eq!(stats_gauge(&addr, "serve/gen0/knn_answers/scan"), Some(0));
    assert_eq!(stats_gauge(&addr, "serve/gen0/knn_route/k1/scan"), Some(0));
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    server
        .join()
        .expect("server thread panicked")
        .expect("server failed");
    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn metric_mismatch_is_a_typed_error_on_every_snapshot_path() {
    let data = temp_path("mismatch-data.csv");
    let snap = temp_path("mismatch-index.vantage");
    run_ok(&[
        "generate", "uniform", "--n", "40", "--dim", "3", "--seed", "1", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);

    let cases: [&[&str]; 4] = [
        &[
            "serve",
            "--index",
            &snap,
            "--metric",
            "l1",
            "--addr",
            "127.0.0.1:0",
        ],
        &[
            "query", "--index", &snap, "--metric", "l1", "--query", "0,0,0", "--knn", "3",
        ],
        &[
            "explain", "--index", &snap, "--metric", "l1", "--query", "0,0,0", "--knn", "3",
        ],
        &["stats", "--index", &snap, "--metric", "l1"],
    ];
    for argv in cases {
        let e = run(argv).expect_err("mismatched metric must fail");
        assert!(
            e.contains("snapshot metric mismatch")
                && e.contains("snapshot has `l2`")
                && e.contains("expected `l1`"),
            "{argv:?}: {e}"
        );
    }

    // The matching metric flag is accepted everywhere.
    run_ok(&[
        "query", "--index", &snap, "--metric", "l2", "--query", "0,0,0", "--knn", "3",
    ]);
    run_ok(&["stats", "--index", &snap, "--metric", "l2"]);

    for p in [&data, &snap] {
        let _ = std::fs::remove_file(p);
    }
}

/// The server's virtual size in KiB, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn vm_size_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("VmSize line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// One connect / `PING` / close cycle against `addr`.
#[cfg(target_os = "linux")]
fn ping_once(addr: &str) {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK pong");
}

#[cfg(target_os = "linux")]
#[test]
fn finished_connection_threads_are_reaped() {
    // Each connection runs on its own thread; an exited thread that is
    // never joined keeps its stack mapped. The server runs as its own
    // process so its address space is measured alone, with glibc's
    // per-thread malloc arenas (64 MiB of address space each, reserved
    // whenever connection threads briefly overlap) folded into one so
    // only thread stacks move the number.
    let data = temp_path("reap-data.csv");
    let snap = temp_path("reap-index.vantage");
    let addr_file = temp_path("reap-addr");
    let _ = std::fs::remove_file(&addr_file);
    run_ok(&[
        "generate", "uniform", "--n", "100", "--dim", "3", "--seed", "3", "--out", &data,
    ]);
    run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l2"]);
    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_vantage"))
        .args(["serve", "--index", &snap, "--addr", "127.0.0.1:0"])
        .args(["--addr-file", &addr_file])
        .env("MALLOC_ARENA_MAX", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ => {
                assert!(Instant::now() < deadline, "server did not start");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };

    let before = vm_size_kib(server.id());
    for _ in 0..300 {
        ping_once(&addr);
    }
    let after = vm_size_kib(server.id());
    assert_eq!(client(&addr, "SHUTDOWN"), "OK bye");
    assert!(server.wait().unwrap().success());
    let grown_mib = after.saturating_sub(before) / 1024;
    assert!(
        grown_mib < 64,
        "VmSize grew {grown_mib} MiB over 300 connections ({before} -> {after} KiB)"
    );
    for p in [&data, &snap, &addr_file] {
        let _ = std::fs::remove_file(p);
    }
}
