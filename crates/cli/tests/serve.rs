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
