//! The end-to-end pass: fresh server per workload, closed-loop load from
//! two connections, every reply checked.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::load::{self, LoadResult, Window};
use crate::report::Report;
use crate::server::{self, Conn, Server, Source};
use crate::stats::{median, percentile, quartiles, supports_p999};
use crate::workload::{self, oracle_for, render_reply, Cmd, Workload, CONNECTIONS};
use crate::Opts;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Post-run queries that check a dynamic server against the live set.
const INGEST_CHECKS: usize = 200;

/// A generated workload with its files written.
pub struct Prepared {
    pub w: Workload,
    pub csv: PathBuf,
    /// The snapshot the server maps (static workloads).
    pub snapshot: Option<PathBuf>,
    /// `vantage build` wall time per repetition (static workloads).
    pub build_s: Vec<f64>,
    /// Spawn to first pong per repetition.
    pub ready_s: Vec<f64>,
}

impl Prepared {
    /// Build plus ready time per repetition.
    pub fn setup_s(&self) -> Vec<f64> {
        self.ready_s
            .iter()
            .enumerate()
            .map(|(i, r)| r + self.build_s.get(i).copied().unwrap_or(0.0))
            .collect()
    }

    /// Starts another server over the same files.
    pub fn respawn(
        &self,
        opts: &Opts,
        trace_sample: u64,
        trace_ring: usize,
    ) -> Result<Server, String> {
        spawn(
            &self.w,
            opts,
            &self.csv,
            self.snapshot.as_deref(),
            trace_sample,
            trace_ring,
        )
    }
}

fn spawn(
    w: &Workload,
    opts: &Opts,
    csv: &Path,
    snapshot: Option<&Path>,
    trace_sample: u64,
    trace_ring: usize,
) -> Result<Server, String> {
    let source = match snapshot {
        Some(path) => Source::Snapshot(path),
        None => Source::Data {
            csv,
            metric: w.metric.flag(),
        },
    };
    Server::spawn(
        &opts.vantage,
        source,
        trace_sample,
        trace_ring,
        &opts.work.join("addr"),
    )
}

/// Generates `name` at `seed`, writes its CSV, and sets its server up
/// [`SETUP_REPS`] times, keeping the last server (untraced).
pub fn prepare(
    name: &str,
    opts: &Opts,
    inserts_per_conn: usize,
) -> Result<(Prepared, Server), String> {
    let w = Workload::generate(name, opts.seed, opts.quick, inserts_per_conn)?;
    let csv = opts.work.join(format!("{name}.csv"));
    let mut text = String::with_capacity(w.items.len() * w.items[0].len() * 20);
    for item in &w.items {
        text.push_str(&workload::wire(item));
        text.push('\n');
    }
    std::fs::write(&csv, text).map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let reps = if opts.quick { 1 } else { SETUP_REPS };
    let (mut build_s, mut ready_s) = (Vec::new(), Vec::new());
    let mut snapshot = None;
    let mut server = None;
    for rep in 0..reps {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        if !w.dynamic {
            // A fresh file each time: a served snapshot is never rewritten.
            let path = opts.work.join(format!("{name}.{rep}.vsnap"));
            build_s.push(server::build_snapshot(
                &opts.vantage,
                &csv,
                w.metric.flag(),
                &path,
            )?);
            snapshot = Some(path);
        }
        let s = spawn(&w, opts, &csv, snapshot.as_deref(), 0, 1)?;
        ready_s.push(s.ready_s);
        server = Some(s);
    }
    let prepared = Prepared {
        w,
        csv,
        snapshot,
        build_s,
        ready_s,
    };
    Ok((prepared, server.expect("at least one repetition")))
}

/// Timed operations on the dynamic workload per second of `--seconds`,
/// both connections together: about its rate on a 2-core Xeon. Its window
/// is a count, not a time, because the tree's size, its rebuilds and the
/// server's peak memory follow the number of writes; in a fixed time they
/// would follow the machine's speed.
const INGEST_OPS_PER_SECOND: f64 = 3000.0;

/// The untimed warm-up and the timed window of one connection: the
/// first tenth of the distinct requests (at most 1 000), then `--seconds`;
/// on the dynamic workload 1 000 operations, then
/// [`INGEST_OPS_PER_SECOND`] operations per second of `--seconds`.
fn plan(w: &Workload, opts: &Opts) -> (usize, Window) {
    if w.dynamic {
        let (warmup, ops) = ingest_ops(opts);
        return (warmup, Window::Ops(ops));
    }
    let warmup = (w.requests.len() / 10).min(1000);
    let warmup = if opts.quick { warmup / 20 } else { warmup };
    (warmup / CONNECTIONS, Window::Seconds(opts.seconds))
}

/// Untimed and timed operations of one connection on the dynamic workload.
fn ingest_ops(opts: &Opts) -> (usize, usize) {
    let warmup = if opts.quick { 50 } else { 1000 };
    let timed = (INGEST_OPS_PER_SECOND * opts.seconds) as usize;
    (warmup / CONNECTIONS, timed / CONNECTIONS)
}

/// One workload's end-to-end measurements.
pub struct E2e {
    pub qps: f64,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub setup_s: Vec<f64>,
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub simd: String,
    pub items: usize,
    pub distinct: usize,
    pub radius: Option<f64>,
}

/// Runs one workload end to end.
pub fn run_workload(name: &str, opts: &Opts) -> Result<E2e, String> {
    let (warmup, ops) = ingest_ops(opts);
    // Three inserts in every block of twelve operations.
    let (p, server) = prepare(name, opts, (warmup + ops).div_ceil(12) * 3)?;
    let w = &p.w;
    let info = Conn::open(server.addr)?.call("INFO")?;
    let simd = info
        .split(' ')
        .find_map(|kv| kv.strip_prefix("simd="))
        .unwrap_or("unknown")
        .to_string();
    let distinct = w.requests.len();
    let (warmup, window) = plan(w, opts);
    let load = load::drive(w, server.addr, CONNECTIONS, warmup, window);
    let (mut attempted, mut failed) = (load.attempted(), load.failed());
    let mut first_failure = load.first_failure().map(str::to_string);
    if w.dynamic {
        let (a, f, first) = check_live_set(w, &load, &server)?;
        attempted += a;
        failed += f;
        if first_failure.is_none() {
            first_failure = first;
        }
    }
    let rss_mb = server.peak_rss_mb()?;
    let setup_s = p.setup_s();
    server.shutdown()?;
    Ok(E2e {
        qps: load.qps(),
        reads: load.sorted_reads(),
        writes: load.sorted_writes(),
        setup_s,
        rss_mb,
        attempted,
        failed,
        first_failure,
        simd,
        items: w.items.len(),
        distinct,
        radius: w.radius,
    })
}

/// After an ingest run: rebuilds the live set from the acknowledged
/// inserts and deletes, and checks the quiescent server's kNN answers
/// against a `LinearScan` over it.
fn check_live_set(
    w: &Workload,
    load: &LoadResult,
    server: &Server,
) -> Result<(u64, u64, Option<String>), String> {
    let mut live: BTreeMap<usize, &Vec<f64>> = w.items.iter().enumerate().collect();
    for (c, outcome) in load.conns.iter().enumerate() {
        for &(id, pool) in &outcome.inserted {
            live.insert(id, &w.inserts[c][pool].item);
        }
    }
    for outcome in &load.conns {
        for id in &outcome.deleted {
            live.remove(id);
        }
    }
    let ids: Vec<usize> = live.keys().copied().collect();
    let items: Vec<Vec<f64>> = live.values().map(|v| (*v).clone()).collect();
    let checks: Vec<_> = w.requests.iter().take(INGEST_CHECKS).collect();
    let qs: Vec<&Vec<f64>> = checks.iter().map(|r| &w.queries[r.query]).collect();
    let cmds: Vec<Cmd> = checks.iter().map(|r| r.cmd).collect();
    let answers = oracle_for(w.metric, &items, &qs, &cmds);
    let mut conn = Conn::open(server.addr)?;
    let mut failed = 0;
    let mut first = None;
    for (r, answer) in checks.iter().zip(answers) {
        let expected = render_reply(&answer, Some(&ids));
        match conn.send(&r.line) {
            Ok(reply) if reply == expected => {}
            Ok(reply) => {
                failed += 1;
                first.get_or_insert(format!(
                    "after ingest: answered `{}`, expected `{}`",
                    workload::clip(reply),
                    workload::clip(&expected)
                ));
            }
            Err(e) => {
                failed += 1;
                first.get_or_insert(e);
            }
        }
    }
    Ok((checks.len() as u64, failed, first))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Prints one workload's metrics: the benchmark's end-to-end metrics
/// (`Report::metric`) and the numbers that are only reported.
fn print(name: &str, m: &E2e, report: &mut Report) {
    let radius = m.radius.map(|r| format!(" radius={r}")).unwrap_or_default();
    report.line(format!(
        "# {name} items={} distinct_requests={}{radius} attempted={} failed={} simd={}",
        m.items, m.distinct, m.attempted, m.failed, m.simd
    ));
    let n = m.reads.len();
    let timed = n + m.writes.len();
    let p = |s: &[u64], q: f64| percentile(s, q).map_or(f64::NAN, us);
    report.metric(name, "qps", m.qps, "1/s", timed);
    report.metric(name, "read_p50_us", p(&m.reads, 50.0), "us", n);
    // Reported, not gated: its run-to-run spread exceeds the largest bound
    // the benchmark may set (see README.md, "Calibration").
    report.extra(name, "read_p99_us", p(&m.reads, 99.0), "us", n);
    if supports_p999(n) {
        report.extra(name, "read_p999_us", p(&m.reads, 99.9), "us", n);
    }
    if !m.writes.is_empty() {
        let nw = m.writes.len();
        report.extra(name, "write_p50_us", p(&m.writes, 50.0), "us", nw);
        report.extra(name, "write_p99_us", p(&m.writes, 99.0), "us", nw);
        if supports_p999(nw) {
            report.extra(name, "write_p999_us", p(&m.writes, 99.9), "us", nw);
        }
    }
    report.extra(
        name,
        "error_rate",
        m.failed as f64 / m.attempted.max(1) as f64,
        "ratio",
        m.attempted as usize,
    );
    report.metric(name, "setup_s", median(&m.setup_s), "s", m.setup_s.len());
    report.metric(name, "server_rss_mb", m.rss_mb, "MiB", 1);
    if let Some(first) = &m.first_failure {
        report.line(format!("# {name} first failure: {first}"));
    }
    report.count(m.attempted, m.failed);
}

/// `vbench run`: every selected workload end to end.
pub fn run_all(opts: &Opts, report: &mut Report) -> Result<(), String> {
    for &name in &opts.workloads {
        report.clear_metrics();
        let m = run_workload(name, opts)?;
        print(name, &m, report);
    }
    Ok(())
}

/// `vbench noise`: `--runs` end-to-end runs per workload at consecutive
/// seeds, with the median, quartile spread and max/min spread of every
/// metric, and the bound those spreads support.
pub fn noise(opts: &Opts, report: &mut Report) -> Result<(), String> {
    for &name in &opts.workloads {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for i in 0..opts.runs {
            let seed = opts.seed + i as u64;
            let m = run_workload(
                name,
                &Opts {
                    seed,
                    ..opts.clone()
                },
            )?;
            report.clear_metrics();
            print(name, &m, report);
            let p = |q: f64| percentile(&m.reads, q).map_or(f64::NAN, us);
            for (metric, v) in [
                ("qps", m.qps),
                ("read_p50_us", p(50.0)),
                ("read_p99_us", p(99.0)),
                ("setup_s", median(&m.setup_s)),
                ("server_rss_mb", m.rss_mb),
            ] {
                values.entry(metric).or_default().push(v);
            }
        }
        for (metric, v) in &values {
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let iqr = (q3 - q1) / med;
            // Spreads must stay under a third of the bound.
            let bound = (3.0 * iqr * 100.0).ceil() / 100.0;
            report.line(format!(
                "noise {name} {metric} median={med} iqr={iqr:.4} max_min={:.4} runs={} bound>={bound:.2}",
                hi / lo - 1.0,
                v.len()
            ));
        }
    }
    Ok(())
}
