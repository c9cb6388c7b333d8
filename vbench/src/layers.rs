//! The traced run: per-layer time and work for each workload.
//!
//! A subset of the script (one request per distinct line, at most
//! [`SUBSET`]) is replayed on one connection twice: against an untraced
//! server, then against one that traces every request. Each request's
//! `TRACE` record gives the server's spans and the tree's descent
//! profile; the layers' public functions are then timed in-process on
//! the same data and queries. No instrumentation is added to the program.

use std::hint::black_box;
use std::time::{Duration, Instant};

use vantage_core::prelude::{
    BoundedMetric, Counted, Euclidean, LinearScan, Manhattan, Metric, Neighbor, Sampler, SwapCell,
    Threads,
};
use vantage_mvptree::{ConcurrentMvpTree, MvpParams, MvpTree};
use vantage_persist::{open_mvp_tree, save_mvp_tree, F64Vectors, MetricTag};
use vantage_telemetry::{CostDelta, Json, MetricsRegistry, OpKind, SloSurface};

use crate::e2e::{prepare, Prepared};
use crate::load::{self, ConnOutcome};
use crate::report::Report;
use crate::server::{self, Conn};
use crate::stats::{median, percentile};
use crate::workload::{Cmd, MetricKind, Op, Rng, Workload, DATA_SEED};
use crate::Opts;

/// Requests replayed per pass.
const SUBSET: usize = 2000;
/// Queries timed in-process per structure.
const INPROC_QUERIES: usize = 300;
/// Queries timed on `LinearScan`.
const LINEAR_QUERIES: usize = 200;
/// Queries timed before and after the in-process reindex.
const PENALTY_QUERIES: usize = 200;
/// Inserts replayed in-process on the dynamic workload: enough to cross
/// the n/4 rebuild threshold twice from 10 000 items.
const DYNAMIC_REPLAY_INSERTS: usize = 9000;
/// `attribution.coverage` must fall in this range on the workloads whose
/// time the spans are expected to explain.
const COVERAGE: (f64, f64) = (0.85, 1.15);

/// The CLI's mvp-tree parameters (`vantage build` and `serve --data`).
fn mvp_params() -> MvpParams {
    MvpParams::paper(3, 80, 5).seed(DATA_SEED)
}

/// `vbench trace`: every selected workload's per-layer metrics.
pub fn trace_all(opts: &Opts, report: &mut Report) -> Result<(), String> {
    for &name in &opts.workloads {
        report.clear_metrics();
        trace_workload(name, opts, report)?;
    }
    Ok(())
}

/// Aggregates of the `TRACE` records of one pass.
#[derive(Default)]
struct Traces {
    parse_ns: Vec<f64>,
    search_ns: Vec<f64>,
    reply_ns: Vec<f64>,
    server_ns: Vec<f64>,
    bookkeeping_ns: Vec<f64>,
    wire_ns: Vec<f64>,
    /// `(parse + search + reply, client latency)` per request.
    covered_ns: Vec<(f64, f64)>,
    distances: f64,
    vantage: f64,
    candidate: f64,
    abandoned: f64,
    nodes: f64,
    pruned: f64,
    rejected: f64,
    results: f64,
}

fn trace_workload(name: &str, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let (p, untraced) = prepare(name, opts, SUBSET / 4 + 1)?;
    let w = &p.w;
    let ops = if w.dynamic {
        SUBSET
    } else {
        w.requests.len().min(SUBSET)
    };
    // Pass A against the untraced server the e2e pass runs, pass B
    // against one that traces every request, interleaved; both warm up on
    // the first tenth of the subset, untimed.
    let warmup = ops / 10;
    let traced = p.respawn(opts, 1, warmup + ops)?;
    let lens: Vec<f64> = w
        .requests
        .iter()
        .take(ops)
        .map(|r| r.line.len() as f64)
        .collect();
    let ping = ping_line(median(&lens) as usize);
    let [a, b] = load::paired(
        w,
        untraced.addr,
        traced.addr,
        untraced.pid(),
        warmup,
        ops,
        &ping,
    );
    untraced.shutdown()?;
    let traces = fetch_traces(w, warmup..warmup + ops, &b, &traced)?;
    traced.shutdown()?;

    let attempted = a.attempted + b.attempted;
    let failed = a.failed + b.failed + traces.1;
    let traces = traces.0;
    let n_traces = traces.server_ns.len();
    report.line(format!(
        "# {name} trace subset={ops} traced_queries={n_traces} attempted={attempted} failed={failed}"
    ));
    if let Some(first) = a.first_failure.as_ref().or(b.first_failure.as_ref()) {
        report.line(format!("# {name} first failure: {first}"));
    }
    report.count(attempted, failed);

    let med_us = |v: &[f64]| median(v) / 1000.0;
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    let reads_a = sorted(&a.read_ns);
    let reads_b = sorted(&b.read_ns);
    let p50 = |v: &[u64]| percentile(v, 50.0).map_or(f64::NAN, |x| x as f64);
    let (client_a, client_b) = (p50(&reads_a), p50(&reads_b));
    let parse = med_us(&traces.parse_ns);
    let search = med_us(&traces.search_ns);
    let reply = med_us(&traces.reply_ns);
    let ping_ns: Vec<f64> = b.ping_ns.iter().map(|&ns| ns as f64).collect();
    let ping = median(&ping_ns) / 1000.0;
    let nq = n_traces.max(1) as f64;
    let served = (a.read_ns.len() + a.write_ns.len()).max(1) as f64;

    let mut m = Metrics::new(name, report);
    m.put("cli.serve.parse_us", parse, "us", n_traces);
    m.put("cli.serve.search_us", search, "us", n_traces);
    m.put("cli.serve.reply_us", reply, "us", n_traces);
    m.put(
        "cli.serve.server_us",
        med_us(&traces.server_ns),
        "us",
        n_traces,
    );
    m.put(
        "cli.serve.bookkeeping_us",
        med_us(&traces.bookkeeping_ns),
        "us",
        n_traces,
    );
    m.put("cli.serve.wire_us", med_us(&traces.wire_ns), "us", n_traces);
    m.put("cli.serve.ping_us", ping, "us", ping_ns.len());
    m.put(
        "cli.serve.cpu_us_per_req",
        a.server_cpu_ns as f64 / served / 1000.0,
        "us",
        served as usize,
    );
    m.put(
        "client.cpu_us_per_req",
        a.client_cpu_ns as f64 / served / 1000.0,
        "us",
        served as usize,
    );

    let per_query = traces.distances / nq;
    m.put("mvptree.distances_per_query", per_query, "count", n_traces);
    m.put(
        "mvptree.vantage_distances_per_query",
        traces.vantage / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.candidate_distances_per_query",
        traces.candidate / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.abandoned_per_query",
        traces.abandoned / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.nodes_visited_per_query",
        traces.nodes / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.subtrees_pruned_per_query",
        traces.pruned / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.candidates_rejected_per_query",
        traces.rejected / nq,
        "count",
        n_traces,
    );
    m.put(
        "mvptree.pruning_ratio",
        per_query / w.items.len() as f64,
        "ratio",
        n_traces,
    );
    m.put(
        "mvptree.yield",
        traces.results / traces.distances.max(1.0),
        "ratio",
        n_traces,
    );

    let inproc = match w.metric {
        MetricKind::L2 => in_process(&p, opts, Euclidean)?,
        MetricKind::L1 => in_process(&p, opts, Manhattan)?,
    };
    let mvp_us = median(&inproc.mvp_ns) / 1000.0;
    let mvp_mean_ns = inproc.mvp_ns.iter().sum::<f64>() / inproc.mvp_ns.len().max(1) as f64;
    let linear_us = median(&inproc.linear_ns) / 1000.0;
    let nt = inproc.mvp_ns.len();
    m.put("mvptree.search_us", mvp_us, "us", nt);
    m.put(
        "mvptree.ns_per_distance",
        mvp_mean_ns / per_query.max(1.0),
        "ns",
        nt,
    );
    m.put(
        "core.linear.search_us",
        linear_us,
        "us",
        inproc.linear_ns.len(),
    );
    m.put("mvptree.speedup_vs_linear", linear_us / mvp_us, "ratio", nt);
    m.put(
        "core.metrics.distance_ns",
        inproc.distance_ns,
        "ns",
        inproc.distance_calls,
    );
    m.put(
        "core.metrics.kernel_share",
        inproc.distance_ns * per_query / mvp_mean_ns,
        "ratio",
        nt,
    );
    m.put("core.counting.overhead_pct", inproc.counting_pct, "%", nt);
    let lines: Vec<&[u8]> = w
        .requests
        .iter()
        .take(ops)
        .map(|r| trim_nl(&r.line))
        .collect();
    m.put(
        "core.span.trace_id_ns",
        trace_id_ns(&lines),
        "ns",
        lines.len(),
    );
    m.put("telemetry.record_ns", record_ns(), "ns", RECORDS);
    m.put("core.swap.read_ns", swap_read_ns(false), "ns", SWAP_READS);
    m.put(
        "core.swap.read_contended_ns",
        swap_read_ns(true),
        "ns",
        SWAP_READS,
    );
    m.put("mvptree.build_ms", inproc.build_ms, "ms", 1);
    m.put(
        "mvptree.build_distances",
        inproc.build_distances,
        "count",
        1,
    );
    m.put("persist.save_ms", inproc.save_ms, "ms", 1);
    m.put("persist.open_ms", inproc.open_ms, "ms", 1);
    let build_s = if p.build_s.is_empty() {
        // Dynamic mode builds inside `serve`; time `vantage build` on
        // the same data so every workload reports the build layer.
        let snap = opts.work.join(format!("{name}.vsnap"));
        vec![server::build_snapshot(
            &opts.vantage,
            &p.csv,
            w.metric.flag(),
            &snap,
        )?]
    } else {
        p.build_s.clone()
    };
    m.put("cli.build_s", median(&build_s), "s", build_s.len());
    m.put(
        "cli.serve.ready_ms",
        median(&p.ready_s) * 1000.0,
        "ms",
        p.ready_s.len(),
    );
    let c = &inproc.concurrent;
    m.put(
        "mvptree.concurrent.insert_us",
        median(&c.insert_ns) / 1000.0,
        "us",
        c.insert_ns.len(),
    );
    m.put(
        "mvptree.concurrent.insert_max_ms",
        c.insert_max_ms,
        "ms",
        c.insert_ns.len(),
    );
    m.put("mvptree.concurrent.reindex_ms", c.reindex_ms, "ms", 1);
    m.put(
        "mvptree.concurrent.overflow_read_penalty",
        c.read_penalty,
        "ratio",
        PENALTY_QUERIES,
    );
    m.put(
        "trace.overhead_pct",
        (client_b / client_a - 1.0) * 100.0,
        "%",
        reads_b.len(),
    );
    // Per request, so that a mix of cheap and costly requests (a bimodal
    // latency) still sums correctly.
    let ratios: Vec<f64> = traces
        .covered_ns
        .iter()
        .map(|&(covered, client)| (ping * 1000.0 + covered) / client)
        .collect();
    let coverage = median(&ratios);
    m.put("attribution.coverage", coverage, "ratio", n_traces);

    let writes = sorted(&a.write_ns);
    if !writes.is_empty() {
        for (metric, q) in [("write_p50_us", 50.0), ("write_p99_us", 99.0)] {
            let v = percentile(&writes, q).map_or(f64::NAN, |x| x as f64 / 1000.0);
            m.report.extra(name, metric, v, "us", writes.len());
        }
    }
    if !(COVERAGE.0..=COVERAGE.1).contains(&coverage) {
        // Name the largest share of the client's time no span explains.
        let bookkeeping = med_us(&traces.bookkeeping_ns);
        let wire_beyond_ping = med_us(&traces.wire_ns) - ping;
        let (layer, us) = if bookkeeping > wire_beyond_ping {
            (
                "cli.serve.bookkeeping_us (trace-id hash, metrics/SLO record, trace capture)",
                bookkeeping,
            )
        } else {
            (
                "cli.serve.wire_us beyond a PING (request/reply bytes on the socket)",
                wire_beyond_ping,
            )
        };
        m.report.line(format!(
            "# {name} attribution.coverage {coverage:.3} outside [{}, {}]: unattributed layer {layer}, {us:.1} us",
            COVERAGE.0, COVERAGE.1
        ));
    }
    Ok(())
}

/// Reports per-layer metrics for one workload.
struct Metrics<'a> {
    name: &'a str,
    report: &'a mut Report,
}

impl<'a> Metrics<'a> {
    fn new(name: &'a str, report: &'a mut Report) -> Metrics<'a> {
        Metrics { name, report }
    }

    fn put(&mut self, metric: &str, value: f64, unit: &'static str, n: usize) {
        self.report.metric(self.name, metric, value, unit, n);
    }
}

fn trim_nl(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\n").unwrap_or(line)
}

/// A `PING` line padded to `len` bytes (the server ignores what follows
/// the verb), so its round trip carries as many request bytes as the
/// workload's queries do.
fn ping_line(len: usize) -> Vec<u8> {
    let mut line = b"PING ".to_vec();
    line.resize(len.max(6) - 1, b'x');
    line.push(b'\n');
    line
}

/// Fetches the `TRACE` of every query among operations `timed` of pass
/// `b`, matching each to its client-side latency. Returns the aggregates
/// and the number of traces that could not be fetched or read.
fn fetch_traces(
    w: &Workload,
    timed: std::ops::Range<usize>,
    b: &ConnOutcome,
    server: &server::Server,
) -> Result<(Traces, u64), String> {
    let sampler = Sampler::new(DATA_SEED, 1);
    let mut conn = Conn::open(server.addr)?;
    let mut t = Traces::default();
    let mut missing = 0;
    let client = &b.read_ns;
    let queries = timed.filter_map(|j| match w.op(0, 1, j) {
        Op::Query(i) => Some(i),
        _ => None,
    });
    for (k, i) in queries.enumerate() {
        let line = std::str::from_utf8(trim_nl(&w.requests[i].line)).map_err(|e| e.to_string())?;
        let id = sampler.trace_id(line);
        let reply = conn.call(&format!("TRACE {id}"))?;
        let Some(record) = reply.strip_prefix("OK ").and_then(|j| Json::parse(j).ok()) else {
            missing += 1;
            continue;
        };
        let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(0.0);
        let span = |name: &str| -> f64 {
            record
                .get("spans")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .map(|s| num(s.get("duration_ns")))
                .sum()
        };
        let (parse, search, reply_ns) = (span("parse"), span("search"), span("reply"));
        let total = num(record.get("total_ns"));
        t.parse_ns.push(parse);
        t.search_ns.push(search);
        t.reply_ns.push(reply_ns);
        t.server_ns.push(total);
        t.bookkeeping_ns.push(total - parse - search - reply_ns);
        if let Some(&c) = client.get(k) {
            t.wire_ns.push(c as f64 - total);
            t.covered_ns.push((parse + search + reply_ns, c as f64));
        }
        t.distances += num(record.get("distances"));
        t.abandoned += num(record.get("abandoned"));
        t.results += num(record.get("results"));
        if let Some(profile) = record.get("profile") {
            let d = profile.get("distances");
            t.vantage += num(d.and_then(|d| d.get("vantage-point")));
            t.candidate += num(d.and_then(|d| d.get("leaf-candidate")));
            t.nodes += num(profile.get("nodes_visited"));
            t.pruned += num(profile.get("subtrees_pruned"));
            t.rejected += num(profile.get("candidates_rejected"));
        }
    }
    Ok((t, missing))
}

/// In-process timings of the layers under the server.
struct InProcess {
    /// Per-query mvp search time with the plain metric.
    mvp_ns: Vec<f64>,
    /// `Counted<M>` against `M`, total time, percent.
    counting_pct: f64,
    linear_ns: Vec<f64>,
    distance_ns: f64,
    distance_calls: usize,
    build_ms: f64,
    build_distances: f64,
    save_ms: f64,
    open_ms: f64,
    concurrent: ConcurrentReplay,
}

struct ConcurrentReplay {
    insert_ns: Vec<f64>,
    insert_max_ms: f64,
    reindex_ms: f64,
    read_penalty: f64,
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

fn in_process<M>(p: &Prepared, opts: &Opts, metric: M) -> Result<InProcess, String>
where
    M: BoundedMetric<Vec<f64>> + BoundedMetric<[f64]> + MetricTag + Clone + Send + Sync + 'static,
{
    let w = &p.w;
    let reqs: Vec<(&Vec<f64>, Cmd)> = w
        .requests
        .iter()
        .take(INPROC_QUERIES)
        .map(|r| (&w.queries[r.query], r.cmd))
        .collect();

    // Build, save and open the tree the server serves.
    let counted = Counted::new(metric.clone());
    let start = Instant::now();
    let built = MvpTree::build(
        w.items.clone(),
        counted.clone(),
        mvp_params().threads(Threads::Auto),
    )
    .map_err(|e| e.to_string())?;
    let build_ms = elapsed_ns(start) / 1e6;
    let build_distances = counted.count() as f64;
    let path = opts.work.join("in-process.vsnap");
    let start = Instant::now();
    save_mvp_tree(&built, &path).map_err(|e| e.to_string())?;
    let save_ms = elapsed_ns(start) / 1e6;
    drop(built);
    let start = Instant::now();
    let plain = open_mvp_tree::<F64Vectors, M>(&path).map_err(|e| e.to_string())?;
    let open_ms = elapsed_ns(start) / 1e6;
    let counted_tree = open_mvp_tree::<F64Vectors, Counted<M>>(&path).map_err(|e| e.to_string())?;

    // Plain against counted metric, alternating which goes first.
    let (plain_view, counted_view) = (plain.view(), counted_tree.view());
    let run = |view: &dyn Fn(&[f64], Cmd) -> Vec<Neighbor>, q: &Vec<f64>, cmd: Cmd| {
        let start = Instant::now();
        black_box(view(black_box(q.as_slice()), cmd));
        elapsed_ns(start)
    };
    let plain_search = |q: &[f64], cmd: Cmd| match cmd {
        Cmd::Knn(k) => plain_view.knn(q, k),
        Cmd::Range(r) => {
            let mut v = plain_view.range(q, r);
            v.sort_unstable();
            v
        }
    };
    let counted_search = |q: &[f64], cmd: Cmd| match cmd {
        Cmd::Knn(k) => counted_view.knn(q, k),
        Cmd::Range(r) => {
            let mut v = counted_view.range(q, r);
            v.sort_unstable();
            v
        }
    };
    let (mut mvp_ns, mut counted_ns) = (Vec::new(), Vec::new());
    for (i, &(q, cmd)) in reqs.iter().enumerate() {
        if i % 2 == 0 {
            mvp_ns.push(run(&plain_search, q, cmd));
            counted_ns.push(run(&counted_search, q, cmd));
        } else {
            counted_ns.push(run(&counted_search, q, cmd));
            mvp_ns.push(run(&plain_search, q, cmd));
        }
    }
    let counting_pct = (counted_ns.iter().sum::<f64>() / mvp_ns.iter().sum::<f64>() - 1.0) * 100.0;

    let scan = LinearScan::new(w.items.clone(), metric.clone());
    let linear_ns: Vec<f64> = reqs
        .iter()
        .take(LINEAR_QUERIES)
        .map(|&(q, cmd)| {
            let start = Instant::now();
            black_box(cmd.answer(&scan, black_box(q)));
            elapsed_ns(start)
        })
        .collect();
    drop(scan);

    let (distance_ns, distance_calls) = distance_ns(&metric, &w.items, &w.queries);
    let concurrent = concurrent_replay(w, opts.seed, metric)?;
    Ok(InProcess {
        mvp_ns,
        counting_pct,
        linear_ns,
        distance_ns,
        distance_calls,
        build_ms,
        build_distances,
        save_ms,
        open_ms,
        concurrent,
    })
}

/// Mean time of one plain metric call from a query to an item, with
/// both in cache (the kernel, not memory): the median of five batches of
/// about 20 million coordinates each.
fn distance_ns<M: Metric<Vec<f64>>>(
    metric: &M,
    items: &[Vec<f64>],
    queries: &[Vec<f64>],
) -> (f64, usize) {
    let dim = items[0].len().max(1);
    // A working set of about 256 KiB.
    let hot = &items[..(32_768 / dim).clamp(2, items.len())];
    let calls = (20_000_000 / dim).max(1000);
    let batches: Vec<f64> = (0..5)
        .map(|b| {
            let q = &queries[b % queries.len()];
            let start = Instant::now();
            let mut sum = 0.0;
            for x in hot.iter().cycle().take(calls) {
                sum += metric.distance(black_box(q), black_box(x));
            }
            black_box(sum);
            elapsed_ns(start) / calls as f64
        })
        .collect();
    (median(&batches), calls * batches.len())
}

/// Replays a write sequence on an in-process `ConcurrentMvpTree` over
/// the workload's data: 3 inserts, then a delete of the oldest surviving
/// insert, repeated. The dynamic workload replays its own inserts,
/// enough to rebuild twice; static workloads replay perturbed members.
fn concurrent_replay<M>(w: &Workload, seed: u64, metric: M) -> Result<ConcurrentReplay, String>
where
    M: BoundedMetric<Vec<f64>> + Clone + Send + Sync,
{
    let tree = ConcurrentMvpTree::with_items(w.items.clone(), metric, mvp_params())
        .map_err(|e| e.to_string())?;
    let inserts: Vec<Vec<f64>> = if w.dynamic {
        let pool = &w.inserts[0];
        (0..DYNAMIC_REPLAY_INSERTS)
            .map(|i| pool[i % pool.len()].item.clone())
            .collect()
    } else {
        let mut rng = Rng::new(seed ^ 0xC0C0);
        (0..(w.items.len() / 2).min(2000))
            .map(|_| {
                let base = &w.items[rng.below(w.items.len())];
                base.iter()
                    .map(|x| x + (rng.unit() * 2.0 - 1.0) * 0.15)
                    .collect()
            })
            .collect()
    };
    let mut insert_ns = Vec::with_capacity(inserts.len());
    let mut pending = std::collections::VecDeque::new();
    for (i, item) in inserts.into_iter().enumerate() {
        let start = Instant::now();
        pending.push_back(tree.insert(item));
        insert_ns.push(elapsed_ns(start));
        if i % 3 == 2 {
            let id = pending.pop_front().expect("three inserts pending");
            if !tree.remove(id) {
                return Err(format!("in-process delete of {id} failed"));
            }
        }
    }
    let queries: Vec<&Vec<f64>> = w.queries.iter().take(PENALTY_QUERIES).collect();
    // Each timing follows an untimed pass, so both run on warm caches.
    let time_reads = || {
        let mut ns = 0.0;
        for timed in [false, true] {
            let start = Instant::now();
            for q in &queries {
                black_box(tree.knn(black_box(q), 10));
            }
            if timed {
                ns = elapsed_ns(start);
            }
        }
        ns
    };
    let before = time_reads();
    let start = Instant::now();
    tree.reindex();
    let reindex_ms = elapsed_ns(start) / 1e6;
    let after = time_reads();
    let insert_max_ms = insert_ns.iter().copied().fold(0.0, f64::max) / 1e6;
    Ok(ConcurrentReplay {
        insert_ns,
        insert_max_ms,
        reindex_ms,
        read_penalty: before / after,
    })
}

/// `Sampler::trace_id` over the workload's request lines, ns per line.
fn trace_id_ns(lines: &[&[u8]]) -> f64 {
    let sampler = Sampler::new(DATA_SEED, 1);
    let lines: Vec<&str> = lines
        .iter()
        .map(|l| std::str::from_utf8(l).expect("request lines are UTF-8"))
        .collect();
    let mut calls = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(50) {
        for line in &lines {
            black_box(sampler.trace_id(black_box(line)));
        }
        calls += lines.len();
    }
    elapsed_ns(start) / calls.max(1) as f64
}

const RECORDS: usize = 200_000;

/// One `IndexMetrics::record` plus one `SloSurface::record`, the
/// telemetry every served query pays, in ns.
fn record_ns() -> f64 {
    let registry = MetricsRegistry::new();
    let metrics = registry.index("vbench");
    let slo = SloSurface::new();
    let start = Instant::now();
    for i in 0..RECORDS as u64 {
        let latency = 20_000 + (i * 7919) % 500_000;
        metrics.record(
            OpKind::Knn,
            Duration::from_nanos(latency),
            CostDelta {
                computations: 100 + i % 10_000,
                ..CostDelta::default()
            },
        );
        slo.record(OpKind::Knn, latency, i);
    }
    elapsed_ns(start) / RECORDS as f64
}

const SWAP_READS: usize = 200_000;

/// `SwapCell::read` plus dropping the guard, in ns; with `contended`, a
/// second thread reads the same cell throughout.
fn swap_read_ns(contended: bool) -> f64 {
    let cell = SwapCell::new(7u64);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        if contended {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    black_box(*cell.read());
                }
            });
        }
        let start = Instant::now();
        for _ in 0..SWAP_READS {
            black_box(*cell.read());
        }
        let ns = elapsed_ns(start) / SWAP_READS as f64;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        ns
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, Source};
    use std::path::PathBuf;

    /// The `vantage` binary under test: `$VANTAGE_BIN`, else the release
    /// build in `$CARGO_TARGET_DIR` or the repository's `target`.
    fn vantage_bin() -> PathBuf {
        if let Ok(bin) = std::env::var("VANTAGE_BIN") {
            return PathBuf::from(bin);
        }
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target"));
        let bin = target.join("release/vantage");
        assert!(
            bin.is_file(),
            "{} not found: run `cargo build --release -p vantage-cli` first",
            bin.display()
        );
        bin
    }

    #[test]
    fn harness_trace_ids_round_trip_through_a_live_server() {
        let dir = std::env::temp_dir().join(format!("vbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("points.csv");
        let points: String = (0..200)
            .map(|i| format!("{},{},{}\n", i % 7, i % 11, f64::from(i) / 3.0))
            .collect();
        std::fs::write(&csv, points).unwrap();
        let server = Server::spawn(
            &vantage_bin(),
            Source::Data {
                csv: &csv,
                metric: "l2",
            },
            1,
            64,
            &dir.join("addr"),
        )
        .unwrap();
        let mut conn = Conn::open(server.addr).unwrap();
        let sampler = Sampler::new(DATA_SEED, 1);
        for line in ["KNN 3 1,2,3", "RANGE 2.5 0,0,10"] {
            let reply = conn.call(line).unwrap();
            assert!(reply.starts_with("OK "), "{line}: {reply}");
            let id = sampler.trace_id(line);
            let trace = conn.call(&format!("TRACE {id}")).unwrap();
            let record = Json::parse(trace.strip_prefix("OK ").expect("trace found")).unwrap();
            assert_eq!(
                record.get("id").and_then(Json::as_str),
                Some(&*id.to_string())
            );
            assert_eq!(
                record.get("verb").and_then(Json::as_str),
                line.split(' ').next()
            );
        }
        // An id the server never saw is not found.
        let missing = conn.call("TRACE 0000000000000001").unwrap();
        assert!(missing.starts_with("ERR "), "{missing}");
        drop(conn);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ping_lines_are_padded_to_the_request_length() {
        assert_eq!(ping_line(12), b"PING xxxxxx\n");
        assert_eq!(ping_line(0), b"PING \n");
    }
}
