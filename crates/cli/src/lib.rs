//! # vantage-cli
//!
//! A small command-line interface over the vantage workspace:
//!
//! ```text
//! vantage generate uniform   --n 1000 --dim 20 --seed 1 [--out data.csv]
//! vantage generate clustered --clusters 10 --size 100 --dim 20 --epsilon 0.15 --seed 1
//! vantage generate words     --n 500 --seed 1
//! vantage query  --data data.csv --metric l2 --structure mvp --range 0.3 --query 0.5,0.5,...
//! vantage query  --data words.txt --metric edit --knn 3 --query hello
//! vantage stats  --data data.csv --metric l2
//! vantage experiment fig08 [--scale quick|full]
//! vantage help
//! ```
//!
//! Vector datasets are CSV (one comma-separated vector per line); string
//! datasets are plain lines. The `query` command reports results *and*
//! the number of metric distance computations — the paper's cost model —
//! for the chosen structure.
//!
//! The whole CLI is a library (`run`) so commands are unit-testable; the
//! binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

use vantage_core::prelude::*;
use vantage_experiments::Scale;
use vantage_mvptree::route::k_bucket;
use vantage_mvptree::{MvpParams, SCAN_BETA};
use vantage_persist::{self as persist, IndexKind, SnapshotInfo};
use vantage_telemetry::export::{self, thousands};
use vantage_telemetry::{CostDelta, IndexMetrics, MetricsRegistry, OpKind};
use vantage_vptree::VpTreeParams;

mod serve;
pub mod vectext;

use serve::{
    load_byte_index, load_index_typed, op_kind, ByteQuery, Routing, ServeMetric, ServedQuery,
    WireItem, WireQuery,
};

/// CLI failure: a message for the user (exit code 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// CLI result alias (the core prelude shadows `std::result::Result`
/// with its own single-parameter alias).
type CliResult<T> = std::result::Result<T, CliError>;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Minimal `--flag value` argument map for one command. It records
/// which flags the command reads, so [`Args::finish`] can refuse any
/// flag the command would otherwise ignore.
struct Args<'a> {
    command: &'static str,
    pairs: Vec<(&'a str, &'a str, Cell<bool>)>,
}

impl<'a> Args<'a> {
    fn parse(command: &'static str, raw: &'a [String]) -> CliResult<Self> {
        let mut pairs: Vec<(&str, &str, Cell<bool>)> = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let flag = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected --flag, got `{}`", raw[i])))?;
            let value = raw
                .get(i + 1)
                .ok_or_else(|| err(format!("flag --{flag} needs a value")))?;
            if pairs.iter().any(|(f, ..)| *f == flag) {
                return Err(err(format!("flag --{flag} given more than once")));
            }
            pairs.push((flag, value.as_str(), Cell::new(false)));
            i += 2;
        }
        Ok(Args { command, pairs })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        let (_, value, read) = self.pairs.iter().find(|(f, ..)| *f == flag)?;
        read.set(true);
        Some(*value)
    }

    /// Refuses the first flag the command has not read. Each command
    /// calls it once, after reading every flag that applies and before
    /// doing any work, so a misspelled or inapplicable flag is an error
    /// rather than a silent default.
    fn finish(&self) -> CliResult<()> {
        match self.pairs.iter().find(|(.., read)| !read.get()) {
            Some((flag, ..)) => Err(err(format!(
                "unknown flag --{flag} for {} (see `vantage help`)",
                self.command
            ))),
            None => Ok(()),
        }
    }

    fn required(&self, flag: &str) -> CliResult<&'a str> {
        self.get(flag)
            .ok_or_else(|| err(format!("missing required flag --{flag}")))
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> CliResult<T> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("invalid value for --{flag}: `{v}`"))),
        }
    }

    fn required_parsed<T: std::str::FromStr>(&self, flag: &str) -> CliResult<T> {
        let v = self.required(flag)?;
        v.parse()
            .map_err(|_| err(format!("invalid value for --{flag}: `{v}`")))
    }
}

/// The usage text printed by `vantage help`.
pub const USAGE: &str = "\
vantage — distance-based indexing for high-dimensional metric spaces

USAGE:
  vantage generate uniform   --n N --dim D [--seed S] [--out FILE]
  vantage generate clustered --clusters C --size K --dim D [--epsilon E] [--seed S] [--out FILE]
  vantage generate words     --n N [--seed S] [--out FILE]
  vantage build  --data FILE --save FILE [--metric l1|l2|linf|edit] [--structure mvp|vp|linear]
                 [--seed S] [--threads auto|N] [--metrics FILE]
  vantage query  (--data FILE | --index FILE) --query Q [--metric l1|l2|linf|edit]
                 (--range R | --knn K) [--budget N] [--metrics FILE]
                 [--structure mvp|vp|linear] [--seed S] [--threads auto|N]  (--data only)
  vantage explain (--data FILE | --index FILE) --query Q [--metric l1|l2|linf|edit]
                 (--range R | --knn K) [--metrics FILE]
                 [--structure mvp|vp|linear] [--seed S] [--threads auto|N]  (--data only)
  vantage stats  --data FILE [--metric l1|l2|linf|edit] [--bin W] [--threads auto|N]
  vantage stats  --metrics FILE [--format table|json|prom]
  vantage stats  --index FILE
  vantage experiment NAME [--scale quick|full]
       NAME: fig04..fig11, ablation_k, ablation_p, ablation_m, ablation_vp,
             construction, comparators, knn, pruning, budget
  vantage serve  (--index FILE | --data FILE) [--addr HOST:PORT] [--addr-file FILE]
                 [--metric l1|l2|linf|edit] [--metrics-out FILE]
                 [--seed S] [--threads auto|N (--data only)]
                 [--trace-sample N] [--slow-ms MS] [--slow-log FILE] [--trace-ring N]
  vantage client --addr HOST:PORT --cmd \"COMMAND\"
  vantage trace  --addr HOST:PORT [--id HEX] [--export FILE]
  vantage serve-smoke --addr HOST:PORT --index FILE [--threads N]
                 [--queries N] [--reloads R]
  vantage help

Vector data files are CSV (one vector per line); `--metric edit` treats
the file as one word per line. `query` reports the answers and the number
of distance computations used. `explain` runs the same search with the
observability layer attached and prints a per-query pruning breakdown:
which triangle-inequality filter cut each subtree or leaf candidate, the
bounds that justified the cuts, and the per-level fanout.

`build` constructs an index once and writes a versioned, checksummed
snapshot with `--save`; `query --index` / `explain --index` reload that
snapshot instead of rebuilding — the structure, metric and parameters
are read from the file, and answers (results *and* distance counts) are
bit-identical to querying the freshly built index. `stats --index`
prints the snapshot header (format version, kind, metric, item count,
dataset digest, size) after verifying every checksum.

`--metrics FILE` on `query`/`explain` runs the command under the serving
telemetry layer and writes a metrics snapshot (latency and
distance-computation histograms per operation) as JSON to FILE;
`vantage stats --metrics FILE` renders a snapshot back as a per-index,
per-operation table with p50/p95/p99 percentiles, or re-exports it as
JSON or Prometheus text with `--format`.

`serve` starts a long-lived TCP server answering range/kNN/k-farthest
queries over a newline-delimited line protocol (PING, INFO, RANGE, KNN,
BEYOND, KFN, STATS, SHUTDOWN; plus RELOAD/REINDEX for zero-downtime
index swaps and INSERT/DELETE in `--data` mode). `client` sends one
command and prints the reply; `serve-smoke` is a multi-threaded client
that replays a scripted workload during live RELOAD swaps and verifies
every reply is bit-identical to a direct run against the same snapshot.
See DESIGN.md \"Serving\" for the protocol grammar and swap semantics.
A request line longer than 16 MiB is
discarded as it arrives and answered with an error; the connection
stays open, and STATS counts such lines in `serve/long_lines`.

`serve` also traces requests: one query in `--trace-sample` N (default
64, deterministic in the request line and `--seed`) records per-phase
spans and a pruning profile, and queries slower than `--slow-ms`
(default 100) are always captured — into a bounded in-memory ring
(`SLOW`/`TRACE`/`SLO` protocol commands) and, with `--slow-log FILE`,
appended to FILE as JSON lines. `vantage trace` fetches one captured
trace (default: the slowest) and `--export` writes Chrome trace-event
JSON for chrome://tracing or Perfetto. Tracing never changes answers;
see DESIGN.md \"Request tracing & SLOs\".

`--budget N` on `query --knn` caps the search at N distance computations
and reports the best-effort answer with its self-estimated recall; see
DESIGN.md \"Budgeted search\".

`--threads` controls construction/statistics parallelism (default: auto,
i.e. all cores, or the VANTAGE_THREADS environment variable). The worker
count never changes any result — builds are bit-identical across thread
counts.
";

/// Runs the CLI. `argv` excludes the program name. Output is written to
/// `out` so tests can capture it.
pub fn run(argv: &[String], out: &mut String) -> CliResult<()> {
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            out.push_str(USAGE);
            Ok(())
        }
        Some("generate") => cmd_generate(&argv[1..], out),
        Some("build") => cmd_build(&argv[1..], out),
        Some("query") => cmd_query(&argv[1..], out),
        Some("explain") => cmd_explain(&argv[1..], out),
        Some("stats") => cmd_stats(&argv[1..], out),
        Some("experiment") => cmd_experiment(&argv[1..], out),
        Some("serve") => cmd_serve(&argv[1..], out),
        Some("client") => serve::cmd_client(&argv[1..], out),
        Some("trace") => serve::cmd_trace(&argv[1..], out),
        Some("serve-smoke") => serve::cmd_serve_smoke(&argv[1..], out),
        Some(other) => Err(err(format!(
            "unknown command `{other}` (try `vantage help`)"
        ))),
    }
}

fn cmd_serve(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("serve", argv)?;
    let opts = serve::ServeOptions::from_args(&args)?;
    match (args.get("data"), args.get("index")) {
        (None, Some(snapshot)) => {
            args.finish()?;
            serve::serve_snapshot(snapshot, opts, out)
        }
        (Some(data), None) => {
            // Only the dynamic engine builds a tree; a snapshot is
            // served as saved.
            let threads = parse_threads(&args)?;
            args.finish()?;
            serve::serve_data(data, threads, opts, out)
        }
        _ => Err(err(
            "serve needs exactly one of --data FILE or --index FILE",
        )),
    }
}

fn write_or_print(path: Option<&str>, content: &str, out: &mut String) -> CliResult<()> {
    match path {
        Some(path) => {
            fs::write(path, content).map_err(|e| err(format!("cannot write {path}: {e}")))
        }
        None => {
            out.push_str(content);
            Ok(())
        }
    }
}

fn cmd_generate(argv: &[String], out: &mut String) -> CliResult<()> {
    let kind = argv
        .first()
        .ok_or_else(|| err("generate needs a kind: uniform | clustered | words"))?;
    let args = Args::parse("generate", &argv[1..])?;
    let seed: u64 = args.parsed("seed", 0)?;
    let content = match kind.as_str() {
        "uniform" => {
            let n: usize = args.required_parsed("n")?;
            let dim: usize = args.required_parsed("dim")?;
            vectors_to_csv(&vantage_datasets::uniform_vectors(n, dim, seed))
        }
        "clustered" => {
            let config = vantage_datasets::ClusteredConfig {
                clusters: args.required_parsed("clusters")?,
                cluster_size: args.required_parsed("size")?,
                dim: args.required_parsed("dim")?,
                epsilon: args.parsed("epsilon", 0.15)?,
                seed,
            };
            let data =
                vantage_datasets::clustered_vectors(&config).map_err(|e| err(e.to_string()))?;
            vectors_to_csv(&data)
        }
        "words" => {
            let n: usize = args.required_parsed("n")?;
            let mut s = vantage_datasets::random_words(n, 4, 12, seed).join("\n");
            s.push('\n');
            s
        }
        other => return Err(err(format!("unknown dataset kind `{other}`"))),
    };
    let path = args.get("out");
    args.finish()?;
    write_or_print(path, &content, out)
}

fn vectors_to_csv(vectors: &[Vec<f64>]) -> String {
    let mut s = String::new();
    for v in vectors {
        let line: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        s.push_str(&line.join(","));
        s.push('\n');
    }
    s
}

fn read_vectors(path: &str) -> CliResult<Vec<Vec<f64>>> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let mut vectors = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            vectext::parse_vector(line).map_err(|e| err(format!("{path}:{}: {e}", lineno + 1)))?;
        vectors.push(v);
    }
    if let Some(first) = vectors.first() {
        let dim = first.len();
        if vectors.iter().any(|v| v.len() != dim) {
            return Err(err(format!("{path}: inconsistent vector dimensions")));
        }
    }
    Ok(vectors)
}

fn read_words(path: &str) -> CliResult<Vec<String>> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

/// Parses `--range R` / `--knn K` into the query verb `query` and
/// `explain` run.
fn query_cmd(args: &Args<'_>) -> CliResult<Query> {
    match (args.get("range"), args.get("knn")) {
        (Some(r), None) => match r.parse::<f64>() {
            Ok(radius) if !radius.is_nan() => Ok(Query::Range(radius)),
            _ => Err(err(format!("invalid value for --range: `{r}`"))),
        },
        (None, Some(k)) => {
            Ok(Query::Knn(k.parse().map_err(|_| {
                err(format!("invalid value for --knn: `{k}`"))
            })?))
        }
        _ => Err(err("query needs exactly one of --range R or --knn K")),
    }
}

/// Parses the `--threads` flag: `auto` (the default) resolves to all
/// available cores, an integer pins the worker count.
fn parse_threads(args: &Args<'_>) -> CliResult<Threads> {
    match args.get("threads") {
        None | Some("auto") => Ok(Threads::Auto),
        Some(v) => v
            .parse::<usize>()
            .map(Threads::Fixed)
            .map_err(|_| err(format!("invalid value for --threads: `{v}` (auto|N)"))),
    }
}

/// The mvp-tree parameters every CLI command builds with — `build`,
/// `query --data` and `explain --data` must agree so a saved snapshot
/// answers identically to a fresh build.
fn mvp_build_params(seed: u64, threads: Threads) -> MvpParams {
    MvpParams::paper(3, 80, 5).seed(seed).threads(threads)
}

/// The vp-tree parameters every CLI command builds with.
fn vp_build_params(seed: u64, threads: Threads) -> VpTreeParams {
    VpTreeParams::binary().seed(seed).threads(threads)
}

/// The registry label used for an index loaded from a snapshot — the
/// same short names the `--structure` flag uses.
fn structure_label(kind: IndexKind) -> &'static str {
    match kind {
        IndexKind::VpTree => "vp",
        IndexKind::MvpTree => "mvp",
        IndexKind::Linear => "linear",
    }
}

/// One `query` or `explain` request: the verb, `query --budget`, and
/// whether to profile the descent (`explain`).
struct Ask {
    cmd: Query,
    budget: Option<u64>,
    explain: bool,
}

/// What one `query` or `explain` run reports: the answers (at most
/// 1 000), the query's distance computations, the index size, the
/// budget verdict (`query --budget`, its neighbors moved to `results`)
/// or pruning profile (`explain`), and how the index routed the query.
struct Answer {
    results: Vec<Neighbor>,
    cost: u64,
    n: usize,
    budget: Option<BudgetedKnn>,
    profile: QueryProfile,
    routing: Routing,
}

/// Answers `ask` on an index of `n` items — the one query phase behind
/// `query` and `explain`, built or loaded, through the same
/// [`ServedQuery`] paths `serve` answers with. Each path counts the
/// query's own cost; with `metrics` set it is recorded as one operation.
/// `--budget` applies to kNN only: range queries have no best-effort
/// mode.
fn answer<T>(
    index: &dyn ServedQuery<T>,
    n: usize,
    query: &T,
    ask: &Ask,
    metrics: &Option<Arc<IndexMetrics>>,
) -> CliResult<Answer> {
    let start = Instant::now();
    let mut profile = QueryProfile::new();
    let mut budget = None;
    let (mut results, cost) = match (ask.cmd, ask.budget) {
        (Query::Knn(k), Some(max)) => {
            let mut out = index.knn_budgeted(query, k, SearchBudget::limited(max));
            let answers = (std::mem::take(&mut out.neighbors), out.cost());
            budget = Some(out);
            answers
        }
        (_, Some(_)) => {
            return Err(err(
                "--budget applies to --knn only (range queries have no best-effort mode)",
            ))
        }
        (cmd, None) if ask.explain => {
            let mut rec = SpanRecorder::with_origin(start);
            let (results, descent, cost) = index.execute_traced(cmd, query, &mut rec);
            profile = descent;
            (results, cost)
        }
        (cmd, None) => index.execute(cmd, query),
    };
    if let Some(metrics) = metrics {
        let (op, latency) = (op_kind(ask.cmd), start.elapsed());
        match &budget {
            Some(b) => {
                metrics.record_budgeted(op, latency, cost.into(), b.exhausted, b.estimated_recall)
            }
            None => metrics.record(op, latency, cost.into()),
        }
    }
    results.truncate(1000); // terminal sanity for huge result sets
    Ok(Answer {
        results,
        cost: cost.computations,
        n,
        budget,
        profile,
        routing: index.routing(),
    })
}

/// How `query --data` / `explain --data` build their index.
struct BuildSpec<'a> {
    structure: &'a str,
    seed: u64,
    threads: Threads,
}

/// Builds the requested structure over `items` and answers `ask` on it.
/// The build is recorded as [`OpKind::Build`] with the cost its builder
/// counted.
fn answer_built<T: WireItem, M: ServeMetric<T>>(
    items: Vec<T>,
    metric: M,
    query: &T,
    spec: &BuildSpec<'_>,
    ask: &Ask,
    metrics: &Option<Arc<IndexMetrics>>,
) -> CliResult<Answer> {
    let n = items.len();
    let (seed, threads) = (spec.seed, spec.threads);
    let built = |e: VantageError| err(e.to_string());
    let build_start = Instant::now();
    let (index, build_cost) = match spec.structure {
        "mvp" => {
            let tree = serve::build_mvp(items, metric, seed, threads).map_err(built)?;
            let cost = tree.build_distances();
            (serve::served(tree), cost)
        }
        "vp" => {
            let tree = serve::build_vp(items, metric, seed, threads).map_err(built)?;
            let cost = tree.build_distances();
            (serve::served(tree), cost)
        }
        "linear" => (serve::served::<T, T, _>(LinearScan::new(items, metric)), 0),
        other => return Err(err(format!("unknown structure `{other}` (mvp|vp|linear)"))),
    };
    if let Some(metrics) = metrics {
        record_build(metrics, build_start, build_cost);
    }
    answer(&*index, n, query, ask, metrics)
}

/// Records a completed build: wall-clock latency plus the distance
/// computations its builders counted.
fn record_build(metrics: &IndexMetrics, build_start: Instant, cost: u64) {
    let cost = CostDelta {
        computations: cost,
        ..CostDelta::default()
    };
    metrics.record(OpKind::Build, build_start.elapsed(), cost);
}

/// Records a completed snapshot load: wall-clock latency plus the file
/// size in bytes (the byte count rides in the `computations` slot — see
/// the [`OpKind::SnapshotLoad`] contract).
fn record_snapshot_load(metrics: &IndexMetrics, load_start: Instant, bytes: u64) {
    let cost = CostDelta {
        computations: bytes,
        ..CostDelta::default()
    };
    metrics.record(OpKind::SnapshotLoad, load_start.elapsed(), cost);
}

/// Builds the index `query --data` / `explain --data` asks: the item
/// type and metric come from `--metric`, the structure from the
/// remaining flags. Also returns the structure label (for the `explain`
/// profile header).
fn run_data<'a>(
    data: &str,
    args: &Args<'a>,
    query_text: &str,
    ask: &Ask,
    registry: &MetricsRegistry,
) -> CliResult<(Answer, &'a str)> {
    let metric_name = args.get("metric").unwrap_or("l2");
    let spec = BuildSpec {
        structure: args.get("structure").unwrap_or("mvp"),
        seed: args.parsed("seed", 0)?,
        threads: parse_threads(args)?,
    };
    let metrics = args.get("metrics").map(|_| registry.index(spec.structure));
    args.finish()?;
    let answer = if metric_name == "edit" {
        let words = read_words(data)?;
        let query = query_text.to_string();
        answer_built(words, Levenshtein, &query, &spec, ask, &metrics)?
    } else {
        let vectors = read_vectors(data)?;
        let query = parse_vector_query(query_text)?;
        if let Some(first) = vectors.first() {
            if first.len() != query.len() {
                return Err(err(format!(
                    "query has {} dimensions, data has {}",
                    query.len(),
                    first.len()
                )));
            }
        }
        match metric_name {
            "l2" => answer_built(vectors, Euclidean, &query, &spec, ask, &metrics)?,
            "l1" => answer_built(vectors, Manhattan, &query, &spec, ask, &metrics)?,
            "linf" => answer_built(vectors, Chebyshev, &query, &spec, ask, &metrics)?,
            other => return Err(err(format!("unknown metric `{other}` (l1|l2|linf|edit)"))),
        }
    };
    Ok((answer, spec.structure))
}

/// Writes a registry snapshot as JSON to `path` and notes it in `out`.
fn write_metrics_snapshot(
    registry: &MetricsRegistry,
    path: &str,
    out: &mut String,
) -> CliResult<()> {
    let json = export::to_json(&registry.snapshot());
    fs::write(path, json).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    writeln!(out, "metrics snapshot written to {path}")
        .map_err(|e| err(format!("cannot append to report: {e}")))?;
    Ok(())
}

/// Opens a snapshot through one of `serve`'s loaders (`load`) — trees
/// zero-copy over the unsized item form (`&[f64]`, `&[u8]`, `&str`), a
/// linear scan's items copied out — and answers `ask` on it. Answers and
/// distance counts diff clean against a fresh build. The load is
/// recorded as [`OpKind::SnapshotLoad`] in place of a build.
fn answer_loaded<T: WireQuery>(
    (path, info, ask, metrics): (&str, &SnapshotInfo, &Ask, &Option<Arc<IndexMetrics>>),
    load: serve::LoadFn<T>,
    query: &T,
) -> CliResult<Answer> {
    let load_start = Instant::now();
    let loaded = load(path)?;
    if let Some(metrics) = metrics {
        record_snapshot_load(metrics, load_start, info.bytes);
    }
    // The Lp metrics require equal lengths: refuse here, as `serve` does.
    serve::check_dims("query", query, loaded.dims).map_err(err)?;
    answer(&*loaded.index, loaded.items as usize, query, ask, metrics)
}

/// Rejects a snapshot whose metric tag differs from an explicitly
/// requested `--metric` with a typed mismatch error. A snapshot always
/// knows its own metric, so silently ignoring a conflicting flag (or
/// worse, answering under the wrong metric) would mask operator error.
fn check_snapshot_metric(info: &SnapshotInfo, requested: Option<&str>) -> CliResult<()> {
    match requested {
        Some(want) if want != info.metric => Err(err(VantageError::mismatch(
            "metric",
            info.metric.clone(),
            want.to_string(),
        )
        .to_string())),
        _ => Ok(()),
    }
}

/// Parses `--query` as a comma-separated vector of finite floats.
fn parse_vector_query(query_text: &str) -> CliResult<Vec<f64>> {
    WireQuery::parse_wire(query_text).map_err(err)
}

/// Dispatches `query --index` / `explain --index` on a snapshot file:
/// the index kind, item type and metric all come from the file's
/// header, not from flags. Also returns the structure label (for the
/// `explain` profile header).
fn run_snapshot(
    path: &str,
    args: &Args<'_>,
    query_text: &str,
    ask: &Ask,
    registry: &MetricsRegistry,
) -> CliResult<(Answer, &'static str)> {
    let info = persist::inspect(path).map_err(|e| err(format!("{path}: {e}")))?;
    check_snapshot_metric(&info, args.get("metric"))?;
    let label = structure_label(info.kind);
    let metrics = args.get("metrics").map(|_| registry.index(label));
    args.finish()?;
    let run = (path, &info, ask, &metrics);
    let answer = match (info.item.as_str(), info.metric.as_str()) {
        ("utf8-string", "edit") => answer_loaded(
            run,
            load_index_typed::<String, Levenshtein>,
            &query_text.to_string(),
        )?,
        ("f64-vector", metric @ ("l2" | "l1" | "linf")) => {
            let query = parse_vector_query(query_text)?;
            let load: serve::LoadFn<Vec<f64>> = match metric {
                "l2" => load_index_typed::<_, Euclidean>,
                "l1" => load_index_typed::<_, Manhattan>,
                _ => load_index_typed::<_, Chebyshev>,
            };
            answer_loaded(run, load, &query)?
        }
        ("u8-vector", metric @ ("l2" | "l1")) => {
            // Parsed once, into the form the byte snapshot searches.
            let query = ByteQuery::parse_wire(query_text).map_err(err)?;
            let load: serve::LoadFn<ByteQuery> = match metric {
                "l2" => load_byte_index::<Euclidean>,
                _ => load_byte_index::<Manhattan>,
            };
            answer_loaded(run, load, &query)?
        }
        (item, metric) => {
            return Err(err(format!(
                "{path}: snapshot combination {item}/{metric} is not supported by this CLI"
            )))
        }
    };
    Ok((answer, label))
}

/// Answers `query` or `explain` from `--data` (built here) or `--index`
/// (a saved snapshot), returning the answer and the structure label.
fn run_ask<'a>(
    args: &Args<'a>,
    ask: &Ask,
    registry: &MetricsRegistry,
) -> CliResult<(Answer, &'a str)> {
    let query_text = args.required("query")?;
    match (args.get("data"), args.get("index")) {
        (None, Some(snapshot)) => run_snapshot(snapshot, args, query_text, ask, registry),
        (Some(data), None) => run_data(data, args, query_text, ask, registry),
        _ => Err(err(format!(
            "{} needs exactly one of --data FILE or --index FILE",
            args.command
        ))),
    }
}

/// Builds the requested structure and writes a snapshot, returning
/// `(construction cost, snapshot bytes, item count)`.
fn build_and_save<T: WireItem, M: ServeMetric<T>>(
    items: Vec<T>,
    metric: M,
    structure: &str,
    seed: u64,
    threads: Threads,
    save: &str,
    metrics: Option<Arc<IndexMetrics>>,
) -> CliResult<(u64, u64, usize)> {
    let n = items.len();
    let build_start = Instant::now();
    let built = |e: VantageError| err(e.to_string());
    let (cost, bytes) = match structure {
        "mvp" => {
            let tree = serve::build_mvp(items, metric, seed, threads).map_err(built)?;
            (tree.build_distances(), persist::save_mvp_tree(&tree, save))
        }
        "vp" => {
            let tree = serve::build_vp(items, metric, seed, threads).map_err(built)?;
            (tree.build_distances(), persist::save_vp_tree(&tree, save))
        }
        "linear" => (
            0,
            persist::save_linear_scan(&LinearScan::new(items, metric), save),
        ),
        other => return Err(err(format!("unknown structure `{other}` (mvp|vp|linear)"))),
    };
    let bytes = bytes.map_err(built)?;
    if let Some(metrics) = &metrics {
        record_build(metrics, build_start, cost);
    }
    Ok((cost, bytes, n))
}

/// The byte rows `build` saves L1/L2 vectors as: `Some` when the data
/// is at least [`MIN_BYTE_DISPATCH`](vantage_core::simd::MIN_BYTE_DISPATCH)
/// coordinates wide, where the byte kernels run, and every coordinate is
/// a byte ([`vectext::narrow`]). Byte rows give the same distances as the
/// `f64` rows, so the snapshot answers alike at a fraction of the size.
fn byte_rows(vectors: &[Vec<f64>]) -> Option<Vec<Vec<u8>>> {
    let dim = vectors.first()?.len();
    if dim < vantage_core::simd::MIN_BYTE_DISPATCH {
        return None;
    }
    vectors.iter().map(|v| vectext::narrow(v)).collect()
}

fn cmd_build(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("build", argv)?;
    let data = args.required("data")?;
    let save = args.required("save")?;
    let metric_name = args.get("metric").unwrap_or("l2");
    let structure = args.get("structure").unwrap_or("mvp");
    let seed: u64 = args.parsed("seed", 0)?;
    let threads = parse_threads(&args)?;
    let registry = MetricsRegistry::new();
    let metrics = args.get("metrics").map(|_| registry.index(structure));
    args.finish()?;

    let (cost, bytes, n) = if metric_name == "edit" {
        build_and_save(
            read_words(data)?,
            Levenshtein,
            structure,
            seed,
            threads,
            save,
            metrics,
        )?
    } else {
        let vectors = read_vectors(data)?;
        let bytes = match metric_name {
            "l1" | "l2" => byte_rows(&vectors),
            _ => None,
        };
        match (metric_name, bytes) {
            ("l2", Some(bytes)) => {
                build_and_save(bytes, Euclidean, structure, seed, threads, save, metrics)?
            }
            ("l1", Some(bytes)) => {
                build_and_save(bytes, Manhattan, structure, seed, threads, save, metrics)?
            }
            ("l2", None) => {
                build_and_save(vectors, Euclidean, structure, seed, threads, save, metrics)?
            }
            ("l1", None) => {
                build_and_save(vectors, Manhattan, structure, seed, threads, save, metrics)?
            }
            ("linf", _) => {
                build_and_save(vectors, Chebyshev, structure, seed, threads, save, metrics)?
            }
            (other, _) => return Err(err(format!("unknown metric `{other}` (l1|l2|linf|edit)"))),
        }
    };
    let _ = writeln!(
        out,
        "built {structure} index over {n} items ({cost} distance computations)"
    );
    let _ = writeln!(out, "snapshot written to {save} ({bytes} bytes)");
    if let Some(path) = args.get("metrics") {
        write_metrics_snapshot(&registry, path, out)?;
    }
    Ok(())
}

fn cmd_query(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("query", argv)?;
    let budget: Option<u64> = match args.get("budget") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| err(format!("invalid value for --budget: `{v}`")))?,
        ),
    };
    let ask = Ask {
        cmd: query_cmd(&args)?,
        budget,
        explain: false,
    };
    let registry = MetricsRegistry::new();
    let (answer, _) = run_ask(&args, &ask, &registry)?;

    let (results, cost, n) = (&answer.results, answer.cost, answer.n);
    let _ = writeln!(out, "{} results:", results.len());
    for r in results {
        let _ = writeln!(out, "  id {:>6}  distance {:.6}", r.id, r.distance);
    }
    let _ = writeln!(
        out,
        "cost: {cost} distance computations over {n} items ({:.1}% of linear scan)",
        100.0 * cost as f64 / n.max(1) as f64
    );
    if let Some(b) = &answer.budget {
        let _ = writeln!(
            out,
            "budget: spent {} of {} ({}), estimated recall {:.3}",
            b.spent,
            budget.unwrap_or(u64::MAX),
            if b.exhausted {
                "exhausted"
            } else {
                "within budget"
            },
            b.estimated_recall
        );
    }
    if let Some(path) = args.get("metrics") {
        write_metrics_snapshot(&registry, path, out)?;
    }
    Ok(())
}

/// Renders one count as `1,234 role (56.7%)` — the percentage is the
/// role's share of the query's total distance computations.
fn role_share(count: u64, total: u64, role: &str) -> String {
    format!(
        "{} {role} ({:.1}%)",
        thousands(count),
        100.0 * count as f64 / total.max(1) as f64
    )
}

/// Renders the pruning breakdown table for one profiled query.
fn format_profile(profile: &QueryProfile, cost: u64, n: usize, out: &mut String) {
    let _ = writeln!(
        out,
        "nodes visited:         {} ({} leaves)",
        profile.nodes_visited(),
        profile.leaves_visited()
    );
    let _ = writeln!(
        out,
        "distance computations: {} = {} + {}; {:.1}% of linear scan",
        thousands(cost),
        role_share(
            profile.distances(DistanceRole::Vantage),
            cost,
            "vantage-point"
        ),
        role_share(
            profile.distances(DistanceRole::Candidate),
            cost,
            "leaf-candidate"
        ),
        100.0 * cost as f64 / n.max(1) as f64
    );
    if profile.total_abandoned() > 0 {
        let work = profile.estimated_work();
        let work = if work < 0.5 {
            "<1".to_string()
        } else {
            format!("~{}", thousands(work.round() as u64))
        };
        let _ = writeln!(
            out,
            "abandoned early:       {} = {} vantage-point + {} leaf-candidate (est. work {work} full evaluations)",
            thousands(profile.total_abandoned()),
            thousands(profile.abandoned(DistanceRole::Vantage)),
            thousands(profile.abandoned(DistanceRole::Candidate)),
        );
    }
    let sections = [
        ("subtrees pruned", profile.subtrees_pruned(), true),
        ("candidates rejected", profile.candidates_rejected(), false),
    ];
    for (title, total, is_prune) in sections {
        let _ = writeln!(out, "{title}: {total}");
        for reason in PruneReason::ALL {
            let s = if is_prune {
                *profile.prune_stats(reason)
            } else {
                *profile.reject_stats(reason)
            };
            if s.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<15} {:>8}   bound min {:.4}  mean {:.4}  max {:.4}",
                reason.label(),
                s.count(),
                s.min(),
                s.mean(),
                s.max()
            );
        }
    }
    if !profile.levels().is_empty() {
        let _ = writeln!(out, "per-level fanout:");
        let _ = writeln!(out, "  level   visited    pruned");
        for (level, stats) in profile.levels().iter().enumerate() {
            let _ = writeln!(
                out,
                "  {level:>5}  {:>8}  {:>8}",
                stats.visited, stats.pruned
            );
        }
    }
}

/// The `route:` line of `explain`: which search answered the query, and
/// for a routed kNN the calibration of its `k` bucket against β.
fn route_line(cmd: Query, routing: &Routing, n: usize) -> String {
    if routing.widened > 0 {
        return format!(
            "route: widened scan (the query is not all bytes 0..=255, so each byte row is widened to f64; a scan costs {} distances)",
            thousands(n as u64)
        );
    }
    let calibration = match cmd {
        Query::Knn(k) => routing.buckets.iter().find(|c| c.bucket == k_bucket(k)),
        _ => None,
    };
    let Some(c) = calibration else {
        return "route: search (only mvp-tree kNN queries are routed)".to_string();
    };
    let (route, test) = if c.scan() {
        ("scan", ">=")
    } else {
        ("tree", "<")
    };
    // Bucket 0 also holds k = 0.
    let lowest = if c.bucket == 0 { 0 } else { c.min_k() };
    format!(
        "route: {route} (k {lowest}..={}: probe ratio {:.3} {test} beta {SCAN_BETA}; a scan costs {} distances)",
        c.min_k().saturating_mul(2) - 1,
        c.ratio(),
        thousands(n as u64)
    )
}

fn cmd_explain(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("explain", argv)?;
    let ask = Ask {
        cmd: query_cmd(&args)?,
        budget: None,
        explain: true,
    };
    let registry = MetricsRegistry::new();
    let (answer, structure) = run_ask(&args, &ask, &registry)?;

    let _ = writeln!(out, "{} results:", answer.results.len());
    for r in &answer.results {
        let _ = writeln!(out, "  id {:>6}  distance {:.6}", r.id, r.distance);
    }
    let _ = writeln!(out, "--- query profile ({structure}) ---");
    let _ = writeln!(out, "simd path: {}", vantage_core::simd::active_name());
    let _ = writeln!(out, "{}", route_line(ask.cmd, &answer.routing, answer.n));
    format_profile(&answer.profile, answer.cost, answer.n, out);
    if let Some(path) = args.get("metrics") {
        write_metrics_snapshot(&registry, path, out)?;
    }
    Ok(())
}

fn cmd_stats(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("stats", argv)?;
    if let Some(path) = args.get("index") {
        // Snapshot mode: verify every checksum and print the header.
        // `stats` is the operator's integrity check, so it deliberately
        // pays the O(file) read that header-only `persist::inspect`
        // avoids on the serve path.
        let metric = args.get("metric");
        args.finish()?;
        let bytes = fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let info = persist::inspect_bytes(&bytes).map_err(|e| err(format!("{path}: {e}")))?;
        check_snapshot_metric(&info, metric)?;
        let _ = writeln!(out, "snapshot: {path}");
        let _ = writeln!(out, "  format version: {}", info.version);
        let _ = writeln!(out, "  index:          {}", info.kind.name());
        let _ = writeln!(out, "  items:          {} × {}", info.items, info.item);
        let _ = writeln!(out, "  metric:         {}", info.metric);
        let _ = writeln!(out, "  dataset digest: {:#018x}", info.digest);
        let _ = writeln!(out, "  size:           {} bytes", thousands(info.bytes));
        return Ok(());
    }
    if let Some(path) = args.get("metrics") {
        // Telemetry mode: render a snapshot written by `query --metrics`
        // (or any process exporting the registry) instead of computing
        // pairwise dataset statistics.
        let format = args.get("format").unwrap_or("table");
        args.finish()?;
        let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let snapshot = export::from_json(&text)
            .map_err(|e| err(format!("{path}: not a metrics snapshot: {e}")))?;
        match format {
            "table" => out.push_str(&snapshot.render_table()),
            "json" => out.push_str(&export::to_json(&snapshot)),
            "prom" => out.push_str(&export::to_prometheus(&snapshot)),
            other => return Err(err(format!("unknown format `{other}` (table|json|prom)"))),
        }
        return Ok(());
    }
    let data = args.required("data")?;
    let metric_name = args.get("metric").unwrap_or("l2");
    let bin: f64 = args.parsed("bin", 0.05)?;
    let threads = parse_threads(&args)?;
    args.finish()?;

    fn report<T, M: Metric<T> + Sync>(
        items: &[T],
        metric: &M,
        bin: f64,
        threads: Threads,
        out: &mut String,
    ) -> CliResult<()>
    where
        T: Sync,
    {
        let hist = DistanceHistogram::pairwise(items, metric, bin, threads.resolve())
            .map_err(|e| err(e.to_string()))?;
        let _ = writeln!(out, "items: {}", items.len());
        let _ = writeln!(out, "pairwise distances: {}", hist.total());
        let _ = writeln!(
            out,
            "min {:.4}  mean {:.4}  max {:.4}  mode-bin {:.4}",
            hist.min(),
            hist.mean(),
            hist.max(),
            hist.mode_bin().unwrap_or(f64::NAN)
        );
        if let (Some(q01), Some(q05)) = (hist.quantile(0.01), hist.quantile(0.05)) {
            let _ = writeln!(
                out,
                "suggested range-query radii: selective ~{q01:.4} (1% of pairs), broad ~{q05:.4} (5%)"
            );
        }
        for (edge, count) in hist.downsample(20) {
            let bar = "#".repeat(((count as f64).sqrt() as usize).min(60));
            let _ = writeln!(out, "  {edge:>10.3} {count:>10} {bar}");
        }
        Ok(())
    }

    let _ = writeln!(out, "simd path: {}", vantage_core::simd::active_name());
    if metric_name == "edit" {
        let words = read_words(data)?;
        report(&words, &Levenshtein, bin.max(1.0), threads, out)
    } else {
        let vectors = read_vectors(data)?;
        match metric_name {
            "l2" => report(&vectors, &Euclidean, bin, threads, out),
            "l1" => report(&vectors, &Manhattan, bin, threads, out),
            "linf" => report(&vectors, &Chebyshev, bin, threads, out),
            other => Err(err(format!("unknown metric `{other}`"))),
        }
    }
}

fn cmd_experiment(argv: &[String], out: &mut String) -> CliResult<()> {
    let name = argv
        .first()
        .ok_or_else(|| err("experiment needs a name (fig04..fig11, ablation_k, ...)"))?;
    let args = Args::parse("experiment", &argv[1..])?;
    let scale = match args.get("scale").unwrap_or("quick") {
        "full" => Scale::Full,
        "quick" => Scale::Quick,
        other => return Err(err(format!("unknown scale `{other}` (quick|full)"))),
    };
    args.finish()?;
    use vantage_experiments::{ablations, figures};
    let report = match name.as_str() {
        "fig04" => figures::fig04(scale),
        "fig05" => figures::fig05(scale),
        "fig06" => figures::fig06(scale),
        "fig07" => figures::fig07(scale),
        "fig08" => figures::fig08(scale),
        "fig09" => figures::fig09(scale),
        "fig10" => figures::fig10(scale),
        "fig11" => figures::fig11(scale),
        "ablation_k" => ablations::ablation_leaf_capacity(scale),
        "ablation_p" => ablations::ablation_path_p(scale),
        "ablation_m" => ablations::ablation_order_m(scale),
        "ablation_vp" => ablations::ablation_vantage_selection(scale),
        "construction" => ablations::construction_cost(scale),
        "comparators" => ablations::comparators(scale),
        "knn" => ablations::knn_cost(scale),
        "pruning" => vantage_experiments::pruning::pruning_breakdown(scale),
        "budget" => vantage_experiments::budget::recall_curve(scale),
        other => return Err(err(format!("unknown experiment `{other}`"))),
    };
    out.push_str(&report.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        run(&argv, &mut out).unwrap_or_else(|e| panic!("cli failed: {e}"));
        out
    }

    fn run_err(argv: &[&str]) -> CliError {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        run(&argv, &mut out).expect_err("cli should fail")
    }

    fn temp_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("vantage-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
        assert!(run_ok(&[]).contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let e = run_err(&["frobnicate"]);
        assert!(e.0.contains("unknown command"));
    }

    #[test]
    fn generate_uniform_to_stdout() {
        let out = run_ok(&[
            "generate", "uniform", "--n", "5", "--dim", "3", "--seed", "1",
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0].split(',').count(), 3);
    }

    #[test]
    fn generate_words_deterministic() {
        let a = run_ok(&["generate", "words", "--n", "4", "--seed", "9"]);
        let b = run_ok(&["generate", "words", "--n", "4", "--seed", "9"]);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 4);
    }

    #[test]
    fn query_roundtrip_through_file() {
        let path = temp_path("vectors.csv");
        run_ok(&[
            "generate", "uniform", "--n", "200", "--dim", "4", "--seed", "3", "--out", &path,
        ]);
        let out = run_ok(&[
            "query",
            "--data",
            &path,
            "--metric",
            "l2",
            "--structure",
            "mvp",
            "--knn",
            "3",
            "--query",
            "0.5,0.5,0.5,0.5",
        ]);
        assert!(out.contains("3 results"), "{out}");
        assert!(out.contains("distance computations"));
        // Linear scan agrees on the same file.
        let lin = run_ok(&[
            "query",
            "--data",
            &path,
            "--structure",
            "linear",
            "--knn",
            "3",
            "--query",
            "0.5,0.5,0.5,0.5",
        ]);
        let pick = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with("id"))
                .map(|l| l.trim().to_string())
                .collect()
        };
        assert_eq!(pick(&out), pick(&lin));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn edit_metric_query_on_words() {
        let path = temp_path("words.txt");
        std::fs::write(&path, "hello\nhallo\nworld\nhelp\n").unwrap();
        // hello: 1 edit; hallo and help: 2 edits; world: 4.
        let out = run_ok(&[
            "query", "--data", &path, "--metric", "edit", "--range", "2", "--query", "hella",
        ]);
        assert!(out.contains("3 results"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    /// The `id ... distance ...` result lines of a query report.
    fn result_lines(s: &str) -> Vec<String> {
        s.lines()
            .filter(|l| l.trim_start().starts_with("id"))
            .map(|l| l.trim().to_string())
            .collect()
    }

    #[test]
    fn budgeted_query_reports_spend_and_estimated_recall() {
        let path = temp_path("budget.csv");
        run_ok(&[
            "generate", "uniform", "--n", "200", "--dim", "4", "--seed", "8", "--out", &path,
        ]);
        let common = [
            "query",
            "--data",
            &path,
            "--structure",
            "vp",
            "--knn",
            "5",
            "--query",
            "0.5,0.5,0.5,0.5",
        ];
        // A generous budget answers exactly and says so.
        let mut argv = common.to_vec();
        argv.extend_from_slice(&["--budget", "100000"]);
        let exact = run_ok(&argv);
        assert!(exact.contains("within budget"), "{exact}");
        assert!(exact.contains("estimated recall 1.000"), "{exact}");
        assert_eq!(result_lines(&exact), result_lines(&run_ok(&common)));
        // A starved budget is exhausted with an honest partial estimate.
        let mut argv = common.to_vec();
        argv.extend_from_slice(&["--budget", "12"]);
        let starved = run_ok(&argv);
        assert!(starved.contains("(exhausted)"), "{starved}");
        assert!(!starved.contains("estimated recall 1.000"), "{starved}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budgeted_query_works_on_snapshots() {
        let data = temp_path("budget-snap.csv");
        run_ok(&[
            "generate", "uniform", "--n", "150", "--dim", "3", "--seed", "4", "--out", &data,
        ]);
        for structure in ["mvp", "vp"] {
            let snap = temp_path(&format!("budget-snap-{structure}.vantage"));
            run_ok(&[
                "build",
                "--data",
                &data,
                "--save",
                &snap,
                "--structure",
                structure,
            ]);
            let budgeted = ["--knn", "4", "--query", "0.5,0.5,0.5", "--budget", "10"];
            let mut loaded_argv = vec!["query", "--index", &snap];
            loaded_argv.extend_from_slice(&budgeted);
            let mut fresh_argv = vec!["query", "--data", &data, "--structure", structure];
            fresh_argv.extend_from_slice(&budgeted);
            let out = run_ok(&loaded_argv);
            assert!(out.contains("(exhausted)"), "{structure}: {out}");
            // Best-effort answers, spend and recall estimate all match
            // the freshly built tree's.
            assert_eq!(out, run_ok(&fresh_argv), "{structure}");
            let _ = std::fs::remove_file(&snap);
        }
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn flag_misuse_is_rejected() {
        let data = temp_path("flag-misuse.csv");
        let snap = temp_path("flag-misuse.vantage");
        run_ok(&[
            "generate", "uniform", "--n", "30", "--dim", "3", "--seed", "1", "--out", &data,
        ]);
        run_ok(&["build", "--data", &data, "--save", &snap]);
        let e = run_err(&[
            "query", "--data", &data, "--range", "0.5", "--query", "0,0,0", "--budget", "10",
        ]);
        assert!(e.0.contains("--budget applies to --knn only"), "{e}");
        // A flag the command does not read is refused, never ignored.
        let cases: [(&[&str], &str); 6] = [
            (&["query", "--data", &data, "--metirc", "l1"], "--metirc"),
            (&["query", "--index", &snap, "--seed", "1"], "--seed"),
            (&["explain", "--data", &data, "--budget", "5"], "--budget"),
            (
                &["build", "--data", &data, "--save", &snap, "--bogus", "7"],
                "--bogus",
            ),
            (&["stats", "--index", &snap, "--bin", "2"], "--bin"),
            (
                &["generate", "uniform", "--n", "3", "--dim", "2", "--k", "1"],
                "--k",
            ),
        ];
        for (argv, flag) in cases {
            let mut argv = argv.to_vec();
            if matches!(argv[0], "query" | "explain") {
                argv.extend(["--knn", "3", "--query", "0,0,0"]);
            }
            let e = run_err(&argv);
            let named = format!("unknown flag {flag} for {}", argv[0]);
            assert!(e.0.contains(&named), "{argv:?}: {e}");
        }
        let e = run_err(&["query", "--data", &data, "--knn", "3", "--knn", "4"]);
        assert!(e.0.contains("--knn given more than once"), "{e}");
        for p in [&data, &snap] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn explain_reports_pruning_breakdown() {
        let path = temp_path("explain.csv");
        run_ok(&[
            "generate", "uniform", "--n", "500", "--dim", "6", "--seed", "5", "--out", &path,
        ]);
        let out = run_ok(&[
            "explain",
            "--data",
            &path,
            "--structure",
            "mvp",
            "--range",
            "0.2",
            "--query",
            "0.5,0.5,0.5,0.5,0.5,0.5",
        ]);
        assert!(out.contains("query profile (mvp)"), "{out}");
        assert!(out.contains("nodes visited:"), "{out}");
        assert!(out.contains("vantage-point"), "{out}");
        assert!(out.contains("subtrees pruned:"), "{out}");
        assert!(out.contains("per-level fanout:"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_answers_match_query_answers() {
        let path = temp_path("explain-eq.csv");
        run_ok(&[
            "generate", "uniform", "--n", "300", "--dim", "4", "--seed", "6", "--out", &path,
        ]);
        let pick = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with("id"))
                .map(|l| l.trim().to_string())
                .collect()
        };
        for structure in ["mvp", "vp", "linear"] {
            let common = [
                "--data",
                &path,
                "--structure",
                structure,
                "--knn",
                "4",
                "--query",
                "0.5,0.5,0.5,0.5",
            ];
            let mut query_argv = vec!["query"];
            query_argv.extend_from_slice(&common);
            let mut explain_argv = vec!["explain"];
            explain_argv.extend_from_slice(&common);
            assert_eq!(
                pick(&run_ok(&query_argv)),
                pick(&run_ok(&explain_argv)),
                "explain changed {structure} answers"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_works_on_edit_metric() {
        let path = temp_path("explain-words.txt");
        std::fs::write(&path, "hello\nhallo\nworld\nhelp\nyelp\nshell\n").unwrap();
        let out = run_ok(&[
            "explain",
            "--data",
            &path,
            "--metric",
            "edit",
            "--structure",
            "vp",
            "--knn",
            "2",
            "--query",
            "hella",
        ]);
        assert!(out.contains("2 results"), "{out}");
        assert!(out.contains("distance computations:"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_prints_histogram() {
        let path = temp_path("stats.csv");
        run_ok(&[
            "generate", "uniform", "--n", "50", "--dim", "3", "--seed", "4", "--out", &path,
        ]);
        let out = run_ok(&["stats", "--data", &path]);
        assert!(out.contains("pairwise distances: 1225"));
        assert!(out.contains("mode-bin"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn threads_flag_never_changes_results() {
        let path = temp_path("threads.csv");
        run_ok(&[
            "generate", "uniform", "--n", "300", "--dim", "6", "--seed", "8", "--out", &path,
        ]);
        let base = run_ok(&[
            "query",
            "--data",
            &path,
            "--structure",
            "mvp",
            "--knn",
            "5",
            "--query",
            "0.5,0.5,0.5,0.5,0.5,0.5",
            "--threads",
            "1",
        ]);
        for threads in ["2", "4", "auto"] {
            let other = run_ok(&[
                "query",
                "--data",
                &path,
                "--structure",
                "mvp",
                "--knn",
                "5",
                "--query",
                "0.5,0.5,0.5,0.5,0.5,0.5",
                "--threads",
                threads,
            ]);
            assert_eq!(base, other, "--threads {threads} changed the output");
        }
        let stats1 = run_ok(&["stats", "--data", &path, "--threads", "1"]);
        let stats4 = run_ok(&["stats", "--data", &path, "--threads", "4"]);
        assert_eq!(stats1, stats4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn threads_flag_validates() {
        let e = run_err(&[
            "query",
            "--data",
            "x.csv",
            "--range",
            "1",
            "--query",
            "1",
            "--threads",
            "lots",
        ]);
        assert!(e.0.contains("--threads"), "{e}");
    }

    #[test]
    fn query_validates_flags() {
        assert!(run_err(&["query", "--data", "x.csv"]).0.contains("--range"));
        assert!(run_err(&[
            "query",
            "--data",
            "/nonexistent.csv",
            "--range",
            "1",
            "--query",
            "1"
        ])
        .0
        .contains("cannot read"));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let path = temp_path("dim.csv");
        std::fs::write(&path, "1,2,3\n4,5,6\n").unwrap();
        let e = run_err(&["query", "--data", &path, "--range", "1", "--query", "1,2"]);
        assert!(e.0.contains("dimensions"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_csv_is_reported_with_line() {
        let path = temp_path("bad.csv");
        std::fs::write(&path, "1,2\n1,oops\n").unwrap();
        let e = run_err(&["stats", "--data", &path]);
        assert!(e.0.contains(":2:"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn query_metrics_snapshot_round_trips_through_stats() {
        let data = temp_path("metrics-data.csv");
        let metrics = temp_path("metrics.json");
        run_ok(&[
            "generate", "uniform", "--n", "400", "--dim", "6", "--seed", "7", "--out", &data,
        ]);
        let out = run_ok(&[
            "query",
            "--data",
            &data,
            "--structure",
            "mvp",
            "--knn",
            "5",
            "--query",
            "0.5,0.5,0.5,0.5,0.5,0.5",
            "--metrics",
            &metrics,
        ]);
        assert!(out.contains("metrics snapshot written"), "{out}");

        // The recorded run answers identically to the bare run.
        let bare = run_ok(&[
            "query",
            "--data",
            &data,
            "--structure",
            "mvp",
            "--knn",
            "5",
            "--query",
            "0.5,0.5,0.5,0.5,0.5,0.5",
        ]);
        let pick = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with("id") || l.starts_with("cost:"))
                .map(|l| l.trim().to_string())
                .collect()
        };
        assert_eq!(pick(&out), pick(&bare), "telemetry changed the answers");

        // The snapshot renders as the stats table with build + knn rows.
        let table = run_ok(&["stats", "--metrics", &metrics]);
        assert!(table.contains("latency p50/p95/p99"), "{table}");
        assert!(table.contains("mvp"), "{table}");
        assert!(table.contains("build"), "{table}");
        assert!(table.contains("knn"), "{table}");

        // And re-exports as Prometheus text and byte-stable JSON.
        let prom = run_ok(&["stats", "--metrics", &metrics, "--format", "prom"]);
        assert!(
            prom.contains("vantage_ops_total{index=\"mvp\",op=\"knn\"} 1"),
            "{prom}"
        );
        let json = run_ok(&["stats", "--metrics", &metrics, "--format", "json"]);
        assert_eq!(json, std::fs::read_to_string(&metrics).unwrap());

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn explain_metrics_snapshot_records_the_query_op() {
        let data = temp_path("explain-metrics.csv");
        let metrics = temp_path("explain-metrics.json");
        run_ok(&[
            "generate", "uniform", "--n", "300", "--dim", "4", "--seed", "2", "--out", &data,
        ]);
        let out = run_ok(&[
            "explain",
            "--data",
            &data,
            "--structure",
            "vp",
            "--range",
            "0.3",
            "--query",
            "0.5,0.5,0.5,0.5",
            "--metrics",
            &metrics,
        ]);
        assert!(out.contains("metrics snapshot written"), "{out}");
        let table = run_ok(&["stats", "--metrics", &metrics]);
        assert!(table.contains("vp"), "{table}");
        assert!(table.contains("range"), "{table}");
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn stats_metrics_rejects_bad_input() {
        let path = temp_path("bad-metrics.json");
        std::fs::write(&path, "{\"not\": \"a snapshot\"}").unwrap();
        let e = run_err(&["stats", "--metrics", &path]);
        assert!(e.0.contains("not a metrics snapshot"), "{e}");
        let e = run_err(&["stats", "--metrics", &path, "--format", "xml"]);
        // Format validation happens after parsing; bad file still wins.
        assert!(e.0.contains("not a metrics snapshot") || e.0.contains("unknown format"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_formats_counts_with_separators_and_shares() {
        let path = temp_path("explain-fmt.csv");
        run_ok(&[
            "generate", "uniform", "--n", "1500", "--dim", "8", "--seed", "11", "--out", &path,
        ]);
        let out = run_ok(&[
            "explain",
            "--data",
            &path,
            "--structure",
            "linear",
            "--range",
            "0.2",
            "--query",
            "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5",
        ]);
        // Linear scan over 1 500 items costs exactly 1,500 candidate
        // evaluations: separators and the per-role share both appear.
        assert!(out.contains("1,500"), "{out}");
        assert!(out.contains("leaf-candidate (100.0%)"), "{out}");
        // Estimated work is rounded, never printed as a raw float.
        if let Some(line) = out.lines().find(|l| l.contains("est. work")) {
            assert!(
                line.contains("est. work ~") || line.contains("est. work <1"),
                "{line}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn build_save_reload_query_is_bit_identical() {
        let data = temp_path("persist-data.csv");
        run_ok(&[
            "generate", "uniform", "--n", "400", "--dim", "5", "--seed", "13", "--out", &data,
        ]);
        for structure in ["mvp", "vp", "linear"] {
            let snap = temp_path(&format!("persist-{structure}.vsnap"));
            let built = run_ok(&[
                "build",
                "--data",
                &data,
                "--save",
                &snap,
                "--structure",
                structure,
                "--seed",
                "4",
            ]);
            assert!(built.contains("snapshot written to"), "{built}");
            for query in [vec!["--knn", "5"], vec!["--range", "0.35"]] {
                let mut fresh_argv = vec![
                    "query",
                    "--data",
                    &data,
                    "--structure",
                    structure,
                    "--seed",
                    "4",
                    "--query",
                    "0.5,0.5,0.5,0.5,0.5",
                ];
                fresh_argv.extend_from_slice(&query);
                let mut loaded_argv =
                    vec!["query", "--index", &snap, "--query", "0.5,0.5,0.5,0.5,0.5"];
                loaded_argv.extend_from_slice(&query);
                // The whole report — answers and the distance-computation
                // cost line — must be byte-identical to a fresh build.
                assert_eq!(
                    run_ok(&fresh_argv),
                    run_ok(&loaded_argv),
                    "snapshot changed {structure} {query:?} answers"
                );
            }
            let _ = std::fs::remove_file(&snap);
        }
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn build_save_reload_works_for_edit_metric() {
        let data = temp_path("persist-words.txt");
        let snap = temp_path("persist-words.vsnap");
        std::fs::write(&data, "hello\nhallo\nworld\nhelp\nyelp\nshell\n").unwrap();
        run_ok(&[
            "build",
            "--data",
            &data,
            "--save",
            &snap,
            "--metric",
            "edit",
            "--structure",
            "vp",
        ]);
        let fresh = run_ok(&[
            "query",
            "--data",
            &data,
            "--metric",
            "edit",
            "--structure",
            "vp",
            "--knn",
            "2",
            "--query",
            "hella",
        ]);
        let loaded = run_ok(&["query", "--index", &snap, "--knn", "2", "--query", "hella"]);
        assert_eq!(fresh, loaded);
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn explain_from_snapshot_matches_explain_from_data() {
        let data = temp_path("persist-explain.csv");
        run_ok(&[
            "generate", "uniform", "--n", "300", "--dim", "4", "--seed", "9", "--out", &data,
        ]);
        for structure in ["mvp", "vp", "linear"] {
            let snap = temp_path(&format!("persist-explain-{structure}.vsnap"));
            run_ok(&[
                "build",
                "--data",
                &data,
                "--save",
                &snap,
                "--structure",
                structure,
            ]);
            for query in [["--range", "0.3"], ["--knn", "6"]] {
                let mut fresh_argv = vec!["explain", "--data", &data, "--structure", structure];
                fresh_argv.extend_from_slice(&query);
                fresh_argv.extend_from_slice(&["--query", "0.5,0.5,0.5,0.5"]);
                let mut loaded_argv = vec!["explain", "--index", &snap];
                loaded_argv.extend_from_slice(&query);
                loaded_argv.extend_from_slice(&["--query", "0.5,0.5,0.5,0.5"]);
                let loaded = run_ok(&loaded_argv);
                // Identical index, identical traversal: the pruning
                // breakdown and the cost lines diff clean.
                assert_eq!(run_ok(&fresh_argv), loaded, "{structure} {query:?}");
                assert!(
                    loaded.contains(&format!("query profile ({structure})")),
                    "{loaded}"
                );
            }
            let _ = std::fs::remove_file(&snap);
        }
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn stats_index_prints_verified_header() {
        let data = temp_path("persist-stats.csv");
        let snap = temp_path("persist-stats.vsnap");
        run_ok(&[
            "generate", "uniform", "--n", "120", "--dim", "3", "--seed", "2", "--out", &data,
        ]);
        run_ok(&["build", "--data", &data, "--save", &snap, "--metric", "l1"]);
        let out = run_ok(&["stats", "--index", &snap]);
        assert!(out.contains("format version: 3"), "{out}");
        assert!(out.contains("index:          mvp-tree"), "{out}");
        assert!(out.contains("items:          120 × f64-vector"), "{out}");
        assert!(out.contains("metric:         l1"), "{out}");
        assert!(out.contains("dataset digest: 0x"), "{out}");
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn corrupted_snapshot_is_a_typed_error_not_a_panic() {
        let data = temp_path("persist-corrupt.csv");
        let snap = temp_path("persist-corrupt.vsnap");
        run_ok(&[
            "generate", "uniform", "--n", "60", "--dim", "3", "--seed", "5", "--out", &data,
        ]);
        run_ok(&["build", "--data", &data, "--save", &snap]);
        let good = std::fs::read(&snap).unwrap();

        // Not a snapshot at all.
        std::fs::write(&snap, b"junk").unwrap();
        let e = run_err(&["query", "--index", &snap, "--knn", "1", "--query", "0,0,0"]);
        assert!(e.0.contains("corrupt"), "{e}");

        // Truncated mid-file.
        std::fs::write(&snap, &good[..good.len() / 2]).unwrap();
        let e = run_err(&["query", "--index", &snap, "--knn", "1", "--query", "0,0,0"]);
        assert!(e.0.contains("corrupt"), "{e}");
        let e = run_err(&["stats", "--index", &snap]);
        assert!(e.0.contains("corrupt"), "{e}");

        // A single flipped bit in the middle.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&snap, &flipped).unwrap();
        let e = run_err(&[
            "explain", "--index", &snap, "--knn", "1", "--query", "0,0,0",
        ]);
        assert!(e.0.contains("corrupt"), "{e}");

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn query_index_metrics_records_the_snapshot_load() {
        let data = temp_path("persist-metrics.csv");
        let snap = temp_path("persist-metrics.vsnap");
        let metrics = temp_path("persist-metrics.json");
        run_ok(&[
            "generate", "uniform", "--n", "200", "--dim", "4", "--seed", "6", "--out", &data,
        ]);
        run_ok(&["build", "--data", &data, "--save", &snap]);
        run_ok(&[
            "query",
            "--index",
            &snap,
            "--knn",
            "3",
            "--query",
            "0.5,0.5,0.5,0.5",
            "--metrics",
            &metrics,
        ]);
        let table = run_ok(&["stats", "--metrics", &metrics]);
        assert!(table.contains("snapshot_load"), "{table}");
        assert!(table.contains("knn"), "{table}");
        // The load is recorded instead of a build: the tree came off disk.
        assert!(!table.contains("build"), "{table}");
        let prom = run_ok(&["stats", "--metrics", &metrics, "--format", "prom"]);
        assert!(
            prom.contains("vantage_ops_total{index=\"mvp\",op=\"snapshot_load\"} 1"),
            "{prom}"
        );
        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn query_rejects_ambiguous_or_missing_source() {
        let e = run_err(&["query", "--knn", "1", "--query", "0"]);
        assert!(e.0.contains("exactly one of --data"), "{e}");
        let e = run_err(&[
            "query", "--data", "a.csv", "--index", "b.vsnap", "--knn", "1", "--query", "0",
        ]);
        assert!(e.0.contains("exactly one of --data"), "{e}");
        let e = run_err(&["build", "--data", "a.csv"]);
        assert!(e.0.contains("--save"), "{e}");
    }

    #[test]
    fn experiment_rejects_unknown_names() {
        assert!(run_err(&["experiment", "fig99"])
            .0
            .contains("unknown experiment"));
        assert!(run_err(&["experiment", "fig08", "--scale", "huge"])
            .0
            .contains("unknown scale"));
    }
}
