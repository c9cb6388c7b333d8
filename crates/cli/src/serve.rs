//! `vantage serve` — a long-lived TCP server answering metric queries
//! over a newline-delimited line protocol, with RCU-style zero-downtime
//! index swaps.
//!
//! ## Protocol
//!
//! One request per line, one reply per line. Replies start with `OK` or
//! `ERR`. Query replies are `OK <count> id:distance id:distance ...`
//! with distances printed in round-trip `f64` form, so a client can
//! compare two servers (or a server and a local index) byte-for-byte.
//!
//! ```text
//! PING                     -> OK pong
//! INFO                     -> OK mode=... structure=... metric=... item=... items=... generation=...
//! RANGE  <radius> <query>  -> OK <n> id:dist ...       (ascending distance)
//! KNN    <k> <query>       -> OK <n> id:dist ...       (ascending distance)
//! BEYOND <radius> <query>  -> OK <n> id:dist ...       (far-neighbor complement)
//! KFN    <k> <query>       -> OK <n> id:dist ...       (descending distance)
//! INSERT <item>            -> OK id=N generation=G     (dynamic mode)
//! DELETE <id>              -> OK removed=B generation=G (dynamic mode)
//! RELOAD <path>            -> OK generation=G items=N layout=L drained=B (snapshot mode)
//! REINDEX                  -> OK generation=G ...      (both modes)
//! STATS                    -> OK <single-line metrics JSON>
//! SLOW   [n]               -> OK <json array>          (slowest captured traces)
//! TRACE  <id>              -> OK <json trace>          (one trace by 16-hex id)
//! SLO                      -> OK <json object>         (windowed p50/p99/p999 per op)
//! SHUTDOWN                 -> OK bye                   (drain + exit)
//! ```
//!
//! Vector queries are comma-separated floats; `edit`-metric queries are
//! a bare word. A `u8-vector` snapshot takes the same float queries: one
//! whose coordinates are all bytes searches the byte rows, any other
//! gets the reply an `f64-vector` snapshot of the same items would send.
//! Its queries are parsed once, into the form they are searched in
//! ([`ByteQuery`]): a line of plain byte integers goes straight to bytes
//! ([`parse_bytes`](crate::vectext::parse_bytes)), and any other line
//! is parsed as `f64`s and narrowed, so `7.0` or `007` still searches
//! the byte rows.
//!
//! ## Request tracing
//!
//! Every query request derives a 64-bit trace ID purely from its request
//! line and `--seed` (see [`Sampler`]), so the *set* of sampled requests
//! is identical across thread counts and replays. One request in
//! `--trace-sample` N (default 64) records per-phase spans — parse,
//! search (carrying the query's distance tally), reply — plus the full
//! per-descent pruning profile. Requests slower than `--slow-ms` are always
//! captured, synthesizing a search span from the latency and cost the
//! metrics path measures anyway. Captured traces land in a bounded,
//! never-blocking ring (`SLOW` / `TRACE`, and `vantage trace --export`
//! renders Chrome trace-event JSON); with `--slow-log FILE` slow queries
//! are also appended to FILE as JSON lines. Tracing never changes an
//! answer: traced replies are byte-identical to untraced ones.
//!
//! Every query counts its distance computations in a [`DistanceTally`]
//! of its own, so the cost the metrics registry
//! and the trace spans record is exactly that query's, whatever queries,
//! writes or rebuilds run concurrently — in both modes.
//!
//! ## Swap semantics
//!
//! The served index lives in a [`SwapCell`]: each query pins the current
//! generation with a guard and answers entirely against it. `RELOAD`
//! loads and verifies the new snapshot on the admin
//! connection's thread — concurrent readers keep answering on the old
//! generation the whole time — then swaps atomically and waits for the
//! displaced generation to drain (every in-flight query finished) before
//! replying. The snapshot's dataset digest is verified exactly once, at
//! load; queries never re-read or re-verify the file. A snapshot whose
//! metric or item type differs from what the server is serving is
//! rejected with a typed mismatch error, never a panic.
//!
//! In `--data` (dynamic) mode the same swap mechanism runs *inside*
//! [`ConcurrentMvpTree`]: every `INSERT`/`DELETE` publishes a new
//! generation and amortized rebuilds happen off the read path, so
//! sustained ingest under heavy concurrent reads is the normal case,
//! not an outage. Its `INFO` ends with `overflow=N tree_dead=N` (live
//! items inserted since the last rebuild, and removed items still in the
//! tree), which `STATS` carries as `serve/dynamic/overflow` and
//! `serve/dynamic/tree_dead`: what every read scans or descends past
//! until the next rebuild.

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as IoWrite};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vantage_core::prelude::*;
use vantage_core::{scan_budgeted, RowStore, VantageError};
use vantage_mvptree::{ConcurrentMvpTree, MvpTree, ScanCalibration, ScanRouter};
use vantage_persist::{
    self as persist, F64Vectors, FlatItems, IndexKind, ItemCodec, MetricTag, U8Vectors, Utf8Strings,
};
use vantage_telemetry::export;
use vantage_telemetry::{
    chrome_from_trace_json, Gauge, IndexMetrics, Json, MetricsRegistry, OpKind, ShardedCounter,
    SloSurface, TraceRecord, TraceRing,
};
use vantage_vptree::VpTree;

use crate::vectext::{narrow, parse_bytes, VectorTextError};
use crate::{
    err, mvp_build_params, record_build, record_snapshot_load, structure_label, vp_build_params,
    Args, CliResult,
};

/// How long `RELOAD` waits for the displaced generation's readers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval for connection reads (bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request line a connection buffers, without its newline
/// (16 MiB; a 4 096-d query line is about 15 KB). A longer line is
/// dropped as it arrives and answered `ERR`.
const MAX_LINE_BYTES: usize = 16 << 20;

/// The capacity of a connection's read buffer (64 KiB, as vbench's
/// client reads replies): a 4 096-d query line (~15 KB) arrives in one
/// `read`, where the default 8 KiB buffer takes two.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// What the text of a query (everything after the command's numeric
/// argument) or an `INSERT` parses into.
pub(crate) trait WireQuery: Sized + Send + Sync + 'static {
    /// Parses the text, or says why it is refused.
    fn parse_wire(text: &str) -> std::result::Result<Self, String>;
    /// The coordinate count, `None` for items without one (strings).
    /// The Lp metrics require equal lengths, so a served index checks
    /// it before a query or insert reaches the metric.
    fn dims(&self) -> Option<usize>;
}

/// An item type that can cross the wire as a single token, with the
/// flat row encoding every index the CLI builds or loads stores it in.
pub(crate) trait WireItem:
    WireQuery + ItemCodec + Clone + Borrow<<Self as WireItem>::Row>
{
    /// The borrowed row a flat store hands out (`[f64]`, `[u8]`, `str`):
    /// what every tree, built or loaded, is queried with.
    type Row: ?Sized + ToOwned<Owned = Self> + ItemCodec + Sync + 'static;
    /// The snapshot encoding of these items; its
    /// [`Rows`](FlatItems::Rows) hold every tree the CLI builds.
    type Flat: FlatItems<Item = Self::Row> + Send + Sync + 'static;
    /// What a query to a snapshot of these items parses into, once: the
    /// item itself, but [`ByteQuery`] for byte vectors.
    type Query: WireQuery;

    /// Renders an item back into wire form (used by the smoke client to
    /// derive query texts from a loaded snapshot's own items).
    fn format_wire(&self) -> String;
}

impl WireQuery for Vec<f64> {
    fn parse_wire(text: &str) -> std::result::Result<Self, String> {
        crate::vectext::parse_vector(text).map_err(|e| match e {
            VectorTextError::NotAFloat => {
                "query must be a comma-separated float vector".to_string()
            }
            VectorTextError::NonFinite => "query coordinates must be finite numbers".to_string(),
        })
    }

    fn dims(&self) -> Option<usize> {
        Some(self.len())
    }
}

impl WireItem for Vec<f64> {
    type Row = [f64];
    type Flat = F64Vectors;
    type Query = Self;

    fn format_wire(&self) -> String {
        let mut s = String::new();
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{x}");
        }
        s
    }
}

/// The vector form of a byte vector: its coordinates widened to `f64`.
fn widen(bytes: &[u8]) -> Vec<f64> {
    bytes.iter().map(|&b| f64::from(b)).collect()
}

/// Byte vectors cross the wire as the vector text of their coordinates.
impl WireQuery for Vec<u8> {
    fn parse_wire(text: &str) -> std::result::Result<Self, String> {
        narrow(&Vec::<f64>::parse_wire(text)?)
            .ok_or_else(|| "query coordinates must be integers from 0 to 255".to_string())
    }

    fn dims(&self) -> Option<usize> {
        Some(self.len())
    }
}

impl WireItem for Vec<u8> {
    type Row = [u8];
    type Flat = U8Vectors;
    type Query = ByteQuery;

    fn format_wire(&self) -> String {
        widen(self).format_wire()
    }
}

/// A query to a byte-vector snapshot, parsed once into the form it is
/// searched in: bytes when every coordinate is one, else the `f64`
/// vector ([`ByteServed`] answers it by the widened scan).
pub(crate) enum ByteQuery {
    Bytes(Vec<u8>),
    /// A vector with some coordinate that is not a byte ([`narrow`]
    /// refuses it).
    Floats(Vec<f64>),
}

/// A line of plain byte integers takes [`parse_bytes`]; any other line
/// is parsed as `f64`s and narrowed, as before the byte path, so `7.0`
/// or `007` still query the byte rows.
impl WireQuery for ByteQuery {
    fn parse_wire(text: &str) -> std::result::Result<Self, String> {
        if let Some(bytes) = parse_bytes(text) {
            return Ok(ByteQuery::Bytes(bytes));
        }
        let vector = Vec::<f64>::parse_wire(text)?;
        Ok(match narrow(&vector) {
            Some(bytes) => ByteQuery::Bytes(bytes),
            None => ByteQuery::Floats(vector),
        })
    }

    fn dims(&self) -> Option<usize> {
        Some(match self {
            ByteQuery::Bytes(bytes) => bytes.len(),
            ByteQuery::Floats(vector) => vector.len(),
        })
    }
}

impl WireQuery for String {
    fn parse_wire(text: &str) -> std::result::Result<Self, String> {
        if text.is_empty() || text.contains(char::is_whitespace) {
            return Err("query must be a single word".to_string());
        }
        Ok(text.to_string())
    }

    fn dims(&self) -> Option<usize> {
        None
    }
}

impl WireItem for String {
    type Row = str;
    type Flat = Utf8Strings;
    type Query = Self;

    fn format_wire(&self) -> String {
        self.clone()
    }
}

/// The owned flat rows a built tree over `T` holds.
pub(crate) type Rows<T> = <<T as WireItem>::Flat as FlatItems>::Rows;

/// A metric the CLI serves items of type `T` under: over the wire item
/// itself (a linear scan, and building a tree) and over its flat row
/// (searching every tree).
pub(crate) trait ServeMetric<T: WireItem>:
    MetricTag + BoundedMetric<T> + BoundedMetric<T::Row> + Clone + Send + Sync + 'static
{
}

impl<T: WireItem, M> ServeMetric<T> for M where
    M: MetricTag + BoundedMetric<T> + BoundedMetric<T::Row> + Clone + Send + Sync + 'static
{
}

/// Packs `items` into flat rows and builds the CLI's mvp-tree over them.
pub(crate) fn build_mvp<T: WireItem, M: ServeMetric<T>>(
    items: Vec<T>,
    metric: M,
    seed: u64,
    threads: Threads,
) -> vantage_core::Result<MvpTree<T, M, Rows<T>>> {
    MvpTree::with_rows(
        Rows::<T>::from_items(items)?,
        metric,
        mvp_build_params(seed, threads),
    )
}

/// Packs `items` into flat rows and builds the CLI's vp-tree over them.
pub(crate) fn build_vp<T: WireItem, M: ServeMetric<T>>(
    items: Vec<T>,
    metric: M,
    seed: u64,
    threads: Threads,
) -> vantage_core::Result<VpTree<T, M, Rows<T>>> {
    VpTree::with_rows(
        Rows::<T>::from_items(items)?,
        metric,
        vp_build_params(seed, threads),
    )
}

/// `Err` when `item` has a different coordinate count from the served
/// index's (`what` names the item in the reply: `query` or `item`).
pub(crate) fn check_dims<T: WireQuery>(
    what: &str,
    item: &T,
    index: Option<usize>,
) -> std::result::Result<(), String> {
    match (item.dims(), index) {
        (Some(d), Some(n)) if d != n => Err(format!("{what} has {d} coordinates, index has {n}")),
        _ => Ok(()),
    }
}

/// How a served index answers a kNN the router sends to a scan. An
/// mvp-tree calibrates each `k` bucket on its own items and scans its own
/// row-ordered item store; every other index is never routed and keeps
/// its own search.
pub(crate) trait ScanRoute<Q: ?Sized>: Search<Q> {
    /// The calibration of `k`'s bucket, probing the index on the
    /// bucket's first query; `None` for an index that is never routed.
    fn scan_calibration(&self, router: &ScanRouter, k: usize) -> Option<ScanCalibration> {
        let _ = (router, k);
        None
    }

    /// kNN by a scan of the index's own rows: the same answer as its
    /// search, with one candidate distance per item.
    fn knn_scan<S: TraceSink>(&self, query: &Q, k: usize, sink: &mut S) -> Vec<Neighbor> {
        self.search(query, Query::Knn(k), sink)
    }
}

/// Implements [`ScanRoute`] for an mvp-tree form through its borrowed
/// view.
macro_rules! impl_scan_route {
    ([$($g:tt)*] $index:ty, $q:ty, |$this:ident| $view:expr) => {
        impl<$($g)*> ScanRoute<$q> for $index {
            fn scan_calibration(&self, router: &ScanRouter, k: usize) -> Option<ScanCalibration> {
                let $this = self;
                Some(router.calibrate(&$view, k))
            }

            fn knn_scan<Sink: TraceSink>(
                &self,
                query: &$q,
                k: usize,
                sink: &mut Sink,
            ) -> Vec<Neighbor> {
                let $this = self;
                $view.knn_scan(query, k, sink)
            }
        }
    };
}

impl_scan_route!(
    [T, S: RowStore<T>, M: BoundedMetric<S::Item>] MvpTree<T, M, S>,
    S::Item,
    |t| t.as_view()
);
impl_scan_route!(
    [K: FlatItems, M: BoundedMetric<K::Item>] persist::MappedMvpTree<K, M>,
    K::Item,
    |t| t.view()
);
impl<T, S: RowStore<T>, M: BoundedMetric<S::Item>> ScanRoute<S::Item> for VpTree<T, M, S> {}
impl<T, M: BoundedMetric<T>> ScanRoute<T> for LinearScan<T, M> {}
impl<K: FlatItems, M: BoundedMetric<K::Item>> ScanRoute<K::Item> for persist::MappedVpTree<K, M> {}

/// Range and beyond replies list their hits by ascending distance (ties
/// by id), whatever order the index found them in.
fn reply_order(query: Query, hits: &mut [Neighbor]) {
    if matches!(query, Query::Range(_) | Query::Beyond(_)) {
        hits.sort_unstable();
    }
}

/// Answers `cmd` on one index, counting its cost in a tally of its own.
fn search<Q: ?Sized, I: Search<Q> + ?Sized>(
    index: &I,
    cmd: Query,
    query: &Q,
) -> (Vec<Neighbor>, DistanceTotals) {
    let mut tally = DistanceTally::new();
    let mut results = index.search(query, cmd, &mut tally);
    reply_order(cmd, &mut results);
    (results, tally.totals())
}

/// [`search`] with the descent profiled and timed as one `search` span.
fn search_traced<Q: ?Sized, I: Search<Q> + ?Sized>(
    index: &I,
    cmd: Query,
    query: &Q,
    rec: &mut SpanRecorder,
) -> (Vec<Neighbor>, QueryProfile, DistanceTotals) {
    let mut sink = (QueryProfile::new(), DistanceTally::new());
    let timer = rec.begin();
    let mut results = index.search(query, cmd, &mut sink);
    reply_order(cmd, &mut results);
    let (profile, tally) = sink;
    rec.record("search", timer, tally.totals());
    (results, profile, tally.totals())
}

/// One index behind the query verbs — served, or asked once by `query`
/// and `explain`: the plain path for ordinary requests, a span-recording
/// traced path for sampled ones (and `explain`), and budgeted kNN. All
/// produce byte-identical answers, and all count the query's distance
/// computations in state of its own — [`DistanceTally`]s, or the
/// [`BudgetMeter`] — never in state another query touches, so the
/// returned cost is exactly this query's, however many run concurrently.
pub(crate) trait ServedQuery<T>: Send + Sync {
    /// Answers `cmd` with no tracing beyond the cost tally.
    fn execute(&self, cmd: Query, query: &T) -> (Vec<Neighbor>, DistanceTotals);
    /// Answers `cmd` while recording its `search` span and the descent
    /// profile. Same results and cost as [`execute`](ServedQuery::execute).
    fn execute_traced(
        &self,
        cmd: Query,
        query: &T,
        rec: &mut SpanRecorder,
    ) -> (Vec<Neighbor>, QueryProfile, DistanceTotals);
    /// The `k` nearest neighbors within `budget` distance computations;
    /// [`BudgetedKnn::cost`] is the query's cost.
    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn;
    /// A copy of the item with original id `id`.
    fn item(&self, id: usize) -> Option<T>;
    /// Copies the item with original id `id` into `out`, reusing its
    /// allocation; `false`, with `out` untouched, when there is none.
    fn item_into(&self, id: usize, out: &mut T) -> bool {
        self.item(id).map(|item| *out = item).is_some()
    }
    /// How this index has routed its kNN queries so far.
    fn routing(&self) -> Routing;
}

/// A served index's kNN routing: answers by its own search and by a
/// scan of its rows, and each calibrated `k` bucket.
#[derive(Debug, Default)]
pub(crate) struct Routing {
    pub(crate) tree: u64,
    pub(crate) scan: u64,
    /// Queries of any verb a byte snapshot answered by widening every
    /// row to `f64` ([`ByteServed`]), which bypass `tree` and `scan`.
    pub(crate) widened: u64,
    /// Calibrated buckets in bucket order; empty for an index that is
    /// never routed.
    pub(crate) buckets: Vec<ScanCalibration>,
}

/// One served index. It answers queries of type `Q`: the wire item
/// itself, or the unsized form (`[f64]`, `str`) a loaded snapshot tree
/// answers, which wire items are borrowed down to.
///
/// Its kNN queries are routed: each `k` bucket is calibrated once, on
/// its first query ([`ScanRouter`]), and a bucket where the tree's own
/// probes compute at least [`SCAN_BETA`](vantage_mvptree::SCAN_BETA) of
/// all distances is answered by a scan of the tree's rows instead of a
/// descent. Same answers either way; the router belongs to this index,
/// so each served generation calibrates afresh.
pub(crate) struct ServedSingle<I, Q: ?Sized> {
    index: I,
    router: ScanRouter,
    tree_answers: ShardedCounter,
    scan_answers: ShardedCounter,
    query: PhantomData<fn(&Q)>,
}

impl<I, Q: ?Sized> ServedSingle<I, Q> {
    pub(crate) fn new(index: I) -> Self {
        ServedSingle {
            index,
            router: ScanRouter::new(),
            tree_answers: ShardedCounter::new(),
            scan_answers: ShardedCounter::new(),
            query: PhantomData,
        }
    }
}

/// The routing itself: a kNN goes to the scan when its bucket's
/// calibration says so, everything else to the index's own search.
impl<Q: ?Sized, I: ScanRoute<Q>> Search<Q> for ServedSingle<I, Q> {
    fn search<S: TraceSink>(&self, query: &Q, cmd: Query, sink: &mut S) -> Vec<Neighbor> {
        if let Query::Knn(k) = cmd {
            let calibration = self.index.scan_calibration(&self.router, k);
            if calibration.is_some_and(|c| c.scan()) {
                self.scan_answers.incr();
                return self.index.knn_scan(query, k, sink);
            }
            self.tree_answers.incr();
        }
        self.index.search(query, cmd, sink)
    }
}

impl<T, Q, I> ServedQuery<T> for ServedSingle<I, Q>
where
    T: Borrow<Q> + Send + Sync,
    Q: ToOwned<Owned = T> + ?Sized,
    I: BudgetedSearch<Q> + ScanRoute<Q> + Send + Sync,
{
    fn execute(&self, cmd: Query, query: &T) -> (Vec<Neighbor>, DistanceTotals) {
        search(self, cmd, query.borrow())
    }

    fn execute_traced(
        &self,
        cmd: Query,
        query: &T,
        rec: &mut SpanRecorder,
    ) -> (Vec<Neighbor>, QueryProfile, DistanceTotals) {
        search_traced(self, cmd, query.borrow(), rec)
    }

    fn knn_budgeted(&self, query: &T, k: usize, budget: SearchBudget) -> BudgetedKnn {
        self.index.knn_budgeted(query.borrow(), k, budget)
    }

    fn item(&self, id: usize) -> Option<T> {
        self.index.get(id).map(ToOwned::to_owned)
    }

    fn item_into(&self, id: usize, out: &mut T) -> bool {
        self.index
            .get(id)
            .map(|item| item.clone_into(out))
            .is_some()
    }

    fn routing(&self) -> Routing {
        Routing {
            tree: self.tree_answers.get(),
            scan: self.scan_answers.get(),
            widened: 0,
            buckets: self.router.calibrated().collect(),
        }
    }
}

/// A byte-vector snapshot served to the vector queries the wire carries.
/// A query whose coordinates are all bytes ([`ByteQuery::Bytes`])
/// searches the byte index. Any other query gets the reply an `f64`
/// snapshot of the same items would send: one exhaustive loop widens
/// each row into one reused `Vec<f64>` ([`Widening`]), calls the `f64`
/// metric and collects as [`LinearScan`] does, so ids, distance bits and
/// tie order match. Its cost is one distance per item.
struct ByteServed<M> {
    bytes: Box<dyn ServedQuery<Vec<u8>>>,
    len: usize,
    metric: M,
    widened_answers: ShardedCounter,
}

/// What the widened scan measures: the `f64` query, or the byte row
/// with an id, which [`Widening`] widens when a distance needs it.
enum Widened<'q> {
    Query(&'q [f64]),
    Row(usize),
}

/// The `f64` metric over [`Widened`] rows of one byte snapshot, for one
/// scan: each row is copied into one reused byte buffer and widened
/// into one reused `Vec<f64>`, so a scan allocates no buffer per row.
/// Every call is the `f64` metric's own on the widened row, so values,
/// abandons and work fractions are those of an `f64` snapshot.
struct Widening<'s, M> {
    bytes: &'s dyn ServedQuery<Vec<u8>>,
    metric: &'s M,
    row: std::cell::RefCell<(Vec<u8>, Vec<f64>)>,
}

impl<M> Widening<'_, M> {
    /// Calls `f` with the query and the widened row of `a` and `b`.
    fn with_pair<R>(&self, a: &Widened, b: &Widened, f: impl FnOnce(&[f64], &[f64]) -> R) -> R {
        let ((Widened::Query(query), Widened::Row(id)) | (Widened::Row(id), Widened::Query(query))) =
            (a, b)
        else {
            unreachable!("a widened scan measures the query against rows")
        };
        let mut row = self.row.borrow_mut();
        let (bytes, wide) = &mut *row;
        let found = self.bytes.item_into(*id, bytes);
        assert!(found, "every id below the snapshot's length has a row");
        wide.clear();
        wide.extend(bytes.iter().map(|&b| f64::from(b)));
        f(query, wide)
    }
}

impl<M: Metric<[f64]>> Metric<Widened<'_>> for Widening<'_, M> {
    fn distance(&self, a: &Widened, b: &Widened) -> f64 {
        self.with_pair(a, b, |q, row| self.metric.distance(q, row))
    }
}

impl<M: BoundedMetric<[f64]>> BoundedMetric<Widened<'_>> for Widening<'_, M> {
    fn distance_within_frac(&self, a: &Widened, b: &Widened, bound: f64) -> (Option<f64>, f64) {
        self.with_pair(a, b, |q, row| {
            self.metric.distance_within_frac(q, row, bound)
        })
    }
}

/// The widened rows, scanned as [`LinearScan`] scans its items.
impl<M: BoundedMetric<[f64]>> Search<[f64]> for ByteServed<M> {
    fn search<S: TraceSink>(&self, query: &[f64], cmd: Query, sink: &mut S) -> Vec<Neighbor> {
        let query = Widened::Query(query);
        vantage_core::scan(&self.widening(), &query, cmd, self.rows(), sink)
    }
}

impl<M> ByteServed<M> {
    /// The `f64` metric over this snapshot's widened rows, for one scan.
    fn widening(&self) -> Widening<'_, M> {
        Widening {
            bytes: &*self.bytes,
            metric: &self.metric,
            row: Default::default(),
        }
    }

    /// Every row, in id order, widened when measured.
    fn rows<'q>(&self) -> impl Iterator<Item = (usize, Widened<'q>)> + use<'q, M> {
        (0..self.len).map(|id| (id, Widened::Row(id)))
    }
}

impl<M: BoundedMetric<[f64]> + Send + Sync> ServedQuery<ByteQuery> for ByteServed<M> {
    fn execute(&self, cmd: Query, query: &ByteQuery) -> (Vec<Neighbor>, DistanceTotals) {
        match query {
            ByteQuery::Bytes(bytes) => self.bytes.execute(cmd, bytes),
            ByteQuery::Floats(vector) => {
                self.widened_answers.incr();
                search(self, cmd, vector.as_slice())
            }
        }
    }

    fn execute_traced(
        &self,
        cmd: Query,
        query: &ByteQuery,
        rec: &mut SpanRecorder,
    ) -> (Vec<Neighbor>, QueryProfile, DistanceTotals) {
        match query {
            ByteQuery::Bytes(bytes) => self.bytes.execute_traced(cmd, bytes, rec),
            ByteQuery::Floats(vector) => {
                self.widened_answers.incr();
                search_traced(self, cmd, vector.as_slice(), rec)
            }
        }
    }

    /// A byte query searches the byte index's budget; any other scans
    /// the id-order prefix the budget affords, as [`LinearScan`] does.
    fn knn_budgeted(&self, query: &ByteQuery, k: usize, budget: SearchBudget) -> BudgetedKnn {
        let vector = match query {
            ByteQuery::Bytes(bytes) => return self.bytes.knn_budgeted(bytes, k, budget),
            ByteQuery::Floats(vector) => vector,
        };
        self.widened_answers.incr();
        scan_budgeted(
            &self.widening(),
            &Widened::Query(vector),
            k,
            self.len,
            self.rows(),
            budget,
        )
    }

    fn item(&self, id: usize) -> Option<ByteQuery> {
        self.bytes.item(id).map(ByteQuery::Bytes)
    }

    fn routing(&self) -> Routing {
        Routing {
            widened: self.widened_answers.get(),
            ..self.bytes.routing()
        }
    }
}

/// Serves `index` as one [`ServedSingle`]: its kNN queries routed, the
/// rest answered by its own search.
pub(crate) fn served<T, Q, I>(index: I) -> Box<dyn ServedQuery<T>>
where
    T: Borrow<Q> + Send + Sync + 'static,
    Q: ToOwned<Owned = T> + ?Sized + 'static,
    I: BudgetedSearch<Q> + ScanRoute<Q> + Send + Sync + 'static,
{
    Box::new(ServedSingle::<I, Q>::new(index))
}

/// One loaded generation: the boxed index and the labels `INFO`
/// surfaces.
pub(crate) struct LoadedIndex<T> {
    pub(crate) index: Box<dyn ServedQuery<T>>,
    pub(crate) items: u64,
    /// The items' coordinate count (`None` for strings, or no items).
    pub(crate) dims: Option<usize>,
    structure: &'static str,
    /// How the generation holds its data: `mmap` (zero-copy file
    /// mapping), `read` (owned fallback behind the mapped API), or
    /// `decoded` (items copied out — the linear layout).
    layout: &'static str,
}

/// Loads a snapshot as a generation serving `T` queries:
/// [`load_index_typed`] for a snapshot of `T` items,
/// [`load_byte_index`] for byte vectors served to [`ByteQuery`]s.
pub(crate) type LoadFn<T> = fn(&str) -> CliResult<LoadedIndex<T>>;

/// Loads a snapshot generation from `path` — the one snapshot loader
/// behind gen0, `RELOAD`/`REINDEX`, `serve-smoke` and `query --index`.
/// Tree snapshots are opened zero-copy: the file is mapped, verified
/// once, and served in place — `open(2)` to answering queries without
/// materializing a node. A linear scan's items are copied out. The
/// metric is the plain `M`: queries count their own cost
/// ([`ServedQuery`]), so nothing wraps it.
pub(crate) fn load_index_typed<T: WireItem, M: ServeMetric<T>>(
    path: &str,
) -> CliResult<LoadedIndex<T>> {
    let loaded = |e: VantageError| err(format!("{path}: {e}"));
    // O(header): decide the loading route without touching the payload.
    let info = persist::inspect(path).map_err(loaded)?;
    let storage = |mapped: bool| if mapped { "mmap" } else { "read" };
    let (index, layout) = match info.kind {
        IndexKind::VpTree => {
            let tree = persist::open_vp_tree::<T::Flat, M>(path).map_err(loaded)?;
            let layout = storage(tree.is_mapped());
            (served(tree), layout)
        }
        IndexKind::MvpTree => {
            let tree = persist::open_mvp_tree::<T::Flat, M>(path).map_err(loaded)?;
            let layout = storage(tree.is_mapped());
            (served(tree), layout)
        }
        IndexKind::Linear => {
            let scan = persist::load_linear_scan::<T::Flat, M>(path).map_err(loaded)?;
            (served::<T, T, _>(scan), "decoded")
        }
    };
    let dims = index.item(0).and_then(|item| item.dims());
    Ok(LoadedIndex {
        index,
        items: info.items,
        dims,
        structure: structure_label(info.kind),
        layout,
    })
}

/// Loads a byte-vector snapshot through [`load_index_typed`] and serves
/// it to byte and `f64` queries alike ([`ByteServed`]).
pub(crate) fn load_byte_index<M>(path: &str) -> CliResult<LoadedIndex<ByteQuery>>
where
    M: ServeMetric<Vec<u8>> + BoundedMetric<[f64]>,
{
    let loaded = load_index_typed::<Vec<u8>, M>(path)?;
    let index = Box::new(ByteServed {
        bytes: loaded.index,
        len: loaded.items as usize,
        metric: M::reconstruct(),
        widened_answers: ShardedCounter::new(),
    });
    Ok(LoadedIndex {
        index,
        items: loaded.items,
        dims: loaded.dims,
        structure: loaded.structure,
        layout: loaded.layout,
    })
}

/// One published generation of the snapshot-serving engine.
struct StaticGen<T> {
    loaded: LoadedIndex<T>,
    metrics: Arc<IndexMetrics>,
}

/// Snapshot-serving engine: one immutable index per generation, replaced
/// wholesale by `RELOAD`/`REINDEX`.
struct StaticEngine<T> {
    cell: SwapCell<StaticGen<T>>,
    /// Path of the snapshot currently served (`REINDEX` reloads it).
    source: Mutex<String>,
    item_tag: String,
    metric_tag: String,
    /// Loads a fresh generation from a snapshot path. `RELOAD` goes
    /// through this so a swap takes the same zero-copy route as gen0.
    loader: LoadFn<T>,
}

/// Ingest-serving engine: the concurrent mvp-tree swaps internally on
/// every write. Each query searches one pinned generation with a sink
/// of its own, so rebuilds running beside it never leak into its cost.
struct DynamicEngine<T: WireItem, M> {
    tree: ConcurrentMvpTree<T, M, Rows<T>>,
    metrics: Arc<IndexMetrics>,
    /// The items' coordinate count: the dataset's, or the first
    /// insert's when the server started empty.
    dims: OnceLock<usize>,
}

/// A snapshot generation answers queries in the form a snapshot of `T`
/// is queried with ([`WireItem::Query`]); the dynamic tree answers `T`.
enum Engine<T: WireItem, M> {
    Static(StaticEngine<T::Query>),
    Dynamic(DynamicEngine<T, M>),
}

/// Per-server tracing state: sampling policy, slow-query capture, the
/// trace ring, and the live SLO surface.
struct Tracer {
    sampler: Sampler,
    /// Latency at or above which a request is always captured (0 =
    /// slow-query capture disabled).
    slow_ns: u64,
    ring: TraceRing,
    slo: SloSurface,
    /// Structured slow-query log (one JSON line per captured query).
    slow_log: Option<Mutex<std::fs::File>>,
}

impl Tracer {
    fn new(opts: &ServeOptions) -> CliResult<Tracer> {
        let slow_log = match &opts.slow_log {
            Some(path) => Some(Mutex::new(
                std::fs::File::create(path)
                    .map_err(|e| err(format!("cannot create {path}: {e}")))?,
            )),
            None => None,
        };
        Ok(Tracer {
            sampler: Sampler::new(opts.seed, opts.trace_sample),
            slow_ns: if opts.slow_ms > 0.0 {
                (opts.slow_ms * 1_000_000.0).max(1.0) as u64
            } else {
                0
            },
            ring: TraceRing::new(opts.trace_ring),
            slo: SloSurface::new(),
            slow_log,
        })
    }
}

/// Server state shared by every connection thread.
struct Shared<T: WireItem, M> {
    engine: Engine<T, M>,
    registry: MetricsRegistry,
    metric_name: String,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    started: Instant,
    tracer: Tracer,
    g_generation: Arc<Gauge>,
    g_in_flight: Arc<Gauge>,
    g_swaps: Arc<Gauge>,
    g_connections: Arc<Gauge>,
    g_uptime: Arc<Gauge>,
    /// Request lines refused for exceeding `MAX_LINE_BYTES`.
    g_long_lines: Arc<Gauge>,
}

impl<T: WireItem, M> Shared<T, M> {
    fn new(
        engine: Engine<T, M>,
        registry: MetricsRegistry,
        metric_name: String,
        tracer: Tracer,
        local_addr: SocketAddr,
    ) -> Self {
        Shared {
            engine,
            metric_name,
            shutdown: AtomicBool::new(false),
            local_addr,
            started: Instant::now(),
            tracer,
            g_generation: registry.gauge("serve/generation"),
            g_in_flight: registry.gauge("serve/in_flight"),
            g_swaps: registry.gauge("serve/swaps"),
            g_connections: registry.gauge("serve/connections"),
            g_uptime: registry.gauge("serve/uptime_s"),
            g_long_lines: registry.gauge("serve/long_lines"),
            registry,
        }
    }
}

/// Parsed command-line options common to both serving modes.
pub(crate) struct ServeOptions {
    pub addr: String,
    pub addr_file: Option<String>,
    pub metric: Option<String>,
    pub metrics_out: Option<String>,
    pub seed: u64,
    /// Head-sample one query request in N into the trace ring (0 =
    /// head sampling off; slow-query capture still applies).
    pub trace_sample: u64,
    /// Always capture requests at or above this latency, in
    /// milliseconds (fractional values allowed; 0 = off).
    pub slow_ms: f64,
    /// Append captured slow queries to this file as JSON lines.
    pub slow_log: Option<String>,
    /// Capacity of the in-memory trace ring.
    pub trace_ring: usize,
}

impl ServeOptions {
    pub(crate) fn from_args(args: &Args<'_>) -> CliResult<Self> {
        let slow_ms: f64 = args.parsed("slow-ms", 100.0)?;
        // A NaN here would fail every `latency >= slow_ns` comparison
        // and silently disable slow-query capture; reject it (and other
        // nonsense) at the boundary instead.
        if !slow_ms.is_finite() || slow_ms < 0.0 {
            return Err(err(format!(
                "--slow-ms must be a finite, non-negative number of milliseconds, got `{slow_ms}`"
            )));
        }
        Ok(ServeOptions {
            addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
            addr_file: args.get("addr-file").map(str::to_string),
            metric: args.get("metric").map(str::to_string),
            metrics_out: args.get("metrics-out").map(str::to_string),
            seed: args.parsed("seed", 0)?,
            trace_sample: args.parsed("trace-sample", 64)?,
            slow_ms,
            slow_log: args.get("slow-log").map(str::to_string),
            trace_ring: args.parsed("trace-ring", 256)?,
        })
    }
}

/// Milliseconds since the Unix epoch, for "when did this happen" gauges.
fn unix_ms() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// Serves an index loaded from a `vantage-persist` snapshot. The item
/// type and metric are decided from an **O(header)** inspection; the
/// snapshot is then loaded exactly once, here, through
/// [`load_index_typed`] (tree snapshots are mapped and served zero-copy,
/// the kernel paging nodes in on demand); queries never
/// touch the loader again.
pub(crate) fn serve_snapshot(path: &str, opts: ServeOptions, out: &mut String) -> CliResult<()> {
    let info = persist::inspect(path).map_err(|e| err(format!("{path}: {e}")))?;
    if let Some(want) = &opts.metric {
        if *want != info.metric {
            // Typed mismatch, not a panic: the snapshot itself is fine,
            // it just does not hold the metric the operator asked for.
            return Err(err(VantageError::mismatch(
                "metric",
                info.metric.clone(),
                want.clone(),
            )
            .to_string()));
        }
    }
    let run = (path, &info, opts, out);
    type Vector = Vec<f64>;
    match (info.item.as_str(), info.metric.as_str()) {
        ("utf8-string", "edit") => serve_snapshot_typed::<String, Levenshtein>(
            run,
            load_index_typed::<String, Levenshtein>,
        ),
        ("f64-vector", "l2") => {
            serve_snapshot_typed::<Vector, Euclidean>(run, load_index_typed::<Vector, Euclidean>)
        }
        ("f64-vector", "l1") => {
            serve_snapshot_typed::<Vector, Manhattan>(run, load_index_typed::<Vector, Manhattan>)
        }
        ("f64-vector", "linf") => {
            serve_snapshot_typed::<Vector, Chebyshev>(run, load_index_typed::<Vector, Chebyshev>)
        }
        ("u8-vector", "l2") => {
            serve_snapshot_typed::<Vec<u8>, Euclidean>(run, load_byte_index::<Euclidean>)
        }
        ("u8-vector", "l1") => {
            serve_snapshot_typed::<Vec<u8>, Manhattan>(run, load_byte_index::<Manhattan>)
        }
        (item, metric) => Err(err(format!(
            "{path}: snapshot combination {item}/{metric} is not supported by this CLI"
        ))),
    }
}

/// Serves the snapshot at `path` with generations loaded by `load`. `M`
/// types the engine; a snapshot's metric comes from its loader.
fn serve_snapshot_typed<T: WireItem, M: ServeMetric<T>>(
    (path, info, opts, out): (&str, &persist::SnapshotInfo, ServeOptions, &mut String),
    load: LoadFn<T::Query>,
) -> CliResult<()> {
    let registry = MetricsRegistry::new();
    let load_start = Instant::now();
    let loaded = load(path)?;
    let metrics = registry.index("serve/gen0");
    record_snapshot_load(&metrics, load_start, info.bytes);
    registry.gauge("serve/gen0/loaded_unix_ms").set(unix_ms());
    let engine = Engine::<T, M>::Static(StaticEngine {
        cell: SwapCell::new(StaticGen { loaded, metrics }),
        source: Mutex::new(path.to_string()),
        item_tag: info.item.clone(),
        metric_tag: info.metric.clone(),
        loader: load,
    });
    run_server(engine, registry, info.metric.clone(), opts, out)
}

/// Serves a dataset through the dynamic (ingest-capable) engine, built
/// under the `threads` policy.
pub(crate) fn serve_data(
    path: &str,
    threads: Threads,
    opts: ServeOptions,
    out: &mut String,
) -> CliResult<()> {
    let metric_name = opts.metric.clone().unwrap_or_else(|| "l2".to_string());
    if metric_name == "edit" {
        let words = crate::read_words(path)?;
        serve_data_typed(words, Levenshtein, metric_name, threads, opts, out)
    } else {
        let vectors = crate::read_vectors(path)?;
        match metric_name.as_str() {
            "l2" => serve_data_typed(vectors, Euclidean, metric_name, threads, opts, out),
            "l1" => serve_data_typed(vectors, Manhattan, metric_name, threads, opts, out),
            "linf" => serve_data_typed(vectors, Chebyshev, metric_name, threads, opts, out),
            other => Err(err(format!("unknown metric `{other}` (l1|l2|linf|edit)"))),
        }
    }
}

fn serve_data_typed<T, M>(
    items: Vec<T>,
    metric: M,
    metric_name: String,
    threads: Threads,
    opts: ServeOptions,
    out: &mut String,
) -> CliResult<()>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let registry = MetricsRegistry::new();
    let engine = build_dynamic(items, metric, &registry, opts.seed, threads)?;
    run_server(engine, registry, metric_name, opts, out)
}

/// Builds the dynamic engine's concurrent tree over `items`, recording
/// the build under `serve/dynamic`.
fn build_dynamic<T, M>(
    items: Vec<T>,
    metric: M,
    registry: &MetricsRegistry,
    seed: u64,
    threads: Threads,
) -> CliResult<Engine<T, M>>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let dims = items
        .first()
        .and_then(WireQuery::dims)
        .map_or_else(OnceLock::new, OnceLock::from);
    let build_start = Instant::now();
    let params = mvp_build_params(seed, threads);
    let tree = Rows::<T>::from_items(items)
        .and_then(|rows| ConcurrentMvpTree::with_rows(rows, metric, params))
        .map_err(|e| err(e.to_string()))?;
    let metrics = registry.index("serve/dynamic");
    record_build(&metrics, build_start, tree.build_distances());
    Ok(Engine::Dynamic(DynamicEngine {
        tree,
        metrics,
        dims,
    }))
}

fn run_server<T, M>(
    engine: Engine<T, M>,
    registry: MetricsRegistry,
    metric_name: String,
    opts: ServeOptions,
    out: &mut String,
) -> CliResult<()>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| err(format!("cannot bind {}: {e}", opts.addr)))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| err(format!("cannot resolve bound address: {e}")))?;
    let tracer = Tracer::new(&opts)?;
    registry.gauge("serve/started_unix_ms").set(unix_ms());
    let shared = Arc::new(Shared::new(
        engine,
        registry,
        metric_name,
        tracer,
        local_addr,
    ));
    // Readiness signals that work before the (buffered) report is
    // printed: the bound address goes to stderr immediately, and to a
    // file when the operator (or a test) asked for one.
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, local_addr.to_string())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    eprintln!("vantage serve: listening on {local_addr}");

    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap connection threads that already exited: an unjoined
        // thread keeps its stack mapped until it is joined.
        workers.retain(|w| !w.is_finished());
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || {
            handle_connection(stream, &shared)
        }));
    }
    // Graceful drain: every connection thread finishes its in-flight
    // request (and closes) before the final metrics flush.
    for worker in workers {
        let _ = worker.join();
    }
    refresh_gauges(&shared);
    let snapshot = shared.registry.snapshot();
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, export::to_json(&snapshot))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "metrics snapshot written to {path}");
    }
    let _ = writeln!(out, "server on {local_addr} shut down cleanly");
    Ok(())
}

fn handle_connection<T, M>(stream: TcpStream, shared: &Shared<T, M>)
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let _open = GaugeHold::new(&shared.g_connections);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    serve_lines(&mut reader, &mut writer, shared);
}

/// Answers request lines from `reader` until the peer closes, a write
/// fails, a `SHUTDOWN` reply is sent or the server shuts down. Each
/// reply reaches `writer` in one [`write_line`].
fn serve_lines<T, M>(reader: &mut impl BufRead, writer: &mut impl IoWrite, shared: &Shared<T, M>)
where
    T: WireItem,
    M: ServeMetric<T>,
{
    // Raw bytes, decoded only once the whole line is in: a line that is
    // not UTF-8 gets an error reply instead of ending the connection.
    // Both the partial line and the skipping state survive read
    // timeouts.
    let mut line = Vec::new();
    let mut skipping = false;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let read = read_request_line(reader, &mut line, &mut skipping, MAX_LINE_BYTES);
        let (reply, close) = match read {
            Ok(LineRead::Line) => match std::str::from_utf8(&line) {
                Ok(text) => handle_line(text.trim(), shared),
                Err(_) => ("ERR request line is not valid UTF-8".to_string(), false),
            },
            Ok(LineRead::TooLong) => {
                shared.g_long_lines.add(1);
                (
                    format!("ERR request line longer than {MAX_LINE_BYTES} bytes"),
                    false,
                )
            }
            Ok(LineRead::Eof) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        line.clear();
        if write_line(writer, reply).is_err() || close {
            break;
        }
    }
}

/// Writes `line` and its newline in one `write_all`: on a `TCP_NODELAY`
/// socket a separate newline costs a second syscall and a second
/// segment, and wakes the peer's line reader twice.
fn write_line(writer: &mut impl IoWrite, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// What one call of [`read_request_line`] finished.
enum LineRead {
    /// A request line is in the buffer, without its newline (a last
    /// line cut off by the end of the stream counts).
    Line,
    /// A line longer than the cap ended; none of it was kept.
    TooLong,
    /// The peer closed the connection.
    Eof,
}

/// Reads the next request line into `line`, keeping at most `cap` bytes
/// of it. Once a line passes `cap`, its bytes are consumed and dropped
/// as they arrive (`*skipping` carries that across read timeouts, as
/// `line` carries a partial line) until its newline ends it.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    skipping: &mut bool,
    cap: usize,
) -> std::io::Result<LineRead> {
    if !*skipping {
        // One byte past the cap tells a line of exactly `cap` bytes from
        // a longer one; `read_until` keeps what it read before an error.
        let budget = cap.saturating_add(1).saturating_sub(line.len()) as u64;
        if reader.by_ref().take(budget).read_until(b'\n', line)? == 0 {
            return Ok(LineRead::Eof);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            return Ok(LineRead::Line);
        }
        if line.len() <= cap {
            return Ok(LineRead::Line);
        }
        line.clear();
        *skipping = true;
    }
    loop {
        let buf = reader.fill_buf()?;
        let (used, ended) = match buf.iter().position(|&b| b == b'\n') {
            Some(p) => (p + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        reader.consume(used);
        if ended {
            *skipping = false;
            return Ok(LineRead::TooLong);
        }
    }
}

/// Holds one unit of a gauge — an open connection in
/// `serve/connections`, a query in `serve/in_flight` — until dropped,
/// however its thread ends, a panic included.
struct GaugeHold<'a>(&'a Gauge);

impl<'a> GaugeHold<'a> {
    fn new(gauge: &'a Gauge) -> Self {
        gauge.add(1);
        GaugeHold(gauge)
    }
}

impl Drop for GaugeHold<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Handles one request line; returns the reply and whether to close the
/// connection afterwards.
fn handle_line<T, M>(line: &str, shared: &Shared<T, M>) -> (String, bool)
where
    T: WireItem,
    M: ServeMetric<T>,
{
    match dispatch(line, shared) {
        Ok(Reply::Line(reply)) => (reply, false),
        Ok(Reply::Bye(reply)) => (reply, true),
        Err(message) => (format!("ERR {message}"), false),
    }
}

enum Reply {
    Line(String),
    Bye(String),
}

fn dispatch<T, M>(line: &str, shared: &Shared<T, M>) -> std::result::Result<Reply, String>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let mut parts = line.splitn(2, ' ');
    let verb = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("").trim();
    match verb {
        "PING" => Ok(Reply::Line("OK pong".to_string())),
        "INFO" => Ok(Reply::Line(info_line(shared))),
        "RANGE" | "BEYOND" | "KNN" | "KFN" => {
            // The trace ID is a pure function of (seed, request line):
            // the sampled *set* is identical across thread counts and
            // replays. The unsampled path pays one hash and one clock
            // read here — no allocation, no recorder.
            let origin = Instant::now();
            let id = shared.tracer.sampler.trace_id(line);
            let trace = RequestTrace {
                verb,
                id,
                origin,
                rec: shared
                    .tracer
                    .sampler
                    .samples(id)
                    .then(|| SpanRecorder::with_origin(origin)),
            };
            answer_query(shared, rest, trace).map(Reply::Line)
        }
        "INSERT" => {
            let engine = dynamic_engine(shared, verb)?;
            let item = T::parse_wire(rest)?;
            if let Some(d) = item.dims() {
                check_dims("item", &item, Some(*engine.dims.get_or_init(|| d)))?;
            }
            let id = engine.tree.insert(item);
            refresh_generation(shared, engine);
            Ok(Reply::Line(format!(
                "OK id={id} generation={}",
                engine.tree.generation()
            )))
        }
        "DELETE" => {
            let engine = dynamic_engine(shared, verb)?;
            let id: usize = rest
                .parse()
                .map_err(|_| format!("DELETE needs an integer id, got `{rest}`"))?;
            let removed = engine.tree.remove(id);
            refresh_generation(shared, engine);
            Ok(Reply::Line(format!(
                "OK removed={removed} generation={}",
                engine.tree.generation()
            )))
        }
        "RELOAD" => match &shared.engine {
            Engine::Static(engine) => {
                if rest.is_empty() {
                    return Err("RELOAD needs a snapshot path".to_string());
                }
                reload(engine, shared, rest)
            }
            Engine::Dynamic(_) => {
                Err("RELOAD is only available in snapshot (--index) mode".to_string())
            }
        },
        "REINDEX" => match &shared.engine {
            Engine::Static(engine) => {
                let source = engine
                    .source
                    .lock()
                    .map_err(|_| "source path lock poisoned".to_string())?
                    .clone();
                reload(engine, shared, &source)
            }
            Engine::Dynamic(engine) => {
                let generation = engine.tree.reindex();
                refresh_gauges(shared);
                Ok(Reply::Line(format!("OK generation={generation}")))
            }
        },
        "STATS" => {
            refresh_gauges(shared);
            let snapshot = shared.registry.snapshot();
            Ok(Reply::Line(format!(
                "OK {}",
                export::to_json_compact(&snapshot)
            )))
        }
        "SLOW" => {
            let n: usize = if rest.is_empty() {
                10
            } else {
                rest.parse()
                    .map_err(|_| format!("SLOW needs an integer count, got `{rest}`"))?
            };
            let slowest = shared.tracer.ring.slowest(n);
            let json = Json::Arr(slowest.iter().map(|r| r.to_json()).collect());
            Ok(Reply::Line(format!("OK {}", json.render())))
        }
        "TRACE" => {
            let id = TraceId::parse_hex(rest)
                .ok_or_else(|| format!("TRACE needs a 16-hex-digit trace id, got `{rest}`"))?;
            match shared.tracer.ring.find(id) {
                Some(record) => Ok(Reply::Line(format!("OK {}", record.to_json().render()))),
                None => Err(format!("trace {id} not found (never captured, or evicted)")),
            }
        }
        "SLO" => {
            let mut ops = std::collections::BTreeMap::new();
            for (kind, snap) in shared.tracer.slo.snapshots() {
                let mut entry = std::collections::BTreeMap::new();
                entry.insert("count".to_string(), Json::Num(snap.total as f64));
                entry.insert("window".to_string(), Json::Num(snap.window as f64));
                // Effective sample count plus per-percentile convergence
                // flags: with a thin window, nearest-rank p99/p999 alias
                // the worst observation — clients get told, not fooled.
                entry.insert("samples".to_string(), Json::Num(snap.samples as f64));
                entry.insert("p50_ns".to_string(), Json::Num(snap.p50_ns as f64));
                entry.insert("p99_ns".to_string(), Json::Num(snap.p99_ns as f64));
                entry.insert("p999_ns".to_string(), Json::Num(snap.p999_ns as f64));
                entry.insert("p50_converged".to_string(), Json::Bool(snap.p50_converged));
                entry.insert("p99_converged".to_string(), Json::Bool(snap.p99_converged));
                entry.insert(
                    "p999_converged".to_string(),
                    Json::Bool(snap.p999_converged),
                );
                entry.insert("worst_ns".to_string(), Json::Num(snap.worst_ns as f64));
                entry.insert(
                    "worst_trace".to_string(),
                    Json::Str(TraceId::from_bits(snap.worst_exemplar).to_string()),
                );
                ops.insert(kind.name().to_string(), Json::Obj(entry));
            }
            Ok(Reply::Line(format!("OK {}", Json::Obj(ops).render())))
        }
        "SHUTDOWN" => {
            shared.shutdown.store(true, Ordering::Release);
            // Wake the acceptor so the listen loop observes the flag.
            let _ = TcpStream::connect(shared.local_addr);
            Ok(Reply::Bye("OK bye".to_string()))
        }
        "" => Err("empty command".to_string()),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn dynamic_engine<'a, T: WireItem, M>(
    shared: &'a Shared<T, M>,
    verb: &str,
) -> std::result::Result<&'a DynamicEngine<T, M>, String> {
    match &shared.engine {
        Engine::Dynamic(engine) => Ok(engine),
        Engine::Static(_) => Err(format!("{verb} is only available in dynamic (--data) mode")),
    }
}

fn split_arg<'a>(rest: &'a str, verb: &str) -> std::result::Result<(&'a str, &'a str), String> {
    let mut parts = rest.splitn(2, ' ');
    match (parts.next(), parts.next()) {
        (Some(arg), Some(query)) if !arg.is_empty() && !query.trim().is_empty() => {
            Ok((arg, query.trim()))
        }
        _ => Err(format!("{verb} needs an argument and a query")),
    }
}

/// Parses a query verb and its numeric argument.
fn parse_query(verb: &str, arg: &str) -> std::result::Result<Query, String> {
    match verb {
        "RANGE" => parse_radius(verb, arg).map(Query::Range),
        "BEYOND" => parse_radius(verb, arg).map(Query::Beyond),
        "KNN" => arg
            .parse()
            .map(Query::Knn)
            .map_err(|_| format!("KNN needs an integer k, got `{arg}`")),
        "KFN" => arg
            .parse()
            .map(Query::Kfn)
            .map_err(|_| format!("KFN needs an integer k, got `{arg}`")),
        _ => Err(format!("unknown query verb `{verb}`")),
    }
}

/// The operation a query is recorded as: far forms count with their
/// near counterparts.
pub(crate) fn op_kind(query: Query) -> OpKind {
    match query {
        Query::Range(_) | Query::Beyond(_) => OpKind::Range,
        Query::Knn(_) | Query::Kfn(_) => OpKind::Knn,
    }
}

/// Parses a RANGE/BEYOND radius. NaN is refused: every `d <= NaN` test
/// fails, so whether a NaN radius matches anything would depend on
/// which comparisons a structure happens to make.
fn parse_radius(verb: &str, arg: &str) -> std::result::Result<f64, String> {
    match arg.parse::<f64>() {
        Ok(r) if !r.is_nan() => Ok(r),
        _ => Err(format!("{verb} needs a float radius, got `{arg}`")),
    }
}

/// Renders neighbors as a reply line, distances in round-trip `f64` form.
pub(crate) fn format_neighbors(neighbors: &[Neighbor]) -> String {
    let mut s = format!("OK {}", neighbors.len());
    for n in neighbors {
        let _ = write!(s, " {}:{}", n.id, n.distance);
    }
    s
}

/// Per-request tracing context threaded from `dispatch` into
/// [`answer_query`]: the trace ID every query request gets, and the span
/// recorder only sampled requests carry.
struct RequestTrace<'a> {
    verb: &'a str,
    id: TraceId,
    origin: Instant,
    rec: Option<SpanRecorder>,
}

/// Parses a query request's text after its verb into the command and
/// a `Q`, timed as the `parse` span of a sampled request.
fn parse_request<Q: WireQuery>(
    rest: &str,
    trace: &mut RequestTrace<'_>,
) -> std::result::Result<(Query, Q), String> {
    let timer = trace.rec.as_mut().map(|r| r.begin());
    let (arg, query_text) = split_arg(rest, trace.verb)?;
    let query = Q::parse_wire(query_text)?;
    let cmd = parse_query(trace.verb, arg)?;
    if let (Some(r), Some(timer)) = (trace.rec.as_mut(), timer) {
        r.record("parse", timer, DistanceTotals::default());
    }
    Ok((cmd, query))
}

/// Parses and answers one query request (`rest` follows its verb).
/// Each engine parses the query once, into the form it searches.
fn answer_query<T, M>(
    shared: &Shared<T, M>,
    rest: &str,
    mut trace: RequestTrace<'_>,
) -> std::result::Result<String, String>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    let mut profile = None;
    let in_flight;
    let (cmd, generation, results, measured) = match &shared.engine {
        Engine::Static(engine) => {
            let (cmd, query) = parse_request::<T::Query>(rest, &mut trace)?;
            // Pin one generation: the query answers wholly against it
            // even if a RELOAD swaps mid-flight.
            let guard = engine.cell.read();
            check_dims("query", &query, guard.loaded.dims)?;
            in_flight = GaugeHold::new(&shared.g_in_flight);
            let start = Instant::now();
            let (results, cost) = match trace.rec.as_mut() {
                Some(r) => {
                    let (results, descent, cost) =
                        guard.loaded.index.execute_traced(cmd, &query, r);
                    profile = Some(descent);
                    (results, cost)
                }
                None => guard.loaded.index.execute(cmd, &query),
            };
            let elapsed = start.elapsed();
            guard.metrics.record(op_kind(cmd), elapsed, cost.into());
            (cmd, guard.generation(), results, (start, elapsed, cost))
        }
        Engine::Dynamic(engine) => {
            let (cmd, query) = parse_request::<T>(rest, &mut trace)?;
            // Pin one generation, as above; its number is the one the
            // query read, whatever writes publish meanwhile. Every item
            // it holds was checked against `dims` before its insert.
            let snapshot = engine.tree.read();
            check_dims("query", &query, engine.dims.get().copied())?;
            in_flight = GaugeHold::new(&shared.g_in_flight);
            let start = Instant::now();
            let (results, cost) = match trace.rec.as_mut() {
                Some(r) => {
                    let (results, descent, cost) =
                        search_traced(&*snapshot, cmd, query.borrow(), r);
                    profile = Some(descent);
                    (results, cost)
                }
                None => search(&*snapshot, cmd, query.borrow()),
            };
            let elapsed = start.elapsed();
            engine.metrics.record(op_kind(cmd), elapsed, cost.into());
            (cmd, snapshot.generation(), results, (start, elapsed, cost))
        }
    };
    let RequestTrace {
        verb,
        id,
        origin,
        mut rec,
    } = trace;
    let sampled = rec.is_some();
    let reply = match rec.as_mut() {
        Some(r) => {
            let timer = r.begin();
            let reply = format_neighbors(&results);
            r.record("reply", timer, DistanceTotals::default());
            reply
        }
        None => format_neighbors(&results),
    };
    drop(in_flight);

    let tracer = &shared.tracer;
    let total_ns = origin.elapsed().as_nanos() as u64;
    tracer.slo.record(op_kind(cmd), total_ns, id.bits());
    let slow = tracer.slow_ns > 0 && total_ns >= tracer.slow_ns;
    if sampled || slow {
        let rec = rec.unwrap_or_else(|| {
            // Slow but not head-sampled: synthesize the one span the
            // metrics path measured anyway, so the slow log always
            // carries a cost breakdown.
            let (start, elapsed, cost) = measured;
            let mut r = SpanRecorder::with_origin(origin);
            r.push(SpanRecord {
                name: "search",
                start_ns: start.saturating_duration_since(origin).as_nanos() as u64,
                duration_ns: elapsed.as_nanos() as u64,
                distances: cost.computations,
                abandoned: cost.abandoned,
                abandoned_work: cost.abandoned_work,
            });
            r
        });
        let record = TraceRecord {
            id,
            verb: verb.to_string(),
            op: op_kind(cmd).name().to_string(),
            generation,
            total_ns,
            results: results.len() as u64,
            sampled,
            slow,
            dropped_spans: rec.dropped(),
            spans: rec.into_spans(),
            profile,
        };
        if slow {
            if let Some(log) = &tracer.slow_log {
                if let Ok(mut file) = log.lock() {
                    let _ = writeln!(file, "{}", record.to_json().render());
                }
            }
        }
        tracer.ring.push(record);
    }
    Ok(reply)
}

fn info_line<T, M>(shared: &Shared<T, M>) -> String
where
    T: WireItem,
    M: ServeMetric<T>,
{
    match &shared.engine {
        Engine::Static(engine) => {
            let guard = engine.cell.read();
            format!(
                "OK mode=static structure={} metric={} item={} items={} layout={} generation={} swaps={} simd={} uptime_s={} knn_scans={}",
                guard.loaded.structure,
                shared.metric_name,
                engine.item_tag,
                guard.loaded.items,
                guard.loaded.layout,
                guard.generation(),
                engine.cell.swaps(),
                vantage_core::simd::active_name(),
                shared.started.elapsed().as_secs(),
                guard.loaded.index.routing().scan
            )
        }
        Engine::Dynamic(engine) => {
            let snapshot = engine.tree.read();
            format!(
                "OK mode=dynamic structure=mvp metric={} item={} items={} generation={} simd={} uptime_s={} overflow={} tree_dead={}",
                shared.metric_name,
                T::NAME,
                snapshot.len(),
                snapshot.generation(),
                vantage_core::simd::active_name(),
                shared.started.elapsed().as_secs(),
                snapshot.overflow_len(),
                snapshot.tree_dead()
            )
        }
    }
}

/// The gauges a write moves: the generation it published. The SLO
/// percentiles wait for `STATS` and the final flush
/// ([`refresh_gauges`]), which sort every window.
fn refresh_generation<T: WireItem, M: ServeMetric<T>>(
    shared: &Shared<T, M>,
    engine: &DynamicEngine<T, M>,
) {
    let generation = engine.tree.generation() as i64;
    shared.g_generation.set(generation);
    shared.g_swaps.set(generation);
}

/// Re-reads the serving gauges from the engine's authoritative counters.
fn refresh_gauges<T, M>(shared: &Shared<T, M>)
where
    T: WireItem,
    M: ServeMetric<T>,
{
    match &shared.engine {
        Engine::Static(engine) => {
            shared.g_generation.set(engine.cell.generation() as i64);
            shared.g_swaps.set(engine.cell.swaps() as i64);
            let guard = engine.cell.read();
            publish_routing(
                &shared.registry,
                guard.generation(),
                &guard.loaded.index.routing(),
            );
        }
        Engine::Dynamic(engine) => {
            refresh_generation(shared, engine);
            // What every read of the current generation scans or
            // descends past until the next rebuild.
            let snapshot = engine.tree.read();
            shared
                .registry
                .gauge("serve/dynamic/overflow")
                .set(snapshot.overflow_len() as i64);
            shared
                .registry
                .gauge("serve/dynamic/tree_dead")
                .set(snapshot.tree_dead() as i64);
        }
    }
    shared
        .g_uptime
        .set(shared.started.elapsed().as_secs() as i64);
    for (kind, snap) in shared.tracer.slo.snapshots() {
        for (stat, value) in [
            ("p50_ns", snap.p50_ns),
            ("p99_ns", snap.p99_ns),
            ("p999_ns", snap.p999_ns),
            ("samples", snap.samples),
        ] {
            shared
                .registry
                .gauge(&format!("slo/{}/{stat}", kind.name()))
                .set(value as i64);
        }
    }
}

/// Publishes one generation's kNN routing as gauges under
/// `serve/gen{G}/`: `knn_answers/tree` and `knn_answers/scan`, and per
/// calibrated bucket (named by its smallest `k`) the probe ratio in
/// parts per million and whether the bucket routes to the scan.
fn publish_routing(registry: &MetricsRegistry, generation: u64, routing: &Routing) {
    let prefix = format!("serve/gen{generation}");
    registry
        .gauge(&format!("{prefix}/knn_answers/tree"))
        .set(routing.tree as i64);
    registry
        .gauge(&format!("{prefix}/knn_answers/scan"))
        .set(routing.scan as i64);
    for c in &routing.buckets {
        let bucket = format!("{prefix}/knn_route/k{}", c.min_k());
        registry
            .gauge(&format!("{bucket}/probe_ratio_ppm"))
            .set((c.ratio() * 1e6).round() as i64);
        registry
            .gauge(&format!("{bucket}/scan"))
            .set(i64::from(c.scan()));
    }
}

/// `RELOAD`: load and verify the new snapshot on this thread
/// (readers keep answering on the current generation), swap atomically,
/// then drain the displaced generation.
fn reload<T, M>(
    engine: &StaticEngine<T::Query>,
    shared: &Shared<T, M>,
    path: &str,
) -> std::result::Result<Reply, String>
where
    T: WireItem,
    M: ServeMetric<T>,
{
    // O(header) routing check first; the loader then verifies checksums
    // and structural invariants once, and for tree snapshots maps the
    // file instead of materializing a node arena — the swap is
    // near-zero-copy.
    let info = persist::inspect(path).map_err(|e| format!("{path}: {e}"))?;
    if info.metric != engine.metric_tag {
        return Err(
            VantageError::mismatch("metric", info.metric, engine.metric_tag.clone()).to_string(),
        );
    }
    if info.item != engine.item_tag {
        return Err(
            VantageError::mismatch("items", info.item, engine.item_tag.clone()).to_string(),
        );
    }
    let load_start = Instant::now();
    let loaded = (engine.loader)(path).map_err(|e| e.to_string())?;
    let next_gen = engine.cell.generation() + 1;
    let metrics = shared.registry.index(&format!("serve/gen{next_gen}"));
    record_snapshot_load(&metrics, load_start, info.bytes);
    shared
        .registry
        .gauge(&format!("serve/gen{next_gen}/loaded_unix_ms"))
        .set(unix_ms());
    let (items, layout) = (loaded.items, loaded.layout);
    let retired = engine.cell.swap(StaticGen { loaded, metrics });
    let drained = retired.wait_drained(DRAIN_TIMEOUT);
    // The displaced generation's final routing counts.
    let old_generation = retired.generation();
    if let Ok(old) = retired.try_into_inner() {
        publish_routing(
            &shared.registry,
            old_generation,
            &old.loaded.index.routing(),
        );
    }
    refresh_gauges(shared);
    *engine
        .source
        .lock()
        .map_err(|_| "source path lock poisoned".to_string())? = path.to_string();
    Ok(Reply::Line(format!(
        "OK generation={} items={items} layout={layout} drained={drained}",
        engine.cell.generation(),
    )))
}

// ---------------------------------------------------------------------
// Client side: one-shot commands and the multi-threaded smoke test.
// ---------------------------------------------------------------------

/// A line-protocol client connection.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects, retrying until `deadline` (a freshly `spawn`ed server
    /// may not be accepting yet).
    pub(crate) fn connect_retry(addr: &str, deadline: Duration) -> CliResult<Conn> {
        let start = Instant::now();
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
                    let writer = stream
                        .try_clone()
                        .map_err(|e| err(format!("cannot clone connection: {e}")))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) if start.elapsed() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(err(format!("cannot connect to {addr}: {e}"))),
            }
        }
    }

    /// Sends one command line and reads one reply line.
    pub(crate) fn send(&mut self, command: &str) -> CliResult<String> {
        write_line(&mut self.writer, command.to_owned())
            .map_err(|e| err(format!("send failed: {e}")))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| err(format!("no reply: {e}")))?;
        if reply.is_empty() {
            return Err(err("server closed the connection"));
        }
        Ok(reply.trim_end().to_string())
    }
}

/// `vantage client --addr A --cmd "KNN 5 0.5,0.5"`: one command, one
/// reply, printed.
pub(crate) fn cmd_client(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("client", argv)?;
    let addr = args.required("addr")?;
    let command = args.required("cmd")?;
    args.finish()?;
    let mut conn = Conn::connect_retry(addr, Duration::from_secs(5))?;
    let reply = conn.send(command)?;
    let _ = writeln!(out, "{reply}");
    Ok(())
}

/// `vantage trace --addr A [--id HEX] [--export FILE]`: fetches one
/// captured trace (by id, or the slowest when `--id` is omitted) and
/// prints it, or exports it as Chrome trace-event JSON — load the file
/// at `chrome://tracing` or <https://ui.perfetto.dev> to see the
/// request's per-phase timeline.
pub(crate) fn cmd_trace(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("trace", argv)?;
    let addr = args.required("addr")?;
    let export_path = args.get("export").map(str::to_string);
    let id = args.get("id");
    args.finish()?;
    let mut conn = Conn::connect_retry(addr, Duration::from_secs(5))?;
    let id = match id {
        Some(id) => id.to_string(),
        None => {
            let reply = conn.send("SLOW 1")?;
            let body = reply
                .strip_prefix("OK ")
                .ok_or_else(|| err(format!("SLOW failed: {reply}")))?;
            let slowest = Json::parse(body).map_err(|e| err(format!("bad SLOW reply: {e}")))?;
            slowest
                .as_array()
                .and_then(|records| records.first())
                .and_then(|record| record.get("id"))
                .and_then(|id| id.as_str())
                .map(str::to_string)
                .ok_or_else(|| err("no traces captured yet (lower --slow-ms or --trace-sample?)"))?
        }
    };
    let reply = conn.send(&format!("TRACE {id}"))?;
    let body = reply
        .strip_prefix("OK ")
        .ok_or_else(|| err(format!("TRACE {id} failed: {reply}")))?;
    let trace = Json::parse(body).map_err(|e| err(format!("bad trace JSON: {e}")))?;
    match export_path {
        Some(path) => {
            let chrome = chrome_from_trace_json(&trace);
            std::fs::write(&path, chrome.render_pretty())
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "trace {id} exported to {path}");
        }
        None => {
            let _ = writeln!(out, "{}", trace.render_pretty());
        }
    }
    Ok(())
}

/// The multi-threaded smoke client: replays a scripted query workload
/// from N threads while issuing live `RELOAD` swaps, asserting every
/// reply is bit-identical to a direct run against the snapshot.
pub(crate) fn cmd_serve_smoke(argv: &[String], out: &mut String) -> CliResult<()> {
    let args = Args::parse("serve-smoke", argv)?;
    let addr = args.required("addr")?.to_string();
    let path = args.required("index")?.to_string();
    let threads: usize = args.parsed("threads", 4)?;
    let queries: usize = args.parsed("queries", 200)?;
    let reloads: usize = args.parsed("reloads", 2)?;
    args.finish()?;
    if threads == 0 || queries == 0 {
        return Err(err("serve-smoke needs --threads >= 1 and --queries >= 1"));
    }
    let info = persist::inspect(&path).map_err(|e| err(format!("{path}: {e}")))?;
    let run = (addr.as_str(), path.as_str(), threads, queries, reloads);
    match (info.item.as_str(), info.metric.as_str()) {
        ("utf8-string", "edit") => smoke_typed::<String, Levenshtein>(run, out),
        ("f64-vector", "l2") => smoke_typed::<Vec<f64>, Euclidean>(run, out),
        ("f64-vector", "l1") => smoke_typed::<Vec<f64>, Manhattan>(run, out),
        ("f64-vector", "linf") => smoke_typed::<Vec<f64>, Chebyshev>(run, out),
        ("u8-vector", "l2") => smoke_typed::<Vec<u8>, Euclidean>(run, out),
        ("u8-vector", "l1") => smoke_typed::<Vec<u8>, Manhattan>(run, out),
        (item, metric) => Err(err(format!(
            "{path}: snapshot combination {item}/{metric} is not supported by this CLI"
        ))),
    }
}

fn smoke_typed<T: WireItem, M: ServeMetric<T>>(
    (addr, path, threads, queries, reloads): (&str, &str, usize, usize, usize),
    out: &mut String,
) -> CliResult<()> {
    // The same loader the server runs.
    let loaded = load_index_typed::<T, M>(path)?;
    let index = loaded.index;
    let items: Vec<T> = (0..loaded.items as usize)
        .filter_map(|id| index.item(id))
        .collect();
    if items.is_empty() {
        return Err(err(format!("{path}: snapshot holds no items")));
    }
    // Script the workload from the snapshot's own items and compute every
    // expected reply through the exact code path the server uses, so a
    // correct server matches byte-for-byte — across reload swaps too,
    // since a reload of the same snapshot loads the same tree.
    let mut script: Vec<(String, String)> = Vec::with_capacity(queries);
    for i in 0..queries {
        let item = &items[i % items.len()];
        let (command, cmd) = match i % 4 {
            0 | 1 => (format!("KNN 5 {}", item.format_wire()), Query::Knn(5)),
            2 => {
                // A radius that yields a small, non-empty answer: the
                // distance to the item's 4th-nearest neighbor.
                let (nn, _) = index.execute(Query::Knn(4), item);
                let radius = nn.last().map(|n| n.distance).unwrap_or(0.0);
                (
                    format!("RANGE {radius} {}", item.format_wire()),
                    Query::Range(radius),
                )
            }
            _ => (format!("KFN 3 {}", item.format_wire()), Query::Kfn(3)),
        };
        let expected = format_neighbors(&index.execute(cmd, item).0);
        script.push((command, expected));
    }

    let script = Arc::new(script);
    let failures = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let first_failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.to_string();
            let script = Arc::clone(&script);
            let failures = Arc::clone(&failures);
            let completed = Arc::clone(&completed);
            let first_failure = Arc::clone(&first_failure);
            std::thread::spawn(move || {
                let mut conn = match Conn::connect_retry(&addr, Duration::from_secs(10)) {
                    Ok(conn) => conn,
                    Err(e) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        note_failure(&first_failure, format!("thread {t}: {e}"));
                        return;
                    }
                };
                let mut i = t;
                while i < script.len() {
                    let (command, expected) = &script[i];
                    match conn.send(command) {
                        Ok(reply) if reply == *expected => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(reply) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            note_failure(
                                &first_failure,
                                format!(
                                    "thread {t}: `{command}` answered `{reply}`, expected `{expected}`"
                                ),
                            );
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            note_failure(&first_failure, format!("thread {t}: `{command}`: {e}"));
                        }
                    }
                    i += threads;
                }
            })
        })
        .collect();

    // Live swaps from an admin connection while the query threads run:
    // each reload waits for a fraction of the workload to complete first,
    // so the swap is guaranteed to land among in-flight queries.
    let mut admin = Conn::connect_retry(addr, Duration::from_secs(10))?;
    let mut swaps_ok = 0usize;
    for i in 0..reloads {
        let target = ((i + 1) * queries / (reloads + 1)) as u64;
        let wait_start = Instant::now();
        while completed.load(Ordering::Relaxed) + failures.load(Ordering::Relaxed) < target
            && wait_start.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = admin.send(&format!("RELOAD {path}"))?;
        if reply.starts_with("OK") {
            swaps_ok += 1;
        } else {
            failures.fetch_add(1, Ordering::Relaxed);
            note_failure(&first_failure, format!("RELOAD failed: {reply}"));
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    let elapsed = start.elapsed();
    let completed = completed.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    if failures > 0 {
        let detail = first_failure
            .lock()
            .ok()
            .and_then(|g| g.clone())
            .unwrap_or_else(|| "unknown failure".to_string());
        return Err(err(format!(
            "serve-smoke: {failures} failures out of {queries} queries (first: {detail})"
        )));
    }
    let qps = completed as f64 / elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "PASS queries={completed} threads={threads} reloads={swaps_ok} qps={qps:.0}"
    );
    Ok(())
}

fn note_failure(slot: &Mutex<Option<String>>, message: String) {
    if let Ok(mut guard) = slot.lock() {
        guard.get_or_insert(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(argv: &[&str]) -> CliResult<ServeOptions> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = Args::parse("serve", &argv)?;
        ServeOptions::from_args(&args)
    }

    #[test]
    fn slow_ms_rejects_nan_infinities_and_negatives() {
        // A NaN slow threshold fails every `>=` comparison and would
        // silently disable slow-query capture; the parser refuses it.
        for bad in ["NaN", "nan", "inf", "-inf", "-1", "-0.5"] {
            let e = match opts(&["--slow-ms", bad]) {
                Err(e) => e,
                Ok(_) => panic!("--slow-ms {bad} should be rejected"),
            };
            assert!(e.0.contains("--slow-ms"), "{bad}: {e}");
        }
    }

    #[test]
    fn request_lines_are_read_up_to_the_cap() {
        let read_all = |input: &[u8], cap: usize| {
            let mut reader = std::io::Cursor::new(input.to_vec());
            let (mut line, mut skipping, mut seen) = (Vec::new(), false, Vec::new());
            loop {
                match read_request_line(&mut reader, &mut line, &mut skipping, cap).unwrap() {
                    LineRead::Line => seen.push(String::from_utf8(line.clone()).unwrap()),
                    LineRead::TooLong => seen.push("<too long>".to_string()),
                    LineRead::Eof => return seen,
                }
                line.clear();
            }
        };
        assert_eq!(read_all(b"abc\nabcd\nab", 3), ["abc", "<too long>", "ab"]);
        assert_eq!(read_all(b"abcdef", 3), ["<too long>"]);
        assert_eq!(read_all(b"PING\n", usize::MAX), ["PING"]);
    }

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct WriteCalls(Vec<Vec<u8>>);

    impl IoWrite for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write_of_its_line() {
        let opts = opts(&[]).unwrap();
        let registry = MetricsRegistry::new();
        let items = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]];
        let engine = build_dynamic(items, Euclidean, &registry, 0, Threads::Auto).unwrap();
        let tracer = Tracer::new(&opts).unwrap();
        let addr = "127.0.0.1:0".parse().unwrap();
        let shared = Shared::new(engine, registry, "l2".to_string(), tracer, addr);

        let mut input = b"PING\nKNN 2 0,0\nFROB 1\n\xff\xfe\n".to_vec();
        input.resize(input.len() + MAX_LINE_BYTES + 1, b'x');
        input.extend_from_slice(b"\nRANGE 5 6,8\n");
        let mut writes = WriteCalls::default();
        serve_lines(&mut std::io::Cursor::new(input), &mut writes, &shared);

        let replies = [
            "OK pong\n".to_string(),
            "OK 2 0:0 1:5\n".to_string(),
            "ERR unknown command `FROB`\n".to_string(),
            "ERR request line is not valid UTF-8\n".to_string(),
            format!("ERR request line longer than {MAX_LINE_BYTES} bytes\n"),
            "OK 2 2:0 1:5\n".to_string(),
        ];
        let writes: Vec<String> = writes
            .0
            .into_iter()
            .map(|w| String::from_utf8(w).unwrap())
            .collect();
        assert_eq!(writes, replies);
        for w in &writes {
            assert_eq!(w.matches('\n').count(), 1, "{w:?}");
        }
        assert_eq!(shared.g_long_lines.get(), 1);
    }

    #[test]
    fn a_client_command_is_one_write_of_its_line() {
        let mut writes = WriteCalls::default();
        write_line(&mut writes, "KNN 3 1,2,3".to_string()).unwrap();
        write_line(&mut writes, String::new()).unwrap();
        assert_eq!(writes.0, [b"KNN 3 1,2,3\n".to_vec(), b"\n".to_vec()]);
    }

    #[test]
    fn only_coordinates_that_round_trip_through_a_byte_narrow() {
        assert_eq!(narrow(&[0.0, 1.0, 255.0]), Some(vec![0, 1, 255]));
        assert_eq!(narrow(&[]), Some(vec![]));
        for x in [-0.0, 0.5, -1.0, 256.0, 1e300, f64::NAN, f64::INFINITY] {
            assert_eq!(narrow(&[7.0, x]), None, "{x}");
        }
        assert_eq!(
            Vec::<u8>::parse_wire("3,0.5"),
            Err("query coordinates must be integers from 0 to 255".to_string())
        );
        assert_eq!(
            Vec::<u8>::parse_wire("3,255").unwrap().format_wire(),
            "3,255"
        );
    }

    #[test]
    fn slow_ms_accepts_zero_and_fractional_thresholds() {
        assert_eq!(opts(&[]).unwrap().slow_ms, 100.0);
        assert_eq!(opts(&["--slow-ms", "0"]).unwrap().slow_ms, 0.0);
        assert_eq!(opts(&["--slow-ms", "0.25"]).unwrap().slow_ms, 0.25);
    }
}
