//! The five workloads: seeded data, the request script each connection
//! replays, and the `LinearScan` oracle every reply is checked against.

use std::fmt::Write as _;

use vantage_core::prelude::{
    BoundedMetric, Euclidean, LinearScan, Manhattan, MetricIndex, Neighbor,
};
use vantage_datasets::{clustered_vectors, synthetic_mri_images, ClusteredConfig, MriConfig};

/// Workload names, in the order `run` and `trace` visit them.
pub const NAMES: [&str; 5] = [
    "clustered-knn",
    "clustered-lookup",
    "uniform-knn",
    "mri-l1-range",
    "clustered-ingest",
];

/// Connections the load generator opens (one thread each).
pub const CONNECTIONS: usize = 2;

/// Seed of every dataset, of every tree built over one (`vantage build
/// --seed`, `serve --seed`) and so of the server's trace ids. `--seed`
/// draws the queries, radii and inserts. The tree is fixed because its
/// vantage-point draws alone move the clustered kNN cost by up to 20 %
/// between seeds, more than a regression bound.
pub const DATA_SEED: u64 = 1;

/// Block of ingest operations per connection: 8 `KNN 10`, 3 `INSERT`,
/// 1 `DELETE` of this connection's oldest surviving insert.
const INGEST_BLOCK: [Slot; 12] = {
    use Slot::{Delete as D, Insert as I, Query as Q};
    [Q, Q, I, Q, Q, I, Q, Q, I, Q, Q, D]
};

#[derive(Clone, Copy)]
enum Slot {
    Query,
    Insert,
    Delete,
}

/// The distance a workload is served under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    L2,
    L1,
}

impl MetricKind {
    /// The `--metric` flag value.
    pub fn flag(self) -> &'static str {
        match self {
            MetricKind::L2 => "l2",
            MetricKind::L1 => "l1",
        }
    }
}

/// A query verb and its argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmd {
    Knn(usize),
    Range(f64),
}

impl Cmd {
    /// Answers the command exactly as `vantage serve` orders its reply.
    pub fn answer<I: MetricIndex<Vec<f64>> + ?Sized>(
        self,
        index: &I,
        q: &Vec<f64>,
    ) -> Vec<Neighbor> {
        match self {
            Cmd::Knn(k) => index.knn(q, k),
            Cmd::Range(r) => {
                let mut v = index.range(q, r);
                v.sort_unstable();
                v
            }
        }
    }
}

/// One distinct query request: its wire line and the reply the server
/// must send back byte for byte (`None` where the live set changes under
/// the request, so only the reply's shape can be checked).
pub struct Request {
    pub line: Vec<u8>,
    pub query: usize,
    pub cmd: Cmd,
    pub expected: Option<String>,
}

/// A pre-rendered `INSERT` and the item it adds.
pub struct Insert {
    pub line: Vec<u8>,
    pub item: Vec<f64>,
}

/// One step of a connection's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `requests[i]`.
    Query(usize),
    /// `inserts[conn][i]`.
    Insert(usize),
    /// `DELETE` of the connection's oldest insert not yet deleted.
    Delete,
}

pub struct Workload {
    pub metric: MetricKind,
    /// The served dataset (the initial live set in dynamic mode).
    pub items: Vec<Vec<f64>>,
    pub queries: Vec<Vec<f64>>,
    /// Distinct query requests in script order.
    pub requests: Vec<Request>,
    /// Per-connection `INSERT` pools (dynamic mode only).
    pub inserts: Vec<Vec<Insert>>,
    /// `serve --data` instead of a snapshot.
    pub dynamic: bool,
    /// The `RANGE` radius, where the harness derived one.
    pub radius: Option<f64>,
}

/// A splitmix64 stream: the harness's own seeded choices (query members,
/// perturbations), independent of the dataset generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct indices of `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let count = count.min(n);
        for i in 0..count {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }
}

/// Renders a vector the way `vantage` reads and writes CSV and query text:
/// round-trip `f64` display, comma separated.
pub fn wire(v: &[f64]) -> String {
    let mut s = String::with_capacity(v.len() * 20);
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s
}

/// Renders neighbors as `vantage serve` replies: `OK n id:dist …` with
/// round-trip `f64` distances. `ids` maps result positions to the ids
/// the server reports (dynamic mode's stable ids).
pub fn render_reply(neighbors: &[Neighbor], ids: Option<&[usize]>) -> String {
    let mut s = format!("OK {}", neighbors.len());
    for n in neighbors {
        let id = ids.map_or(n.id, |map| map[n.id]);
        let _ = write!(s, " {id}:{}", n.distance);
    }
    s
}

/// Checks the shape of a query reply whose exact content depends on
/// concurrent writes: `OK k` followed by `k` `id:dist` pairs in
/// ascending distance.
pub fn check_shape(reply: &str, k: usize) -> Result<(), String> {
    let mut parts = reply.split(' ');
    if parts.next() != Some("OK") {
        return Err(format!("not OK: `{}`", clip(reply)));
    }
    let n: usize = parts
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no count: `{}`", clip(reply)))?;
    if n != k {
        return Err(format!("{n} results, expected {k}: `{}`", clip(reply)));
    }
    let mut last = f64::NEG_INFINITY;
    let mut seen = 0;
    for pair in parts {
        let (id, dist) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad pair `{pair}`"))?;
        let ok_id = id.parse::<usize>().is_ok();
        let dist: f64 = dist.parse().map_err(|_| format!("bad distance `{pair}`"))?;
        if !ok_id || dist < last {
            return Err(format!("unordered or malformed reply: `{}`", clip(reply)));
        }
        last = dist;
        seen += 1;
    }
    if seen != n {
        return Err(format!("count {n} but {seen} pairs"));
    }
    Ok(())
}

/// The first 160 bytes of a reply, for failure messages.
pub fn clip(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// The LinearScan answers of `cmds[i]` for query `qs[i]`, computed on
/// every core.
fn oracle<M>(items: &[Vec<f64>], metric: M, qs: &[&Vec<f64>], cmds: &[Cmd]) -> Vec<Vec<Neighbor>>
where
    M: BoundedMetric<Vec<f64>> + Clone + Send + Sync,
{
    let scan = LinearScan::new(items.to_vec(), metric);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = qs.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = qs
            .chunks(chunk)
            .zip(cmds.chunks(chunk))
            .map(|(qs, cmds)| {
                let scan = &scan;
                s.spawn(move || {
                    qs.iter()
                        .zip(cmds)
                        .map(|(q, c)| c.answer(scan, q))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// Dispatches to the generic oracle for a metric kind.
pub fn oracle_for(
    metric: MetricKind,
    items: &[Vec<f64>],
    qs: &[&Vec<f64>],
    cmds: &[Cmd],
) -> Vec<Vec<Neighbor>> {
    match metric {
        MetricKind::L2 => oracle(items, Euclidean, qs, cmds),
        MetricKind::L1 => oracle(items, Manhattan, qs, cmds),
    }
}

/// Scales a request count for `--quick` (1/20, at least 20).
fn scaled(n: usize, quick: bool) -> usize {
    if quick {
        (n / 20).max(20)
    } else {
        n
    }
}

impl Workload {
    /// Generates workload `name`: its dataset from [`DATA_SEED`], its
    /// requests from `seed`. `inserts_per_conn` sizes the dynamic
    /// workload's `INSERT` pools.
    pub fn generate(
        name: &str,
        seed: u64,
        quick: bool,
        inserts_per_conn: usize,
    ) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let e = |e: vantage_core::VantageError| e.to_string();
        let w = match name {
            "clustered-knn" | "clustered-lookup" => {
                let items = clustered_vectors(&ClusteredConfig::paper(DATA_SEED)).map_err(e)?;
                let picks = rng.distinct(items.len(), scaled(2000, quick));
                let queries: Vec<Vec<f64>> = picks.iter().map(|&i| items[i].clone()).collect();
                let cmds: Vec<(usize, Cmd)> = if name == "clustered-knn" {
                    (0..queries.len()).map(|q| (q, Cmd::Knn(10))).collect()
                } else {
                    (0..queries.len())
                        .flat_map(|q| [(q, Cmd::Knn(1)), (q, Cmd::Range(0.2))])
                        .collect()
                };
                Workload::static_requests(MetricKind::L2, items, queries, cmds)
            }
            "uniform-knn" => {
                let items = vantage_datasets::uniform_vectors(50_000, 20, DATA_SEED);
                let queries = vantage_datasets::queries::uniform_queries(
                    scaled(1000, quick),
                    20,
                    rng.next_u64(),
                );
                let cmds = (0..queries.len()).map(|q| (q, Cmd::Knn(10))).collect();
                Workload::static_requests(MetricKind::L2, items, queries, cmds)
            }
            "mri-l1-range" => {
                let config = MriConfig {
                    width: 64,
                    height: 64,
                    ..MriConfig::paper(DATA_SEED)
                };
                let items: Vec<Vec<f64>> = synthetic_mri_images(&config)
                    .map_err(e)?
                    .iter()
                    .map(|img| img.pixels().iter().map(|&p| f64::from(p)).collect())
                    .collect();
                let picks = rng.distinct(items.len(), scaled(1000, quick));
                let queries: Vec<Vec<f64>> = picks.iter().map(|&i| items[i].clone()).collect();
                // The radius: median distance to the 6th nearest neighbour.
                let qs: Vec<&Vec<f64>> = queries.iter().collect();
                let sixth = oracle_for(MetricKind::L1, &items, &qs, &vec![Cmd::Knn(6); qs.len()]);
                let mut d: Vec<f64> = sixth
                    .iter()
                    .filter_map(|nn| nn.last().map(|n| n.distance))
                    .collect();
                d.sort_by(f64::total_cmp);
                let radius = d[(d.len() - 1) / 2];
                let cmds = (0..queries.len())
                    .map(|q| (q, Cmd::Range(radius)))
                    .collect();
                let mut w = Workload::static_requests(MetricKind::L1, items, queries, cmds);
                w.radius = Some(radius);
                w
            }
            "clustered-ingest" => {
                let config = ClusteredConfig {
                    clusters: 10,
                    cluster_size: 1000,
                    ..ClusteredConfig::paper(DATA_SEED)
                };
                let items = clustered_vectors(&config).map_err(e)?;
                let picks = rng.distinct(items.len(), scaled(1000, quick));
                let queries: Vec<Vec<f64>> = picks.iter().map(|&i| items[i].clone()).collect();
                let requests = queries
                    .iter()
                    .enumerate()
                    .map(|(q, v)| Request {
                        line: format!("KNN 10 {}\n", wire(v)).into_bytes(),
                        query: q,
                        cmd: Cmd::Knn(10),
                        expected: None,
                    })
                    .collect();
                let inserts = (0..CONNECTIONS)
                    .map(|_| {
                        (0..inserts_per_conn)
                            .map(|_| {
                                let base = &items[rng.below(items.len())];
                                let item: Vec<f64> = base
                                    .iter()
                                    .map(|x| x + (rng.unit() * 2.0 - 1.0) * config.epsilon)
                                    .collect();
                                Insert {
                                    line: format!("INSERT {}\n", wire(&item)).into_bytes(),
                                    item,
                                }
                            })
                            .collect()
                    })
                    .collect();
                Workload {
                    metric: MetricKind::L2,
                    items,
                    queries,
                    requests,
                    inserts,
                    dynamic: true,
                    radius: None,
                }
            }
            other => return Err(format!("unknown workload `{other}`")),
        };
        Ok(w)
    }

    fn static_requests(
        metric: MetricKind,
        items: Vec<Vec<f64>>,
        queries: Vec<Vec<f64>>,
        cmds: Vec<(usize, Cmd)>,
    ) -> Workload {
        let qs: Vec<&Vec<f64>> = cmds.iter().map(|&(q, _)| &queries[q]).collect();
        let just_cmds: Vec<Cmd> = cmds.iter().map(|&(_, c)| c).collect();
        let answers = oracle_for(metric, &items, &qs, &just_cmds);
        let wires: Vec<String> = queries.iter().map(|q| wire(q)).collect();
        let requests = cmds
            .iter()
            .zip(answers)
            .map(|(&(q, cmd), answer)| {
                let line = match cmd {
                    Cmd::Knn(k) => format!("KNN {k} {}\n", wires[q]),
                    Cmd::Range(r) => format!("RANGE {r} {}\n", wires[q]),
                };
                Request {
                    line: line.into_bytes(),
                    query: q,
                    cmd,
                    expected: Some(render_reply(&answer, None)),
                }
            })
            .collect();
        Workload {
            metric,
            items,
            queries,
            requests,
            inserts: Vec::new(),
            dynamic: false,
            radius: None,
        }
    }

    /// The `j`-th operation of connection `conn` out of `conns`. Static
    /// workloads give each connection one contiguous share of the distinct
    /// requests and cycle through it; dynamic ones repeat the ingest block.
    pub fn op(&self, conn: usize, conns: usize, j: usize) -> Op {
        let n = self.requests.len();
        if !self.dynamic {
            let (lo, hi) = share(n, conn, conns);
            return Op::Query(lo + j % (hi - lo));
        }
        let block = j / INGEST_BLOCK.len();
        match INGEST_BLOCK[j % INGEST_BLOCK.len()] {
            Slot::Query => {
                let reads = block * 8 + (j % INGEST_BLOCK.len() + 1) * 2 / 3;
                Op::Query((conn * n / conns + reads) % n)
            }
            Slot::Insert => {
                let pool = self.inserts[conn].len();
                Op::Insert((block * 3 + j % INGEST_BLOCK.len() / 3) % pool)
            }
            Slot::Delete => Op::Delete,
        }
    }
}

/// The half-open range of `0..n` that connection `conn` of `conns` owns.
pub fn share(n: usize, conn: usize, conns: usize) -> (usize, usize) {
    (conn * n / conns, (conn + 1) * n / conns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_format_matches_serve_bytes() {
        let ns = [
            Neighbor::new(7, 0.0),
            Neighbor::new(3, 0.1 + 0.2),
            Neighbor::new(12, 1.5e-7),
            Neighbor::new(5, 123456789.125),
        ];
        assert_eq!(
            render_reply(&ns, None),
            "OK 4 7:0 3:0.30000000000000004 12:0.00000015 5:123456789.125"
        );
        assert_eq!(render_reply(&[Neighbor::new(1, -0.0)], None), "OK 1 1:-0");
        assert_eq!(render_reply(&[], None), "OK 0");
        assert_eq!(
            render_reply(&[Neighbor::new(1, 2.5)], Some(&[10, 42])),
            "OK 1 42:2.5"
        );
    }

    #[test]
    fn wire_round_trips_every_f64() {
        let v = vec![
            0.1 + 0.2,
            -0.0,
            1e-308,
            123.0,
            f64::MAX,
            0.15000000000000002,
        ];
        let text = wire(&v);
        let back: Vec<f64> = text.split(',').map(|x| x.parse().unwrap()).collect();
        assert_eq!(
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(wire(&[123.0, 0.5]), "123,0.5");
    }

    #[test]
    fn shape_check_accepts_sorted_replies_only() {
        assert!(check_shape("OK 2 4:0.5 9:0.75", 2).is_ok());
        assert!(check_shape("OK 2 4:0.75 9:0.5", 2).is_err());
        assert!(check_shape("OK 3 4:0.5 9:0.75", 3).is_err());
        assert!(check_shape("OK 2 4:0.5 9:0.75", 3).is_err());
        assert!(check_shape("ERR nope", 2).is_err());
    }

    #[test]
    fn same_seed_gives_identical_script_bytes() {
        for name in ["clustered-lookup", "clustered-ingest"] {
            let a = Workload::generate(name, 7, true, 50).unwrap();
            let b = Workload::generate(name, 7, true, 50).unwrap();
            let bytes = |w: &Workload| {
                let mut all: Vec<u8> = Vec::new();
                for r in &w.requests {
                    all.extend(&r.line);
                    all.extend(r.expected.as_deref().unwrap_or("").as_bytes());
                }
                for pool in &w.inserts {
                    for i in pool {
                        all.extend(&i.line);
                    }
                }
                all
            };
            assert_eq!(bytes(&a), bytes(&b), "{name}");
            let c = Workload::generate(name, 8, true, 50).unwrap();
            assert_ne!(bytes(&a), bytes(&c), "{name}");
        }
    }

    #[test]
    fn connections_cover_every_request_exactly_once() {
        let w = Workload::generate("clustered-lookup", 3, true, 0).unwrap();
        let n = w.requests.len();
        for conns in 1..=5 {
            let mut seen = vec![0u32; n];
            for c in 0..conns {
                let (lo, hi) = share(n, c, conns);
                for j in 0..hi - lo {
                    match w.op(c, conns, j) {
                        Op::Query(i) => seen[i] += 1,
                        other => panic!("static op {other:?}"),
                    }
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "conns={conns}");
        }
    }

    #[test]
    fn ingest_block_is_eight_reads_three_inserts_one_delete() {
        let w = Workload::generate("clustered-ingest", 3, true, 40).unwrap();
        let ops: Vec<Op> = (0..24).map(|j| w.op(1, 2, j)).collect();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Query(_))), 16);
        assert_eq!(count(|o| matches!(o, Op::Insert(_))), 6);
        assert_eq!(count(|o| matches!(o, Op::Delete)), 2);
        let inserts: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(inserts, vec![0, 1, 2, 3, 4, 5]);
        let reads: Vec<usize> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Query(i) => Some(*i),
                _ => None,
            })
            .collect();
        let n = w.requests.len();
        let first = n / 2;
        assert_eq!(reads, (0..16).map(|r| (first + r) % n).collect::<Vec<_>>());
    }
}
