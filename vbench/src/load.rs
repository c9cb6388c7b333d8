//! The closed-loop load generator: one thread per connection, each
//! sending its next request only after the previous reply arrived.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::server::{process_cpu_ns, thread_cpu_ns, Conn};
use crate::workload::{check_shape, clip, Cmd, Op, Workload};

/// Everything one connection observed.
#[derive(Default)]
pub struct ConnOutcome {
    /// Query latencies after the warm-up, nanoseconds, in send order.
    pub read_ns: Vec<u64>,
    /// `INSERT`/`DELETE` latencies after the warm-up, nanoseconds.
    pub write_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Seconds from the window's start to the last timed reply.
    pub window_s: f64,
    /// CPU nanoseconds the client spent on this connection in the window
    /// ([`paired`] only).
    pub client_cpu_ns: u64,
    /// CPU nanoseconds the server used in the window ([`paired`] only).
    pub server_cpu_ns: u64,
    /// `PING` round trips in the window, nanoseconds ([`paired`] only).
    pub ping_ns: Vec<u64>,
    /// `(stable id, insert pool index)` of every acknowledged insert.
    pub inserted: Vec<(usize, usize)>,
    /// Stable ids this connection deleted.
    pub deleted: Vec<usize>,
}

impl ConnOutcome {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(message);
    }
}

/// The merged result of all connections.
pub struct LoadResult {
    pub conns: Vec<ConnOutcome>,
}

impl LoadResult {
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.conns.iter().find_map(|c| c.first_failure.as_deref())
    }

    pub fn sorted_reads(&self) -> Vec<u64> {
        sorted(self.conns.iter().flat_map(|c| c.read_ns.iter().copied()))
    }

    pub fn sorted_writes(&self) -> Vec<u64> {
        sorted(self.conns.iter().flat_map(|c| c.write_ns.iter().copied()))
    }

    /// Timed requests per second across all connections.
    pub fn qps(&self) -> f64 {
        let done: usize = self
            .conns
            .iter()
            .map(|c| c.read_ns.len() + c.write_ns.len())
            .sum();
        let window = self.conns.iter().map(|c| c.window_s).fold(0.0, f64::max);
        done as f64 / window.max(1e-9)
    }
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

/// What ends a connection's timed window.
#[derive(Clone, Copy)]
pub enum Window {
    /// A fixed time.
    Seconds(f64),
    /// A fixed number of operations.
    Ops(usize),
}

/// Drives `w` from `conns` connections: `warmup` untimed operations per
/// connection, then a timed `window`.
pub fn drive(
    w: &Workload,
    addr: SocketAddr,
    conns: usize,
    warmup: usize,
    window: Window,
) -> LoadResult {
    let barrier = Barrier::new(conns);
    let outcomes = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || run_conn(w, addr, c, conns, warmup, window, barrier))
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    LoadResult { conns: outcomes }
}

fn run_conn(
    w: &Workload,
    addr: SocketAddr,
    c: usize,
    conns: usize,
    warmup: usize,
    window: Window,
    barrier: &Barrier,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut s = ConnState::open(addr);
    for j in 0..warmup {
        s.step(w, c, conns, j, &mut out);
    }
    barrier.wait();
    let start = Instant::now();
    let (deadline, end) = match window {
        Window::Seconds(secs) => (Some(start + Duration::from_secs_f64(secs)), usize::MAX),
        Window::Ops(ops) => (None, warmup + ops),
    };
    let mut last = start;
    let mut j = warmup;
    while deadline.is_none_or(|d| last < d) && j < end && s.conn.is_ok() {
        s.timed_step(w, c, conns, j, &mut out);
        j += 1;
        last = Instant::now();
    }
    out.window_s = (last - start).as_secs_f64();
    out
}

/// Replays the one-connection script on two servers from one thread,
/// alternating which server gets each operation first, so both see the
/// same machine conditions: `warmup` untimed operations, then `ops` timed
/// ones, each pair followed by `ping` (a `PING` line) on server `b`.
/// Measures the CPU time of this thread and of server `a`'s process.
pub fn paired(
    w: &Workload,
    a: SocketAddr,
    b: SocketAddr,
    a_pid: u32,
    warmup: usize,
    ops: usize,
    ping: &[u8],
) -> [ConnOutcome; 2] {
    let mut out = [ConnOutcome::default(), ConnOutcome::default()];
    let mut conns = [ConnState::open(a), ConnState::open(b)];
    for j in 0..warmup {
        for (s, o) in conns.iter_mut().zip(out.iter_mut()) {
            s.step(w, 0, 1, j, o);
        }
    }
    let server_cpu = process_cpu_ns(a_pid);
    let client_cpu = thread_cpu_ns();
    let start = Instant::now();
    for j in warmup..warmup + ops {
        let order = if j % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            conns[i].timed_step(w, 0, 1, j, &mut out[i]);
        }
        conns[1].ping(ping, &mut out[1]);
    }
    let window_s = start.elapsed().as_secs_f64();
    // Both servers shared the thread: charge each half of its time.
    let client_ns = (thread_cpu_ns() - client_cpu) / 2;
    for o in &mut out {
        o.window_s = window_s;
        o.client_cpu_ns = client_ns;
    }
    out[0].server_cpu_ns = process_cpu_ns(a_pid).saturating_sub(server_cpu);
    out
}

/// A connection and the ingest bookkeeping that goes with it.
struct ConnState {
    conn: Result<Conn, String>,
    addr: SocketAddr,
    /// This connection's inserts not yet deleted, oldest first.
    pending: VecDeque<usize>,
    delete_line: Vec<u8>,
}

impl ConnState {
    fn open(addr: SocketAddr) -> ConnState {
        ConnState {
            conn: Conn::open(addr),
            addr,
            pending: VecDeque::new(),
            delete_line: Vec::new(),
        }
    }

    /// [`step`](Self::step), recording the latency of a reply.
    fn timed_step(
        &mut self,
        w: &Workload,
        c: usize,
        conns: usize,
        j: usize,
        out: &mut ConnOutcome,
    ) {
        match self.step(w, c, conns, j, out) {
            Some((ns, true)) => out.read_ns.push(ns),
            Some((ns, false)) => out.write_ns.push(ns),
            None => {}
        }
    }

    /// Sends a `PING` line and records its round trip.
    fn ping(&mut self, line: &[u8], out: &mut ConnOutcome) {
        let Ok(conn) = &mut self.conn else { return };
        out.attempted += 1;
        let t0 = Instant::now();
        match conn.send(line) {
            Ok("OK pong") => out.ping_ns.push(t0.elapsed().as_nanos() as u64),
            Ok(reply) => out.fail(format!("PING answered `{}`", clip(reply))),
            Err(e) => out.fail(e),
        }
    }

    /// Sends operation `j` and checks its reply. Returns its latency and
    /// whether it was a query, or `None` when no reply arrived.
    fn step(
        &mut self,
        w: &Workload,
        c: usize,
        conns: usize,
        j: usize,
        out: &mut ConnOutcome,
    ) -> Option<(u64, bool)> {
        let op = w.op(c, conns, j);
        let line: &[u8] = match op {
            Op::Query(i) => &w.requests[i].line,
            Op::Insert(i) => &w.inserts[c][i].line,
            Op::Delete => {
                let id = self.pending.front().copied()?;
                self.delete_line.clear();
                self.delete_line
                    .extend_from_slice(format!("DELETE {id}\n").as_bytes());
                &self.delete_line
            }
        };
        out.attempted += 1;
        let live = match &mut self.conn {
            Ok(live) => live,
            Err(e) => {
                out.fail(format!("connection lost: {e}"));
                return None;
            }
        };
        let t0 = Instant::now();
        let reply = match live.send(line) {
            Ok(reply) => reply,
            Err(e) => {
                // The stream may be out of step after an error: reconnect.
                out.fail(e);
                self.conn = Conn::open(self.addr);
                return None;
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let verdict = match op {
            Op::Query(i) => {
                let r = &w.requests[i];
                match (&r.expected, r.cmd) {
                    (Some(expected), _) if reply == expected => Ok(()),
                    (Some(expected), _) => Err(format!(
                        "`{}` answered `{}`, expected `{}`",
                        clip(&String::from_utf8_lossy(&r.line)),
                        clip(reply),
                        clip(expected)
                    )),
                    (None, Cmd::Knn(k)) => check_shape(reply, k),
                    (None, Cmd::Range(_)) => Err("range replies need an oracle".to_string()),
                }
            }
            Op::Insert(i) => match parse_insert(reply) {
                Some(id) => {
                    self.pending.push_back(id);
                    out.inserted.push((id, i));
                    Ok(())
                }
                None => Err(format!("INSERT answered `{}`", clip(reply))),
            },
            Op::Delete => {
                let id = self.pending.pop_front().expect("checked above");
                if reply.starts_with("OK removed=true ") {
                    out.deleted.push(id);
                    Ok(())
                } else {
                    Err(format!("DELETE {id} answered `{}`", clip(reply)))
                }
            }
        };
        if let Err(e) = verdict {
            out.fail(e);
        }
        Some((ns, matches!(op, Op::Query(_))))
    }
}

/// The stable id in an `OK id=N generation=G` reply.
fn parse_insert(reply: &str) -> Option<usize> {
    reply
        .strip_prefix("OK id=")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}
