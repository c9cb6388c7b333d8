//! The program under test: `vantage build` and `vantage serve` as child
//! processes, a line-protocol connection, and `/proc` readings.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::DATA_SEED;

/// A reply that takes longer than this counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a server gets to bind and answer its first `PING`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `vantage build` and returns its wall time in seconds.
pub fn build_snapshot(
    vantage: &Path,
    csv: &Path,
    metric: &str,
    save: &Path,
) -> Result<f64, String> {
    let start = Instant::now();
    let out = Command::new(vantage)
        .arg("build")
        .arg("--data")
        .arg(csv)
        .args(["--metric", metric, "--structure", "mvp", "--seed"])
        .arg(DATA_SEED.to_string())
        .arg("--save")
        .arg(save)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", vantage.display()))?;
    let secs = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "vantage build failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(secs)
}

/// What a server serves: a snapshot, or a CSV dataset in dynamic mode.
pub enum Source<'a> {
    Snapshot(&'a Path),
    Data { csv: &'a Path, metric: &'a str },
}

/// A running `vantage serve`. Dropping it kills and reaps the process;
/// [`Server::shutdown`] stops it politely.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to first `OK pong`, in seconds.
    pub ready_s: f64,
}

impl Server {
    /// Spawns a server on an ephemeral port and waits for its first pong.
    /// `trace_sample` 0 turns request tracing off; `--slow-ms 0` turns
    /// slow-query capture off.
    pub fn spawn(
        vantage: &Path,
        source: Source<'_>,
        trace_sample: u64,
        trace_ring: usize,
        addr_file: &Path,
    ) -> Result<Server, String> {
        let _ = std::fs::remove_file(addr_file);
        let mut cmd = Command::new(vantage);
        cmd.arg("serve");
        match source {
            Source::Snapshot(path) => {
                cmd.arg("--index").arg(path);
            }
            Source::Data { csv, metric } => {
                cmd.arg("--data").arg(csv).args(["--metric", metric]);
            }
        }
        cmd.args(["--addr", "127.0.0.1:0", "--slow-ms", "0"])
            .arg("--addr-file")
            .arg(addr_file)
            .arg("--seed")
            .arg(DATA_SEED.to_string())
            .arg("--trace-sample")
            .arg(trace_sample.to_string())
            .arg("--trace-ring")
            .arg(trace_ring.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let start = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", vantage.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        loop {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("vantage serve exited early: {status}"));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("vantage serve did not become ready".to_string());
            }
            let addr = std::fs::read_to_string(addr_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                server.addr = addr;
                if let Ok(mut conn) = Conn::open(addr) {
                    if conn.call("PING").ok().as_deref() == Some("OK pong") {
                        server.ready_s = start.elapsed().as_secs_f64();
                        return Ok(server);
                    }
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Sends `SHUTDOWN` and waits for the process to exit; kills it if it
    /// does not within a few seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::open(self.addr) {
            let _ = conn.call("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("vantage serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("vantage serve did not shut down".to_string())
        // Drop kills and reaps it.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Nanoseconds of CPU a task has run, from a `schedstat` file.
fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU nanoseconds used by the live threads of process `pid`.
pub fn process_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum()
}

/// CPU nanoseconds used by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(Path::new("/proc/thread-self/schedstat"))
}

/// One line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            reply: String::new(),
        })
    }

    /// Writes `line` (which must end in `\n`) and reads one reply line,
    /// returned without its newline.
    pub fn send(&mut self, line: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("send failed: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end_matches('\n')),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// Sends one command (without newline) and returns the owned reply.
    pub fn call(&mut self, command: &str) -> Result<String, String> {
        let mut line = command.as_bytes().to_vec();
        line.push(b'\n');
        self.send(&line).map(str::to_string)
    }
}
