//! Output: run metadata, one `workload metric value unit n=<samples>`
//! line per metric, and the final JSON line.

use std::fmt::Write as _;
use std::process::Command;

use crate::Opts;

pub struct Report {
    lines: Vec<String>,
    /// Metrics of the current workload, for the JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Starts a report and prints the run's metadata.
    pub fn new(opts: &Opts) -> Report {
        let mut r = Report {
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        r.line(format!(
            "# vbench nproc={nproc} cpu=\"{}\" rustc=\"{}\" git={} seed={} seconds={} connections={} quick={}",
            cpu_model(),
            rustc_version(),
            git_revision(),
            opts.seed,
            opts.seconds,
            crate::workload::CONNECTIONS,
            opts.quick,
        ));
        r
    }

    /// Prints and keeps one output line.
    pub fn line(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }

    /// Reports one metric of `workload`, also kept for the JSON line.
    pub fn metric(&mut self, workload: &str, name: &str, value: f64, unit: &'static str, n: usize) {
        self.extra(workload, name, value, unit, n);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Reports a number that is printed but is not a benchmark metric.
    pub fn extra(&mut self, workload: &str, name: &str, value: f64, unit: &str, n: usize) {
        self.line(format!("{workload} {name} {value} {unit} n={n}"));
    }

    /// Adds one workload's request counts.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Forgets the metrics kept for the JSON line (between workloads).
    pub fn clear_metrics(&mut self) {
        self.metrics.clear();
    }

    /// Prints the JSON line when exactly one workload ran, writes `--out`,
    /// and returns whether every reply was correct.
    pub fn finish(mut self, opts: &Opts) -> Result<bool, String> {
        let correct = self.failed == 0 && self.attempted > 0;
        if opts.workloads.len() == 1 {
            let mut json = format!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                self.attempted.max(1),
                self.failed
            );
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let value = if value.is_finite() { *value } else { 0.0 };
                let _ = write!(
                    json,
                    "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                );
            }
            json.push_str("}}");
            self.line(json);
        }
        if let Some(path) = &opts.out {
            let mut text = self.lines.join("\n");
            text.push('\n');
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(correct)
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without looking above it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|rev| rev.trim().to_string())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
