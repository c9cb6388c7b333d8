//! `vbench`: a closed-loop TCP benchmark of `vantage serve`.
//!
//! ```text
//! vbench [run|trace|noise] [--workload NAME] [--seed S] [--seconds N]
//!        [--trace 0|1] [--quick] [--runs N] [--out FILE]
//!        [--vantage PATH] [--work DIR]
//! ```
//!
//! `run` (the default) drives each workload's server over TCP from two
//! connections and prints the end-to-end metrics; `trace` (also selected
//! by `--trace 1`) replays a subset on one connection against an
//! untraced and a fully traced server and times the layers in-process;
//! `noise` repeats `run` over consecutive seeds and reports the spread
//! of every metric. With a single `--workload`, the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md.

mod e2e;
mod layers;
mod load;
mod report;
mod server;
mod stats;
mod workload;

use std::path::PathBuf;

use report::Report;

/// Parsed command line.
#[derive(Clone)]
pub struct Opts {
    pub mode: Mode,
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub vantage: PathBuf,
    pub work: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    Trace,
    Noise,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut mode = None;
    let mut trace = false;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut quick = false;
    let mut runs = 5usize;
    let mut out = None;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut vantage = PathBuf::from(target).join("release").join("vantage");
    let mut work = PathBuf::from(".vbench-work");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "run" if mode.is_none() => mode = Some(Mode::Run),
            "trace" if mode.is_none() => mode = Some(Mode::Trace),
            "noise" if mode.is_none() => mode = Some(Mode::Noise),
            "--workload" => workload = Some(value(arg)?),
            "--seed" => seed = number(arg, &value(arg)?)?,
            "--seconds" => seconds = number(arg, &value(arg)?)?,
            "--trace" => trace = value(arg)? != "0",
            "--runs" => runs = number(arg, &value(arg)?)?,
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value(arg)?)),
            "--vantage" => vantage = PathBuf::from(value(arg)?),
            "--work" => work = PathBuf::from(value(arg)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let workloads = match workload {
        None => workload::NAMES.to_vec(),
        Some(name) => vec![*workload::NAMES
            .iter()
            .find(|n| **n == name)
            .ok_or_else(|| format!("unknown workload `{name}` ({})", workload::NAMES.join("|")))?],
    };
    let mode = match mode {
        Some(m) => m,
        None if trace => Mode::Trace,
        None => Mode::Run,
    };
    if quick {
        seconds /= 20.0;
    }
    Ok(Opts {
        mode,
        workloads,
        seed,
        seconds,
        quick,
        runs: runs.max(1),
        out,
        vantage,
        work,
    })
}

fn number<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{name}: `{text}` is not a valid number"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv).and_then(|opts| run(&opts)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("vbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the selected mode; `Ok(false)` when any reply was wrong.
fn run(opts: &Opts) -> Result<bool, String> {
    if !opts.vantage.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release --locked -p vantage-cli`",
            opts.vantage.display()
        ));
    }
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
    let mut report = Report::new(opts);
    let result = match opts.mode {
        Mode::Run => e2e::run_all(opts, &mut report),
        Mode::Trace => layers::trace_all(opts, &mut report),
        Mode::Noise => e2e::noise(opts, &mut report),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    result?;
    report.finish(opts)
}
