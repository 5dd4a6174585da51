//! The repo's benchmark: four workloads over real TCP through the epoll
//! door, the paper's Ω beside latency, and a layer ladder. See README.md.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 --out DIR   one run
//! benchmark suite [--seed N] [--seconds S] [--runs R] [--quick] --out DIR
//! benchmark compare A.json B.json
//! ```

mod compare;
mod drive;
mod expo;
mod gen;
mod json;
mod ladder;
mod metrics;
mod pacing;
mod procfs;
mod run;
mod server;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

/// `run_seconds` of BENCHMARK.json: five windows of three seconds.
pub const DEFAULT_SECONDS: u64 = 15;

/// `--name value` options and bare flags, in any order.
pub struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut out = Options { pairs: Vec::new(), flags: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if flags.contains(&name) {
                out.flags.push(name.to_string());
            } else {
                let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.pairs.push((name.to_string(), value.clone()));
            }
        }
        Ok(out)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    pub fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("--{name} takes a whole number")),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    pub fn out_dir(&self) -> Result<PathBuf, String> {
        self.get("out").map(PathBuf::from).ok_or_else(|| "--out DIR is required".to_string())
    }
}

/// The result line of the contract: exactly these four keys.
pub fn result_line(report: &run::Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.def.unit))]);
            (m.def.name.to_string(), value)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn single(options: &Options) -> Result<ExitCode, String> {
    let name = options.get("workload").ok_or("--workload NAME is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })?;
    let args = run::Args {
        workload,
        seed: options.number("seed", 1)?,
        seconds: options.number("seconds", DEFAULT_SECONDS)?,
        trace: options.number("trace", 0)? != 0,
        quick: options.flag("quick"),
        out_dir: options.out_dir()?,
    };
    let report = run::run(&args)?;
    println!(
        "# {} seed {} ({})",
        workload.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.4} {}", m.def.name, m.value, m.def.unit);
    }
    println!("{:<36} {:>16} of {}", "failed", report.failed, report.attempted);
    println!("{}", result_line(&report));
    // A miss of the oracle is not a measurement: say so to the caller too.
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: benchmark compare A.json B.json".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            compare::compare(&read(a)?, &read(b)?)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("suite") => suite::suite(&Options::parse(&args[1..], &["quick"])?),
        _ => single(&Options::parse(args, &["quick"])?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
