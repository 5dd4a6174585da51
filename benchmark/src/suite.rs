//! The whole benchmark in one command: every workload with tracing off
//! (`--runs` times, each with the next seed), then once more traced for
//! the per-layer numbers; every metric printed by name, and one result
//! file written. Each run is its own process, so `rss_mb` and the
//! thread accounting belong to one workload.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::WORKLOADS;
use crate::{procfs, Options, DEFAULT_SECONDS};

/// `--quick`: windows of one second.
const QUICK_SECONDS: u64 = 5;

/// Run one workload in a child process, echo what it prints, and parse
/// its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    options: &Options,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(options.out_dir()?)
        .stdout(Stdio::piped());
    if options.flag("quick") {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last)
        .map_err(|_| format!("{workload} (seed {seed}) printed no result: {}", output.status))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} (seed {seed}) failed its oracle: {last}"));
    }
    Ok(result)
}

fn value(result: &Json, metric: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result carries no {metric}"))
}

pub fn suite(options: &Options) -> Result<ExitCode, String> {
    let seed = options.number("seed", 1)?;
    let runs = options.number("runs", 1)?.max(1);
    let default_seconds = if options.flag("quick") { QUICK_SECONDS } else { DEFAULT_SECONDS };
    let seconds = options.number("seconds", default_seconds)?;
    let out_dir = options.out_dir()?;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let mut untraced = Vec::new();
        for run in 0..runs {
            untraced.push(child(workload.name, seed + run, seconds, false, options)?);
        }
        let traced = child(workload.name, seed, seconds, true, options)?;
        let mut end_to_end = Vec::new();
        for def in &END_TO_END {
            let values =
                untraced.iter().map(|r| value(r, def.name)).collect::<Result<Vec<_>, _>>()?;
            end_to_end.push((
                def.name.to_string(),
                Json::obj([
                    ("median", Json::Num(median(&values))),
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                    ("bound", Json::Num(def.bound)),
                    ("runs", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in &PER_LAYER {
            per_layer.push((
                def.name.to_string(),
                Json::obj([
                    ("value", Json::Num(value(&traced, def.name)?)),
                    ("unit", Json::str(def.unit)),
                ]),
            ));
        }
        let count = |key: &str| {
            untraced.iter().chain([&traced]).filter_map(|r| r.get(key)?.as_f64()).sum::<f64>()
        };
        workloads.push((
            workload.name.to_string(),
            Json::obj([
                ("why", Json::str(workload.why)),
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed"))),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }
    let host = procfs::host_facts(&out_dir.to_string_lossy())
        .into_iter()
        .map(|(name, fact)| (name.to_string(), Json::Str(fact)))
        .collect();
    let doc = Json::obj([
        ("schema", Json::str("apcache-benchmark/1")),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("host", Json::Obj(host)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir.join(format!("results-seed{seed}.json"));
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}
