//! The command line: one workload (the benchmark contract's form), the
//! whole suite, the smoke test, and the comparison of two result sets.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use pmck_rt::Json;

use crate::ladder::run_traced;
use crate::measure::{run_untraced, RunOptions};
use crate::report::{compare, host_json, out_dir, spans_json, write_json, Record};
use crate::spec::{end_to_end, Workload};

const USAGE: &str = "\
usage:
  pmck-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one workload; the last line of stdout is the result as one JSON object
  pmck-benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      every workload, each in a process of its own; writes the result set
  pmck-benchmark --smoke
      every workload, untraced and traced, at 1/64 size, and a proof that
      the oracle fires
  pmck-benchmark --compare A.json B.json
      exit 1 if an end-to-end metric differs beyond its bound or a count at all
workloads: read_clean read_aged write_mix persist_mix cluster_read
defaults: --seed 7 --seconds 10 --trace 0";

/// Scale of the smoke run.
const SMOKE_SCALE: u64 = 64;
/// Measured seconds of each smoke workload.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    traced: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: f64,
    /// Divisor of every size; only `--smoke` sets it.
    scale: u64,
    out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            all: false,
            smoke: false,
            traced: false,
            compare: None,
            seed: 7,
            seconds: 10.0,
            scale: 1,
            out: None,
        }
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn record_path(workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced.json" } else { ".json" };
    out_dir().join(format!("{}{suffix}", workload.name()))
}

/// Runs one workload in this process and returns its record.
fn run_one(workload: Workload, a: &Args, sabotage: bool) -> Result<Record, String> {
    let fail = |e| format!("{}: {e}", workload.name());
    if a.traced {
        let traced = run_traced(workload, a.seed, a.scale).map_err(fail)?;
        let path = out_dir().join(format!("{}.trace.json", workload.name()));
        write_json(&path, &spans_json(&traced)).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Record::of_traced(&traced))
    } else {
        let opt = RunOptions {
            seed: a.seed,
            seconds: a.seconds,
            scale: a.scale,
            sabotage,
        };
        Ok(Record::of_untraced(
            &run_untraced(workload, opt).map_err(fail)?,
        ))
    }
}

fn single(name: &str, a: &Args) -> Result<bool, String> {
    let workload = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
    let record = run_one(workload, a, false)?;
    let path = record_path(workload, a.traced);
    write_json(&path, &record.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    record.print();
    // The contract's line: the metrics every workload has, which are
    // the ones `BENCHMARK.json` lists.
    println!(
        "{}",
        record.result_line(|name| a.traced || end_to_end(name).is_some_and(|m| m.universal))
    );
    Ok(record.correct)
}

fn suite(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        // A process per workload, one after the other, so that peak
        // RSS is the workload's own and never more than the producer
        // and one worker are runnable.
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        correct &= status.success();
        let path = record_path(workload, a.traced);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let set = Json::object()
        .with("host", host_json())
        .with("seed", a.seed)
        .with("seconds", a.seconds)
        .with("traced", a.traced)
        .with("runs", Json::Arr(runs));
    let default = out_dir().join(if a.traced {
        "set.traced.json"
    } else {
        "set.json"
    });
    let path = a.out.clone().unwrap_or(default);
    write_json(&path, &set).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("host: {}", host_json().dump());
    println!("wrote {}", path.display());
    Ok(correct)
}

fn smoke() -> Result<bool, String> {
    let mut a = Args {
        seconds: SMOKE_SECONDS,
        scale: SMOKE_SCALE,
        ..Args::default()
    };
    let mut correct = true;
    for traced in [false, true] {
        a.traced = traced;
        for workload in Workload::ALL {
            let record = run_one(workload, &a, false)?;
            record.print();
            correct &= record.correct;
        }
    }
    a.traced = false;
    let sabotaged = run_one(Workload::ReadClean, &a, true)?;
    let fired = sabotaged.failed > 0;
    println!(
        "oracle check: one mirror bit flipped, failed_ops_ratio {} ({})",
        sabotaged.failed as f64 / sabotaged.attempted.max(1) as f64,
        if fired { "fired" } else { "SILENT" }
    );
    Ok(correct && fired)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Entry point of the `pmck-benchmark` binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|a| {
        if let Some((x, y)) = &a.compare {
            let differences = compare(&load(x)?, &load(y)?);
            differences.iter().for_each(|d| println!("{d}"));
            println!("{} difference(s)", differences.len());
            Ok(differences.is_empty())
        } else if a.smoke {
            smoke()
        } else if a.all {
            suite(&a)
        } else if let Some(name) = &a.workload {
            single(name, &a)
        } else {
            Err("nothing to do".into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pmck-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
