//! `fgqos-bench`: the end-to-end + per-layer benchmark of the fgqos
//! simulator stack. README.md beside this package's manifest has the metric
//! and workload tables and the reasons behind them.
//!
//! ```text
//! fgqos-bench [run] --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//!                   [--quick] [--iters N] [--out FILE]
//! fgqos-bench all   [the same flags, without --workload]
//! fgqos-bench compare A.json B.json
//! fgqos-bench list
//! ```
//!
//! `run` measures one workload per process, so that peak memory is per
//! workload, and ends its standard output with one JSON object; `all`
//! re-executes this program once per workload.

mod calib;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod output;
mod protocol;
mod spans;
mod suite;

use std::process::{Command, ExitCode};

use json::Json;
use protocol::Options;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 0x2017;
/// Wall budget of the timed passes when none is given; `BENCHMARK.json`
/// passes the same value.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    iters: Option<usize>,
    out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        iters: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| parse_u64(v).ok_or_else(|| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| (0.0..=600.0).contains(s))
                        .ok_or_else(|| bad(v))
                })?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--quick" => parsed.quick = true,
            "--iters" => {
                parsed.iters = Some(value().and_then(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|n| (1..=10_000).contains(n))
                        .ok_or_else(|| bad(v))
                })?);
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &str, file: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{file}\n")).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required (see `fgqos-bench list`)")?;
    let workload = suite::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = protocol::run(Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        iters: args.iters,
    });
    if let Some(path) = &args.out {
        write_file(path, &output::result_file(vec![output::full_result(&report)]))?;
    }
    output::print_human(&report);
    println!("{}", output::result_line(&report));
    Ok(report.correct)
}

/// Runs every workload in a process of its own and, with `--out`, gathers
/// their result files into one.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut correct = true;
    let mut results = Vec::new();
    for w in &suite::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(n) = args.iters {
            cmd.args(["--iters", &n.to_string()]);
        }
        let part = args.out.as_ref().map(|out| format!("{out}.{}.part", w.name));
        if let Some(part) = &part {
            cmd.args(["--out", part]);
        }
        let status = cmd.status().map_err(|e| format!("{}: {e}", w.name))?;
        correct &= status.success();
        if let Some(part) = &part {
            let text = std::fs::read_to_string(part).map_err(|e| format!("{part}: {e}"))?;
            let file = Json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
            results
                .extend(file.get("results").map(Json::items).unwrap_or_default().iter().cloned());
            std::fs::remove_file(part).map_err(|e| format!("{part}: {e}"))?;
        }
    }
    if let Some(out) = &args.out {
        write_file(out, &output::result_file(results))?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "compare" | "list")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    match command {
        "list" => {
            for w in &suite::WORKLOADS {
                println!("{:<15} op = {}; {}", w.name, w.op, w.why);
            }
            return ExitCode::SUCCESS;
        }
        "compare" => {
            let [a, b] = rest else {
                eprintln!("usage: fgqos-bench compare A.json B.json");
                return ExitCode::from(2);
            };
            return ExitCode::from(compare::main(a, b) as u8);
        }
        _ => {}
    }
    // Timings of an unoptimized build say nothing about the simulator.
    if cfg!(debug_assertions) {
        eprintln!("fgqos-bench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let outcome = parse_args(rest).and_then(|args| match command {
        "all" => all(&args),
        _ => run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fgqos-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&["--workload", "qos_trio", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("qos_trio"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args(&["--seed", "0x2017"]).expect("hex").seed, 0x2017);
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seconds", "-1"],
            &["--iters", "0"],
            &["--nope"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` at the repository root names the metrics and
    /// workloads the driver expects; this program's tables must match it.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let items = file.get(key).map(Json::items).unwrap_or_default();
            items.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_string)).collect()
        };
        assert_eq!(names("workloads"), suite::WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), metrics::END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), metrics::PER_LAYER.map(|m| m.name));
        for (m, listed) in
            metrics::END_TO_END.iter().zip(file.get("end_to_end").expect("listed").items())
        {
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(listed.get("better").and_then(Json::as_str), Some(m.better.label()));
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        assert_eq!(file.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }
}
