//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale bench|smoke|quick|paper] <experiment>...
//! repro --scale quick all
//! repro list
//! repro run <sweep> --checkpoint-dir DIR [--scale s] [--checkpoint-every N]
//! repro resume <DIR> [--checkpoint-every N]
//! repro inspect <failure-snapshot-file>
//! repro trace <golden-scenario> [--out trace.json]
//! repro fleet <scenario> [--seed N] [--checkpoint-dir DIR]
//!             [--checkpoint-every TICKS] [--trace FILE]
//!             [--metrics-out FILE] [--profile]
//! repro fleet resume <DIR> [--metrics-out FILE]
//! repro metrics <fleet-scenario> [--seed N] [--out FILE]
//! repro profile <scenario>
//! repro validate [--bless | --recapture] [--out report.txt]
//! ```
//!
//! The experiments are the entries of `harness::experiments::EXPERIMENTS`;
//! `all` is every entry marked for it. An experiment run prints each report,
//! then the summary and the failure digest, and exits nonzero iff a case
//! failed.
//!
//! `run`/`resume`/`inspect` are the crash-resumable sweep commands: `run`
//! executes a named sweep with periodic checkpoints, `resume` continues a
//! killed sweep from its newest loadable checkpoint, and `inspect`
//! pretty-prints a persisted failure snapshot. The final sweep report is the
//! only stdout either `run` or `resume` produces (progress and degradation
//! warnings go to stderr), so a killed-then-resumed sweep's stdout is
//! byte-identical to an uninterrupted run's.

use std::process::ExitCode;

use gpu_sim::snap::frame::write_atomic;
use harness::checkpoint::{
    self, load_failure, render_failure_snapshot, resume_sweep, run_sweep_checkpointed,
    CheckpointDir, DEFAULT_CHECKPOINT_EVERY,
};
use harness::experiments::{Session, EXPERIMENTS};
use harness::scale::RunScale;

/// Every experiment name, then `all`.
fn experiment_names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).chain(["all"]).collect()
}

fn usage() -> String {
    format!(
        "usage: repro [--scale bench|smoke|quick|paper] <experiment>...\n\
         \u{20}      repro golden [--bless]\n\
         \u{20}      repro run <sweep> --checkpoint-dir DIR [--scale s] [--checkpoint-every N]\n\
         \u{20}      repro resume <DIR> [--checkpoint-every N]\n\
         \u{20}      repro inspect <failure-snapshot-file>\n\
         \u{20}      repro trace <scenario> [--out FILE]\n\
         \u{20}      repro fleet <scenario> [--seed N] [--checkpoint-dir DIR] \
         [--checkpoint-every TICKS] [--trace FILE] [--metrics-out FILE] [--profile]\n\
         \u{20}      repro fleet resume <DIR> [--metrics-out FILE]\n\
         \u{20}      repro metrics <fleet-scenario> [--seed N] [--out FILE]\n\
         \u{20}      repro profile <scenario>\n\
         \u{20}      repro validate [--bless | --recapture] [--out FILE]\n\
         experiments: {}\n\
         sweeps: {}\n\
         scenarios: {}\n\
         fleet scenarios: {}\n\
         golden: verify the golden-trace corpus (tests/golden/); \
         --bless regenerates it\n\
         run/resume: checkpointed sweep execution; resume continues a killed\n\
         sweep from the newest loadable checkpoint in DIR\n\
         inspect: pretty-print a failure-case-*.snap machine snapshot\n\
         trace: export a golden scenario's flight recording as Chrome-trace\n\
         JSON (load at ui.perfetto.dev); stdout unless --out is given\n\
         fleet: run a multi-GPU serving scenario (admission control, retries,\n\
         device-fault tolerance); exit 0 iff every guaranteed SLO is met and\n\
         no request is lost; `fleet resume` continues a killed run;\n\
         --metrics-out exports the telemetry (JSON at FILE, Prometheus text\n\
         at FILE.prom), --profile prints the host-time hotspot table to stderr\n\
         metrics: run a fleet scenario and export its telemetry (counter time\n\
         series, per-tenant latency histograms, SLO burn tracks); JSON on\n\
         stdout, or JSON + .prom files when --out is given\n\
         profile: run a scenario with the host profiler armed and print the\n\
         wall-time hotspot table; scenarios: {} plus the fleet scenarios\n\
         validate: replay the committed trace corpus (tests/golden/validate/)\n\
         and correlate IPC/residency/quota/cache metrics against committed\n\
         expectations; exit 0 iff every metric passes; --bless re-pins the\n\
         expectations, --recapture re-records the traces first, --out also\n\
         writes the correlation report to FILE\n",
        experiment_names().join(" "),
        checkpoint::SWEEPS.join(" "),
        harness::golden::SCENARIOS.join(" "),
        fleet::scenarios::SCENARIOS.join(" "),
        harness::telemetry::PROFILE_SCENARIOS.join(" ")
    )
}

/// Parses `--checkpoint-every N` / `--scale s` style flags shared by the
/// `run` and `resume` subcommands. Returns `(positional, scale, every, dir)`.
#[allow(clippy::type_complexity)]
fn parse_sweep_args(
    args: impl Iterator<Item = String>,
) -> Result<(Vec<String>, RunScale, Option<u64>, Option<String>), String> {
    let mut args = args.peekable();
    let mut positional = Vec::new();
    let mut scale = RunScale::Quick;
    let mut every = None;
    let mut dir = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" | "-s" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale =
                    RunScale::parse(&value).ok_or_else(|| format!("unknown scale {value:?}"))?;
            }
            "--checkpoint-every" => {
                let value = args.next().ok_or("--checkpoint-every needs a value")?;
                every = Some(value.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("--checkpoint-every wants a positive cycle count, got {value:?}")
                })?);
            }
            "--checkpoint-dir" => {
                dir = Some(args.next().ok_or("--checkpoint-dir needs a value")?);
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok((positional, scale, every, dir))
}

fn finish_sweep(outcome: checkpoint::SweepOutcome) -> ExitCode {
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    // The report is the only stdout: killed + resumed == uninterrupted.
    print!("{}", outcome.report());
    if outcome.outcomes.iter().all(Result::is_ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro run <sweep> --checkpoint-dir DIR`: a checkpointed sweep from the
/// start.
fn cmd_run(args: impl Iterator<Item = String>) -> ExitCode {
    let (positional, scale, every, dir) = match parse_sweep_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let [sweep] = positional.as_slice() else {
        eprintln!("`repro run` wants exactly one sweep name\n{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(dir) = dir else {
        eprintln!("`repro run` needs --checkpoint-dir\n{}", usage());
        return ExitCode::FAILURE;
    };
    let dir = match CheckpointDir::create(&dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot open checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let every = every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    eprintln!(
        "[sweep {sweep} at {scale:?} scale, checkpointing into {} every ~{every} cycles]",
        dir.path().display()
    );
    match run_sweep_checkpointed(sweep, scale, &dir, every) {
        Ok(outcome) => finish_sweep(outcome),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro resume <DIR>`: continue a killed sweep from its newest loadable
/// checkpoint.
fn cmd_resume(args: impl Iterator<Item = String>) -> ExitCode {
    let (positional, _scale, every, dir_flag) = match parse_sweep_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Accept the directory either positionally or via --checkpoint-dir.
    let dir = match (positional.as_slice(), dir_flag) {
        ([d], None) => d.clone(),
        ([], Some(d)) => d,
        _ => {
            eprintln!("`repro resume` wants exactly one checkpoint directory\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let dir = match CheckpointDir::create(&dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot open checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match resume_sweep(&dir, every) {
        Ok(outcome) => finish_sweep(outcome),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro inspect <file>`: pretty-print a persisted failure snapshot.
fn cmd_inspect(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("`repro inspect` wants exactly one snapshot file\n{}", usage());
        return ExitCode::FAILURE;
    };
    match load_failure(std::path::Path::new(&path)) {
        Ok(snap) => {
            print!("{}", render_failure_snapshot(&snap));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro trace <scenario> [--out FILE]`: run a golden scenario with the
/// flight recorder on and export the Chrome-trace JSON document.
fn cmd_trace(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut positional = Vec::new();
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" | "-o" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [name] = positional.as_slice() else {
        eprintln!("`repro trace` wants exactly one scenario name\n{}", usage());
        return ExitCode::FAILURE;
    };
    if !harness::golden::SCENARIOS.contains(&name.as_str()) {
        eprintln!("unknown scenario {name:?} (known: {})", harness::golden::SCENARIOS.join(", "));
        return ExitCode::FAILURE;
    }
    let doc = harness::perfetto::export_scenario(name);
    if let Err(e) = harness::perfetto::check_chrome_trace(&doc) {
        eprintln!("internal error: exported trace fails its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    match out {
        Some(path) => {
            if let Err(e) = write_atomic(std::path::Path::new(&path), doc.as_bytes()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", doc.len());
        }
        None => print!("{doc}"),
    }
    ExitCode::SUCCESS
}

/// `repro fleet <scenario> ...` / `repro fleet resume <DIR>`: checkpointed
/// fleet serving runs. The report is the only stdout, so a killed-then-
/// resumed run's output is byte-identical to an uninterrupted one's.
fn cmd_fleet(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut positional = Vec::new();
    let mut seed = fleet::scenarios::DEFAULT_SEED;
    let mut dir = None;
    let mut every = harness::fleet_cli::DEFAULT_FLEET_EVERY;
    let mut trace = None;
    let mut metrics_out = None;
    let mut profile = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed needs an unsigned integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                seed = value;
            }
            "--checkpoint-dir" => {
                let Some(value) = args.next() else {
                    eprintln!("--checkpoint-dir needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                dir = Some(value);
            }
            "--checkpoint-every" => {
                let Some(value) =
                    args.next().and_then(|v| v.parse::<u64>().ok().filter(|&n| n > 0))
                else {
                    eprintln!("--checkpoint-every wants a positive tick count\n{}", usage());
                    return ExitCode::FAILURE;
                };
                every = value;
            }
            "--trace" => {
                let Some(value) = args.next() else {
                    eprintln!("--trace needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                trace = Some(value);
            }
            "--metrics-out" => {
                let Some(value) = args.next() else {
                    eprintln!("--metrics-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                metrics_out = Some(value);
            }
            "--profile" => profile = true,
            other => positional.push(other.to_string()),
        }
    }
    let outcome = match positional.as_slice() {
        [cmd, dir_arg] if cmd == "resume" => harness::fleet_cli::resume(
            std::path::Path::new(dir_arg),
            metrics_out.as_deref().map(std::path::Path::new),
        ),
        [name] => {
            eprintln!("[fleet {name}, seed {seed}]");
            let opts = harness::fleet_cli::FleetRunOpts {
                checkpoint_dir: dir.as_deref().map(std::path::Path::new),
                every_ticks: every,
                trace: trace.as_deref().map(std::path::Path::new),
                metrics_out: metrics_out.as_deref().map(std::path::Path::new),
                profile,
            };
            harness::fleet_cli::run_scenario(name, seed, &opts)
        }
        _ => {
            eprintln!("`repro fleet` wants one scenario name or `resume <DIR>`\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(outcome) => {
            if let Some(table) = &outcome.profile {
                // Host-time attribution is wall-clock noise, never part of
                // the deterministic report stream.
                eprint!("{table}");
            }
            // The report is the only stdout: killed + resumed == uninterrupted.
            print!("{}", outcome.report);
            if outcome.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro metrics <fleet-scenario> [--seed N] [--out FILE]`: run a fleet
/// scenario to completion and export its telemetry. JSON goes to stdout,
/// or to FILE (with the Prometheus text beside it at FILE.prom) when
/// `--out` is given.
fn cmd_metrics(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut positional = Vec::new();
    let mut seed = fleet::scenarios::DEFAULT_SEED;
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed needs an unsigned integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                seed = value;
            }
            "--out" | "-o" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [name] = positional.as_slice() else {
        eprintln!("`repro metrics` wants exactly one fleet scenario name\n{}", usage());
        return ExitCode::FAILURE;
    };
    let (json, prom) = match harness::telemetry::run_fleet_metrics(name, seed) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            let prom_path = path.with_extension("prom");
            for (p, doc) in [(&path, &json), (&prom_path, &prom)] {
                if let Err(e) = write_atomic(p, doc.as_bytes()) {
                    eprintln!("cannot write {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {} ({} bytes)", p.display(), doc.len());
            }
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// `repro profile <scenario>`: run a scenario with the host profiler armed
/// and print the wall-time hotspot table.
fn cmd_profile(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(name), None) = (args.next(), args.next()) else {
        eprintln!("`repro profile` wants exactly one scenario name\n{}", usage());
        return ExitCode::FAILURE;
    };
    match harness::telemetry::profile_scenario(&name) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro validate [--bless | --recapture] [--out FILE]`: replay the trace
/// corpus and correlate against committed expectations. The correlation
/// table is the only stdout; `--out` additionally writes it to a file (pass
/// or fail — CI uploads it as the failure artifact).
fn cmd_validate(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut bless = false;
    let mut recapture = false;
    let mut out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless = true,
            "--recapture" => recapture = true,
            "--out" | "-o" => {
                let Some(path) = args.next() else {
                    eprintln!("--out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            other => {
                eprintln!("`repro validate` does not take {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if recapture {
        if let Err(e) = harness::validate::recapture() {
            eprintln!("recapture failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("re-recorded trace corpus under {}", harness::validate::validate_dir().display());
    } else if bless {
        if let Err(e) = harness::validate::bless() {
            eprintln!("bless failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if bless || recapture {
        eprintln!("blessed {}", harness::validate::expectations_path().display());
    }
    match harness::validate::run_validation() {
        Ok(report) => {
            let table = report.render();
            if let Some(path) = out {
                if let Err(e) = write_atomic(std::path::Path::new(&path), table.as_bytes()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            print!("{table}");
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Verifies (or with `bless` regenerates) the golden-trace corpus.
fn run_golden(bless: bool) -> ExitCode {
    if bless {
        if let Err(e) = harness::golden::bless_all() {
            eprintln!("failed to write golden corpus: {e}");
            return ExitCode::FAILURE;
        }
        for name in harness::golden::SCENARIOS {
            println!("blessed {}", harness::golden::golden_path(name).display());
        }
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for name in harness::golden::SCENARIOS {
        match harness::golden::check(name) {
            Ok(()) => println!("golden {name}: ok"),
            Err(e) => {
                ok = false;
                eprintln!("golden {name}: FAILED\n{e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("run") => return cmd_run(args.skip(1)),
        Some("resume") => return cmd_resume(args.skip(1)),
        Some("inspect") => return cmd_inspect(args.skip(1)),
        Some("trace") => return cmd_trace(args.skip(1)),
        Some("fleet") => return cmd_fleet(args.skip(1)),
        Some("metrics") => return cmd_metrics(args.skip(1)),
        Some("profile") => return cmd_profile(args.skip(1)),
        Some("validate") => return cmd_validate(args.skip(1)),
        _ => {}
    }
    let mut scale = RunScale::Quick;
    let mut bless = false;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless = true,
            "--scale" | "-s" => {
                let Some(value) = args.next() else {
                    eprintln!("--scale needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match RunScale::parse(&value) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale {value:?}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "list" | "--list" => {
                println!("{}", experiment_names().join("\n"));
                return ExitCode::SUCCESS;
            }
            "help" | "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if wanted.iter().any(|w| w == "golden") {
        if wanted.len() > 1 {
            eprintln!("`golden` cannot be combined with experiments\n{}", usage());
            return ExitCode::FAILURE;
        }
        return run_golden(bless);
    }
    if bless {
        eprintln!("--bless only applies to `golden`\n{}", usage());
        return ExitCode::FAILURE;
    }
    let mut experiments = Vec::new();
    for w in &wanted {
        match EXPERIMENTS.iter().find(|e| e.name == w) {
            Some(e) => experiments.push(e),
            None if w == "all" => {}
            None => {
                eprintln!("unknown experiment {w:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if wanted.iter().any(|w| w == "all") {
        experiments = EXPERIMENTS.iter().filter(|e| e.in_all).collect();
    }

    let session = Session::new(scale);
    for e in experiments {
        let started = std::time::Instant::now();
        println!("{}", session.run(e));
        eprintln!("[{} done in {:.1}s]\n", e.name, started.elapsed().as_secs_f64());
    }
    // Every run ends with the summary, whose last part is the failure
    // digest: either the all-clear line or one line per failed case (label,
    // error kind, health summary).
    println!("{}", session.summary());
    if session.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
