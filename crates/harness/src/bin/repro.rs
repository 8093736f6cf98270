//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale bench|smoke|quick|converged|paper]
//!       [--checkpoint-dir DIR [--checkpoint-every N]] <experiment>...
//! repro --scale quick all
//! repro list
//! repro golden [--bless]
//! repro resume <DIR>
//! repro inspect <failure-snapshot-file>
//! repro trace <golden-scenario> [--out trace.json]
//! repro fleet <scenario> [--seed N] [--checkpoint-dir DIR]
//!             [--checkpoint-every TICKS] [--trace FILE]
//!             [--metrics-out FILE]
//! repro fleet resume <DIR> [--trace FILE] [--metrics-out FILE]
//! repro profile <scenario>
//! ```
//!
//! The experiments are the entries of `harness::experiments::EXPERIMENTS`;
//! `all` is every entry marked for it. An experiment run prints each report,
//! then the summary and the failure digest, and exits nonzero iff a case
//! failed.
//!
//! With `--checkpoint-dir DIR` the run journals every case into DIR, and
//! `repro resume DIR` reruns the same command against the journal: finished
//! cases are read back, interrupted ones continue from their last chunk. The
//! reports are the only stdout (progress and warnings go to stderr), so a
//! killed-then-resumed run prints the same bytes as an uninterrupted one.
//! `inspect` pretty-prints the failure snapshot a failed journaled case
//! leaves. `golden` re-renders every file of the golden corpus
//! (`harness::golden::CORPUS`) and compares it byte for byte with the
//! committed copy under `tests/golden/`; `golden --bless` rewrites them.
//! `profile` runs one single-GPU scenario and prints its run loop's
//! deterministic work counters on one line; where the simulator spends
//! host wall time is sampled from outside by `scripts/sample-profile.sh`.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpu_sim::snap::frame::write_atomic;
use harness::checkpoint::{
    load_failure, render_failure_snapshot, CheckpointDir, Manifest, DEFAULT_CHECKPOINT_EVERY,
};
use harness::experiments::{select, Experiment, Session, EXPERIMENTS};
use harness::scale::RunScale;

/// Every experiment name, then `all`.
fn experiment_names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).chain(["all"]).collect()
}

fn usage() -> String {
    format!(
        "usage: repro [--scale bench|smoke|quick|converged|paper] \
         [--checkpoint-dir DIR [--checkpoint-every N]] <experiment>...\n\
         \u{20}      repro golden [--bless]\n\
         \u{20}      repro resume <DIR>\n\
         \u{20}      repro inspect <failure-snapshot-file>\n\
         \u{20}      repro trace <scenario> [--out FILE]\n\
         \u{20}      repro fleet <scenario> [--seed N] [--checkpoint-dir DIR] \
         [--checkpoint-every TICKS] [--trace FILE] [--metrics-out FILE]\n\
         \u{20}      repro fleet resume <DIR> [--trace FILE] [--metrics-out FILE]\n\
         \u{20}      repro profile <scenario>\n\
         experiments: {}\n\
         scenarios: {}\n\
         fleet scenarios: {}\n\
         golden: re-render the golden corpus (tests/golden/: three scenarios'\n\
         epoch records, the ten Parboil models' metrics, the counter registry's\n\
         order) and compare each file byte for byte; --bless regenerates it\n\
         --checkpoint-dir: journal every case into DIR (its machine every ~N\n\
         cycles, default {DEFAULT_CHECKPOINT_EVERY}, then its result); resume reruns the\n\
         journaled command, reusing every case the journal holds\n\
         inspect: pretty-print a failure-*.snap machine snapshot\n\
         trace: export a golden scenario's flight recording as Chrome-trace\n\
         JSON (load at ui.perfetto.dev); stdout unless --out is given\n\
         fleet: run a multi-GPU serving scenario (admission control, retries,\n\
         device-fault tolerance); exit 0 iff every guaranteed SLO is met and\n\
         no request is lost; `fleet resume` continues a killed run;\n\
         --metrics-out exports the telemetry (counter time series, per-tenant\n\
         latency histograms, SLO burn tracks) as JSON at FILE and Prometheus\n\
         text at FILE.prom\n\
         profile: run a single-GPU scenario and print its run loop's work\n\
         counters (SM steps run and slept, wake-queue hints, quota-gate\n\
         evaluations, TB-scheduler passes); scenarios: {}\n",
        experiment_names().join(" "),
        harness::golden::SCENARIOS.join(" "),
        fleet::scenarios::SCENARIOS.join(" "),
        harness::telemetry::PROFILE_SCENARIOS.join(" ")
    )
}

/// Writes `text` to stdout, the one way this binary prints. A reader that
/// closed the pipe (`repro list | head -1`) has all it asked for, so that
/// ends the process quietly with status 0; any other failure with 1.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Prints `message` and the usage text on stderr and fails.
fn misuse(message: &str) -> ExitCode {
    eprintln!("{message}\n{}", usage());
    ExitCode::FAILURE
}

/// Prints every report, then the summary, whose last part is the failure
/// digest: either the all-clear line or one line per failed case (label,
/// error kind, health summary). Exits nonzero iff a case failed.
fn run(experiments: Vec<&'static Experiment>, session: &Session) -> ExitCode {
    for e in experiments {
        let started = Instant::now();
        emit(&format!("{}\n", session.run(e)));
        eprintln!("[{} done in {:.1}s]\n", e.name, started.elapsed().as_secs_f64());
    }
    emit(&format!("{}\n", session.summary()));
    if session.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repro resume <DIR>`: rerun the journaled command against its journal.
fn cmd_resume(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(dir), None) = (args.next(), args.next()) else {
        return misuse("`repro resume` wants exactly one checkpoint directory");
    };
    let journal = match CheckpointDir::open(&dir) {
        Ok(journal) => journal,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match select(&journal.manifest().experiments) {
        Ok(experiments) => run(experiments, &Session::journaled(journal)),
        Err(e) => misuse(&e),
    }
}

/// `repro inspect <file>`: pretty-print a persisted failure snapshot.
fn cmd_inspect(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(path), None) = (args.next(), args.next()) else {
        return misuse("`repro inspect` wants exactly one snapshot file");
    };
    match load_failure(Path::new(&path)) {
        Ok(snap) => {
            emit(&render_failure_snapshot(&snap));
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
                    return misuse("--out needs a file path");
                };
                out = Some(path);
            }
            other => positional.push(other.to_string()),
        }
    }
    let [name] = positional.as_slice() else {
        return misuse("`repro trace` wants exactly one scenario name");
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
            if let Err(e) = write_atomic(Path::new(&path), doc.as_bytes()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({} bytes)", doc.len());
        }
        None => emit(&doc),
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
    // A flag only a run from the start reads: the checkpoint records the
    // seed and cadence.
    let mut run_only = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return misuse("--seed needs an unsigned integer");
                };
                seed = value;
                run_only = Some("--seed");
            }
            "--checkpoint-dir" => {
                let Some(value) = args.next() else {
                    return misuse("--checkpoint-dir needs a value");
                };
                dir = Some(value);
                run_only = Some("--checkpoint-dir");
            }
            "--checkpoint-every" => {
                let Some(value) =
                    args.next().and_then(|v| v.parse::<u64>().ok()).filter(|&n| n > 0)
                else {
                    return misuse("--checkpoint-every wants a positive tick count");
                };
                every = value;
                run_only = Some("--checkpoint-every");
            }
            "--trace" => {
                let Some(value) = args.next() else { return misuse("--trace needs a file path") };
                trace = Some(value);
            }
            "--metrics-out" => {
                let Some(value) = args.next() else {
                    return misuse("--metrics-out needs a file path");
                };
                metrics_out = Some(value);
            }
            other => positional.push(other.to_string()),
        }
    }
    let trace = trace.as_deref().map(Path::new);
    let metrics_out = metrics_out.as_deref().map(Path::new);
    let outcome = match positional.as_slice() {
        [cmd, dir] if cmd == "resume" => {
            if let Some(flag) = run_only {
                return misuse(&format!("`repro fleet resume` does not take {flag}"));
            }
            harness::fleet_cli::resume(Path::new(dir), trace, metrics_out)
        }
        [name] => {
            eprintln!("[fleet {name}, seed {seed}]");
            let opts = harness::fleet_cli::FleetRunOpts {
                checkpoint_dir: dir.as_deref().map(Path::new),
                every_ticks: every,
                trace,
                metrics_out,
            };
            harness::fleet_cli::run_scenario(name, seed, &opts)
        }
        _ => return misuse("`repro fleet` wants one scenario name or `resume <DIR>`"),
    };
    match outcome {
        Ok(outcome) => {
            // The report is the only stdout: killed + resumed == uninterrupted.
            emit(&outcome.report);
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

/// `repro profile <scenario>`: run a single-GPU scenario and print its
/// run loop's work counters, one line.
fn cmd_profile(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(name), None) = (args.next(), args.next()) else {
        return misuse("`repro profile` wants exactly one scenario name");
    };
    match harness::telemetry::profile_scenario(&name) {
        Ok(line) => {
            emit(&line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Verifies (or with `bless` regenerates) the golden corpus.
fn run_golden(bless: bool) -> ExitCode {
    use harness::golden::{bless_all, check, golden_dir, golden_path, CORPUS};
    if bless {
        if let Err(e) = bless_all(&golden_dir()) {
            eprintln!("failed to write golden corpus: {e}");
            return ExitCode::FAILURE;
        }
        for entry in &CORPUS {
            emit(&format!("blessed {}\n", golden_path(entry.file).display()));
        }
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for entry in &CORPUS {
        match check(entry.file, true) {
            Ok(()) => emit(&format!("golden {}: ok\n", entry.file)),
            Err(e) => {
                ok = false;
                eprintln!("golden {}: FAILED\n{e}", entry.file);
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
        Some("resume") => return cmd_resume(args.skip(1)),
        Some("inspect") => return cmd_inspect(args.skip(1)),
        Some("trace") => return cmd_trace(args.skip(1)),
        Some("fleet") => return cmd_fleet(args.skip(1)),
        Some("profile") => return cmd_profile(args.skip(1)),
        _ => {}
    }
    let mut scale = RunScale::Quick;
    let mut bless = false;
    let mut dir = None;
    let mut every = None;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless = true,
            "--scale" | "-s" => {
                let Some(value) = args.next() else { return misuse("--scale needs a value") };
                let Some(parsed) = RunScale::parse(&value) else {
                    return misuse(&format!("unknown scale {value:?}"));
                };
                scale = parsed;
            }
            "--checkpoint-dir" => {
                let Some(value) = args.next() else {
                    return misuse("--checkpoint-dir needs a value");
                };
                dir = Some(value);
            }
            "--checkpoint-every" => {
                let Some(value) =
                    args.next().and_then(|v| v.parse::<u64>().ok()).filter(|&n| n > 0)
                else {
                    return misuse("--checkpoint-every wants a positive cycle count");
                };
                every = Some(value);
            }
            "list" | "--list" => {
                emit(&format!("{}\n", experiment_names().join("\n")));
                return ExitCode::SUCCESS;
            }
            "help" | "--help" | "-h" => {
                emit(&format!("{}\n", usage()));
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
        if wanted.len() > 1 || dir.is_some() {
            return misuse("`golden` cannot be combined with experiments or a journal");
        }
        return run_golden(bless);
    }
    if bless {
        return misuse("--bless only applies to `golden`");
    }
    let experiments = match select(&wanted) {
        Ok(experiments) => experiments,
        Err(e) => return misuse(&e),
    };
    let session = match dir {
        None if every.is_some() => return misuse("--checkpoint-every needs --checkpoint-dir"),
        None => Session::new(scale),
        Some(dir) => {
            let checkpoint_every = every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
            match CheckpointDir::create(
                &dir,
                Manifest { experiments: wanted, scale, checkpoint_every },
            ) {
                Ok(journal) => Session::journaled(journal),
                Err(e) => {
                    eprintln!("cannot start a journal in {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    run(experiments, &session)
}
