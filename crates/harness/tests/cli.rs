//! `repro` as a pipeline stage: a reader that stops early is not an error.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Spawns `repro args` and closes its stdout after reading `lines` lines,
/// as `repro … | head -1` does: whatever it prints next meets a closed pipe.
#[test]
fn a_closed_stdout_ends_repro_quietly() {
    for args in [&["list"][..], &["--scale", "bench", "table1"]] {
        for lines in [1, 0] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("repro spawns");
            let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            for _ in 0..lines {
                let mut line = String::new();
                assert!(stdout.read_line(&mut line).expect("a line") > 0, "{args:?}");
            }
            drop(stdout);
            let output = child.wait_with_output().expect("repro exits");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{args:?}: {:?}\n{stderr}", output.status);
            assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        }
    }
}

/// `repro golden` checks every file of the corpus and prints one `ok` line
/// per file.
#[test]
fn repro_golden_checks_every_corpus_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro")).arg("golden").output().expect("spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "repro golden must pass on the committed corpus\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let files = [
        "smk_pair.json",
        "spart_pair.json",
        "datacenter_trio.json",
        "models.json",
        "counter_registry_order.txt",
    ];
    let expected: String = files.iter().map(|f| format!("golden {f}: ok\n")).collect();
    assert_eq!(stdout, expected);
}

/// `validate` is not a subcommand: it is refused as an unknown experiment.
#[test]
fn repro_validate_is_an_unknown_experiment() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro")).arg("validate").output().expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "validate must be refused");
    assert!(stderr.contains("unknown experiment \"validate\""), "{stderr}");
}

/// `repro profile` prints one line of deterministic work counters and no
/// wall time: the counts `telemetry::tests::sm_step_counts_are_pinned`
/// pins for the scenario.
#[test]
fn repro_profile_prints_only_the_work_counters() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile", "smk_memory_pair"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert_eq!(
        stdout,
        "sm steps: 147041 run, 1132959 slept (88.5% of SM-cycles asleep); \
         wake queue: 119065 hints drained, 16 builds; quota gate: 0 evaluations; \
         tb scheduler: 255 passes\n"
    );
}

/// The fleet has no host profiler to arm: `--profile` is refused.
#[test]
fn repro_fleet_refuses_profile() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "steady", "--profile"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "--profile must be refused");
    assert!(stderr.contains("usage:"), "{stderr}");
}
