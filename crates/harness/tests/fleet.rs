//! End-to-end crash-recovery and chaos-soak tests for `repro fleet`.
//!
//! The fast test SIGKILLs a checkpointing fleet run mid-flight and asserts
//! the resumed run's report is byte-identical to an uninterrupted one's.
//! The `--ignored` soak (run in CI's fleet-chaos job) replays the chaos
//! scenario across seeds and asserts the serving contract: every guaranteed
//! tenant meets its SLO floor and no request is ever lost.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgqos-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkilled_fleet_run_resumes_to_an_identical_report() {
    let dir = tmp_dir("sigkill");
    let baseline = repro(&["fleet", "chaos"]);
    assert!(
        baseline.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    let mut victim = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "chaos", "--checkpoint-dir"])
        .arg(&dir)
        .args(["--checkpoint-every", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim spawns");

    // Kill as soon as a checkpoint lands. write_atomic renames the file
    // into place, so existence implies a complete frame. The chaos run is
    // fast, so tolerate the victim finishing first: the final checkpoint
    // then makes resume a pure reprint, which must still match.
    let ckpt = dir.join("fleet-ckpt.bin");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut victim_finished = false;
    loop {
        if ckpt.exists() {
            break;
        }
        if victim.try_wait().expect("try_wait works").is_some() {
            victim_finished = true;
            break;
        }
        assert!(Instant::now() < deadline, "victim produced no checkpoint within the deadline");
        std::thread::sleep(Duration::from_millis(2));
    }
    if !victim_finished {
        victim.kill().expect("SIGKILL delivered");
    }
    let _ = victim.wait();

    let resumed = repro(&["fleet", "resume", dir.to_str().expect("utf8 dir")]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "resumed report must be byte-identical to the uninterrupted run's"
    );
    let report = String::from_utf8_lossy(&baseline.stdout);
    for field in ["latency mean", "p50", "p95", "p99"] {
        assert!(report.contains(field), "per-tenant {field} missing from report:\n{report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint records the seed and cadence: `resume` refuses the flags
/// only a run from the start reads instead of ignoring them.
#[test]
fn resume_refuses_the_flags_of_a_run_from_the_start() {
    let dir = tmp_dir("resume-flags");
    let dir = dir.to_str().expect("utf8 dir");
    for flags in [
        &["--seed", "3"][..],
        &["--profile"],
        &["--checkpoint-every", "2"],
        &["--checkpoint-dir", dir],
    ] {
        let refused = repro(&[&["fleet", "resume", dir][..], flags].concat());
        assert!(!refused.status.success(), "{flags:?} was accepted");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains(flags[0]) && stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn metrics_export_is_identical_across_kill_and_resume() {
    // The telemetry state (histograms, counter series) rides the fleet
    // snapshot, so a run cut at an arbitrary tick and resumed must export
    // byte-identical JSON and Prometheus documents.
    let dir = tmp_dir("metrics-resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let full_json = dir.join("full.json");
    let full = repro(&["fleet", "chaos", "--metrics-out", full_json.to_str().expect("utf8 path")]);
    assert!(full.status.success(), "full run failed: {}", String::from_utf8_lossy(&full.stderr));

    let seed = fleet::scenarios::DEFAULT_SEED;
    let cfg = fleet::scenarios::by_name("chaos", seed).expect("known scenario");
    let mut partial = fleet::Fleet::new(cfg);
    for _ in 0..7 {
        partial.step();
    }
    harness::fleet_cli::save_checkpoint(
        &dir,
        &harness::fleet_cli::FleetCheckpoint {
            scenario: "chaos".to_string(),
            seed,
            every_ticks: 1,
            state: partial.snapshot(),
        },
    )
    .expect("mid-run checkpoint saves");
    drop(partial);

    let resumed_json = dir.join("resumed.json");
    let resumed = repro(&[
        "fleet",
        "resume",
        dir.to_str().expect("utf8 dir"),
        "--metrics-out",
        resumed_json.to_str().expect("utf8 path"),
    ]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let read = |p: &std::path::Path| std::fs::read(p).expect("export written");
    assert_eq!(read(&full_json), read(&resumed_json), "metrics JSON diverged across kill+resume");
    assert_eq!(
        read(&full_json.with_extension("prom")),
        read(&resumed_json.with_extension("prom")),
        "Prometheus export diverged across kill+resume"
    );
    let json = String::from_utf8(read(&full_json)).expect("utf8 json");
    for key in ["\"p999\"", "\"burn_rate_ppm\"", "fgqos-metrics-v1"] {
        assert!(json.contains(key), "{key} missing from metrics JSON");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_trace_export_writes_a_schema_clean_document() {
    let dir = tmp_dir("trace");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fleet.json");
    let out = repro(&["fleet", "steady", "--trace", path.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "traced run failed: {}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&path).expect("trace written");
    harness::perfetto::check_chrome_trace(&doc).expect("exported trace passes the schema check");
    assert!(doc.contains("tenant/latency"), "per-tenant track present");
    assert!(doc.contains("\"latency_p99\""), "per-tick latency percentile track present");
    assert!(doc.contains("\"slo_burn_ppm\""), "per-tick SLO burn track present");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_fleet_scenario_exits_nonzero() {
    let out = repro(&["fleet", "definitely-not-a-scenario"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown scenario"),
        "stderr names the problem"
    );
}

#[test]
fn checkpoint_with_a_migration_in_the_journal_resumes_byte_identically() {
    // Step the migration storm in-process until a migration blob is
    // actually sitting in the pending queue, persist that exact state
    // through the CLI's checkpoint frame, then finish the run out of
    // process via `repro fleet resume`. The resumed report must match an
    // uninterrupted run byte for byte and lose nothing.
    let dir = tmp_dir("mid-migration");
    let seed = fleet::scenarios::DEFAULT_SEED;
    let baseline = repro(&["fleet", "migration"]);
    assert!(
        baseline.status.success(),
        "baseline storm failed: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    let cfg = fleet::scenarios::by_name("migration", seed).expect("known scenario");
    let mut partial = fleet::Fleet::new(cfg);
    while !partial.step() {
        if partial.pending_migration_count() > 0 {
            break;
        }
    }
    assert!(
        partial.pending_migration_count() > 0,
        "the storm must leave a migration blob in flight at some tick"
    );
    harness::fleet_cli::save_checkpoint(
        &dir,
        &harness::fleet_cli::FleetCheckpoint {
            scenario: "migration".to_string(),
            seed,
            every_ticks: 1,
            state: partial.snapshot(),
        },
    )
    .expect("checkpoint with a pending migration saves");
    drop(partial);

    let resumed = repro(&["fleet", "resume", dir.to_str().expect("utf8 dir")]);
    assert!(
        resumed.status.success(),
        "mid-migration resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "a checkpoint holding an in-flight migration must resume byte-identically"
    );
    let report = String::from_utf8_lossy(&baseline.stdout);
    assert!(report.contains(", 0 lost"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_migration_storm_resumes_to_an_identical_report() {
    // The crash-path variant: SIGKILL the checkpointing storm mid-flight
    // (the storm keeps migrations in motion from cycle 30k on) and assert
    // the resume converges. Migration state rides inside the rolling
    // checkpoint, so whichever tick the kill lands on, nothing is lost.
    let dir = tmp_dir("storm-sigkill");
    let baseline = repro(&["fleet", "migration"]);
    assert!(
        baseline.status.success(),
        "baseline storm failed: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );

    let mut victim = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fleet", "migration", "--checkpoint-dir"])
        .arg(&dir)
        .args(["--checkpoint-every", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim spawns");

    let ckpt = dir.join("fleet-ckpt.bin");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut victim_finished = false;
    loop {
        if ckpt.exists() {
            break;
        }
        if victim.try_wait().expect("try_wait works").is_some() {
            victim_finished = true;
            break;
        }
        assert!(Instant::now() < deadline, "victim produced no checkpoint within the deadline");
        std::thread::sleep(Duration::from_millis(2));
    }
    if !victim_finished {
        victim.kill().expect("SIGKILL delivered");
    }
    let _ = victim.wait();

    let resumed = repro(&["fleet", "resume", dir.to_str().expect("utf8 dir")]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "resumed storm report must be byte-identical to the uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses `N migrated`-style fields out of the report's goodput line:
/// `goodput A/B requests, C shed, D evicted, E migrated | ...`.
fn goodput_field(report: &str, field: &str) -> u64 {
    let line = report.lines().find(|l| l.contains("goodput")).expect("goodput line");
    let needle = format!(" {field}");
    let end = line.find(&needle).unwrap_or_else(|| panic!("no {field:?} in {line:?}"));
    line[..end]
        .rsplit([' ', ','])
        .find(|s| !s.is_empty())
        .expect("number precedes the field")
        .parse()
        .unwrap_or_else(|e| panic!("bad {field} count in {line:?}: {e}"))
}

#[test]
#[ignore = "migration-storm soak: full storm runs across a seed matrix; CI's fleet-chaos job"]
fn migration_storm_soak_resumes_batches_instead_of_retrying() {
    // Across the seed matrix: no request lost, every guaranteed SLO met,
    // and at least 90% of the work displaced by device loss/wedge/drain
    // completes via migration rather than eviction + retry-from-scratch.
    for seed in ["20260807", "1", "2", "3", "4"] {
        let out = repro(&["fleet", "migration", "--seed", seed]);
        assert!(
            out.status.success(),
            "storm seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = String::from_utf8_lossy(&out.stdout);
        assert!(report.contains(", 0 lost"), "seed {seed} lost requests:\n{report}");
        assert!(report.contains("guaranteed SLOs: MET"), "seed {seed}:\n{report}");
        let migrated = goodput_field(&report, "migrated");
        let evicted = goodput_field(&report, "evicted");
        assert!(migrated > 0, "seed {seed}: the storm must migrate work\n{report}");
        assert!(
            migrated * 10 >= (migrated + evicted) * 9,
            "seed {seed}: only {migrated}/{} displaced requests resumed via migration\n{report}",
            migrated + evicted
        );
    }
}

#[test]
#[ignore = "chaos soak: several full fleet runs; exercised by CI's fleet-chaos job"]
fn chaos_soak_is_deterministic_and_loses_nothing() {
    // Determinism: two runs with the same seed agree byte-for-byte.
    let a = repro(&["fleet", "chaos", "--seed", "20260807"]);
    let b = repro(&["fleet", "chaos", "--seed", "20260807"]);
    assert!(a.status.success(), "chaos run failed: {}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "same seed must yield the same report");
    let report = String::from_utf8_lossy(&a.stdout);
    assert!(report.contains("guaranteed SLOs: MET"), "{report}");
    assert!(report.contains(", 0 lost"), "{report}");

    // Accounting invariant across seeds: device loss, wedges, timeouts and
    // shedding may reshuffle work, but no request is ever silently dropped —
    // every arrival completes, is retried to completion, or is shed with a
    // recorded reason.
    for seed in ["1", "2", "3"] {
        let out = repro(&["fleet", "chaos", "--seed", seed]);
        let report = String::from_utf8_lossy(&out.stdout);
        assert!(report.contains(", 0 lost"), "seed {seed} lost requests:\n{report}");
    }
}
