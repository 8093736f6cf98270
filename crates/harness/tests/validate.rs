//! Integration tests for the `repro validate` correlation harness.
//!
//! The committed corpus under `tests/golden/validate/` must validate clean
//! on the canonical configuration; a deliberately perturbed configuration
//! must fail the gates; and bless must refuse a corpus written under a
//! foreign trace schema version.

use std::path::PathBuf;
use std::process::Command;

use gpu_sim::GpuConfig;
use harness::validate::{
    bless_dir, recapture_in, run_validation, run_validation_in, run_validation_with,
    CORR_THRESHOLD, MAX_REL_ERR, METRICS,
};
use trace::TRACE_SCHEMA_VERSION;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgqos-validate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn committed_corpus_validates_clean() {
    let report = run_validation().expect("committed corpus and expectations load");
    assert!(report.ok(), "committed corpus must pass:\n{}", report.render());
    assert_eq!(report.rows.len(), METRICS.len());
    for row in &report.rows {
        assert!(row.corr >= CORR_THRESHOLD, "{}: corr {}", row.metric, row.corr);
        assert!(row.max_rel_err <= MAX_REL_ERR, "{}: err {}", row.metric, row.max_rel_err);
    }
    let table = report.render();
    assert!(table.contains("PASS"), "report renders the verdict:\n{table}");
}

#[test]
fn perturbed_config_fails_the_gates() {
    // Halving the epoch length changes quota cadence, sampling, and IPC
    // accounting — expectations were pinned at epoch_cycles = 1000, so the
    // replayed metrics must drift past at least one gate.
    let mut cfg = GpuConfig::tiny();
    cfg.epoch_cycles = 500;
    let report = run_validation_with(&cfg).expect("corpus still loads");
    assert!(!report.ok(), "a perturbed configuration must fail validation:\n{}", report.render());
    assert!(report.render().contains("FAIL"));
}

#[test]
fn bless_refuses_a_foreign_trace_schema() {
    let dir = temp_dir("foreign");
    // An intact frame sealed under a future schema version, so only the
    // version check can reject it.
    let desc = workloads::by_name("sgemm").expect("known workload");
    let kt =
        trace::capture(&desc, &GpuConfig::tiny(), trace::DEFAULT_CAPTURE_CYCLES).expect("capture");
    let bytes = gpu_sim::snap::frame::seal(trace::TRACE_MAGIC, TRACE_SCHEMA_VERSION + 1, &kt);
    std::fs::write(dir.join("sgemm.fgtr"), &bytes).expect("write");

    let err = bless_dir(&dir).expect_err("bless must refuse a foreign schema");
    assert!(err.contains("refusing to bless"), "unexpected error: {err}");
    assert!(err.contains("--recapture"), "error must name the migration path: {err}");
    assert!(!dir.join("expectations.json").exists(), "refusal must not write expectations");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recapture_builds_a_corpus_that_validates() {
    let dir = temp_dir("recapture");
    recapture_in(&dir).expect("recapture seeds a fresh corpus");
    assert!(dir.join("expectations.json").exists());
    let report = run_validation_in(&dir, &GpuConfig::tiny()).expect("fresh corpus loads");
    assert!(report.ok(), "a freshly blessed corpus must pass:\n{}", report.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_validate_cli_exits_zero_and_writes_the_report() {
    let dir = temp_dir("cli");
    let out = dir.join("report.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["validate", "--out"])
        .arg(&out)
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "repro validate must exit 0 on the committed corpus\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("overall: PASS"), "stdout is the table:\n{stdout}");
    let report = std::fs::read_to_string(&out).expect("--out writes the report");
    assert_eq!(report, stdout, "the file and stdout carry the same table");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_validate_cli_rejects_unknown_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["validate", "--frobnicate"])
        .output()
        .expect("spawn repro");
    assert!(!output.status.success());
}
