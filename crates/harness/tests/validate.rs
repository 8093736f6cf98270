//! Integration tests for the `repro validate` correlation harness.
//!
//! The models must validate clean against the committed expectations under
//! `tests/golden/validate/` on the canonical configuration; a deliberately
//! perturbed configuration must fail the gates; and a fresh bless must write
//! exactly the committed expectations.

use std::path::PathBuf;
use std::process::Command;

use gpu_sim::GpuConfig;
use harness::validate::{
    bless_dir, expectations_path, run_validation, run_validation_in, run_validation_with,
    CORR_THRESHOLD, MAX_REL_ERR, METRICS,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgqos-validate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn committed_corpus_validates_clean() {
    let report = run_validation().expect("committed expectations load");
    assert!(report.ok(), "the models must pass:\n{}", report.render());
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
    // measured metrics must drift past at least one gate.
    let mut cfg = GpuConfig::tiny();
    cfg.epoch_cycles = 500;
    let report = run_validation_with(&cfg).expect("expectations still load");
    assert!(!report.ok(), "a perturbed configuration must fail validation:\n{}", report.render());
    assert!(report.render().contains("FAIL"));
}

#[test]
fn bless_writes_exactly_the_committed_expectations() {
    let dir = temp_dir("bless");
    bless_dir(&dir).expect("bless into an empty directory");
    let fresh = std::fs::read(dir.join("expectations.json")).expect("bless writes expectations");
    let committed = std::fs::read(expectations_path()).expect("committed expectations");
    assert!(fresh == committed, "the committed expectations are not what the models produce");
    let report = run_validation_in(&dir, &GpuConfig::tiny()).expect("fresh expectations load");
    assert!(report.ok(), "a freshly blessed directory must pass:\n{}", report.render());
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
        "repro validate must exit 0 against the committed expectations\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("overall: PASS"), "stdout is the table:\n{stdout}");
    let report = std::fs::read_to_string(&out).expect("--out writes the report");
    assert_eq!(report, stdout, "the file and stdout carry the same table");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_validate_cli_rejects_unknown_flags() {
    for flag in ["--frobnicate", "--recapture"] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["validate", flag])
            .output()
            .expect("spawn repro");
        assert!(!output.status.success(), "{flag} must be refused");
    }
}
