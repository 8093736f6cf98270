//! Acceptance tests for journaled runs, through the real binary.
//!
//! Covers the robustness contract end to end:
//! * a run SIGKILLed mid-case and resumed with `repro resume` prints stdout
//!   byte-identical to an uninterrupted run's;
//! * a byte flipped in one case file is reported on stderr and costs a
//!   rerun of that case alone;
//! * a case file holding another spec's record is not reused;
//! * a journal holding only some results resumes to the identical report;
//! * a watchdog-tripped case persists a failure snapshot that `repro
//!   inspect` pretty-prints alongside its health report;
//! * resuming a directory without a manifest is an error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use gpu_sim::snap::frame;
use harness::checkpoint::{
    load_failure, render_failure_snapshot, CaseRecord, CaseState, CheckpointDir, CheckpointError,
    CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgqos-checkpoint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf8 path")
}

/// `experiment` at bench scale, journaled into `dir` at the two-window chunk
/// floor: with the drills' 2 000-cycle epochs that is 8 000 cycles, so each
/// 20 000-cycle case saves two mid-case states.
fn journaled_args<'a>(dir: &'a Path, experiment: &'a str) -> [&'a str; 7] {
    ["--scale", "bench", "--checkpoint-dir", utf8(dir), "--checkpoint-every", "1", experiment]
}

/// The `smoke` drill journaled into `dir`; it must succeed.
fn journaled_smoke(dir: &Path) -> Output {
    let run = repro(&journaled_args(dir, "smoke"));
    assert!(run.status.success(), "smoke fails: {run:?}");
    run
}

/// The journal's case files, sorted by name.
fn case_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("case-")))
        .collect();
    files.sort();
    files
}

fn record(path: &Path) -> Option<CaseRecord> {
    let bytes = std::fs::read(path).ok()?;
    frame::open(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &bytes).ok()
}

/// `repro resume dir` must succeed and print `baseline`'s stdout; returns
/// its stderr.
fn resume_matches(dir: &Path, baseline: &Output) -> String {
    let resumed = repro(&["resume", utf8(dir)]);
    assert!(resumed.status.success(), "resume fails: {resumed:?}");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&baseline.stdout),
        "a resumed run prints what the uninterrupted one printed"
    );
    String::from_utf8_lossy(&resumed.stderr).into_owned()
}

// ----------------------------------------------------------------------
// Corruption drills (checksums, foreign records, partial journals)
// ----------------------------------------------------------------------

#[test]
fn corrupted_case_file_reruns_only_that_case() {
    let dir = tmp_dir("corrupt");
    let baseline = journaled_smoke(&dir);
    let files = case_files(&dir);
    assert_eq!(files.len(), 4, "one file per case");

    // Flip one byte in the middle of one case file's payload.
    let mut bytes = std::fs::read(&files[0]).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&files[0], &bytes).expect("write corruption");

    let stderr = resume_matches(&dir, &baseline);
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("warning:")).collect();
    assert_eq!(warnings.len(), 1, "exactly one case file is ignored: {stderr}");
    assert!(warnings[0].contains(utf8(&files[0])), "{}", warnings[0]);
    assert!(
        matches!(record(&files[0]).map(|r| r.state), Some(CaseState::Done(Ok(_)))),
        "the rerun case saved its result again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_changed_plan() {
    // A case file holding another spec's record is a plan that no longer
    // matches the file's name: it is not reused.
    let dir = tmp_dir("mismatch");
    let baseline = journaled_smoke(&dir);
    let files = case_files(&dir);
    std::fs::copy(&files[0], &files[1]).expect("copy a foreign record");

    let stderr = resume_matches(&dir, &baseline);
    assert_eq!(stderr.matches("another case's record").count(), 1, "{stderr}");
    let (first, second) = (record(&files[0]).expect("ok"), record(&files[1]).expect("ok"));
    assert_ne!(first.spec, second.spec, "the second file holds its own record again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_journal_prefix_reports_identically() {
    // As if the process died after two cases had finished and before the
    // other two started.
    let dir = tmp_dir("prefix");
    let baseline = journaled_smoke(&dir);
    for file in &case_files(&dir)[2..] {
        std::fs::remove_file(file).expect("remove a result");
    }
    let stderr = resume_matches(&dir, &baseline);
    assert!(!stderr.contains("warning"), "a missing file is a case not started: {stderr}");
    assert_eq!(case_files(&dir).len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_empty_dir_is_a_corrupt_error() {
    let dir = tmp_dir("void");
    std::fs::create_dir_all(&dir).expect("create");
    let err = CheckpointDir::open(&dir).expect_err("nothing to resume");
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    let resumed = repro(&["resume", utf8(&dir)]);
    assert!(!resumed.status.success());
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("manifest.bin"), "{resumed:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Failure snapshots (watchdog abort → loadable machine state)
// ----------------------------------------------------------------------

#[test]
fn watchdog_abort_persists_a_loadable_failure_snapshot() {
    let dir = tmp_dir("faulty");
    let run = repro(&journaled_args(&dir, "smoke-faulty"));
    assert!(!run.status.success(), "a failed case fails the run");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(stdout.matches(" ok ").count(), 3, "{stdout}");
    assert!(stdout.contains("FAILED  cutcp@0.50+lbm Rollover/Table1  [watchdog]"), "{stdout}");

    let snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    let [snap_path] = snaps.as_slice() else { panic!("one failure snapshot: {snaps:?}") };
    let snap = load_failure(snap_path).expect("failure snapshot loads");
    assert_eq!(snap.error.kind(), "watchdog");

    let inspected = repro(&["inspect", utf8(snap_path)]);
    assert!(inspected.status.success(), "{inspected:?}");
    let rendered = String::from_utf8_lossy(&inspected.stdout);
    assert_eq!(rendered, render_failure_snapshot(&snap));
    for needle in [
        "cutcp@0.50+lbm",
        "watchdog",
        "health report",
        "restored machine at cycle",
        "dropped to ring overflow",
    ] {
        assert!(rendered.contains(needle), "{needle} missing:\n{rendered}");
    }

    // The journal holds the failed case's result, so a resume reports the
    // same failure digest without rerunning it.
    let resumed = repro(&["resume", utf8(&dir)]);
    assert!(!resumed.status.success());
    assert_eq!(resumed.stdout, run.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// Kill-and-resume (the acceptance scenario)
// ----------------------------------------------------------------------

#[test]
fn sigkilled_sweep_resumes_to_an_identical_report() {
    let baseline_dir = tmp_dir("kill-baseline");
    let baseline = journaled_smoke(&baseline_dir);

    // The victim: killed (SIGKILL — no chance to flush or clean up) as soon
    // as a mid-case file exists.
    let killed_dir = tmp_dir("kill-victim");
    let mut victim = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(journaled_args(&killed_dir, "smoke"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_mid_case = false;
    while !saw_mid_case {
        if killed_dir.exists() {
            saw_mid_case = case_files(&killed_dir)
                .iter()
                .any(|f| matches!(record(f).map(|r| r.state), Some(CaseState::InProgress(_))));
        }
        if victim.try_wait().expect("try_wait").is_some() {
            // The run outran the poll loop; resume below still must
            // reproduce the report from the finished journal.
            break;
        }
        assert!(Instant::now() < deadline, "no mid-case file appeared in time");
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.kill().expect("SIGKILL");
    let _ = victim.wait();

    // Resume from whatever the kill left behind; the command and cadence are
    // read from the manifest, so no flags are needed.
    resume_matches(&killed_dir, &baseline);
    assert!(
        saw_mid_case,
        "the victim finished before any mid-case file; lower the cadence so the kill lands \
         mid-case"
    );
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}
