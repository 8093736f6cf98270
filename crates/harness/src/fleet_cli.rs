//! CLI driver for `repro fleet`: checkpointed, crash-resumable runs of the
//! named fleet scenarios.
//!
//! The fleet serializes its own state ([`fleet::Fleet::snapshot`]); this
//! module seals those bytes, with the scenario name, seed and checkpoint
//! cadence, in a [`frame`] and persists it through [`frame::write_atomic`],
//! so a SIGKILL at any moment leaves either the previous complete checkpoint
//! or the new one, never a torn file. `repro fleet resume <DIR>` rebuilds
//! the scenario config from the checkpoint's name and seed and continues;
//! because every scheduler decision is a pure function of config, seed, and
//! tick, the resumed run's final report is byte-identical to an
//! uninterrupted run's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fleet::{scenarios, Fleet};
use gpu_sim::snap::frame::{self, write_atomic};
use gpu_sim::telemetry::ProfPhase;

/// File name of the fleet checkpoint inside a checkpoint directory. A
/// single rolling generation: [`write_atomic`] makes each save all-or-
/// nothing, and the fleet snapshot is self-validating (version + config
/// fingerprint) on top of the frame checksum.
pub const FLEET_CHECKPOINT_FILE: &str = "fleet-ckpt.bin";

/// Default checkpoint cadence, in fleet ticks.
pub const DEFAULT_FLEET_EVERY: u64 = 5;

const MAGIC: [u8; 4] = *b"FGFL";
const FRAME_VERSION: u32 = 1;

/// A framed fleet checkpoint: everything needed to resume a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCheckpoint {
    /// Scenario name (must be in [`fleet::scenarios::SCENARIOS`]).
    pub scenario: String,
    /// Master seed the run was started with.
    pub seed: u64,
    /// Checkpoint cadence the run was started with, in ticks.
    pub every_ticks: u64,
    /// Opaque [`fleet::Fleet::snapshot`] bytes.
    pub state: Vec<u8>,
}

gpu_sim::impl_snap_struct!(FleetCheckpoint { scenario, seed, every_ticks, state });

/// Atomically persists `ckpt` into `dir` (creating it if needed) and
/// returns the file path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_checkpoint(dir: &Path, ckpt: &FleetCheckpoint) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(FLEET_CHECKPOINT_FILE);
    write_atomic(&path, &frame::seal(MAGIC, FRAME_VERSION, ckpt))?;
    Ok(path)
}

/// Loads and verifies the checkpoint in `dir`.
///
/// # Errors
///
/// A description of what failed: missing file, corrupt frame, or a frame
/// from a different build.
pub fn load_checkpoint(dir: &Path) -> Result<FleetCheckpoint, String> {
    let path = dir.join(FLEET_CHECKPOINT_FILE);
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    frame::open(MAGIC, FRAME_VERSION, &bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Outcome of a fleet run: the rendered report plus whether the run held
/// its contract (every guaranteed tenant met its floor, no request lost).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The deterministic fleet report (the command's only stdout).
    pub report: String,
    /// Whether every guaranteed SLO was met and no request was lost.
    pub ok: bool,
    /// Host-time hotspot table when profiling was requested; printed to
    /// stderr so it never perturbs the deterministic report stream.
    pub profile: Option<String>,
}

/// Optional outputs of a fleet run. The default runs nothing extra:
/// checkpointing off, cadence [`DEFAULT_FLEET_EVERY`], no trace, no
/// metrics export, profiler disarmed.
#[derive(Debug, Clone, Copy)]
pub struct FleetRunOpts<'a> {
    /// Checkpoint directory; `None` disables checkpointing.
    pub checkpoint_dir: Option<&'a Path>,
    /// Checkpoint cadence in ticks (clamped to ≥ 1).
    pub every_ticks: u64,
    /// Perfetto trace output path, written after the run completes.
    pub trace: Option<&'a Path>,
    /// Metrics export path: JSON at this path, Prometheus text at the
    /// same path with a `.prom` extension.
    pub metrics_out: Option<&'a Path>,
    /// Arm the host profiler and render a hotspot table into
    /// [`FleetOutcome::profile`].
    pub profile: bool,
}

impl Default for FleetRunOpts<'_> {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            every_ticks: DEFAULT_FLEET_EVERY,
            trace: None,
            metrics_out: None,
            profile: false,
        }
    }
}

/// Runs scenario `name` from the start with the outputs selected in
/// `opts`: checkpoints every `every_ticks` into `checkpoint_dir` when
/// given, then a Perfetto trace and/or a metrics export (JSON +
/// Prometheus) after the run completes.
///
/// # Errors
///
/// Unknown scenario names, filesystem errors, or an export document
/// failing its own schema check.
pub fn run_scenario(name: &str, seed: u64, opts: &FleetRunOpts) -> Result<FleetOutcome, String> {
    let cfg = scenarios::by_name(name, seed).ok_or_else(|| {
        format!("unknown scenario {name:?} (known: {})", scenarios::SCENARIOS.join(", "))
    })?;
    let fleet = Fleet::new(cfg);
    drive(fleet, name, seed, opts)
}

/// Resumes the run checkpointed in `dir` and finishes it, continuing the
/// checkpoint cadence recorded in the frame. `trace` and `metrics_out`, when
/// given, export the finished run exactly as a `--trace` / `--metrics-out`
/// run would — both exports are pure functions of snapshotted state, so
/// they are byte-identical to the uninterrupted run's.
///
/// # Errors
///
/// Checkpoint loading/validation failures, or errors from the continued
/// run.
pub fn resume(
    dir: &Path,
    trace: Option<&Path>,
    metrics_out: Option<&Path>,
) -> Result<FleetOutcome, String> {
    let ckpt = load_checkpoint(dir)?;
    let cfg = scenarios::by_name(&ckpt.scenario, ckpt.seed).ok_or_else(|| {
        format!("checkpointed scenario {:?} is unknown to this build", ckpt.scenario)
    })?;
    let fleet = Fleet::restore(cfg, &ckpt.state)?;
    let opts = FleetRunOpts {
        checkpoint_dir: Some(dir),
        every_ticks: ckpt.every_ticks,
        trace,
        metrics_out,
        ..FleetRunOpts::default()
    };
    drive(fleet, &ckpt.scenario, ckpt.seed, &opts)
}

fn drive(
    mut fleet: Fleet,
    scenario: &str,
    seed: u64,
    opts: &FleetRunOpts,
) -> Result<FleetOutcome, String> {
    if opts.profile {
        fleet.set_profiling(true);
    }
    let every = opts.every_ticks.max(1);
    let started = Instant::now();
    while !fleet.finished() {
        if let Some(dir) = opts.checkpoint_dir {
            if fleet.ticks().is_multiple_of(every) {
                let ckpt = FleetCheckpoint {
                    scenario: scenario.to_string(),
                    seed,
                    every_ticks: every,
                    state: fleet.snapshot(),
                };
                save_timed(&mut fleet, dir, &ckpt)?;
            }
        }
        fleet.step();
    }
    if let Some(dir) = opts.checkpoint_dir {
        // Final checkpoint: a resume of a finished run just reprints the
        // report instead of re-simulating anything.
        let ckpt = FleetCheckpoint {
            scenario: scenario.to_string(),
            seed,
            every_ticks: every,
            state: fleet.snapshot(),
        };
        save_timed(&mut fleet, dir, &ckpt)?;
    }
    let profile = opts.profile.then(|| {
        let wall = started.elapsed().as_nanos() as u64;
        crate::telemetry::render_hotspot_table(scenario, fleet.profiler(), wall)
    });
    if let Some(path) = opts.trace {
        let doc = crate::perfetto::render_fleet_trace(&fleet, scenario);
        crate::perfetto::check_chrome_trace(&doc)
            .map_err(|e| format!("internal error: fleet trace fails its own schema check: {e}"))?;
        write_atomic(path, doc.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = opts.metrics_out {
        write_metrics(&fleet, scenario, path)?;
    }
    let ok = fleet.all_guaranteed_met() && fleet.lost_requests() == 0;
    Ok(FleetOutcome { report: fleet.report(scenario), ok, profile })
}

/// Saves a checkpoint, attributing the write's wall time to
/// [`ProfPhase::CheckpointWrite`] when the profiler is armed.
fn save_timed(fleet: &mut Fleet, dir: &Path, ckpt: &FleetCheckpoint) -> Result<(), String> {
    let t = fleet.profiler().is_enabled().then(Instant::now);
    save_checkpoint(dir, ckpt).map_err(|e| format!("cannot save fleet checkpoint: {e}"))?;
    if let Some(t) = t {
        fleet.profiler_mut().add(ProfPhase::CheckpointWrite, t.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Writes the metrics pair: self-checked JSON at `path`, Prometheus text
/// at `path` with a `.prom` extension.
fn write_metrics(fleet: &Fleet, scenario: &str, path: &Path) -> Result<(), String> {
    let (json, prom) = crate::telemetry::fleet_metrics_docs(fleet, scenario)?;
    write_atomic(path, json.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let prom_path = path.with_extension("prom");
    write_atomic(&prom_path, prom.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", prom_path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fgqos-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_frame_round_trips() {
        let dir = tmp_dir("frame");
        let ckpt = FleetCheckpoint {
            scenario: "chaos".to_string(),
            seed: 42,
            every_ticks: 5,
            state: vec![1, 2, 3, 4, 5],
        };
        save_checkpoint(&dir, &ckpt).expect("save");
        assert_eq!(load_checkpoint(&dir), Ok(ckpt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_rejected_by_checksum() {
        let dir = tmp_dir("corrupt");
        let ckpt = FleetCheckpoint {
            scenario: "steady".to_string(),
            seed: 1,
            every_ticks: 1,
            state: vec![9; 64],
        };
        let path = save_checkpoint(&dir, &ckpt).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).expect("corrupt");
        let err = load_checkpoint(&dir).expect_err("must reject");
        assert!(err.contains("checksum"), "{err}");
        std::fs::write(&path, b"nope").expect("garbage");
        assert!(load_checkpoint(&dir).is_err(), "not a frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_save_and_resume_report_identically() {
        let dir = tmp_dir("resume");
        let opts = FleetRunOpts { every_ticks: 1, ..FleetRunOpts::default() };
        let full = run_scenario("steady", 7, &opts).expect("full run");
        // Simulate a crash: run the same scenario but snapshot mid-run,
        // then resume from the persisted state only.
        let cfg = scenarios::by_name("steady", 7).expect("known");
        let mut partial = Fleet::new(cfg);
        for _ in 0..4 {
            partial.step();
        }
        save_checkpoint(
            &dir,
            &FleetCheckpoint {
                scenario: "steady".to_string(),
                seed: 7,
                every_ticks: 1,
                state: partial.snapshot(),
            },
        )
        .expect("save");
        drop(partial);
        let resumed = resume(&dir, None, None).expect("resume");
        assert_eq!(resumed.report, full.report, "resume converges byte-identically");
        assert_eq!(resumed.ok, full.ok);
        // Resuming the now-finished checkpoint reprints the same report.
        let again = resume(&dir, None, None).expect("resume finished");
        assert_eq!(again.report, full.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_run_writes_the_uninterrupted_trace() {
        let dir = tmp_dir("trace");
        std::fs::create_dir_all(&dir).expect("create");
        let (full_trace, resumed_trace) = (dir.join("full.json"), dir.join("resumed.json"));
        let opts = FleetRunOpts { trace: Some(&full_trace), ..FleetRunOpts::default() };
        let full = run_scenario("steady", 7, &opts).expect("full run");
        let mut partial = Fleet::new(scenarios::by_name("steady", 7).expect("known"));
        for _ in 0..4 {
            partial.step();
        }
        let state = partial.snapshot();
        let ckpt =
            FleetCheckpoint { scenario: "steady".to_string(), seed: 7, every_ticks: 1, state };
        save_checkpoint(&dir, &ckpt).expect("save");
        let resumed = resume(&dir, Some(&resumed_trace), None).expect("resume");
        assert_eq!(resumed.report, full.report);
        let read = |path: &Path| std::fs::read(path).expect("trace written");
        assert_eq!(read(&resumed_trace), read(&full_trace), "the trace is a function of the state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let err = run_scenario("nope", 1, &FleetRunOpts::default()).expect_err("unknown");
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
