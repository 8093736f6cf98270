//! Crash-resumable sweeps: a journal of completed cases plus a periodic
//! mid-case [`Gpu`] snapshot, persisted as rotated, checksummed generations.
//!
//! A checkpointed sweep runs its cases *sequentially*, each one in chunks
//! whose boundaries are multiples of the watchdog window (itself a multiple
//! of the controller epoch — the only cycles at which [`Gpu::snapshot`] is
//! legal). After every chunk the harness writes a new checkpoint generation:
//! the sweep identity (name, scale, plan fingerprint), the journal of
//! finished `Result<CaseResult, CaseError>` entries, and the in-flight
//! case's machine snapshot, controller state and epoch telemetry. Kill the
//! process at any point — `repro resume <dir>` reloads the newest loadable
//! generation and continues bit-identically: the resumed sweep's report
//! equals the uninterrupted one's byte for byte.
//!
//! Robustness properties, each exercised by `tests/checkpoint.rs`:
//! * writes are atomic ([`frame::write_atomic`]), so a crash mid-write
//!   never leaves a torn newest file;
//! * every generation is a checksummed [`frame`]; a corrupt (bit-flipped)
//!   generation is detected, skipped with a warning, and the previous
//!   generation is used instead ([`KEEP_GENERATIONS`] are retained);
//! * a watchdog or audit failure persists the failing machine as a loadable
//!   [`FailureSnapshot`] that `repro inspect` pretty-prints alongside its
//!   [`HealthReport`](gpu_sim::HealthReport).

use std::fmt;
use std::path::{Path, PathBuf};

use gpu_sim::snap::frame;
use gpu_sim::trace::{EpochRecord, Tracer};
use gpu_sim::{Gpu, SimError, Snap, SnapshotBlob};
use qos_core::QuotaScheme;

use crate::cases::{pair_sweep, pairs, CaseSpec, Policy};
use crate::error::{failure_digest, CaseError, FailedCase};
use crate::metrics::{mean, qos_reach, CaseResult};
use crate::runner::{
    build_controller, case_config, finish_case, isolated, prepare_case, IsolatedCache,
    WATCHDOG_EPOCHS,
};
use crate::scale::RunScale;

/// Magic prefix of a sweep checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FGCK";
/// Magic prefix of a persisted failure snapshot.
pub const FAILURE_MAGIC: [u8; 4] = *b"FGFS";
/// Schema version of the checkpoint container; bumped on any layout change
/// so stale files are refused instead of misdecoded. v2: the embedded
/// machine snapshots and health reports carry the counter registry and
/// flight-recorder rings (DESIGN.md §12). v3: the `QosManager` inside an
/// in-progress case no longer carries an `α` cap, and the machine snapshot
/// beside it is schema 9.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;
/// How many checkpoint generations are kept on disk. The newest may be torn
/// or corrupt after a crash; older generations are the fallback.
pub const KEEP_GENERATIONS: usize = 3;
/// Default mid-case checkpoint cadence in cycles (rounded up to a watchdog
/// window multiple per case configuration).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 20_000;

/// Why a checkpoint could not be written, loaded, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// No loadable generation, or a structurally bad file.
    Corrupt(String),
    /// The checkpoint does not match the sweep being resumed (unknown sweep
    /// name, or the regenerated plan fingerprints differ).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint unusable: {why}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The in-flight case of an interrupted sweep: everything needed to continue
/// it bit-identically from its last chunk boundary.
#[derive(Debug, Clone)]
pub struct InProgressCase {
    /// Position of the case in the sweep plan.
    pub index: usize,
    /// Cycles already simulated (a chunk boundary, hence epoch-aligned).
    pub cycles_done: u64,
    /// [`SnapshotBlob::to_bytes`] of the machine at `cycles_done`.
    pub gpu_blob: Vec<u8>,
    /// The policy controller's epoch state.
    pub controller: crate::runner::CaseController,
    /// Epoch telemetry recorded so far (feeds the final `trace_hash`).
    pub records: Vec<EpochRecord>,
}

gpu_sim::impl_snap_struct!(InProgressCase { index, cycles_done, gpu_blob, controller, records });

/// One persisted sweep state: identity, journal, and the optional in-flight
/// case.
#[derive(Debug, Clone)]
pub struct SweepCheckpoint {
    /// Named sweep being run (see [`SWEEPS`]).
    pub sweep: String,
    /// Scale the sweep was started at.
    pub scale: RunScale,
    /// [`plan_fingerprint`] of the sweep's spec list; resume refuses to
    /// continue when the regenerated plan hashes differently.
    pub plan_fingerprint: u64,
    /// Requested checkpoint cadence (cycles). Persisted so a resume replays
    /// the exact chunk schedule — chunk boundaries shift watchdog-check
    /// timing in faulted cases, so bit-identical resumption needs the same
    /// cadence, not just the same plan.
    pub checkpoint_every: u64,
    /// Journal of finished cases, in plan order.
    pub completed: Vec<Result<CaseResult, CaseError>>,
    /// The interrupted case, if the sweep died mid-case.
    pub in_progress: Option<InProgressCase>,
}

gpu_sim::impl_snap_struct!(SweepCheckpoint {
    sweep,
    scale,
    plan_fingerprint,
    checkpoint_every,
    completed,
    in_progress,
});

/// A failing machine persisted at the moment a watchdog or audit error
/// surfaced (both land on epoch boundaries, so the snapshot is legal).
#[derive(Debug, Clone)]
pub struct FailureSnapshot {
    /// Position of the failing case in its sweep.
    pub case_index: usize,
    /// The case that failed.
    pub spec: CaseSpec,
    /// The typed failure (a watchdog error carries its
    /// [`HealthReport`](gpu_sim::HealthReport)).
    pub error: CaseError,
    /// [`SnapshotBlob::to_bytes`] of the machine at the failure cycle.
    pub gpu_blob: Vec<u8>,
}

gpu_sim::impl_snap_struct!(FailureSnapshot { case_index, spec, error, gpu_blob });

// ---------------------------------------------------------------------
// The checkpoint directory: rotated generations + failure snapshots.
// ---------------------------------------------------------------------

/// A directory of rotated sweep-checkpoint generations (`ckpt-<seq>.bin`)
/// and failure snapshots (`failure-case-<index>.snap`).
#[derive(Debug)]
pub struct CheckpointDir {
    root: PathBuf,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates `create_dir_all` failures.
    pub fn create(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(CheckpointDir { root })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    fn generation_path(&self, seq: u64) -> PathBuf {
        self.root.join(format!("ckpt-{seq:08}.bin"))
    }

    /// Existing generations, sorted oldest first.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn generations(&self) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((seq, path));
        }
        out.sort_by_key(|&(seq, _)| seq);
        Ok(out)
    }

    /// Writes `ckpt` as a new generation (atomically) and prunes old ones,
    /// keeping the newest [`KEEP_GENERATIONS`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the write (pruning failures are
    /// ignored — stale generations are harmless).
    pub fn save(&self, ckpt: &SweepCheckpoint) -> std::io::Result<PathBuf> {
        let generations = self.generations()?;
        let seq = generations.last().map_or(0, |&(seq, _)| seq + 1);
        let path = self.generation_path(seq);
        frame::write_atomic(
            &path,
            &frame::seal(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, ckpt),
        )?;
        if generations.len() + 1 > KEEP_GENERATIONS {
            for (_, stale) in &generations[..generations.len() + 1 - KEEP_GENERATIONS] {
                let _ = std::fs::remove_file(stale);
            }
        }
        Ok(path)
    }

    /// Loads the newest loadable generation, degrading gracefully: a corrupt
    /// or truncated generation is skipped with a warning and the next-older
    /// one is tried. Returns `None` (plus the warnings) when no generation
    /// loads.
    ///
    /// # Errors
    ///
    /// Only on failure to list the directory; per-file problems degrade to
    /// warnings instead.
    pub fn load_latest(&self) -> std::io::Result<(Option<SweepCheckpoint>, Vec<String>)> {
        let mut warnings = Vec::new();
        for (_, path) in self.generations()?.into_iter().rev() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    warnings.push(format!("skipping {}: unreadable ({e})", path.display()));
                    continue;
                }
            };
            match frame::open::<SweepCheckpoint>(
                CHECKPOINT_MAGIC,
                CHECKPOINT_SCHEMA_VERSION,
                &bytes,
            ) {
                Ok(ckpt) => return Ok((Some(ckpt), warnings)),
                Err(why) => warnings.push(format!(
                    "skipping corrupt checkpoint {}: {why}; falling back to previous generation",
                    path.display()
                )),
            }
        }
        Ok((None, warnings))
    }

    /// Persists the machine state of a failed case for `repro inspect`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_failure(&self, snap: &FailureSnapshot) -> std::io::Result<PathBuf> {
        let path = self.root.join(format!("failure-case-{:04}.snap", snap.case_index));
        frame::write_atomic(&path, &frame::seal(FAILURE_MAGIC, CHECKPOINT_SCHEMA_VERSION, snap))?;
        Ok(path)
    }
}

/// Loads a failure snapshot written by [`CheckpointDir::save_failure`].
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable, torn, or checksum-bad.
pub fn load_failure(path: &Path) -> Result<FailureSnapshot, CheckpointError> {
    let bytes = std::fs::read(path)?;
    frame::open(FAILURE_MAGIC, CHECKPOINT_SCHEMA_VERSION, &bytes)
        .map_err(|why| CheckpointError::Corrupt(format!("{}: {why}", path.display())))
}

// ---------------------------------------------------------------------
// Named sweeps (self-describing resume) and the plan fingerprint.
// ---------------------------------------------------------------------

/// Named sweeps `repro run` accepts; a checkpoint records the name + scale,
/// so `repro resume` can regenerate the identical plan with no other input.
///
/// `smoke-faulty` is the failure drill: its second case livelocks under an
/// injected quota starvation, trips the watchdog, and leaves a
/// `failure-case-0001.snap` for `repro inspect` to pretty-print.
pub const SWEEPS: [&str; 5] = ["smoke", "smoke-faulty", "fig6a", "pairs-rollover", "pairs-spart"];

/// The epoch override of the `smoke`/`smoke-faulty` sweeps: short enough
/// that even a `Bench`-scale case spans several watchdog windows, so the
/// kill-and-resume tests exercise mid-case snapshots cheaply.
const SMOKE_EPOCH_CYCLES: u64 = 2_000;

fn smoke_specs(scale: RunScale) -> Vec<CaseSpec> {
    pairs()
        .into_iter()
        .take(4)
        .map(|(q, b)| {
            let mut spec = CaseSpec::new(
                &[q, b],
                &[Some(0.5), None],
                Policy::Quota(QuotaScheme::Rollover),
                scale.cycles(),
            );
            spec.epoch_cycles = Some(SMOKE_EPOCH_CYCLES);
            spec
        })
        .collect()
}

/// Regenerates the spec list of a named sweep at a scale. Deterministic:
/// the same `(name, scale)` always yields the same plan (and hence the same
/// [`plan_fingerprint`]).
pub fn sweep_specs(name: &str, scale: RunScale) -> Option<Vec<CaseSpec>> {
    let goals = scale.goals();
    match name {
        // A handful of pair cases: small enough for tests and CI smoke jobs,
        // big enough to cross several checkpoint generations.
        "smoke" => Some(smoke_specs(scale)),
        // The smoke sweep with a livelock injected into its second case:
        // all quotas starve mid-run, the watchdog trips, and the failing
        // machine is persisted as a failure snapshot.
        "smoke-faulty" => {
            let mut specs = smoke_specs(scale);
            specs[1].faults =
                gpu_sim::FaultPlan::one(3 * SMOKE_EPOCH_CYCLES, gpu_sim::FaultKind::StarveQuota);
            Some(specs)
        }
        "fig6a" => Some(pair_sweep(&Policy::FIG6A, &goals, scale.cycles(), scale.case_stride())),
        "pairs-rollover" => Some(pair_sweep(
            &[Policy::Quota(QuotaScheme::Rollover)],
            &goals,
            scale.cycles(),
            scale.case_stride(),
        )),
        "pairs-spart" => {
            Some(pair_sweep(&[Policy::Spart], &goals, scale.cycles(), scale.case_stride()))
        }
        _ => None,
    }
}

/// FNV-1a fingerprint over the encoded spec list: two plans fingerprint
/// equal iff every spec field is identical.
pub fn plan_fingerprint(specs: &[CaseSpec]) -> u64 {
    let mut buf = Vec::new();
    specs.len().encode(&mut buf);
    for spec in specs {
        spec.encode(&mut buf);
    }
    gpu_sim::snap::fnv1a(&buf)
}

// ---------------------------------------------------------------------
// The checkpointed sweep driver.
// ---------------------------------------------------------------------

/// Result of a checkpointed (or resumed) sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Name of the sweep.
    pub sweep: String,
    /// Scale it ran at.
    pub scale: RunScale,
    /// The plan that was run, in order.
    pub specs: Vec<CaseSpec>,
    /// One journal entry per case, in plan order.
    pub outcomes: Vec<Result<CaseResult, CaseError>>,
    /// Degradation warnings (corrupt generations skipped, discarded
    /// mid-case state, …); empty on a clean run.
    pub warnings: Vec<String>,
}

impl SweepOutcome {
    /// Renders the sweep's final report. Pure function of the journal, so an
    /// interrupted-then-resumed sweep prints the same bytes as an
    /// uninterrupted one.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep {} [{:?} scale, {} case(s)]",
            self.sweep,
            self.scale,
            self.specs.len()
        );
        for (index, (outcome, spec)) in self.outcomes.iter().zip(&self.specs).enumerate() {
            match outcome {
                Ok(r) => {
                    let ipc: Vec<String> = r.ipc.iter().map(|v| format!("{v:.4}")).collect();
                    let _ = writeln!(
                        out,
                        "  case {index:3} ok      {}  ipc=[{}] trace={:#018x}",
                        spec.label(),
                        ipc.join(", "),
                        r.trace_hash
                    );
                }
                Err(e) => {
                    let _ =
                        writeln!(out, "  case {index:3} FAILED  {}  [{}]", spec.label(), e.kind());
                }
            }
        }
        let ok: Vec<&CaseResult> = self.outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        let _ = writeln!(
            out,
            "QoS reach {:.3} | mean non-QoS throughput {:.3} | {} failure(s)",
            qos_reach(ok.iter().copied()),
            mean(ok.iter().copied(), CaseResult::nonqos_normalized),
            self.outcomes.len() - ok.len()
        );
        let failures: Vec<FailedCase> = self
            .outcomes
            .iter()
            .zip(&self.specs)
            .enumerate()
            .filter_map(|(index, (outcome, spec))| {
                outcome.as_ref().err().map(|error| FailedCase {
                    index,
                    spec: spec.clone(),
                    error: error.clone(),
                })
            })
            .collect();
        out.push_str(&failure_digest(&failures));
        out
    }
}

struct SweepIdentity<'a> {
    sweep: &'a str,
    scale: RunScale,
    plan_fingerprint: u64,
    checkpoint_every: u64,
}

impl SweepIdentity<'_> {
    fn checkpoint(
        &self,
        completed: &[Result<CaseResult, CaseError>],
        in_progress: Option<InProgressCase>,
    ) -> SweepCheckpoint {
        SweepCheckpoint {
            sweep: self.sweep.to_string(),
            scale: self.scale,
            plan_fingerprint: self.plan_fingerprint,
            checkpoint_every: self.checkpoint_every,
            completed: completed.to_vec(),
            in_progress,
        }
    }
}

/// Rounds the requested checkpoint cadence up to a whole number of watchdog
/// windows for this case — at least two — so every mid-case checkpoint lands
/// on an epoch-aligned chunk boundary where [`Gpu::snapshot`] is legal.
///
/// The two-window floor matters for liveness detection: `try_run` checks for
/// progress at absolute multiples of the window *strictly inside* the call,
/// so a chunk spanning exactly one window would contain no check at all and
/// a livelock would run to its cycle budget undetected. With ≥ 2 windows per
/// chunk every chunk contains an interior check, and a wedged machine trips
/// within at most two windows (one later than a straight run at worst —
/// checks coinciding with chunk boundaries are skipped).
fn chunk_cycles(every: u64, epoch_cycles: u64) -> u64 {
    let window = WATCHDOG_EPOCHS * epoch_cycles;
    every.max(1).div_ceil(window).max(2) * window
}

/// Runs one case in chunks, persisting a checkpoint generation after each
/// chunk and a [`FailureSnapshot`] if the simulator reports a health error.
#[allow(clippy::too_many_arguments)]
fn run_case_chunked(
    spec: &CaseSpec,
    index: usize,
    iso: &IsolatedCache,
    dir: &CheckpointDir,
    every: u64,
    resume: Option<InProgressCase>,
    completed: &[Result<CaseResult, CaseError>],
    identity: &SweepIdentity<'_>,
    warnings: &mut Vec<String>,
) -> Result<CaseResult, CaseError> {
    let mut prepared = prepare_case(spec, iso)?;
    let (mut tracer, mut done) = match resume {
        Some(ip) => {
            debug_assert_eq!(ip.index, index);
            let restored =
                SnapshotBlob::from_bytes(&ip.gpu_blob).and_then(|blob| prepared.gpu.restore(&blob));
            match restored {
                Ok(()) => (Tracer::from_parts(ip.controller, ip.records), ip.cycles_done),
                Err(e) => {
                    // The journal survives; only the mid-case state is lost.
                    warnings.push(format!(
                        "case {index}: discarding unusable mid-case snapshot ({e}); \
                         restarting the case from cycle 0"
                    ));
                    let ctrl = build_controller(spec, &prepared.kids, &prepared.goal_ipc);
                    (Tracer::new(ctrl), 0)
                }
            }
        }
        None => {
            let ctrl = build_controller(spec, &prepared.kids, &prepared.goal_ipc);
            (Tracer::new(ctrl), 0)
        }
    };

    let chunk = chunk_cycles(every, prepared.gpu.config().epoch_cycles);
    while done < spec.cycles {
        let step = chunk.min(spec.cycles - done);
        if let Err(sim_err) = prepared.gpu.try_run(step, &mut tracer) {
            // Watchdog trips and audit failures surface on epoch boundaries,
            // so the failing machine is snapshot-legal; persist it for
            // `repro inspect`.
            let error = CaseError::from(sim_err);
            match prepared.gpu.snapshot() {
                Ok(blob) => {
                    let snap = FailureSnapshot {
                        case_index: index,
                        spec: spec.clone(),
                        error: error.clone(),
                        gpu_blob: blob.to_bytes(),
                    };
                    if let Err(e) = dir.save_failure(&snap) {
                        warnings
                            .push(format!("case {index}: could not persist failure snapshot: {e}"));
                    }
                }
                Err(e) => warnings.push(format!(
                    "case {index}: failure state not snapshot-legal ({e}); \
                     no failure snapshot persisted"
                )),
            }
            return Err(error);
        }
        done += step;
        if done < spec.cycles {
            let blob = prepared
                .gpu
                .snapshot()
                .expect("chunk boundaries are watchdog-window (hence epoch) aligned");
            let in_progress = InProgressCase {
                index,
                cycles_done: done,
                gpu_blob: blob.to_bytes(),
                controller: tracer.inner().clone(),
                records: tracer.records().to_vec(),
            };
            if let Err(e) = dir.save(&identity.checkpoint(completed, Some(in_progress))) {
                warnings.push(format!("case {index}: checkpoint write failed: {e}"));
            }
        }
    }
    Ok(finish_case(spec, &prepared, tracer.records()))
}

#[allow(clippy::too_many_arguments)]
fn drive(
    sweep: &str,
    scale: RunScale,
    specs: Vec<CaseSpec>,
    dir: &CheckpointDir,
    every: u64,
    mut journal: Vec<Result<CaseResult, CaseError>>,
    mut in_progress: Option<InProgressCase>,
    mut warnings: Vec<String>,
) -> Result<SweepOutcome, CheckpointError> {
    let identity = SweepIdentity {
        sweep,
        scale,
        plan_fingerprint: plan_fingerprint(&specs),
        checkpoint_every: every,
    };
    journal.truncate(specs.len());
    let iso = IsolatedCache::new();
    for (index, spec) in specs.iter().enumerate().skip(journal.len()) {
        let mut resume = in_progress.take().filter(|ip| ip.index == index);
        // The retry starts from scratch: the deterministic mid-case state
        // would just reproduce the panic.
        let result = isolated(|| {
            let resume = resume.take();
            run_case_chunked(
                spec,
                index,
                &iso,
                dir,
                every,
                resume,
                &journal,
                &identity,
                &mut warnings,
            )
        });
        journal.push(result);
        if let Err(e) = dir.save(&identity.checkpoint(&journal, None)) {
            warnings.push(format!("case {index}: checkpoint write failed: {e}"));
        }
    }
    Ok(SweepOutcome { sweep: sweep.to_string(), scale, specs, outcomes: journal, warnings })
}

/// Runs a named sweep from the start, checkpointing into `dir` roughly every
/// `every` cycles of each case.
///
/// # Errors
///
/// [`CheckpointError::Mismatch`] for an unknown sweep name; I/O errors from
/// the checkpoint directory.
pub fn run_sweep_checkpointed(
    sweep: &str,
    scale: RunScale,
    dir: &CheckpointDir,
    every: u64,
) -> Result<SweepOutcome, CheckpointError> {
    let specs = sweep_specs(sweep, scale).ok_or_else(|| {
        CheckpointError::Mismatch(format!("unknown sweep {sweep:?} (known: {})", SWEEPS.join(", ")))
    })?;
    drive(sweep, scale, specs, dir, every, Vec::new(), None, Vec::new())
}

/// Resumes an interrupted sweep from the newest loadable checkpoint in
/// `dir`, continuing mid-case from the persisted machine snapshot. The
/// checkpoint cadence defaults to the one persisted in the checkpoint (so
/// the chunk schedule — and hence watchdog-check timing in faulted cases —
/// replays exactly); `every` overrides it.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] when no generation loads;
/// [`CheckpointError::Mismatch`] when the stored sweep name is unknown or
/// the regenerated plan fingerprints differently (the code or plan changed
/// since the checkpoint was written).
pub fn resume_sweep(
    dir: &CheckpointDir,
    every: Option<u64>,
) -> Result<SweepOutcome, CheckpointError> {
    let (latest, warnings) = dir.load_latest()?;
    let ckpt = latest.ok_or_else(|| {
        CheckpointError::Corrupt(format!(
            "no loadable checkpoint generation in {}",
            dir.path().display()
        ))
    })?;
    let specs = sweep_specs(&ckpt.sweep, ckpt.scale).ok_or_else(|| {
        CheckpointError::Mismatch(format!("checkpoint names unknown sweep {:?}", ckpt.sweep))
    })?;
    let fingerprint = plan_fingerprint(&specs);
    if fingerprint != ckpt.plan_fingerprint {
        return Err(CheckpointError::Mismatch(format!(
            "plan fingerprint changed: checkpoint {:#018x}, regenerated {fingerprint:#018x}",
            ckpt.plan_fingerprint
        )));
    }
    drive(
        &ckpt.sweep.clone(),
        ckpt.scale,
        specs,
        dir,
        every.unwrap_or(ckpt.checkpoint_every),
        ckpt.completed,
        ckpt.in_progress,
        warnings,
    )
}

// ---------------------------------------------------------------------
// Failure-snapshot inspection.
// ---------------------------------------------------------------------

/// Pretty-prints a persisted failure snapshot: the case, the typed error
/// (with its health report when the watchdog tripped), and the machine
/// state restored from the blob.
pub fn render_failure_snapshot(snap: &FailureSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "failure snapshot: case {} — {}", snap.case_index, snap.spec.label());
    let _ = writeln!(out, "error [{}]: {}", snap.error.kind(), snap.error);
    if let CaseError::Sim(SimError::Watchdog(report)) = &snap.error {
        let _ = writeln!(out, "health report: {}", report.summary());
        let _ = writeln!(
            out,
            "  cycle {} | window {} | last progress at {} | {} warp instruction(s) issued",
            report.cycle, report.window, report.last_progress_cycle, report.total_issued
        );
        for k in &report.kernels {
            let _ = writeln!(
                out,
                "  kernel {} ({}): {} resident TB(s), {} preempted, quota {}, \
                 gated on {} SM(s) ({} exhausted), {} thread insts",
                k.kernel,
                k.name,
                k.resident_tbs,
                k.preempted_tbs,
                k.quota,
                k.gated_sms,
                k.exhausted_sms,
                k.thread_insts
            );
        }
        if !report.events.is_empty() {
            let _ = writeln!(out, "flight recorder (most recent last):");
            for event in &report.events {
                let _ = writeln!(out, "  {event}");
            }
        }
    }
    match SnapshotBlob::from_bytes(&snap.gpu_blob) {
        Ok(blob) => {
            let _ = writeln!(
                out,
                "machine snapshot: schema v{}, config fingerprint {:#018x}, {} payload byte(s)",
                blob.version(),
                blob.config_fingerprint(),
                blob.payload_len()
            );
            let mut gpu = Gpu::new(case_config(&snap.spec));
            match gpu.restore(&blob) {
                Ok(()) => {
                    let stats = gpu.stats();
                    let _ = writeln!(out, "restored machine at cycle {}:", gpu.cycle());
                    for k in gpu.kernel_ids() {
                        let _ = writeln!(
                            out,
                            "  kernel {}: ipc {:.4}, {} thread insts, {} TB(s) completed",
                            k.index(),
                            stats.ipc(k),
                            stats.kernel(k).thread_insts,
                            stats.kernel(k).tbs_completed
                        );
                    }
                    let dropped = gpu.events().dropped()
                        + gpu.sms().iter().map(|sm| sm.events().dropped()).sum::<u64>();
                    let _ = writeln!(
                        out,
                        "flight recorder: {} event(s) buffered, {} dropped to ring overflow",
                        gpu.events().len()
                            + gpu.sms().iter().map(|sm| sm.events().len()).sum::<usize>(),
                        dropped
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "machine snapshot does not restore: {e}");
                }
            }
        }
        Err(e) => {
            let _ = writeln!(out, "machine snapshot is unusable: {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fgqos-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_checkpoint(completed: usize) -> SweepCheckpoint {
        let specs = sweep_specs("smoke", RunScale::Bench).expect("known sweep");
        SweepCheckpoint {
            sweep: "smoke".to_string(),
            scale: RunScale::Bench,
            plan_fingerprint: plan_fingerprint(&specs),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            completed: (0..completed)
                .map(|i| Err(CaseError::Panicked { payload: format!("case {i}"), attempts: 2 }))
                .collect(),
            in_progress: None,
        }
    }

    #[test]
    fn generations_rotate_and_latest_wins() {
        let dir = CheckpointDir::create(tmp_dir("rotate")).expect("create");
        for i in 0..5 {
            dir.save(&tiny_checkpoint(i)).expect("save");
        }
        let generations = dir.generations().expect("list");
        assert_eq!(generations.len(), KEEP_GENERATIONS, "old generations pruned");
        let (latest, warnings) = dir.load_latest().expect("load");
        assert!(warnings.is_empty());
        assert_eq!(latest.expect("loadable").completed.len(), 4);
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = CheckpointDir::create(tmp_dir("empty")).expect("create");
        let (latest, warnings) = dir.load_latest().expect("load");
        assert!(latest.is_none());
        assert!(warnings.is_empty());
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn plan_fingerprint_is_sensitive_to_every_spec_field() {
        let a = sweep_specs("smoke", RunScale::Bench).expect("known");
        let mut b = a.clone();
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
        b[0].cycles += 1;
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&b));
        assert_ne!(
            plan_fingerprint(&a),
            plan_fingerprint(&sweep_specs("smoke", RunScale::Smoke).expect("known"))
        );
    }

    #[test]
    fn chunking_rounds_up_to_watchdog_windows() {
        // window = 2 × epoch; the floor is two windows so every chunk
        // contains an interior liveness check.
        assert_eq!(chunk_cycles(1, 10_000), 40_000);
        assert_eq!(chunk_cycles(20_000, 10_000), 40_000);
        assert_eq!(chunk_cycles(40_001, 10_000), 60_000);
        assert_eq!(chunk_cycles(100_000, 1_000), 100_000);
    }

    #[test]
    fn unknown_sweep_is_a_mismatch() {
        let dir = CheckpointDir::create(tmp_dir("unknown")).expect("create");
        let err = run_sweep_checkpointed("nope", RunScale::Bench, &dir, 1).expect_err("bad");
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let dir = CheckpointDir::create(tmp_dir("roundtrip")).expect("create");
        let ckpt = tiny_checkpoint(2);
        let path = dir.save(&ckpt).expect("save");
        let (back, warnings) = dir.load_latest().expect("load");
        let back = back.expect("loadable");
        assert!(warnings.is_empty());
        assert_eq!(back.sweep, ckpt.sweep);
        assert_eq!(back.plan_fingerprint, ckpt.plan_fingerprint);
        assert_eq!(back.completed.len(), 2);
        // Wired to the shared frame: a sweep checkpoint is not a failure
        // snapshot, whatever its payload would decode to.
        let err = load_failure(&path).expect_err("FGCK is not FGFS");
        assert!(
            matches!(&err, CheckpointError::Corrupt(why) if why.contains("bad magic")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir.path());
    }
}
