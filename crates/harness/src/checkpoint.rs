//! Journaled runs: one checksummed file per case, a manifest, and failure
//! snapshots, all in one directory.
//!
//! A [`Session`](crate::experiments::Session) given a [`CheckpointDir`]
//! journals every case it runs. A case owns `case-<key>.bin`, where the key
//! is FNV-1a of its encoded spec, and the case runner ([`crate::runner`])
//! replaces that file after every chunk with the case's [`CaseState`]: its
//! machine, controller and epoch telemetry while it runs, its final
//! `Result<CaseResult, CaseError>` once it ends. Each worker writes only its
//! own case's file, so a journaled run is as parallel as an unjournaled one.
//! Before simulating a case the runner reads its file: a stored result is
//! reused, an in-progress state is continued, anything else is rerun. The
//! [`Manifest`] records the command (experiments, scale, cadence), so `repro
//! resume <dir>` reruns it against the journal and prints the same bytes as
//! an uninterrupted run; a finished journal re-renders without simulating.
//!
//! Robustness properties, each exercised by `tests/checkpoint.rs`:
//! * writes are atomic ([`frame::write_atomic`]), so a crash mid-write
//!   never leaves a torn file;
//! * every file is a checksummed [`frame`]; a corrupt case file, or one
//!   holding another spec's record, is reported on stderr and costs a rerun
//!   of that one case;
//! * a watchdog or audit failure persists the failing machine as a loadable
//!   [`FailureSnapshot`] that `repro inspect` pretty-prints alongside its
//!   [`HealthReport`](gpu_sim::HealthReport).

use std::fmt;
use std::path::{Path, PathBuf};

use gpu_sim::snap::frame;
use gpu_sim::trace::{EpochRecord, Tracer};
use gpu_sim::{Gpu, SimError, SnapshotBlob};

use crate::cases::CaseSpec;
use crate::error::CaseError;
use crate::metrics::CaseResult;
use crate::runner::{case_config, CaseController};
use crate::scale::RunScale;

/// Magic prefix of a case file and of the manifest.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FGCK";
/// Magic prefix of a persisted failure snapshot.
pub const FAILURE_MAGIC: [u8; 4] = *b"FGFS";
/// Schema version of the journal's files; bumped on any layout change so
/// stale files are refused instead of misdecoded. v2: the embedded machine
/// snapshots and health reports carry the counter registry and
/// flight-recorder rings (DESIGN.md §12). v3: the `QosManager` inside an
/// in-progress case no longer carries an `α` cap. v4: one [`CaseRecord`]
/// per file plus a [`Manifest`] replace the sweep-wide generations, and a
/// failure snapshot no longer carries a sweep position.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 4;
/// Default chunk cadence of a journaled run in cycles (rounded up to whole
/// epochs per case configuration).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 20_000;
/// File name of the manifest inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A missing, unreadable or structurally bad file.
    Corrupt(String),
    /// The journal names something this build does not know.
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

/// A case interrupted at a chunk boundary: everything needed to continue it
/// bit-identically.
#[derive(Debug, Clone)]
pub struct InProgressCase {
    /// Cycles already simulated (a chunk boundary, hence epoch-aligned).
    pub cycles_done: u64,
    /// [`SnapshotBlob::to_bytes`] of the machine at `cycles_done`.
    pub gpu_blob: Vec<u8>,
    /// The policy controller's epoch state.
    pub controller: CaseController,
    /// Epoch telemetry recorded so far (feeds the final `trace_hash`).
    pub records: Vec<EpochRecord>,
}

gpu_sim::impl_snap_struct!(InProgressCase { cycles_done, gpu_blob, controller, records });

/// Where a journaled case stands.
#[derive(Debug, Clone)]
pub enum CaseState {
    /// Interrupted at a chunk boundary.
    InProgress(InProgressCase),
    /// Finished, successfully or not.
    Done(Result<CaseResult, CaseError>),
}

gpu_sim::impl_snap_enum!(CaseState { InProgress(case) = 0, Done(outcome) = 1 });

/// The content of a case file: the spec it belongs to and its state.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    /// The case; a file whose spec differs from the requested one is not
    /// reused.
    pub spec: CaseSpec,
    /// Its state.
    pub state: CaseState,
}

gpu_sim::impl_snap_struct!(CaseRecord { spec, state });

/// The command a journal was started by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Experiment names as given (`all` included).
    pub experiments: Vec<String>,
    /// The run scale.
    pub scale: RunScale,
    /// Requested chunk cadence in cycles; a resume saves at the same points.
    pub checkpoint_every: u64,
}

gpu_sim::impl_snap_struct!(Manifest { experiments, scale, checkpoint_every });

/// A failing machine persisted at the moment a watchdog or audit error
/// surfaced (both stop on an epoch edge before running it, so the snapshot
/// is legal, and restored and run on it fails again there).
#[derive(Debug, Clone)]
pub struct FailureSnapshot {
    /// The case that failed.
    pub spec: CaseSpec,
    /// The typed failure (a watchdog error carries its
    /// [`HealthReport`](gpu_sim::HealthReport)).
    pub error: CaseError,
    /// [`SnapshotBlob::to_bytes`] of the machine at the failure cycle.
    pub gpu_blob: Vec<u8>,
}

gpu_sim::impl_snap_struct!(FailureSnapshot { spec, error, gpu_blob });

/// The name of a case's files: FNV-1a of its encoded spec, so two specs
/// share a key only if every field is identical (or they collide, which the
/// spec stored beside the state catches).
pub(crate) fn case_key(spec: &CaseSpec) -> u64 {
    gpu_sim::snap::fnv1a(&gpu_sim::snap::encode_to_vec(spec))
}

/// Rounds the requested cadence up to a whole number of epochs for this
/// case, so every chunk ends on an epoch boundary, where [`Gpu::snapshot`]
/// is legal.
pub(crate) fn chunk_cycles(every: u64, epoch_cycles: u64) -> u64 {
    every.max(1).div_ceil(epoch_cycles).saturating_mul(epoch_cycles)
}

/// A journal directory: the [`Manifest`], one `case-<key>.bin` per case and
/// a `failure-<key>.snap` per failed case.
#[derive(Debug)]
pub struct CheckpointDir {
    root: PathBuf,
    manifest: Manifest,
}

impl CheckpointDir {
    /// Starts a journal in `root` (creating it if needed) by writing
    /// `manifest`. Case files already there are reused where their spec
    /// matches.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(root: impl Into<PathBuf>, manifest: Manifest) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let file = frame::seal(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &manifest);
        frame::write_atomic(&root.join(MANIFEST_FILE), &file)?;
        Ok(CheckpointDir { root, manifest })
    }

    /// Opens the journal in `root` by reading its manifest.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the manifest is missing, torn or
    /// checksum-bad; [`CheckpointError::Mismatch`] when it names an
    /// experiment this build does not know.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let root = root.into();
        let path = root.join(MANIFEST_FILE);
        let corrupt = |why: String| CheckpointError::Corrupt(format!("{}: {why}", path.display()));
        let bytes = std::fs::read(&path).map_err(|e| corrupt(e.to_string()))?;
        let manifest: Manifest = frame::open(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &bytes)
            .map_err(|e| corrupt(e.to_string()))?;
        crate::experiments::select(&manifest.experiments).map_err(CheckpointError::Mismatch)?;
        Ok(CheckpointDir { root, manifest })
    }

    /// The command this journal records.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The path of `spec`'s case file.
    pub fn case_path(&self, spec: &CaseSpec) -> PathBuf {
        self.root.join(format!("case-{:016x}.bin", case_key(spec)))
    }

    /// What `spec`'s case file holds. A missing file is a case not started
    /// yet; a file that is unreadable, fails its frame check or holds another
    /// spec's record is reported on stderr and ignored, so that case alone
    /// is rerun.
    pub(crate) fn load_case(&self, spec: &CaseSpec) -> Option<CaseState> {
        let path = self.case_path(spec);
        let why = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => format!("unreadable ({e})"),
            Ok(bytes) => {
                match frame::open::<CaseRecord>(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &bytes)
                {
                    Ok(record) if record.spec == *spec => return Some(record.state),
                    Ok(_) => "it holds another case's record".to_string(),
                    Err(e) => e.to_string(),
                }
            }
        };
        eprintln!("warning: ignoring {} ({why}); rerunning {}", path.display(), spec.label());
        None
    }

    /// Replaces the case file of `record.spec`. A failed write is reported
    /// on stderr: the run goes on, and a resume redoes what it did not
    /// record.
    pub fn save_case(&self, record: &CaseRecord) {
        let path = self.case_path(&record.spec);
        let file = frame::seal(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, record);
        if let Err(e) = frame::write_atomic(&path, &file) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// Saves `spec`'s machine and controller after `done` cycles.
    pub(crate) fn save_progress(
        &self,
        spec: &CaseSpec,
        done: u64,
        gpu: &Gpu,
        tracer: &Tracer<CaseController>,
    ) {
        let blob = gpu.snapshot().expect("chunk boundaries are epoch-aligned");
        let state = CaseState::InProgress(InProgressCase {
            cycles_done: done,
            gpu_blob: blob.into_bytes(),
            controller: tracer.inner().clone(),
            records: tracer.records().to_vec(),
        });
        self.save_case(&CaseRecord { spec: spec.clone(), state });
    }

    /// Persists the machine of a case that failed with `error` as
    /// `failure-<key>.snap`, for `repro inspect`.
    pub(crate) fn save_failure(&self, spec: &CaseSpec, error: &CaseError, gpu: &Gpu) {
        let path = self.root.join(format!("failure-{:016x}.snap", case_key(spec)));
        let saved = gpu.snapshot().map_err(|e| e.to_string()).and_then(|blob| {
            let snap = FailureSnapshot {
                spec: spec.clone(),
                error: error.clone(),
                gpu_blob: blob.into_bytes(),
            };
            let file = frame::seal(FAILURE_MAGIC, CHECKPOINT_SCHEMA_VERSION, &snap);
            frame::write_atomic(&path, &file).map_err(|e| e.to_string())
        });
        if let Err(why) = saved {
            eprintln!("warning: {}: no failure snapshot persisted ({why})", spec.label());
        }
    }
}

/// Loads a failure snapshot written by a journaled run.
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable, torn, or checksum-bad.
pub fn load_failure(path: &Path) -> Result<FailureSnapshot, CheckpointError> {
    let bytes = std::fs::read(path)?;
    frame::open(FAILURE_MAGIC, CHECKPOINT_SCHEMA_VERSION, &bytes)
        .map_err(|why| CheckpointError::Corrupt(format!("{}: {why}", path.display())))
}

/// Pretty-prints a persisted failure snapshot: the case, the typed error
/// (with its health report when the watchdog tripped), and the machine
/// state restored from the blob.
pub fn render_failure_snapshot(snap: &FailureSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "failure snapshot: {}", snap.spec.label());
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
    use crate::cases::Policy;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fgqos-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(experiments: &[&str]) -> Manifest {
        Manifest {
            experiments: experiments.iter().map(|s| s.to_string()).collect(),
            scale: RunScale::Bench,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    fn spec() -> CaseSpec {
        CaseSpec::new(&["sgemm", "lbm"], &[Some(0.5), None], Policy::Spart, 20_000)
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let root = tmp_dir("empty");
        std::fs::create_dir_all(&root).expect("create");
        let err = CheckpointDir::open(&root).expect_err("no manifest");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        let dir = CheckpointDir::create(&root, manifest(&["smoke"])).expect("create");
        assert!(dir.load_case(&spec()).is_none(), "no case file, no state");
        assert_eq!(CheckpointDir::open(&root).expect("reopens").manifest(), dir.manifest());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn case_key_is_sensitive_to_every_spec_field() {
        let a = spec();
        let mut b = a.clone();
        assert_eq!(case_key(&a), case_key(&b));
        b.cycles += 1;
        assert_ne!(case_key(&a), case_key(&b));
        let mut c = a.clone();
        c.epoch_cycles = Some(2_000);
        assert_ne!(case_key(&a), case_key(&c));
    }

    #[test]
    fn chunking_rounds_up_to_epochs() {
        assert_eq!(chunk_cycles(0, 10_000), 10_000);
        assert_eq!(chunk_cycles(1, 10_000), 10_000);
        assert_eq!(chunk_cycles(20_000, 10_000), 20_000);
        assert_eq!(chunk_cycles(20_001, 10_000), 30_000);
        assert_eq!(chunk_cycles(100_000, 1_000), 100_000);
        assert_eq!(chunk_cycles(u64::MAX, 10_000), u64::MAX, "a hostile cadence saturates");
    }

    #[test]
    fn unknown_sweep_is_a_mismatch() {
        let root = tmp_dir("unknown");
        CheckpointDir::create(&root, manifest(&["fig6a", "nope"])).expect("create");
        let err = CheckpointDir::open(&root).expect_err("an unknown experiment");
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let root = tmp_dir("roundtrip");
        let dir = CheckpointDir::create(&root, manifest(&["all"])).expect("create");
        let error = CaseError::Panicked { payload: "case 0".to_string(), attempts: 2 };
        dir.save_case(&CaseRecord { spec: spec(), state: CaseState::Done(Err(error)) });
        let back = dir.load_case(&spec()).expect("loadable");
        assert!(matches!(back, CaseState::Done(Err(CaseError::Panicked { attempts: 2, .. }))));
        // Wired to the shared frame: a case file is not a failure snapshot,
        // whatever its payload would decode to.
        let err = load_failure(&dir.case_path(&spec())).expect_err("FGCK is not FGFS");
        assert!(
            matches!(&err, CheckpointError::Corrupt(why) if why.contains("bad magic")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
