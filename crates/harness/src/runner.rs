//! Case execution: isolated-IPC caching and the one case runner, parallel,
//! fault-tolerant and optionally journaled.
//!
//! Every case runs with the simulator's forward-progress watchdog enabled
//! (the watchdog is observation-only, so results are bit-identical to an
//! unwatched run) and inside a `catch_unwind` boundary with one bounded
//! retry, so a single wedged or crashing case cannot take down a sweep.
//! Given a [`CheckpointDir`], the runner journals every case into it
//! ([`crate::checkpoint`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use exec::parallel_for_each;
use gpu_sim::trace::{records_hash, Tracer};
use gpu_sim::{Controller, Gpu, GpuConfig, KernelId, NullController, SnapshotBlob, TraceLevel};
use qos_core::{QosManager, QosSpec, SpartController};

use crate::cases::{Ablations, CaseSpec, ConfigKind, Policy};
use crate::checkpoint::{
    chunk_cycles, CaseRecord, CaseState, CheckpointDir, InProgressCase, DEFAULT_CHECKPOINT_EVERY,
};
use crate::error::CaseError;
use crate::metrics::CaseResult;

/// Watchdog window used for every harness-driven simulation, in epochs: a
/// wedged case is detected after at most two controller epochs with zero
/// machine-wide progress, instead of burning the rest of its cycle budget.
///
/// Kept a multiple of the epoch length on purpose: the watchdog trips at a
/// multiple of its window, so every failure (and every chunk boundary of the
/// case runner) lands on an epoch boundary — the only cycles at
/// which [`Gpu::snapshot`] is legal.
pub const WATCHDOG_EPOCHS: u64 = 2;

/// Shared cache of isolated-IPC measurements, keyed by
/// `(benchmark, config, cycles)`.
///
/// Every QoS goal in the evaluation is a fraction of the kernel's isolated
/// IPC, so each benchmark is first run alone on the same configuration and
/// cycle budget. The cache makes that a once-per-sweep cost: concurrent
/// misses on the same key are deduplicated through a per-key `OnceLock`, so
/// the measurement runs exactly once and other threads block on it instead
/// of racing to redo it. Failed measurements (e.g. an unknown benchmark)
/// are cached too, as errors.
#[derive(Debug, Default)]
pub struct IsolatedCache {
    map: Mutex<HashMap<IsoKey, IsoCell>>,
    misses: AtomicUsize,
}

/// Cache key: `(benchmark, config, cycles)`.
type IsoKey = (String, ConfigKind, u64);
/// Per-key measurement slot; concurrent misses block on the same cell.
type IsoCell = Arc<OnceLock<Result<f64, CaseError>>>;

impl IsolatedCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        IsolatedCache::default()
    }

    /// Isolated IPC of `name` under `config` over `cycles`, measuring on a
    /// cache miss.
    ///
    /// # Errors
    ///
    /// Returns the (cached) [`CaseError`] when the measurement failed.
    pub fn ipc(&self, name: &str, config: ConfigKind, cycles: u64) -> Result<f64, CaseError> {
        let key = (name.to_string(), config, cycles);
        let cell = {
            let mut map = self.map.lock().expect("isolated cache lock");
            map.entry(key).or_default().clone()
        };
        cell.get_or_init(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            measure_isolated(name, config, cycles)
        })
        .clone()
    }

    /// Number of cache misses (actual measurements performed).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached measurements.
    pub fn len(&self) -> usize {
        self.map.lock().expect("isolated cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn measure_isolated(name: &str, config: ConfigKind, cycles: u64) -> Result<f64, CaseError> {
    let mut cfg = config.build();
    cfg.health.watchdog_window = WATCHDOG_EPOCHS * cfg.epoch_cycles;
    let mut gpu = Gpu::new(cfg);
    let desc = workloads::by_name(name)
        .ok_or_else(|| CaseError::UnknownBenchmark { name: name.to_string() })?;
    let k = gpu.launch(desc);
    gpu.try_run(cycles, &mut NullController)?;
    Ok(gpu.stats().ipc(k))
}

fn apply_ablations(cfg: &mut GpuConfig, ab: &Ablations) {
    if ab.free_preemption {
        cfg.preempt.context_bytes_per_cycle = u32::MAX;
        cfg.preempt.drain_cycles = 0;
    }
}

/// The exact simulator configuration a case runs under (ablations, epoch
/// override, watchdog, fault plan applied). `repro inspect` rebuilds a
/// machine from this to restore a persisted failure snapshot into.
pub fn case_config(spec: &CaseSpec) -> GpuConfig {
    let mut cfg = spec.config.build();
    apply_ablations(&mut cfg, &spec.ablations);
    if let Some(epoch) = spec.epoch_cycles {
        cfg.epoch_cycles = epoch;
        cfg.samples_per_epoch = cfg.samples_per_epoch.min(epoch as u32);
    }
    cfg.health.watchdog_window = WATCHDOG_EPOCHS * cfg.epoch_cycles;
    cfg.faults = spec.faults.clone();
    // Harness cases always fly with the recorder on: event recording never
    // perturbs simulated behaviour, and a watchdog report (or persisted
    // failure snapshot) then carries the last moments before the hang.
    cfg.trace.level = TraceLevel::Events;
    cfg
}

/// The concrete controller a harness case runs under: one of the two policy
/// families of [`Policy`].
///
/// An enum (not `Box<dyn Controller>`) so a mid-case checkpoint can encode
/// the controller's epoch state alongside the [`Gpu`] snapshot and rebuild
/// it bit-exactly on resume.
#[derive(Debug, Clone)]
pub enum CaseController {
    /// Spatial-partitioning baseline.
    Spart(SpartController),
    /// Fine-grained quota management.
    Quota(QosManager),
}

impl Controller for CaseController {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        match self {
            CaseController::Spart(c) => c.on_epoch(gpu, epoch),
            CaseController::Quota(m) => m.on_epoch(gpu, epoch),
        }
    }
}

gpu_sim::impl_snap_enum!(CaseController { Spart(controller) = 0, Quota(manager) = 1 });

/// A case's simulation state right after construction, before any cycle has
/// run: the machine, the launched kernel ids, and the per-kernel isolated /
/// goal IPCs. The case runner starts every case from one.
#[derive(Debug)]
pub struct PreparedCase {
    /// The configured machine with every kernel launched.
    pub gpu: Gpu,
    /// Kernel ids in spec slot order.
    pub kids: Vec<KernelId>,
    /// Per-kernel isolated IPC (same config and cycle budget).
    pub isolated: Vec<f64>,
    /// Per-kernel absolute IPC goal (`None` = best-effort).
    pub goal_ipc: Vec<Option<f64>>,
}

/// Builds the machine for one case: config + ablations + watchdog, kernels
/// launched with decorrelated seeds, isolated IPCs measured (cached).
///
/// # Errors
///
/// [`CaseError::UnknownBenchmark`] for an unknown benchmark name, or the
/// cached error of a failed isolated measurement.
pub fn prepare_case(spec: &CaseSpec, iso: &IsolatedCache) -> Result<PreparedCase, CaseError> {
    let mut gpu = Gpu::new(case_config(spec));

    let mut kids = Vec::new();
    let mut goal_ipc = Vec::new();
    let mut isolated = Vec::new();
    for (slot, name) in spec.kernels.iter().enumerate() {
        let desc = workloads::by_name(name)
            .ok_or_else(|| CaseError::UnknownBenchmark { name: name.clone() })?;
        // Decorrelate co-runners of the same benchmark.
        let desc = desc.with_seed(desc.seed() ^ (slot as u64).wrapping_mul(0x9e37_79b9));
        kids.push(gpu.launch(desc));
        let iso_ipc = iso.ipc(name, spec.config, spec.cycles)?;
        isolated.push(iso_ipc);
        goal_ipc.push(spec.goal_fracs[slot].map(|f| f * iso_ipc));
    }
    Ok(PreparedCase { gpu, kids, isolated, goal_ipc })
}

/// Computes the [`CaseResult`] of a finished case from its machine and
/// telemetry.
pub fn finish_case(
    spec: &CaseSpec,
    prepared: &PreparedCase,
    records: &[gpu_sim::trace::EpochRecord],
) -> CaseResult {
    let stats = prepared.gpu.stats();
    CaseResult {
        ipc: prepared.kids.iter().map(|&k| stats.ipc(k)).collect(),
        isolated_ipc: prepared.isolated.clone(),
        goal_ipc: prepared.goal_ipc.clone(),
        insts_per_energy: gpu_sim::power::insts_per_energy(&prepared.gpu),
        preemption_saves: prepared.gpu.preempt_stats().saves,
        trace_hash: records_hash(records),
        spec: spec.clone(),
    }
}

/// Runs one case and computes its result, in chunks of the default
/// cadence and persisting nothing.
///
/// # Errors
///
/// [`CaseError::UnknownBenchmark`] when the spec names a benchmark the
/// workload table does not know; [`CaseError::Sim`] when the watchdog trips
/// (e.g. under an injected livelock) or an audit fails. Panics are *not*
/// caught here — [`run_cases`] adds the `catch_unwind` + retry boundary.
pub fn run_case(spec: &CaseSpec, iso: &IsolatedCache) -> Result<CaseResult, CaseError> {
    run_chunked(spec, iso, None, None)
}

/// The one loop that advances a case's machine: chunks of [`chunk_cycles`]
/// of the journal's cadence, or of the default one without a journal, so a
/// case's results never depend on whether it is journaled. With a journal it
/// continues `resume` when that restores, saves the case after every chunk
/// but the last, and leaves a failure snapshot when the simulator reports a
/// health error.
fn run_chunked(
    spec: &CaseSpec,
    iso: &IsolatedCache,
    journal: Option<&CheckpointDir>,
    resume: Option<InProgressCase>,
) -> Result<CaseResult, CaseError> {
    let mut prepared = prepare_case(spec, iso)?;
    let restored = resume.and_then(|ip| {
        let blob = SnapshotBlob::from_bytes(&ip.gpu_blob);
        match blob.and_then(|blob| prepared.gpu.restore(&blob)) {
            Ok(()) => Some((Tracer::from_parts(ip.controller, ip.records), ip.cycles_done)),
            Err(e) => {
                eprintln!("warning: {}: restarting from cycle 0 ({e})", spec.label());
                None
            }
        }
    });
    // Every case runs under a Tracer so its full epoch telemetry is
    // fingerprinted; the hash lets sweeps prove run-to-run determinism
    // without retaining the records themselves.
    let (mut tracer, mut done) = restored.unwrap_or_else(|| {
        (Tracer::new(build_controller(spec, &prepared.kids, &prepared.goal_ipc)), 0)
    });
    let every = journal.map_or(DEFAULT_CHECKPOINT_EVERY, |j| j.manifest().checkpoint_every);
    let chunk = chunk_cycles(every, prepared.gpu.config().epoch_cycles);
    while done < spec.cycles {
        let step = chunk.min(spec.cycles - done);
        if let Err(e) = prepared.gpu.try_run(step, &mut tracer) {
            let error = CaseError::from(e);
            if let Some(journal) = journal {
                journal.save_failure(spec, &error, &prepared.gpu);
            }
            return Err(error);
        }
        done += step;
        if let Some(journal) = journal.filter(|_| done < spec.cycles) {
            journal.save_progress(spec, done, &prepared.gpu, &tracer);
        }
    }
    Ok(finish_case(spec, &prepared, tracer.records()))
}

/// Builds the policy controller a case's spec asks for.
pub fn build_controller(
    spec: &CaseSpec,
    kids: &[KernelId],
    goal_ipc: &[Option<f64>],
) -> CaseController {
    let spec_of = |k: usize| match goal_ipc[k] {
        Some(g) => QosSpec::qos(g),
        None => QosSpec::best_effort(),
    };
    match spec.policy {
        Policy::Spart => {
            let mut ctrl = SpartController::new();
            for (i, &kid) in kids.iter().enumerate() {
                ctrl = ctrl.with_kernel(kid, spec_of(i));
            }
            CaseController::Spart(ctrl)
        }
        Policy::Quota(scheme) => {
            let mut mgr = QosManager::new(scheme).with_static_adjust(spec.ablations.static_adjust);
            if let Some(h) = spec.ablations.history_adjust {
                mgr = mgr.with_history_adjust(h);
            }
            for (i, &kid) in kids.iter().enumerate() {
                mgr = mgr.with_kernel(kid, spec_of(i));
            }
            CaseController::Quota(mgr)
        }
    }
}

/// Runs one case inside a panic-isolation boundary with one bounded retry.
///
/// A panicking case (a simulator bug, or an injected [`gpu_sim::FaultKind::
/// Panic`]) is retried once — covering transient environmental failures —
/// and then reported as [`CaseError::Panicked`] instead of unwinding into
/// the sweep.
pub fn run_case_isolated(spec: &CaseSpec, iso: &IsolatedCache) -> Result<CaseResult, CaseError> {
    isolated(|| run_case(spec, iso))
}

/// The panic-isolation policy of every case runner: `attempt` inside a
/// `catch_unwind` boundary, on a panic one retry, and on a second panic
/// [`CaseError::Panicked`] with `attempts: 2`.
fn isolated(
    mut attempt: impl FnMut() -> Result<CaseResult, CaseError>,
) -> Result<CaseResult, CaseError> {
    let mut guarded = || catch_unwind(AssertUnwindSafe(&mut attempt));
    guarded().or_else(|_| guarded()).unwrap_or_else(|payload| {
        Err(CaseError::Panicked { payload: panic_message(payload.as_ref()), attempts: 2 })
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `specs` in parallel across all cores, preserving input order.
///
/// Isolated IPCs are measured first (deduplicated), also in parallel. Each
/// case is panic-isolated and watchdog-protected, so the sweep always
/// completes: failed cases come back as `Err` entries in their input
/// positions while every other case still produces its result.
pub fn run_cases(specs: &[CaseSpec], iso: &IsolatedCache) -> Vec<Result<CaseResult, CaseError>> {
    run_journaled(specs, iso, None)
}

/// [`run_cases`], journaled into `journal` when given: a case whose file
/// holds its result is not run (nor are its isolated IPCs measured), one
/// whose file holds an in-progress state continues from it, and every case
/// run saves its result.
pub(crate) fn run_journaled(
    specs: &[CaseSpec],
    iso: &IsolatedCache,
    journal: Option<&CheckpointDir>,
) -> Vec<Result<CaseResult, CaseError>> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let states: Vec<Mutex<Option<CaseState>>> =
        specs.iter().map(|s| Mutex::new(journal.and_then(|j| j.load_case(s)))).collect();
    let pending: Vec<usize> = (0..specs.len())
        .filter(|&i| {
            !matches!(*states[i].lock().expect("case state lock"), Some(CaseState::Done(_)))
        })
        .collect();

    // Warm the isolated cache in parallel (unique keys only). Failures are
    // ignored here; the per-case path observes the cached error.
    let unique: Vec<(String, ConfigKind, u64)> = {
        let mut set = std::collections::HashSet::new();
        pending
            .iter()
            .flat_map(|&i| {
                specs[i].kernels.iter().map(move |k| (k.clone(), specs[i].config, specs[i].cycles))
            })
            .filter(|key| set.insert(key.clone()))
            .collect()
    };
    parallel_for_each(&unique, threads, |(name, config, cycles)| {
        let _ = catch_unwind(AssertUnwindSafe(|| iso.ipc(name, *config, *cycles)));
    });

    parallel_for_each(&pending, threads, |&i| {
        let state = &states[i];
        let mut resume = match state.lock().expect("case state lock").take() {
            Some(CaseState::InProgress(ip)) => Some(ip),
            _ => None,
        };
        // The retry starts from scratch: the deterministic mid-case state
        // would just reproduce the panic.
        let outcome = isolated(|| run_chunked(&specs[i], iso, journal, resume.take()));
        let record = CaseRecord { spec: specs[i].clone(), state: CaseState::Done(outcome) };
        if let Some(journal) = journal {
            journal.save_case(&record);
        }
        *state.lock().expect("case state lock") = Some(record.state);
    });
    states
        .into_iter()
        .map(|state| match state.into_inner().expect("case state lock") {
            Some(CaseState::Done(outcome)) => outcome,
            _ => unreachable!("every case ran"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{FaultKind, FaultPlan};
    use qos_core::QuotaScheme;

    #[test]
    fn isolated_cache_measures_once() {
        let cache = IsolatedCache::new();
        let a = cache.ipc("sgemm", ConfigKind::Table1, 20_000).expect("sgemm measures");
        let b = cache.ipc("sgemm", ConfigKind::Table1, 20_000).expect("cached");
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(a > 100.0, "sgemm isolated IPC {a} looks wrong");
    }

    #[test]
    fn concurrent_misses_on_one_key_measure_exactly_once() {
        let cache = IsolatedCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.ipc("sgemm", ConfigKind::Table1, 20_000).expect("measures");
                });
            }
        });
        assert_eq!(cache.misses(), 1, "in-flight dedup must collapse concurrent misses");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn run_case_produces_consistent_result() {
        let cache = IsolatedCache::new();
        let spec = CaseSpec::new(
            &["sgemm", "lbm"],
            &[Some(0.5), None],
            Policy::Quota(QuotaScheme::Rollover),
            40_000,
        );
        let r = run_case(&spec, &cache).expect("healthy case");
        assert_eq!(r.ipc.len(), 2);
        assert!(r.ipc[0] > 0.0);
        assert_eq!(r.goal_ipc[1], None);
        let goal = r.goal_ipc[0].expect("QoS kernel has a goal");
        assert!((goal - 0.5 * r.isolated_ipc[0]).abs() < 1e-9);
        assert!(r.insts_per_energy > 0.0);
    }

    #[test]
    fn run_cases_preserves_order_and_parallelism_is_deterministic() {
        let cache = IsolatedCache::new();
        let specs: Vec<CaseSpec> = [("sgemm", "lbm"), ("lbm", "sgemm"), ("sgemm", "spmv")]
            .iter()
            .map(|(q, b)| {
                CaseSpec::new(
                    &[q, b],
                    &[Some(0.5), None],
                    Policy::Quota(QuotaScheme::Rollover),
                    30_000,
                )
            })
            .collect();
        let first = run_cases(&specs, &cache);
        let second = run_cases(&specs, &cache);
        assert_eq!(first.len(), 3);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.ipc, b.ipc, "parallel execution must stay deterministic");
            assert_eq!(
                a.trace_hash, b.trace_hash,
                "epoch telemetry must be bit-identical across parallel runs"
            );
        }
        assert_eq!(first[0].as_ref().expect("ok").spec.kernels[0], "sgemm");
        assert_eq!(first[1].as_ref().expect("ok").spec.kernels[0], "lbm");
    }

    #[test]
    fn spart_policy_builds_and_runs() {
        let cache = IsolatedCache::new();
        let spec = CaseSpec::new(&["sgemm", "lbm"], &[Some(0.5), None], Policy::Spart, 30_000);
        let r = run_case(&spec, &cache).expect("healthy case");
        assert!(r.ipc[0] > 0.0 && r.ipc[1] > 0.0);
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error_not_a_panic() {
        let cache = IsolatedCache::new();
        let spec = CaseSpec::new(&["nope", "lbm"], &[Some(0.5), None], Policy::Spart, 1_000);
        let err = run_case(&spec, &cache).expect_err("unknown benchmark must fail");
        assert_eq!(err.kind(), "unknown-benchmark");
        match err {
            CaseError::UnknownBenchmark { name } => assert_eq!(name, "nope"),
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_is_isolated_and_reported() {
        let cache = IsolatedCache::new();
        let mut spec = CaseSpec::new(
            &["sgemm", "lbm"],
            &[Some(0.5), None],
            Policy::Quota(QuotaScheme::Rollover),
            30_000,
        );
        spec.faults = FaultPlan::one(5_000, FaultKind::Panic);
        let err = run_case_isolated(&spec, &cache).expect_err("injected panic must surface");
        match err {
            CaseError::Panicked { payload, attempts } => {
                assert_eq!(attempts, 2, "the policy allows the initial run plus one retry");
                assert!(payload.contains("injected fault"), "{payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn injected_livelock_trips_the_watchdog_within_the_case() {
        let cache = IsolatedCache::new();
        let mut spec = CaseSpec::new(
            &["sgemm", "lbm"],
            &[Some(0.5), None],
            Policy::Quota(QuotaScheme::Rollover),
            100_000,
        );
        spec.faults = FaultPlan::one(15_000, FaultKind::StarveQuota);
        let err = run_case(&spec, &cache).expect_err("livelock must be detected");
        assert_eq!(err.kind(), "watchdog");
        let CaseError::Sim(gpu_sim::SimError::Watchdog(report)) = err else {
            panic!("expected a watchdog report");
        };
        assert!(report.cycle < 100_000, "watchdog saves the rest of the budget");
        assert!(report.starved_kernels().count() > 0, "report names the culprits");
    }
}
