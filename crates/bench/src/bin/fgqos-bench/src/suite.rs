//! The seven workloads: how their inputs are made from a seed, and what one
//! pass over them runs and times.
//!
//! A pass builds a fresh machine (or sweep, or fleet), lets it warm up off
//! the clock, then times the workload proper. Everything a pass calls is
//! public API of the layer it measures; the spans it records sit around
//! those calls.

use std::hint::black_box;

use fleet::{Fleet, FleetConfig, RequestState};
use gpu_sim::kernel::{AccessPattern, KernelDesc, Op};
use gpu_sim::rng::SplitMix64;
use gpu_sim::trace::Tracer;
use gpu_sim::{Controller, CounterScope, Gpu, GpuConfig, KernelId, SharingMode, SnapshotBlob};
use harness::cases::{pairs, CaseSpec, Policy};
use harness::runner::{build_controller, finish_case, prepare_case, run_cases, IsolatedCache};
use harness::CaseResult;
use qos_core::{QosManager, QosSpec, QuotaScheme};

use crate::calib::{Calibrator, SliceClock, Timed};
use crate::layers::{Counts, Digest, GpuCounters};
use crate::spans::Spans;

/// One benchmark workload: its fixed name, and why it is in the set.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// What counts as one operation.
    pub op: &'static str,
    /// Whether the program itself fans out over host threads here.
    pub parallel: bool,
    /// Whether that fan-out keeps every host thread busy (the sweep's cases
    /// do; the fleet's three devices leave one of two threads idle half the
    /// time). Decides how the host speed is sampled: on all threads at once,
    /// or on one.
    pub saturates_host: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "compute_dense",
        op: "10k-cycle epoch",
        parallel: false,
        saturates_host: false,
        why: "sgemm alone: sm issue/select does nearly all the work; bypasses memsys, \
              fast-forward and qos_core",
    },
    Workload {
        name: "memory_dense",
        op: "10k-cycle epoch",
        parallel: false,
        saturates_host: false,
        why: "lbm+spmv under SMK, bandwidth-saturated: memsys/dram/icn carry their largest \
              share and fast-forward probes without skipping",
    },
    Workload {
        name: "latency_sparse",
        op: "10k-cycle epoch",
        parallel: false,
        saturates_host: false,
        why: "two pointer-chase kernels at minimal occupancy: three quarters of the cycles \
              are skipped, so host time is horizon scans, not issue",
    },
    Workload {
        name: "qos_trio",
        op: "10k-cycle epoch",
        parallel: false,
        saturates_host: false,
        why: "mri-q and sad with goals plus best-effort lbm under the Rollover QosManager: \
              quota-gated warp picks, epoch service and partial context switches",
    },
    Workload {
        name: "ckpt_epoch",
        op: "1k-cycle epoch + snapshot round trip",
        parallel: false,
        saturates_host: false,
        why: "the qos_trio machine checkpointed after every epoch into a standby Gpu: snap \
              encode and decode carry about half of the time instead of none",
    },
    Workload {
        name: "sweep_pairs",
        op: "case",
        parallel: true,
        saturates_host: true,
        why: "24 short cases through run_cases with a fresh IsolatedCache, as a repro user \
              does: Gpu::new, isolated-IPC runs, harness and exec fan-out dominate",
    },
    Workload {
        name: "fleet_diurnal",
        op: "request",
        parallel: true,
        saturates_host: false,
        why: "the diurnal fleet scenario stepped to completion: tick scheduler, placement, \
              migration and checkpoint refresh around device stepping",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const MIB: u64 = 1 << 20;

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall (as it ran, and in reference-host seconds) and CPU time of the
    /// timed part.
    pub timed: Timed,
    /// Simulated cycles of the timed part.
    pub cycles: u64,
    pub ops: u64,
    pub failed: u64,
    /// Digest of every simulated statistic the pass ended with.
    pub digest: u64,
    /// Machine counters of the timed part (zero where the machines are not
    /// the benchmark's to read).
    pub gpu: GpuCounters,
    /// Further exact per-layer values.
    pub counts: Counts,
}

/// A single simulated machine and what runs on it.
#[derive(Debug, Clone)]
pub struct MachineInputs {
    cfg: GpuConfig,
    kernels: Vec<KernelDesc>,
    /// SMK thread-block targets per SM, one per kernel; empty leaves the
    /// sharing mode to the controller.
    tb_targets: Vec<u16>,
    /// One spec per kernel under a Rollover `QosManager`; empty runs
    /// unmanaged.
    qos: Vec<QosSpec>,
    warm_cycles: u64,
    timed_cycles: u64,
    /// Round-trip a snapshot into a standby machine after every epoch.
    checkpoint: bool,
}

/// The generated inputs of one workload. The program under test only ever
/// receives these; the seed stays in the benchmark.
#[derive(Debug, Clone)]
pub enum Inputs {
    Machine(MachineInputs),
    Sweep(Vec<CaseSpec>),
    Fleet(FleetConfig),
}

fn parboil(name: &str, seed: u64) -> KernelDesc {
    let k = ::workloads::by_name(name).expect("a Parboil benchmark name");
    k.with_seed(k.seed() ^ seed)
}

/// A single-warp-per-TB kernel chasing random addresses through a
/// cache-defeating footprint: every access rides the full DRAM latency.
fn pointer_chase(name: &str, seed: u64) -> KernelDesc {
    KernelDesc::builder(name)
        .threads_per_tb(32)
        .grid_tbs(1024)
        .iterations(64)
        .seed(seed)
        .memory_intensive(true)
        .body(vec![Op::mem_load(AccessPattern::random(512 * MIB, 1)), Op::alu(1, 1)])
        .build()
}

fn trio(seed: u64, epoch_cycles: u64) -> MachineInputs {
    let mut cfg = GpuConfig::paper_table1();
    cfg.epoch_cycles = epoch_cycles;
    MachineInputs {
        cfg,
        kernels: vec![parboil("mri-q", seed), parboil("sad", seed), parboil("lbm", seed)],
        tb_targets: Vec::new(),
        qos: vec![QosSpec::qos(40.0), QosSpec::qos(20.0), QosSpec::best_effort()],
        warm_cycles: 0,
        timed_cycles: 0,
        checkpoint: false,
    }
}

impl Inputs {
    /// Builds the inputs of `workload` from `seed`. `quick` divides every
    /// cycle budget by ten.
    pub fn build(workload: &Workload, seed: u64, quick: bool) -> Inputs {
        let scale = |cycles: u64| if quick { cycles / 10 } else { cycles };
        let unmanaged = |kernels: Vec<KernelDesc>, tb_targets: Vec<u16>, warm: u64, timed: u64| {
            Inputs::Machine(MachineInputs {
                cfg: GpuConfig::paper_table1(),
                kernels,
                tb_targets,
                qos: Vec::new(),
                warm_cycles: scale(warm),
                timed_cycles: scale(timed),
                checkpoint: false,
            })
        };
        match workload.name {
            "compute_dense" => unmanaged(vec![parboil("sgemm", seed)], Vec::new(), 50_000, 300_000),
            "memory_dense" => unmanaged(
                vec![parboil("lbm", seed), parboil("spmv", seed)],
                vec![5, 5],
                50_000,
                800_000,
            ),
            "latency_sparse" => unmanaged(
                vec![
                    pointer_chase("chase-a", 0xFF01 ^ seed),
                    pointer_chase("chase-b", 0xFF02 ^ seed),
                ],
                vec![1, 1],
                100_000,
                6_000_000,
            ),
            "qos_trio" => Inputs::Machine(MachineInputs {
                warm_cycles: scale(50_000),
                timed_cycles: scale(200_000),
                ..trio(seed, 10_000)
            }),
            "ckpt_epoch" => Inputs::Machine(MachineInputs {
                warm_cycles: scale(20_000),
                timed_cycles: scale(150_000),
                checkpoint: true,
                ..trio(seed, 1_000)
            }),
            "sweep_pairs" => Inputs::Sweep(sweep_specs(seed, quick)),
            "fleet_diurnal" => {
                let seed = fleet::scenarios::DEFAULT_SEED ^ seed;
                let mut cfg = fleet::scenarios::by_name("diurnal", seed).expect("a fleet scenario");
                if quick {
                    for t in &mut cfg.tenants {
                        t.requests /= 10;
                    }
                }
                Inputs::Fleet(cfg)
            }
            other => unreachable!("workload {other} is not in WORKLOADS"),
        }
    }

    /// Runs one pass. A `reference` pass is what set-up runs to obtain the
    /// digest every timed pass must reproduce; it differs from a timed pass
    /// only on `ckpt_epoch`, where it takes no checkpoints, so that a wrong
    /// snapshot round trip shows as a digest mismatch.
    pub fn pass(&self, reference: bool, cal: &mut Calibrator, spans: &mut Spans) -> Pass {
        match self {
            Inputs::Machine(m) => machine_pass(m, reference, cal, spans),
            Inputs::Sweep(specs) => sweep_pass(specs, cal, spans),
            Inputs::Fleet(cfg) => fleet_pass(cfg, cal, spans),
        }
    }

    /// Simulated cycles of warm-up a pass runs off the clock; 0 means the
    /// workload starts cold, as its users do.
    pub fn warm_cycles(&self) -> u64 {
        match self {
            Inputs::Machine(m) => m.warm_cycles,
            Inputs::Sweep(_) | Inputs::Fleet(_) => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Single-machine workloads
// ---------------------------------------------------------------------------

/// The controller a machine runs under. An enum, not a `dyn Controller`, so
/// the manager's own counter registry stays reachable for the digest.
#[derive(Debug)]
enum Ctrl {
    Null,
    Qos(Box<QosManager>),
}

impl Controller for Ctrl {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        if let Ctrl::Qos(m) = self {
            m.on_epoch(gpu, epoch);
        }
    }
}

/// Per-epoch accounting the wrapper controller keeps: calls, and how many
/// (QoS kernel, epoch) pairs ended below the kernel's IPC goal.
#[derive(Debug, Default)]
struct EpochAcct {
    goals: Vec<(KernelId, f64)>,
    calls: u64,
    kernel_epochs: u64,
    missed: u64,
}

impl EpochAcct {
    fn note(&mut self, gpu: &Gpu) {
        self.calls += 1;
        let snap = gpu.epoch_snapshot();
        if snap.cycles == 0 {
            return;
        }
        for &(k, goal) in &self.goals {
            self.kernel_epochs += 1;
            self.missed += u64::from(snap.ipc(k) < goal);
        }
    }

    fn reset(&mut self) {
        (self.calls, self.kernel_epochs, self.missed) = (0, 0, 0);
    }
}

/// The wrapper controller: `qos_core.on_epoch` spans are children of the
/// `gpu.run` span that is open while the simulator calls back.
struct Probe<'a> {
    ctrl: &'a mut Ctrl,
    acct: &'a mut EpochAcct,
    spans: &'a mut Spans,
}

impl Controller for Probe<'_> {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        let span = self.spans.begin("qos_core.on_epoch");
        self.ctrl.on_epoch(gpu, epoch);
        self.spans.end(span);
        self.acct.note(gpu);
    }
}

fn run(
    gpu: &mut Gpu,
    cycles: u64,
    ctrl: &mut Ctrl,
    acct: &mut EpochAcct,
    spans: &mut Spans,
) -> Result<(), String> {
    let span = spans.begin("gpu.run");
    let r = gpu.try_run(cycles, &mut Probe { ctrl, acct, spans });
    spans.end(span);
    r.map_err(|e| e.to_string())
}

/// Runs `epochs` epochs on `live`, and after each one moves the machine
/// through `snapshot -> to_bytes -> from_bytes -> restore` into `standby`,
/// which then becomes the live machine. Returns the last blob's size.
fn run_checkpointed(
    live: &mut Gpu,
    standby: &mut Gpu,
    epochs: u64,
    ctrl: &mut Ctrl,
    acct: &mut EpochAcct,
    spans: &mut Spans,
) -> Result<usize, String> {
    let epoch_cycles = live.config().epoch_cycles;
    let mut blob_bytes = 0;
    for _ in 0..epochs {
        run(live, epoch_cycles, ctrl, acct, spans)?;
        let blob = spans.time("snap.snapshot", || live.snapshot()).map_err(|e| e.to_string())?;
        let bytes = spans.time("snap.to_bytes", || blob.to_bytes());
        let back = spans
            .time("snap.from_bytes", || SnapshotBlob::from_bytes(&bytes))
            .map_err(|e| e.to_string())?;
        spans.time("snap.restore", || standby.restore(&back)).map_err(|e| e.to_string())?;
        blob_bytes = bytes.len();
        std::mem::swap(live, standby);
    }
    Ok(blob_bytes)
}

fn machine_digest(gpu: &Gpu, ctrl: &Ctrl) -> u64 {
    let mut d = Digest::new();
    d.registry(&gpu.counter_registry());
    if let Ctrl::Qos(m) = ctrl {
        d.registry(&m.counter_registry());
    }
    let stats = gpu.stats();
    for k in gpu.kernel_ids() {
        d.word(stats.kernel(k).tbs_completed);
        d.word(stats.kernel(k).launches_completed);
    }
    d.finish()
}

/// The timed part of a machine pass is cut into about this many slices of
/// whole epochs, with a calibration burst between them.
const MACHINE_SLICES: u64 = 30;

fn machine_pass(
    m: &MachineInputs,
    reference: bool,
    cal: &mut Calibrator,
    spans: &mut Spans,
) -> Pass {
    let epoch_cycles = m.cfg.epoch_cycles;
    let ops = m.timed_cycles / epoch_cycles;
    let mut gpu = spans.time("gpu.new", || Gpu::new(m.cfg.clone()));
    let mut kids = Vec::new();
    for k in &m.kernels {
        kids.push(spans.time("gpu.launch", || gpu.launch(k.clone())));
    }
    if !m.tb_targets.is_empty() {
        gpu.set_sharing_mode(SharingMode::Smk);
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            for (&k, &tbs) in kids.iter().zip(&m.tb_targets) {
                gpu.set_tb_target(sm, k, tbs);
            }
        }
    }
    let mut ctrl = if m.qos.is_empty() {
        Ctrl::Null
    } else {
        let mgr = QosManager::new(QuotaScheme::Rollover);
        let mgr = kids.iter().zip(&m.qos).fold(mgr, |mgr, (&k, &spec)| mgr.with_kernel(k, spec));
        Ctrl::Qos(Box::new(mgr))
    };
    let mut acct = EpochAcct {
        goals: kids.iter().zip(&m.qos).filter_map(|(&k, s)| s.goal_ipc().map(|g| (k, g))).collect(),
        ..EpochAcct::default()
    };
    let checkpoint = m.checkpoint && !reference;
    // Built before the clock starts: a standby machine is part of a
    // checkpointing deployment, not of an epoch.
    let mut standby = checkpoint.then(|| Gpu::new(m.cfg.clone()));

    // Warm-up fills the modelled caches; it is neither timed nor traced.
    let recording = spans.set_enabled(false);
    let mut outcome = run(&mut gpu, m.warm_cycles, &mut ctrl, &mut acct, spans);
    spans.set_enabled(recording);
    acct.reset();
    let base = GpuCounters::read(&gpu);

    let mut blob_bytes = 0;
    let mut clock = SliceClock::start(cal, 1);
    let slice_epochs = ops.div_ceil(MACHINE_SLICES).max(1);
    let mut done = 0;
    while done < ops && outcome.is_ok() {
        let epochs = slice_epochs.min(ops - done);
        outcome = clock.slice(|| match &mut standby {
            Some(standby) => {
                run_checkpointed(&mut gpu, standby, epochs, &mut ctrl, &mut acct, spans)
                    .map(|bytes| blob_bytes = bytes)
            }
            None => run(&mut gpu, epochs * epoch_cycles, &mut ctrl, &mut acct, spans),
        });
        done += epochs;
    }
    let timed = clock.finish();

    if let Err(e) = &outcome {
        eprintln!("fgqos-bench: pass failed: {e}");
    }
    let counters = GpuCounters::read(&gpu).since(&base);
    let goal_miss =
        if acct.kernel_epochs == 0 { 0.0 } else { acct.missed as f64 / acct.kernel_epochs as f64 };
    Pass {
        timed,
        cycles: m.timed_cycles,
        ops,
        failed: if outcome.is_ok() { 0 } else { ops },
        digest: machine_digest(&gpu, &ctrl),
        gpu: counters,
        counts: vec![
            ("qos_core.on_epoch_calls", acct.calls as f64),
            ("qos_core.goal_miss_frac", goal_miss),
            ("snap.blob_bytes", blob_bytes as f64),
        ],
    }
}

// ---------------------------------------------------------------------------
// sweep_pairs
// ---------------------------------------------------------------------------

/// Cases per `run_cases` call: one benchmark pair's 2 goals x the four
/// Fig. 6a policies.
const SWEEP_BATCH: usize = 8;

/// 3 pairs x 2 goals x 4 policies, pair by pair. The pairs are fixed — one
/// memory+memory, one compute+memory, one compute+compute — because a seed
/// that picked other benchmarks would change the cost of a pass severalfold
/// and no two seeds could be compared. The seed jitters each goal by up to
/// two points and shuffles the order a pair's cases are handed to the runner.
fn sweep_specs(seed: u64, quick: bool) -> Vec<CaseSpec> {
    let cycles = if quick { 10_000 } else { 40_000 };
    let mut rng = SplitMix64::new(seed);
    let mut specs = Vec::new();
    for (q, b) in pairs().into_iter().skip(25).step_by(30).take(if quick { 1 } else { 3 }) {
        let mut batch = Vec::with_capacity(SWEEP_BATCH);
        for base in [0.50, 0.75] {
            let goal = base + (rng.next_f64() - 0.5) * 0.04;
            for policy in Policy::FIG6A {
                batch.push(CaseSpec::new(&[q, b], &[Some(goal), None], policy, cycles));
            }
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        specs.append(&mut batch);
    }
    specs
}

fn results_digest(results: &[CaseResult]) -> u64 {
    let mut d = Digest::new();
    for r in results {
        for v in r.ipc.iter().chain(&r.isolated_ipc) {
            d.word(v.to_bits());
        }
        d.word(r.insts_per_energy.to_bits());
        d.word(r.preemption_saves);
        d.word(r.trace_hash);
    }
    d.finish()
}

fn sweep_counts(results: &[CaseResult]) -> Counts {
    let reach = harness::metrics::qos_reach(results);
    vec![
        ("harness.cases", results.len() as f64),
        ("qos_core.qos_reach", reach),
        ("qos_core.goal_miss_frac", 1.0 - reach),
        (
            "qos_core.nonqos_norm_tput",
            harness::metrics::mean(results, CaseResult::nonqos_normalized),
        ),
    ]
}

/// Bursts around each of the sweep's few slices.
const SWEEP_BURSTS: u32 = 4;

fn sweep_pass(specs: &[CaseSpec], cal: &mut Calibrator, spans: &mut Spans) -> Pass {
    let iso = IsolatedCache::new();
    // One `run_cases` call per benchmark pair against a shared cache, as
    // `repro` makes one per experiment; each call is a slice.
    let mut clock = SliceClock::start(cal, SWEEP_BURSTS);
    let mut outcomes = Vec::with_capacity(specs.len());
    for batch in specs.chunks(SWEEP_BATCH) {
        outcomes.extend(clock.slice(|| spans.time("harness.run_cases", || run_cases(batch, &iso))));
    }
    let timed = clock.finish();

    let mut results = Vec::new();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => eprintln!("fgqos-bench: case {} failed: {e}", spec.label()),
        }
    }
    // Every case and every isolated-IPC measurement simulates `cycles`.
    let cycles = specs.iter().map(|s| s.cycles).sum::<u64>()
        + iso.misses() as u64 * specs.first().map_or(0, |s| s.cycles);
    Pass {
        timed,
        cycles,
        ops: specs.len() as u64,
        failed: (specs.len() - results.len()) as u64,
        digest: results_digest(&results),
        gpu: GpuCounters::default(),
        counts: sweep_counts(&results),
    }
}

/// Steps the sweep's cases one by one on this thread through
/// `prepare_case` / `try_run` / `finish_case`, which is where the per-case
/// spans and the machines' counters come from: `run_cases` hands neither
/// out. Returns the summed machine counters, the digest of the results,
/// which must equal the parallel run's, and the host speed during the walk.
pub fn sweep_serial_walk(
    specs: &[CaseSpec],
    cal: &mut Calibrator,
    spans: &mut Spans,
) -> (GpuCounters, u64, f64) {
    let iso = IsolatedCache::new();
    let mut clock = SliceClock::start(cal, 1);
    clock.slice(|| {
        for spec in specs {
            for name in &spec.kernels {
                let _ = spans.time("harness.iso_ipc", || iso.ipc(name, spec.config, spec.cycles));
            }
        }
    });
    let mut total = GpuCounters::default();
    let mut results = Vec::new();
    for spec in specs {
        clock.slice(|| {
            let Ok(mut prepared) = spans.time("harness.prepare_case", || prepare_case(spec, &iso))
            else {
                return;
            };
            let mut ctrl = Tracer::new(build_controller(spec, &prepared.kids, &prepared.goal_ipc));
            let ran =
                spans.time("harness.case_run", || prepared.gpu.try_run(spec.cycles, &mut ctrl));
            if ran.is_ok() {
                results.push(
                    spans.time("harness.finish_case", || {
                        finish_case(spec, &prepared, ctrl.records())
                    }),
                );
                total.add(&GpuCounters::read(&prepared.gpu));
            }
        });
    }
    (total, results_digest(&results), clock.finish().host_speed())
}

// ---------------------------------------------------------------------------
// fleet_diurnal
// ---------------------------------------------------------------------------

/// Tick at which a traced pass also times one `Fleet::snapshot`: devices
/// are busy by then, so the blob embeds their machine snapshots.
const FLEET_SNAPSHOT_TICK: u64 = 128;

/// Fleet ticks per calibrated slice.
const FLEET_SLICE_TICKS: u64 = 16;

fn fleet_pass(cfg: &FleetConfig, cal: &mut Calibrator, spans: &mut Spans) -> Pass {
    let mut f = spans.time("fleet.new", || Fleet::new(cfg.clone()));
    let mut clock = SliceClock::start(cal, 1);
    while !f.finished() {
        clock.slice(|| {
            for _ in 0..FLEET_SLICE_TICKS {
                if spans.time("fleet.step", || f.step()) {
                    break;
                }
                if spans.enabled() && f.ticks() == FLEET_SNAPSHOT_TICK {
                    black_box(spans.time("fleet.snapshot", || f.snapshot()));
                }
            }
        });
    }
    let timed = clock.finish();

    let registry = f.counter_registry();
    let mut d = Digest::new();
    d.registry(&registry);
    d.bytes(f.report("fleet_diurnal").as_bytes());
    let done = f.requests().iter().filter(|r| matches!(r.state, RequestState::Done { .. })).count();
    let shed = f.requests().iter().filter(|r| matches!(r.state, RequestState::Shed { .. })).count();
    let latency_p99 = registry
        .iter()
        .filter(|e| matches!(e.scope, CounterScope::Tenant(_)) && e.name == "latency_p99")
        .map(|e| e.value)
        .max()
        .unwrap_or(0);
    let ops = f.requests().len();
    Pass {
        timed,
        cycles: f.cycle(),
        ops: ops as u64,
        failed: (ops - done) as u64,
        digest: d.finish(),
        gpu: GpuCounters::default(),
        counts: vec![
            ("fleet.ticks", f.ticks() as f64),
            ("fleet.requests_done", done as f64),
            ("fleet.requests_shed", shed as f64),
            ("fleet.migrated", f.migrated_requests() as f64),
            ("fleet.lost", f.lost_requests() as f64),
            ("fleet.latency_p99_cycles", latency_p99 as f64),
        ],
    }
}
