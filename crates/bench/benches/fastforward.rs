//! Wall-clock benchmark of the idle-cycle fast-forward (DESIGN.md §3).
//!
//! Runs each scenario four ways — naive per-cycle stepping, fast-forward,
//! fast-forward with the flight recorder on, and fast-forward with the full
//! telemetry stack armed (counter time series + host profiler) — verifies
//! the runs are observably identical, and writes the timings to
//! `BENCH_fastforward.json` (override the path with the first CLI
//! argument). CI's bench-smoke job runs it for the identity assertion and
//! uploads that file; the committed copy at the repo root is one run on one
//! host. The `trace_overhead` column is the cost of the recorder and
//! `telemetry_overhead` that of the armed telemetry stack. Nothing here is
//! gated (the 5% wall-clock gate went in PR 13): this bench is superseded by
//! `fgqos-bench`, which compares parent and change as interleaved pairs.

use std::time::Instant;

use gpu_sim::kernel::{AccessPattern, KernelDesc, Op};
use gpu_sim::{Gpu, GpuConfig, NullController, SharingMode, TraceLevel};
use qos_core::{QosManager, QosSpec, QuotaScheme};

const MIB: u64 = 1 << 20;

const CYCLES: u64 = 80_000;
/// Timed repetitions per configuration; the minimum is reported.
const REPS: u32 = 3;

/// Pre-refactor dense-path baselines, in milliseconds: the fast-forward leg
/// of each busy-path scenario, measured from the commit preceding the
/// struct-of-arrays refactor (DESIGN.md §18) by running its bench binary
/// interleaved with the refactored one on the same host and taking the
/// median of the alternating rounds (EXPERIMENTS.md has the raw tables and
/// methodology — interleaving is the only way the 1-core bench host yields
/// comparable numbers). Hard-coded so the `dense_path` rows keep reporting
/// the refactor's speedup after the pre-refactor binary is gone.
const DENSE_PATH_BASELINES: [(&str, f64); 2] =
    [("smk_memory_pair", 239.7), ("isolated_compute", 338.8)];

struct Scenario {
    name: &'static str,
    run: fn(Mode) -> Outcome,
}

/// One timed configuration of a scenario.
#[derive(Clone, Copy)]
enum Mode {
    Naive,
    FastForward,
    /// Fast-forward with the event ring recording (`TraceLevel::Events`).
    Traced,
    /// Fast-forward with the telemetry stack armed: per-epoch counter
    /// series sampling plus the host-time self-profiler.
    Telemetry,
}

impl Mode {
    fn apply(self, cfg: &mut GpuConfig) {
        cfg.fast_forward = !matches!(self, Mode::Naive);
        if matches!(self, Mode::Traced) {
            cfg.trace.level = TraceLevel::Events;
        }
    }

    /// Runtime arming that config can't express: series + profiler.
    fn arm(self, gpu: &mut Gpu) {
        if matches!(self, Mode::Telemetry) {
            gpu.enable_metrics_series(4096);
            gpu.set_profiling(true);
        }
    }
}

/// Checksum + skip telemetry from one run.
struct Outcome {
    total_insts: u64,
    skipped: u64,
}

fn finish(gpu: &Gpu) -> Outcome {
    Outcome { total_insts: gpu.stats().total_thread_insts(), skipped: gpu.skipped_cycles() }
}

/// A single-warp-per-TB kernel chasing random addresses through a
/// cache-defeating footprint: every access rides the full DRAM latency and
/// each TB holds only one warp, so occupancy stays minimal.
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

/// The acceptance scenario: a latency-bound SMK pair at minimal occupancy.
/// With ~2 warps per SM all stalled on ~340-cycle DRAM round trips, wake-ups
/// are sparse machine-wide and most cycles are idle-skippable.
fn smk_latency_pair(mode: Mode) -> Outcome {
    let mut cfg = GpuConfig::paper_table1();
    mode.apply(&mut cfg);
    let mut gpu = Gpu::new(cfg);
    let a = gpu.launch(pointer_chase("chase-a", 0xFF01));
    let b = gpu.launch(pointer_chase("chase-b", 0xFF02));
    gpu.set_sharing_mode(SharingMode::Smk);
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 1);
        gpu.set_tb_target(sm, b, 1);
    }
    mode.arm(&mut gpu);
    gpu.run(CYCLES, &mut NullController);
    finish(&gpu)
}

/// A bandwidth-saturated SMK pair: wake-ups are dense (a DRAM channel
/// completes a transaction every few cycles), so idle windows are short.
/// Included to show fast-forward does not regress the saturated regime.
fn smk_memory_pair(mode: Mode) -> Outcome {
    let mut cfg = GpuConfig::paper_table1();
    mode.apply(&mut cfg);
    let mut gpu = Gpu::new(cfg);
    let a = gpu.launch(workloads::by_name("lbm").expect("known"));
    let b = gpu.launch(workloads::by_name("spmv").expect("known"));
    gpu.set_sharing_mode(SharingMode::Smk);
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 5);
        gpu.set_tb_target(sm, b, 5);
    }
    mode.arm(&mut gpu);
    gpu.run(CYCLES, &mut NullController);
    finish(&gpu)
}

/// A quota-managed pair: fast-forward must also pay off when the QoS
/// manager's gating makes warps quota-inert rather than operand-stalled.
fn managed_rollover_pair(mode: Mode) -> Outcome {
    let mut cfg = GpuConfig::paper_table1();
    mode.apply(&mut cfg);
    let mut gpu = Gpu::new(cfg);
    let q = gpu.launch(workloads::by_name("mri-q").expect("known"));
    let be = gpu.launch(workloads::by_name("lbm").expect("known"));
    let mut mgr = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q, QosSpec::qos(600.0))
        .with_kernel(be, QosSpec::best_effort());
    mode.arm(&mut gpu);
    gpu.run(CYCLES, &mut mgr);
    finish(&gpu)
}

/// Compute-bound isolated run: the worst case for fast-forward (few idle
/// windows), included to bound the overhead of the horizon scans.
fn isolated_compute(mode: Mode) -> Outcome {
    let mut cfg = GpuConfig::paper_table1();
    mode.apply(&mut cfg);
    let mut gpu = Gpu::new(cfg);
    gpu.launch(workloads::by_name("sgemm").expect("known"));
    mode.arm(&mut gpu);
    gpu.run(CYCLES, &mut NullController);
    finish(&gpu)
}

fn time_min(f: impl Fn() -> Outcome) -> (f64, Outcome) {
    let mut best = f64::INFINITY;
    let mut outcome = Outcome { total_insts: 0, skipped: 0 };
    for _ in 0..REPS {
        let t = Instant::now();
        outcome = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, outcome)
}

fn main() {
    // cargo bench forwards harness flags like `--bench`; skip them.
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "BENCH_fastforward.json".to_string());
    let scenarios = [
        Scenario { name: "smk_latency_pair", run: smk_latency_pair },
        Scenario { name: "smk_memory_pair", run: smk_memory_pair },
        Scenario { name: "managed_rollover_pair", run: managed_rollover_pair },
        Scenario { name: "isolated_compute", run: isolated_compute },
    ];
    let mut rows = Vec::new();
    let mut ff_wall = Vec::new();
    for s in &scenarios {
        let (naive_ms, naive) = time_min(|| (s.run)(Mode::Naive));
        let (ff_ms, ff) = time_min(|| (s.run)(Mode::FastForward));
        ff_wall.push((s.name, ff_ms));
        let (traced_ms, traced) = time_min(|| (s.run)(Mode::Traced));
        let (telemetry_ms, telemetry) = time_min(|| (s.run)(Mode::Telemetry));
        assert_eq!(
            naive.total_insts, ff.total_insts,
            "{}: fast-forward diverged from naive stepping",
            s.name
        );
        assert_eq!(
            ff.total_insts, traced.total_insts,
            "{}: event recording perturbed the simulation",
            s.name
        );
        assert_eq!(
            ff.total_insts, telemetry.total_insts,
            "{}: armed telemetry perturbed the simulation",
            s.name
        );
        assert_eq!(
            ff.skipped, telemetry.skipped,
            "{}: armed telemetry changed fast-forward behaviour",
            s.name
        );
        let speedup = naive_ms / ff_ms;
        let trace_overhead = traced_ms / ff_ms - 1.0;
        let telemetry_overhead = telemetry_ms / ff_ms - 1.0;
        let skipped_pct = 100.0 * ff.skipped as f64 / CYCLES as f64;
        println!(
            "{:<24} naive {naive_ms:>8.1} ms   fast-forward {ff_ms:>8.1} ms   \
             {speedup:.2}x   ({skipped_pct:.1}% cycles skipped)   \
             traced {traced_ms:>8.1} ms ({:+.1}%)   telemetry {telemetry_ms:>8.1} ms ({:+.1}%)",
            s.name,
            100.0 * trace_overhead,
            100.0 * telemetry_overhead
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"naive_ms\": {naive_ms:.3}, \"fast_forward_ms\": \
             {ff_ms:.3}, \"speedup\": {speedup:.3}, \"skipped_cycles\": {}, \
             \"identical\": true, \"traced_ms\": {traced_ms:.3}, \
             \"trace_overhead\": {trace_overhead:.4}, \"telemetry_ms\": {telemetry_ms:.3}, \
             \"telemetry_overhead\": {telemetry_overhead:.4}}}",
            s.name, ff.skipped
        ));
    }
    // Dense-path leg (DESIGN.md §18.6): the busy scenarios' fast-forward
    // walls against the held pre-refactor baselines. `wall_ms` is this
    // run's measurement (recorded, not gated); `pre_refactor_ms` is the
    // frozen baseline and `speedup` the layout refactor's standing win.
    let mut dense_rows = Vec::new();
    for (name, pre_ms) in DENSE_PATH_BASELINES {
        let (_, wall_ms) =
            *ff_wall.iter().find(|(n, _)| *n == name).expect("dense scenario timed above");
        let speedup = pre_ms / wall_ms;
        println!(
            "{:<24} wall {wall_ms:>8.1} ms   pre-refactor {pre_ms:>8.1} ms   {speedup:.2}x",
            format!("{name}/dense")
        );
        dense_rows.push(format!(
            "    {{\"name\": \"{name}\", \"wall_ms\": {wall_ms:.3}, \
             \"pre_refactor_ms\": {pre_ms:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fastforward\",\n  \"cycles\": {CYCLES},\n  \"reps\": {REPS},\n  \
         \"dense_path\": [\n{}\n  ],\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        dense_rows.join(",\n"),
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
