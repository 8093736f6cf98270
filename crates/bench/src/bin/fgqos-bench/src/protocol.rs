//! The measurement protocol of one workload in one process: set-up passes,
//! timed passes for a fixed wall budget, the checks on what they produced,
//! and the reduction of the samples to the reported metrics.

use std::time::Instant;

use crate::calib::Calibrator;
use crate::host;
use crate::layers::{digest48, standalone_drives, value_of, Counts, GpuCounters};
use crate::metrics::{median, percentile, Measured, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::suite::{sweep_serial_walk, Inputs, Pass, Workload};

/// Complete set-ups (inputs built, one reference pass run) per process; the
/// median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Timed passes a run makes even when the wall budget is already spent.
const MIN_PASSES: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Wall budget of the timed passes.
    pub seconds: f64,
    /// Record spans on every second pass and report the per-layer metrics.
    pub trace: bool,
    /// One set-up, two passes, cycle budgets divided by ten.
    pub quick: bool,
    /// Fixed number of timed passes instead of a wall budget.
    pub iters: Option<usize>,
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Timed passes made.
    pub iters: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in table order.
    pub metrics: Vec<Measured>,
    /// Median self time per span name over the traced passes, in seconds,
    /// beside the median traced pass wall they must sum below.
    pub self_times: Vec<(&'static str, f64)>,
    pub traced_wall_s: f64,
    /// Raw (un-normalised) medians and the host speed they were scaled by,
    /// printed beside the metrics.
    pub raw: Vec<Measured>,
    /// Simulated cycles each pass runs off the clock first; 0 = cold start.
    pub warm_cycles: u64,
    pub spans: Spans,
    /// Why `correct` is false, one line per finding.
    pub findings: Vec<String>,
}

/// One timed pass and how it was run.
struct TimedPass {
    pass: Pass,
    traced: bool,
    /// Wall of the whole pass as it ran, set-up portion included.
    wall_s: f64,
}

impl TimedPass {
    fn host_speed(&self) -> f64 {
        self.pass.timed.host_speed()
    }
}

/// How a per-layer host time is reduced from the spans of one traced pass.
#[derive(Clone, Copy)]
enum Stat {
    Median,
    Total,
    Max,
    P98,
}

/// `(metric, span, reduction, nanoseconds -> unit)`.
const SPAN_METRICS: [(&str, &str, Stat, f64); 18] = [
    ("gpu.new_us", "gpu.new", Stat::Median, 1e-3),
    ("gpu.launch_us", "gpu.launch", Stat::Median, 1e-3),
    ("qos_core.on_epoch_us_total", "qos_core.on_epoch", Stat::Total, 1e-3),
    ("qos_core.on_epoch_us_p50", "qos_core.on_epoch", Stat::Median, 1e-3),
    ("snap.snapshot_us", "snap.snapshot", Stat::Median, 1e-3),
    ("snap.to_bytes_us", "snap.to_bytes", Stat::Median, 1e-3),
    ("snap.from_bytes_us", "snap.from_bytes", Stat::Median, 1e-3),
    ("snap.restore_us", "snap.restore", Stat::Median, 1e-3),
    ("harness.iso_ipc_s", "harness.iso_ipc", Stat::Total, 1e-9),
    ("harness.prepare_case_us", "harness.prepare_case", Stat::Median, 1e-3),
    ("harness.case_run_ms_p50", "harness.case_run", Stat::Median, 1e-6),
    ("harness.case_run_ms_max", "harness.case_run", Stat::Max, 1e-6),
    ("harness.finish_case_us", "harness.finish_case", Stat::Median, 1e-3),
    ("fleet.new_us", "fleet.new", Stat::Median, 1e-3),
    ("fleet.step_us_p50", "fleet.step", Stat::Median, 1e-3),
    ("fleet.step_us_p98", "fleet.step", Stat::P98, 1e-3),
    ("fleet.snapshot_us", "fleet.snapshot", Stat::Median, 1e-3),
    ("gpu.run_s", "gpu.run", Stat::Total, 1e-9),
];

fn reduce(stat: Stat, ns: &[f64]) -> f64 {
    match stat {
        Stat::Median => median(ns),
        Stat::Total => ns.iter().sum(),
        Stat::Max => ns.iter().copied().fold(0.0, f64::max),
        Stat::P98 => percentile(ns, 98),
    }
}

fn total_ns(spans: &Spans, name: &str, iter: u32) -> f64 {
    spans.durations(name, iter).iter().sum()
}

/// What set-up leaves behind.
struct SetUp {
    inputs: Inputs,
    /// The pass whose digest every timed pass must reproduce.
    reference: Pass,
    /// Reference-host seconds of each complete set-up.
    setup_s: Vec<f64>,
    /// Microseconds each input build took.
    build_us: Vec<f64>,
}

/// Set-up, several times over: inputs from the seed, then one untimed
/// reference pass that also warms the process. All must agree.
fn set_up(
    opts: &Options,
    cal: &mut Calibrator,
    spans: &mut Spans,
    findings: &mut Vec<String>,
) -> SetUp {
    let mut setup_s = Vec::new();
    let mut build_us = Vec::new();
    let mut first: Option<(Inputs, Pass)> = None;
    for _ in 0..if opts.quick { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let inputs = Inputs::build(opts.workload, opts.seed, opts.quick);
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        let pass = inputs.pass(true, cal, spans);
        // The whole set-up is scaled by the host speed its timed part saw.
        setup_s.push(t.elapsed().as_secs_f64() * pass.timed.host_speed());
        if pass.failed > 0 {
            findings.push(format!("{} operations failed in a set-up pass", pass.failed));
        }
        match &first {
            Some((_, reference)) if reference.digest != pass.digest => {
                findings.push("two set-up passes ended with different digests".to_string());
            }
            Some(_) => {}
            None => first = Some((inputs, pass)),
        }
    }
    let (inputs, reference) = first.expect("at least one set-up pass");
    SetUp { inputs, reference, setup_s, build_us }
}

/// Timed passes until the wall budget is spent. In a traced run every second
/// pass records spans, so traced and untraced walls interleave.
fn timed_passes(
    opts: &Options,
    inputs: &Inputs,
    cal: &mut Calibrator,
    spans: &mut Spans,
) -> Vec<TimedPass> {
    let wanted = opts.iters.or(opts.quick.then_some(2));
    let started = Instant::now();
    let mut timed: Vec<TimedPass> = Vec::new();
    loop {
        let i = timed.len();
        let traced = opts.trace && i % 2 == 1;
        spans.start_pass(traced, i as u32);
        let t = Instant::now();
        let pass = inputs.pass(false, cal, spans);
        timed.push(TimedPass { pass, traced, wall_s: t.elapsed().as_secs_f64() });
        let done = match wanted {
            Some(n) => timed.len() >= n,
            None => timed.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            return timed;
        }
    }
}

/// Counts attempted and failed operations. An operation fails on an error,
/// on an unfinished request, or when its pass ends with any simulated
/// statistic different from the reference.
fn check(timed: &[TimedPass], reference: &Pass, findings: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (i, t) in timed.iter().enumerate() {
        attempted += t.pass.ops;
        if t.pass.digest != reference.digest {
            findings.push(format!("pass {i} ended with a digest different from the reference"));
            failed += t.pass.ops;
        } else {
            failed += t.pass.failed;
        }
        if t.pass.gpu != timed[0].pass.gpu || t.pass.counts != timed[0].pass.counts {
            findings.push(format!("pass {i} read different layer counters than pass 0"));
        }
    }
    if failed > 0 {
        findings.push(format!("{failed} of {attempted} operations failed"));
    }
    (attempted, failed)
}

pub fn run(opts: Options) -> Report {
    let mut findings = Vec::new();
    let mut spans = Spans::new(false);
    let mut cal = Calibrator::new(opts.workload.saturates_host);
    let setup = set_up(&opts, &mut cal, &mut spans, &mut findings);
    let timed = timed_passes(&opts, &setup.inputs, &mut cal, &mut spans);
    let (attempted, failed) = check(&timed, &setup.reference, &mut findings);

    let plain: Vec<&TimedPass> = timed.iter().filter(|t| !t.traced).collect();
    let walls: Vec<f64> = plain.iter().map(|t| t.pass.timed.norm_s).collect();
    let raw_walls: Vec<f64> = plain.iter().map(|t| t.pass.timed.raw_s).collect();
    let speeds: Vec<f64> = plain.iter().map(|t| t.host_speed()).collect();
    let wall = Measured::from_samples("wall_s", "s", &walls);
    let raw = vec![
        Measured::from_samples("wall_raw_s", "s", &raw_walls),
        Measured::from_samples("host_speed", "fraction", &speeds),
    ];

    let mut self_times = Vec::new();
    let mut traced_wall_s = 0.0;
    let metrics: Vec<Measured> = if opts.trace {
        let traced: Vec<(u32, &TimedPass)> = timed
            .iter()
            .enumerate()
            .filter(|(_, t)| t.traced)
            .map(|(i, t)| (i as u32, t))
            .collect();
        // Host times from spans are scaled like the end-to-end ones: by the
        // host speed their pass saw.
        traced_wall_s =
            median(&traced.iter().map(|(_, t)| t.wall_s * t.host_speed()).collect::<Vec<_>>());
        for (i, t) in &traced {
            let covered: u64 = spans.self_time_by_name(*i).iter().map(|(_, ns)| ns).sum();
            if covered as f64 * 1e-9 > t.wall_s {
                findings.push(format!("self times of pass {i} sum to more than its wall"));
            }
        }
        self_times = median_self_times(&spans, &traced);

        // One-off drives, recorded as a pass of their own.
        let extra = timed.len() as u32;
        spans.start_pass(true, extra);
        let mut gpu = timed[0].pass.gpu;
        let mut passes: Vec<(u32, f64)> =
            traced.iter().map(|(i, t)| (*i, t.host_speed())).collect();
        if let Inputs::Sweep(specs) = &setup.inputs {
            let (counters, digest, walk_speed) = sweep_serial_walk(specs, &mut cal, &mut spans);
            if digest != setup.reference.digest {
                findings.push("the serial case walk and run_cases disagree".to_string());
            }
            gpu = counters;
            passes.push((extra, walk_speed));
        }
        spans.start_pass(false, extra + 1);
        let drives = standalone_drives(opts.seed, opts.quick, &mut cal);

        let threads = if opts.workload.parallel { host::nproc() } else { 1 };
        let cpu: f64 = plain.iter().map(|t| t.pass.timed.cpu_s).sum();
        let traced_walls: Vec<f64> = traced.iter().map(|(_, t)| t.pass.timed.norm_s).collect();
        let mut values: Counts = host_times(&spans, &passes, &gpu, &drives, &timed[0].pass.counts);
        values.extend(gpu.metrics());
        values.extend(timed[0].pass.counts.iter().copied());
        values.extend(drives);
        values.extend([
            ("gpu.stat_digest48", digest48(setup.reference.digest)),
            ("workloads.build_us", median(&setup.build_us)),
            ("exec.cpu_utilization", cpu / (threads as f64 * raw_walls.iter().sum::<f64>())),
            ("bench.trace_overhead_frac", median(&traced_walls) / wall.value - 1.0),
            ("bench.wall_iqr_frac", wall.iqr_frac()),
            ("bench.iters", timed.len() as f64),
            ("bench.host_speed", median(&speeds)),
        ]);
        PER_LAYER
            .iter()
            .map(|m| Measured::single(m.name, m.unit, value_of(&values, m.name), m.exact))
            .collect()
    } else {
        let per_s = |f: fn(&Pass) -> u64| -> Vec<f64> {
            plain.iter().map(|t| f(&t.pass) as f64 / t.pass.timed.norm_s).collect()
        };
        let cpu: Vec<f64> = plain.iter().map(|t| t.pass.timed.cpu_s * t.host_speed()).collect();
        // CPU time is read in 10 ms ticks: the mean over the passes resolves
        // it far better than the median of per-pass readings would.
        let cpu_mean = cpu.iter().sum::<f64>() / cpu.len() as f64;
        let values = [
            Measured::from_samples("setup_s", "s", &setup.setup_s),
            wall,
            Measured { value: cpu_mean, ..Measured::from_samples("cpu_s", "s", &cpu) },
            Measured::from_samples("sim_cycles_per_s", "cycles/s", &per_s(|p| p.cycles)),
            Measured::from_samples("ops_per_s", "ops/s", &per_s(|p| p.ops)),
            Measured::single("peak_rss_mib", "MiB", host::peak_rss_mib(), false),
        ];
        END_TO_END
            .iter()
            .map(|m| {
                let v = values.iter().find(|v| v.name == m.name).expect("every metric listed");
                Measured { unit: m.unit, ..v.clone() }
            })
            .collect()
    };

    for m in &metrics {
        if !m.value.is_finite() {
            findings.push(format!("metric {} is not a finite number", m.name));
        }
    }
    Report {
        workload: opts.workload.name,
        seed: opts.seed,
        trace: opts.trace,
        iters: timed.len(),
        correct: findings.is_empty(),
        attempted,
        failed,
        metrics,
        self_times,
        traced_wall_s,
        raw,
        warm_cycles: setup.inputs.warm_cycles(),
        spans,
        findings,
    }
}

/// Per-layer host times: each span-backed metric reduced within every pass
/// of `passes` (index and host speed) that recorded its span and scaled to
/// reference-host time, then the median over those passes; and the ratios
/// derived from them.
fn host_times(
    spans: &Spans,
    passes: &[(u32, f64)],
    gpu: &GpuCounters,
    drives: &Counts,
    counts: &Counts,
) -> Counts {
    let mut out: Counts = Vec::new();
    let over_passes = |f: &dyn Fn(u32) -> Option<f64>| -> f64 {
        median(&passes.iter().filter_map(|&(i, speed)| f(i).map(|v| v * speed)).collect::<Vec<_>>())
    };
    for (metric, span, stat, scale) in SPAN_METRICS {
        // On sweep_pairs the machines run inside `harness.case_run`.
        let names: &[&str] =
            if span == "gpu.run" { &["gpu.run", "harness.case_run"] } else { &[span] };
        let value = over_passes(&|i| {
            let ns: Vec<f64> = names.iter().flat_map(|n| spans.durations(n, i)).collect();
            (!ns.is_empty()).then(|| reduce(stat, &ns) * scale)
        });
        out.push((metric, value));
    }
    // The run loop's self time: its spans minus the controller calls made
    // from inside them.
    let run_self_ns = over_passes(&|i| {
        let run = total_ns(spans, "gpu.run", i) + total_ns(spans, "harness.case_run", i);
        (run > 0.0).then(|| run - total_ns(spans, "qos_core.on_epoch", i))
    });
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let blob_mib = value_of(counts, "snap.blob_bytes") / (1u64 << 20) as f64;
    let derived = [
        ("gpu.host_ns_per_tick", per(run_self_ns, gpu.ticks_executed() as f64)),
        ("sm.host_ns_per_warp_inst", per(run_self_ns, gpu.warp_insts() as f64)),
        ("snap.encode_mib_per_s", per(blob_mib, value_of(&out, "snap.to_bytes_us") * 1e-6)),
        ("snap.decode_mib_per_s", per(blob_mib, value_of(&out, "snap.from_bytes_us") * 1e-6)),
        ("memsys.host_share_est", gpu.memsys_host_share(drives, value_of(&out, "gpu.run_s"))),
    ];
    out.extend(derived);
    out
}

fn median_self_times(spans: &Spans, traced: &[(u32, &TimedPass)]) -> Vec<(&'static str, f64)> {
    let per_pass: Vec<Vec<(&'static str, f64)>> = traced
        .iter()
        .map(|(i, t)| {
            let speed = t.host_speed();
            spans.self_time_by_name(*i).into_iter().map(|(n, ns)| (n, ns as f64 * speed)).collect()
        })
        .collect();
    let Some(first) = per_pass.first() else { return Vec::new() };
    first
        .iter()
        .map(|&(name, _)| {
            let samples: Vec<f64> = per_pass
                .iter()
                .filter_map(|p| p.iter().find(|(n, _)| *n == name))
                .map(|&(_, ns)| ns * 1e-9)
                .collect();
            (name, median(&samples))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;
    use crate::suite::{by_name, WORKLOADS};

    fn quick(name: &str, trace: bool) -> Report {
        let workload = by_name(name).expect("a workload name");
        run(Options { workload, seed: 0x2017, seconds: 0.0, trace, quick: true, iters: None })
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_fails_nothing() {
        for w in &WORKLOADS {
            let r = quick(w.name, false);
            assert!(r.correct, "{}: {:?}", w.name, r.findings);
            assert_eq!(r.failed, 0);
            assert!(r.attempted >= 1);
            assert_eq!(r.iters, 2);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name);
            for m in &r.metrics {
                assert!(valid_name(m.name));
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{}: {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_with_a_well_formed_span_tree() {
        let r = quick("qos_trio", true);
        assert!(r.correct, "{:?}", r.findings);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        assert!(value(&r, "qos_core.on_epoch_calls") >= 2.0);
        assert!(value(&r, "qos_core.on_epoch_us_total") > 0.0);
        assert!(value(&r, "sm.warp_insts") > 0.0);
        assert!(value(&r, "gpu.host_ns_per_tick") > 0.0);

        let spans = r.spans.all();
        assert!(!spans.is_empty());
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = &spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "child outside parent");
                assert_eq!(p.iter, s.iter);
            }
        }
        // Every controller call sits under the run that made it.
        for s in spans.iter().filter(|s| s.name == "qos_core.on_epoch") {
            assert_eq!(spans[s.parent.expect("has a parent") as usize].name, "gpu.run");
        }
        let covered: f64 = r.self_times.iter().map(|(_, s)| s).sum();
        assert!(covered > 0.0 && covered <= r.traced_wall_s);
    }

    #[test]
    fn two_passes_end_with_the_same_digest() {
        let w = by_name("memory_dense").expect("a workload name");
        let inputs = Inputs::build(w, 7, true);
        let mut spans = Spans::new(false);
        let mut cal = Calibrator::new(false);
        let a = inputs.pass(false, &mut cal, &mut spans);
        let b = inputs.pass(false, &mut cal, &mut spans);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.gpu, b.gpu);
        let other_seed = Inputs::build(w, 8, true).pass(false, &mut cal, &mut spans);
        assert_ne!(a.digest, other_seed.digest, "the seed must reach the inputs");
    }

    #[test]
    fn checkpointed_epochs_equal_the_reference_without_checkpoints() {
        let w = by_name("ckpt_epoch").expect("a workload name");
        let inputs = Inputs::build(w, 0x2017, true);
        let mut spans = Spans::new(true);
        let mut cal = Calibrator::new(false);
        let reference = inputs.pass(true, &mut cal, &mut spans);
        assert!(spans.all().iter().all(|s| !s.name.starts_with("snap.")));
        let checkpointed = inputs.pass(false, &mut cal, &mut spans);
        assert_eq!(reference.digest, checkpointed.digest);
        assert_eq!(checkpointed.failed, 0);
        let round_trips = spans.all().iter().filter(|s| s.name == "snap.restore").count();
        assert_eq!(round_trips as u64, checkpointed.ops);
        assert!(checkpointed.counts.iter().any(|&(n, v)| n == "snap.blob_bytes" && v > 0.0));
    }

    #[test]
    fn sweep_serial_walk_agrees_with_run_cases() {
        let r = quick("sweep_pairs", true);
        assert!(r.correct, "{:?}", r.findings);
        assert_eq!(value(&r, "harness.cases"), 8.0);
        assert!(value(&r, "harness.case_run_ms_max") >= value(&r, "harness.case_run_ms_p50"));
        assert!(value(&r, "sm.warp_insts") > 0.0);
    }
}
