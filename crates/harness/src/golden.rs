//! The golden corpus: five files under `tests/golden/` that pin simulated
//! behaviour byte for byte.
//!
//! * `smk_pair.json`, `spart_pair.json`, `datacenter_trio.json` — three
//!   canonical scenarios (an SMK pair, a spatially partitioned pair and a
//!   datacenter-style trio) run under a [`Tracer`], their per-epoch
//!   IPC/residency/quota series rendered one epoch per line;
//! * `models.json` — the ten Parboil models of [`workloads::NAMES`], each
//!   run solo under the rollover quota scheme, with five metrics per model
//!   read from the counter registries and the epoch records;
//! * `counter_registry_order.txt` — the `(scope, name)` enumeration order
//!   of the finished `smk_pair` machine's counter registry, which fixes the
//!   layout of every metrics export.
//!
//! [`CORPUS`] lists them; [`check`], [`bless_all`] and `repro golden` walk
//! that one list. Any change to scheduling, quota accounting, preemption,
//! the memory system, the models or the fast-forward path that shifts one
//! value by one bit fails loudly. Regenerate after an intentional behaviour
//! change with `cargo run --release -p harness --bin repro -- golden --bless`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gpu_sim::trace::{records_hash, EpochRecord, Tracer};
use gpu_sim::{
    CounterEntry, CounterScope, Gpu, GpuConfig, NullController, SharingMode, TraceLevel,
};
use qos_core::{QosManager, QosSpec, QuotaScheme, SpartController};

/// Names of the canonical scenarios, in corpus order.
pub const SCENARIOS: [&str; 3] = ["smk_pair", "spart_pair", "datacenter_trio"];

/// One file of the corpus.
#[derive(Debug)]
pub struct Entry {
    /// File name under [`golden_dir`].
    pub file: &'static str,
    /// Renders the file's contents, with fast-forward on or stepping every
    /// cycle; both must give the same bytes.
    pub render: fn(fast_forward: bool) -> String,
}

/// Every file of the corpus, in check order.
pub const CORPUS: [Entry; 5] = [
    Entry { file: "smk_pair.json", render: |ff| render_scenario("smk_pair", ff) },
    Entry { file: "spart_pair.json", render: |ff| render_scenario("spart_pair", ff) },
    Entry { file: "datacenter_trio.json", render: |ff| render_scenario("datacenter_trio", ff) },
    Entry { file: "models.json", render: render_models },
    Entry { file: "counter_registry_order.txt", render: render_registry_order },
];

/// Simulated cycles each Parboil model runs for `models.json`: long enough
/// that every model reaches steady state on the tiny machine.
const MODEL_CYCLES: u64 = 12_000;

/// The per-model metrics of `models.json`, in column order.
const MODEL_METRICS: [&str; 5] = ["ipc", "residency", "quota_grants", "l1_hit_rate", "l2_hit_rate"];

/// Runs the named scenario and returns its epoch-record stream.
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`].
pub fn run_scenario(name: &str) -> Vec<EpochRecord> {
    scenario_records(name, true)
}

/// Runs the named scenario with the cycle-level flight recorder enabled and
/// returns the finished machine alongside the epoch records — the input to
/// the Perfetto exporter (`repro trace`). Event recording never perturbs
/// simulated behaviour, so the records still match the golden corpus.
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`].
#[must_use]
pub fn run_scenario_traced(name: &str) -> (Gpu, Vec<EpochRecord>) {
    let mut cfg = config(true);
    cfg.trace = TraceLevel::Events;
    scenario_run(name, cfg)
}

fn config(fast_forward: bool) -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = fast_forward;
    cfg
}

fn scenario_records(name: &str, fast_forward: bool) -> Vec<EpochRecord> {
    scenario_run(name, config(fast_forward)).1
}

fn scenario_run(name: &str, cfg: GpuConfig) -> (Gpu, Vec<EpochRecord>) {
    match name {
        // Two memory-intensive kernels sharing every SM fine-grained, fixed
        // residency targets, no management: exercises SMK dispatch and the
        // memory system.
        "smk_pair" => {
            let mut gpu = Gpu::new(cfg);
            let a = gpu.launch(workloads::by_name("lbm").expect("known workload"));
            let b = gpu.launch(workloads::by_name("spmv").expect("known workload"));
            gpu.set_sharing_mode(SharingMode::Smk);
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                gpu.set_tb_target(sm, a, 2);
                gpu.set_tb_target(sm, b, 2);
            }
            let mut tracer = Tracer::new(NullController);
            gpu.run(12_000, &mut tracer);
            (gpu, tracer.into_parts().1)
        }
        // A QoS kernel isolated on its own SMs by the spatial-partitioning
        // baseline: exercises partition sizing and TB draining.
        "spart_pair" => {
            let mut gpu = Gpu::new(cfg);
            let q = gpu.launch(workloads::by_name("sgemm").expect("known workload"));
            let be = gpu.launch(workloads::by_name("lbm").expect("known workload"));
            let mut ctrl = Tracer::new(
                SpartController::new()
                    .with_kernel(q, QosSpec::qos(40.0))
                    .with_kernel(be, QosSpec::best_effort()),
            );
            gpu.run(12_000, &mut ctrl);
            (gpu, ctrl.into_parts().1)
        }
        // Two QoS kernels plus a best-effort batch job under the rollover
        // quota scheme: exercises quota refills, gating and preemption.
        "datacenter_trio" => {
            let mut gpu = Gpu::new(cfg);
            let q1 = gpu.launch(workloads::by_name("mri-q").expect("known workload"));
            let q2 = gpu.launch(workloads::by_name("sad").expect("known workload"));
            let be = gpu.launch(workloads::by_name("lbm").expect("known workload"));
            let mut ctrl = Tracer::new(
                QosManager::new(QuotaScheme::Rollover)
                    .with_kernel(q1, QosSpec::qos(40.0))
                    .with_kernel(q2, QosSpec::qos(20.0))
                    .with_kernel(be, QosSpec::best_effort()),
            );
            gpu.run(15_000, &mut ctrl);
            (gpu, ctrl.into_parts().1)
        }
        other => panic!("unknown golden scenario {other:?}"),
    }
}

/// Runs the named scenario and renders its records (see [`render`]).
fn render_scenario(name: &str, fast_forward: bool) -> String {
    render(name, &scenario_records(name, fast_forward))
}

/// Renders a record stream as the canonical golden JSON document.
///
/// One line per epoch keeps diffs readable; `ipc` uses Rust's exact
/// shortest-round-trip float formatting and `ipc_bits` pins the raw IEEE
/// bits, so byte equality of two documents implies bit equality of the
/// underlying series. The whole-stream [`records_hash`] is embedded for a
/// quick cross-check against the determinism tests.
fn render(name: &str, records: &[EpochRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"records_hash\": \"{:#018x}\",", records_hash(records));
    out.push_str("  \"epochs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let kernels = r
            .kernels
            .iter()
            .map(|s| {
                format!(
                    "{{\"ipc\": {}, \"ipc_bits\": {}, \"hosted_tbs\": {}, \
                     \"quota_total\": {}, \"preempted\": {}}}",
                    s.epoch_ipc,
                    s.epoch_ipc.to_bits(),
                    s.hosted_tbs,
                    s.quota_total,
                    s.preempted
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"epoch\": {}, \"cycle\": {}, \"preemption_saves\": {}, \
             \"kernels\": [{kernels}]}}{comma}",
            r.epoch, r.cycle, r.preemption_saves
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The sum of the registry entries named `name` whose scope `in_scope`
/// accepts.
fn counter(reg: &[CounterEntry], name: &str, in_scope: impl Fn(CounterScope) -> bool) -> f64 {
    reg.iter().filter(|e| e.name == name && in_scope(e.scope)).map(|e| e.value as f64).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the Parboil model `name` solo on `cfg` under the rollover quota
/// scheme with a 40-IPC goal and reads its [`MODEL_METRICS`] from the
/// counter registries and the epoch records.
fn model_metrics(name: &str, cfg: GpuConfig) -> [f64; MODEL_METRICS.len()] {
    let mut gpu = Gpu::new(cfg);
    let k = gpu.launch(workloads::by_name(name).expect("known workload"));
    let mut ctrl =
        Tracer::new(QosManager::new(QuotaScheme::Rollover).with_kernel(k, QosSpec::qos(40.0)));
    gpu.run(MODEL_CYCLES, &mut ctrl);
    let (manager, records) = ctrl.into_parts();
    let reg = gpu.counter_registry();
    let machine = |name| counter(&reg, name, |s| s == CounterScope::Machine);
    let sms = |name| counter(&reg, name, |s| matches!(s, CounterScope::Sm(_)));
    let of_kernel = |s| s == CounterScope::Kernel(0);

    let ipc = ratio(counter(&reg, "thread_insts", of_kernel), machine("cycle"));
    let residency = ratio(
        records.iter().map(|r| f64::from(r.kernels[0].hosted_tbs)).sum(),
        records.len() as f64,
    );
    let quota_grants = counter(&manager.counter_registry(), "qos_quota_granted_insts", of_kernel);
    let (l1_hits, l2_hits) = (sms("l1_hits"), machine("l2_hits"));
    let l1_hit_rate = ratio(l1_hits, l1_hits + sms("l1_misses"));
    let l2_hit_rate = ratio(l2_hits, l2_hits + machine("l2_misses"));
    [ipc, residency, quota_grants, l1_hit_rate, l2_hit_rate]
}

/// Renders `models.json`: one line per model of [`workloads::NAMES`], each
/// metric written twice, in Rust's shortest round-trip form and as its raw
/// IEEE bits.
fn render_models(fast_forward: bool) -> String {
    let mut out = format!("{{\n  \"cycles\": {MODEL_CYCLES},\n  \"kernels\": [\n");
    for (i, name) in workloads::NAMES.iter().enumerate() {
        let fields = MODEL_METRICS
            .iter()
            .zip(model_metrics(name, config(fast_forward)))
            .map(|(m, v)| format!("\"{m}\": {v}, \"{m}_bits\": {}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(", ");
        let comma = if i + 1 == workloads::NAMES.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", {fields}}}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders `counter_registry_order.txt`: one `scope name` line per entry of
/// the finished `smk_pair` machine's counter registry, in enumeration order.
fn render_registry_order(fast_forward: bool) -> String {
    let (gpu, _) = scenario_run("smk_pair", config(fast_forward));
    gpu.counter_registry().iter().map(|e| format!("{:?} {}\n", e.scope, e.name)).collect()
}

/// The directory holding the corpus: `tests/golden/` at the repo root.
#[must_use]
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The path of one corpus file.
#[must_use]
pub fn golden_path(file: &str) -> PathBuf {
    golden_dir().join(file)
}

/// Renders every corpus file into `dir` — [`golden_dir`] to regenerate the
/// committed corpus.
///
/// # Errors
///
/// Propagates filesystem errors from creating `dir` or writing a corpus
/// file.
pub fn bless_all(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in &CORPUS {
        gpu_sim::snap::frame::write_atomic(&dir.join(entry.file), (entry.render)(true).as_bytes())?;
    }
    Ok(())
}

/// Renders the corpus file `file`, stepping with or without fast-forward,
/// and compares it byte for byte with its committed copy.
///
/// # Errors
///
/// Returns a human-readable report naming the first differing line (or the
/// missing file) and the bless command that regenerates the corpus.
///
/// # Panics
///
/// Panics on a file outside [`CORPUS`].
pub fn check(file: &str, fast_forward: bool) -> Result<(), String> {
    const BLESS: &str = "cargo run --release -p harness --bin repro -- golden --bless";
    let entry = CORPUS
        .iter()
        .find(|e| e.file == file)
        .unwrap_or_else(|| panic!("unknown golden file {file:?}"));
    let path = golden_path(file);
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!("cannot read golden file {}: {e}\nregenerate with: {BLESS}", path.display())
    })?;
    let actual = (entry.render)(fast_forward);
    if expected == actual {
        return Ok(());
    }
    let diff =
        expected.lines().zip(actual.lines()).enumerate().find(|(_, (e, a))| e != a).map_or_else(
            || {
                format!(
                    "line counts differ: golden {} vs current {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            },
            |(i, (e, a))| {
                format!("first difference at line {}:\n  golden:  {e}\n  current: {a}", i + 1)
            },
        );
    Err(format!(
        "golden file {file:?} diverged ({})\n{diff}\n\
         if the behaviour change is intentional, regenerate with: {BLESS}",
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic() {
        let records = run_scenario("smk_pair");
        assert_eq!(render("smk_pair", &records), render("smk_pair", &records));
        assert!(!records.is_empty(), "tiny config records one entry per epoch");
    }

    #[test]
    #[should_panic(expected = "unknown golden scenario")]
    fn unknown_scenario_panics() {
        run_scenario("nope");
    }

    #[test]
    fn traced_run_matches_untraced_records() {
        let (gpu, traced) = run_scenario_traced("smk_pair");
        assert_eq!(
            records_hash(&traced),
            records_hash(&run_scenario("smk_pair")),
            "flight recording must not perturb the simulation"
        );
        let ring_events: usize =
            gpu.sms().iter().map(|sm| sm.events().len()).sum::<usize>() + gpu.events().len();
        assert!(ring_events > 0, "a busy scenario must record events");
    }
}
