//! Golden-trace corpus: canonical scenarios with byte-exact epoch telemetry.
//!
//! Three fixed scenarios — an SMK pair, a spatially partitioned pair, and a
//! datacenter-style trio — are run under a [`Tracer`] and their per-epoch
//! IPC/residency/quota series rendered to JSON under `tests/golden/`. The
//! integration test `tests/golden_traces.rs` re-runs each scenario and
//! compares the rendering byte-for-byte, so any change to scheduling,
//! quota accounting, preemption, or the fast-forward path that shifts even
//! one sample by one bit fails loudly. Regenerate after an intentional
//! behaviour change with `cargo run -p harness --bin repro -- golden --bless`.

use std::fmt::Write as _;
use std::path::PathBuf;

use gpu_sim::trace::{records_hash, EpochRecord, Tracer};
use gpu_sim::{Gpu, GpuConfig, NullController, SharingMode, TraceLevel};
use qos_core::{QosManager, QosSpec, QuotaScheme, SpartController};

/// Names of the canonical scenarios, in corpus order.
pub const SCENARIOS: [&str; 3] = ["smk_pair", "spart_pair", "datacenter_trio"];

/// Runs the named scenario and returns its epoch-record stream.
///
/// # Panics
///
/// Panics on a name outside [`SCENARIOS`].
pub fn run_scenario(name: &str) -> Vec<EpochRecord> {
    scenario_records(name, true)
}

/// Like [`run_scenario`] but forcing the naive per-cycle loop; golden
/// snapshots are stepping-independent, so both variants must agree.
pub fn run_scenario_naive(name: &str) -> Vec<EpochRecord> {
    scenario_records(name, false)
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
    cfg.trace.level = TraceLevel::Events;
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

/// Renders a record stream as the canonical golden JSON document.
///
/// One line per epoch keeps diffs readable; `ipc` uses Rust's exact
/// shortest-round-trip float formatting and `ipc_bits` pins the raw IEEE
/// bits, so byte equality of two documents implies bit equality of the
/// underlying series. The whole-stream [`records_hash`] is embedded for a
/// quick cross-check against the determinism tests.
#[must_use]
pub fn render(name: &str, records: &[EpochRecord]) -> String {
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

/// The directory holding the corpus: `tests/golden/` at the repo root.
#[must_use]
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The golden file for one scenario.
#[must_use]
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

/// Regenerates the whole corpus on disk.
///
/// # Errors
///
/// Propagates filesystem errors from creating `tests/golden/` or writing a
/// snapshot file.
pub fn bless_all() -> std::io::Result<()> {
    std::fs::create_dir_all(golden_dir())?;
    for name in SCENARIOS {
        gpu_sim::snap::frame::write_atomic(
            &golden_path(name),
            render(name, &run_scenario(name)).as_bytes(),
        )?;
    }
    Ok(())
}

/// Re-runs one scenario and compares it byte-for-byte with its golden file.
///
/// # Errors
///
/// Returns a human-readable report naming the first differing line (or the
/// missing file) and the bless command that regenerates the corpus.
pub fn check(name: &str) -> Result<(), String> {
    const BLESS: &str = "cargo run --release -p harness --bin repro -- golden --bless";
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!("cannot read golden file {}: {e}\nregenerate with: {BLESS}", path.display())
    })?;
    let actual = render(name, &run_scenario(name));
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
        "golden trace {name:?} diverged ({})\n{diff}\n\
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
