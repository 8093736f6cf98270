//! Determinism tests for the telemetry layer (DESIGN.md §17).
//!
//! The contract under test: latency histograms and the counter time series
//! are simulated state, not measurement noise — their `Snap` encodings are
//! byte-identical across idle fast-forward on vs. off and across a
//! snapshot → process-death → restore cut at any epoch boundary. The host
//! profiler is the deliberate exception (wall-clock, host-only) and is
//! asserted to stay *out* of snapshots.

use fgqos::sim::SharingMode;
use fgqos::{Gpu, GpuConfig, NullController, QosManager, QosSpec, QuotaScheme};
use gpu_sim::snap::encode_to_vec;
use gpu_sim::telemetry::LatencyHistogram;

const SERIES_CAP: usize = 1024;

/// Serializes everything the telemetry layer owns on a machine: the
/// sampled counter series plus the per-kernel preemption-save histograms.
fn telemetry_bytes(gpu: &Gpu) -> Vec<u8> {
    let mut out = encode_to_vec(gpu.metrics_series());
    for k in gpu.kernel_ids() {
        out.extend(encode_to_vec(&gpu.preempt_save_histogram(k)));
    }
    out
}

/// An SMK pair whose thread-block targets are squeezed mid-run, forcing
/// deterministic preemptions (and thus non-empty save-latency histograms),
/// with the counter series sampling every epoch.
fn squeezed_pair(fast_forward: bool) -> Gpu {
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = fast_forward;
    let mut gpu = Gpu::new(cfg);
    let a = gpu.launch(fgqos::workloads::by_name("lbm").expect("known"));
    let b = gpu.launch(fgqos::workloads::by_name("spmv").expect("known"));
    gpu.set_sharing_mode(SharingMode::Smk);
    gpu.enable_metrics_series(SERIES_CAP);
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 4);
        gpu.set_tb_target(sm, b, 4);
    }
    gpu.run(10_000, &mut NullController);
    // Squeeze kernel a down: its over-target thread blocks are preempted,
    // each save landing in the preempt-save histogram.
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 1);
        gpu.set_tb_target(sm, b, 7);
    }
    gpu.run(10_000, &mut NullController);
    gpu
}

#[test]
fn histograms_and_series_are_identical_with_and_without_fast_forward() {
    let gpu = squeezed_pair(true);
    assert_eq!(
        telemetry_bytes(&gpu),
        telemetry_bytes(&squeezed_pair(false)),
        "fast-forward changed telemetry bytes"
    );
    let recorded: u64 = gpu.kernel_ids().map(|k| gpu.preempt_save_histogram(k).count()).sum();
    assert!(recorded > 0, "squeeze produced no preemption saves — test lost its teeth");
    assert!(!gpu.metrics_series().rows().is_empty(), "series never sampled");
}

#[test]
fn telemetry_survives_snapshot_and_restore_byte_identically() {
    // Straight run.
    let straight = squeezed_pair(true);
    // Same run cut at the squeeze point: snapshot, "die", restore into a
    // fresh machine, continue.
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = true;
    let mut gpu = Gpu::new(cfg.clone());
    let a = gpu.launch(fgqos::workloads::by_name("lbm").expect("known"));
    let b = gpu.launch(fgqos::workloads::by_name("spmv").expect("known"));
    gpu.set_sharing_mode(SharingMode::Smk);
    gpu.enable_metrics_series(SERIES_CAP);
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 4);
        gpu.set_tb_target(sm, b, 4);
    }
    gpu.run(10_000, &mut NullController);
    let blob = gpu.snapshot().expect("10_000 is epoch-aligned for tiny");
    drop(gpu);
    let mut resumed = Gpu::new(cfg);
    resumed.restore(&blob).expect("same config restores");
    for sm in resumed.sm_ids().collect::<Vec<_>>() {
        resumed.set_tb_target(sm, a, 1);
        resumed.set_tb_target(sm, b, 7);
    }
    resumed.run(10_000, &mut NullController);
    assert_eq!(
        telemetry_bytes(&straight),
        telemetry_bytes(&resumed),
        "telemetry diverged across snapshot/restore"
    );
}

#[test]
fn profiler_state_never_rides_a_snapshot() {
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = true;
    let mut gpu = Gpu::new(cfg.clone());
    let q = gpu.launch(fgqos::workloads::by_name("mri-q").expect("known"));
    let be = gpu.launch(fgqos::workloads::by_name("lbm").expect("known"));
    let mut mgr = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q, QosSpec::qos(40.0))
        .with_kernel(be, QosSpec::best_effort());
    gpu.set_profiling(true);
    gpu.run(10_000, &mut mgr);
    assert!(gpu.profiler().attributed_nanos() > 0, "profiler never attributed anything");
    // A cold run without the profiler must snapshot to the same bytes: the
    // profiler is host-side observation, not simulated state.
    let mut cold = Gpu::new(cfg);
    let q2 = cold.launch(fgqos::workloads::by_name("mri-q").expect("known"));
    let be2 = cold.launch(fgqos::workloads::by_name("lbm").expect("known"));
    assert_eq!((q, be), (q2, be2), "launch order is deterministic");
    let mut mgr2 = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q2, QosSpec::qos(40.0))
        .with_kernel(be2, QosSpec::best_effort());
    cold.run(10_000, &mut mgr2);
    let blob = gpu.snapshot().expect("aligned");
    assert_eq!(
        blob.to_bytes(),
        cold.snapshot().expect("aligned").to_bytes(),
        "profiling changed snapshot bytes"
    );
    // And a restored machine comes back with a disarmed, empty profiler.
    let mut target = Gpu::new({
        let mut cfg = GpuConfig::tiny();
        cfg.fast_forward = true;
        cfg
    });
    target.restore(&blob).expect("same config restores");
    assert!(!target.profiler().is_enabled(), "restore armed the profiler");
    assert_eq!(target.profiler().attributed_nanos(), 0, "restore resurrected host time");
}

#[test]
fn empty_histogram_quantiles_are_total() {
    let h = LatencyHistogram::new();
    assert_eq!(h.p50(), 0);
    assert_eq!(h.p999(), 0);
    assert_eq!(h.count(), 0);
}
