//! Determinism tests for the telemetry layer (DESIGN.md §17).
//!
//! The host profiler is host-side observation (wall-clock), not simulated
//! state, and is asserted to stay *out* of snapshots; histogram quantiles
//! are total functions, empty histograms included.

use fgqos::{Gpu, GpuConfig, QosManager, QosSpec, QuotaScheme};
use gpu_sim::telemetry::LatencyHistogram;

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
