//! Differential test: trace replay is bit-identical to the traced kernel.
//!
//! For every synthetic Parboil model: capture an FGTR trace, round-trip it
//! through the codec, rebuild the kernel, and run original vs replayed
//! side by side with fast-forward on and off. The epoch-record stream hash
//! and the *entire* counter registry must agree exactly — replay is the same
//! kernel, and the simulator is deterministic, so any divergence is a codec
//! or rebuild bug.

use gpu_sim::trace::{records_hash, Tracer};
use gpu_sim::{Gpu, GpuConfig, KernelDesc, NullController};

const RUN_CYCLES: u64 = 6_000;

fn run_fingerprint(desc: &KernelDesc, cfg: &GpuConfig) -> (u64, Vec<gpu_sim::CounterEntry>) {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.launch(desc.clone());
    let mut ctrl = Tracer::new(NullController);
    gpu.run(RUN_CYCLES, &mut ctrl);
    (records_hash(&ctrl.into_parts().1), gpu.counter_registry())
}

#[test]
fn replayed_traces_match_their_kernels_with_and_without_fast_forward() {
    for name in workloads::NAMES {
        let desc = workloads::by_name(name).expect("known workload");
        let kt = trace::capture(&desc, &GpuConfig::tiny(), trace::DEFAULT_CAPTURE_CYCLES)
            .expect("every Parboil model captures within the default window");
        // Round-trip through the on-disk codec before replaying, so the
        // differential covers the full capture -> encode -> decode -> rebuild
        // pipeline, not just the in-memory struct.
        let replayed = trace::from_bytes(&trace::to_bytes(&kt))
            .expect("strict reader accepts its own writer")
            .kernel();
        assert_eq!(replayed, desc, "{name}: rebuild must be the identical kernel");

        for fast_forward in [false, true] {
            let mut cfg = GpuConfig::tiny();
            cfg.fast_forward = fast_forward;
            let (orig_hash, orig_counters) = run_fingerprint(&desc, &cfg);
            let (replay_hash, replay_counters) = run_fingerprint(&replayed, &cfg);
            assert_eq!(
                orig_hash, replay_hash,
                "{name}: records_hash diverged (fast_forward={fast_forward})"
            );
            assert_eq!(
                orig_counters, replay_counters,
                "{name}: counter registry diverged (fast_forward={fast_forward})"
            );
        }
    }
}

#[test]
fn capture_metadata_pins_the_capture_machine() {
    let desc = workloads::by_name("sgemm").expect("known workload");
    let cfg = GpuConfig::tiny();
    let kt = trace::capture(&desc, &cfg, trace::DEFAULT_CAPTURE_CYCLES).expect("capture");
    assert_eq!(kt.meta.name, "sgemm");
    assert_eq!(kt.meta.seed, desc.seed());
    assert_eq!(kt.meta.capture_cycles, trace::DEFAULT_CAPTURE_CYCLES);
    assert_eq!(kt.meta.source, trace::CAPTURE_SOURCE);
    // The fingerprint pins the *capture machine*, which runs with the
    // flight recorder forced on and rings sized for lossless recording.
    let mut capture_cfg = cfg;
    capture_cfg.trace.level = gpu_sim::TraceLevel::Events;
    capture_cfg.trace.ring_capacity = trace::CAPTURE_RING_CAPACITY;
    assert_eq!(
        kt.meta.config_fingerprint,
        Gpu::new(capture_cfg).config_fingerprint(),
        "the fingerprint identifies the capture configuration"
    );
    assert!(!kt.tbs.is_empty());
}
