//! Parameterized synthetic kernels for tests, examples and ablations.
//!
//! These generators span the same behavioural axes as the Parboil models but
//! with a single tunable knob each, which makes them convenient for
//! controlled experiments (e.g. sweeping memory intensity to find the
//! crossover where quota gating stops helping).

use gpu_sim::{AccessPattern, KernelDesc, Op};

use crate::arrival::hash_label;

/// A purely compute-bound kernel; `alu_burst` scales arithmetic density.
pub fn compute_bound(name: &str, alu_burst: u16) -> KernelDesc {
    KernelDesc::builder(name)
        .threads_per_tb(256)
        .regs_per_thread(32)
        .grid_tbs(1024)
        .iterations(32)
        .seed(hash_label(name))
        .body(vec![Op::mem_load(AccessPattern::tile(8 * 1024)), Op::alu(4, alu_burst.max(1))])
        .build()
}

/// A bandwidth-bound streaming kernel; `loads` scales traffic per iteration.
pub fn memory_bound(name: &str, loads: u16) -> KernelDesc {
    let mut body = Vec::new();
    for _ in 0..loads.max(1) {
        body.push(Op::mem_load(AccessPattern::stream()));
    }
    body.push(Op::alu(4, 2));
    KernelDesc::builder(name)
        .threads_per_tb(256)
        .regs_per_thread(24)
        .grid_tbs(1024)
        .iterations(24)
        .seed(hash_label(name))
        .memory_intensive(true)
        .body(body)
        .build()
}

/// A kernel with a tunable compute-to-memory ratio.
///
/// `mem_fraction` in `[0, 1]`: 0 is pure compute, 1 is pure streaming.
///
/// # Panics
///
/// Panics if `mem_fraction` is outside `[0, 1]`.
pub fn mixed(name: &str, mem_fraction: f64) -> KernelDesc {
    assert!((0.0..=1.0).contains(&mem_fraction), "mem_fraction must be in [0, 1]");
    let total_slots = 16.0;
    let mem_ops = (total_slots * mem_fraction).round() as u16;
    let alu_ops = (total_slots as u16 - mem_ops).max(1);
    let mut body = vec![Op::alu(4, alu_ops)];
    for _ in 0..mem_ops {
        body.push(Op::mem_load(AccessPattern::stream()));
    }
    KernelDesc::builder(name)
        .threads_per_tb(256)
        .regs_per_thread(32)
        .grid_tbs(1024)
        .iterations(24)
        .seed(hash_label(name))
        .memory_intensive(mem_fraction >= 0.5)
        .body(body)
        .build()
}

/// A latency-sensitive kernel with small TBs and barriers, standing in for a
/// frame-processing workload (one grid execution ≈ one frame).
pub fn frame_kernel(name: &str, tbs_per_frame: u32) -> KernelDesc {
    KernelDesc::builder(name)
        .threads_per_tb(128)
        .regs_per_thread(32)
        .smem_per_tb(4 * 1024)
        .grid_tbs(tbs_per_frame.max(1))
        .iterations(12)
        .seed(hash_label(name))
        .body(vec![
            Op::mem_load(AccessPattern::tile(16 * 1024)),
            Op::alu(4, 8),
            Op::Bar,
            Op::smem(),
            Op::alu(4, 6),
            Op::mem_store(AccessPattern::stream()),
        ])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Gpu, GpuConfig, NullController};

    fn isolated_ipc(desc: KernelDesc) -> f64 {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let k = gpu.launch(desc);
        gpu.run(20_000, &mut NullController);
        gpu.stats().ipc(k)
    }

    #[test]
    fn compute_beats_memory() {
        assert!(isolated_ipc(compute_bound("c", 16)) > isolated_ipc(memory_bound("m", 3)));
    }

    #[test]
    fn mixed_interpolates_monotonically_at_extremes() {
        let pure_c = isolated_ipc(mixed("m0", 0.0));
        let half = isolated_ipc(mixed("m5", 0.5));
        let pure_m = isolated_ipc(mixed("m1", 1.0));
        assert!(pure_c > half, "{pure_c} > {half}");
        assert!(half > pure_m, "{half} > {pure_m}");
    }

    #[test]
    fn mixed_classifies_by_fraction() {
        assert!(!mixed("a", 0.2).memory_intensive());
        assert!(mixed("b", 0.8).memory_intensive());
    }

    #[test]
    #[should_panic(expected = "mem_fraction")]
    fn mixed_rejects_out_of_range() {
        let _ = mixed("x", 1.5);
    }

    #[test]
    fn names_decorrelate_seeds() {
        assert_ne!(compute_bound("a", 8).seed(), compute_bound("b", 8).seed());
    }

    #[test]
    fn frame_kernel_runs() {
        assert!(isolated_ipc(frame_kernel("f", 64)) > 0.5);
    }
}
