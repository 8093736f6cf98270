//! Video analytics: derive an IPC goal from a *frame rate* and enforce it.
//!
//! This is the motivating workload of the paper's introduction: a frame
//! processing kernel (one grid execution per frame) must sustain 60 fps
//! while a best-effort training job soaks up the remaining capacity. The
//! goal translation follows §3.2 — frame budget minus PCIe transfer time,
//! converted to IPC via the kernel's (predictable) instruction count.
//!
//! Run with: `cargo run --release --example video_analytics`

use fgqos::qos::goals::GoalTranslation;
use fgqos::{Gpu, GpuConfig, QosManager, QosSpec, QuotaScheme};
use workloads::synth;

fn main() {
    let cycles = 150_000;
    let frame_kernel = synth::frame_kernel("decode-frame", 256);
    let trainer = synth::memory_bound("train-batch", 3);

    // §3.2 goal translation: a 60 fps deadline with a 1080p frame copied
    // over PCIe each invocation. (The simulated clock is Table 1's
    // 1216 MHz; instruction count comes from the kernel model.)
    let insts_per_frame = u64::from(frame_kernel.grid_tbs()) * frame_kernel.thread_insts_per_tb();
    let translation = GoalTranslation {
        kernel_instructions: insts_per_frame,
        transfer_bytes: 1920 * 1080 * 4,
        pcie_bytes_per_us: 16_000.0, // ~16 GB/s effective PCIe 3.0 x16
        fixed_latency_us: 50.0,
    };
    let goal_ipc =
        translation.ipc_goal_for_rate(60.0).expect("60 fps is feasible after transfer overhead");
    println!(
        "frame kernel: {insts_per_frame} thread-instructions/frame, \
         {:.0} us non-kernel overhead -> IPC goal {goal_ipc:.1} for 60 fps",
        translation.overhead_us()
    );

    let mut gpu = Gpu::new(GpuConfig::paper_table1());
    let video = gpu.launch(frame_kernel);
    let batch = gpu.launch(trainer);
    let mut manager = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(video, QosSpec::qos(goal_ipc))
        .with_kernel(batch, QosSpec::best_effort());
    gpu.run(cycles, &mut manager);

    let stats = gpu.stats();
    let ipc = stats.ipc(video);
    let frames = stats.kernel(video).launches_completed;
    let fps = ipc / goal_ipc * 60.0;
    println!(
        "video kernel: {ipc:.1} IPC -> ~{fps:.1} fps equivalent \
         ({frames} full frames simulated) — 60 fps {}",
        if ipc >= goal_ipc { "SUSTAINED" } else { "DROPPED" },
    );
    println!("training kernel: {:.1} IPC on the slack", stats.ipc(batch));
}
